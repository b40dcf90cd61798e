//! Allocation-free dense kernels with a fixed reduction order.
//!
//! These are the hot inner loops of the neural-network stack: every
//! `Dense` forward ([`matmul_nt_rows`]) and backward ([`axpy`]) and
//! every batched critic prediction bottoms out here. Two contracts hold
//! for every kernel in this module:
//!
//! 1. **Caller-owned outputs.** `_into` kernels write into buffers the
//!    caller provides and never allocate, so a training step that reuses
//!    its buffers performs zero heap allocations after warm-up.
//! 2. **Fixed reduction order.** Every output element is reduced by one
//!    accumulator, strictly in ascending index order — the order of the
//!    naive scalar loop (and of `Iterator::sum`, which folds
//!    sequentially). Tiling and unrolling only choose *which* element is
//!    worked on next and widen the loop body; no kernel ever splits one
//!    element's reduction. Each result is therefore bitwise identical to
//!    that scalar loop (for a dot product: [`dot`] on the two rows),
//!    which is what keeps run journals reproducible bit-for-bit at any
//!    parallelism, tiling or buffering level. No kernel uses fused
//!    multiply-add: one rounding per product and one per sum.
//!
//! A zero-skip fast path (`0.0 * x` contributions are not added) remains
//! only in [`matmul_into`], kept from the seed implementation: it is
//! bitwise-neutral for finite operands, but would silently launder
//! `0.0 * NaN` or `0.0 * ∞` to zero. Debug builds therefore assert that
//! skipped operands are finite, surfacing poisoned inputs instead of
//! masking them. [`dot`] and
//! [`matmul_nt_into`] never skip, so a non-finite operand always reaches
//! the result.

use crate::Mat;

/// Debug-only finiteness check used on zero-skip fast paths.
///
/// Compiled out in release builds; in debug builds it panics when a
/// skipped operand would have contributed a `0.0 * NaN` / `0.0 * ∞`
/// term that the fast path silently drops.
#[inline]
pub fn debug_assert_finite(values: &[f64], context: &str) {
    debug_assert!(
        values.iter().all(|v| v.is_finite()),
        "{context}: non-finite operand would be laundered to zero by a \
         zero-skip fast path"
    );
}

/// Dot product with a single left-to-right accumulator.
///
/// Bitwise identical to
/// `a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>()` — the 4× unrolled
/// body keeps one accumulator so the reduction order is unchanged.
///
/// # Panics
///
/// Panics (debug) if the slices have different lengths; in release the
/// shorter length governs, matching `zip`.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
    let n = a.len().min(b.len());
    // `Iterator::sum::<f64>()` folds from -0.0 (the additive identity
    // that preserves the sign of a -0.0 first element); starting from
    // +0.0 would differ bitwise whenever the first product is -0.0.
    let mut acc = -0.0;
    let mut i = 0;
    while i + 4 <= n {
        acc += a[i] * b[i];
        acc += a[i + 1] * b[i + 1];
        acc += a[i + 2] * b[i + 2];
        acc += a[i + 3] * b[i + 3];
        i += 4;
    }
    while i < n {
        acc += a[i] * b[i];
        i += 1;
    }
    acc
}

/// `y += alpha * x`, element-wise (AXPY on slices).
///
/// A plain `zip` loop: each element is updated by itself, so there is
/// no reduction order to keep, and without index arithmetic the loop
/// carries no bounds checks and vectorizes.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Side of the square output tile of [`matmul_nt_into`].
///
/// A 4×4 tile is 16 accumulators, 8 SSE2 registers of two `f64` each;
/// the 4 broadcast `a` values and the 2 packed `b` pairs of one `k` step
/// bring the working set to 14 of the 16 `xmm` registers of the x86-64
/// baseline. A 4×8 tile needs 16 registers for the accumulators alone
/// and spills.
const TILE: usize = 4;

/// `a · bᵀ` written into `out` (resized by the kernel, reusing its
/// capacity): `out[i][j] = dot(a.row(i), b.row(j))`. One
/// [`matmul_nt_rows`] call over all of `a`'s rows.
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_nt_into(a: &Mat, b: &Mat, out: &mut Mat) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt dimension mismatch: {}x{} * ({}x{})ᵀ",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    out.resize_reset(a.rows(), b.rows());
    matmul_nt_rows(a.as_slice(), b, out.as_mut_slice());
}

/// `a · bᵀ` over a block of rows: `a` holds `m` consecutive rows of
/// `b.cols()` values each (a row-major chunk of a [`Mat`]'s storage) and
/// `out` receives the `m × b.rows()` product, row-major.
///
/// Both operands are read row-wise, so a layer's out×in weight matrix
/// is used as stored, without a transposed copy. The output is computed
/// in `4×4` blocks, each as 16 independent scalar accumulator chains;
/// independent chains hide the add latency that a single [`dot`] chain
/// is bound by. Each chain starts at `-0.0`, adds `a[i][k] * b[j][k]` in
/// strictly ascending `k`, never skips a zero and never fuses the
/// multiply and add, so every element is bitwise identical to
/// `dot(a_row(i), b.row(j))` — whichever block of rows it is computed
/// in. Rows and columns left over past the last full block are computed
/// by [`dot`] itself. With `b.cols() == 0` every element is `-0.0`.
///
/// # Panics
///
/// Panics if `a` and `out` do not hold the same number of rows.
pub fn matmul_nt_rows(a: &[f64], b: &Mat, out: &mut [f64]) {
    let (n, k) = (b.rows(), b.cols());
    if n == 0 {
        assert!(out.is_empty(), "matmul_nt_rows: output has no columns");
        return;
    }
    let m = out.len() / n;
    assert!(
        out.len() == m * n && a.len() == m * k,
        "matmul_nt_rows: {} inputs and {} outputs are not {m} rows of {k} and {n}",
        a.len(),
        out.len()
    );
    let a_row = |i: usize| &a[i * k..][..k];
    let (m_full, n_full) = (m - m % TILE, n - n % TILE);
    for ib in (0..m_full).step_by(TILE) {
        // Rows sliced to exactly `k` let the compiler drop the bounds
        // checks on `kk` below, which keeps the tile loop vectorized.
        let ar: [&[f64]; TILE] = std::array::from_fn(|r| a_row(ib + r));
        for jb in (0..n_full).step_by(TILE) {
            let br: [&[f64]; TILE] = std::array::from_fn(|c| &b.row(jb + c)[..k]);
            let mut acc = [[-0.0f64; TILE]; TILE];
            for kk in 0..k {
                let av: [f64; TILE] = std::array::from_fn(|r| ar[r][kk]);
                let bv: [f64; TILE] = std::array::from_fn(|c| br[c][kk]);
                for (acc_row, &ai) in acc.iter_mut().zip(&av) {
                    for (acc_ij, &bj) in acc_row.iter_mut().zip(&bv) {
                        *acc_ij += ai * bj;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                let start = (ib + r) * n + jb;
                out[start..start + TILE].copy_from_slice(acc_row);
            }
        }
        for (r, a_row) in ar.iter().enumerate() {
            for j in n_full..n {
                out[(ib + r) * n + j] = dot(a_row, b.row(j));
            }
        }
    }
    for i in m_full..m {
        for j in 0..n {
            out[i * n + j] = dot(a_row(i), b.row(j));
        }
    }
}

/// Row block height of the register-tiled matmul kernel.
const MR: usize = 4;
/// Column block width of the register-tiled matmul kernel.
const NR: usize = 8;

/// Matrix × matrix product written into `out` (resized by the kernel,
/// reusing its capacity).
///
/// Register-tiled over `MR x NR` output blocks: each block accumulates
/// its `k`-reduction in a stack array small enough to live in registers,
/// so every `a`/`b` element in the block is touched once per `k` step
/// without round-tripping partial sums through memory.
///
/// Bitwise identical to the naive row-AXPY kernel (and hence to
/// [`Mat::matmul`]): tiling only reorders *which output element* is
/// worked on next — each individual element still accumulates its
/// products from `0.0` in strictly ascending `k` order, with the same
/// `a[i][k] == 0.0` fast path. Floating-point addition is applied per
/// element, so blocking over `i`/`j` cannot change any result bit; only
/// splitting the `k` reduction could, and this kernel never does.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_into(a: &Mat, b: &Mat, out: &mut Mat) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul dimension mismatch: {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    out.resize_reset(a.rows(), b.cols());
    let (ar, ac, bc) = (a.rows(), a.cols(), b.cols());
    for ib in (0..ar).step_by(MR) {
        let iw = MR.min(ar - ib);
        let mut a_rows: [&[f64]; MR] = [&[]; MR];
        for (ii, a_row) in a_rows.iter_mut().enumerate().take(iw) {
            *a_row = a.row(ib + ii);
        }
        for jb in (0..bc).step_by(NR) {
            let jw = NR.min(bc - jb);
            let mut acc = [[0.0f64; NR]; MR];
            for k in 0..ac {
                let b_blk = &b.row(k)[jb..jb + jw];
                for (a_row, acc_row) in a_rows.iter().zip(acc.iter_mut()).take(iw) {
                    let aik = a_row[k];
                    if aik == 0.0 {
                        debug_assert_finite(b_blk, "matmul zero-skip");
                        continue;
                    }
                    for (jj, &bkj) in b_blk.iter().enumerate() {
                        acc_row[jj] += aik * bkj;
                    }
                }
            }
            for (ii, acc_row) in acc.iter().enumerate().take(iw) {
                let start = (ib + ii) * bc + jb;
                out.as_mut_slice()[start..start + jw].copy_from_slice(&acc_row[..jw]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_mat(rows: usize, cols: usize, scale: f64) -> Mat {
        Mat::from_fn(rows, cols, |i, j| {
            ((i * cols + j) as f64 * 0.37 - 1.3) * scale
        })
    }

    #[test]
    fn dot_matches_iterator_sum_bitwise() {
        for n in [0, 1, 3, 4, 7, 8, 17, 100] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 3.7).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64).cos() - 0.4).collect();
            let reference: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert_eq!(dot(&a, &b).to_bits(), reference.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn axpy_matches_scalar_loop_bitwise() {
        for n in [0, 1, 5, 8, 13] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64) * 0.7 - 2.0).collect();
            let mut y: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
            let mut reference = y.clone();
            for (r, &xi) in reference.iter_mut().zip(&x) {
                *r += -1.75 * xi;
            }
            axpy(&mut y, -1.75, &x);
            assert_eq!(y, reference, "n = {n}");
        }
    }

    #[test]
    fn matmul_into_matches_matmul_bitwise() {
        let a = seq_mat(5, 7, 0.9);
        let b = seq_mat(7, 3, -1.1);
        let mut out = Mat::zeros(0, 0);
        matmul_into(&a, &b, &mut out);
        let reference = a.matmul(&b);
        assert_eq!(out, reference);
        // Reuse without reallocation: result must still be identical.
        matmul_into(&a, &b, &mut out);
        assert_eq!(out, reference);
    }

    #[test]
    fn matmul_nt_rows_matches_whole_product_in_any_row_split() {
        let a = seq_mat(11, 7, 0.8);
        let b = seq_mat(6, 7, -1.2);
        let mut whole = Mat::zeros(0, 0);
        matmul_nt_into(&a, &b, &mut whole);
        for mid in 0..=11 {
            let mut out = vec![f64::NAN; 11 * 6];
            let (oa, ob) = out.split_at_mut(mid * 6);
            let (aa, ab) = a.as_slice().split_at(mid * 7);
            matmul_nt_rows(aa, &b, oa);
            matmul_nt_rows(ab, &b, ob);
            assert_eq!(out, whole.as_slice(), "split at row {mid}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "laundered")]
    fn zero_skip_surfaces_nan_in_debug() {
        let a = Mat::from_rows(&[&[0.0, 1.0]]);
        let mut b = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        b[(0, 0)] = f64::NAN;
        let mut out = Mat::zeros(0, 0);
        matmul_into(&a, &b, &mut out);
    }
}
