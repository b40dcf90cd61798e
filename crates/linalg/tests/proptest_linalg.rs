//! Property-based tests for the linear-algebra foundation.

use maopt_linalg::{CLu, CMat, Cholesky, Complex, Lu, Mat};
use proptest::prelude::*;

/// Strategy: an n×n matrix with entries in [-1, 1] and a boosted diagonal so
/// the system is well conditioned.
fn well_conditioned(n: usize) -> impl Strategy<Value = Mat> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let mut m = Mat::from_vec(n, n, data);
        for i in 0..n {
            m[(i, i)] += n as f64 + 2.0;
        }
        m
    })
}

fn rhs(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, n)
}

/// Strategy: an arbitrary rows×cols matrix with a sprinkling of exact
/// zeros so the kernels' zero-skip fast paths are exercised.
fn any_mat(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    prop::collection::vec(-10.0f64..10.0, rows * cols).prop_map(move |mut data| {
        for (i, v) in data.iter_mut().enumerate() {
            if i % 4 == 0 {
                *v = 0.0;
            }
        }
        Mat::from_vec(rows, cols, data)
    })
}

/// Reference matmul: the seed implementation's exact loop, kept here so
/// the kernel path is compared against the original reduction order.
fn reference_matmul(a: &Mat, b: &Mat) -> Mat {
    let mut out = Mat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let aik = a[(i, k)];
            if aik == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out[(i, j)] += aik * b[(k, j)];
            }
        }
    }
    out
}

/// Reference matvec: per-row `Iterator::sum` as in the seed code.
fn reference_matvec(a: &Mat, x: &[f64]) -> Vec<f64> {
    (0..a.rows())
        .map(|i| a.row(i).iter().zip(x).map(|(p, q)| p * q).sum())
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Strategy: an `m×k` / `k×n` matmul pair, with the dimensions ranging over sizes that straddle the tiled kernels' 4-row /
/// 8-column block boundaries (exact multiples, ragged remainders and the
/// degenerate 1-sized edges). Entry pools are drawn at the maximum size
/// and truncated to the drawn dimensions, with every fourth entry forced
/// to an exact zero to exercise the zero-skip fast paths.
fn ragged_case() -> impl Strategy<Value = (Mat, Mat)> {
    const MAX_M: usize = 9;
    const MAX_K: usize = 10;
    const MAX_N: usize = 19;
    let entries = |len: usize| prop::collection::vec(-10.0f64..10.0, len);
    (
        1usize..MAX_M + 1,
        1usize..MAX_K + 1,
        1usize..MAX_N + 1,
        entries(MAX_M * MAX_K),
        entries(MAX_K * MAX_N),
    )
        .prop_map(|(m, k, n, da, db)| {
            let sprinkle = |mut data: Vec<f64>| {
                for (i, v) in data.iter_mut().enumerate() {
                    if i % 4 == 0 {
                        *v = 0.0;
                    }
                }
                data
            };
            (
                Mat::from_vec(m, k, sprinkle(da[..m * k].to_vec())),
                Mat::from_vec(k, n, sprinkle(db[..k * n].to_vec())),
            )
        })
}

/// Reference `a · bᵀ`: one accumulator per element, starting at `-0.0`
/// and adding `a[i][k] * b[j][k]` in ascending `k` with no zero-skip.
/// Written out here so it shares no code with the tiled kernel.
fn reference_matmul_nt(a: &Mat, b: &Mat) -> Mat {
    let mut out = Mat::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = -0.0;
            for k in 0..a.cols() {
                acc += a[(i, k)] * b[(j, k)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// Strategy: an `m×k` / `n×k` pair for `a · bᵀ`. `m` and `n` straddle the
/// 4×4 tile (full tiles, ragged remainders, and 0 or 1), `k` includes 0.
/// Entries are mixed with `+0.0` and `-0.0` so signed-zero products and
/// sums of zeros take part in every reduction.
fn nt_case() -> impl Strategy<Value = (Mat, Mat)> {
    const MAX_M: usize = 11;
    const MAX_N: usize = 14;
    const MAX_K: usize = 9;
    let entries = |len: usize| prop::collection::vec((-10.0f64..10.0, 0usize..6), len);
    (
        0usize..MAX_M + 1,
        0usize..MAX_N + 1,
        0usize..MAX_K + 1,
        entries(MAX_M * MAX_K),
        entries(MAX_N * MAX_K),
    )
        .prop_map(|(m, n, k, da, db)| {
            let signed_zeros = |data: &[(f64, usize)]| -> Vec<f64> {
                data.iter()
                    .map(|&(v, pick)| match pick {
                        0 => 0.0,
                        1 => -0.0,
                        _ => v,
                    })
                    .collect()
            };
            (
                Mat::from_vec(m, k, signed_zeros(&da[..m * k])),
                Mat::from_vec(n, k, signed_zeros(&db[..n * k])),
            )
        })
}

proptest! {
    #[test]
    fn lu_solution_satisfies_system(a in well_conditioned(6), b in rhs(6)) {
        let lu = Lu::new(a.clone()).expect("well-conditioned matrix must factor");
        let x = lu.solve(&b).unwrap();
        let ax = a.matvec(&x);
        for (axi, bi) in ax.iter().zip(&b) {
            prop_assert!((axi - bi).abs() < 1e-8, "residual too large: {axi} vs {bi}");
        }
    }

    #[test]
    fn lu_inverse_roundtrip(a in well_conditioned(5)) {
        let inv = Lu::new(a.clone()).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv);
        let err = (&prod - &Mat::identity(5)).max_abs();
        prop_assert!(err < 1e-8, "A·A⁻¹ deviates from I by {err}");
    }

    #[test]
    fn det_of_product_is_product_of_dets(
        a in well_conditioned(4),
        b in well_conditioned(4),
    ) {
        let dab = Lu::new(a.matmul(&b)).unwrap().det();
        let da = Lu::new(a).unwrap().det();
        let db = Lu::new(b).unwrap().det();
        let rel = (dab - da * db).abs() / (da * db).abs().max(1.0);
        prop_assert!(rel < 1e-8, "det(AB) != det(A)det(B): {dab} vs {}", da * db);
    }

    #[test]
    fn cholesky_agrees_with_lu_on_spd(base in well_conditioned(5), b in rhs(5)) {
        // BᵀB + I is SPD.
        let mut a = base.transpose().matmul(&base);
        for i in 0..5 {
            a[(i, i)] += 1.0;
        }
        let x_ch = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let x_lu = Lu::new(a).unwrap().solve(&b).unwrap();
        for (c, l) in x_ch.iter().zip(&x_lu) {
            prop_assert!((c - l).abs() < 1e-7);
        }
    }

    #[test]
    fn transpose_is_involution(data in prop::collection::vec(-5.0f64..5.0, 12)) {
        let m = Mat::from_vec(3, 4, data);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_is_associative(
        a in well_conditioned(3),
        b in well_conditioned(3),
        c in well_conditioned(3),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!((&left - &right).max_abs() < 1e-9);
    }

    #[test]
    fn complex_lu_solves_shifted_systems(
        a in well_conditioned(4),
        b in rhs(4),
        omega in 0.1f64..10.0,
    ) {
        // Factor A + jω·I, a shape that mirrors G + jωC in AC analysis.
        let n = 4;
        let mut cm = CMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                cm[(i, j)] = Complex::new(a[(i, j)], if i == j { omega } else { 0.0 });
            }
        }
        let bc: Vec<Complex> = b.iter().map(|&v| Complex::from_real(v)).collect();
        let x = CLu::new(cm.clone()).unwrap().solve(&bc).unwrap();
        let ax = cm.matvec(&x);
        for (axi, bi) in ax.iter().zip(&bc) {
            prop_assert!((*axi - *bi).abs() < 1e-8);
        }
    }

    /// `matmul_into`, and the `Mat` products over it and over `dot`,
    /// must be bitwise identical to the seed implementations — the
    /// determinism contract of the workspace-reuse layer.
    #[test]
    fn kernels_bitwise_match_seed_implementations(
        a in any_mat(5, 7),
        b in any_mat(7, 4),
        x in prop::collection::vec(-3.0f64..3.0, 7),
    ) {
        prop_assert_eq!(
            bits(a.matmul(&b).as_slice()),
            bits(reference_matmul(&a, &b).as_slice())
        );
        prop_assert_eq!(bits(&a.matvec(&x)), bits(&reference_matvec(&a, &x)));

        // Dirty, reused buffers must not leak into results.
        let mut out = Mat::from_rows(&[&[9.9; 3]]);
        maopt_linalg::kernels::matmul_into(&a, &b, &mut out);
        prop_assert_eq!(bits(out.as_slice()), bits(reference_matmul(&a, &b).as_slice()));
    }

    /// The register-tiled `matmul_into` must stay bitwise identical to
    /// the seed loop on ragged shapes — dimensions straddling the 4-row /
    /// 8-column tile boundaries, including exact multiples and the
    /// degenerate 1-sized edges where partial tiles do all the work.
    #[test]
    fn tiled_kernels_bitwise_match_seed_on_ragged_shapes(case in ragged_case()) {
        let (a, b) = case;
        let mut out = Mat::zeros(0, 0);
        maopt_linalg::kernels::matmul_into(&a, &b, &mut out);
        prop_assert_eq!(
            bits(out.as_slice()),
            bits(reference_matmul(&a, &b).as_slice())
        );
    }

    /// The register-tiled `a · bᵀ` kernel must match the naive
    /// `-0.0`-start, ascending-`k`, no-skip loop bit for bit on every
    /// shape, through a dirty reused output buffer. With `k = 0` every
    /// element is the empty sum `-0.0`.
    #[test]
    fn matmul_nt_bitwise_matches_naive_loop(case in nt_case()) {
        let (a, b) = case;
        let mut out = Mat::from_rows(&[&[7.5; 5]]);
        maopt_linalg::kernels::matmul_nt_into(&a, &b, &mut out);
        prop_assert_eq!((out.rows(), out.cols()), (a.rows(), b.rows()));
        prop_assert_eq!(
            bits(out.as_slice()),
            bits(reference_matmul_nt(&a, &b).as_slice())
        );
        if a.cols() == 0 {
            prop_assert!(out.as_slice().iter().all(|v| v.to_bits() == (-0.0f64).to_bits()));
        }
    }

    /// `dot` must fold exactly like `Iterator::sum` despite unrolling.
    #[test]
    fn dot_matches_iterator_sum(
        pairs in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 0..40),
    ) {
        let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let reference: f64 = a.iter().zip(&b).map(|(p, q)| p * q).sum();
        prop_assert_eq!(
            maopt_linalg::kernels::dot(&a, &b).to_bits(),
            reference.to_bits()
        );
    }

    /// `resize_reset`/`copy_from` leave the matrix in the same state as
    /// a fresh construction.
    #[test]
    fn buffer_reuse_matches_fresh_construction(a in any_mat(4, 6), b in any_mat(2, 3)) {
        let mut m = a.clone();
        m.resize_reset(3, 5);
        prop_assert_eq!(&m, &Mat::zeros(3, 5));
        m.copy_from(&b);
        prop_assert_eq!(&m, &b);
    }

    #[test]
    fn complex_field_axioms(re1 in -5.0f64..5.0, im1 in -5.0f64..5.0,
                            re2 in -5.0f64..5.0, im2 in -5.0f64..5.0) {
        let a = Complex::new(re1, im1);
        let b = Complex::new(re2, im2);
        // Commutativity
        prop_assert!((a * b - b * a).abs() < 1e-12);
        prop_assert!((a + b - (b + a)).abs() < 1e-12);
        // |ab| = |a||b|
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9);
        // Conjugate distributes over multiplication
        prop_assert!(((a * b).conj() - a.conj() * b.conj()).abs() < 1e-9);
    }
}

/// A NaN in `b` facing a `0.0` in `a` must reach the output: the kernel
/// has no zero-skip, so `0.0 * NaN` is added like any other product.
/// Both a full 4×4 tile and the ragged `dot` edges are covered.
#[test]
fn matmul_nt_propagates_nan_behind_zero() {
    let a = Mat::from_fn(5, 3, |i, k| if k == 1 { 0.0 } else { 1.0 + i as f64 });
    let mut b = Mat::from_fn(6, 3, |j, k| 0.25 * (j + k) as f64);
    b[(2, 1)] = f64::NAN;
    b[(5, 1)] = f64::NAN;
    let mut out = Mat::default();
    maopt_linalg::kernels::matmul_nt_into(&a, &b, &mut out);
    for i in 0..5 {
        for j in 0..6 {
            assert_eq!(
                out[(i, j)].is_nan(),
                j == 2 || j == 5,
                "out[{i}][{j}] = {}",
                out[(i, j)]
            );
        }
    }
}

/// With an empty reduction (`k = 0`) every element, tiled or ragged, is
/// the empty sum `-0.0`.
#[test]
fn matmul_nt_empty_reduction_is_negative_zero() {
    let mut out = Mat::from_rows(&[&[1.0; 3]]);
    maopt_linalg::kernels::matmul_nt_into(&Mat::zeros(5, 0), &Mat::zeros(6, 0), &mut out);
    assert_eq!((out.rows(), out.cols()), (5, 6));
    assert!(out
        .as_slice()
        .iter()
        .all(|v| v.to_bits() == (-0.0f64).to_bits()));
}
