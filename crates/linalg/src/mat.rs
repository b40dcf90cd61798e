use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

use crate::LinalgError;

/// A dense, row-major matrix of `f64` values.
///
/// `Mat` is the shared currency between the neural-network stack, the
/// Gaussian-process baseline and the circuit solver. It favours clarity and
/// predictable performance over micro-optimization; all the matrices in this
/// workspace are small (at most a few hundred rows).
///
/// # Example
///
/// ```
/// use maopt_linalg::Mat;
///
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Mat::identity(2);
/// let c = a.matmul(&b);
/// assert_eq!(c[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Mat {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Mat {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "flat data must have rows*cols entries"
        );
        Mat { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Mat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A view of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// A mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(
            j < self.cols,
            "column index {j} out of bounds ({})",
            self.cols
        );
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix × matrix product.
    ///
    /// Delegates to [`crate::kernels::matmul_into`]; see that kernel for
    /// the reduction-order and zero-skip contracts.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Mat) -> Mat {
        let mut out = Mat::zeros(0, 0);
        crate::kernels::matmul_into(self, rhs, &mut out);
        out
    }

    /// Matrix × vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols(), "matvec dimension mismatch");
        (0..self.rows())
            .map(|i| crate::kernels::dot(self.row(i), x))
            .collect()
    }

    /// In-place scaling by a scalar.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns `self * s` as a new matrix.
    pub fn scaled(&self, s: f64) -> Mat {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// Adds `s * rhs` into `self` (AXPY).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy_mut(&mut self, s: f64, rhs: &Mat) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "axpy shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += s * b;
        }
    }

    /// Fills the matrix with zeros, keeping its shape.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reshapes to `rows × cols` and fills with zeros, reusing the
    /// existing heap buffer whenever its capacity suffices.
    ///
    /// After a warm-up call at a given size, repeated calls perform no
    /// heap allocation — the workhorse of the workspace-reuse kernels.
    pub fn resize_reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` a copy of `src` (shape and contents), reusing the
    /// existing heap buffer whenever its capacity suffices.
    pub fn copy_from(&mut self, src: &Mat) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Maximum absolute entry, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Checks that every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Returns an error unless the matrix is square.
    pub(crate) fn require_square(&self) -> Result<usize, LinalgError> {
        if self.rows == self.cols {
            Ok(self.rows)
        } else {
            Err(LinalgError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", self.rows, self.cols),
            })
        }
    }
}

impl Default for Mat {
    /// The empty `0 × 0` matrix (no heap allocation).
    fn default() -> Self {
        Mat::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Mat> for &Mat {
    type Output = Mat;

    fn add(self, rhs: &Mat) -> Mat {
        let mut out = self.clone();
        out.axpy_mut(1.0, rhs);
        out
    }
}

impl Sub<&Mat> for &Mat {
    type Output = Mat;

    fn sub(self, rhs: &Mat) -> Mat {
        let mut out = self.clone();
        out.axpy_mut(-1.0, rhs);
        out
    }
}

impl AddAssign<&Mat> for Mat {
    fn add_assign(&mut self, rhs: &Mat) {
        self.axpy_mut(1.0, rhs);
    }
}

impl Mul<f64> for &Mat {
    type Output = Mat;

    fn mul(self, s: f64) -> Mat {
        self.scaled(s)
    }
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Mat::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Mat::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn from_rows_ragged_panics() {
        let _ = Mat::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_small() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Mat::from_rows(&[&[1.5, -2.0, 0.5], &[0.0, 3.0, 9.0]]);
        assert_eq!(a.matmul(&Mat::identity(3)), a);
        assert_eq!(Mat::identity(2).matmul(&a), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let x = vec![2.0, -1.0];
        assert_eq!(a.matvec(&x), vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn add_sub_axpy() {
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[10.0, 20.0]]);
        assert_eq!((&a + &b).as_slice(), &[11.0, 22.0]);
        assert_eq!((&b - &a).as_slice(), &[9.0, 18.0]);
        let mut c = a.clone();
        c.axpy_mut(2.0, &b);
        assert_eq!(c.as_slice(), &[21.0, 42.0]);
    }

    #[test]
    fn scaling_and_norms() {
        let m = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(m.scaled(2.0)[(1, 1)], 8.0);
    }

    #[test]
    fn from_fn_builds_expected_entries() {
        let m = Mat::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = Mat::identity(2);
        assert!(m.is_finite());
        m[(0, 1)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn require_square_rejects_rectangular() {
        let m = Mat::zeros(2, 3);
        assert!(m.require_square().is_err());
        assert_eq!(Mat::zeros(3, 3).require_square(), Ok(3));
    }
}
