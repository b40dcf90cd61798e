use maopt_linalg::Mat;

/// Per-column min–max scaler mapping data into `[0, 1]`.
///
/// The critic is trained on metric vectors whose components span wildly
/// different magnitudes (dB of gain vs. amperes of quiescent current);
/// scaling each output column to the unit interval keeps the MSE loss
/// balanced across metrics. The scaler is refit as the population grows.
///
/// Columns with zero range are mapped to the constant `0.5` and inverse
/// transforms return the original constant.
///
/// # Example
///
/// ```
/// use maopt_nn::MinMaxScaler;
/// use maopt_linalg::Mat;
///
/// let data = Mat::from_rows(&[&[0.0, 100.0], &[10.0, 300.0]]);
/// let scaler = MinMaxScaler::fit(&data);
/// let mut scaled = Mat::default();
/// scaler.transform_into(&data, &mut scaled);
/// assert_eq!(scaled[(0, 0)], 0.0);
/// assert_eq!(scaled[(1, 1)], 1.0);
/// scaler.inverse_transform_inplace(&mut scaled);
/// assert!((scaled[(1, 1)] - 300.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    ranges: Vec<f64>, // 0.0 marks a degenerate (constant) column
}

impl MinMaxScaler {
    /// Fits column-wise minima and ranges.
    ///
    /// Non-finite entries are ignored during fitting; a column with no
    /// finite entries is treated as constant zero.
    ///
    /// # Panics
    ///
    /// Panics if `data` has no rows.
    pub fn fit(data: &Mat) -> Self {
        assert!(data.rows() > 0, "cannot fit a scaler on an empty matrix");
        let cols = data.cols();
        let mut mins = vec![f64::INFINITY; cols];
        let mut maxs = vec![f64::NEG_INFINITY; cols];
        for i in 0..data.rows() {
            for (j, &v) in data.row(i).iter().enumerate() {
                if v.is_finite() {
                    mins[j] = mins[j].min(v);
                    maxs[j] = maxs[j].max(v);
                }
            }
        }
        let ranges = mins
            .iter_mut()
            .zip(&maxs)
            .map(|(mn, mx)| {
                if !mn.is_finite() {
                    *mn = 0.0;
                    return 0.0;
                }
                let r = mx - *mn;
                if r > 0.0 {
                    r
                } else {
                    0.0
                }
            })
            .collect();
        MinMaxScaler { mins, ranges }
    }

    /// Number of columns this scaler handles.
    pub fn cols(&self) -> usize {
        self.mins.len()
    }

    /// Captures the fitted parameters for checkpointing.
    pub fn state(&self) -> crate::state::ScalerState {
        crate::state::ScalerState {
            mins: self.mins.clone(),
            ranges: self.ranges.clone(),
        }
    }

    /// Rebuilds a scaler from parameters captured by
    /// [`MinMaxScaler::state`].
    ///
    /// # Panics
    ///
    /// Panics when `mins` and `ranges` have different lengths.
    pub fn from_state(state: &crate::state::ScalerState) -> Self {
        assert_eq!(
            state.mins.len(),
            state.ranges.len(),
            "scaler state columns mismatch"
        );
        MinMaxScaler {
            mins: state.mins.clone(),
            ranges: state.ranges.clone(),
        }
    }

    /// Scales a matrix into the unit box, writing into a caller-owned
    /// buffer (`out` is resized to `data`'s shape reusing its capacity).
    ///
    /// Values outside the fitted range extrapolate linearly (they are not
    /// clipped), so unseen-but-nearby data keeps its ordering.
    ///
    /// # Panics
    ///
    /// Panics if `data.cols() != self.cols()`.
    pub fn transform_into(&self, data: &Mat, out: &mut Mat) {
        assert_eq!(data.cols(), self.cols(), "scaler column mismatch");
        out.resize_reset(data.rows(), data.cols());
        for i in 0..data.rows() {
            for j in 0..data.cols() {
                out[(i, j)] = self.transform_value(data[(i, j)], j);
            }
        }
    }

    /// Maps one value in column `j` into scaled space.
    pub fn transform_value(&self, v: f64, j: usize) -> f64 {
        if self.ranges[j] == 0.0 {
            0.5
        } else {
            (v - self.mins[j]) / self.ranges[j]
        }
    }

    /// Inverse of [`MinMaxScaler::transform_into`], in place (no
    /// allocation).
    ///
    /// # Panics
    ///
    /// Panics if `data.cols() != self.cols()`.
    pub fn inverse_transform_inplace(&self, data: &mut Mat) {
        assert_eq!(data.cols(), self.cols(), "scaler column mismatch");
        for i in 0..data.rows() {
            for j in 0..data.cols() {
                data[(i, j)] = self.inverse_value(data[(i, j)], j);
            }
        }
    }

    /// Maps one scaled value in column `j` back to the original units.
    pub fn inverse_value(&self, v: f64, j: usize) -> f64 {
        if self.ranges[j] == 0.0 {
            self.mins[j]
        } else {
            v * self.ranges[j] + self.mins[j]
        }
    }

    /// Scale factor `∂scaled/∂raw` of column `j` (0 for constant columns).
    pub fn scale_factor(&self, j: usize) -> f64 {
        if self.ranges[j] == 0.0 {
            0.0
        } else {
            1.0 / self.ranges[j]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let data = Mat::from_rows(&[&[1.0, -5.0, 3.0], &[2.0, 5.0, 3.5], &[0.0, 0.0, 4.0]]);
        let s = MinMaxScaler::fit(&data);
        let mut t = Mat::default();
        s.transform_into(&data, &mut t);
        assert!(t.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        s.inverse_transform_inplace(&mut t);
        assert!((&t - &data).max_abs() < 1e-12);
    }

    #[test]
    fn constant_column_maps_to_half() {
        let data = Mat::from_rows(&[&[7.0], &[7.0]]);
        let s = MinMaxScaler::fit(&data);
        let mut t = Mat::default();
        s.transform_into(&data, &mut t);
        assert_eq!(t[(0, 0)], 0.5);
        assert_eq!(s.inverse_value(0.123, 0), 7.0);
        assert_eq!(s.scale_factor(0), 0.0);
    }

    #[test]
    fn out_of_range_extrapolates() {
        let data = Mat::from_rows(&[&[0.0], &[10.0]]);
        let s = MinMaxScaler::fit(&data);
        assert_eq!(s.transform_value(20.0, 0), 2.0);
        assert_eq!(s.transform_value(-10.0, 0), -1.0);
    }

    #[test]
    fn ignores_non_finite_entries() {
        let data = Mat::from_rows(&[&[0.0], &[f64::INFINITY], &[4.0]]);
        let s = MinMaxScaler::fit(&data);
        assert_eq!(s.transform_value(2.0, 0), 0.5);
    }

    #[test]
    fn row_api_matches_matrix_api() {
        let data = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 8.0]]);
        let s = MinMaxScaler::fit(&data);
        let row = [2.0, 5.0];
        let scaled: Vec<f64> = row
            .iter()
            .enumerate()
            .map(|(j, &v)| s.transform_value(v, j))
            .collect();
        assert_eq!(scaled, vec![0.5, 0.5]);
        let mut m = Mat::default();
        s.transform_into(&Mat::from_rows(&[&row]), &mut m);
        assert_eq!(m.row(0), &scaled[..]);
        s.inverse_transform_inplace(&mut m);
        assert_eq!(m.row(0), &row[..]);
        let back: Vec<f64> = scaled
            .iter()
            .enumerate()
            .map(|(j, &v)| s.inverse_value(v, j))
            .collect();
        assert_eq!(back, row);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_fit_panics() {
        let _ = MinMaxScaler::fit(&Mat::zeros(0, 2));
    }
}
