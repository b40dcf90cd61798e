use maopt_linalg::Mat;

/// Mean-squared error over every entry of a batch.
///
/// This is Eq. 4 of the paper: the critic is trained with MSE over the
/// `m + 1` metrics of each pseudo-sample, averaged over batch *and* outputs.
///
/// # Panics
///
/// Panics if `pred` and `target` have different shapes.
pub fn mse_loss(pred: &Mat, target: &Mat) -> f64 {
    assert_eq!(
        (pred.rows(), pred.cols()),
        (target.rows(), target.cols()),
        "MSE shape mismatch"
    );
    let n = (pred.rows() * pred.cols()) as f64;
    pred.as_slice()
        .iter()
        .zip(target.as_slice())
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / n
}

/// MSE loss together with its gradient `∂L/∂pred = 2(pred − target)/N`,
/// written into a caller-owned buffer.
///
/// `grad` is resized to `pred`'s shape reusing its capacity, so a
/// training loop that keeps the buffer allocates nothing here. Returns
/// the loss, bitwise equal to [`mse_loss`].
///
/// # Panics
///
/// Panics if `pred` and `target` have different shapes.
pub fn mse_loss_grad_into(pred: &Mat, target: &Mat, grad: &mut Mat) -> f64 {
    let loss = mse_loss(pred, target);
    let n = (pred.rows() * pred.cols()) as f64;
    grad.resize_reset(pred.rows(), pred.cols());
    for (g, (p, t)) in grad
        .as_mut_slice()
        .iter_mut()
        .zip(pred.as_slice().iter().zip(target.as_slice()))
    {
        *g = 2.0 * (p - t) / n;
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_loss_for_identical() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut grad = Mat::default();
        let loss = mse_loss_grad_into(&a, &a, &mut grad);
        assert_eq!(loss, 0.0);
        assert!(grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn known_value() {
        let pred = Mat::from_rows(&[&[1.0, 2.0]]);
        let target = Mat::from_rows(&[&[0.0, 4.0]]);
        // ((1)² + (−2)²) / 2 = 2.5
        assert_eq!(mse_loss(&pred, &target), 2.5);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let pred = Mat::from_rows(&[&[0.3, -0.8], &[1.2, 0.1]]);
        let target = Mat::from_rows(&[&[0.0, 0.5], &[1.0, -1.0]]);
        let mut grad = Mat::default();
        mse_loss_grad_into(&pred, &target, &mut grad);
        let h = 1e-7;
        for i in 0..2 {
            for j in 0..2 {
                let mut pp = pred.clone();
                pp[(i, j)] += h;
                let mut pm = pred.clone();
                pm[(i, j)] -= h;
                let fd = (mse_loss(&pp, &target) - mse_loss(&pm, &target)) / (2.0 * h);
                assert!((fd - grad[(i, j)]).abs() < 1e-6);
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = mse_loss(&Mat::zeros(1, 2), &Mat::zeros(2, 1));
    }
}
