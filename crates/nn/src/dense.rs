use maopt_linalg::kernels::{axpy, debug_assert_finite, dot};
use maopt_linalg::Mat;
use rand::rngs::StdRng;
use rand::Rng;

use crate::Activation;

/// A fully connected layer: `y = act(x·Wᵀ + b)`.
///
/// Rows of the weight matrix correspond to output units, columns to inputs.
/// The layer holds no activation caches: [`Dense::forward_into`] writes
/// into a caller-owned buffer, and [`Dense::backward_into`] takes the
/// input and output of the pass it differentiates explicitly (an
/// [`crate::Mlp`] keeps them in a [`crate::Workspace`]).
#[derive(Debug, Clone)]
pub struct Dense {
    weights: Mat,
    bias: Vec<f64>,
    activation: Activation,
    grad_weights: Mat,
    grad_bias: Vec<f64>,
}

impl Dense {
    /// Creates a layer with Xavier-uniform initialized weights.
    ///
    /// The `rng` drives initialization; pass a seeded RNG for reproducible
    /// networks.
    pub fn new(inputs: usize, outputs: usize, activation: Activation, rng: &mut StdRng) -> Self {
        let limit = (6.0 / (inputs + outputs) as f64).sqrt();
        let weights = Mat::from_fn(outputs, inputs, |_, _| rng.random_range(-limit..limit));
        Dense {
            weights,
            bias: vec![0.0; outputs],
            activation,
            grad_weights: Mat::zeros(outputs, inputs),
            grad_bias: vec![0.0; outputs],
        }
    }

    /// Number of input features.
    pub fn inputs(&self) -> usize {
        self.weights.cols()
    }

    /// Number of output units.
    pub fn outputs(&self) -> usize {
        self.weights.rows()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable view of the weights (rows = outputs).
    pub fn weights(&self) -> &Mat {
        &self.weights
    }

    /// Immutable view of the bias.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Forward pass over a batch (rows = samples): `out = act(x·Wᵀ + b)`,
    /// with `out` resized in place, so nothing is allocated once it is
    /// warm.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.inputs()`.
    pub fn forward_into(&self, x: &Mat, out: &mut Mat) {
        assert_eq!(
            x.cols(),
            self.weights.cols(),
            "dense layer input width mismatch"
        );
        out.resize_reset(x.rows(), self.outputs());
        for s in 0..x.rows() {
            let row = x.row(s);
            for o in 0..self.outputs() {
                let z = dot(self.weights.row(o), row) + self.bias[o];
                out[(s, o)] = self.activation.apply(z);
            }
        }
    }

    /// Backward pass over the forward pass that read `x` (the layer
    /// input) and wrote `y` (its activated output). Given `∂L/∂y`,
    /// writes `∂L/∂x` into `grad_in` (resized in place — no allocation
    /// once warm).
    ///
    /// Parameter gradients accumulate across calls until
    /// [`Dense::zero_grad`]; `accumulate_params = false` propagates
    /// through a frozen layer instead (used when training an actor
    /// through the critic). The `dz == 0.0` fast path skips rows that
    /// cannot contribute — bitwise-neutral for finite operands, and debug
    /// builds assert the skipped operands really are finite so poisoned
    /// inputs are surfaced rather than laundered.
    ///
    /// # Panics
    ///
    /// Panics if `grad_out` does not match `y`'s shape.
    pub fn backward_into(
        &mut self,
        x: &Mat,
        y: &Mat,
        grad_out: &Mat,
        grad_in: &mut Mat,
        accumulate_params: bool,
    ) {
        assert_eq!(
            (grad_out.rows(), grad_out.cols()),
            (y.rows(), y.cols()),
            "backward called with mismatched gradient shape (did you forward first?)"
        );
        let batch = grad_out.rows();
        grad_in.resize_reset(batch, self.inputs());
        for s in 0..batch {
            for o in 0..self.outputs() {
                let dz = grad_out[(s, o)] * self.activation.derivative_from_output(y[(s, o)]);
                if dz == 0.0 {
                    debug_assert_finite(x.row(s), "dense backward zero-skip (input)");
                    debug_assert_finite(self.weights.row(o), "dense backward zero-skip (weights)");
                    continue;
                }
                if accumulate_params {
                    self.grad_bias[o] += dz;
                    axpy(self.grad_weights.row_mut(o), dz, x.row(s));
                }
                axpy(grad_in.row_mut(s), dz, self.weights.row(o));
            }
        }
    }

    /// Clears accumulated parameter gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weights.fill_zero();
        self.grad_bias.fill(0.0);
    }

    /// Applies `params -= lr * grads` (plain SGD step).
    pub fn sgd_step(&mut self, lr: f64) {
        self.weights.axpy_mut(-lr, &self.grad_weights);
        for (b, g) in self.bias.iter_mut().zip(&self.grad_bias) {
            *b -= lr * g;
        }
    }

    /// Overwrites weights and bias from flat slices (checkpoint restore).
    /// Weight order matches `weights().as_slice()` (row-major, rows =
    /// outputs), i.e. the same order [`Dense::visit_params_mut`] walks.
    ///
    /// # Panics
    ///
    /// Panics when a slice length does not match this layer's shape.
    pub(crate) fn load_params(&mut self, weights: &[f64], bias: &[f64]) {
        assert_eq!(
            weights.len(),
            self.weights.rows() * self.weights.cols(),
            "checkpointed weight count does not match layer shape"
        );
        assert_eq!(
            bias.len(),
            self.bias.len(),
            "checkpointed bias count does not match layer shape"
        );
        self.weights.as_mut_slice().copy_from_slice(weights);
        self.bias.copy_from_slice(bias);
    }

    /// Visits `(parameter, gradient)` pairs mutably — used by optimizers.
    pub(crate) fn visit_params_mut(&mut self, mut f: impl FnMut(&mut f64, f64)) {
        for (w, g) in self
            .weights
            .as_mut_slice()
            .iter_mut()
            .zip(self.grad_weights.as_slice())
        {
            f(w, *g);
        }
        for (b, g) in self.bias.iter_mut().zip(&self.grad_bias) {
            f(b, *g);
        }
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn seeded(inputs: usize, outputs: usize, activation: Activation, seed: u64) -> Dense {
        Dense::new(
            inputs,
            outputs,
            activation,
            &mut StdRng::seed_from_u64(seed),
        )
    }

    fn forward_pass(layer: &Dense, x: &Mat) -> Mat {
        let mut out = Mat::default();
        layer.forward_into(x, &mut out);
        out
    }

    fn backward_pass(layer: &mut Dense, x: &Mat, grad_out: &Mat, accumulate_params: bool) -> Mat {
        let y = forward_pass(layer, x);
        let mut grad_in = Mat::default();
        layer.backward_into(x, &y, grad_out, &mut grad_in, accumulate_params);
        grad_in
    }

    #[test]
    fn forward_identity_is_affine() {
        let layer = seeded(2, 1, Activation::Identity, 1);
        let x = Mat::from_rows(&[&[1.0, 2.0]]);
        let y = forward_pass(&layer, &x);
        let expected = layer.weights()[(0, 0)] + 2.0 * layer.weights()[(0, 1)];
        assert!((y[(0, 0)] - expected).abs() < 1e-15);
    }

    #[test]
    fn xavier_init_within_limit() {
        let layer = seeded(10, 10, Activation::Relu, 3);
        let limit = (6.0 / 20.0_f64).sqrt();
        assert!(layer.weights().as_slice().iter().all(|w| w.abs() <= limit));
        assert!(layer.bias().iter().all(|&b| b == 0.0));
    }

    #[test]
    fn param_count() {
        let layer = seeded(3, 5, Activation::Relu, 0);
        assert_eq!(layer.param_count(), 3 * 5 + 5);
    }

    /// Central-difference gradient check of both parameter and input
    /// gradients for a single layer under an L = Σ y² loss.
    #[test]
    fn backward_matches_finite_difference() {
        for act in [Activation::Identity, Activation::Tanh, Activation::Sigmoid] {
            let mut layer = seeded(3, 2, act, 11);
            let x = Mat::from_rows(&[&[0.3, -0.7, 0.2], &[0.9, 0.1, -0.4]]);

            let loss = |l: &Dense, xx: &Mat| -> f64 {
                let y = forward_pass(l, xx);
                y.as_slice().iter().map(|v| v * v).sum()
            };

            // Analytic gradients: dL/dy = 2y.
            let grad_out = forward_pass(&layer, &x).scaled(2.0);
            layer.zero_grad();
            let grad_in = backward_pass(&mut layer, &x, &grad_out, true);

            let h = 1e-6;
            // Parameter gradients.
            for o in 0..2 {
                for i in 0..3 {
                    let mut lp = layer.clone();
                    lp.weights[(o, i)] += h;
                    let mut lm = layer.clone();
                    lm.weights[(o, i)] -= h;
                    let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
                    let an = layer.grad_weights[(o, i)];
                    assert!(
                        (fd - an).abs() < 1e-4 * (1.0 + fd.abs()),
                        "{act:?} dW[{o}][{i}]: fd={fd} an={an}"
                    );
                }
                let mut lp = layer.clone();
                lp.bias[o] += h;
                let mut lm = layer.clone();
                lm.bias[o] -= h;
                let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
                let an = layer.grad_bias[o];
                assert!((fd - an).abs() < 1e-4 * (1.0 + fd.abs()), "{act:?} db[{o}]");
            }
            // Input gradients.
            for s in 0..2 {
                for i in 0..3 {
                    let mut xp = x.clone();
                    xp[(s, i)] += h;
                    let mut xm = x.clone();
                    xm[(s, i)] -= h;
                    let fd = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * h);
                    let an = grad_in[(s, i)];
                    assert!(
                        (fd - an).abs() < 1e-4 * (1.0 + fd.abs()),
                        "{act:?} dX[{s}][{i}]: fd={fd} an={an}"
                    );
                }
            }
        }
    }

    #[test]
    fn frozen_backward_leaves_param_grads_untouched() {
        let mut layer = seeded(2, 2, Activation::Tanh, 5);
        let x = Mat::from_rows(&[&[0.5, -0.5]]);
        let grad_out = forward_pass(&layer, &x).scaled(2.0);
        layer.zero_grad();
        let _ = backward_pass(&mut layer, &x, &grad_out, false);
        assert!(layer.grad_weights.as_slice().iter().all(|&g| g == 0.0));
        assert!(layer.grad_bias.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn sgd_step_reduces_quadratic_loss() {
        let mut layer = seeded(1, 1, Activation::Identity, 2);
        let x = Mat::from_rows(&[&[1.0]]);
        let target = 3.0;
        let mut prev_loss = f64::INFINITY;
        for _ in 0..50 {
            let y = forward_pass(&layer, &x);
            let err = y[(0, 0)] - target;
            let loss = err * err;
            assert!(loss <= prev_loss + 1e-12, "loss must not increase");
            prev_loss = loss;
            layer.zero_grad();
            let grad = Mat::from_rows(&[&[2.0 * err]]);
            backward_pass(&mut layer, &x, &grad, true);
            layer.sgd_step(0.1);
        }
        assert!(prev_loss < 1e-6);
    }
}
