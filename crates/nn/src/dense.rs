use maopt_exec::join;
use maopt_linalg::kernels::{axpy, debug_assert_finite, matmul_nt_rows};
use maopt_linalg::Mat;
use rand::rngs::StdRng;
use rand::Rng;

use crate::Activation;

/// Batches below this many rows run every layer product on one thread;
/// from here on [`Dense`] splits them in two under [`join`]. A
/// single-row prediction is never split.
const MIN_SPLIT_ROWS: usize = 8;

/// Layers with fewer parameters than this zero their gradients and take
/// their optimizer update on one thread; larger ones split them in two.
pub(crate) const MIN_SPLIT_PARAMS: usize = 1024;

/// Where a batch of `rows` rows is split in two: the first multiple of
/// the kernel's 4-row tile at or past the middle.
fn batch_mid(rows: usize) -> usize {
    (rows / 2).next_multiple_of(4).min(rows)
}

/// Runs `a` and `b` under [`join`] when `split`, one after the other on
/// this thread otherwise. Callers pass two halves of one computation
/// whose output elements each half computes alone, so both paths give
/// the same bits.
pub(crate) fn fork(split: bool, a: impl FnOnce(), b: impl FnOnce() + Send) {
    if split {
        join(a, b);
    } else {
        a();
        b();
    }
}

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
    /// `∂L/∂z` (pre-activation) of the latest backward pass, batch ×
    /// outputs: computed once, read by both its input- and
    /// parameter-gradient products. Reused, so warm passes allocate
    /// nothing.
    dz: Mat,
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
            dz: Mat::default(),
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
    /// warm. The product is [`matmul_nt_rows`] over the out×in weights as
    /// stored; it has no zero-skip, so a non-finite weight or input
    /// always reaches the output.
    ///
    /// Batches of 8 rows or more (`MIN_SPLIT_ROWS`) are split in two by
    /// batch rows under [`maopt_exec::join`]: each half computes, biases
    /// and activates its own output rows, so every element is produced
    /// by one thread exactly as without the split.
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
        let (batch, k, n) = (x.rows(), x.cols(), self.outputs());
        out.resize_reset(batch, n);
        let rows = |x_rows: &[f64], out_rows: &mut [f64]| {
            matmul_nt_rows(x_rows, &self.weights, out_rows);
            self.activation.apply_biased_rows(out_rows, &self.bias);
        };
        let mid = batch_mid(batch);
        let (xa, xb) = x.as_slice().split_at(mid * k);
        let (oa, ob) = out.as_mut_slice().split_at_mut(mid * n);
        fork(batch >= MIN_SPLIT_ROWS, || rows(xa, oa), || rows(xb, ob));
    }

    /// Backward pass over the forward pass that read `x` (the layer
    /// input) and wrote `y` (its activated output). Given `∂L/∂y`,
    /// writes `∂L/∂x` into `grad_in` (resized in place — no allocation
    /// once warm).
    ///
    /// Parameter gradients accumulate across calls until
    /// [`Dense::zero_grad`]; `accumulate_params = false` propagates
    /// through a frozen layer instead (used when training an actor
    /// through the critic). The `dz == 0.0` fast path skips terms that
    /// cannot contribute — bitwise-neutral for finite operands, and debug
    /// builds assert the skipped operands really are finite so poisoned
    /// inputs are surfaced rather than laundered.
    ///
    /// Every output element is reduced by one loop in a fixed order:
    /// `∂L/∂x[s]` over outputs `o` ascending, `∂L/∂W[o]` and `∂L/∂b[o]`
    /// over samples `s` ascending. The pass runs in two phases: `dz` and
    /// `∂L/∂x` by batch rows, then `∂L/∂W` and `∂L/∂b` by weight rows.
    /// For batches of 8 rows or more (`MIN_SPLIT_ROWS`) each phase is split
    /// in two under [`maopt_exec::join`] along those rows, so the split
    /// changes no result bit.
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
        let (batch, n_in, n_out) = (grad_out.rows(), self.inputs(), self.outputs());
        let (w_mid, o_mid) = self.param_split();
        let (split, mid) = (batch >= MIN_SPLIT_ROWS, batch_mid(batch));
        grad_in.resize_reset(batch, n_in);
        let Dense {
            weights,
            activation,
            grad_weights,
            grad_bias,
            dz,
            ..
        } = self;
        let (weights, activation) = (&*weights, *activation);
        dz.resize_reset(batch, n_out);
        // `dz` and `∂L/∂x` for the samples from `s0` on whose rows `dz`
        // and `gi` hold.
        let input_grad = |s0: usize, dz: &mut [f64], gi: &mut [f64]| {
            let rows = dz
                .chunks_exact_mut(n_out.max(1))
                .zip(gi.chunks_exact_mut(n_in.max(1)));
            for (r, (dz_row, gi_row)) in rows.enumerate() {
                let s = s0 + r;
                activation.scale_by_derivative(dz_row, grad_out.row(s), y.row(s));
                for (o, &d) in dz_row.iter().enumerate() {
                    if d == 0.0 {
                        debug_assert_finite(x.row(s), "dense backward zero-skip (input)");
                        debug_assert_finite(weights.row(o), "dense backward zero-skip (weights)");
                        continue;
                    }
                    axpy(gi_row, d, weights.row(o));
                }
            }
        };
        let (dz_a, dz_b) = dz.as_mut_slice().split_at_mut(mid * n_out);
        let (gi_a, gi_b) = grad_in.as_mut_slice().split_at_mut(mid * n_in);
        fork(
            split,
            || input_grad(0, dz_a, gi_a),
            || input_grad(mid, dz_b, gi_b),
        );
        if !accumulate_params {
            return;
        }
        // `∂L/∂W` and `∂L/∂b` for the outputs from `o0` on whose rows
        // `gw` and `gb` hold.
        let dz = &*dz;
        let param_grad = |o0: usize, gw: &mut [f64], gb: &mut [f64]| {
            for (r, gb_o) in gb.iter_mut().enumerate() {
                let o = o0 + r;
                let gw_row = &mut gw[r * n_in..][..n_in];
                // The bias sum runs in a register and is stored once.
                let mut bias_sum = *gb_o;
                for s in 0..batch {
                    let d = dz[(s, o)];
                    if d == 0.0 {
                        debug_assert_finite(x.row(s), "dense backward zero-skip (input)");
                        continue;
                    }
                    bias_sum += d;
                    axpy(gw_row, d, x.row(s));
                }
                *gb_o = bias_sum;
            }
        };
        let (gw_a, gw_b) = grad_weights.as_mut_slice().split_at_mut(w_mid);
        let (gb_a, gb_b) = grad_bias.split_at_mut(o_mid);
        fork(
            split,
            || param_grad(0, gw_a, gb_a),
            || param_grad(o_mid, gw_b, gb_b),
        );
    }

    /// Clears accumulated parameter gradients, split by weight rows like
    /// [`Dense::backward_into`]'s parameter gradients for layers of at
    /// least 1024 parameters (`MIN_SPLIT_PARAMS`), so each half of a split
    /// zeroes the rows it accumulates into next.
    pub fn zero_grad(&mut self) {
        let split = self.param_count() >= MIN_SPLIT_PARAMS;
        let (w_mid, b_mid) = self.param_split();
        let (gw_a, gw_b) = self.grad_weights.as_mut_slice().split_at_mut(w_mid);
        let (gb_a, gb_b) = self.grad_bias.split_at_mut(b_mid);
        fork(
            split,
            || {
                gw_a.fill(0.0);
                gb_a.fill(0.0);
            },
            || {
                gw_b.fill(0.0);
                gb_b.fill(0.0);
            },
        );
    }

    /// Where parameter-side work splits in two: the first half owns
    /// weight rows `[0, outputs / 2)`, i.e. this many flat weights and
    /// biases; the second half owns the rest.
    pub(crate) fn param_split(&self) -> (usize, usize) {
        let rows = self.outputs() / 2;
        (rows * self.inputs(), rows)
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
    /// outputs), i.e. the order of [`Dense::params_and_grads_mut`].
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

    /// The weights and bias, mutably, with their gradients — flat, in
    /// the order [`Dense::load_params`] uses — for optimizers.
    pub(crate) fn params_and_grads_mut(&mut self) -> (&mut [f64], &[f64], &mut [f64], &[f64]) {
        (
            self.weights.as_mut_slice(),
            self.grad_weights.as_slice(),
            &mut self.bias,
            &self.grad_bias,
        )
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

    /// The forward product must not skip zero inputs: `0.0 * NaN` is
    /// NaN, and a poisoned weight has to surface rather than be
    /// laundered by a fast path.
    #[test]
    fn forward_surfaces_nan_weight_behind_zero_input() {
        let mut layer = seeded(5, 6, Activation::Identity, 4);
        layer.weights[(1, 2)] = f64::NAN;
        layer.weights[(5, 0)] = f64::NAN;
        let x = Mat::from_fn(5, 5, |s, i| {
            if i == 2 || i == 0 {
                0.0
            } else {
                0.5 + s as f64
            }
        });
        let y = forward_pass(&layer, &x);
        for s in 0..5 {
            for o in 0..6 {
                assert_eq!(
                    y[(s, o)].is_nan(),
                    o == 1 || o == 5,
                    "y[{s}][{o}] = {}",
                    y[(s, o)]
                );
            }
        }
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
