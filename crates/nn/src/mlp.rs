use maopt_linalg::Mat;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Activation, Dense, Workspace};

/// A multi-layer perceptron: a stack of [`Dense`] layers.
///
/// Hidden layers share one activation; the output layer is linear
/// ([`Activation::Identity`]) unless overridden with
/// [`Mlp::with_output_activation`]. This mirrors the paper's networks:
/// the critic is a plain regression MLP, the actor ends in `tanh` so its
/// action is bounded.
///
/// # Example
///
/// ```
/// use maopt_nn::{Activation, Mlp};
/// use maopt_linalg::Mat;
///
/// let mlp = Mlp::new(&[2, 100, 100, 3], Activation::Relu, 0);
/// assert_eq!(mlp.inputs(), 2);
/// assert_eq!(mlp.outputs(), 3);
/// let y = mlp.predict(&[0.5, -0.5]);
/// assert_eq!(y.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP from layer widths, e.g. `&[4, 100, 100, 2]`.
    ///
    /// Hidden layers use `hidden_activation`; the final layer is linear.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(widths: &[usize], hidden_activation: Activation, seed: u64) -> Self {
        assert!(
            widths.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(widths.len() - 1);
        for w in widths.windows(2) {
            let is_last = layers.len() == widths.len() - 2;
            let act = if is_last {
                Activation::Identity
            } else {
                hidden_activation
            };
            layers.push(Dense::new(w[0], w[1], act, &mut rng));
        }
        Mlp { layers }
    }

    /// Builds an MLP whose output layer uses `output_activation` instead of
    /// the default linear output.
    pub fn with_output_activation(
        widths: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        seed: u64,
    ) -> Self {
        assert!(
            widths.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(widths.len() - 1);
        let last = widths.len() - 2;
        for (i, w) in widths.windows(2).enumerate() {
            let act = if i == last {
                output_activation
            } else {
                hidden_activation
            };
            layers.push(Dense::new(w[0], w[1], act, &mut rng));
        }
        Mlp { layers }
    }

    /// Input feature count.
    pub fn inputs(&self) -> usize {
        self.layers.first().expect("MLP has layers").inputs()
    }

    /// Output feature count.
    pub fn outputs(&self) -> usize {
        self.layers.last().expect("MLP has layers").outputs()
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable access to the layers (used by optimizers).
    pub(crate) fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Forward pass over a batch (rows = samples) through caller-owned
    /// [`Workspace`] buffers.
    ///
    /// Activations (including a copy of the input) land in `ws`, the
    /// network is untouched (`&self`), and nothing is allocated once the
    /// workspace is warm for this `(batch, widths)` shape. The returned
    /// reference is the activated output, living in `ws`. Pair with
    /// [`Mlp::backward_ws`] for a zero-allocation training step.
    pub fn forward_ws<'w>(&self, x: &Mat, ws: &'w mut Workspace) -> &'w Mat {
        let n = self.layers.len();
        ws.acts.resize_with(n + 1, Mat::default);
        ws.acts[0].copy_from(x);
        for (l, layer) in self.layers.iter().enumerate() {
            let (head, tail) = ws.acts.split_at_mut(l + 1);
            layer.forward_into(&head[l], &mut tail[0]);
        }
        &ws.acts[n]
    }

    /// Backward pass over the activations of a preceding
    /// [`Mlp::forward_ws`] on the same workspace. Parameter gradients
    /// accumulate when `accumulate` is true (frozen-network mode
    /// otherwise); the returned reference is `∂L/∂input`, living in
    /// `ws`. Allocation-free once warm.
    ///
    /// Frozen mode is how an actor trains through the critic: the
    /// critic's input gradient with respect to the action half of its
    /// input is the actor's output gradient.
    ///
    /// # Panics
    ///
    /// Panics if the workspace does not hold activations matching this
    /// network (no `forward_ws`, or one from a different network).
    pub fn backward_ws<'w>(
        &mut self,
        grad_out: &Mat,
        ws: &'w mut Workspace,
        accumulate: bool,
    ) -> &'w Mat {
        let n = self.layers.len();
        assert_eq!(
            ws.acts.len(),
            n + 1,
            "backward_ws needs the activations of a preceding forward_ws"
        );
        let (ga, gb) = ws.gbuf.split_at_mut(1);
        let (ga, gb) = (&mut ga[0], &mut gb[0]);
        ga.copy_from(grad_out);
        let mut src_is_a = true;
        for (l, layer) in self.layers.iter_mut().enumerate().rev() {
            let (src, dst) = if src_is_a {
                (&*ga, &mut *gb)
            } else {
                (&*gb, &mut *ga)
            };
            layer.backward_into(&ws.acts[l], &ws.acts[l + 1], src, dst, accumulate);
            src_is_a = !src_is_a;
        }
        if src_is_a {
            &ws.gbuf[0]
        } else {
            &ws.gbuf[1]
        }
    }

    /// Convenience single-sample prediction: one [`Mlp::forward_ws`]
    /// pass through a local [`Workspace`].
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        let mut ws = Workspace::new();
        self.forward_ws(&Mat::from_rows(&[x]), &mut ws)
            .as_slice()
            .to_vec()
    }

    /// Clears all accumulated parameter gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }
}

/// One full-batch MSE pass for unit tests: [`Mlp::forward_ws`], the loss
/// gradient, [`Mlp::zero_grad`] and an accumulating [`Mlp::backward_ws`],
/// leaving the parameter gradients for an optimizer step. Returns the
/// loss.
#[cfg(test)]
pub(crate) fn mse_backward(
    mlp: &mut Mlp,
    x: &Mat,
    y: &Mat,
    ws: &mut Workspace,
    grad: &mut Mat,
) -> f64 {
    let loss = crate::mse_loss_grad_into(mlp.forward_ws(x, ws), y, grad);
    mlp.zero_grad();
    mlp.backward_ws(grad, ws, true);
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mse_loss_grad_into, Adam};

    #[test]
    fn shapes_propagate() {
        let mlp = Mlp::new(&[3, 8, 5, 2], Activation::Relu, 0);
        assert_eq!(mlp.inputs(), 3);
        assert_eq!(mlp.outputs(), 2);
        assert_eq!(mlp.layers().len(), 3);
        assert_eq!(mlp.param_count(), (3 * 8 + 8) + (8 * 5 + 5) + (5 * 2 + 2));
    }

    #[test]
    fn output_layer_is_linear_by_default() {
        let mlp = Mlp::new(&[1, 4, 1], Activation::Tanh, 0);
        assert_eq!(
            mlp.layers().last().unwrap().activation(),
            Activation::Identity
        );
        assert_eq!(mlp.layers()[0].activation(), Activation::Tanh);
    }

    #[test]
    fn with_output_activation_bounds_output() {
        let mlp = Mlp::with_output_activation(&[2, 8, 2], Activation::Relu, Activation::Tanh, 1);
        let y = mlp.predict(&[100.0, -100.0]);
        assert!(y.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = Mlp::new(&[2, 6, 1], Activation::Tanh, 99);
        let b = Mlp::new(&[2, 6, 1], Activation::Tanh, 99);
        assert_eq!(a.predict(&[0.3, 0.4]), b.predict(&[0.3, 0.4]));
        let c = Mlp::new(&[2, 6, 1], Activation::Tanh, 100);
        assert_ne!(a.predict(&[0.3, 0.4]), c.predict(&[0.3, 0.4]));
    }

    /// Full-network gradient check against central differences.
    #[test]
    fn network_gradients_match_finite_difference() {
        let mut mlp = Mlp::new(&[2, 5, 3, 1], Activation::Tanh, 17);
        let x = Mat::from_rows(&[&[0.2, -0.4], &[0.8, 0.3], &[-0.6, 0.9]]);
        let y = Mat::from_rows(&[&[1.0], &[-1.0], &[0.5]]);

        let mut ws = Workspace::new();
        let mut grad = Mat::default();
        mse_loss_grad_into(mlp.forward_ws(&x, &mut ws), &y, &mut grad);
        let grad_in = mlp.backward_ws(&grad, &mut ws, true).clone();

        let loss_of = |m: &Mlp, xx: &Mat| -> f64 {
            let mut ws = Workspace::new();
            let p = m.forward_ws(xx, &mut ws);
            let n = (p.rows() * p.cols()) as f64;
            p.as_slice()
                .iter()
                .zip(y.as_slice())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                / n
        };

        // Spot-check input gradients at every coordinate.
        let h = 1e-6;
        for s in 0..3 {
            for i in 0..2 {
                let mut xp = x.clone();
                xp[(s, i)] += h;
                let mut xm = x.clone();
                xm[(s, i)] -= h;
                let fd = (loss_of(&mlp, &xp) - loss_of(&mlp, &xm)) / (2.0 * h);
                let an = grad_in[(s, i)];
                assert!(
                    (fd - an).abs() < 1e-5 * (1.0 + fd.abs()),
                    "dX[{s}][{i}]: fd={fd} an={an}"
                );
            }
        }
    }

    #[test]
    fn frozen_backward_matches_accumulating_input_grad() {
        let mut a = Mlp::new(&[3, 6, 2], Activation::Tanh, 4);
        let mut b = a.clone();
        let x = Mat::from_rows(&[&[0.1, 0.2, 0.3]]);
        let g = Mat::from_rows(&[&[1.0, -2.0]]);
        let (mut wa, mut wb) = (Workspace::new(), Workspace::new());
        a.forward_ws(&x, &mut wa);
        b.forward_ws(&x, &mut wb);
        let gi_full = a.backward_ws(&g, &mut wa, true);
        let gi_frozen = b.backward_ws(&g, &mut wb, false);
        assert_eq!(gi_full, gi_frozen);
    }

    /// Full-batch training: `forward_ws` → MSE → `backward_ws` → Adam.
    fn train(mlp: &mut Mlp, adam: &mut Adam, x: &Mat, y: &Mat, steps: usize) -> f64 {
        let mut ws = Workspace::new();
        let mut grad = Mat::default();
        let mut loss = f64::NAN;
        for _ in 0..steps {
            loss = mse_backward(mlp, x, y, &mut ws, &mut grad);
            adam.step(mlp);
        }
        loss
    }

    #[test]
    fn learns_xor() {
        let mut mlp = Mlp::new(&[2, 16, 1], Activation::Tanh, 7);
        let mut adam = Adam::new(&mlp, 5e-3);
        let x = Mat::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Mat::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
        train(&mut mlp, &mut adam, &x, &y, 2000);
        let mut ws = Workspace::new();
        let pred = mlp.forward_ws(&x, &mut ws);
        for (p, t) in pred.as_slice().iter().zip(y.as_slice()) {
            assert!((p - t).abs() < 0.1, "XOR not learned: {p} vs {t}");
        }
    }

    #[test]
    fn fits_multioutput_sine_family() {
        // Regression with 2 outputs: [sin(πx), x²] — shapes the critic must fit.
        let mut mlp = Mlp::new(&[1, 32, 32, 2], Activation::Tanh, 3);
        let mut adam = Adam::new(&mlp, 3e-3);
        let n = 64;
        let x = Mat::from_fn(n, 1, |i, _| -1.0 + 2.0 * i as f64 / (n - 1) as f64);
        let y = Mat::from_fn(n, 2, |i, j| {
            let xi = x[(i, 0)];
            if j == 0 {
                (std::f64::consts::PI * xi).sin()
            } else {
                xi * xi
            }
        });
        let final_loss = train(&mut mlp, &mut adam, &x, &y, 1500);
        assert!(final_loss < 5e-3, "loss {final_loss}");
    }
}
