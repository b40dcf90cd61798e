use crate::dense::{fork, MIN_SPLIT_PARAMS};
use crate::state::AdamState;
use crate::Mlp;

/// Plain stochastic gradient descent.
///
/// # Example
///
/// ```
/// use maopt_nn::{Activation, Mlp, Sgd};
///
/// let mut mlp = Mlp::new(&[1, 4, 1], Activation::Tanh, 0);
/// let sgd = Sgd::new(1e-2);
/// // ... forward / backward ...
/// # let mut mlp2 = mlp.clone();
/// sgd.step(&mut mlp);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Sgd {
    lr: f64,
}

impl Sgd {
    /// Creates an SGD optimizer with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        Sgd { lr }
    }

    /// The learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    /// Applies one descent step using the gradients accumulated in `mlp`.
    pub fn step(&self, mlp: &mut Mlp) {
        for layer in mlp.layers_mut() {
            layer.sgd_step(self.lr);
        }
    }
}

/// The Adam optimizer (Kingma & Ba, 2015) with bias correction.
///
/// State is allocated per network; feeding a differently-shaped network to
/// [`Adam::step`] panics.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    /// First/second moment per parameter, flattened in layer visit order.
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates an Adam optimizer sized for `mlp` with the standard
    /// `β₁ = 0.9, β₂ = 0.999, ε = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(mlp: &Mlp, lr: f64) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        let n = mlp.param_count();
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// The learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    /// Captures the optimizer's mutable state (step counter and moment
    /// estimates) for checkpointing. Hyperparameters (`lr`, betas, eps)
    /// are construction-time configuration and are not included.
    pub fn state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores state captured by [`Adam::state`] into an optimizer
    /// built for the same network architecture.
    ///
    /// # Panics
    ///
    /// Panics when the checkpointed moment vectors do not match this
    /// optimizer's parameter count.
    pub fn restore(&mut self, state: &AdamState) {
        assert_eq!(
            state.m.len(),
            self.m.len(),
            "checkpointed Adam state does not match network size"
        );
        assert_eq!(
            state.v.len(),
            self.v.len(),
            "checkpointed Adam state does not match network size"
        );
        self.t = state.t;
        self.m.copy_from_slice(&state.m);
        self.v.copy_from_slice(&state.v);
    }

    /// Applies one Adam update using the gradients accumulated in `mlp`.
    ///
    /// Parameters are visited layer by layer, weights then bias — the
    /// flat order of the moment vectors — as `zip` loops over the
    /// parameter, gradient and moment slices. Each parameter's update
    /// reads only its own gradient and moments, so a layer of at least
    /// 1024 parameters is split in two by weight rows under
    /// [`maopt_exec::join`], the same split its gradients were
    /// accumulated in, without changing any result bit.
    ///
    /// # Panics
    ///
    /// Panics if `mlp` has a different parameter count than the network this
    /// optimizer was created for.
    pub fn step(&mut self, mlp: &mut Mlp) {
        assert_eq!(
            mlp.param_count(),
            self.m.len(),
            "optimizer state does not match network size"
        );
        self.t += 1;
        let update = AdamUpdate {
            lr: self.lr,
            b1: self.beta1,
            b2: self.beta2,
            eps: self.eps,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
        };
        let (mut m, mut v) = (&mut self.m[..], &mut self.v[..]);
        for layer in mlp.layers_mut() {
            let split = layer.param_count() >= MIN_SPLIT_PARAMS;
            let (w_mid, b_mid) = layer.param_split();
            let (w, gw, b, gb) = layer.params_and_grads_mut();
            let (m_w, rest) = std::mem::take(&mut m).split_at_mut(w.len());
            let (m_b, rest) = rest.split_at_mut(b.len());
            m = rest;
            let (v_w, rest) = std::mem::take(&mut v).split_at_mut(w.len());
            let (v_b, rest) = rest.split_at_mut(b.len());
            v = rest;
            let (w_a, w_b) = Params::new(w, gw, m_w, v_w).split_at(w_mid);
            let (b_a, b_b) = Params::new(b, gb, m_b, v_b).split_at(b_mid);
            fork(
                split,
                || {
                    update.apply(w_a);
                    update.apply(b_a);
                },
                || {
                    update.apply(w_b);
                    update.apply(b_b);
                },
            );
        }
    }
}

/// A run of parameters with their gradients and Adam moments.
struct Params<'a> {
    p: &'a mut [f64],
    g: &'a [f64],
    m: &'a mut [f64],
    v: &'a mut [f64],
}

impl<'a> Params<'a> {
    fn new(p: &'a mut [f64], g: &'a [f64], m: &'a mut [f64], v: &'a mut [f64]) -> Self {
        Params { p, g, m, v }
    }

    fn split_at(self, mid: usize) -> (Params<'a>, Params<'a>) {
        let (p_a, p_b) = self.p.split_at_mut(mid);
        let (g_a, g_b) = self.g.split_at(mid);
        let (m_a, m_b) = self.m.split_at_mut(mid);
        let (v_a, v_b) = self.v.split_at_mut(mid);
        (
            Params::new(p_a, g_a, m_a, v_a),
            Params::new(p_b, g_b, m_b, v_b),
        )
    }
}

/// The per-step constants of one Adam update.
#[derive(Debug, Clone, Copy)]
struct AdamUpdate {
    lr: f64,
    b1: f64,
    b2: f64,
    eps: f64,
    /// Bias corrections `1 − β₁ᵗ` and `1 − β₂ᵗ`.
    bc1: f64,
    bc2: f64,
}

impl AdamUpdate {
    /// Updates each parameter from its gradient and moments.
    fn apply(&self, params: Params<'_>) {
        let AdamUpdate {
            lr,
            b1,
            b2,
            eps,
            bc1,
            bc2,
        } = *self;
        let Params { p, g, m, v } = params;
        for (((p, &g), m), v) in p.iter_mut().zip(g).zip(m).zip(v) {
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::mse_backward;
    use crate::{Activation, Workspace};
    use maopt_linalg::Mat;

    fn train_linear(optimizer_is_adam: bool) -> f64 {
        let mut mlp = Mlp::new(&[1, 8, 1], Activation::Tanh, 5);
        let mut adam = Adam::new(&mlp, 1e-2);
        let sgd = Sgd::new(1e-2);
        let x = Mat::from_fn(16, 1, |i, _| i as f64 / 16.0);
        let y = Mat::from_fn(16, 1, |i, _| 0.5 * (i as f64 / 16.0) + 0.1);
        let (mut ws, mut grad) = (Workspace::new(), Mat::default());
        let mut loss = f64::INFINITY;
        for _ in 0..400 {
            loss = mse_backward(&mut mlp, &x, &y, &mut ws, &mut grad);
            if optimizer_is_adam {
                adam.step(&mut mlp);
            } else {
                sgd.step(&mut mlp);
            }
        }
        loss
    }

    #[test]
    fn adam_converges_on_linear_fit() {
        assert!(train_linear(true) < 1e-4);
    }

    #[test]
    fn sgd_converges_on_linear_fit() {
        assert!(train_linear(false) < 1e-2);
    }

    #[test]
    fn adam_beats_sgd_on_this_problem() {
        assert!(train_linear(true) < train_linear(false));
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn negative_lr_rejected() {
        let _ = Sgd::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "optimizer state")]
    fn mismatched_network_rejected() {
        let small = Mlp::new(&[1, 2, 1], Activation::Tanh, 0);
        let mut big = Mlp::new(&[1, 50, 1], Activation::Tanh, 0);
        let mut adam = Adam::new(&small, 1e-3);
        adam.step(&mut big);
    }

    /// The per-element Adam loop `step` replaced: one closure per
    /// parameter in the flat layer order, indexing the moment vectors.
    fn reference_step(adam: &mut Adam, mlp: &mut Mlp) {
        adam.t += 1;
        let bc1 = 1.0 - adam.beta1.powi(adam.t as i32);
        let bc2 = 1.0 - adam.beta2.powi(adam.t as i32);
        let (lr, b1, b2, eps) = (adam.lr, adam.beta1, adam.beta2, adam.eps);
        let mut idx = 0;
        for layer in mlp.layers_mut() {
            let (w, gw, b, gb) = layer.params_and_grads_mut();
            for (p, &g) in w.iter_mut().zip(gw).chain(b.iter_mut().zip(gb)) {
                let m = &mut adam.m[idx];
                let v = &mut adam.v[idx];
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *p -= lr * m_hat / (v_hat.sqrt() + eps);
                idx += 1;
            }
        }
    }

    fn param_bits(mlp: &Mlp) -> Vec<u64> {
        mlp.layers()
            .iter()
            .flat_map(|l| l.weights().as_slice().iter().chain(l.bias()))
            .map(|v| v.to_bits())
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]

        /// `step` is bitwise the per-element reference over several
        /// steps from `t = 1`, with some steps on all-zero gradients. The
        /// 12×90 layer has enough parameters to be split in two.
        #[test]
        fn step_matches_per_element_reference_bitwise(
            seed in 0u64..1000,
            lr in 1e-4f64..1e-1,
            xs in proptest::prop::collection::vec(-2.0f64..2.0, 36),
            zero_steps in 0usize..16,
        ) {
            let mut mlp = Mlp::new(&[3, 12, 90, 2], Activation::Relu, seed);
            let mut reference = mlp.clone();
            let mut adam = Adam::new(&mlp, lr);
            let mut adam_ref = adam.clone();
            let x = Mat::from_vec(12, 3, xs);
            let y = Mat::from_fn(12, 2, |i, j| (i + j) as f64 * 0.1);
            let (mut ws, mut grad) = (Workspace::new(), Mat::default());
            for step in 0..4 {
                if zero_steps >> step & 1 == 1 {
                    mlp.zero_grad();
                    reference.zero_grad();
                } else {
                    mse_backward(&mut mlp, &x, &y, &mut ws, &mut grad);
                    mse_backward(&mut reference, &x, &y, &mut ws, &mut grad);
                }
                adam.step(&mut mlp);
                reference_step(&mut adam_ref, &mut reference);
                proptest::prop_assert_eq!(param_bits(&mlp), param_bits(&reference), "step {}", step + 1);
                proptest::prop_assert_eq!(&adam.m, &adam_ref.m);
                proptest::prop_assert_eq!(&adam.v, &adam_ref.v);
            }
        }
    }
}
