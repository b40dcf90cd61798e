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

    /// Overrides the learning rate (e.g. for decay schedules).
    pub fn set_learning_rate(&mut self, lr: f64) {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        self.lr = lr;
    }

    /// Resets moment estimates and the step counter.
    pub fn reset(&mut self) {
        self.t = 0;
        self.m.fill(0.0);
        self.v.fill(0.0);
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
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let mut idx = 0;
        for layer in mlp.layers_mut() {
            layer.visit_params_mut(|p, g| {
                let m = &mut self.m[idx];
                let v = &mut self.v[idx];
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *p -= lr * m_hat / (v_hat.sqrt() + eps);
                idx += 1;
            });
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

    #[test]
    fn reset_clears_state() {
        let mut mlp = Mlp::new(&[1, 2, 1], Activation::Tanh, 0);
        let mut adam = Adam::new(&mlp, 1e-2);
        let x = Mat::from_rows(&[&[1.0]]);
        let y = Mat::from_rows(&[&[2.0]]);
        mse_backward(&mut mlp, &x, &y, &mut Workspace::new(), &mut Mat::default());
        adam.step(&mut mlp);
        assert!(adam.m.iter().any(|&m| m != 0.0));
        adam.reset();
        assert!(adam.m.iter().all(|&m| m == 0.0));
        assert_eq!(adam.t, 0);
    }
}
