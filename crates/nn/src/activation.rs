/// Element-wise activation function of a [`crate::Dense`] layer.
///
/// # Example
///
/// ```
/// use maopt_nn::Activation;
///
/// assert_eq!(Activation::Relu.apply(-2.0), 0.0);
/// assert_eq!(Activation::Relu.apply(3.0), 3.0);
/// assert!((Activation::Tanh.apply(0.0)).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// `f(x) = x` — used on output layers of regression networks.
    #[default]
    Identity,
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Hyperbolic tangent — used on actor outputs to bound actions.
    Tanh,
    /// Logistic sigmoid, `1 / (1 + e^{-x})`.
    Sigmoid,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// `z ← apply(z + bias[j])` over rows of `bias.len()` values. The
    /// variant is matched once, outside the loop, so the loop body is
    /// the same straight-line code wherever the caller is inlined.
    pub(crate) fn apply_biased_rows(self, rows: &mut [f64], bias: &[f64]) {
        fn each(rows: &mut [f64], bias: &[f64], f: impl Fn(f64) -> f64) {
            for row in rows.chunks_exact_mut(bias.len().max(1)) {
                for (z, &b) in row.iter_mut().zip(bias) {
                    *z = f(*z + b);
                }
            }
        }
        match self {
            Activation::Identity => each(rows, bias, |v| Activation::Identity.apply(v)),
            Activation::Relu => each(rows, bias, |v| Activation::Relu.apply(v)),
            Activation::Tanh => each(rows, bias, |v| Activation::Tanh.apply(v)),
            Activation::Sigmoid => each(rows, bias, |v| Activation::Sigmoid.apply(v)),
        }
    }

    /// `dz ← grad · derivative_from_output(y)`, element by element, with
    /// the variant matched once outside the loop.
    pub(crate) fn scale_by_derivative(self, dz: &mut [f64], grad: &[f64], y: &[f64]) {
        fn each(dz: &mut [f64], grad: &[f64], y: &[f64], f: impl Fn(f64) -> f64) {
            for ((d, &g), &yv) in dz.iter_mut().zip(grad).zip(y) {
                *d = g * f(yv);
            }
        }
        match self {
            Activation::Identity => each(dz, grad, y, |v| {
                Activation::Identity.derivative_from_output(v)
            }),
            Activation::Relu => each(dz, grad, y, |v| Activation::Relu.derivative_from_output(v)),
            Activation::Tanh => each(dz, grad, y, |v| Activation::Tanh.derivative_from_output(v)),
            Activation::Sigmoid => each(dz, grad, y, |v| {
                Activation::Sigmoid.derivative_from_output(v)
            }),
        }
    }

    /// Derivative `f'(x)` expressed in terms of the *output* `y = f(x)`.
    ///
    /// All four supported activations admit this form, which lets backward
    /// passes avoid caching pre-activations.
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACTS: [Activation; 4] = [
        Activation::Identity,
        Activation::Relu,
        Activation::Tanh,
        Activation::Sigmoid,
    ];

    #[test]
    fn identity_passes_through() {
        assert_eq!(Activation::Identity.apply(-3.25), -3.25);
        assert_eq!(Activation::Identity.derivative_from_output(7.0), 1.0);
    }

    #[test]
    fn relu_clips_negative() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(5.0), 1.0);
    }

    #[test]
    fn tanh_range_and_symmetry() {
        let y = Activation::Tanh.apply(100.0);
        assert!(y <= 1.0 && y > 0.999);
        assert!((Activation::Tanh.apply(-0.5) + Activation::Tanh.apply(0.5)).abs() < 1e-15);
    }

    #[test]
    fn sigmoid_midpoint() {
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-15);
        assert!((Activation::Sigmoid.derivative_from_output(0.5) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let h = 1e-6;
        for act in ACTS {
            // Avoid the ReLU kink at 0.
            for &x in &[-1.3, -0.4, 0.7, 1.9] {
                let y = act.apply(x);
                let fd = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let an = act.derivative_from_output(y);
                assert!(
                    (fd - an).abs() < 1e-5,
                    "{act:?} at x={x}: fd={fd}, analytic={an}"
                );
            }
        }
    }

    #[test]
    fn default_is_identity() {
        assert_eq!(Activation::default(), Activation::Identity);
    }
}
