use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// Used throughout the AC small-signal analysis: node voltages, branch
/// currents and transfer functions at a given frequency are complex phasors.
///
/// # Example
///
/// ```
/// use maopt_linalg::Complex;
///
/// let s = Complex::new(0.0, 1.0); // j
/// assert!((s * s - Complex::new(-1.0, 0.0)).abs() < 1e-15);
/// let h = Complex::new(1.0, 0.0) / Complex::new(1.0, 1.0);
/// assert!((h.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `j`.
    pub const J: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar form.
    pub fn from_polar(magnitude: f64, phase_rad: f64) -> Self {
        Complex::new(magnitude * phase_rad.cos(), magnitude * phase_rad.sin())
    }

    /// Magnitude (absolute value).
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude, avoiding the square root.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians, in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Complex {
        Complex::new(self.re, -self.im)
    }

    /// Multiplicative inverse.
    ///
    /// Returns infinities when `self` is zero, mirroring `1.0 / 0.0`.
    pub fn recip(self) -> Complex {
        let d = self.norm_sqr();
        Complex::new(self.re / d, -self.im / d)
    }

    /// `true` when both components are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Phase in degrees.
    pub fn arg_deg(self) -> f64 {
        self.arg().to_degrees()
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, s: f64) -> Complex {
        Complex::new(self.re * s, self.im * s)
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division via the numerically-guarded reciprocal, not Mul misuse.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    fn div(self, s: f64) -> Complex {
        Complex::new(self.re / s, self.im / s)
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a + b, Complex::new(-2.0, 2.5));
        assert_eq!(a - b, Complex::new(4.0, 1.5));
        assert_eq!(a * Complex::ONE, a);
        assert_eq!(a + Complex::ZERO, a);
        assert_eq!(-a, Complex::new(-1.0, -2.0));
    }

    #[test]
    fn multiplication_and_division_invert() {
        let a = Complex::new(2.0, -3.0);
        let b = Complex::new(0.5, 4.0);
        let q = (a * b) / b;
        assert!((q - a).abs() < 1e-12);
    }

    #[test]
    fn j_squared_is_minus_one() {
        assert!((Complex::J * Complex::J + Complex::ONE).abs() < 1e-15);
    }

    #[test]
    fn polar_roundtrip() {
        let c = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_3);
        assert!((c.abs() - 2.0).abs() < 1e-12);
        assert!((c.arg() - std::f64::consts::FRAC_PI_3).abs() < 1e-12);
    }

    #[test]
    fn conjugate_properties() {
        let a = Complex::new(3.0, 4.0);
        assert_eq!(a.conj().im, -4.0);
        let prod = a * a.conj();
        assert!((prod.re - 25.0).abs() < 1e-12);
        assert!(prod.im.abs() < 1e-12);
    }

    #[test]
    fn db_and_degrees() {
        assert_eq!(Complex::new(10.0, 0.0).arg_deg(), 0.0);
        assert!((Complex::J.arg_deg() - 90.0).abs() < 1e-12);
    }

    #[test]
    fn recip_of_zero_is_nonfinite() {
        assert!(!Complex::ZERO.recip().is_finite());
    }

    #[test]
    fn scalar_ops() {
        let a = Complex::new(1.0, -1.0);
        assert_eq!(a * 2.0, Complex::new(2.0, -2.0));
        assert_eq!(a / 2.0, Complex::new(0.5, -0.5));
        assert_eq!(Complex::from(3.5), Complex::new(3.5, 0.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2j");
    }
}
