//! Complex scalar arithmetic.
//!
//! [`Complex64`] is a minimal `f64`-based complex number. It intentionally only
//! implements the operations the rest of the workspace needs (arithmetic,
//! conjugation, modulus, argument, polar construction) rather than mirroring a
//! full `num-complex` API.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// ```
/// use mimo_math::Complex64;
/// let a = Complex64::new(1.0, 2.0);
/// let b = Complex64::new(3.0, -1.0);
/// assert_eq!((a + b).re, 4.0);
/// assert_eq!((a * b).im, 5.0);
/// ```
/// The layout is `repr(C)` — `re` then `im` — so a `&[Complex64]` can be
/// viewed as interleaved `re, im` `f64` memory by the SIMD kernels of
/// [`crate::kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r * e^{i theta}`.
    ///
    /// ```
    /// use mimo_math::Complex64;
    /// let c = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!(c.re.abs() < 1e-12);
    /// assert!((c.im - 2.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// `e^{i theta}` — a unit-modulus complex exponential.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Modulus (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus, cheaper than [`Complex64::abs`] when only comparisons are needed.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse.
    ///
    /// Returns [`Complex64::ZERO`] when `self` is exactly zero; callers that need to
    /// distinguish that case should check [`Complex64::norm_sqr`] first.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        if d == 0.0 {
            Self::ZERO
        } else {
            Self {
                re: self.re / d,
                im: -self.im / d,
            }
        }
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Returns `true` when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Complex square root (principal branch).
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        let theta = self.arg();
        Self::from_polar(r.sqrt(), theta / 2.0)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Self::from_real(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    // Division really is multiplication by the reciprocal here.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -4.0);
        assert_eq!(a + b, Complex64::new(4.0, -2.0));
        assert_eq!(a - b, Complex64::new(-2.0, 6.0));
        assert_eq!(a * b, Complex64::new(11.0, 2.0));
        assert_eq!(-a, Complex64::new(-1.0, -2.0));
    }

    #[test]
    fn division_and_reciprocal() {
        let a = Complex64::new(1.0, 2.0);
        let one = a * a.recip();
        assert!((one.re - 1.0).abs() < 1e-12);
        assert!(one.im.abs() < 1e-12);
        let q = a / a;
        assert!((q.re - 1.0).abs() < 1e-12);
        assert!(q.im.abs() < 1e-12);
        assert_eq!(Complex64::ZERO.recip(), Complex64::ZERO);
    }

    #[test]
    fn modulus_argument_polar_roundtrip() {
        let c = Complex64::from_polar(2.5, 0.7);
        assert!((c.abs() - 2.5).abs() < 1e-12);
        assert!((c.arg() - 0.7).abs() < 1e-12);
        let unit = Complex64::cis(-1.2);
        assert!((unit.abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conjugate_properties() {
        let a = Complex64::new(3.0, -5.0);
        assert_eq!(a.conj().conj(), a);
        let prod = a * a.conj();
        assert!((prod.re - a.norm_sqr()).abs() < 1e-12);
        assert!(prod.im.abs() < 1e-12);
    }

    #[test]
    fn sqrt_squares_back() {
        let a = Complex64::new(-3.0, 4.0);
        let s = a.sqrt();
        let sq = s * s;
        assert!((sq.re - a.re).abs() < 1e-10);
        assert!((sq.im - a.im).abs() < 1e-10);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Complex64 = (0..4).map(|k| Complex64::new(k as f64, 1.0)).sum();
        assert_eq!(total, Complex64::new(6.0, 4.0));
    }

    #[test]
    fn display_formats_sign() {
        let s = format!("{}", Complex64::new(1.0, -2.0));
        assert!(s.contains('-'));
        let s2 = format!("{}", Complex64::new(1.0, 2.0));
        assert!(s2.contains('+'));
    }

    proptest! {
        #[test]
        fn prop_mul_commutes(a_re in -1e3f64..1e3, a_im in -1e3f64..1e3,
                             b_re in -1e3f64..1e3, b_im in -1e3f64..1e3) {
            let a = Complex64::new(a_re, a_im);
            let b = Complex64::new(b_re, b_im);
            let ab = a * b;
            let ba = b * a;
            prop_assert!((ab.re - ba.re).abs() < 1e-6);
            prop_assert!((ab.im - ba.im).abs() < 1e-6);
        }

        #[test]
        fn prop_abs_multiplicative(a_re in -1e2f64..1e2, a_im in -1e2f64..1e2,
                                   b_re in -1e2f64..1e2, b_im in -1e2f64..1e2) {
            let a = Complex64::new(a_re, a_im);
            let b = Complex64::new(b_re, b_im);
            prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-6);
        }

        #[test]
        fn prop_conj_distributes_over_mul(a_re in -1e2f64..1e2, a_im in -1e2f64..1e2,
                                          b_re in -1e2f64..1e2, b_im in -1e2f64..1e2) {
            let a = Complex64::new(a_re, a_im);
            let b = Complex64::new(b_re, b_im);
            let lhs = (a * b).conj();
            let rhs = a.conj() * b.conj();
            prop_assert!((lhs.re - rhs.re).abs() < 1e-6);
            prop_assert!((lhs.im - rhs.im).abs() < 1e-6);
        }
    }
}
