//! Exact rational arithmetic over `i128`.
//!
//! The Winograd transform matrices (A, G, B) are generated with exact
//! arithmetic so that the algebraic identity
//! `F(m, r) = Aᵀ[(G·g) ⊙ (Bᵀ·d)]` can be verified *exactly*, without
//! floating-point tolerances. All quantities involved are tiny (interpolation
//! points like 0, ±1, ±2, ±1/2 and their products over at most a dozen
//! factors), so `i128` never overflows in practice; overflow is nevertheless
//! checked and panics loudly rather than wrapping.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num / den` with `den > 0` and gcd(num, den) = 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

const fn gcd(mut a: i128, mut b: i128) -> i128 {
    if a < 0 {
        a = -a;
    }
    if b < 0 {
        b = -b;
    }
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Create `num/den`, normalising sign and common factors.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let g = gcd(num, den);
        let (mut num, mut den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rational { num, den }
    }

    /// The integer `n` as a rational.
    pub const fn from_int(n: i128) -> Self {
        Rational { num: n, den: 1 }
    }

    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    pub fn is_negative(self) -> bool {
        self.num < 0
    }

    pub fn abs(self) -> Self {
        Rational { num: self.num.abs(), den: self.den }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if `self` is zero.
    pub fn recip(self) -> Self {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Nearest `f64` value (exact for all values used in transform
    /// generation, whose numerators/denominators are tiny).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Nearest `f32` value.
    pub fn to_f32(self) -> f32 {
        self.to_f64() as f32
    }

    fn checked_mul_i128(a: i128, b: i128) -> i128 {
        a.checked_mul(b).expect("rational arithmetic overflowed i128")
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        // Cross-reduce first to keep intermediates small.
        let g = gcd(self.den, rhs.den);
        let (da, db) = (self.den / g, rhs.den / g);
        let num = Rational::checked_mul_i128(self.num, db)
            .checked_add(Rational::checked_mul_i128(rhs.num, da))
            .expect("rational add overflowed");
        let den = Rational::checked_mul_i128(self.den, db);
        Rational::new(num, den)
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        // Cross-reduce to minimise intermediate magnitude.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let num = Rational::checked_mul_i128(
            if g1 == 0 { self.num } else { self.num / g1 },
            if g2 == 0 { rhs.num } else { rhs.num / g2 },
        );
        let den = Rational::checked_mul_i128(
            if g2 == 0 { self.den } else { self.den / g2 },
            if g1 == 0 { rhs.den } else { rhs.den / g1 },
        );
        Rational::new(num, den)
    }
}

impl Div for Rational {
    type Output = Rational;
    #[allow(clippy::suspicious_arithmetic_impl)] // a/b = a·b⁻¹ over ℚ
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational { num: -self.num, den: self.den }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // den > 0 always, so cross-multiplication preserves order.
        let lhs = Rational::checked_mul_i128(self.num, other.den);
        let rhs = Rational::checked_mul_i128(other.num, self.den);
        lhs.cmp(&rhs)
    }
}

impl From<i128> for Rational {
    fn from(n: i128) -> Self {
        Rational::from_int(n)
    }
}

impl From<i32> for Rational {
    fn from(n: i32) -> Self {
        Rational::from_int(n as i128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn normalisation() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, -7), Rational::ZERO);
        assert_eq!((r(6, 3).num, r(6, 3).den), (2, 1));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(-r(1, 2), r(-1, 2));
        assert_eq!(r(3, 7).recip(), r(7, 3));
        assert_eq!(r(-3, 7).recip(), r(-7, 3));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    fn assign_ops() {
        let mut x = r(1, 2);
        x += r(1, 2);
        assert_eq!(x, Rational::ONE);
        x -= r(1, 4);
        assert_eq!(x, r(3, 4));
        x *= r(4, 3);
        assert_eq!(x, Rational::ONE);
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 1) > r(13, 2));
        let mut v = vec![r(1, 2), r(-1, 1), r(0, 1), r(3, 4)];
        v.sort();
        assert_eq!(v, vec![r(-1, 1), r(0, 1), r(1, 2), r(3, 4)]);
    }

    #[test]
    fn float_conversion() {
        assert_eq!(r(1, 2).to_f64(), 0.5);
        assert_eq!(r(-3, 4).to_f32(), -0.75);
        assert_eq!(r(1, 3).to_f64(), 1.0 / 3.0);
    }

    #[test]
    fn predicates() {
        assert!(Rational::ZERO.is_zero());
        assert!(r(-1, 5).is_negative());
        assert!(!r(1, 5).is_negative());
        assert_eq!(r(-2, 3).abs(), r(2, 3));
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", r(1, 2)), "1/2");
        assert_eq!(format!("{}", r(4, 2)), "2");
        assert_eq!(format!("{}", r(-1, 2)), "-1/2");
    }
}
