//! Exact rational numbers over `i128`.
//!
//! A [`Rational`] is always kept in canonical form: the denominator is
//! strictly positive and `gcd(|num|, den) == 1`. Canonical form makes
//! equality and hashing structural, which the arrangement code relies on to
//! deduplicate vertices.
//!
//! Arithmetic uses `i128` with a pre-reduction step (the classical
//! `a/b * c/d = (a/gcd(a,d)) * (c/gcd(c,b)) / ...` trick) so intermediate
//! products stay as small as possible; overflow panics rather than silently
//! wrapping. Integer operands (`den == 1`, the overwhelmingly common case for
//! cartographic input data) take gcd-free fast paths whose results are
//! canonical by construction, and the fast paths extend to `den > 1`
//! operands — the fractional intersection points of shoreline-style inputs —
//! wherever canonicality still comes cheap: integer ± fraction and
//! integer × fraction results are canonical with at most one gcd, and
//! equal-denominator sums renormalise with a single gcd. Comparison is always
//! exact: a sign test and a checked `i128` cross product (which covers
//! `den > 1` operands too) are tried first, falling back to a 256-bit
//! widening multiply only for rationals near the `i128` limits.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Benchmark-only escape hatch forcing every operation down the
/// always-canonicalising slow path, so the perf harness can measure the
/// pre-optimisation arithmetic against the fast paths *in the same binary*.
///
/// The toggle is process-global: while any [`slow_mode::SlowGuard`] is alive,
/// all `Rational` arithmetic on all threads takes the slow path. Both paths
/// produce identical canonical values, so concurrent use can only affect
/// timing, never results. Compiled only with the `naive-reference` feature;
/// without it the fast-path checks are compile-time constants.
#[cfg(feature = "naive-reference")]
pub mod slow_mode {
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DEPTH: AtomicUsize = AtomicUsize::new(0);

    /// RAII guard: slow mode is active while at least one guard is alive.
    #[derive(Debug)]
    pub struct SlowGuard(());

    impl SlowGuard {
        /// Enters slow mode (re-entrant).
        #[allow(clippy::new_without_default)]
        pub fn new() -> Self {
            DEPTH.fetch_add(1, Ordering::Relaxed);
            SlowGuard(())
        }
    }

    impl Drop for SlowGuard {
        fn drop(&mut self) {
            DEPTH.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// True iff slow mode is currently active.
    pub fn active() -> bool {
        DEPTH.load(Ordering::Relaxed) > 0
    }
}

/// True when the small-value fast paths may be taken. Constant `true` in
/// normal builds; consults [`slow_mode`] under the `naive-reference` feature.
/// `pub(crate)` so the geometric predicates can gate their floating-point
/// filters on the same switch.
#[inline(always)]
pub(crate) fn fast_paths() -> bool {
    #[cfg(feature = "naive-reference")]
    {
        !slow_mode::active()
    }
    #[cfg(not(feature = "naive-reference"))]
    {
        true
    }
}

/// An exact rational number `num / den` with `den > 0` and the fraction fully
/// reduced.
#[derive(Clone, Copy)]
pub struct Rational {
    num: i128,
    den: i128,
}

/// Greatest common divisor of two non-negative integers.
fn gcd_u(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Greatest common divisor, as a positive `i128` (returns 1 for `gcd(0,0)` so
/// division is always safe).
fn gcd(a: i128, b: i128) -> i128 {
    let g = gcd_u(a.unsigned_abs(), b.unsigned_abs());
    if g == 0 {
        1
    } else {
        g as i128
    }
}

/// Sign and magnitude of a signed 256-bit product of two `i128`s.
fn wide_mul(a: i128, b: i128) -> (i8, u128, u128) {
    let sign = match (a.signum() * b.signum()).cmp(&0) {
        Ordering::Less => -1,
        Ordering::Equal => 0,
        Ordering::Greater => 1,
    };
    let ua = a.unsigned_abs();
    let ub = b.unsigned_abs();
    // Split into 64-bit limbs and do the schoolbook product.
    let (a_hi, a_lo) = (ua >> 64, ua & u64::MAX as u128);
    let (b_hi, b_lo) = (ub >> 64, ub & u64::MAX as u128);
    let ll = a_lo * b_lo;
    let lh = a_lo * b_hi;
    let hl = a_hi * b_lo;
    let hh = a_hi * b_hi;
    let mid = lh.wrapping_add(hl);
    let mid_carry = if mid < lh { 1u128 << 64 } else { 0 };
    let lo = ll.wrapping_add(mid << 64);
    let lo_carry = if lo < ll { 1u128 } else { 0 };
    let hi = hh + (mid >> 64) + mid_carry + lo_carry;
    (sign, hi, lo)
}

/// Floating-point interval filter for the comparison `a/b vs c/d`: computes
/// the cross products `a·d` and `c·b` in `f64` and returns the ordering when
/// their difference exceeds a conservative bound on the accumulated rounding
/// error, `None` when the result is too close to call exactly.
///
/// Error budget (ε = 2⁻⁵³ per rounding): each `i128 → f64` conversion and the
/// product contribute ≤ 3ε relative error per cross product, and the final
/// subtraction ≤ ε more, for under 9ε·max(|l|, |r|) absolute error in total;
/// the bound below allows 16ε, so a difference exceeding it has a certain
/// sign. `i128` cross products stay far below `f64::MAX`, so no overflow to
/// infinity is possible.
fn cmp_interval(a: &Rational, b: &Rational) -> Option<Ordering> {
    let l = a.num as f64 * b.den as f64;
    let r = b.num as f64 * a.den as f64;
    let bound = 16.0 * (f64::EPSILON / 2.0) * l.abs().max(r.abs());
    if l - r > bound {
        Some(Ordering::Greater)
    } else if r - l > bound {
        Some(Ordering::Less)
    } else {
        None
    }
}

/// Compare two signed 256-bit values given as (sign, hi, lo).
fn cmp_wide(x: (i8, u128, u128), y: (i8, u128, u128)) -> Ordering {
    if x.0 != y.0 {
        return x.0.cmp(&y.0);
    }
    let mag = (x.1, x.2).cmp(&(y.1, y.2));
    match x.0 {
        1 => mag,
        -1 => mag.reverse(),
        _ => Ordering::Equal,
    }
}

impl Rational {
    /// The rational zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Builds a rational from a numerator and denominator.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let (mut num, mut den) = if den < 0 { (-num, -den) } else { (num, den) };
        let g = gcd(num, den);
        num /= g;
        den /= g;
        Rational { num, den }
    }

    /// Builds a rational from an integer.
    pub fn from_int(n: i64) -> Self {
        Rational { num: n as i128, den: 1 }
    }

    /// The reduced numerator (the sign of the rational lives here).
    pub fn numerator(&self) -> i128 {
        self.num
    }

    /// The reduced, strictly positive denominator.
    pub fn denominator(&self) -> i128 {
        self.den
    }

    /// True iff the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// The value as an `i128` when it is an integer, `None` otherwise.
    pub fn as_integer(&self) -> Option<i128> {
        if self.den == 1 {
            Some(self.num)
        } else {
            None
        }
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Sign of the value: -1, 0 or 1.
    pub fn signum(&self) -> i32 {
        self.num.signum() as i32
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        Rational { num: self.num.abs(), den: self.den }
    }

    /// Approximate `f64` value (only used for pruning structures and reports,
    /// never for topological decisions).
    ///
    /// An integer that fits `i64` converts through `i64`, a single hardware
    /// conversion instead of the software `i128` one and a division. Both
    /// conversions round the same exact integer to nearest, ties to even, and
    /// dividing by `1.0` is exact, so the value is bit-identical to
    /// `num as f64 / den as f64`.
    pub fn to_f64(&self) -> f64 {
        if self.den == 1 {
            if let Ok(n) = i64::try_from(self.num) {
                return n as f64;
            }
        }
        self.num as f64 / self.den as f64
    }

    /// True iff [`Rational::to_f64`] is exact: the numerator has at most 53
    /// significant bits and the denominator is a power of two, so the
    /// quotient is a shift of an exactly converted integer.
    pub fn is_f64_exact(&self) -> bool {
        self.num.unsigned_abs() <= 1 << 53 && (self.den as u128).is_power_of_two()
    }

    /// The arithmetic mean of `self` and `other`.
    pub fn midpoint(&self, other: &Rational) -> Rational {
        if !fast_paths() {
            return (*self + *other) / Rational::from_int(2);
        }
        // Halve the (canonical) sum directly instead of routing through
        // `Div`'s two cross-reduction gcds: with s = n/d reduced, either n is
        // even and (n/2)/d is already reduced (any common divisor of n/2 and
        // d divides gcd(n, d) = 1), or n is odd and n/(2d) is reduced
        // (gcd(n, 2) = 1 and gcd(n, d) = 1).
        let sum = *self + *other;
        if sum.num % 2 == 0 {
            Rational { num: sum.num / 2, den: sum.den }
        } else {
            Rational { num: sum.num, den: Rational::checked_mul_i128(sum.den, 2) }
        }
    }

    /// Minimum of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    fn checked_mul_i128(a: i128, b: i128) -> i128 {
        a.checked_mul(b).expect("rational arithmetic overflow (i128)")
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl PartialEq for Rational {
    fn eq(&self, other: &Self) -> bool {
        // Canonical form makes structural equality exact equality.
        self.num == other.num && self.den == other.den
    }
}

impl Eq for Rational {}

impl Hash for Rational {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.num.hash(state);
        self.den.hash(state);
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  (b, d > 0)  ⇔  a*d vs c*b.
        if fast_paths() {
            // Different signs decide without any multiplication (dens > 0),
            // so mixed-sign `den > 1` operands — e.g. hydro's fractional
            // shoreline intersections straddling an axis — never reach the
            // cross products at all.
            let (sa, sb) = (self.num.signum(), other.num.signum());
            if sa != sb {
                return sa.cmp(&sb);
            }
            // Equal denominators (in particular den == 1, the overwhelmingly
            // common case for integer input data) compare by numerator alone.
            if self.den == other.den {
                return self.num.cmp(&other.num);
            }
            // Checked i128 cross products cover every remaining operand pair
            // (den > 1 included) except values near the i128 limits.
            if let (Some(l), Some(r)) =
                (self.num.checked_mul(other.den), other.num.checked_mul(self.den))
            {
                return l.cmp(&r);
            }
            // The full cross product overflowed. Fixed-ratio denominators —
            // one a multiple of the other, as when intersection points share
            // a refinement of the same grid — need only the quotient as a
            // scale factor, which fits where the full product did not.
            if other.den % self.den == 0 {
                if let Some(l) = self.num.checked_mul(other.den / self.den) {
                    return l.cmp(&other.num);
                }
            } else if self.den % other.den == 0 {
                if let Some(r) = other.num.checked_mul(self.den / other.den) {
                    return self.num.cmp(&r);
                }
            }
            // Interval filter: conservative floating-point cross products
            // decide the order whenever their separation exceeds the maximum
            // rounding error, leaving only near-ties to the 256-bit fallback.
            if let Some(ord) = cmp_interval(self, other) {
                return ord;
            }
        }
        // Exact fallback: 256-bit widening cross products.
        cmp_wide(wide_mul(self.num, other.den), wide_mul(other.num, self.den))
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        if fast_paths() {
            // Integers need no gcd and no renormalisation: the sum is
            // canonical.
            if self.den == 1 && rhs.den == 1 {
                let num = self.num.checked_add(rhs.num).expect("rational addition overflow");
                return Rational { num, den: 1 };
            }
            // Integer + fraction (either side): a + c/d = (a·d + c)/d is
            // canonical by construction — gcd(a·d + c, d) = gcd(c, d) = 1 —
            // so `den > 1` operands paired with integers skip every gcd.
            if self.den == 1 {
                let num = Rational::checked_mul_i128(self.num, rhs.den)
                    .checked_add(rhs.num)
                    .expect("rational addition overflow");
                return Rational { num, den: rhs.den };
            }
            if rhs.den == 1 {
                let num = Rational::checked_mul_i128(rhs.num, self.den)
                    .checked_add(self.num)
                    .expect("rational addition overflow");
                return Rational { num, den: self.den };
            }
            // Equal denominators: a/d + c/d = (a + c)/d needs one gcd for
            // renormalisation instead of the general path's two.
            if self.den == rhs.den {
                let num = self.num.checked_add(rhs.num).expect("rational addition overflow");
                let g = gcd(num, self.den);
                return Rational { num: num / g, den: self.den / g };
            }
        }
        // a/b + c/d = (a*(d/g) + c*(b/g)) / (b/g * d), g = gcd(b, d)
        let g = gcd(self.den, rhs.den);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = Rational::checked_mul_i128(self.num, lhs_scale)
            .checked_add(Rational::checked_mul_i128(rhs.num, rhs_scale))
            .expect("rational addition overflow");
        let den = Rational::checked_mul_i128(self.den, lhs_scale);
        Rational::new(num, den)
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        if fast_paths() && self.den == 1 && rhs.den == 1 {
            let num = self.num.checked_sub(rhs.num).expect("rational subtraction overflow");
            return Rational { num, den: 1 };
        }
        self + (-rhs)
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational { num: -self.num, den: self.den }
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        if fast_paths() {
            // Integer products are canonical as-is: skip both
            // cross-reductions.
            if self.den == 1 && rhs.den == 1 {
                return Rational { num: Rational::checked_mul_i128(self.num, rhs.num), den: 1 };
            }
            // Integer × fraction: a · c/d = ((a/g)·c) / (d/g) with
            // g = gcd(a, d) is canonical by construction (gcd(c, d) = 1
            // implies gcd(a·c, d) = gcd(a, d)), so one gcd replaces the
            // general path's two cross-reductions plus renormalisation.
            if self.den == 1 {
                let g = gcd(self.num, rhs.den);
                return Rational {
                    num: Rational::checked_mul_i128(self.num / g, rhs.num),
                    den: rhs.den / g,
                };
            }
            if rhs.den == 1 {
                let g = gcd(rhs.num, self.den);
                return Rational {
                    num: Rational::checked_mul_i128(rhs.num / g, self.num),
                    den: self.den / g,
                };
            }
        }
        // Cross-reduce before multiplying to keep intermediates small.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let num = Rational::checked_mul_i128(self.num / g1, rhs.num / g2);
        let den = Rational::checked_mul_i128(self.den / g2, rhs.den / g1);
        Rational::new(num, den)
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        assert!(!rhs.is_zero(), "division of rational by zero");
        self * Rational { num: rhs.den * rhs.num.signum(), den: rhs.num.abs() }
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

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(n)
    }
}

impl From<i32> for Rational {
    fn from(n: i32) -> Self {
        Rational::from_int(n as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn to_f64_integer_path_matches_the_division() {
        let two53 = 1i128 << 53;
        let probes = [
            0,
            1,
            -1,
            two53 - 1,
            two53,
            two53 + 1,
            -two53 - 1,
            -two53 + 1,
            (1 << 62) + 3,
            i64::MAX as i128,
            i64::MIN as i128,
            i64::MAX as i128 + 1,
            i64::MIN as i128 - 1,
            i128::MAX,
            i128::MIN + 1,
        ];
        for n in probes {
            let r = Rational { num: n, den: 1 };
            let old = r.num as f64 / r.den as f64;
            assert_eq!(r.to_f64().to_bits(), old.to_bits(), "{n}");
            assert_eq!(r.is_f64_exact(), n.unsigned_abs() <= 1 << 53, "{n}");
        }
        assert!(Rational::new(3, 2).is_f64_exact());
        assert!(Rational::new(-(1 << 53), 1 << 100).is_f64_exact());
        assert!(!Rational::new(1, 3).is_f64_exact());
        assert!(!Rational::new((1 << 53) + 1, 2).is_f64_exact());
        for (n, d) in [(1, 3), (-7, 2), ((1 << 53) + 1, 1 << 20)] {
            let r = Rational::new(n, d);
            assert_eq!(r.to_f64().to_bits(), (r.num as f64 / r.den as f64).to_bits());
        }
    }

    #[test]
    fn canonical_form() {
        let r = Rational::new(2, 4);
        assert_eq!(r.numerator(), 1);
        assert_eq!(r.denominator(), 2);
        let r = Rational::new(3, -6);
        assert_eq!(r.numerator(), -1);
        assert_eq!(r.denominator(), 2);
        let r = Rational::new(0, -5);
        assert_eq!(r, Rational::ZERO);
    }

    #[test]
    fn basic_arithmetic() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a + b, Rational::new(5, 6));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 6));
        assert_eq!(a / b, Rational::new(3, 2));
        assert_eq!(-a, Rational::new(-1, 2));
    }

    #[test]
    fn ordering_is_exact_for_large_values() {
        // Denominators near 2^63: naive i128 cross multiplication would overflow.
        let big = (1i128 << 100) + 1;
        let a = Rational::new(big, big - 1);
        let b = Rational::new(big + 1, big);
        // a = 1 + 1/(big-1), b = 1 + 1/big, so a > b.
        assert!(a > b);
        assert!(b < a);
        assert_ne!(a, b);
    }

    #[test]
    fn midpoint_and_minmax() {
        let a = Rational::from_int(1);
        let b = Rational::from_int(2);
        assert_eq!(a.midpoint(&b), Rational::new(3, 2));
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    #[should_panic]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    #[should_panic]
    fn division_by_zero_panics() {
        let _ = Rational::ONE / Rational::ZERO;
    }

    #[test]
    fn den_gt_one_fast_paths_stay_canonical() {
        // Integer + fraction, both sides.
        assert_eq!(Rational::from_int(2) + Rational::new(3, 4), Rational::new(11, 4));
        assert_eq!(Rational::new(3, 4) + Rational::from_int(-1), Rational::new(-1, 4));
        // Equal denominators, including a sum needing renormalisation.
        assert_eq!(Rational::new(1, 4) + Rational::new(1, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(1, 6) + Rational::new(-1, 6), Rational::ZERO);
        assert_eq!(Rational::new(5, 6) + Rational::new(7, 6), Rational::from_int(2));
        // Integer × fraction, with and without a shared factor.
        assert_eq!(Rational::from_int(6) * Rational::new(5, 4), Rational::new(15, 2));
        assert_eq!(Rational::new(5, 4) * Rational::from_int(-2), Rational::new(-5, 2));
        assert_eq!(Rational::from_int(3) * Rational::new(1, 7), Rational::new(3, 7));
        // Subtraction routes through the same paths.
        assert_eq!(Rational::from_int(1) - Rational::new(1, 3), Rational::new(2, 3));
        assert_eq!(Rational::new(7, 10) - Rational::new(2, 10), Rational::new(1, 2));
        // Mixed-sign comparison decides by sign alone, den > 1 included.
        assert!(Rational::new(-1, 3) < Rational::new(1, 7));
        assert!(Rational::new(1, 3) > Rational::new(-5, 7));
    }

    #[test]
    fn signum_and_abs() {
        assert_eq!(Rational::new(-3, 4).signum(), -1);
        assert_eq!(Rational::ZERO.signum(), 0);
        assert_eq!(Rational::new(3, 4).signum(), 1);
        assert_eq!(Rational::new(-3, 4).abs(), Rational::new(3, 4));
    }

    fn small_rational() -> impl Strategy<Value = Rational> {
        (-1000i128..1000, 1i128..1000).prop_map(|(n, d)| Rational::new(n, d))
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in small_rational(), b in small_rational()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_mul_commutative(a in small_rational(), b in small_rational()) {
            prop_assert_eq!(a * b, b * a);
        }

        #[test]
        fn prop_add_associative(a in small_rational(), b in small_rational(), c in small_rational()) {
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn prop_distributive(a in small_rational(), b in small_rational(), c in small_rational()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_sub_inverse(a in small_rational(), b in small_rational()) {
            prop_assert_eq!((a + b) - b, a);
        }

        #[test]
        fn prop_ordering_total(a in small_rational(), b in small_rational()) {
            let by_cmp = a.cmp(&b);
            let by_float = a.to_f64().partial_cmp(&b.to_f64()).unwrap();
            // f64 has enough precision for these small rationals, so the exact
            // comparison must agree with it.
            prop_assert_eq!(by_cmp, by_float);
        }

        #[test]
        fn prop_midpoint_between(a in small_rational(), b in small_rational()) {
            let m = a.midpoint(&b);
            prop_assert!(m >= a.min(b) && m <= a.max(b));
        }
    }

    /// The fast paths must agree bit-for-bit with the always-canonicalising
    /// slow paths, and both must keep results in canonical form.
    #[cfg(feature = "naive-reference")]
    mod fast_slow_agreement {
        use super::*;

        /// `slow_mode` is process-global, so these tests serialise on one
        /// lock: otherwise a concurrently running test's `SlowGuard` would
        /// silently push the "fast" half of a comparison down the slow path
        /// and make the agreement assertion vacuous.
        static SLOW_MODE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

        fn is_canonical(r: &Rational) -> bool {
            r.denominator() > 0 && gcd(r.numerator(), r.denominator()) == 1
        }

        /// Mix of integers (fast-path operands) and fractions: arithmetic on
        /// these never overflows `i128`, so every operator can be exercised.
        /// A third kind draws denominators from a small fixed set so pairs
        /// with *equal* `den > 1` denominators (the single-gcd addition fast
        /// path) occur routinely rather than almost never.
        fn mixed_rational() -> impl Strategy<Value = Rational> {
            (0u8..3, -10_000i128..10_000, 1i128..10_000).prop_map(|(kind, n, d)| match kind {
                0 => Rational::new(n, 1),
                1 => Rational::new(n, d),
                _ => Rational::new(n, [2, 3, 4, 6][(d % 4) as usize]),
            })
        }

        /// Like [`mixed_rational`] but also producing values near the `i128`
        /// limits, where the checked cross product overflows and comparison
        /// must take the 256-bit fallback. Only safe for comparisons.
        fn huge_rational() -> impl Strategy<Value = Rational> {
            (0u8..3, -10_000i128..10_000, 1i128..10_000).prop_map(|(kind, n, d)| match kind {
                0 => Rational::new(n, 1),
                1 => Rational::new(n, d),
                _ => Rational::new(n.saturating_mul(1 << 90) | 1, (d << 80) | 1),
            })
        }

        proptest! {
            #[test]
            fn prop_ops_agree_with_slow_path(a in mixed_rational(), b in mixed_rational()) {
                let _lock = SLOW_MODE_LOCK.lock().unwrap();
                assert!(!slow_mode::active(), "another guard leaked into the fast phase");
                let fast = (a + b, a - b, a * b, a.midpoint(&b), a.cmp(&b));
                let slow = {
                    let _guard = slow_mode::SlowGuard::new();
                    (a + b, a - b, a * b, a.midpoint(&b), a.cmp(&b))
                };
                prop_assert_eq!(fast.0, slow.0);
                prop_assert_eq!(fast.1, slow.1);
                prop_assert_eq!(fast.2, slow.2);
                prop_assert_eq!(fast.3, slow.3);
                prop_assert_eq!(fast.4, slow.4);
                for r in [fast.0, fast.1, fast.2, fast.3] {
                    prop_assert!(is_canonical(&r));
                }
            }

            #[test]
            fn prop_division_agrees_with_slow_path(a in mixed_rational(), b in mixed_rational()) {
                let _lock = SLOW_MODE_LOCK.lock().unwrap();
                assert!(!slow_mode::active(), "another guard leaked into the fast phase");
                prop_assume!(!b.is_zero());
                let fast = a / b;
                let slow = {
                    let _guard = slow_mode::SlowGuard::new();
                    a / b
                };
                prop_assert_eq!(fast, slow);
                prop_assert!(is_canonical(&fast));
            }

            #[test]
            fn prop_cmp_agrees_with_slow_path(a in huge_rational(), b in huge_rational()) {
                let _lock = SLOW_MODE_LOCK.lock().unwrap();
                assert!(!slow_mode::active(), "another guard leaked into the fast phase");
                let fast = a.cmp(&b);
                let slow = {
                    let _guard = slow_mode::SlowGuard::new();
                    a.cmp(&b)
                };
                prop_assert_eq!(fast, slow);
            }

            /// Denominators that are powers of two with one dividing the
            /// other, and numerators big enough that the full cross product
            /// overflows `i128`: exactly the fixed-ratio comparison layer.
            #[test]
            fn prop_fixed_ratio_cmp_agrees_with_slow_path(
                n1 in -10_000i128..10_000, n2 in -10_000i128..10_000, k in 0u32..8,
            ) {
                let _lock = SLOW_MODE_LOCK.lock().unwrap();
                assert!(!slow_mode::active(), "another guard leaked into the fast phase");
                let a = Rational::new((n1 << 90) | 1, 1i128 << 70);
                let b = Rational::new((n2 << 90) | 1, 1i128 << (70 + k));
                let fast = a.cmp(&b);
                let slow = {
                    let _guard = slow_mode::SlowGuard::new();
                    a.cmp(&b)
                };
                prop_assert_eq!(fast, slow);
            }
        }
    }
}
