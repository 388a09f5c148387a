//! Exact angular comparison of direction vectors.
//!
//! Rotation systems (the cyclic order of edges around each arrangement
//! vertex) are the backbone of the topological invariant's `Orientation`
//! relation, so the angular order must be exact. Vectors are compared by
//! counterclockwise angle from the positive x axis, using only sign tests and
//! cross products — no square roots, no trigonometry.

use crate::point::Point;
use crate::rational::Rational;
use std::cmp::Ordering;
use std::ops::Neg;

/// A non-zero direction vector with exact rational components.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirectionVector {
    /// x component.
    pub dx: Rational,
    /// y component.
    pub dy: Rational,
}

impl DirectionVector {
    /// Builds a direction vector.
    ///
    /// # Panics
    /// Panics if both components are zero.
    pub fn new(dx: Rational, dy: Rational) -> Self {
        assert!(!(dx.is_zero() && dy.is_zero()), "zero direction vector");
        DirectionVector { dx, dy }
    }

    /// The direction of the vector `to - from`.
    ///
    /// # Panics
    /// Panics if the points coincide.
    pub fn between(from: &Point, to: &Point) -> Self {
        let (dx, dy) = to.sub(from);
        DirectionVector::new(dx, dy)
    }

    /// Half-plane index used for angular sorting: 0 for angles in `[0, π)`
    /// (positive y, or zero y with positive x), 1 for angles in `[π, 2π)`.
    fn half(&self) -> u8 {
        if self.dy.signum() > 0 || (self.dy.is_zero() && self.dx.signum() > 0) {
            0
        } else {
            1
        }
    }

    /// Cross product with another direction.
    pub fn cross(&self, other: &DirectionVector) -> Rational {
        self.dx * other.dy - self.dy * other.dx
    }
}

impl Neg for DirectionVector {
    type Output = DirectionVector;

    /// The opposite direction.
    fn neg(self) -> DirectionVector {
        DirectionVector { dx: -self.dx, dy: -self.dy }
    }
}

/// Compares two directions by counterclockwise angle from the positive x axis
/// in `[0, 2π)`.
///
/// Vectors that are positive multiples of each other compare equal; opposite
/// vectors do not.
pub fn pseudo_angle_cmp(a: &DirectionVector, b: &DirectionVector) -> Ordering {
    let (ha, hb) = (a.half(), b.half());
    if ha != hb {
        return ha.cmp(&hb);
    }
    // Same half-plane: the cross product decides. Positive cross means `a`
    // is reached first when sweeping counterclockwise.
    match a.cross(b).signum() {
        1 => Ordering::Less,
        -1 => Ordering::Greater,
        _ => Ordering::Equal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(dx: i64, dy: i64) -> DirectionVector {
        DirectionVector::new(Rational::from_int(dx), Rational::from_int(dy))
    }

    #[test]
    fn full_turn_order() {
        // Directions listed in counterclockwise order starting from +x.
        let dirs = [
            dir(1, 0),
            dir(2, 1),
            dir(0, 1),
            dir(-1, 1),
            dir(-1, 0),
            dir(-1, -1),
            dir(0, -1),
            dir(1, -1),
        ];
        for i in 0..dirs.len() {
            for j in 0..dirs.len() {
                let expected = i.cmp(&j);
                assert_eq!(pseudo_angle_cmp(&dirs[i], &dirs[j]), expected, "dirs {i} vs {j}");
            }
        }
    }

    #[test]
    fn positive_multiples_equal() {
        assert_eq!(pseudo_angle_cmp(&dir(1, 2), &dir(2, 4)), Ordering::Equal);
        assert_ne!(pseudo_angle_cmp(&dir(1, 2), &dir(-1, -2)), Ordering::Equal);
    }

    #[test]
    fn negation_is_half_a_turn() {
        assert_eq!(-dir(2, -3), dir(-2, 3));
        assert_eq!(pseudo_angle_cmp(&-dir(1, 0), &dir(-5, 0)), Ordering::Equal);
    }

    #[test]
    fn between_points() {
        let a = Point::from_ints(1, 1);
        let b = Point::from_ints(3, 2);
        let d = DirectionVector::between(&a, &b);
        assert_eq!(d, dir(2, 1));
    }

    #[test]
    #[should_panic]
    fn zero_vector_panics() {
        let _ = dir(0, 0);
    }
}
