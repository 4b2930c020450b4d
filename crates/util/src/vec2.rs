//! 2-D geometry for indoor positions, headings and antenna layouts.
//!
//! The paper's floor plans, walking trajectories, and AP placements are all
//! planar, so a 2-D vector type is the natural substrate. Units are metres
//! throughout the workspace.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D vector / point in metres.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X coordinate (m).
    pub x: f64,
    /// Y coordinate (m).
    pub y: f64,
}

impl Vec2 {
    /// The origin.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Unit vector at `angle` radians from the +x axis.
    #[inline]
    pub fn from_angle(angle: f64) -> Self {
        Vec2::new(angle.cos(), angle.sin())
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Distance to another point.
    #[inline]
    pub fn dist(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Angle of this vector from the +x axis, in `(-pi, pi]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Returns this vector scaled to unit length, or zero if it is zero.
    #[inline]
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n > 0.0 {
            self / n
        } else {
            Vec2::ZERO
        }
    }

    /// Rotates by `angle` radians counter-clockwise.
    #[inline]
    pub fn rotated(self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// Perpendicular vector (rotated +90 degrees).
    #[inline]
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Clamps both components into the axis-aligned box `[lo, hi]`.
    #[inline]
    pub fn clamp_box(self, lo: Vec2, hi: Vec2) -> Vec2 {
        Vec2::new(self.x.clamp(lo.x, hi.x), self.y.clamp(lo.y, hi.y))
    }
}

impl fmt::Debug for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn norm_and_dist() {
        assert_eq!(Vec2::new(3.0, 4.0).norm(), 5.0);
        assert_eq!(Vec2::new(1.0, 1.0).dist(Vec2::new(4.0, 5.0)), 5.0);
    }

    #[test]
    fn rotation_preserves_norm() {
        let v = Vec2::new(2.0, -7.0);
        for k in 0..12 {
            let r = v.rotated(k as f64 * PI / 6.0);
            assert!((r.norm() - v.norm()).abs() < 1e-12);
        }
    }

    #[test]
    fn rotation_by_quarter_turn_is_perp() {
        let v = Vec2::new(1.0, 2.0);
        let r = v.rotated(FRAC_PI_2);
        assert!((r - v.perp()).norm() < 1e-12);
        assert!(v.dot(r).abs() < 1e-12);
    }

    #[test]
    fn normalized_zero_is_zero() {
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
        assert!((Vec2::new(0.0, -9.0).normalized() - Vec2::new(0.0, -1.0)).norm() < 1e-12);
    }

    #[test]
    fn from_angle_roundtrip() {
        for k in -5..=5 {
            let a = k as f64 * 0.6;
            let v = Vec2::from_angle(a);
            let diff = (v.angle() - a).rem_euclid(2.0 * PI);
            assert!(diff < 1e-9 || (2.0 * PI - diff) < 1e-9);
        }
    }

    #[test]
    fn clamp_box_limits() {
        let lo = Vec2::new(0.0, 0.0);
        let hi = Vec2::new(10.0, 5.0);
        assert_eq!(Vec2::new(-1.0, 7.0).clamp_box(lo, hi), Vec2::new(0.0, 5.0));
        assert_eq!(Vec2::new(3.0, 2.0).clamp_box(lo, hi), Vec2::new(3.0, 2.0));
    }
}
