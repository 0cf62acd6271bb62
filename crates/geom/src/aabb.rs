//! Axis-aligned bounding boxes.
//!
//! The deployment volume of the paper is the cube `[0, M]³`; the large-scale
//! experiment (§5.3) uses a geographic bounding box extruded to 3-D by a
//! random height. Both are represented as an [`Aabb`].

use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// An axis-aligned box `[min, max]` in 3-D space.
///
/// Invariant: `min.c <= max.c` for every component `c` (enforced by the
/// constructors; [`Aabb::from_corners`] sorts the inputs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    min: Vec3,
    max: Vec3,
}

impl Aabb {
    /// Box from already-ordered corners. Panics if any `min` component
    /// exceeds the corresponding `max` component.
    pub fn new(min: Vec3, max: Vec3) -> Self {
        assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "Aabb::new requires min <= max componentwise, got {min:?} > {max:?}"
        );
        Aabb { min, max }
    }

    /// Box spanning two arbitrary corner points (components are sorted).
    pub fn from_corners(a: Vec3, b: Vec3) -> Self {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// The paper's deployment volume: the cube `[0, m]³`.
    pub fn cube(m: f64) -> Self {
        assert!(
            m >= 0.0 && m.is_finite(),
            "cube side must be non-negative and finite"
        );
        Aabb {
            min: Vec3::ZERO,
            max: Vec3::splat(m),
        }
    }

    /// Smallest box containing all `points`; `None` if the slice is empty.
    pub fn enclosing(points: &[Vec3]) -> Option<Self> {
        let first = *points.first()?;
        let (min, max) = points
            .iter()
            .skip(1)
            .fold((first, first), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        Some(Aabb { min, max })
    }

    /// Minimum corner.
    #[inline]
    pub fn min(&self) -> Vec3 {
        self.min
    }

    /// Maximum corner.
    #[inline]
    pub fn max(&self) -> Vec3 {
        self.max
    }

    /// Geometric centre — where the paper places the sink/base station
    /// ("the green node in the center", Fig. 1).
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Edge lengths along each axis.
    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Volume of the box.
    #[inline]
    pub fn volume(&self) -> f64 {
        let e = self.extent();
        e.x * e.y * e.z
    }

    /// Whether `p` lies inside the box (inclusive on all faces).
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_properties() {
        let b = Aabb::cube(200.0);
        assert_eq!(b.center(), Vec3::splat(100.0));
        assert_eq!(b.extent(), Vec3::splat(200.0));
        assert_eq!(b.volume(), 8_000_000.0);
    }

    #[test]
    fn from_corners_sorts() {
        let b = Aabb::from_corners(Vec3::new(1.0, -2.0, 5.0), Vec3::new(-1.0, 2.0, 3.0));
        assert_eq!(b.min(), Vec3::new(-1.0, -2.0, 3.0));
        assert_eq!(b.max(), Vec3::new(1.0, 2.0, 5.0));
    }

    #[test]
    #[should_panic]
    fn new_rejects_inverted() {
        let _ = Aabb::new(Vec3::ONE, Vec3::ZERO);
    }

    #[test]
    fn contains_boundary_and_outside() {
        let b = Aabb::cube(1.0);
        assert!(b.contains(Vec3::ZERO));
        assert!(b.contains(Vec3::ONE));
        assert!(b.contains(Vec3::splat(0.5)));
        assert!(!b.contains(Vec3::new(1.0001, 0.5, 0.5)));
        assert!(!b.contains(Vec3::new(0.5, -0.0001, 0.5)));
    }

    #[test]
    fn enclosing_points() {
        assert!(Aabb::enclosing(&[]).is_none());
        let pts = [
            Vec3::new(1.0, 5.0, 2.0),
            Vec3::new(-1.0, 0.0, 7.0),
            Vec3::ZERO,
        ];
        let b = Aabb::enclosing(&pts).unwrap();
        assert_eq!(b.min(), Vec3::new(-1.0, 0.0, 0.0));
        assert_eq!(b.max(), Vec3::new(1.0, 5.0, 7.0));
        for p in pts {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn zero_volume_box_is_valid() {
        let b = Aabb::new(Vec3::ONE, Vec3::ONE);
        assert_eq!(b.volume(), 0.0);
        assert!(b.contains(Vec3::ONE));
        assert!(!b.contains(Vec3::ZERO));
    }
}
