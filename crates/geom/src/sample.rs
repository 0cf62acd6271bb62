//! Seeded uniform sampling of points in 3-D regions.
//!
//! The paper deploys `N` nodes "randomly distributed in an `M × M × M`
//! cube" (§3.1); Lemma 1 assumes "cluster nodes are uniformly distributed in
//! the area of a ball centered on the cluster head". Both samplers live
//! here, together with Monte-Carlo helpers used to validate Lemma 1 and the
//! `d_toBS` approximation of Theorem 1.

use crate::aabb::Aabb;
use crate::vec3::Vec3;
use rand::Rng;

/// Uniform point inside an axis-aligned box.
pub fn uniform_in_aabb<R: Rng + ?Sized>(rng: &mut R, b: &Aabb) -> Vec3 {
    let lo = b.min();
    let hi = b.max();
    Vec3::new(
        rng.gen_range(lo.x..=hi.x),
        rng.gen_range(lo.y..=hi.y),
        rng.gen_range(lo.z..=hi.z),
    )
}

/// `n` uniform points inside an axis-aligned box.
pub fn uniform_points_in_aabb<R: Rng + ?Sized>(rng: &mut R, b: &Aabb, n: usize) -> Vec<Vec3> {
    (0..n).map(|_| uniform_in_aabb(rng, b)).collect()
}

/// Uniform point inside the ball of radius `radius` centred at `center`.
///
/// Uses the exact radial inverse-CDF (`r = R·U^{1/3}`) with a uniform
/// direction, rather than rejection sampling, so the cost is constant.
pub fn uniform_in_ball<R: Rng + ?Sized>(rng: &mut R, center: Vec3, radius: f64) -> Vec3 {
    assert!(radius >= 0.0, "ball radius must be non-negative");
    let dir = uniform_on_sphere(rng);
    let r = radius * rng.gen::<f64>().cbrt();
    center + dir * r
}

/// Uniform direction on the unit sphere (Marsaglia via normalized Gaussian
/// would also work; we use the standard cylinder-area-preserving map).
pub fn uniform_on_sphere<R: Rng + ?Sized>(rng: &mut R) -> Vec3 {
    let z: f64 = rng.gen_range(-1.0..=1.0);
    let theta: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    let s = (1.0 - z * z).max(0.0).sqrt();
    Vec3::new(s * theta.cos(), s * theta.sin(), z)
}

/// Monte-Carlo estimate of `E[d²]` from a uniform point in a ball of radius
/// `radius` to its centre.
///
/// The closed form is `3R²/5`; Lemma 1 of the paper is this quantity with
/// `R = d_c` expressed through the cluster count `k`. The estimator is used
/// by tests and the `kopt_table` experiment binary to check the lemma.
pub fn mc_mean_sq_dist_ball<R: Rng + ?Sized>(rng: &mut R, radius: f64, samples: usize) -> f64 {
    assert!(samples > 0);
    let c = Vec3::ZERO;
    let sum: f64 = (0..samples)
        .map(|_| uniform_in_ball(rng, c, radius).dist_sq(c))
        .sum();
    sum / samples as f64
}

/// Monte-Carlo estimate of the mean distance from a uniform point in the
/// cube `[0, m]³` to the cube centre.
///
/// Theorem 1 approximates `d_toBS` by this quantity (following \[1\] in the
/// paper); the closed form for the unit cube is `≈ 0.480296·m`
/// (Robbins-type constant), which tests assert against.
pub fn mc_mean_dist_to_center<R: Rng + ?Sized>(rng: &mut R, m: f64, samples: usize) -> f64 {
    assert!(samples > 0);
    let b = Aabb::cube(m);
    let c = b.center();
    let sum: f64 = (0..samples).map(|_| uniform_in_aabb(rng, &b).dist(c)).sum();
    sum / samples as f64
}

/// Mean distance from a uniform point in the unit cube to the cube centre,
/// as a fraction of the side length (`≈ 0.4802959…`). Exposed so the
/// analytic `k_opt` computation can avoid Monte-Carlo in the common case.
pub const MEAN_DIST_TO_CENTER_UNIT_CUBE: f64 = 0.480_295_9;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn cube_points_are_inside() {
        let mut r = rng();
        let b = Aabb::cube(200.0);
        for p in uniform_points_in_aabb(&mut r, &b, 10_000) {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn cube_points_cover_all_octants() {
        let mut r = rng();
        let b = Aabb::cube(2.0);
        let c = b.center();
        let mut seen = [false; 8];
        for p in uniform_points_in_aabb(&mut r, &b, 5_000) {
            let idx = ((p.x > c.x) as usize)
                | (((p.y > c.y) as usize) << 1)
                | (((p.z > c.z) as usize) << 2);
            seen[idx] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "sampling misses an octant: {seen:?}"
        );
    }

    #[test]
    fn ball_points_are_inside_radius() {
        let mut r = rng();
        let c = Vec3::new(10.0, -5.0, 3.0);
        for _ in 0..10_000 {
            let p = uniform_in_ball(&mut r, c, 7.0);
            assert!(p.dist(c) <= 7.0 + 1e-12);
        }
    }

    #[test]
    fn sphere_points_are_unit_and_cover_hemispheres() {
        let mut r = rng();
        let mut up = 0usize;
        let n = 20_000;
        for _ in 0..n {
            let p = uniform_on_sphere(&mut r);
            assert!((p.norm() - 1.0).abs() < 1e-12);
            if p.z > 0.0 {
                up += 1;
            }
        }
        let frac = up as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "hemisphere fraction {frac}");
    }

    #[test]
    fn ball_mean_sq_dist_matches_closed_form() {
        // E[d²] for a uniform point in a ball of radius R is 3R²/5.
        let mut r = rng();
        let radius = 5.0;
        let est = mc_mean_sq_dist_ball(&mut r, radius, 400_000);
        let exact = 3.0 * radius * radius / 5.0;
        assert!(
            (est - exact).abs() / exact < 0.01,
            "MC {est} vs exact {exact}"
        );
    }

    #[test]
    fn mean_dist_to_center_matches_constant() {
        let mut r = rng();
        let m = 200.0;
        let est = mc_mean_dist_to_center(&mut r, m, 400_000);
        let exact = MEAN_DIST_TO_CENTER_UNIT_CUBE * m;
        assert!(
            (est - exact).abs() / exact < 0.01,
            "MC {est} vs constant {exact}"
        );
    }

    #[test]
    fn radial_cdf_of_ball_sampling_is_cubic() {
        // P(d <= r) = (r/R)³ for uniform sampling in a ball.
        let mut r = rng();
        let radius = 1.0;
        let n = 100_000;
        let within_half = (0..n)
            .filter(|_| uniform_in_ball(&mut r, Vec3::ZERO, radius).norm() <= 0.5)
            .count();
        let frac = within_half as f64 / n as f64;
        assert!(
            (frac - 0.125).abs() < 0.01,
            "P(d<=R/2) = {frac}, want 0.125"
        );
    }
}
