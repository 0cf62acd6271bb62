//! Uniform-grid spatial index for fixed-radius queries.
//!
//! Algorithm 3 of the paper (redundancy reduction) requires, for every
//! freshly elected cluster head, the set of nodes within the cluster
//! coverage radius `d_c` — a classic fixed-radius neighbour query. With
//! `N = 2 896` nodes (§5.3) and up to `k = 272` heads per round, a naive
//! `O(N·k)` scan per round is affordable but wasteful; the grid makes each
//! query touch only the cells overlapping the query ball.
//!
//! Nodes never move or join, so the index is built once over the
//! deployment positions and afterwards only shrinks:
//! [`UniformGrid::remove`] leaves a tombstone in `O(1)` and never
//! renumbers, so callers that identify points by index (the protocol maps
//! grid index to `NodeId` directly) stay correct. Once the tombstones
//! exceed a quarter of the live points, the grid compacts its cell lists
//! in one `O(N)` pass and queries stop paying the liveness filter.
//! Compaction keeps each cell's surviving indices in their order, so a
//! query returns the same indices in the same order whether it runs before
//! or after one.

use crate::aabb::Aabb;
use crate::vec3::Vec3;

/// Average number of points per cell the build aims for.
const TARGET_PER_CELL: usize = 8;

/// Tombstones, as a fraction of the live points, that a removal may leave
/// in the cell lists before it compacts them.
const COMPACT_FRACTION: f64 = 0.25;

/// A uniform spatial hash over a fixed point set, with removal.
///
/// ```
/// use qlec_geom::{UniformGrid, Vec3};
/// let points = vec![Vec3::ZERO, Vec3::splat(10.0), Vec3::splat(100.0)];
/// let mut grid = UniformGrid::build(points);
/// let near_origin = grid.within_radius(Vec3::ZERO, 20.0);
/// assert_eq!(near_origin.len(), 2); // the origin and (10,10,10)
///
/// // Removal tombstones: the other points keep their indices.
/// assert!(grid.remove(1));
/// assert!(!grid.remove(1)); // already gone
/// assert_eq!(grid.within_radius(Vec3::ZERO, 20.0), vec![0]);
/// assert_eq!(grid.within_radius(Vec3::splat(100.0), 0.0), vec![2]);
/// ```
#[derive(Debug, Clone)]
pub struct UniformGrid {
    bounds: Aabb,
    /// Number of cells along each axis (at least 1).
    dims: [usize; 3],
    /// Side lengths of one cell.
    cell: Vec3,
    /// CSR-style layout: `starts[c]..starts[c+1]` indexes into `entries`
    /// for cell `c`, whose indices ascend. Avoids one `Vec` allocation
    /// per cell.
    starts: Vec<u32>,
    entries: Vec<u32>,
    points: Vec<Vec3>,
    /// Liveness per point slot; `remove` tombstones, never renumbers.
    alive: Vec<bool>,
    /// Live points.
    alive_count: usize,
    /// Removed points whose entries are still in the cell lists.
    stale: usize,
}

impl UniformGrid {
    /// Build a grid over `points` with roughly eight points per cell on
    /// average. An empty point set yields a valid, empty index.
    ///
    /// Accepts any position iterator, so callers holding positions inside
    /// richer records (e.g. a network's nodes) can feed them straight in
    /// without materialising an intermediate `Vec`.
    pub fn build(points: impl IntoIterator<Item = Vec3>) -> Self {
        let points: Vec<Vec3> = points.into_iter().collect();
        let bounds = Aabb::enclosing(&points).unwrap_or_else(|| Aabb::new(Vec3::ZERO, Vec3::ZERO));
        let n = points.len();
        // Cube-root heuristic: total cells ≈ n / TARGET_PER_CELL, split
        // evenly across the three axes.
        let cells_total = (n.max(1) / TARGET_PER_CELL).max(1);
        let per_axis = (cells_total as f64).cbrt().ceil().max(1.0) as usize;
        let dims = [per_axis; 3];
        let ext = bounds.extent();
        let side = |e: f64, d: usize| if e > 0.0 { e / d as f64 } else { 1.0 };
        let cell = Vec3::new(
            side(ext.x, dims[0]),
            side(ext.y, dims[1]),
            side(ext.z, dims[2]),
        );
        let mut grid = UniformGrid {
            bounds,
            dims,
            cell,
            starts: Vec::new(),
            entries: Vec::new(),
            points,
            alive: vec![true; n],
            alive_count: n,
            stale: 0,
        };

        // Counting sort in index order, so each cell lists its points
        // ascending.
        let ncells = per_axis * per_axis * per_axis;
        let mut starts = vec![0u32; ncells + 1];
        for &p in &grid.points {
            starts[grid.cell_of(p) + 1] += 1;
        }
        for c in 1..=ncells {
            starts[c] += starts[c - 1];
        }
        let mut cursor = starts[..ncells].to_vec();
        let mut entries = vec![0u32; n];
        for (i, &p) in grid.points.iter().enumerate() {
            let c = grid.cell_of(p);
            entries[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        grid.starts = starts;
        grid.entries = entries;
        grid
    }

    /// Cell index for position `p`, clamping to the edge cells.
    ///
    /// The bounds enclose every built point, so only a non-finite
    /// coordinate clamps: NaN saturates to 0 through the `as usize` cast.
    #[inline]
    fn cell_of(&self, p: Vec3) -> usize {
        let rel = p - self.bounds.min();
        let ix = ((rel.x / self.cell.x) as usize).min(self.dims[0] - 1);
        let iy = ((rel.y / self.cell.y) as usize).min(self.dims[1] - 1);
        let iz = ((rel.z / self.cell.z) as usize).min(self.dims[2] - 1);
        (iz * self.dims[1] + iy) * self.dims[0] + ix
    }

    /// Drop every tombstoned entry from the cell lists in place. Each
    /// cell keeps its surviving indices in order.
    fn compact(&mut self) {
        let mut kept = 0;
        let mut start = 0;
        for c in 0..self.starts.len() - 1 {
            let end = self.starts[c + 1] as usize;
            self.starts[c] = kept as u32;
            for k in start..end {
                let idx = self.entries[k];
                if self.alive[idx as usize] {
                    self.entries[kept] = idx;
                    kept += 1;
                }
            }
            start = end;
        }
        *self.starts.last_mut().expect("starts holds ncells + 1") = kept as u32;
        self.entries.truncate(kept);
        self.stale = 0;
    }

    /// Remove the point at `idx` (tombstone; indices of other points are
    /// unaffected). Returns `false` if it was already removed.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn remove(&mut self, idx: u32) -> bool {
        let i = idx as usize;
        if !self.alive[i] {
            return false;
        }
        self.alive[i] = false;
        self.alive_count -= 1;
        self.stale += 1;
        let budget = (COMPACT_FRACTION * self.alive_count.max(1) as f64).ceil() as usize;
        if self.stale > budget {
            self.compact();
        }
        true
    }

    /// Number of live (non-removed) points.
    pub fn len(&self) -> usize {
        self.alive_count
    }

    /// Whether the index holds no live points.
    pub fn is_empty(&self) -> bool {
        self.alive_count == 0
    }

    /// The point slots, in the order indices refer to. Includes removed
    /// slots; check liveness out-of-band if needed.
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    #[inline]
    fn axis_range(&self, lo: f64, hi: f64, axis: usize) -> (usize, usize) {
        let min = self.bounds.min()[axis];
        let c = self.cell[axis];
        let a = (((lo - min) / c).floor().max(0.0)) as usize;
        let b = (((hi - min) / c).floor().max(0.0)) as usize;
        (a.min(self.dims[axis] - 1), b.min(self.dims[axis] - 1))
    }

    /// Indices of all live points within `radius` of `center` (inclusive),
    /// appended to `out` cell by cell, ascending within a cell. `out` is
    /// cleared first.
    ///
    /// This is the HELLO-broadcast primitive of Algorithm 3.
    pub fn within_radius_into(&self, center: Vec3, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        if self.alive_count == 0 || radius < 0.0 {
            return;
        }
        let r_sq = radius * radius;
        let (x0, x1) = self.axis_range(center.x - radius, center.x + radius, 0);
        let (y0, y1) = self.axis_range(center.y - radius, center.y + radius, 1);
        let (z0, z1) = self.axis_range(center.z - radius, center.z + radius, 2);
        for iz in z0..=z1 {
            for iy in y0..=y1 {
                for ix in x0..=x1 {
                    let c = (iz * self.dims[1] + iy) * self.dims[0] + ix;
                    let s = self.starts[c] as usize;
                    let e = self.starts[c + 1] as usize;
                    if self.stale == 0 {
                        // Fast path: every entry is live.
                        for &idx in &self.entries[s..e] {
                            if self.points[idx as usize].dist_sq(center) <= r_sq {
                                out.push(idx);
                            }
                        }
                    } else {
                        for &idx in &self.entries[s..e] {
                            let i = idx as usize;
                            if self.alive[i] && self.points[i].dist_sq(center) <= r_sq {
                                out.push(idx);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Convenience wrapper returning a fresh `Vec`.
    pub fn within_radius(&self, center: Vec3, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.within_radius_into(center, radius, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::uniform_points_in_aabb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn brute_within(points: &[Vec3], alive: impl Fn(usize) -> bool, c: Vec3, r: f64) -> Vec<u32> {
        let mut v: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(i, p)| alive(*i) && p.dist_sq(c) <= r * r)
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_grid_is_fine() {
        let g = UniformGrid::build(std::iter::empty());
        assert!(g.is_empty());
        assert!(g.within_radius(Vec3::ZERO, 10.0).is_empty());
    }

    #[test]
    fn single_point() {
        let g = UniformGrid::build(vec![Vec3::splat(5.0)]);
        assert_eq!(g.within_radius(Vec3::splat(5.0), 0.0), vec![0]);
        assert!(g.within_radius(Vec3::ZERO, 1.0).is_empty());
    }

    #[test]
    fn radius_query_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(7);
        let b = Aabb::cube(200.0);
        let pts = uniform_points_in_aabb(&mut rng, &b, 800);
        let g = UniformGrid::build(pts.clone());
        for center in uniform_points_in_aabb(&mut rng, &b, 50) {
            for &r in &[0.0, 5.0, 30.0, 77.2, 250.0] {
                let mut got = g.within_radius(center, r);
                got.sort_unstable();
                assert_eq!(
                    got,
                    brute_within(&pts, |_| true, center, r),
                    "center {center:?} r {r}"
                );
            }
        }
    }

    #[test]
    fn degenerate_coplanar_points() {
        // All points on a plane (zero extent along z): grid must not panic
        // and queries must stay correct.
        let pts: Vec<Vec3> = (0..100)
            .map(|i| Vec3::new(i as f64, (i * 7 % 13) as f64, 0.0))
            .collect();
        let g = UniformGrid::build(pts.clone());
        let got = g.within_radius(Vec3::new(50.0, 5.0, 0.0), 10.0);
        let want = brute_within(&pts, |_| true, Vec3::new(50.0, 5.0, 0.0), 10.0);
        let mut got = got;
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn duplicate_points_all_reported() {
        let pts = vec![Vec3::ONE; 10];
        let g = UniformGrid::build(pts);
        assert_eq!(g.within_radius(Vec3::ONE, 0.5).len(), 10);
    }

    #[test]
    fn remove_tombstones_and_keeps_indices_stable() {
        let mut rng = StdRng::seed_from_u64(23);
        let b = Aabb::cube(150.0);
        let pts = uniform_points_in_aabb(&mut rng, &b, 400);
        let mut g = UniformGrid::build(pts.clone());
        // 80 of 400 removed leaves 320 live points: exactly at the
        // compaction budget (a quarter), so every query below runs
        // through the tombstone filter.
        let mut dead = vec![false; pts.len()];
        for i in (0..pts.len()).step_by(5) {
            assert!(g.remove(i as u32));
            assert!(!g.remove(i as u32), "double remove must report false");
            dead[i] = true;
        }
        assert_eq!(g.stale, 80, "the removals must not have compacted");
        assert_eq!(g.len(), pts.len() - dead.iter().filter(|&&d| d).count());
        for center in uniform_points_in_aabb(&mut rng, &b, 30) {
            for &r in &[10.0, 40.0, 200.0] {
                let mut got = g.within_radius(center, r);
                got.sort_unstable();
                assert_eq!(got, brute_within(&pts, |i| !dead[i], center, r));
            }
        }
    }

    #[test]
    fn compaction_keeps_every_query_and_its_order() {
        let mut rng = StdRng::seed_from_u64(31);
        let b = Aabb::cube(100.0);
        let pts = uniform_points_in_aabb(&mut rng, &b, 400);
        let centers = uniform_points_in_aabb(&mut rng, &b, 20);
        let mut g = UniformGrid::build(pts.clone());
        let mut dead = vec![false; pts.len()];
        let check = |g: &UniformGrid, dead: &[bool]| {
            for &center in &centers {
                for &r in &[5.0, 30.0, 150.0] {
                    let mut got = g.within_radius(center, r);
                    got.sort_unstable();
                    assert_eq!(got, brute_within(&pts, |i| !dead[i], center, r));
                }
            }
        };
        let balls = |g: &UniformGrid| -> Vec<Vec<u32>> {
            centers.iter().map(|&c| g.within_radius(c, 30.0)).collect()
        };
        // Remove odd indices until a removal compacts. Every removal,
        // tombstoning or compacting, leaves each ball with the same ids in
        // the same order, less the one removed.
        let mut victims = (1..pts.len()).step_by(2);
        let mut compacted = false;
        for i in victims.by_ref() {
            let before = balls(&g);
            assert!(g.remove(i as u32));
            dead[i] = true;
            check(&g, &dead);
            for (mut want, got) in before.into_iter().zip(balls(&g)) {
                want.retain(|&j| j as usize != i);
                assert_eq!(got, want);
            }
            if g.stale == 0 {
                compacted = true;
                break;
            }
        }
        assert!(compacted, "removing half the points must compact");
        assert_eq!(g.entries.len(), g.len());

        // Removals after a compaction tombstone again; earlier victims stay
        // gone.
        assert!(!g.remove(1), "a compacted-away id must report false");
        for i in victims.take(10) {
            assert!(g.remove(i as u32));
            dead[i] = true;
        }
        assert!(g.stale > 0);
        check(&g, &dead);
    }
}
