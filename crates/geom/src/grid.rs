//! Uniform-grid spatial index for fixed-radius and k-nearest queries.
//!
//! Algorithm 3 of the paper (redundancy reduction) requires, for every
//! freshly elected cluster head, the set of nodes within the cluster
//! coverage radius `d_c` — a classic fixed-radius neighbour query. With
//! `N = 2 896` nodes (§5.3) and up to `k = 272` heads per round, a naive
//! `O(N·k)` scan per round is affordable but wasteful; the grid makes each
//! query touch only the cells overlapping the query ball.
//!
//! The same cells answer QLEC's Send-Data candidate query (Alg. 1
//! lines 10–12: each member's `c` nearest heads): a grid rebuilt each
//! round over that round's heads, queried with
//! [`UniformGrid::k_nearest_into`]. That query is ball-first — guess a
//! radius from the live density, scan the ball, grow it until it holds
//! `k` points — so it costs about one radius query. Both queries run one
//! scan that is branchless in its hit test: every scanned entry is
//! written to the caller's buffer and the write cursor steps past hits
//! only.
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

/// Points the first k-nearest ball should hold on average, per point
/// asked for.
const KNN_FILL: f64 = 1.2;

/// Radius factor for the next k-nearest ball when one holds fewer than
/// `k` live points.
const KNN_GROWTH: f64 = 1.6;

/// Relative margin by which a query's cell range over-covers its ball, so
/// rounding in the cell arithmetic never drops a point the exact
/// `d² <= r²` test keeps.
const CELL_MARGIN: f64 = 1e-12;

/// Volume of the unit ball in 0, 1, 2 and 3 dimensions.
const UNIT_BALL: [f64; 4] = [
    1.0,
    2.0,
    std::f64::consts::PI,
    4.0 / 3.0 * std::f64::consts::PI,
];

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

    /// Cells along `axis` that cover `[c - radius, c + radius]`, widened
    /// by [`CELL_MARGIN`] of the radius and of `|c|` (the rounding of
    /// `c ± radius` scales with both).
    #[inline]
    fn axis_range(&self, c: f64, radius: f64, axis: usize) -> (usize, usize) {
        let reach = radius + (radius + c.abs()) * CELL_MARGIN;
        let min = self.bounds.min()[axis];
        let side = self.cell[axis];
        let a = (((c - reach - min) / side).floor().max(0.0)) as usize;
        let b = (((c + reach - min) / side).floor().max(0.0)) as usize;
        (a.min(self.dims[axis] - 1), b.min(self.dims[axis] - 1))
    }

    /// Append every live point within `radius` of `center` (inclusive) to
    /// `out` as `entry(index, squared distance)`, cell by cell, ascending
    /// within a cell.
    ///
    /// The scan is branchless in its hit test. Each grid row's entries are
    /// all written past the hits found so far, and the write cursor steps
    /// over an entry only if it is a hit, so a miss is overwritten by the
    /// next entry and cut by the final truncation. Only about one scanned
    /// entry in eight is a hit, so a branch on the test would mispredict
    /// often. The liveness term keeps its short circuit: with no
    /// tombstones (`stale == 0`) it reads no `alive` flag.
    #[inline]
    fn scan_within<T: Copy + Default>(
        &self,
        center: Vec3,
        radius: f64,
        out: &mut Vec<T>,
        entry: impl Fn(u32, f64) -> T,
    ) {
        let r_sq = radius * radius;
        let all_live = self.stale == 0;
        let (x0, x1) = self.axis_range(center.x, radius, 0);
        let (y0, y1) = self.axis_range(center.y, radius, 1);
        let (z0, z1) = self.axis_range(center.z, radius, 2);
        let mut len = out.len();
        for iz in z0..=z1 {
            for iy in y0..=y1 {
                let row = (iz * self.dims[1] + iy) * self.dims[0];
                // The cells x0..=x1 of one row are contiguous in `entries`.
                let s = self.starts[row + x0] as usize;
                let e = self.starts[row + x1 + 1] as usize;
                let cells = &self.entries[s..e];
                out.resize(len + cells.len(), T::default());
                let dst = &mut out[len..];
                let mut hits = 0;
                for &idx in cells {
                    let i = idx as usize;
                    let d_sq = self.points[i].dist_sq(center);
                    dst[hits] = entry(idx, d_sq);
                    hits += ((d_sq <= r_sq) & (all_live || self.alive[i])) as usize;
                }
                len += hits;
            }
        }
        out.truncate(len);
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
        self.scan_within(center, radius, out, |idx, _| idx);
    }

    /// Convenience wrapper returning a fresh `Vec`.
    pub fn within_radius(&self, center: Vec3, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.within_radius_into(center, radius, &mut out);
        out
    }

    /// The `k` live points nearest `q` as `(index, squared distance)`,
    /// ascending by `(squared distance, index)`: of two points at the same
    /// squared distance the lower index ranks first, so a tie at the
    /// `k`-th place keeps the lower index. Holds fewer than `k` only when
    /// fewer points are live. `out` is cleared first and doubles as the
    /// scan buffer.
    ///
    /// Scans a ball around `q` sized to hold about `1.2·k` points, growing
    /// it until it holds at least `k`. Every point outside that ball is
    /// strictly farther than every point inside, so the ranking is exact.
    ///
    /// ```
    /// use qlec_geom::{UniformGrid, Vec3};
    /// let grid = UniformGrid::build((0..5).map(|i| Vec3::new(i as f64, 0.0, 0.0)));
    /// let mut near = Vec::new();
    /// grid.k_nearest_into(Vec3::new(2.5, 0.0, 0.0), 3, &mut near);
    /// // Points 2 and 3 tie at 0.25; the lower index ranks first.
    /// assert_eq!(near, vec![(2, 0.25), (3, 0.25), (1, 2.25)]);
    /// ```
    pub fn k_nearest_into(&self, q: Vec3, k: usize, out: &mut Vec<(u32, f64)>) {
        out.clear();
        let k = k.min(self.alive_count);
        if k == 0 {
            return;
        }
        // A ball this wide holds every point in the bounds.
        let far_sq = (q - self.bounds.min()).max(self.bounds.max() - q).norm_sq();
        let mut r = self.knn_radius(q, k);
        loop {
            self.scan_within(q, r, out, |idx, d_sq| (idx, d_sq));
            // Stop once the ball covers the bounds (or `q` is NaN).
            if out.len() >= k || r * r >= far_sq * (1.0 + 1e-9) || r.is_nan() {
                break;
            }
            out.clear();
            r = if r > 0.0 {
                r * KNN_GROWTH
            } else {
                far_sq.sqrt()
            };
        }
        let rank = |a: &(u32, f64), b: &(u32, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
        if out.len() > k {
            out.select_nth_unstable_by(k - 1, rank);
            out.truncate(k);
        }
        out.sort_unstable_by(rank);
    }

    /// First k-nearest radius for `q`: the ball that holds
    /// [`KNN_FILL`]`·k` points at the grid's live density, measured over
    /// the bounds' non-flat axes. It is widened for the share of its
    /// bounding cube that falls outside the bounds, and centred on the
    /// bounds point nearest `q`, whose distance to `q` is added.
    fn knn_radius(&self, q: Vec3, k: usize) -> f64 {
        let (lo, hi) = (self.bounds.min(), self.bounds.max());
        let nearest = q.clamp(lo, hi);
        let ext = self.bounds.extent();
        let flat = |a: usize| ext[a] <= 0.0;
        let dim = (0..3).filter(|&a| !flat(a)).count();
        if dim == 0 {
            // Every point sits at `nearest`.
            return q.dist(nearest);
        }
        let volume: f64 = (0..3).filter(|&a| !flat(a)).map(|a| ext[a]).product();
        let want = KNN_FILL * k as f64 * volume / (self.alive_count as f64 * UNIT_BALL[dim]);
        let root = |x: f64| match dim {
            1 => x,
            2 => x.sqrt(),
            _ => x.cbrt(),
        };
        let r = root(want);
        let inside: f64 = (0..3)
            .filter(|&a| !flat(a))
            .map(|a| ((nearest[a] + r).min(hi[a]) - (nearest[a] - r).max(lo[a])) / (2.0 * r))
            .product();
        q.dist(nearest) + root(want / inside)
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

    /// The reference ranking: every live point by `(squared distance,
    /// index)`, cut to `k`.
    fn brute_k_nearest(
        points: &[Vec3],
        alive: impl Fn(usize) -> bool,
        q: Vec3,
        k: usize,
    ) -> Vec<(u32, f64)> {
        let mut all: Vec<(u32, f64)> = points
            .iter()
            .enumerate()
            .filter(|&(i, _)| alive(i))
            .map(|(i, p)| (i as u32, p.dist_sq(q)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    fn k_nearest(g: &UniformGrid, q: Vec3, k: usize) -> Vec<(u32, f64)> {
        let mut out = vec![(7, 7.0)]; // stale contents must not leak
        g.k_nearest_into(q, k, &mut out);
        out
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

    #[test]
    fn k_nearest_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = Aabb::cube(200.0);
        let pts = uniform_points_in_aabb(&mut rng, &b, 1_000);
        let g = UniformGrid::build(pts.clone());
        for q in uniform_points_in_aabb(&mut rng, &b, 100) {
            for &k in &[1usize, 5, 17, 28, 300] {
                assert_eq!(
                    k_nearest(&g, q, k),
                    brute_k_nearest(&pts, |_| true, q, k),
                    "{q:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn k_nearest_breaks_ties_by_index_on_lattices_and_duplicates() {
        // A 6×6×6 integer lattice listed twice: every distance is shared
        // by at least two points, and queries at lattice and half-lattice
        // points tie many more at the k-th place.
        let lattice: Vec<Vec3> = (0..216)
            .map(|i| Vec3::new((i % 6) as f64, (i / 6 % 6) as f64, (i / 36) as f64))
            .collect();
        let pts: Vec<Vec3> = lattice.iter().chain(&lattice).copied().collect();
        let g = UniformGrid::build(pts.clone());
        for (j, &p) in lattice.iter().enumerate().step_by(7) {
            for q in [p, p + Vec3::splat(0.5), p + Vec3::new(0.5, 0.0, 0.0)] {
                for k in [1, 2, 3, 7, 13, 27, 40] {
                    let got = k_nearest(&g, q, k);
                    assert_eq!(
                        got,
                        brute_k_nearest(&pts, |_| true, q, k),
                        "point {j} q {q:?} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn k_nearest_finds_points_on_cell_boundaries() {
        // 125 lattice points at multiples of 3 in [0, 12]³, each listed
        // three times: 375 points build 4 cells per axis of side exactly
        // 3, so every point lies on a cell boundary.
        let lattice: Vec<Vec3> = (0..125)
            .map(|i| Vec3::new((i % 5) as f64, (i / 5 % 5) as f64, (i / 25) as f64) * 3.0)
            .collect();
        let pts: Vec<Vec3> = (0..3).flat_map(|_| lattice.iter().copied()).collect();
        let g = UniformGrid::build(pts.clone());
        assert_eq!((g.dims, g.cell), ([4; 3], Vec3::splat(3.0)));
        for &p in lattice.iter().step_by(3) {
            for q in [
                p,
                p + Vec3::new(1.5, 0.0, 0.0),
                p + Vec3::new(3.0, 1.5, 0.0),
            ] {
                for k in [1, 3, 4, 10, 19, 50] {
                    assert_eq!(
                        k_nearest(&g, q, k),
                        brute_k_nearest(&pts, |_| true, q, k),
                        "{q:?} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn k_nearest_from_outside_the_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        let b = Aabb::cube(50.0);
        let pts = uniform_points_in_aabb(&mut rng, &b, 400);
        let g = UniformGrid::build(pts.clone());
        let queries = [
            Vec3::new(-1.0, 25.0, 25.0),
            Vec3::new(25.0, 51.0, 25.0),
            Vec3::splat(-0.5),
            Vec3::splat(55.0),
            Vec3::new(1e4, -3e3, 20.0),
        ];
        for q in queries {
            for k in [1, 8, 33, 400, 500] {
                assert_eq!(
                    k_nearest(&g, q, k),
                    brute_k_nearest(&pts, |_| true, q, k),
                    "{q:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn k_nearest_edge_cases() {
        let empty = UniformGrid::build(std::iter::empty());
        assert!(k_nearest(&empty, Vec3::ZERO, 3).is_empty());

        let pts = vec![Vec3::ZERO, Vec3::ONE, Vec3::splat(2.0)];
        let g = UniformGrid::build(pts.clone());
        assert!(k_nearest(&g, Vec3::ZERO, 0).is_empty());
        for k in [3, 10] {
            assert_eq!(
                k_nearest(&g, Vec3::splat(1.9), k),
                brute_k_nearest(&pts, |_| true, Vec3::splat(1.9), 3)
            );
        }

        // Flat point sets: a plane, a line, and one repeated point, queried
        // on and off them.
        let plane: Vec<Vec3> = (0..100)
            .map(|i| Vec3::new(i as f64, (i * 7 % 13) as f64, 4.0))
            .collect();
        let line: Vec<Vec3> = (0..60)
            .map(|i| Vec3::new(0.0, i as f64 * 0.5, 0.0))
            .collect();
        let point = vec![Vec3::splat(5.0); 9];
        for pts in [plane, line, point] {
            let g = UniformGrid::build(pts.clone());
            for q in [
                pts[3],
                pts[3] + Vec3::new(0.25, 0.0, 0.0),
                pts[0] + Vec3::splat(3.0),
                Vec3::splat(-20.0),
            ] {
                for k in [1, 4, 9, 200] {
                    assert_eq!(
                        k_nearest(&g, q, k),
                        brute_k_nearest(&pts, |_| true, q, k),
                        "{q:?} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn k_nearest_skips_tombstones_before_and_after_compaction() {
        let mut rng = StdRng::seed_from_u64(19);
        let b = Aabb::cube(80.0);
        let pts = uniform_points_in_aabb(&mut rng, &b, 400);
        let queries = uniform_points_in_aabb(&mut rng, &b, 15);
        let mut g = UniformGrid::build(pts.clone());
        let mut dead = vec![false; pts.len()];
        let check = |g: &UniformGrid, dead: &[bool]| {
            for &q in &queries {
                for k in [1, 6, 25, 399] {
                    assert_eq!(
                        k_nearest(g, q, k),
                        brute_k_nearest(&pts, |i| !dead[i], q, k),
                        "{q:?} k={k}"
                    );
                }
            }
        };
        let (mut tombstoned, mut compacted) = (false, false);
        for i in (0..pts.len()).step_by(3) {
            assert!(g.remove(i as u32));
            dead[i] = true;
            if g.stale > 0 && !tombstoned {
                check(&g, &dead);
                tombstoned = true;
            }
            if g.stale == 0 {
                check(&g, &dead);
                compacted = true;
                break;
            }
        }
        assert!(tombstoned && compacted);
        // Every point but one removed: that one is the answer everywhere.
        let last = dead.len() - 1;
        for (i, d) in dead[..last].iter_mut().enumerate() {
            g.remove(i as u32);
            *d = true;
        }
        check(&g, &dead);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `within_radius_into` holds exactly the brute-force ball of the
        /// live points, in cell order: ascending cell, ascending index
        /// within a cell. Point sets are uniform, on an 8×8×8 integer
        /// lattice, on a plane, or one repeated point. Points are removed
        /// one at a time and every query reruns after each removal, so the
        /// scan meets tombstones before and after a compaction. Queries
        /// sit on a point or anywhere in and around the bounds; radii are
        /// 0, exactly the distance to a point, a random one, and one wider
        /// than the bounds.
        #[test]
        fn within_radius_matches_the_brute_force_ball(
            seed in 0u64..100_000,
            n in 1usize..150,
            shape in 0u8..4,
            removed in 0usize..=100,
        ) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let draw = |rng: &mut StdRng| -> Vec3 {
                let mut lattice = || rng.gen_range(0..8u32) as f64;
                match shape {
                    0 => Vec3::new(lattice(), lattice(), lattice()) * 6.25
                        + Vec3::new(rng.gen(), rng.gen(), rng.gen()) * 6.25,
                    1 => Vec3::new(lattice(), lattice(), lattice()),
                    2 => Vec3::new(lattice(), lattice(), 3.0),
                    _ => Vec3::splat(2.0),
                }
            };
            let pts: Vec<Vec3> = (0..n).map(|_| draw(&mut rng)).collect();
            let mut queries = Vec::new();
            for j in 0..4 {
                let q = if j % 2 == 0 {
                    pts[rng.gen_range(0..n)]
                } else {
                    draw(&mut rng) + Vec3::new(rng.gen(), rng.gen(), rng.gen()) - Vec3::splat(0.5)
                };
                let on = pts[rng.gen_range(0..n)].dist(q);
                for r in [0.0, on, rng.gen_range(0.0..20.0), 1e3] {
                    queries.push((q, r));
                }
            }
            let mut g = UniformGrid::build(pts.clone());
            let mut dead = vec![false; n];
            let mut out = vec![7]; // stale contents must not leak
            for step in 0..=removed * n / 100 {
                if step > 0 {
                    let i = rng.gen_range(0..n);
                    g.remove(i as u32);
                    dead[i] = true;
                }
                for &(q, r) in &queries {
                    g.within_radius_into(q, r, &mut out);
                    let mut want = brute_within(&pts, |i| !dead[i], q, r);
                    want.sort_by_key(|&i| (g.cell_of(pts[i as usize]), i));
                    proptest::prop_assert_eq!((q, r, step, &out), (q, r, step, &want));
                }
            }
        }

        /// `k_nearest_into` equals the brute-force `(d², index)` ranking
        /// of the live points, down to which index wins a tie at the
        /// `k`-th place. Point sets are uniform, on an 8×8×8 integer
        /// lattice (many exact ties), on a plane, or one repeated point;
        /// some points are removed; half the queries sit on a point and
        /// the rest at integer or half-integer places; `k` runs from 0
        /// past the live count.
        #[test]
        fn k_nearest_matches_the_brute_force_ranking(
            seed in 0u64..100_000,
            n in 1usize..150,
            k_raw in 0usize..1000,
            shape in 0u8..4,
            removed in 0usize..100,
        ) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let draw = |rng: &mut StdRng, step: f64| -> Vec3 {
                let mut c = || rng.gen_range(0..8u32) as f64 * step;
                match shape {
                    0 => Vec3::new(c(), c(), c()) * 6.25,
                    1 => Vec3::new(c(), c(), c()),
                    2 => Vec3::new(c(), c(), 3.0),
                    _ => Vec3::splat(2.0),
                }
            };
            let pts: Vec<Vec3> = (0..n).map(|_| draw(&mut rng, 1.0)).collect();
            let mut g = UniformGrid::build(pts.clone());
            let mut dead = vec![false; n];
            for _ in 0..removed * n / 100 {
                let i = rng.gen_range(0..n);
                g.remove(i as u32);
                dead[i] = true;
            }
            let k = k_raw % (n + 5);
            for j in 0..6 {
                let q = if j % 2 == 0 { pts[rng.gen_range(0..n)] } else { draw(&mut rng, 0.5) };
                let want = brute_k_nearest(&pts, |i| !dead[i], q, k);
                proptest::prop_assert_eq!(k_nearest(&g, q, k), want);
            }
        }
    }
}
