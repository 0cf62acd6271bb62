//! A static k-d tree over 3-D points.
//!
//! QLEC's Send-Data head index: the tree is rebuilt each round over that
//! round's cluster heads, and each member's candidate set is pruned to its
//! `k` nearest heads. Complements [`crate::grid::UniformGrid`], which
//! answers the fixed-radius queries of Algorithm 3.
//!
//! The tree is built once (median splits, `O(n log n)`) and is immutable.

use crate::vec3::Vec3;

#[derive(Debug, Clone)]
struct Node {
    /// Index into `points`.
    point: u32,
    /// Split axis (0, 1, 2).
    axis: u8,
    left: i32,
    right: i32,
}

const NIL: i32 = -1;

/// Immutable k-d tree for k-nearest queries.
#[derive(Debug, Clone)]
pub struct KdTree {
    nodes: Vec<Node>,
    points: Vec<Vec3>,
    root: i32,
}

impl Default for KdTree {
    /// An empty tree (same as `KdTree::build(Vec::new())`).
    fn default() -> Self {
        KdTree::build(Vec::new())
    }
}

impl KdTree {
    /// Build a balanced tree over `points` (median splitting on the widest
    /// axis of each partition).
    pub fn build(points: Vec<Vec3>) -> Self {
        let n = points.len();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::with_capacity(n);
        let root = Self::build_rec(&points, &mut idx[..], &mut nodes);
        KdTree {
            nodes,
            points,
            root,
        }
    }

    fn build_rec(points: &[Vec3], idx: &mut [u32], nodes: &mut Vec<Node>) -> i32 {
        if idx.is_empty() {
            return NIL;
        }
        // Pick the widest axis of this partition for better balance on
        // anisotropic data (the power-plant deployment is much wider in
        // longitude/latitude than in height).
        let mut lo = Vec3::splat(f64::INFINITY);
        let mut hi = Vec3::splat(f64::NEG_INFINITY);
        for &i in idx.iter() {
            lo = lo.min(points[i as usize]);
            hi = hi.max(points[i as usize]);
        }
        let ext = hi - lo;
        let axis = if ext.x >= ext.y && ext.x >= ext.z {
            0
        } else if ext.y >= ext.z {
            1
        } else {
            2
        };
        let mid = idx.len() / 2;
        idx.select_nth_unstable_by(mid, |&a, &b| {
            points[a as usize][axis].total_cmp(&points[b as usize][axis])
        });
        let point = idx[mid];
        let node_pos = nodes.len() as i32;
        nodes.push(Node {
            point,
            axis: axis as u8,
            left: NIL,
            right: NIL,
        });
        let (left_idx, rest) = idx.split_at_mut(mid);
        let right_idx = &mut rest[1..];
        let left = Self::build_rec(points, left_idx, nodes);
        let right = Self::build_rec(points, right_idx, nodes);
        nodes[node_pos as usize].left = left;
        nodes[node_pos as usize].right = right;
        node_pos
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Indices of the `k` nearest points to `q` with their squared
    /// distances, ascending by `(squared distance, index)`: of two points
    /// at the same squared distance the lower index ranks first, so a tie
    /// at the `k`-th place keeps the lower index. Returns fewer when the
    /// tree holds fewer points.
    pub fn k_nearest(&self, q: Vec3, k: usize) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        self.k_nearest_into(q, k, &mut out);
        out
    }

    /// [`KdTree::k_nearest`] into a caller-provided buffer (cleared
    /// first) — the allocation-free variant for per-packet queries. Same
    /// order and tie rule: ascending by `(squared distance, index)`.
    pub fn k_nearest_into(&self, q: Vec3, k: usize, out: &mut Vec<(u32, f64)>) {
        out.clear();
        if self.root == NIL || k == 0 {
            return;
        }
        out.reserve(k.min(self.len()) + 1);
        self.knn_rec(self.root, q, k, out);
    }

    /// Branch-and-bound k-nearest walk. `best` holds at most `k` entries
    /// in ascending `(squared distance, index)` order: a closer point is
    /// inserted by binary search and the worst entry dropped.
    fn knn_rec(&self, ni: i32, q: Vec3, k: usize, best: &mut Vec<(u32, f64)>) {
        let node = &self.nodes[ni as usize];
        let p = self.points[node.point as usize];
        let cand = (node.point, p.dist_sq(q));
        let ranks_before =
            |a: &(u32, f64), b: &(u32, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)).is_lt();
        if best.len() < k || ranks_before(&cand, &best[k - 1]) {
            if best.len() == k {
                best.pop();
            }
            let at = best.partition_point(|e| ranks_before(e, &cand));
            best.insert(at, cand);
        }
        let axis = node.axis as usize;
        let delta = q[axis] - p[axis];
        let (near, far) = if delta < 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if near != NIL {
            self.knn_rec(near, q, k, best);
        }
        // Every far-side point is at least `delta²` away. A point at
        // exactly the worst distance may still win on index, so only a
        // strictly farther plane prunes.
        if far != NIL && (best.len() < k || delta * delta <= best[k - 1].1) {
            self.knn_rec(far, q, k, best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aabb::Aabb;
    use crate::sample::uniform_points_in_aabb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_tree() {
        let t = KdTree::build(Vec::new());
        assert!(t.is_empty());
        assert!(t.k_nearest(Vec3::ZERO, 1).is_empty());
        assert!(t.k_nearest(Vec3::ZERO, 3).is_empty());
    }

    #[test]
    fn single_point() {
        let t = KdTree::build(vec![Vec3::splat(1.0)]);
        let got = t.k_nearest(Vec3::ZERO, 1);
        assert_eq!(got.len(), 1);
        let (i, d) = got[0];
        assert_eq!(i, 0);
        assert!((d - 3.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = Aabb::cube(200.0);
        let pts = uniform_points_in_aabb(&mut rng, &b, 1_000);
        let t = KdTree::build(pts.clone());
        for q in uniform_points_in_aabb(&mut rng, &b, 200) {
            let (gi, gd) = t.k_nearest(q, 1)[0];
            let bd = pts
                .iter()
                .map(|p| p.dist_sq(q))
                .fold(f64::INFINITY, f64::min);
            assert!((gd - bd).abs() < 1e-9, "query {q:?}");
            assert!((pts[gi as usize].dist_sq(q) - bd).abs() < 1e-9);
        }
    }

    #[test]
    fn k_nearest_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(5);
        let b = Aabb::cube(50.0);
        let pts = uniform_points_in_aabb(&mut rng, &b, 300);
        let t = KdTree::build(pts.clone());
        for q in uniform_points_in_aabb(&mut rng, &b, 30) {
            for &k in &[1usize, 5, 17] {
                let got = t.k_nearest(q, k);
                assert_eq!(got.len(), k.min(pts.len()));
                let mut dists: Vec<f64> = pts.iter().map(|p| p.dist_sq(q)).collect();
                dists.sort_by(|a, b| a.total_cmp(b));
                for (j, (_, d)) in got.iter().enumerate() {
                    assert!((d - dists[j]).abs() < 1e-9, "k={k} j={j}");
                }
                // Results are sorted ascending.
                for w in got.windows(2) {
                    assert!(w[0].1 <= w[1].1);
                }
            }
        }
    }

    #[test]
    fn k_nearest_into_matches_allocating_variant() {
        let mut rng = StdRng::seed_from_u64(7);
        let b = Aabb::cube(50.0);
        let pts = uniform_points_in_aabb(&mut rng, &b, 200);
        let t = KdTree::build(pts);
        let mut buf = Vec::new();
        for q in uniform_points_in_aabb(&mut rng, &b, 20) {
            t.k_nearest_into(q, 5, &mut buf);
            assert_eq!(buf, t.k_nearest(q, 5), "stale buffer state leaked");
        }
    }

    #[test]
    fn k_larger_than_n() {
        let pts = vec![Vec3::ZERO, Vec3::ONE, Vec3::splat(2.0)];
        let t = KdTree::build(pts);
        let got = t.k_nearest(Vec3::ZERO, 10);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, 0);
    }

    #[test]
    fn anisotropic_data() {
        // Points spread only along x — widest-axis splitting must keep the
        // tree balanced enough to answer correctly.
        let pts: Vec<Vec3> = (0..1000).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        let t = KdTree::build(pts);
        let (i, _) = t.k_nearest(Vec3::new(512.3, 0.0, 0.0), 1)[0];
        assert_eq!(i, 512);
    }

    /// The reference ranking: every point by `(squared distance,
    /// index)`, cut to `k`.
    fn brute_k_nearest(pts: &[Vec3], q: Vec3, k: usize) -> Vec<(u32, f64)> {
        let mut all: Vec<(u32, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p.dist_sq(q)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `k_nearest` equals the brute-force `(d², index)` ranking, down
        /// to which index wins a tie at the `k`-th place. Points on an
        /// 8×8×8 integer lattice, queried from integer and half-integer
        /// points, produce many exact distance ties; `k` runs from 1 past
        /// `n`.
        #[test]
        fn k_nearest_matches_the_brute_force_ranking(
            seed in 0u64..100_000,
            n in 1usize..120,
            k_raw in 0usize..1000,
            lattice in proptest::prelude::any::<bool>(),
        ) {
            use rand::Rng;
            let k = k_raw % (n + 5) + 1;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut draw = |step: f64| -> Vec3 {
                if lattice {
                    let mut c = || rng.gen_range(0..8u32) as f64 * step;
                    Vec3::new(c(), c(), c())
                } else {
                    Vec3::new(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()) * 50.0
                }
            };
            let pts: Vec<Vec3> = (0..n).map(|_| draw(1.0)).collect();
            let t = KdTree::build(pts.clone());
            let mut buf = vec![(7, 7.0)];
            for _ in 0..6 {
                let q = draw(0.5);
                let want = brute_k_nearest(&pts, q, k);
                proptest::prop_assert_eq!(t.k_nearest(q, k), want.clone());
                t.k_nearest_into(q, k, &mut buf);
                proptest::prop_assert_eq!(&buf, &want);
            }
        }
    }

    #[test]
    fn duplicates_are_handled() {
        let pts = vec![Vec3::ONE; 32];
        let t = KdTree::build(pts);
        let got = t.k_nearest(Vec3::ONE, 5);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|&(_, d)| d == 0.0));
    }
}
