//! Criterion bench for the two `UniformGrid` queries that run the
//! per-round control work: Algorithm 3's `d_c` HELLO ball
//! (`within_radius_into`, one per elected head) and Send-Data's nearest
//! heads (`k_nearest_into`, one per transmitting member, over a grid of
//! that round's heads). Shapes follow the benchmark workloads: N 10k with
//! 500 heads and N 100k with 5 000 heads in a 200 m cube, `d_c` from
//! Eq. 5 and `c` from Theorem 1's candidate budget, queried at `c` and at
//! the widened `c + 8` window.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qlec_core::kopt::{auto_candidate_budget, coverage_radius};
use qlec_geom::sample::uniform_points_in_aabb;
use qlec_geom::{Aabb, UniformGrid, Vec3};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deployment side (m), as in every benchmark workload.
const SIDE: f64 = 200.0;

/// Query points a bench cycles through, so one position's cache luck
/// does not decide the figure.
const QUERIES: usize = 4096;

fn points(seed: u64, n: usize) -> Vec<Vec3> {
    let mut rng = StdRng::seed_from_u64(seed);
    uniform_points_in_aabb(&mut rng, &Aabb::cube(SIDE), n)
}

fn bench_within_radius(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_within_radius");
    for &(n, k) in &[(10_000usize, 500usize), (100_000, 5_000)] {
        let pts = points(1, n);
        let grid = UniformGrid::build(pts.iter().copied());
        // The balls are centred on nodes, as a head's HELLO ball is.
        let centres: Vec<Vec3> = pts.iter().step_by(n / QUERIES).copied().collect();
        let dc = coverage_radius(SIDE, k);
        group.bench_function(BenchmarkId::new("n_k", format!("{n}_{k}")), |b| {
            let (mut ball, mut i) = (Vec::new(), 0);
            b.iter(|| {
                grid.within_radius_into(centres[i % centres.len()], black_box(dc), &mut ball);
                i += 1;
                ball.len()
            })
        });
    }
    group.finish();
}

fn bench_k_nearest(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_k_nearest");
    for &heads in &[500usize, 5_000] {
        let grid = UniformGrid::build(points(2, heads));
        let members = points(3, QUERIES);
        let budget = auto_candidate_budget(heads);
        for k in [budget, budget + 8] {
            group.bench_function(BenchmarkId::new("heads_k", format!("{heads}_{k}")), |b| {
                let (mut near, mut i) = (Vec::new(), 0);
                b.iter(|| {
                    grid.k_nearest_into(members[i % members.len()], black_box(k), &mut near);
                    i += 1;
                    near.len()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_within_radius, bench_k_nearest);
criterion_main!(benches);
