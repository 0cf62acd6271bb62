//! Criterion bench for the improved-DEEC cluster-head selection
//! (Algorithms 2+3) — the Lemma 2 `O(N)` per-round phase. The largest
//! shape is the `sparse-100k` benchmark workload's (N 100 000, k 5 000),
//! where a short head set sends most of the roster through the top-up.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qlec_core::deec_improved::{select_heads, SelectionFeatures};
use qlec_core::params::QlecParams;
use qlec_geom::UniformGrid;
use qlec_net::NetworkBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("head_selection");
    for &(n, k) in &[(100usize, 5usize), (1000, 23), (2896, 50), (100_000, 5_000)] {
        // One 100k round takes tens of milliseconds: fewer samples.
        group.sample_size(if n >= 100_000 { 10 } else { 50 });
        let mut rng = StdRng::seed_from_u64(7);
        let net = NetworkBuilder::new().uniform_cube(&mut rng, n, 200.0, 5.0);
        let grid = UniformGrid::build(net.positions());
        let params = QlecParams::paper();
        group.bench_function(BenchmarkId::new("round", format!("n{n}_k{k}")), |b| {
            let mut rng = StdRng::seed_from_u64(8);
            let mut round = 0u32;
            b.iter(|| {
                let mut net = net.clone();
                let out = select_heads(
                    &mut net,
                    &grid,
                    round % 20,
                    k,
                    &params,
                    SelectionFeatures::default(),
                    &mut rng,
                );
                round += 1;
                black_box(out.heads.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
