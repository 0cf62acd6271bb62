//! Tests for API-surface conveniences: boxed protocols, trace recording
//! through the umbrella crate's `TraceSink`, aggregate-share override, and the
//! protocol-generic simulator entry points downstream users rely on.

use qlec::core::QlecProtocol;
use qlec::net::protocol::GreedyEnergyProtocol;
use qlec::net::trace::{RunTrace, TraceSink};
use qlec::net::{NetworkBuilder, Protocol, SimConfig, SimReport, Simulator};
use qlec::obs::ObserverSet;
use qlec::radio::link::{AnyLink, IdealLink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

fn net(seed: u64) -> qlec::net::Network {
    let mut rng = StdRng::seed_from_u64(seed);
    NetworkBuilder::new()
        .link(AnyLink::Ideal(IdealLink))
        .uniform_cube(&mut rng, 30, 200.0, 5.0)
}

fn cfg(rounds: u32) -> SimConfig {
    let mut c = SimConfig::paper(6.0);
    c.rounds = rounds;
    c
}

/// Run `protocol` with a [`TraceSink`] attached through an
/// [`ObserverSet`], the way `qlec-sim run --trace` does.
fn traced_run(
    protocol: &mut dyn Protocol,
    net: qlec::net::Network,
    rounds: u32,
    seed: u64,
) -> (SimReport, RunTrace) {
    let sink = Arc::new(Mutex::new(TraceSink::new(protocol.name())));
    let mut obs = ObserverSet::new();
    obs.attach(sink.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let report = Simulator::builder(net)
        .config(cfg(rounds))
        .observers(obs)
        .build()
        .run(protocol, &mut rng);
    let trace = sink.lock().unwrap().trace().clone();
    (report, trace)
}

/// A `Box<dyn Protocol>` drives the simulator exactly like the concrete
/// type — and its run can be traced.
#[test]
fn boxed_protocols_run_and_trace() {
    let mut boxed: Box<dyn Protocol> = Box::new(GreedyEnergyProtocol::new(3));
    let (report, trace) = traced_run(&mut boxed, net(1), 3, 2);
    assert!(report.totals.is_conserved());
    assert_eq!(trace.rounds.len(), 3);
    assert_eq!(trace.protocol, "greedy-energy");
}

/// Boxed and unboxed runs of the same protocol on the same seeds are
/// bit-identical.
#[test]
fn boxing_does_not_change_behaviour() {
    let run_concrete = {
        let mut p = GreedyEnergyProtocol::new(3);
        let mut rng = StdRng::seed_from_u64(3);
        Simulator::builder(net(4))
            .config(cfg(3))
            .build()
            .run(&mut p, &mut rng)
    };
    let run_boxed = {
        let mut p: Box<dyn Protocol> = Box::new(GreedyEnergyProtocol::new(3));
        let mut rng = StdRng::seed_from_u64(3);
        Simulator::builder(net(4))
            .config(cfg(3))
            .build()
            .run(&mut p, &mut rng)
    };
    assert_eq!(run_concrete.totals.generated, run_boxed.totals.generated);
    assert_eq!(run_concrete.totals.delivered, run_boxed.totals.delivered);
    assert_eq!(run_concrete.total_energy(), run_boxed.total_energy());
}

/// The aggregate-share override changes head valuations (and therefore,
/// possibly, routing) without breaking anything.
#[test]
fn aggregate_share_override_is_accepted() {
    for share in [0.0, 0.5, 1.0] {
        let mut p = QlecProtocol::builder().k(3).aggregate_share(share).build();
        let mut rng = StdRng::seed_from_u64(5);
        let report = Simulator::builder(net(6))
            .config(cfg(3))
            .build()
            .run(&mut p, &mut rng);
        assert!(report.totals.is_conserved(), "share {share}");
        assert!(report.totals.delivered > 0, "share {share}");
    }
}

#[test]
#[should_panic]
fn aggregate_share_out_of_range_rejected() {
    let _ = QlecProtocol::builder().k(3).aggregate_share(1.5).build();
}

/// The trace's head-duty histogram is consistent with the report's head
/// counts, on the planner path QLEC runs in production.
#[test]
fn trace_head_duty_matches_report() {
    let n = net(8);
    let n_nodes = n.len();
    let (report, trace) = traced_run(&mut QlecProtocol::builder().k(4).build(), n, 4, 7);
    let duty: u32 = trace.head_duty_counts(n_nodes).iter().sum();
    let heads_served: usize = report.rounds.iter().map(|r| r.head_count).sum();
    assert_eq!(duty as usize, heads_served);
}
