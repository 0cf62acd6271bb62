//! Cross-crate integration tests: full QLEC runs against baselines on
//! seeded deployments, asserting the paper's qualitative claims and the
//! simulator's global invariants.

use qlec::clustering::deec::DeecProtocol;
use qlec::clustering::leach::LeachProtocol;
use qlec::clustering::{FcmProtocol, KMeansProtocol};
use qlec::core::QlecProtocol;
use qlec::net::trace::TraceRecorder;
use qlec::net::{Network, NetworkBuilder, Protocol, SimConfig, SimReport, Simulator};
use qlec::obs::{read_events, Event, JsonLinesSink, ObserverSet};
use qlec::radio::link::{AnyLink, DistanceLossLink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::sync::{Arc, Mutex};

fn paper_network(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    NetworkBuilder::new()
        .link(AnyLink::DistanceLoss(DistanceLossLink::for_cube(200.0)))
        .uniform_cube(&mut rng, 100, 200.0, 5.0)
}

fn run(protocol: &mut dyn Protocol, net: Network, cfg: SimConfig, seed: u64) -> SimReport {
    let mut rng = StdRng::seed_from_u64(seed);
    Simulator::builder(net)
        .config(cfg)
        .build()
        .run(protocol, &mut rng)
}

/// Every protocol, same deployment: conservation and sane metric ranges.
#[test]
fn all_protocols_conserve_packets_and_energy() {
    let cfg = {
        let mut c = SimConfig::paper(4.0);
        c.rounds = 6;
        c
    };
    let protocols: Vec<Box<dyn Protocol>> = vec![
        Box::new(QlecProtocol::builder().k(5).build()),
        Box::new(FcmProtocol::new(5)),
        Box::new(KMeansProtocol::new(5)),
        Box::new(LeachProtocol::new(5)),
        Box::new(DeecProtocol::new(5, 6)),
    ];
    for mut p in protocols {
        let net = paper_network(1);
        let initial_total = net.total_initial();
        let report = run(p.as_mut(), net, cfg, 2);
        let name = report.protocol.clone();
        assert!(report.totals.is_conserved(), "{name}: {:?}", report.totals);
        assert!((0.0..=1.0).contains(&report.pdr()), "{name}");
        assert!(report.total_energy() > 0.0, "{name}");
        assert!(report.total_energy() <= initial_total, "{name}");
        // The per-round breakdown accounts for all consumed energy.
        let b = report.energy_breakdown();
        assert!(
            (b.total() - report.total_energy()).abs() < 1e-6,
            "{name}: breakdown {} vs total {}",
            b.total(),
            report.total_energy()
        );
        assert!(report.totals.delivered > 0, "{name}");
    }
}

/// Identical seeds ⇒ identical reports (full determinism across the
/// stack: deployment, election, traffic, links, routing).
#[test]
fn runs_are_deterministic_under_fixed_seeds() {
    let mk = || {
        let mut p = QlecProtocol::builder().k(5).build();
        let mut cfg = SimConfig::paper(3.0);
        cfg.rounds = 5;
        run(&mut p, paper_network(7), cfg, 8)
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.totals.generated, b.totals.generated);
    assert_eq!(a.totals.delivered, b.totals.delivered);
    assert_eq!(a.total_energy(), b.total_energy());
    assert_eq!(a.consumption_rates, b.consumption_rates);
    // And a different seed genuinely changes the run.
    let mut p = QlecProtocol::builder().k(5).build();
    let mut cfg = SimConfig::paper(3.0);
    cfg.rounds = 5;
    let c = run(&mut p, paper_network(7), cfg, 9);
    assert_ne!(a.totals.delivered, c.totals.delivered);
}

/// The paper's headline (title!) claim: QLEC prolongs network lifespan.
/// Under the death-line rule QLEC must outlive k-means and LEACH on a
/// moderately loaded network.
#[test]
fn qlec_outlives_kmeans_and_leach() {
    let cfg = {
        let mut c = SimConfig::paper(5.0);
        c.rounds = 200;
        c.death_line = 3.5;
        c.stop_when_dead = true;
        c
    };
    let avg_life = |mk: &dyn Fn() -> Box<dyn Protocol>| -> f64 {
        let seeds = [21u64, 22, 23];
        seeds
            .iter()
            .map(|&s| {
                let mut p = mk();
                run(p.as_mut(), paper_network(s), cfg, s ^ 0xFF).lifespan_rounds() as f64
            })
            .sum::<f64>()
            / seeds.len() as f64
    };
    let qlec = avg_life(&|| Box::new(QlecProtocol::builder().k(5).total_rounds(200).build()));
    let kmeans = avg_life(&|| Box::new(KMeansProtocol::new(5)));
    let leach = avg_life(&|| Box::new(LeachProtocol::new(5)));
    assert!(
        qlec > kmeans,
        "QLEC lifespan {qlec} must exceed k-means {kmeans}"
    );
    assert!(
        qlec > leach,
        "QLEC lifespan {qlec} must exceed LEACH {leach}"
    );
}

/// §5.2's congested-regime claim: QLEC retains the highest delivery rate
/// when the network is saturated, and the FCM baseline's multi-hop
/// routing makes it clearly worst.
#[test]
fn qlec_has_best_pdr_under_saturation() {
    let cfg = {
        let mut c = SimConfig::paper(1.0);
        c.rounds = 10;
        c
    };
    // Under saturation every single-hop protocol sits near the same
    // capacity ceiling, so per-seed PDR differences are noise-dominated;
    // average enough seeds that QLEC's real (small) edge is resolvable.
    let avg_pdr = |mk: &dyn Fn() -> Box<dyn Protocol>| -> f64 {
        let seeds = [31u64, 32, 33, 34, 35, 36];
        seeds
            .iter()
            .map(|&s| {
                let mut p = mk();
                run(p.as_mut(), paper_network(s), cfg, s ^ 0xAA).pdr()
            })
            .sum::<f64>()
            / seeds.len() as f64
    };
    let qlec = avg_pdr(&|| Box::new(QlecProtocol::builder().k(5).build()));
    let kmeans = avg_pdr(&|| Box::new(KMeansProtocol::new(5)));
    let fcm = avg_pdr(&|| Box::new(FcmProtocol::new(5)));
    assert!(
        qlec > kmeans,
        "saturated: QLEC PDR {qlec} must beat k-means {kmeans}"
    );
    assert!(
        qlec > fcm + 0.05,
        "saturated: QLEC PDR {qlec} must beat multi-hop FCM {fcm} clearly"
    );
}

/// Energy-aware protocols balance consumption: QLEC's per-node
/// consumption-rate spread must be tighter than LEACH's (which is
/// energy-blind by construction).
#[test]
fn qlec_balances_consumption_better_than_leach() {
    let cfg = {
        let mut c = SimConfig::paper(5.0);
        c.rounds = 20;
        c
    };
    let cv = |mk: &dyn Fn() -> Box<dyn Protocol>| -> f64 {
        let mut p = mk();
        let report = run(p.as_mut(), paper_network(41), cfg, 42);
        let s = qlec::geom::stats::Summary::of(&report.consumption_rates).unwrap();
        s.coeff_of_variation().unwrap()
    };
    let qlec = cv(&|| Box::new(QlecProtocol::builder().k(5).build()));
    let leach = cv(&|| Box::new(LeachProtocol::new(5)));
    assert!(
        qlec < leach,
        "QLEC consumption-rate CV {qlec} should be below LEACH's {leach}"
    );
}

/// Lifespan milestones are ordered and consistent with the horizon.
#[test]
fn lifespan_milestones_are_ordered() {
    let cfg = {
        let mut c = SimConfig::paper(1.0);
        c.rounds = 400;
        c.death_line = 0.5;
        c
    };
    let mut p = KMeansProtocol::new(5);
    let report = run(&mut p, paper_network(51), cfg, 52);
    let l = report.lifespan;
    if let (Some(first), Some(line)) = (l.first_node_dead, l.death_line_round) {
        assert!(
            line <= first,
            "death line (0.5 J) crossed at or before full depletion"
        );
    }
    if let (Some(first), Some(half)) = (l.first_node_dead, l.half_nodes_dead) {
        assert!(first <= half);
    }
    if let (Some(half), Some(last)) = (l.half_nodes_dead, l.last_node_dead) {
        assert!(half <= last);
    }
}

/// Dead networks degrade gracefully: a run that kills many nodes keeps
/// conserving packets and never produces NaN metrics.
#[test]
fn graceful_degradation_when_nodes_die() {
    let mut net = paper_network(61);
    // Leave most nodes nearly dead so they expire mid-run.
    for i in 0..90u32 {
        net.node_mut(qlec::net::NodeId(i)).battery.consume(4.97);
    }
    let cfg = {
        let mut c = SimConfig::paper(2.0);
        c.rounds = 30;
        c
    };
    let mut p = QlecProtocol::builder().k(5).build();
    let report = run(&mut p, net, cfg, 62);
    assert!(report.totals.is_conserved());
    assert!(report.pdr().is_finite());
    assert!(report.total_energy().is_finite());
    for r in &report.rounds {
        assert!(r.min_residual.is_finite());
    }
}

/// The `choose_target` fallback: [`TraceRecorder`] hides QLEC's route
/// planner, so the engine resolves every packet sequentially. The
/// threads knob must still leave the deterministic event stream and the
/// report byte-identical (saturated λ = 1 forces merge retargets).
#[test]
fn fallback_path_is_thread_invariant() {
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let observed = |threads: usize| -> (String, String) {
        let buf = SharedBuf::default();
        let mut obs = ObserverSet::new();
        let sink = JsonLinesSink::new(buf.clone())
            .expect("sink")
            .deterministic();
        obs.attach(Arc::new(Mutex::new(sink)));
        let mut cfg = SimConfig::paper(1.0);
        cfg.rounds = 5;
        cfg.threads = threads;
        let mut p = TraceRecorder::new(QlecProtocol::builder().k(5).observer(obs.clone()).build());
        let mut rng = StdRng::seed_from_u64(17);
        let report = Simulator::builder(paper_network(17))
            .config(cfg)
            .observers(obs.clone())
            .build()
            .run(&mut p, &mut rng);
        obs.flush().expect("flush");
        let stream = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf8 stream");
        (stream, qlec_corpus::report_fingerprint(&report))
    };
    let (base_stream, base_report) = observed(1);
    let packets = read_events(&base_stream)
        .expect("stream parses")
        .iter()
        .filter(|e| matches!(e, Event::PacketOutcome { .. }))
        .count();
    assert!(packets > 100, "baseline must carry real traffic: {packets}");
    for threads in [2, 4] {
        let (stream, report) = observed(threads);
        assert!(
            stream == base_stream,
            "events diverged at threads = {threads}"
        );
        assert_eq!(
            report, base_report,
            "report diverged at threads = {threads}"
        );
    }
}
