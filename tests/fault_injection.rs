//! End-to-end fault injection: scheduled faults observed through the
//! whole stack (plan → driver → simulator → event stream). Pins the two
//! headline guarantees of `qlec-fault`: a crashed node is silent forever
//! after its crash round, and fault schedules are fully deterministic —
//! the same plan and seed produce byte-identical event streams.

use qlec::core::QlecProtocol;
use qlec::net::protocol::DirectToBsProtocol;
use qlec::net::{
    FaultDriver, FaultEvent, FaultPlan, Network, NetworkBuilder, SimConfig, Simulator,
};
use qlec::obs::{read_events, Event, JsonLinesSink, ObserverSet};
use qlec::radio::link::{AnyLink, DistanceLossLink, IdealLink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

fn net(seed: u64, n: usize, link: AnyLink) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    NetworkBuilder::new()
        .link(link)
        .uniform_cube(&mut rng, n, 200.0, 5.0)
}

fn cfg(rounds: u32, lambda: f64) -> SimConfig {
    let mut c = SimConfig::paper(lambda);
    c.rounds = rounds;
    c
}

/// Run a faulted QLEC simulation and hand back the parsed event stream.
fn run_observed(plan: FaultPlan, seed: u64, rounds: u32) -> Vec<Event> {
    let json_sink = Arc::new(Mutex::new(JsonLinesSink::new(Vec::new()).unwrap()));
    let mut obs = ObserverSet::new();
    obs.attach(json_sink.clone());
    let mut protocol = QlecProtocol::builder()
        .k(4)
        .total_rounds(rounds)
        .observer(obs.clone())
        .build();
    let mut rng = StdRng::seed_from_u64(seed);
    Simulator::builder(net(seed, 40, AnyLink::Ideal(IdealLink)))
        .config(cfg(rounds, 4.0))
        .observers(obs.clone())
        .faults(FaultDriver::new(plan).unwrap())
        .build()
        .run(&mut protocol, &mut rng);
    obs.flush().unwrap();
    drop(protocol);
    drop(obs);
    let sink = Arc::try_unwrap(json_sink)
        .unwrap_or_else(|_| panic!("json sink still shared"))
        .into_inner()
        .unwrap();
    let text = String::from_utf8(sink.finish().unwrap()).unwrap();
    read_events(&text).expect("faulted stream parses")
}

/// After its crash round a node must never appear again as a packet
/// source, a retry source, or an elected head — and its residual energy
/// must be frozen at the pre-crash level for the rest of the run.
#[test]
fn crashed_node_is_silent_after_its_crash_round() {
    let victim = 9u32;
    let crash_round = 3u32;
    let rounds = 8u32;
    let plan = FaultPlan::named(
        "crash-one",
        vec![FaultEvent::NodeCrash {
            round: crash_round,
            node: victim,
        }],
    );
    let events = run_observed(plan, 0xF00D, rounds);

    // The crash itself was announced, exactly once, at the right round.
    let crashes: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::FaultInjected { round, kind, nodes } if kind == "node-crash" => {
                Some((*round, nodes.clone()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(crashes, vec![(crash_round, vec![victim])]);

    // From the crash round on, the victim originates nothing and is
    // never elected head.
    for e in &events {
        match e {
            Event::PacketOutcome { round, src, .. } if *round >= crash_round => {
                assert_ne!(
                    *src, victim,
                    "crashed node sourced a packet in round {round}"
                );
            }
            Event::PacketRetried { round, src, .. } if *round >= crash_round => {
                assert_ne!(*src, victim, "crashed node retried in round {round}");
            }
            Event::HeadElected { round, node, .. } if *round >= crash_round => {
                assert_ne!(*node, victim, "crashed node elected head in round {round}");
            }
            _ => {}
        }
    }

    // Its battery is frozen: residuals after the crash never change.
    let residuals: Vec<(u32, f64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::RoundEnded {
                round, residuals_j, ..
            } => Some((*round, residuals_j[victim as usize])),
            _ => None,
        })
        .collect();
    assert_eq!(residuals.len(), rounds as usize);
    let frozen = residuals
        .iter()
        .find(|(r, _)| *r == crash_round)
        .map(|(_, j)| *j)
        .unwrap();
    for (r, j) in &residuals {
        if *r >= crash_round {
            assert_eq!(*j, frozen, "residual moved after crash (round {r})");
        }
    }
    // … and before the crash it was actually spending energy, so the
    // freeze is not vacuous.
    assert!(residuals[0].1 > frozen || residuals[0].1 < 5.0);
}

/// Same plan + same seed ⇒ byte-identical deterministic event streams,
/// even with every fault kind in play.
#[test]
fn same_plan_and_seed_streams_are_byte_identical() {
    let plan = || {
        FaultPlan::named(
            "everything",
            vec![
                FaultEvent::NodeCrash { round: 2, node: 5 },
                FaultEvent::BatteryDrain {
                    round: 1,
                    node: 11,
                    joules: 0.8,
                },
                FaultEvent::LinkDegrade {
                    from_round: 1,
                    to_round: 4,
                    a: qlec::fault::LinkEnd::Node(3),
                    b: qlec::fault::LinkEnd::Bs,
                    loss_multiplier: 8.0,
                },
                FaultEvent::RegionBlackout {
                    from_round: 3,
                    to_round: 4,
                    region: qlec::geom::Aabb::new(
                        qlec::geom::Vec3::new(0.0, 0.0, 0.0),
                        qlec::geom::Vec3::new(100.0, 100.0, 100.0),
                    ),
                },
                FaultEvent::BsOutage {
                    from_round: 5,
                    to_round: 5,
                },
            ],
        )
    };
    let stream = |p: FaultPlan| -> Vec<u8> {
        let sink = Arc::new(Mutex::new(JsonLinesSink::new(Vec::new()).unwrap()));
        let mut obs = ObserverSet::new();
        obs.attach(sink.clone());
        let mut protocol = QlecProtocol::builder()
            .k(4)
            .total_rounds(6)
            .observer(obs.clone())
            .build();
        let mut rng = StdRng::seed_from_u64(77);
        let link = AnyLink::DistanceLoss(DistanceLossLink::for_cube(200.0));
        Simulator::builder(net(7, 40, link))
            .config(cfg(6, 4.0))
            .observers(obs.clone())
            .faults(FaultDriver::new(p).unwrap())
            .build()
            .run(&mut protocol, &mut rng);
        obs.flush().unwrap();
        drop(protocol);
        drop(obs);
        Arc::try_unwrap(sink)
            .unwrap_or_else(|_| panic!("sink still shared"))
            .into_inner()
            .unwrap()
            .finish()
            .unwrap()
    };
    let a = stream(plan());
    let b = stream(plan());
    assert!(!a.is_empty());
    assert_eq!(a, b, "deterministic streams must be byte-identical");

    // Sanity: the stream actually contains fault activity.
    let text = String::from_utf8(a).unwrap();
    let events = read_events(&text).unwrap();
    let kinds: Vec<String> = events
        .iter()
        .filter_map(|e| match e {
            Event::FaultInjected { kind, .. } => Some(kind.clone()),
            _ => None,
        })
        .collect();
    for expect in [
        "battery-drain",
        "link-degrade",
        "node-crash",
        "region-blackout",
        "bs-outage",
    ] {
        assert!(kinds.iter().any(|k| k == expect), "missing {expect}");
    }
}

/// A full-run base-station outage delivers *nothing*: the run has no
/// delivered packet to take a latency from, so `mean_latency()` must be
/// `None` — never a fake `0.0` — while conservation still closes (every
/// generated packet drops somewhere). This is the ground truth behind
/// the CLI's `n/a (nothing delivered)` rendering and the bench
/// harness's JSON `null` latency cell.
#[test]
fn full_blackout_run_reports_no_latency_not_zero() {
    let rounds = 4u32;
    let plan = FaultPlan::named(
        "total-blackout",
        vec![FaultEvent::BsOutage {
            from_round: 0,
            to_round: rounds - 1,
        }],
    );
    let mut protocol = QlecProtocol::builder().k(4).total_rounds(rounds).build();
    let mut rng = StdRng::seed_from_u64(0xB1AC);
    let report = Simulator::builder(net(0xB1AC, 40, AnyLink::Ideal(IdealLink)))
        .config(cfg(rounds, 3.0))
        .faults(FaultDriver::new(plan).unwrap())
        .build()
        .run(&mut protocol, &mut rng);

    assert!(report.totals.generated > 0, "traffic was still generated");
    assert_eq!(
        report.totals.delivered, 0,
        "blackout must block every delivery"
    );
    assert!(report.totals.is_conserved(), "{:?}", report.totals);
    assert_eq!(
        report.mean_latency(),
        None,
        "zero deliveries must report no latency, not 0.0"
    );
    assert_eq!(report.pdr(), 0.0);
}

/// A base-station outage window suppresses all deliveries for exactly its
/// duration; traffic resumes untouched afterwards.
#[test]
fn bs_outage_window_is_exact() {
    let plan = FaultPlan::named(
        "bs-down",
        vec![FaultEvent::BsOutage {
            from_round: 1,
            to_round: 2,
        }],
    );
    let mut protocol = DirectToBsProtocol;
    let mut rng = StdRng::seed_from_u64(5);
    let report = Simulator::builder(net(5, 25, AnyLink::Ideal(IdealLink)))
        .config(cfg(4, 3.0))
        .faults(FaultDriver::new(plan).unwrap())
        .build()
        .run(&mut protocol, &mut rng);
    for r in &report.rounds {
        let in_window = (1..=2).contains(&r.round);
        if in_window {
            assert_eq!(r.packets.delivered, 0, "round {} delivered", r.round);
        } else {
            assert!(r.packets.delivered > 0, "round {} silent", r.round);
        }
        assert!(r.packets.is_conserved(), "round {}", r.round);
    }
    assert!(report.totals.is_conserved());
}
