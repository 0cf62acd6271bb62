//! End-to-end observability: a 100-node QLEC run streamed through the
//! JSON-lines sink must replay to exactly the curves the [`SimReport`]
//! holds — same alive curve, same packet counters, same latency. This
//! pins the guarantee that the event stream is a faithful record of the
//! run, not a parallel approximation.

use qlec::core::QlecProtocol;
use qlec::net::{NetworkBuilder, SimConfig, Simulator};
use qlec::obs::{read_events, Event, JsonLinesSink, MemorySink, ObserverSet, Phase, PhaseProfiler};
use qlec::radio::link::{AnyLink, DistanceLossLink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

#[test]
fn event_stream_replays_the_simulation_report() {
    let (n, m, rounds) = (100, 200.0, 30);
    let mut rng = StdRng::seed_from_u64(42);
    let net = NetworkBuilder::new()
        .link(AnyLink::DistanceLoss(DistanceLossLink::for_cube(m)))
        // Low initial energy so some nodes die and the alive curve moves.
        .uniform_cube(&mut rng, n, m, 0.4);
    let mut cfg = SimConfig::paper(5.0);
    cfg.rounds = rounds;

    let json_sink = Arc::new(Mutex::new(JsonLinesSink::new(Vec::new()).unwrap()));
    let memory_sink = Arc::new(Mutex::new(MemorySink::new()));
    let profiler = Arc::new(PhaseProfiler::new());
    let mut obs = ObserverSet::new().with_profiler(profiler.clone());
    obs.attach(json_sink.clone());
    obs.attach(memory_sink.clone());

    let mut protocol = QlecProtocol::builder()
        .k(5)
        .total_rounds(rounds)
        .observer(obs.clone())
        .build();
    let report = Simulator::builder(net)
        .config(cfg)
        .observers(obs.clone())
        .build()
        .run(&mut protocol, &mut rng);
    obs.flush().unwrap();

    // Recover the JSON-lines buffer (all other Arc clones must go first).
    drop(protocol);
    drop(obs);
    let sink = Arc::try_unwrap(json_sink)
        .unwrap_or_else(|_| panic!("json sink still shared"))
        .into_inner()
        .unwrap();
    let text = String::from_utf8(sink.finish().unwrap()).unwrap();
    let events = read_events(&text).expect("stream parses against qlec-obs/v3");

    // The alive curve rebuilt from RoundEnded events is the report's.
    let replayed_alive: Vec<(u32, usize)> = events
        .iter()
        .filter_map(|e| match e {
            Event::RoundEnded { round, alive, .. } => Some((*round, *alive)),
            _ => None,
        })
        .collect();
    let reported_alive: Vec<(u32, usize)> = report
        .rounds
        .iter()
        .map(|r| (r.round, r.alive_end))
        .collect();
    assert_eq!(replayed_alive, reported_alive);
    assert!(
        replayed_alive.last().unwrap().1 < n,
        "scenario should kill some nodes so the curve is non-trivial"
    );

    // Same for the head counts and the per-round energy.
    for (e, r) in events
        .iter()
        .filter(|e| matches!(e, Event::RoundEnded { .. }))
        .zip(&report.rounds)
    {
        if let Event::RoundEnded {
            heads,
            energy_j,
            residuals_j,
            ..
        } = e
        {
            assert_eq!(heads.len(), r.head_count);
            assert!((energy_j - r.energy_consumed).abs() < 1e-9);
            assert_eq!(residuals_j.len(), n);
        }
    }

    // The aggregating sink's counters mirror the report's totals exactly:
    // both are driven from the same emission sites.
    let mem = memory_sink.lock().unwrap();
    let reg = mem.registry();
    let t = &report.totals;
    assert_eq!(reg.counter("packets.generated"), t.generated);
    assert_eq!(reg.counter("packets.delivered"), t.delivered);
    assert_eq!(reg.counter("packets.dropped.link"), t.dropped_link);
    assert_eq!(
        reg.counter("packets.dropped.queue_full"),
        t.dropped_queue_full
    );
    assert_eq!(reg.counter("packets.dropped.deadline"), t.dropped_deadline);
    assert_eq!(
        reg.counter("packets.dropped.aggregate"),
        t.dropped_aggregate
    );
    assert_eq!(reg.counter("packets.dropped.dead"), t.dropped_dead);
    assert!((mem.pdr() - report.pdr()).abs() < 1e-12);

    // Latency distribution: same sample count and the same mean.
    let lat = reg
        .histogram("latency.slots")
        .expect("delivered packets exist");
    assert_eq!(lat.count(), t.delivered);
    let mean = report.mean_latency().unwrap();
    assert!(
        (lat.mean().unwrap() - mean).abs() < 1e-9,
        "sink mean {} vs report mean {mean}",
        lat.mean().unwrap()
    );

    // Deaths in the stream equal the drop in the alive curve.
    let died = events
        .iter()
        .filter(|e| matches!(e, Event::NodeDied { .. }))
        .count();
    assert_eq!(died, n - replayed_alive.last().unwrap().1);

    // The phase tree adds up. This QLEC run goes through every phase.
    let profile = profiler.report();
    for phase in Phase::ALL {
        assert!(
            profile.wall_ns(phase) > 0,
            "{} was never timed",
            phase.path()
        );
    }
    // A nested span runs inside its parent's (the path prefix), so a
    // child's wall never exceeds its parent's.
    for child in Phase::ALL {
        if let Some((parent_path, _)) = child.path().rsplit_once('/') {
            let parent = Phase::ALL
                .into_iter()
                .find(|p| p.path() == parent_path)
                .expect("every nested phase has a parent phase");
            assert!(
                profile.wall_ns(child) <= profile.wall_ns(parent),
                "{} wall {} exceeds {} wall {}",
                child.path(),
                profile.wall_ns(child),
                parent_path,
                profile.wall_ns(parent)
            );
        }
    }
    // The top-level phases are disjoint slices of each round.
    let top_level: u64 = [
        Phase::Election,
        Phase::Traffic,
        Phase::Transmission,
        Phase::Aggregation,
    ]
    .into_iter()
    .map(|p| profile.wall_ns(p))
    .sum();
    assert!(
        top_level <= profile.total_wall_ns,
        "top-level phases sum to {top_level} ns, more than the {} ns of the rounds",
        profile.total_wall_ns
    );
    let rounds_started = events
        .iter()
        .filter(|e| matches!(e, Event::RoundStarted { .. }))
        .count();
    assert_eq!(rounds_started, report.rounds.len());
}
