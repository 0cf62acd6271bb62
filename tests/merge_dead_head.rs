//! The merge's dead-head branch, end to end.
//!
//! A planned hop onto a head that ran dry earlier in the merge is a
//! link drop and a `conflict_dead_head`, and the packet retargets
//! against the live network with the master RNG. No benchmark workload
//! reaches that branch — QLEC elects the nodes with the most energy
//! left, so a head dies mid-round only when nearly every node is nearly
//! empty. This case builds exactly that network on 60 nodes and checks
//! that the branch runs and that its bytes do not depend on the thread
//! count.

use qlec::core::QlecProtocol;
use qlec::net::{
    FaultDriver, FaultEvent, FaultPlan, MergeOutcome, NetworkBuilder, SimConfig, Simulator,
};
use qlec::obs::{JsonLinesSink, ObserverSet};
use qlec::radio::link::{AnyLink, DistanceLossLink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A `Write` target the test can read back after the `ObserverSet`
/// clones holding the sink are gone.
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

/// One observed run of 60 nodes on 1 J batteries under `plan`: the
/// deterministic JSON-lines event stream, the serialized report (minus
/// the resolved `threads` field, the one value that legitimately tracks
/// the knob under test), and the whole-run merge outcome.
fn run_once(threads: usize, plan: &FaultPlan) -> (String, String, MergeOutcome) {
    let (n, k, rounds) = (60, 4, 4);
    let mut rng = StdRng::seed_from_u64(11);
    let net = NetworkBuilder::new()
        .link(AnyLink::DistanceLoss(DistanceLossLink::for_cube(200.0)))
        .uniform_cube(&mut rng, n, 200.0, 1.0);
    let buf = SharedBuf::default();
    let sink = JsonLinesSink::new(buf.clone())
        .expect("in-memory sink")
        .deterministic();
    let mut obs = ObserverSet::new();
    obs.attach(Arc::new(Mutex::new(sink)));
    let mut cfg = SimConfig::paper(5.0);
    cfg.rounds = rounds;
    cfg.threads = threads;
    let mut protocol = QlecProtocol::builder()
        .k(k)
        .total_rounds(rounds)
        .observer(obs.clone())
        .build();
    let (report, outcome) = Simulator::builder(net)
        .config(cfg)
        .observers(obs.clone())
        .faults(FaultDriver::new(plan.clone()).expect("plan validates"))
        .build()
        .run_with_outcome(&mut protocol, &mut rng);
    obs.flush().expect("sink flush");
    let stream = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf8 stream");
    let mut value = serde_json::to_value(&report).expect("report serializes");
    if let serde::Value::Object(fields) = &mut value {
        fields.retain(|(k, _)| k != "threads");
    }
    let report_json = serde_json::to_string(&value).expect("report serializes");
    (stream, report_json, outcome)
}

/// A fault plan that drains every node to a sliver must produce
/// mid-round head deaths — packets planned against a head that is gone
/// by reception time — and the run must be byte-identical at threads 1
/// and 2.
#[test]
fn mid_round_head_kills_take_the_dead_head_path() {
    // 1 J batteries, drained to ~30 mJ minus round-1 spend at round 2:
    // a head elected after the drain can pay for only a few hundred
    // receptions (rx = 0.1 mJ) plus its own forwarding before dying
    // mid-round, while λ = 5 traffic from ~15 members offers it more.
    let drains = (0..60)
        .map(|node| FaultEvent::BatteryDrain {
            round: 2,
            node,
            joules: 0.97,
        })
        .collect();
    let plan = FaultPlan::named("drain-everyone", drains);
    let (base_stream, base_report, base_outcome) = run_once(1, &plan);
    assert!(
        base_outcome.conflict_dead_head() > 0,
        "the drain plan must produce mid-round head deaths ({base_outcome:?})"
    );
    assert_eq!(base_outcome.check_invariants(), Vec::<String>::new());
    let (stream, report, outcome) = run_once(2, &plan);
    assert!(
        stream == base_stream,
        "event stream diverged at threads = 2"
    );
    assert_eq!(report, base_report, "report diverged at threads = 2");
    assert_eq!(
        outcome, base_outcome,
        "merge outcome diverged at threads = 2"
    );
}
