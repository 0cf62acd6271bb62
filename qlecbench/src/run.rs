//! One benchmark operation: set a workload up, run it, and digest its
//! output for the golden check.
//!
//! Set-up mirrors `qlec-sim run --spec` step for step (the CLI replay
//! test pins that): the protocol comes from
//! `qlec_cli::commands::build_spec_protocol`, the network from the same
//! `NetworkBuilder` link and energy settings, and the simulator from
//! `Simulator::builder`. The run is the call to
//! `Simulator::run_with_outcome` plus, on observed workloads, the flush
//! of the event sink.

use crate::probe::{cpu_seconds, HashWriter, StreamDigest};
use crate::timed::{LayerTimes, Timed};
use qlec_cli::commands::build_spec_protocol;
use qlec_cli::spec::SimSpec;
use qlec_corpus::{fnv1a64, report_fingerprint};
use qlec_net::{
    FaultDriver, MergeOutcome, NetworkBuilder, Protocol, SimConfig, SimReport, Simulator,
};
use qlec_obs::{JsonLinesSink, MeasuredSink, ObserverSet};
use qlec_radio::link::{AnyLink, DistanceLossLink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a run produced, as the golden check compares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// FNV-1a of the threads-stripped report JSON.
    pub report: u64,
    /// FNV-1a and line count of the deterministic event stream, on
    /// observed runs.
    pub events: Option<(u64, u64)>,
}

/// How to run a spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Stream every event through the JSON-lines sink into the hashing
    /// writer, on the engine's thread.
    pub observed: bool,
    /// Wrap the protocol in [`Timed`] and the sink in [`MeasuredSink`].
    pub traced: bool,
}

enum Proto {
    Plain(Box<dyn Protocol>),
    Timed(Timed),
}

type EventSink = JsonLinesSink<HashWriter>;

enum Sink {
    Plain,
    Measured(Arc<Mutex<MeasuredSink<EventSink>>>),
}

/// A set-up run, ready to go.
pub struct Prepared {
    sim: Simulator,
    protocol: Proto,
    rng: StdRng,
    obs: ObserverSet,
    sink: Option<(Sink, Arc<Mutex<StreamDigest>>)>,
    /// Wall seconds the set-up took.
    pub setup_s: f64,
}

/// Sink counters of an observed run.
#[derive(Debug, Clone, Copy)]
pub struct SinkCounters {
    /// Events handed to the sink (traced runs only; 0 otherwise).
    pub events: u64,
    /// Hot-thread ns inside the sink's `on_event` (traced runs only).
    pub hot_ns: u64,
    /// The event stream as the hashing writer saw it.
    pub stream: StreamDigest,
}

/// A finished run.
pub struct RunOutput {
    /// The report.
    pub report: SimReport,
    /// Whole-run merge totals.
    pub outcome: MergeOutcome,
    /// Wall seconds from the call to `run_with_outcome` until the report
    /// is back and the sink is flushed.
    pub run_s: f64,
    /// Process CPU seconds, all threads, over the same interval.
    pub cpu_s: f64,
    /// Wall seconds from the report's return to the flushed sink.
    pub flush_s: f64,
    /// Hook totals, on traced runs.
    pub layers: Option<LayerTimes>,
    /// Sink counters, on observed runs.
    pub sink: Option<SinkCounters>,
}

impl RunOutput {
    /// The output digest the golden check compares.
    pub fn digest(&self) -> Digest {
        Digest {
            report: fnv1a64(report_fingerprint(&self.report).as_bytes()),
            events: self.sink.map(|s| (s.stream.fnv, s.stream.lines)),
        }
    }
}

/// Set `spec` up for one run in `mode`.
pub fn prepare(spec: &SimSpec, mode: Mode) -> Result<Prepared, String> {
    spec.validate()?;
    let t0 = Instant::now();
    let mut obs = ObserverSet::new();
    let sink = if mode.observed {
        let stream = Arc::new(Mutex::new(StreamDigest::default()));
        let json = JsonLinesSink::new(HashWriter::new(stream.clone()))
            .map_err(|e| format!("event sink: {e}"))?
            .deterministic();
        let sink = if mode.traced {
            let s = Arc::new(Mutex::new(MeasuredSink::new(json)));
            obs.attach(s.clone());
            Sink::Measured(s)
        } else {
            obs.attach(Arc::new(Mutex::new(json)));
            Sink::Plain
        };
        Some((sink, stream))
    } else {
        None
    };
    let inner = build_spec_protocol(spec, &obs)?;
    let protocol = if mode.traced {
        Proto::Timed(Timed::new(inner))
    } else {
        Proto::Plain(inner)
    };
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let net = NetworkBuilder::new()
        .link(AnyLink::DistanceLoss(DistanceLossLink::for_cube(spec.m)))
        .uniform_cube(&mut rng, spec.n, spec.m, spec.energy);
    let mut cfg = SimConfig::paper(spec.lambda);
    cfg.rounds = spec.rounds;
    cfg.death_line = spec.death_line;
    cfg.stop_when_dead = spec.death_line > 0.0;
    cfg.threads = spec.threads;
    let mut sim = Simulator::builder(net).config(cfg).observers(obs.clone());
    if let Some(plan) = &spec.faults {
        sim = sim.faults(FaultDriver::new(plan.clone())?);
    }
    let sim = sim.build();
    Ok(Prepared {
        sim,
        protocol,
        rng,
        obs,
        sink,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

impl Prepared {
    /// Run to the end and flush the sink.
    pub fn run(self) -> Result<RunOutput, String> {
        let Prepared {
            sim,
            mut protocol,
            mut rng,
            obs,
            sink,
            ..
        } = self;
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let (report, outcome) = match &mut protocol {
            Proto::Plain(p) => sim.run_with_outcome(p.as_mut(), &mut rng),
            Proto::Timed(t) => sim.run_with_outcome(t, &mut rng),
        };
        let returned = Instant::now();
        obs.flush().map_err(|e| format!("event sink: {e}"))?;
        let end = Instant::now();
        let cpu_s = cpu_seconds() - cpu0;
        let layers = match &protocol {
            Proto::Plain(_) => None,
            Proto::Timed(t) => Some(t.layers()),
        };
        let sink = sink.map(|(sink, stream)| {
            let (events, hot_ns) = match &sink {
                Sink::Plain => (0, 0),
                Sink::Measured(s) => {
                    let s = s.lock().expect("sink lock");
                    (s.events(), s.hot_ns())
                }
            };
            SinkCounters {
                events,
                hot_ns,
                stream: *stream.lock().expect("stream digest lock"),
            }
        });
        Ok(RunOutput {
            report,
            outcome,
            run_s: end.duration_since(t0).as_secs_f64(),
            cpu_s,
            flush_s: end.duration_since(returned).as_secs_f64(),
            layers,
            sink,
        })
    }
}
