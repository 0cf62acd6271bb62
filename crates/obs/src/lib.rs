//! Structured observability for the QLEC reproduction.
//!
//! This crate sits *below* `qlec-net` and `qlec-core` in the dependency
//! graph and gives them one shared vocabulary for what happens during a
//! simulation:
//!
//! * **Events** ([`Event`]) — typed records of round lifecycle, head
//!   election/withdrawal, per-packet fates, Q-value updates, node
//!   deaths, faults, and retries. No event carries wall-clock time.
//! * **The bus** ([`SimObserver`], [`ObserverSet`]) — fan-out from the
//!   simulator/protocols to any number of sinks, with zero cost when no
//!   sink is attached (emission sites guard on [`ObserverSet::is_active`]
//!   and never construct an event otherwise).
//! * **Metrics** ([`Registry`], [`Histogram`]) — named counters, gauges,
//!   and log₂-bucketed histograms.
//! * **Spans** ([`Phase`], [`ObserverSet::span_start`]) — wall-clock
//!   phase timings, read from the attached profiler's [`Clock`] and
//!   recorded into that profiler alone.
//! * **Sinks** — [`JsonLinesSink`] (versioned JSON-lines streams, see
//!   [`SCHEMA`]), [`AsyncJsonLinesSink`] (the same stream produced on a
//!   dedicated writer thread behind a bounded queue), and
//!   [`MemorySink`] (in-run aggregation + summary table).
//! * **Profiling** ([`PhaseProfiler`], [`ProfileReport`]) — per-phase,
//!   per-worker-slot busy/wall accounting with round-latency quantiles,
//!   collected out-of-band from the event stream, so profiling never
//!   changes the stream's bytes.
//!
//! The event schema and metric-name vocabulary are documented in this
//! crate's `README.md`.

#![forbid(unsafe_code)]

mod async_sink;
mod clock;
mod error;
mod event;
mod json_sink;
mod memory_sink;
mod observer;
mod procinfo;
mod profiler;
mod registry;

pub use async_sink::{
    AsyncJsonLinesSink, Backpressure, SinkStats, BATCH_EVENTS, DEFAULT_QUEUE_CAPACITY,
};
pub use clock::{Clock, ManualClock, WallClock};
pub use error::ObsError;
pub use event::{Event, PacketFate, SCHEMA};
pub use json_sink::{read_events, EventsMode, JsonLinesSink};
pub use memory_sink::MemorySink;
pub use observer::{MeasuredSink, ObserverSet, SimObserver, SpanToken};
pub use procinfo::peak_rss_bytes;
pub use profiler::{
    CounterRow, Phase, PhaseProfiler, PhaseRow, ProfileReport, RoundLatency, ThreadBusy,
    ThreadUtil, PROFILE_SCHEMA,
};
pub use registry::{Histogram, Registry};
