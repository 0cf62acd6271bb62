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
//! * **Spans** ([`Phase`], [`ObserverSet::span_start`]) — wall-clock
//!   phase timings, read from the attached profiler's [`Clock`] and
//!   recorded into that profiler alone.
//! * **The sink** — [`JsonLinesSink`] writes versioned JSON-lines
//!   streams (see [`SCHEMA`]) on the simulation thread, streaming each
//!   event into one reused line buffer with no intermediate value tree.
//! * **Profiling** ([`PhaseProfiler`], [`ProfileReport`]) — per-phase,
//!   per-worker-slot busy/wall accounting with round-latency quantiles,
//!   collected out-of-band from the event stream, so profiling never
//!   changes the stream's bytes.
//!
//! Every run summary has one source: the `SimReport` the simulator
//! returns, the event stream these sinks write, the `RunTrace` that
//! `qlec-net`'s `TraceSink` folds from that stream, and the profiler's
//! report. The event schema, and where each figure of the retired
//! `--metrics` table now lives, are documented in this crate's
//! `README.md`.

#![forbid(unsafe_code)]

mod clock;
mod error;
mod event;
mod histogram;
mod json_sink;
mod observer;
mod procinfo;
mod profiler;

pub use clock::{Clock, ManualClock, WallClock};
pub use error::ObsError;
pub use event::{Event, PacketFate, SCHEMA};
pub use json_sink::{read_events, EventsMode, JsonLinesSink};
pub use observer::{MeasuredSink, ObserverSet, SimObserver, SpanToken};
pub use procinfo::peak_rss_bytes;
pub use profiler::{
    CounterRow, Phase, PhaseProfiler, PhaseRow, ProfileReport, RoundLatency, ThreadBusy,
    ThreadUtil, PROFILE_SCHEMA,
};
