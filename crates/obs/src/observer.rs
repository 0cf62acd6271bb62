//! The event bus: [`SimObserver`] and the fan-out [`ObserverSet`].
//!
//! The design goal is *zero cost when disabled*: the simulator and the
//! protocols hold an [`ObserverSet`] by value and guard every emission
//! site with [`ObserverSet::is_active`] — a single branch on an empty
//! `Vec` when no sink is attached; no event is even constructed.
//!
//! The set also carries the run's optional [`PhaseProfiler`]. Timing
//! spans ([`ObserverSet::span_start`] / [`ObserverSet::span_end`]) read
//! the profiler's clock and record straight into it, never into the
//! event stream; without a profiler they read no clock at all.
//!
//! An `ObserverSet` is `Clone`: clones share their sinks and profiler.

use crate::event::Event;
use crate::profiler::{Phase, PhaseProfiler};
use crate::ObsError;
use std::sync::{Arc, Mutex};

/// A consumer of simulation events. Implementations must be `Send` so
/// observed runs can ride the bench harness's seed-parallelism.
pub trait SimObserver: Send {
    /// Handle one event. Called synchronously from the simulation loop;
    /// implementations should be cheap and must not panic on malformed
    /// data (buffer errors and report them from [`SimObserver::flush`]).
    fn on_event(&mut self, event: &Event);

    /// Flush buffered output and surface any deferred error.
    fn flush(&mut self) -> Result<(), ObsError> {
        Ok(())
    }
}

/// An open span; close it with [`ObserverSet::span_end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span only records its wall when closed with span_end"]
pub struct SpanToken {
    start_ns: u64,
}

/// Fan-out to any number of shared sinks, plus the run's optional phase
/// profiler. The default set is empty and inert.
#[derive(Clone, Default)]
pub struct ObserverSet {
    sinks: Vec<Arc<Mutex<dyn SimObserver>>>,
    /// Out-of-band phase profiler: spans record their wall here, and the
    /// simulator records per-worker busy times into it directly.
    profiler: Option<Arc<PhaseProfiler>>,
}

impl ObserverSet {
    /// An empty, inert set.
    pub fn new() -> Self {
        ObserverSet::default()
    }

    /// Attach a shared [`PhaseProfiler`]. Spans are then timed on its
    /// clock and recorded into it. The profiler consumes no events, so a
    /// profile-only set stays inactive and the run builds none.
    pub fn with_profiler(mut self, profiler: Arc<PhaseProfiler>) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<&Arc<PhaseProfiler>> {
        self.profiler.as_ref()
    }

    /// Attach a shared sink. The caller keeps its `Arc` to read results
    /// back after the run.
    pub fn attach(&mut self, sink: Arc<Mutex<dyn SimObserver>>) {
        self.sinks.push(sink);
    }

    /// Whether any sink is attached. Emission sites branch on this so a
    /// run without sinks never constructs an event.
    #[inline]
    pub fn is_active(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Fan an event out to every sink. No-op when inactive.
    pub fn emit(&self, event: Event) {
        for sink in &self.sinks {
            sink.lock()
                .expect("observer sink poisoned")
                .on_event(&event);
        }
    }

    /// Open a timing span: reads the profiler's clock, or nothing when
    /// no profiler is attached.
    #[inline]
    pub fn span_start(&self) -> SpanToken {
        SpanToken {
            start_ns: self.profiler.as_ref().map_or(0, |p| p.now_ns()),
        }
    }

    /// Close a span: records the elapsed wall under `phase` in the
    /// profiler and returns it, so callers can attribute it as busy time
    /// without a second clock read. No-op (returning 0) without a
    /// profiler.
    pub fn span_end(&self, token: SpanToken, phase: Phase) -> u64 {
        let Some(profiler) = &self.profiler else {
            return 0;
        };
        let wall_ns = profiler.now_ns().saturating_sub(token.start_ns);
        profiler.record_wall(phase, wall_ns);
        wall_ns
    }

    /// Flush every sink, returning the first error.
    pub fn flush(&self) -> Result<(), ObsError> {
        for sink in &self.sinks {
            sink.lock().expect("observer sink poisoned").flush()?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for ObserverSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserverSet")
            .field("sinks", &self.sinks.len())
            .field("profiler", &self.profiler.is_some())
            .finish()
    }
}

/// Wraps a sink and measures the *hot-thread* cost of handing events to
/// it: `hot_ns` accumulates the wall time spent inside the inner sink's
/// `on_event` — serialization + I/O for a synchronous JSON sink, clone +
/// enqueue for an async one. This is the instrument behind the bench
/// harness's sink-pipeline comparison ("instrumentation cost is itself
/// measured").
#[derive(Debug)]
pub struct MeasuredSink<S: SimObserver> {
    inner: S,
    events: u64,
    hot_ns: u64,
}

impl<S: SimObserver> MeasuredSink<S> {
    /// Wrap a sink.
    pub fn new(inner: S) -> Self {
        MeasuredSink {
            inner,
            events: 0,
            hot_ns: 0,
        }
    }

    /// Events handed to the inner sink so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Cumulative wall ns the hot thread spent inside the inner sink's
    /// `on_event`.
    pub fn hot_ns(&self) -> u64 {
        self.hot_ns
    }

    /// Borrow the inner sink.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Unwrap the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: SimObserver> SimObserver for MeasuredSink<S> {
    fn on_event(&mut self, event: &Event) {
        let t0 = std::time::Instant::now();
        self.inner.on_event(event);
        self.hot_ns += t0.elapsed().as_nanos() as u64;
        self.events += 1;
    }

    fn flush(&mut self) -> Result<(), ObsError> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    /// Test sink: collects events.
    #[derive(Default)]
    struct Collector {
        events: Vec<Event>,
        flushed: bool,
    }

    impl SimObserver for Collector {
        fn on_event(&mut self, event: &Event) {
            self.events.push(event.clone());
        }

        fn flush(&mut self) -> Result<(), ObsError> {
            self.flushed = true;
            Ok(())
        }
    }

    #[test]
    fn empty_set_is_inert() {
        let obs = ObserverSet::new();
        assert!(!obs.is_active());
        obs.emit(Event::NodeDied { round: 0, node: 0 }); // must not panic
        let wall = obs.span_end(obs.span_start(), Phase::Election);
        assert_eq!(wall, 0, "no profiler, no clock");
        assert!(obs.flush().is_ok());
    }

    #[test]
    fn fan_out_reaches_every_sink() {
        let a = Arc::new(Mutex::new(Collector::default()));
        let b = Arc::new(Mutex::new(Collector::default()));
        let mut obs = ObserverSet::new();
        obs.attach(a.clone());
        obs.attach(b.clone());
        obs.emit(Event::NodeDied { round: 1, node: 5 });
        obs.flush().unwrap();
        for sink in [&a, &b] {
            let s = sink.lock().unwrap();
            assert_eq!(s.events.len(), 1);
            assert!(s.flushed);
        }
    }

    #[test]
    fn a_profile_only_set_is_inactive_and_still_records_spans() {
        let clock = Arc::new(ManualClock::new());
        let prof = Arc::new(PhaseProfiler::with_clock(clock.clone()));
        let obs = ObserverSet::new().with_profiler(prof.clone());
        // No sinks: emission sites build no events, but spans are timed
        // on the profiler's clock and land in the profiler.
        assert!(!obs.is_active());
        let outer = obs.span_start();
        clock.advance(100);
        let inner = obs.span_start();
        clock.advance(40);
        assert_eq!(obs.span_end(inner, Phase::IndexMaintenance), 40);
        clock.advance(110);
        let wall = obs.span_end(outer, Phase::Election);
        assert_eq!(wall, 250, "span_end returns the measured wall");
        let report = prof.report();
        assert_eq!(report.wall_ns(Phase::Election), 250);
        assert_eq!(report.wall_ns(Phase::IndexMaintenance), 40);
        assert_eq!(report.wall_ns(Phase::Transmission), 0);
    }

    #[test]
    fn measured_sink_counts_events_and_forwards_flush() {
        let mut sink = MeasuredSink::new(Collector::default());
        sink.on_event(&Event::NodeDied { round: 0, node: 1 });
        sink.on_event(&Event::NodeDied { round: 0, node: 2 });
        assert_eq!(sink.events(), 2);
        assert!(sink.flush().is_ok());
        assert_eq!(sink.get_ref().events.len(), 2);
        let inner = sink.into_inner();
        assert!(inner.flushed);
    }

    #[test]
    fn clones_share_sinks() {
        let sink = Arc::new(Mutex::new(Collector::default()));
        let mut obs = ObserverSet::new();
        obs.attach(sink.clone());
        let clone = obs.clone();
        clone.emit(Event::NodeDied { round: 0, node: 1 });
        assert_eq!(sink.lock().unwrap().events.len(), 1);
    }
}
