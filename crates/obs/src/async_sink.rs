//! The off-hot-thread event pipeline.
//!
//! [`AsyncJsonLinesSink`] wraps a [`JsonLinesSink`] and moves its
//! serialization and file I/O onto a dedicated writer thread behind a
//! bounded channel: the simulation thread's `on_event` cost becomes one
//! event clone plus a buffer push, regardless of how slow the
//! underlying writer is.
//!
//! Events cross the channel in batches (≤ [`BATCH_EVENTS`] each), not
//! one at a time: a `sync_channel` send pays a mutex + condvar
//! round-trip whenever the receiver is parked, and per-event sends at
//! simulation rates make the *writer* recv-bound — it falls behind pure
//! serialization, the queue fills, and block backpressure throttles the
//! hot thread to below the synchronous sink's speed. Batching amortizes
//! both endpoints' channel cost to ~nothing per event.
//!
//! ## Backpressure and determinism
//!
//! When the queue is full, the [`Backpressure`] policy decides:
//!
//! * [`Backpressure::Block`] (the default) — the hot thread waits for a
//!   slot. Every event still reaches the inner sink, in emission order,
//!   so the output stream is **byte-identical** to the synchronous
//!   sink's: the pipeline only changes *where* serialization happens,
//!   never *what* is written. This is the only policy allowed for
//!   artifact streams.
//! * [`Backpressure::Drop`] — the full batch is discarded and counted
//!   in `sink.dropped` ([`SinkStats::dropped`]). The hot thread never
//!   waits, which is right for long soak runs where losing event lines
//!   beats distorting the timing under test — but the stream is no
//!   longer a complete record, so drop mode must never feed determinism
//!   comparisons.
//!
//! [`SimObserver::flush`] is synchronous end-to-end: it enqueues a flush
//! request and blocks until the writer thread has drained everything
//! before it and flushed the inner sink, so a latched I/O error (full
//! disk) surfaces at flush exactly like the synchronous sink's.

use crate::event::Event;
use crate::json_sink::JsonLinesSink;
use crate::observer::SimObserver;
use crate::ObsError;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Default bound of the event queue (events, not bytes). Sized to ride
/// out merge-phase emission bursts at N = 100k without engaging
/// backpressure (a queued event is ~48 bytes, so the bound is ~12 MB).
pub const DEFAULT_QUEUE_CAPACITY: usize = 256 * 1024;

/// Most events a single channel message carries (the producer-side
/// buffer flushes to the channel at this size). Capacities smaller than
/// this shrink the batch to keep the configured bound meaningful.
pub const BATCH_EVENTS: usize = 256;

/// What the hot thread does when the writer queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Wait for a slot: lossless, byte-identical to the sync sink.
    #[default]
    Block,
    /// Discard the batch and count its events in
    /// [`SinkStats::dropped`]: the hot thread never waits, the stream
    /// becomes incomplete.
    Drop,
}

impl Backpressure {
    /// Stable lowercase name (`block` / `drop`).
    pub fn name(&self) -> &'static str {
        match self {
            Backpressure::Block => "block",
            Backpressure::Drop => "drop",
        }
    }
}

/// Queue/throughput counters shared between the hot thread and the
/// writer thread.
#[derive(Debug, Default)]
struct SharedStats {
    enqueued: AtomicU64,
    processed: AtomicU64,
    dropped: AtomicU64,
    blocked: AtomicU64,
    depth: AtomicU64,
    max_depth: AtomicU64,
    written: AtomicU64,
}

/// A snapshot of the pipeline's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SinkStats {
    /// Events accepted onto the queue.
    pub enqueued: u64,
    /// Events the writer thread has taken off the queue.
    pub processed: u64,
    /// Events discarded under [`Backpressure::Drop`] (the `sink.dropped`
    /// counter; shedding happens a batch at a time).
    pub dropped: u64,
    /// Times the hot thread found the queue full under
    /// [`Backpressure::Block`] and had to wait (counted per blocked
    /// batch send, not per event).
    pub blocked: u64,
    /// High-water mark of the queue depth.
    pub max_depth: u64,
    /// Event lines the inner sink has written (post-filtering, so an
    /// aggregate-mode sink writes fewer lines than it processed).
    pub written_lines: u64,
}

enum Msg {
    Batch(Vec<Event>),
    Flush(SyncSender<Result<(), ObsError>>),
}

fn writer_gone() -> ObsError {
    ObsError::Io("async sink writer thread terminated".to_string())
}

/// A [`JsonLinesSink`] behind a bounded channel and a dedicated writer
/// thread (see the module docs for the backpressure/determinism
/// contract).
pub struct AsyncJsonLinesSink {
    tx: Option<SyncSender<Msg>>,
    handle: Option<JoinHandle<Result<(), ObsError>>>,
    stats: Arc<SharedStats>,
    policy: Backpressure,
    /// Producer-side buffer: events accumulate here and cross the
    /// channel as one message per `batch` events (or at flush).
    pending: Vec<Event>,
    /// Per-message event budget (`BATCH_EVENTS`, shrunk for tiny
    /// capacities).
    batch: usize,
    /// Latched local failure (writer thread died); reported once from
    /// `flush`, like the inner sink's latch.
    error: Option<ObsError>,
}

impl AsyncJsonLinesSink {
    /// Move `inner` onto a writer thread with the default queue capacity
    /// and [`Backpressure::Block`]. The inner sink's header was already
    /// written when it was constructed, so the stream layout is exactly
    /// the synchronous sink's.
    pub fn new<W: Write + Send + 'static>(inner: JsonLinesSink<W>) -> Self {
        Self::with_capacity(inner, DEFAULT_QUEUE_CAPACITY, Backpressure::Block)
    }

    /// Full-control constructor: queue bound in *events* (≥ 1, rounded
    /// up to whole batches) and backpressure policy.
    pub fn with_capacity<W: Write + Send + 'static>(
        mut inner: JsonLinesSink<W>,
        capacity: usize,
        policy: Backpressure,
    ) -> Self {
        let batch = BATCH_EVENTS.min(capacity.max(1));
        let (tx, rx) = sync_channel::<Msg>(capacity.max(1).div_ceil(batch));
        let stats = Arc::new(SharedStats::default());
        let writer_stats = stats.clone();
        let handle = std::thread::Builder::new()
            .name("qlec-obs-writer".to_string())
            .spawn(move || {
                for msg in rx {
                    match msg {
                        Msg::Batch(events) => {
                            for event in &events {
                                inner.on_event(event);
                            }
                            writer_stats
                                .depth
                                .fetch_sub(events.len() as u64, Ordering::Relaxed);
                            writer_stats
                                .processed
                                .fetch_add(events.len() as u64, Ordering::Relaxed);
                            writer_stats
                                .written
                                .store(inner.written(), Ordering::Relaxed);
                        }
                        Msg::Flush(ack) => {
                            // The receiver drains in order, so everything
                            // enqueued before this request is already in
                            // the inner sink.
                            let _ = ack.send(inner.flush());
                        }
                    }
                }
                // Channel closed: final flush so nothing sits in an OS
                // buffer when the sink is simply dropped.
                inner.flush()
            })
            .expect("spawn qlec-obs-writer thread");
        AsyncJsonLinesSink {
            tx: Some(tx),
            handle: Some(handle),
            stats,
            policy,
            pending: Vec::with_capacity(batch),
            batch,
            error: None,
        }
    }

    /// The configured backpressure policy.
    pub fn policy(&self) -> Backpressure {
        self.policy
    }

    /// Snapshot the pipeline counters.
    pub fn stats(&self) -> SinkStats {
        SinkStats {
            enqueued: self.stats.enqueued.load(Ordering::Relaxed),
            processed: self.stats.processed.load(Ordering::Relaxed),
            dropped: self.stats.dropped.load(Ordering::Relaxed),
            blocked: self.stats.blocked.load(Ordering::Relaxed),
            max_depth: self.stats.max_depth.load(Ordering::Relaxed),
            written_lines: self.stats.written.load(Ordering::Relaxed),
        }
    }

    /// The `sink.dropped` counter: events discarded under
    /// [`Backpressure::Drop`].
    pub fn dropped(&self) -> u64 {
        self.stats.dropped.load(Ordering::Relaxed)
    }

    /// Shut the pipeline down: close the queue, join the writer thread
    /// (which drains the queue and flushes), and return the final
    /// counters or the first error.
    pub fn finish(mut self) -> Result<SinkStats, ObsError> {
        if let Some(e) = self.error.take() {
            // Still join the writer before reporting.
            let _ = self.shutdown();
            return Err(e);
        }
        self.shutdown().map(|()| self.stats())
    }

    fn shutdown(&mut self) -> Result<(), ObsError> {
        self.push_pending();
        self.tx = None;
        match self.handle.take() {
            Some(handle) => match handle.join() {
                Ok(result) => result,
                Err(_) => Err(ObsError::Io(
                    "async sink writer thread panicked".to_string(),
                )),
            },
            None => Ok(()),
        }
    }

    /// Move the producer-side buffer onto the channel, applying the
    /// backpressure policy when the queue is full. The queue-slot
    /// reservation happens *before* sending: once the message is in the
    /// channel the writer may decrement `depth` at any time, so
    /// incrementing afterwards could race below zero. On failure the
    /// reservation is rolled back.
    fn push_pending(&mut self) {
        if self.pending.is_empty() || self.error.is_some() {
            return;
        }
        let Some(tx) = &self.tx else { return };
        let len = self.pending.len() as u64;
        let batch = std::mem::replace(&mut self.pending, Vec::with_capacity(self.batch));
        let stats = &self.stats;
        let depth = stats.depth.fetch_add(len, Ordering::Relaxed) + len;
        stats.max_depth.fetch_max(depth, Ordering::Relaxed);
        match tx.try_send(Msg::Batch(batch)) {
            Ok(()) => {
                stats.enqueued.fetch_add(len, Ordering::Relaxed);
            }
            Err(TrySendError::Full(msg)) => match self.policy {
                Backpressure::Block => {
                    stats.blocked.fetch_add(1, Ordering::Relaxed);
                    if tx.send(msg).is_ok() {
                        stats.enqueued.fetch_add(len, Ordering::Relaxed);
                    } else {
                        stats.depth.fetch_sub(len, Ordering::Relaxed);
                        self.error = Some(writer_gone());
                    }
                }
                Backpressure::Drop => {
                    stats.depth.fetch_sub(len, Ordering::Relaxed);
                    stats.dropped.fetch_add(len, Ordering::Relaxed);
                }
            },
            Err(TrySendError::Disconnected(_)) => {
                stats.depth.fetch_sub(len, Ordering::Relaxed);
                self.error = Some(writer_gone());
            }
        }
    }
}

impl SimObserver for AsyncJsonLinesSink {
    fn on_event(&mut self, event: &Event) {
        if self.error.is_some() || self.tx.is_none() {
            return;
        }
        // The hot-path cost: one clone and one Vec push. All channel
        // and atomic traffic happens once per batch, in `push_pending`.
        self.pending.push(event.clone());
        if self.pending.len() >= self.batch {
            self.push_pending();
        }
    }

    fn flush(&mut self) -> Result<(), ObsError> {
        self.push_pending();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let Some(tx) = &self.tx else { return Ok(()) };
        let (ack_tx, ack_rx) = sync_channel(1);
        tx.send(Msg::Flush(ack_tx)).map_err(|_| writer_gone())?;
        ack_rx.recv().map_err(|_| writer_gone())?
    }
}

impl Drop for AsyncJsonLinesSink {
    fn drop(&mut self) {
        // Callers that care about the result flush (or finish) first;
        // plain drop still drains and joins so no events are lost.
        let _ = self.shutdown();
    }
}

impl std::fmt::Debug for AsyncJsonLinesSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncJsonLinesSink")
            .field("policy", &self.policy)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{PacketFate, Phase};
    use crate::json_sink::{read_events, EventsMode};
    use std::sync::{Condvar, Mutex};

    /// A `Write` target readable after the writer thread owns the sink.
    #[derive(Clone, Default)]
    struct SharedVec(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedVec {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A writer the test can stall: while the gate is closed every
    /// `write` blocks, which pins the writer thread and lets the test
    /// fill the bounded queue deterministically.
    #[derive(Clone)]
    struct GatedWriter {
        open: Arc<(Mutex<bool>, Condvar)>,
        out: SharedVec,
    }

    impl GatedWriter {
        fn new() -> (Self, Arc<(Mutex<bool>, Condvar)>, SharedVec) {
            let gate = Arc::new((Mutex::new(true), Condvar::new()));
            let out = SharedVec::default();
            (
                GatedWriter {
                    open: gate.clone(),
                    out: out.clone(),
                },
                gate,
                out,
            )
        }
    }

    fn set_gate(gate: &Arc<(Mutex<bool>, Condvar)>, open: bool) {
        let (lock, cv) = &**gate;
        *lock.lock().unwrap() = open;
        cv.notify_all();
    }

    impl Write for GatedWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let (lock, cv) = &*self.open;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            drop(open);
            self.out.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sample_events(n: u64) -> Vec<Event> {
        let mut events = vec![Event::RoundStarted {
            round: 0,
            alive: 10,
            sim_time: 0.0,
        }];
        for i in 0..n {
            events.push(Event::PacketOutcome {
                round: 0,
                src: (i % 10) as u32,
                fate: if i.is_multiple_of(3) {
                    PacketFate::DroppedLink
                } else {
                    PacketFate::Delivered { latency_slots: 1.5 }
                },
            });
        }
        events.push(Event::PhaseTimed {
            round: 0,
            phase: Phase::Transmission,
            wall_ns: 123,
            sim_time: 1.0,
        });
        events.push(Event::RoundEnded {
            round: 0,
            alive: 10,
            energy_j: 0.25,
            heads: vec![1, 4],
            residuals_j: vec![5.0; 10],
        });
        events
    }

    fn drive(mut sink: impl SimObserver, events: &[Event]) -> Result<(), ObsError> {
        for e in events {
            sink.on_event(e);
        }
        sink.flush()
    }

    #[test]
    fn block_mode_is_byte_identical_to_the_sync_sink() {
        let events = sample_events(200);
        for mode in [
            EventsMode::Full,
            EventsMode::Aggregate,
            EventsMode::Sample { stride: 7 },
        ] {
            for deterministic in [false, true] {
                let build = |buf: SharedVec| {
                    let sink = JsonLinesSink::new(buf).unwrap().with_mode(mode);
                    if deterministic {
                        sink.deterministic()
                    } else {
                        sink
                    }
                };
                let sync_buf = SharedVec::default();
                drive(build(sync_buf.clone()), &events).unwrap();
                let async_buf = SharedVec::default();
                // Tiny capacity so the block path actually engages.
                let async_sink = AsyncJsonLinesSink::with_capacity(
                    build(async_buf.clone()),
                    2,
                    Backpressure::Block,
                );
                drive(async_sink, &events).unwrap();
                assert_eq!(
                    *sync_buf.0.lock().unwrap(),
                    *async_buf.0.lock().unwrap(),
                    "streams diverged (mode {mode:?}, deterministic {deterministic})"
                );
            }
        }
    }

    #[test]
    fn flush_waits_for_the_queue_to_drain() {
        let buf = SharedVec::default();
        let mut sink = AsyncJsonLinesSink::new(JsonLinesSink::new(buf.clone()).unwrap());
        let events = sample_events(50);
        for e in &events {
            sink.on_event(e);
        }
        sink.flush().unwrap();
        // Everything emitted before the flush is on "disk" already.
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(read_events(&text).unwrap(), events);
        let stats = sink.stats();
        assert_eq!(stats.enqueued, events.len() as u64);
        assert_eq!(stats.processed, events.len() as u64);
        assert_eq!(stats.written_lines, events.len() as u64);
        assert_eq!(stats.dropped, 0);
        assert!(stats.max_depth >= 1);
    }

    #[test]
    fn drop_mode_sheds_load_and_counts_it() {
        let (writer, gate, out) = GatedWriter::new();
        // Header is written on construction, while the gate is open.
        let inner = JsonLinesSink::new(writer).unwrap();
        set_gate(&gate, false);
        let mut sink = AsyncJsonLinesSink::with_capacity(inner, 2, Backpressure::Drop);
        let events = sample_events(20); // 23 events total
        for e in &events {
            sink.on_event(e); // must never block
        }
        // The writer is stalled: with capacity 2 the batch size is 2,
        // so at most two 2-event batches (one in the writer's hands,
        // one queued) were accepted — the rest were shed batch-wise.
        let dropped_early = sink.dropped();
        assert!(
            dropped_early >= 17,
            "expected ≥17 drops, saw {dropped_early}"
        );
        set_gate(&gate, true);
        // `finish` pushes the trailing partial batch through the same
        // drop policy — if the writer has not drained yet, that batch
        // may legitimately be shed too.
        let stats = sink.finish().unwrap();
        assert!(stats.dropped >= dropped_early, "drops cannot un-happen");
        assert_eq!(stats.enqueued + stats.dropped, events.len() as u64);
        assert_eq!(stats.processed, stats.enqueued);
        let text = String::from_utf8(out.0.lock().unwrap().clone()).unwrap();
        let written = read_events(&text).unwrap();
        assert_eq!(written.len() as u64, stats.written_lines);
        assert!(written.len() < events.len(), "some events were shed");
    }

    #[test]
    fn block_mode_waits_out_a_stall_without_losing_events() {
        let (writer, gate, out) = GatedWriter::new();
        let inner = JsonLinesSink::new(writer).unwrap();
        set_gate(&gate, false);
        let events = sample_events(20);
        let mut sink = AsyncJsonLinesSink::with_capacity(inner, 2, Backpressure::Block);
        // Producer will block on the full queue, so run it off-thread
        // and release the gate from here.
        let producer = std::thread::spawn({
            let events = events.clone();
            move || {
                for e in &events {
                    sink.on_event(e);
                }
                sink.flush().unwrap();
                sink.stats()
            }
        });
        // Let the producer hit the wall, then open the gate.
        std::thread::sleep(std::time::Duration::from_millis(50));
        set_gate(&gate, true);
        let stats = producer.join().unwrap();
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.enqueued, events.len() as u64);
        assert!(stats.blocked >= 1, "the stall must have been observed");
        let text = String::from_utf8(out.0.lock().unwrap().clone()).unwrap();
        assert_eq!(read_events(&text).unwrap(), events);
    }

    /// A writer with a byte budget, like json_sink's test helper: the
    /// header fits, the first event does not.
    struct FailingWriter {
        written: usize,
        limit: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.written >= self.limit {
                return Err(std::io::Error::other("disk full"));
            }
            self.written += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_io_errors_surface_on_flush() {
        let inner = JsonLinesSink::new(FailingWriter {
            written: 0,
            limit: 30,
        })
        .unwrap();
        let mut sink = AsyncJsonLinesSink::new(inner);
        for e in sample_events(3) {
            sink.on_event(&e);
        }
        match sink.flush() {
            Err(ObsError::Io(msg)) => assert!(msg.contains("disk full"), "{msg}"),
            other => panic!("expected latched Io error, got {other:?}"),
        }
        // Like the sync sink, the latch reports once.
        assert!(sink.flush().is_ok());
    }

    #[test]
    fn finish_after_plain_drop_semantics() {
        // Dropping without flush still drains: the writer joins in Drop.
        let buf = SharedVec::default();
        {
            let mut sink = AsyncJsonLinesSink::new(JsonLinesSink::new(buf.clone()).unwrap());
            for e in sample_events(10) {
                sink.on_event(&e);
            }
        }
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        // 10 packets + RoundStarted + PhaseTimed + RoundEnded.
        assert_eq!(read_events(&text).unwrap().len(), 13);
    }
}
