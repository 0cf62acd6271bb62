//! The JSON-lines file sink and its reader.
//!
//! Stream layout (one JSON value per line):
//!
//! ```text
//! {"schema":"qlec-obs/v1"}          ← versioned header, always first
//! {"RoundStarted":{"round":0,…}}    ← one externally-tagged Event per line
//! {"HeadElected":{"round":0,…}}
//! …
//! ```
//!
//! Writes happen inside the simulation loop, where [`SimObserver::on_event`]
//! cannot return an error — the sink therefore *latches* the first I/O
//! failure and reports it from [`SimObserver::flush`] (and stops writing,
//! so a full disk costs one failed write, not millions).

use crate::event::{Event, PacketFate, SCHEMA};
use crate::observer::SimObserver;
use crate::ObsError;
use std::io::Write;

/// How a [`JsonLinesSink`] treats the three high-volume per-packet
/// events ([`Event::PacketOutcome`], [`Event::PacketRetried`],
/// [`Event::QUpdate`]). Structural events — rounds, head elections,
/// faults, node deaths — are always written in every mode, so compact
/// streams still carry the full topology/lifespan story.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventsMode {
    /// Write every event (the default).
    Full,
    /// Keep every `stride`-th high-volume event (one shared counter, so
    /// a `stride` of 10 keeps ~10% of the per-packet volume). Purely
    /// counter-based — no randomness — so sampled streams are exactly as
    /// deterministic as full ones.
    Sample {
        /// Keep one high-volume event out of every `stride` (≥ 1).
        stride: u64,
    },
    /// Suppress high-volume events entirely and write one
    /// [`Event::RoundSummary`] digest per round instead, just before the
    /// round's [`Event::RoundEnded`] line.
    Aggregate,
}

impl EventsMode {
    /// Sampling mode keeping approximately `rate` (in `(0, 1]`) of the
    /// high-volume events; `rate = 1.0` degenerates to [`EventsMode::Full`].
    pub fn sample(rate: f64) -> Result<EventsMode, String> {
        if !(rate > 0.0 && rate <= 1.0) {
            return Err(format!("sample rate must be in (0, 1], got {rate}"));
        }
        let stride = (1.0 / rate).ceil() as u64;
        Ok(if stride <= 1 {
            EventsMode::Full
        } else {
            EventsMode::Sample { stride }
        })
    }

    /// Parse the CLI spelling: `full`, `sample:<rate>`, or `aggregate`.
    pub fn parse(text: &str) -> Result<EventsMode, String> {
        match text {
            "full" => Ok(EventsMode::Full),
            "aggregate" => Ok(EventsMode::Aggregate),
            _ => {
                let rate = text
                    .strip_prefix("sample:")
                    .and_then(|r| r.parse::<f64>().ok())
                    .ok_or_else(|| {
                        format!("expected full, sample:<rate> or aggregate, got `{text}`")
                    })?;
                EventsMode::sample(rate)
            }
        }
    }
}

/// Running per-round totals behind [`EventsMode::Aggregate`].
#[derive(Debug, Default, Clone, Copy)]
struct RoundAgg {
    packets: u64,
    delivered: u64,
    latency_sum: f64,
    retries: u64,
    q_updates: u64,
}

fn is_high_volume(event: &Event) -> bool {
    matches!(
        event,
        Event::PacketOutcome { .. } | Event::PacketRetried { .. } | Event::QUpdate { .. }
    )
}

/// Writes events as schema-versioned JSON lines.
pub struct JsonLinesSink<W: Write + Send> {
    out: W,
    error: Option<ObsError>,
    mode: EventsMode,
    /// High-volume events seen so far (drives [`EventsMode::Sample`]).
    hv_seen: u64,
    agg: RoundAgg,
    /// Event lines successfully written (excludes the schema header).
    written: u64,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wrap a writer and emit the schema header immediately.
    pub fn new(mut out: W) -> Result<Self, ObsError> {
        writeln!(
            out,
            "{{\"schema\":{}}}",
            serde_json::to_string(&SCHEMA.to_string())?
        )?;
        Ok(JsonLinesSink {
            out,
            error: None,
            mode: EventsMode::Full,
            hv_seen: 0,
            agg: RoundAgg::default(),
            written: 0,
        })
    }

    /// Select how high-volume events are written (see [`EventsMode`]).
    pub fn with_mode(mut self, mode: EventsMode) -> Self {
        self.mode = mode;
        self
    }

    /// Does nothing. It used to drop the one event variant that carried
    /// wall-clock time; no event carries one now, so every stream is a
    /// pure function of the simulation. It stays only because the
    /// benchmark package (`qlecbench/src/run.rs`), which is frozen
    /// between benchmark revisions, still calls it.
    pub fn deterministic(self) -> Self {
        self
    }

    /// Consume the sink, flushing and returning the writer.
    pub fn finish(mut self) -> Result<W, ObsError> {
        self.flush()?;
        Ok(self.out)
    }

    /// Event lines successfully written so far (the schema header does
    /// not count).
    pub fn written(&self) -> u64 {
        self.written
    }

    fn write_event(&mut self, event: &Event) {
        let result = serde_json::to_string(event)
            .map_err(ObsError::from)
            .and_then(|line| writeln!(self.out, "{line}").map_err(ObsError::from));
        match result {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

impl<W: Write + Send> SimObserver for JsonLinesSink<W> {
    fn on_event(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        match self.mode {
            EventsMode::Full => {}
            EventsMode::Sample { stride } => {
                if is_high_volume(event) {
                    let keep = self.hv_seen.is_multiple_of(stride);
                    self.hv_seen += 1;
                    if !keep {
                        return;
                    }
                }
            }
            EventsMode::Aggregate => match event {
                Event::PacketOutcome { fate, .. } => {
                    self.agg.packets += 1;
                    if let PacketFate::Delivered { latency_slots } = fate {
                        self.agg.delivered += 1;
                        self.agg.latency_sum += latency_slots;
                    }
                    return;
                }
                Event::PacketRetried { .. } => {
                    self.agg.retries += 1;
                    return;
                }
                Event::QUpdate { .. } => {
                    self.agg.q_updates += 1;
                    return;
                }
                Event::RoundEnded { round, .. } => {
                    let agg = std::mem::take(&mut self.agg);
                    let summary = Event::RoundSummary {
                        round: *round,
                        packets: agg.packets,
                        delivered: agg.delivered,
                        mean_latency_slots: if agg.delivered > 0 {
                            agg.latency_sum / agg.delivered as f64
                        } else {
                            0.0
                        },
                        retries: agg.retries,
                        q_updates: agg.q_updates,
                    };
                    self.write_event(&summary);
                    if self.error.is_some() {
                        return;
                    }
                }
                _ => {}
            },
        }
        self.write_event(event);
    }

    fn flush(&mut self) -> Result<(), ObsError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush().map_err(ObsError::from)
    }
}

/// Parse a JSON-lines stream back into events, validating the schema
/// header.
pub fn read_events(text: &str) -> Result<Vec<Event>, ObsError> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or_else(|| ObsError::Schema {
        expected: SCHEMA.to_string(),
        found: "<empty stream>".to_string(),
    })?;
    let header_value: serde::Value = serde_json::from_str(header)?;
    match header_value.get("schema").and_then(|v| v.as_str()) {
        Some(s) if s == SCHEMA => {}
        other => {
            return Err(ObsError::Schema {
                expected: SCHEMA.to_string(),
                found: other.unwrap_or("<no schema field>").to_string(),
            })
        }
    }
    lines
        .map(|line| serde_json::from_str::<Event>(line).map_err(ObsError::from))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PacketFate;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RoundStarted {
                round: 0,
                alive: 10,
                sim_time: 0.0,
            },
            Event::PacketOutcome {
                round: 0,
                src: 3,
                fate: PacketFate::Delivered { latency_slots: 1.5 },
            },
            Event::RoundEnded {
                round: 0,
                alive: 10,
                energy_j: 0.5,
                heads: vec![1, 2],
                residuals_j: vec![5.0; 10],
            },
        ]
    }

    #[test]
    fn writes_header_then_one_event_per_line() {
        let mut sink = JsonLinesSink::new(Vec::new()).unwrap();
        for e in sample_events() {
            sink.on_event(&e);
        }
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 3);
        assert!(lines[0].contains("qlec-obs/v3"));
    }

    #[test]
    fn roundtrips_through_read_events() {
        let mut sink = JsonLinesSink::new(Vec::new()).unwrap();
        let events = sample_events();
        for e in &events {
            sink.on_event(e);
        }
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert_eq!(read_events(&text).unwrap(), events);
    }

    #[test]
    fn rejects_missing_or_wrong_schema() {
        assert!(matches!(read_events(""), Err(ObsError::Schema { .. })));
        let wrong = "{\"schema\":\"qlec-obs/v999\"}\n";
        match read_events(wrong) {
            Err(ObsError::Schema { found, .. }) => assert_eq!(found, "qlec-obs/v999"),
            other => panic!("expected schema error, got {other:?}"),
        }
        let headerless = "{\"RoundStarted\":{\"round\":0,\"alive\":1,\"sim_time\":0.0}}\n";
        assert!(matches!(
            read_events(headerless),
            Err(ObsError::Schema { .. })
        ));
    }

    #[test]
    fn rejects_garbage_event_lines() {
        let text = "{\"schema\":\"qlec-obs/v3\"}\nnot json\n";
        assert!(matches!(read_events(text), Err(ObsError::Json(_))));
    }

    /// A stream of `n` packet outcomes bracketed by round start/end —
    /// the shape the mode filters care about.
    fn packet_round(n: u64) -> Vec<Event> {
        let mut events = vec![Event::RoundStarted {
            round: 0,
            alive: 10,
            sim_time: 0.0,
        }];
        for i in 0..n {
            events.push(Event::QUpdate {
                round: 0,
                node: (i % 10) as u32,
                delta: 0.5,
            });
            events.push(Event::PacketOutcome {
                round: 0,
                src: (i % 10) as u32,
                fate: if i.is_multiple_of(2) {
                    PacketFate::Delivered { latency_slots: 2.0 }
                } else {
                    PacketFate::DroppedLink
                },
            });
        }
        events.push(Event::PacketRetried {
            round: 0,
            src: 1,
            attempt: 1,
        });
        events.push(Event::RoundEnded {
            round: 0,
            alive: 10,
            energy_j: 0.5,
            heads: vec![1, 2],
            residuals_j: vec![5.0; 10],
        });
        events
    }

    #[test]
    fn events_mode_parses_cli_spellings() {
        assert_eq!(EventsMode::parse("full").unwrap(), EventsMode::Full);
        assert_eq!(
            EventsMode::parse("aggregate").unwrap(),
            EventsMode::Aggregate
        );
        assert_eq!(
            EventsMode::parse("sample:0.1").unwrap(),
            EventsMode::Sample { stride: 10 }
        );
        // rate 1.0 degenerates to Full; 1/3 rounds the stride up.
        assert_eq!(EventsMode::parse("sample:1.0").unwrap(), EventsMode::Full);
        assert_eq!(
            EventsMode::sample(1.0 / 3.0).unwrap(),
            EventsMode::Sample { stride: 3 }
        );
        for bad in ["", "Sample:0.1", "sample:", "sample:0", "sample:1.5", "x"] {
            assert!(EventsMode::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn sample_mode_keeps_structural_events_and_one_in_stride() {
        let mut sink = JsonLinesSink::new(Vec::new())
            .unwrap()
            .with_mode(EventsMode::parse("sample:0.1").unwrap());
        let events = packet_round(50);
        for e in &events {
            sink.on_event(e);
        }
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let written = read_events(&text).unwrap();
        // Structural events always survive.
        assert!(matches!(written.first(), Some(Event::RoundStarted { .. })));
        assert!(matches!(written.last(), Some(Event::RoundEnded { .. })));
        // 101 high-volume events (50 QUpdate + 50 PacketOutcome + 1 retry)
        // at stride 10 → indices 0, 10, …, 100 survive.
        let hv = written.iter().filter(|e| is_high_volume(e)).count();
        assert_eq!(hv, 11);
        // Deterministic: a second identical pass writes identical bytes.
        let mut again = JsonLinesSink::new(Vec::new())
            .unwrap()
            .with_mode(EventsMode::Sample { stride: 10 });
        for e in &events {
            again.on_event(e);
        }
        assert_eq!(String::from_utf8(again.finish().unwrap()).unwrap(), text);
    }

    #[test]
    fn aggregate_mode_replaces_packet_events_with_round_summary() {
        let mut sink = JsonLinesSink::new(Vec::new())
            .unwrap()
            .with_mode(EventsMode::Aggregate);
        for e in packet_round(6) {
            sink.on_event(&e);
        }
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let written = read_events(&text).unwrap();
        assert!(
            written.iter().all(|e| !is_high_volume(e)),
            "no per-packet events in aggregate mode"
        );
        // RoundSummary lands right before RoundEnded and carries the
        // suppressed totals: 6 packets, 3 delivered at 2.0 slots each.
        assert_eq!(
            written[written.len() - 2],
            Event::RoundSummary {
                round: 0,
                packets: 6,
                delivered: 3,
                mean_latency_slots: 2.0,
                retries: 1,
                q_updates: 6,
            }
        );
        assert!(matches!(written.last(), Some(Event::RoundEnded { .. })));
        // Counters reset per round: an empty follow-up round summarizes
        // to zeros (and a zero-delivery mean stays 0.0, not NaN).
        let mut sink = JsonLinesSink::new(Vec::new())
            .unwrap()
            .with_mode(EventsMode::Aggregate);
        sink.on_event(&Event::RoundEnded {
            round: 1,
            alive: 10,
            energy_j: 0.0,
            heads: vec![],
            residuals_j: vec![],
        });
        let written = read_events(&String::from_utf8(sink.finish().unwrap()).unwrap()).unwrap();
        assert_eq!(
            written[0],
            Event::RoundSummary {
                round: 1,
                packets: 0,
                delivered: 0,
                mean_latency_slots: 0.0,
                retries: 0,
                q_updates: 0,
            }
        );
    }

    /// A writer with a byte budget: accepts until `limit` bytes were
    /// written, then fails every further write ("disk full").
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
    fn io_errors_are_latched_and_surface_on_flush() {
        // Budget fits the header (~25 bytes) but not the first event.
        let mut sink = JsonLinesSink::new(FailingWriter {
            written: 0,
            limit: 30,
        })
        .unwrap();
        for e in sample_events() {
            sink.on_event(&e); // must not panic, even repeatedly
        }
        match sink.flush() {
            Err(ObsError::Io(msg)) => assert!(msg.contains("disk full")),
            other => panic!("expected latched Io error, got {other:?}"),
        }
        // Latched error is reported once; afterwards flush succeeds.
        assert!(sink.flush().is_ok());
    }
}
