//! The in-memory aggregating sink.
//!
//! [`MemorySink`] folds the event stream into a [`Registry`] as it
//! arrives, so a run's summary is available immediately after the run
//! without replaying anything. The counters mirror the simulator's own
//! `PacketCounters` exactly (both are driven by the same emission
//! sites), which is what the integration tests assert.

use crate::event::{Event, PacketFate};
use crate::observer::SimObserver;
use crate::registry::Registry;
use std::fmt::Write as _;

/// Aggregates events into metrics; render with [`MemorySink::summary`].
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    registry: Registry,
    /// `(round, alive_at_end)` per completed round.
    alive_curve: Vec<(u32, usize)>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The metrics accumulated so far.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Alive-node count at the end of each completed round.
    pub fn alive_curve(&self) -> &[(u32, usize)] {
        &self.alive_curve
    }

    /// Packet delivery rate implied by the event stream.
    pub fn pdr(&self) -> f64 {
        let generated = self.registry.counter("packets.generated");
        if generated == 0 {
            return 0.0;
        }
        self.registry.counter("packets.delivered") as f64 / generated as f64
    }

    /// Render the run summary as a text table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== run summary (qlec-obs) ==");
        out.push_str(&self.registry.render_table());
        let _ = writeln!(out, "{:<24}  {:.4}", "derived.pdr", self.pdr());
        out
    }
}

impl SimObserver for MemorySink {
    fn on_event(&mut self, event: &Event) {
        let r = &mut self.registry;
        match event {
            Event::RoundStarted { .. } => r.inc("rounds.started", 1),
            Event::HeadElected {
                round: _,
                node: _,
                residual_j,
            } => {
                r.inc("heads.elected", 1);
                r.observe("heads.residual_j", *residual_j);
            }
            Event::HeadWithdrawn { .. } => r.inc("heads.withdrawn", 1),
            Event::PacketOutcome { fate, .. } => {
                r.inc("packets.generated", 1);
                r.inc(&format!("packets.{}", fate.metric_name()), 1);
                if let PacketFate::Delivered { latency_slots } = fate {
                    r.observe("latency.slots", *latency_slots);
                }
            }
            Event::QUpdate { delta, .. } => {
                r.inc("q.updates", 1);
                r.observe("q.delta_abs", delta.abs());
            }
            Event::NodeDied { .. } => r.inc("nodes.died", 1),
            Event::FaultInjected { kind, nodes, .. } => {
                r.inc("faults.injected", 1);
                r.inc(&format!("faults.{kind}"), 1);
                r.inc("faults.nodes_affected", nodes.len() as u64);
            }
            Event::PacketRetried { .. } => r.inc("packets.retried", 1),
            // Aggregate-mode digests of events this sink already counts
            // live — replaying one into a MemorySink must not double-count.
            Event::RoundSummary { .. } => {}
            Event::RoundEnded {
                round,
                alive,
                energy_j,
                heads,
                ..
            } => {
                r.inc("rounds.ended", 1);
                r.set_gauge("alive.last", *alive as f64);
                r.observe("energy.round_j", *energy_j);
                r.observe("heads.per_round", heads.len() as f64);
                self.alive_curve.push((*round, *alive));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(sink: &mut MemorySink, events: &[Event]) {
        for e in events {
            sink.on_event(e);
        }
    }

    #[test]
    fn packet_counters_mirror_fates() {
        let mut sink = MemorySink::new();
        feed(
            &mut sink,
            &[
                Event::PacketOutcome {
                    round: 0,
                    src: 1,
                    fate: PacketFate::Delivered { latency_slots: 2.0 },
                },
                Event::PacketOutcome {
                    round: 0,
                    src: 2,
                    fate: PacketFate::Delivered { latency_slots: 4.0 },
                },
                Event::PacketOutcome {
                    round: 0,
                    src: 3,
                    fate: PacketFate::DroppedLink,
                },
                Event::PacketOutcome {
                    round: 0,
                    src: 4,
                    fate: PacketFate::DroppedQueueFull,
                },
                Event::PacketOutcome {
                    round: 0,
                    src: 5,
                    fate: PacketFate::DroppedAggregate,
                },
            ],
        );
        let r = sink.registry();
        assert_eq!(r.counter("packets.generated"), 5);
        assert_eq!(r.counter("packets.delivered"), 2);
        assert_eq!(r.counter("packets.dropped.link"), 1);
        assert_eq!(r.counter("packets.dropped.queue_full"), 1);
        assert_eq!(r.counter("packets.dropped.aggregate"), 1);
        assert_eq!(r.counter("packets.dropped.dead"), 0);
        assert_eq!(r.histogram("latency.slots").unwrap().mean(), Some(3.0));
        assert!((sink.pdr() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn rounds_heads_and_deaths_aggregate() {
        let mut sink = MemorySink::new();
        feed(
            &mut sink,
            &[
                Event::RoundStarted {
                    round: 0,
                    alive: 10,
                    sim_time: 0.0,
                },
                Event::HeadElected {
                    round: 0,
                    node: 1,
                    residual_j: 5.0,
                },
                Event::HeadElected {
                    round: 0,
                    node: 2,
                    residual_j: 4.0,
                },
                Event::HeadWithdrawn { round: 0, node: 3 },
                Event::NodeDied { round: 0, node: 9 },
                Event::RoundEnded {
                    round: 0,
                    alive: 9,
                    energy_j: 0.25,
                    heads: vec![1, 2],
                    residuals_j: vec![],
                },
            ],
        );
        let r = sink.registry();
        assert_eq!(r.counter("rounds.started"), 1);
        assert_eq!(r.counter("rounds.ended"), 1);
        assert_eq!(r.counter("heads.elected"), 2);
        assert_eq!(r.counter("heads.withdrawn"), 1);
        assert_eq!(r.counter("nodes.died"), 1);
        assert_eq!(r.gauge("alive.last"), Some(9.0));
        assert_eq!(sink.alive_curve(), &[(0, 9)]);
        assert_eq!(r.histogram("heads.per_round").unwrap().mean(), Some(2.0));
    }

    #[test]
    fn faults_and_retries_are_counted() {
        let mut sink = MemorySink::new();
        feed(
            &mut sink,
            &[
                Event::FaultInjected {
                    round: 1,
                    kind: "region-blackout".to_string(),
                    nodes: vec![2, 5, 7],
                },
                Event::FaultInjected {
                    round: 2,
                    kind: "bs-outage".to_string(),
                    nodes: vec![],
                },
                Event::PacketRetried {
                    round: 1,
                    src: 4,
                    attempt: 1,
                },
                Event::PacketRetried {
                    round: 1,
                    src: 4,
                    attempt: 2,
                },
            ],
        );
        let r = sink.registry();
        assert_eq!(r.counter("faults.injected"), 2);
        assert_eq!(r.counter("faults.region-blackout"), 1);
        assert_eq!(r.counter("faults.bs-outage"), 1);
        assert_eq!(r.counter("faults.nodes_affected"), 3);
        assert_eq!(r.counter("packets.retried"), 2);
    }

    #[test]
    fn q_updates_feed_delta_histogram() {
        let mut sink = MemorySink::new();
        feed(
            &mut sink,
            &[
                Event::QUpdate {
                    round: 0,
                    node: 1,
                    delta: -2.0,
                },
                Event::QUpdate {
                    round: 0,
                    node: 2,
                    delta: 4.0,
                },
            ],
        );
        let h = sink.registry().histogram("q.delta_abs").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), Some(3.0));
    }

    #[test]
    fn pdr_is_zero_not_nan_when_no_packets_were_generated() {
        // A zero-traffic run (λ so sparse that no packet arrives inside
        // the horizon) must summarize cleanly: 0/0 is reported as 0.0.
        let mut sink = MemorySink::new();
        assert_eq!(sink.pdr(), 0.0);
        feed(
            &mut sink,
            &[
                Event::RoundStarted {
                    round: 0,
                    alive: 10,
                    sim_time: 0.0,
                },
                Event::RoundEnded {
                    round: 0,
                    alive: 10,
                    energy_j: 0.0,
                    heads: vec![1],
                    residuals_j: vec![5.0; 10],
                },
            ],
        );
        assert_eq!(sink.pdr(), 0.0, "still no packets generated");
        assert!(sink.pdr().is_finite());
        assert!(sink.summary().contains("derived.pdr"));
    }

    #[test]
    fn summary_mentions_key_metrics() {
        let mut sink = MemorySink::new();
        feed(
            &mut sink,
            &[Event::PacketOutcome {
                round: 0,
                src: 1,
                fate: PacketFate::Delivered { latency_slots: 1.0 },
            }],
        );
        let s = sink.summary();
        assert!(s.contains("packets.generated"));
        assert!(s.contains("packets.delivered"));
        assert!(s.contains("latency.slots"));
        assert!(s.contains("derived.pdr"));
    }
}
