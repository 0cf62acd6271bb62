//! The typed event vocabulary.
//!
//! Every observable thing the simulator or a protocol does is one
//! [`Event`] variant. Events are plain data — node ids are raw `u32`s
//! (this crate sits *below* `qlec-net` in the dependency graph), times
//! are simulation slots, energies are joules. No event carries a wall
//! clock reading — phase timings go to the [`crate::PhaseProfiler`]
//! alone — so a stream is a pure function of the simulation.
//!
//! The serialized form (see [`crate::JsonLinesSink`]) is versioned by
//! [`SCHEMA`]; any field addition or semantic change must bump it.

use serde::{Deserialize, Serialize};

/// Version tag written as the first line of every serialized event
/// stream. v2 added [`Event::FaultInjected`] and [`Event::PacketRetried`];
/// v3 added [`Event::RoundSummary`] (written by aggregate-mode sinks in
/// place of the per-packet events). The one variant that carried wall
/// time, a per-phase timing, was later removed without a bump: no
/// deterministic stream ever held it, so every stream compared for
/// byte identity is unchanged, and this header line is hashed into the
/// benchmark's golden digests and the corpus ledgers.
pub const SCHEMA: &str = "qlec-obs/v3";

/// Terminal outcome of one generated packet. Mirrors
/// `qlec-net::PacketCounters`: every generated packet gets exactly one
/// fate, so `count(Delivered) + count(Dropped*) == generated`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PacketFate {
    /// Reached the BS; latency in slots (creation → BS, per the sim's
    /// latency convention).
    Delivered {
        /// End-to-end latency in slots.
        latency_slots: f64,
    },
    /// Lost on the radio link (final attempt).
    DroppedLink,
    /// Refused by a full cluster-head queue (final attempt).
    DroppedQueueFull,
    /// Arrived too late for the head to process this round.
    DroppedDeadline,
    /// Lost with its head's aggregate (fusion or forwarding failed).
    DroppedAggregate,
    /// The source (or its battery) died mid-transmission.
    DroppedDead,
}

/// One structured simulation event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A round began (before head election).
    RoundStarted {
        round: u32,
        /// Alive nodes entering the round.
        alive: usize,
        /// Absolute simulation time (slots) at the round boundary.
        sim_time: f64,
    },
    /// A node is serving as cluster head this round (the *final* head
    /// set, after any withdrawal/top-up).
    HeadElected {
        round: u32,
        node: u32,
        /// The head's residual energy (J) at election.
        residual_j: f64,
    },
    /// An elected head withdrew during the Algorithm 3 HELLO
    /// redundancy reduction (a richer head was within `d_c`).
    HeadWithdrawn { round: u32, node: u32 },
    /// A generated packet reached its terminal fate.
    PacketOutcome {
        round: u32,
        /// Source node id.
        src: u32,
        fate: PacketFate,
    },
    /// One Q-routing value update settled (`V*` fixed-point backup or a
    /// head's line-15 refresh). `delta` is the signed V change.
    QUpdate { round: u32, node: u32, delta: f64 },
    /// A node's battery reached zero this round.
    NodeDied { round: u32, node: u32 },
    /// A scheduled fault became active this round (`qlec-fault`). `kind`
    /// is the fault taxonomy label (`"node-crash"`, `"battery-drain"`,
    /// `"link-degrade"`, `"region-blackout"`, `"bs-outage"`); `nodes`
    /// lists the directly affected nodes (empty for a BS outage).
    FaultInjected {
        round: u32,
        kind: String,
        nodes: Vec<u32>,
    },
    /// A packet transmission was re-attempted after a failed hop
    /// (bounded-retransmission semantics; each retry costs transmit
    /// energy). `attempt` is 1-based over the retries — the first
    /// retry after the initial attempt carries `attempt = 1`.
    PacketRetried { round: u32, src: u32, attempt: u32 },
    /// Per-round digest of the high-volume events
    /// ([`Event::PacketOutcome`], [`Event::PacketRetried`],
    /// [`Event::QUpdate`]). Written by aggregate-mode
    /// [`crate::JsonLinesSink`]s *instead of* those events, immediately
    /// before the round's [`Event::RoundEnded`] line, so compact streams
    /// still close their packet ledger per round.
    RoundSummary {
        round: u32,
        /// Packets that reached a terminal fate this round.
        packets: u64,
        /// Of those, packets delivered to the BS.
        delivered: u64,
        /// Mean delivery latency in slots (`0.0` when nothing was
        /// delivered).
        mean_latency_slots: f64,
        /// Retransmission attempts across all packets.
        retries: u64,
        /// Q-routing value updates that settled.
        q_updates: u64,
    },
    /// A round finished (after `Protocol::on_round_end`).
    RoundEnded {
        round: u32,
        /// Alive nodes at the end of the round.
        alive: usize,
        /// Energy consumed network-wide this round (J).
        energy_j: f64,
        /// This round's cluster heads.
        heads: Vec<u32>,
        /// Residual energy per node (id order) at the round end (J).
        residuals_j: Vec<f64>,
    },
}

impl Event {
    /// The round the event belongs to.
    pub fn round(&self) -> u32 {
        match self {
            Event::RoundStarted { round, .. }
            | Event::HeadElected { round, .. }
            | Event::HeadWithdrawn { round, .. }
            | Event::PacketOutcome { round, .. }
            | Event::QUpdate { round, .. }
            | Event::NodeDied { round, .. }
            | Event::FaultInjected { round, .. }
            | Event::PacketRetried { round, .. }
            | Event::RoundSummary { round, .. }
            | Event::RoundEnded { round, .. } => *round,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference bytes: build the `Value` tree, then print it.
    fn via_tree(e: &Event) -> String {
        serde_json::to_string(&serde_json::to_value(e).unwrap()).unwrap()
    }

    /// Every variant, every fate, empty and non-empty lists, a `kind`
    /// that needs every escape, and floats at the formatter's edges:
    /// each streams as the tree prints it and reads back unchanged.
    #[test]
    fn events_stream_as_the_tree_and_roundtrip() {
        let fates = [
            PacketFate::Delivered { latency_slots: 4.0 },
            PacketFate::Delivered {
                latency_slots: 1e300,
            },
            PacketFate::DroppedLink,
            PacketFate::DroppedQueueFull,
            PacketFate::DroppedDeadline,
            PacketFate::DroppedAggregate,
            PacketFate::DroppedDead,
        ];
        let mut events: Vec<Event> = fates
            .iter()
            .map(|&fate| Event::PacketOutcome {
                round: 1,
                src: 3,
                fate,
            })
            .collect();
        events.extend([
            Event::RoundStarted {
                round: 0,
                alive: usize::MAX,
                sim_time: -0.0,
            },
            Event::HeadElected {
                round: 0,
                node: 7,
                residual_j: 5e-324,
            },
            Event::HeadWithdrawn {
                round: u32::MAX,
                node: 0,
            },
            Event::QUpdate {
                round: 1,
                node: 3,
                delta: -0.125,
            },
            Event::NodeDied { round: 2, node: 11 },
            Event::FaultInjected {
                round: 2,
                kind: "a\"b\\c\nd\re\tf\u{1}g\u{1f}h\u{e9}".to_string(),
                nodes: vec![4, 8],
            },
            Event::FaultInjected {
                round: 2,
                kind: String::new(),
                nodes: vec![],
            },
            Event::PacketRetried {
                round: 2,
                src: 6,
                attempt: 1,
            },
            Event::RoundSummary {
                round: 2,
                packets: u64::MAX,
                delivered: 0,
                mean_latency_slots: 2.5,
                retries: 6,
                q_updates: 80,
            },
            Event::RoundEnded {
                round: 2,
                alive: 99,
                energy_j: 0.75,
                heads: vec![7, 12],
                residuals_j: vec![5.0, 4.875, 1e-7],
            },
            Event::RoundEnded {
                round: 3,
                alive: 0,
                energy_j: 0.0,
                heads: vec![],
                residuals_j: vec![],
            },
        ]);
        for e in &events {
            let json = serde_json::to_string(e).unwrap();
            assert_eq!(json, via_tree(e), "{e:?}");
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, e, "roundtrip failed for {json}");
        }
        let escaped = serde_json::to_string(&events[12]).unwrap();
        assert!(
            escaped.contains(r#""kind":"a\"b\\c\nd\re\tf\u0001g\u001fhé""#),
            "{escaped}"
        );
        let floats = serde_json::to_string(&events[7]).unwrap();
        assert!(floats.ends_with(r#""sim_time":-0.0}}"#), "{floats}");
    }

    /// A finite float over the whole exponent range.
    fn float(mantissa: f64, exp: i32) -> f64 {
        mantissa * 10f64.powi(exp)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn streamed_random_events_match_the_tree_printer(
            variant in 0usize..10,
            round in any::<u32>(),
            id in any::<u32>(),
            count in any::<u64>(),
            mantissa in -1.0f64..1.0,
            exp in -330i32..=307,
            ids in prop::collection::vec(any::<u32>(), 0..5),
            mantissas in prop::collection::vec(-1.0f64..1.0, 0..5),
            code_points in prop::collection::vec(0u32..0x300, 0..8),
        ) {
            let x = float(mantissa, exp);
            let fate = match count % 6 {
                0 => PacketFate::Delivered { latency_slots: x },
                1 => PacketFate::DroppedLink,
                2 => PacketFate::DroppedQueueFull,
                3 => PacketFate::DroppedDeadline,
                4 => PacketFate::DroppedAggregate,
                _ => PacketFate::DroppedDead,
            };
            let e = match variant {
                0 => Event::RoundStarted { round, alive: count as usize, sim_time: x },
                1 => Event::HeadElected { round, node: id, residual_j: x },
                2 => Event::HeadWithdrawn { round, node: id },
                3 => Event::PacketOutcome { round, src: id, fate },
                4 => Event::QUpdate { round, node: id, delta: x },
                5 => Event::NodeDied { round, node: id },
                6 => Event::FaultInjected {
                    round,
                    kind: code_points.iter().filter_map(|&c| char::from_u32(c)).collect(),
                    nodes: ids,
                },
                7 => Event::PacketRetried { round, src: id, attempt: id / 2 },
                8 => Event::RoundSummary {
                    round,
                    packets: count,
                    delivered: count / 3,
                    mean_latency_slots: x,
                    retries: u64::from(id),
                    q_updates: count.wrapping_mul(7),
                },
                _ => Event::RoundEnded {
                    round,
                    alive: id as usize,
                    energy_j: x,
                    heads: ids,
                    residuals_j: mantissas.iter().map(|&m| float(m, exp)).collect(),
                },
            };
            prop_assert_eq!(serde_json::to_string(&e).unwrap(), via_tree(&e));
        }
    }

    #[test]
    fn round_accessor_covers_all_variants() {
        assert_eq!(
            Event::RoundStarted {
                round: 3,
                alive: 1,
                sim_time: 0.0
            }
            .round(),
            3
        );
        assert_eq!(Event::NodeDied { round: 9, node: 0 }.round(), 9);
        assert_eq!(
            Event::FaultInjected {
                round: 4,
                kind: "bs-outage".to_string(),
                nodes: vec![]
            }
            .round(),
            4
        );
        assert_eq!(
            Event::PacketRetried {
                round: 7,
                src: 2,
                attempt: 2
            }
            .round(),
            7
        );
        assert_eq!(
            Event::RoundSummary {
                round: 5,
                packets: 1,
                delivered: 1,
                mean_latency_slots: 1.0,
                retries: 0,
                q_updates: 2
            }
            .round(),
            5
        );
    }
}
