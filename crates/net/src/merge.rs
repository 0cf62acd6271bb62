//! Stage-2 merge of the round engine: committing the planned member
//! packets against the live network.
//!
//! Stage 1 (`sim.rs`) routes every member's packets against the frozen
//! post-election network, in parallel. This module is stage 2: the plans
//! meet merge-time reality — head batteries that drain as receptions
//! land, queues that fill, heads that die mid-round — under one explicit
//! API ([`MergePlan`] in, [`MergeOutcome`] out) and one entry point,
//! [`commit`]: a single ordered walk over the round's events in global
//! `(time, node)` order, at every thread count.
//!
//! A planned packet meets one of three merge-time fates:
//!
//! * **replayed** — its plan resolves against the live network as
//!   stage 1 predicted it: a BS delivery, link-failure exhaustion, the
//!   sender's own battery death, or an accepted queue offer. No master
//!   RNG.
//! * **conflicted** — its terminal hop meets a head that died mid-merge
//!   or a queue verdict (full or past the fusion deadline) stage 1 could
//!   not know. Counted per cause in [`MergeOutcome`]; with the retry
//!   budget spent, the refusal is the packet's fate.
//! * **retargeted** — a conflict with retry budget left. The packet
//!   re-enters `choose_target` against the live network and every hop
//!   samples the *master* RNG, so it must run in exact global order.
//!
//! Retargets interleave with replays in that order, and under saturation
//! they come early in the round (N = 10k at λ = 5 retargets 63 % of
//! generated packets), so no useful prefix of the round can be proven
//! independent of them and committed ahead of the walk: a parallel
//! per-head pre-pass that tried left 99.9 % of packets to the walk. The
//! walk is the serial part of a round; the scale bench reports its share
//! of wall time per row (`merge_share`), the Amdahl bound on thread
//! scaling.

use crate::metrics::{EnergyBreakdown, PacketCounters};
use crate::network::Network;
use crate::node::NodeId;
use crate::packet::{Packet, Target};
use crate::protocol::{PlanScratch, Protocol};
use crate::queue::{ChQueue, Offer, QueueDrop};
use crate::sim::SimConfig;
use qlec_fault::FaultDriver;
use qlec_geom::stats::Welford;
use qlec_obs::{Event, ObserverSet, PacketFate};
use qlec_radio::link::{AnyLink, LinkModel};
use rand::{Rng, RngCore};

/// Terminal failure cause of a member packet, attributed to its final
/// attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FailCause {
    Dead,
    Link,
    QueueFull,
    Deadline,
}

/// One planned radio attempt of a member packet (stage 1). `e` is the
/// *requested* transmit draw; the merge replays it against the live
/// battery with the same `can_supply`/`consume` guards as a live
/// attempt, so a battery death planned in stage 1 (or induced by an
/// earlier live continuation) resolves identically.
#[derive(Clone, Copy)]
pub(crate) enum PlannedAttempt {
    /// The hop failed: a radio/link loss, or the sender's battery could
    /// not cover the draw (the merge's `can_supply` guard re-detects
    /// the death).
    Failed { target: Target, e: f64 },
    /// A direct hop to the BS succeeded.
    DeliveredBs { e: f64 },
    /// The radio hop to head `h` landed; the queue verdict (and the
    /// head's aliveness at reception) resolve at merge time.
    ToHead { h: NodeId, e: f64 },
}

/// Stage-1 plan for one member packet: its attempts in order. Empty when
/// the sender was already dead at the arrival time (the merge's live
/// aliveness check skips the packet — a dead plan implies a dead live
/// battery, since the live trajectory only ever drains more).
pub(crate) type PacketPlan = Vec<PlannedAttempt>;

/// One member node's stage-1 state for the current round.
pub(crate) struct PlannedNode {
    pub(crate) src: NodeId,
    /// This node's packet arrivals this round (their times live in the
    /// round's event list; planning needs only the count).
    pub(crate) arrivals: usize,
    /// One plan per arrival, in arrival order.
    pub(crate) packets: Vec<PacketPlan>,
    /// The planner's scratch, absorbed into the protocol after the merge.
    pub(crate) scratch: Option<PlanScratch>,
    /// Merge read position into `packets`.
    pub(crate) cursor: usize,
}

/// Sample one radio transmission, honouring any active fault directives:
/// a BS outage fails every hop whose receiver is the BS (the caller has
/// already charged the transmit energy), and an active per-pair
/// degradation scales the loss rate — `p_eff = 1 − min(1, (1 − p) · mult)`.
/// When no directive covers the pair this is exactly `link.sample` with
/// an identical RNG draw count, so rounds (and whole runs) without active
/// faults reproduce the baseline random sequence.
pub(crate) fn sample_hop(
    faults: Option<&FaultDriver>,
    link: &AnyLink,
    rng: &mut dyn RngCore,
    d: f64,
    src: u32,
    dst: Option<u32>,
) -> bool {
    let Some(f) = faults else {
        return link.sample(rng, d);
    };
    if dst.is_none() && f.bs_down() {
        return false;
    }
    let mult = f.loss_multiplier(src, dst);
    if mult == 1.0 {
        return link.sample(rng, d);
    }
    let p = 1.0 - ((1.0 - link.delivery_probability(d)) * mult).min(1.0);
    rng.gen::<f64>() < p
}

/// The immutable inputs of one round's merge: the time-ordered event
/// list, the per-node lookup tables built during election/traffic, and
/// the round configuration.
pub(crate) struct MergePlan<'a> {
    /// (arrival time, source) packet-generation events, time-ordered.
    pub(crate) events: &'a [(f64, NodeId)],
    /// node index → position in the member-plan list (`-1` = unplanned:
    /// a head, a dead node, or no arrivals).
    pub(crate) plan_index: &'a [i32],
    /// node index → this round's queue slot (`-1` = not a head).
    pub(crate) head_slot: &'a [i32],
    /// This round's elected heads, in election order (slot `s` belongs
    /// to `heads[s]`).
    pub(crate) heads: &'a [NodeId],
    pub(crate) round: u32,
    pub(crate) cfg: &'a SimConfig,
}

/// The mutable simulation state the merge commits into. Every field is a
/// disjoint borrow of the round engine's state, so the walk can thread
/// battery draws, queue verdicts, protocol hooks, and event emissions
/// exactly as the pre-extraction inline loop did.
pub(crate) struct MergeState<'a, P: Protocol + ?Sized> {
    pub(crate) net: &'a mut Network,
    pub(crate) protocol: &'a mut P,
    /// The master RNG — consumed only by live continuations (retarget
    /// link samples), never by replays, which is why walk order alone
    /// preserves the sequential draw order.
    pub(crate) rng: &'a mut dyn RngCore,
    pub(crate) faults: Option<&'a FaultDriver>,
    /// One queue per head, indexed by queue slot.
    pub(crate) queues: &'a mut [ChQueue],
    pub(crate) obs: &'a ObserverSet,
    pub(crate) counters: &'a mut PacketCounters,
    pub(crate) latency: &'a mut Welford,
    pub(crate) breakdown: &'a mut EnergyBreakdown,
    pub(crate) next_packet_id: &'a mut u64,
}

/// What one round's merge did, for the profiler, the scale bench, and
/// the equivalence tests: how often a plan ran into merge-time reality
/// (split by cause) and how many packets entered the live-retargeting
/// continuation. Every counter is walk-observed, so the outcome is
/// identical at every thread count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Planned hops refused by live state: a head dead at reception or
    /// a queue verdict the plan could not know.
    pub(crate) conflicts: u64,
    /// Packets that entered the master-RNG live continuation.
    pub(crate) retargets: u64,
    /// Conflicts whose cause was a head dead at reception.
    pub(crate) conflict_dead_head: u64,
    /// Conflicts whose cause was a full queue.
    pub(crate) conflict_queue_full: u64,
    /// Conflicts whose cause was the fusion deadline.
    pub(crate) conflict_deadline: u64,
}

impl MergeOutcome {
    /// Planned hops refused by live merge state (dead head at reception
    /// or a queue verdict stage 1 could not know).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Packets that entered the master-RNG live-retarget continuation.
    pub fn retargets(&self) -> u64 {
        self.retargets
    }

    /// Conflicts caused by a head dead at reception.
    pub fn conflict_dead_head(&self) -> u64 {
        self.conflict_dead_head
    }

    /// Conflicts caused by a full head queue.
    pub fn conflict_queue_full(&self) -> u64 {
        self.conflict_queue_full
    }

    /// Conflicts caused by the end-of-round fusion deadline.
    pub fn conflict_deadline(&self) -> u64 {
        self.conflict_deadline
    }

    /// Check the outcome's internal consistency and return the
    /// violations (empty = healthy). The corpus runner and soak harness
    /// call this beside [`crate::SimReport::check_invariants`]: the
    /// conflict total must equal its cause split
    /// (`dead_head + queue_full + deadline`).
    pub fn check_invariants(&self) -> Vec<String> {
        let mut v = Vec::new();
        let causes = self.conflict_dead_head + self.conflict_queue_full + self.conflict_deadline;
        if self.conflicts != causes {
            v.push(format!(
                "conflicts {} != cause split {causes} (dead {}, full {}, deadline {})",
                self.conflicts,
                self.conflict_dead_head,
                self.conflict_queue_full,
                self.conflict_deadline
            ));
        }
        v
    }

    /// Fold another round's outcome into a running total.
    pub(crate) fn accumulate(&mut self, other: &MergeOutcome) {
        self.conflicts += other.conflicts;
        self.retargets += other.retargets;
        self.conflict_dead_head += other.conflict_dead_head;
        self.conflict_queue_full += other.conflict_queue_full;
        self.conflict_deadline += other.conflict_deadline;
    }
}

/// Commit one round's plans: the ordered walk.
///
/// Replays plans in global `(time, node)` order: packet ids, battery
/// consumes, head receptions, queue offers, counters, latency, events,
/// and the per-hop protocol hooks — all sequential and deterministic.
/// Queue verdicts and head aliveness are decided here (a head's battery
/// evolves with the merged receptions): a planned hop onto a head that
/// died mid-merge is a link drop, and a refused queue offer is terminal;
/// both push the packet into the live continuation, which re-decides
/// against the live network with the master RNG (the MDP's self-loop
/// semantics).
pub(crate) fn commit<P: Protocol + ?Sized>(
    plan: &MergePlan<'_>,
    planned: &mut [PlannedNode],
    st: &mut MergeState<'_, P>,
) -> MergeOutcome {
    let cfg = plan.cfg;
    let round = plan.round;
    let link = st.net.link;
    let radio = st.net.radio;
    let mut stats = MergeOutcome::default();

    for &(time, src) in plan.events.iter() {
        let pi = plan.plan_index[src.index()];
        if pi < 0 {
            // A head's own sensing packet: checked and queued live —
            // its battery is drained by the merged receptions, so its
            // aliveness is only known here.
            if !st.net.node(src).is_alive() {
                continue; // died earlier this round; generates nothing
            }
            st.counters.generated += 1;
            let pkt = Packet {
                id: *st.next_packet_id,
                src,
                created_at: time,
                bits: cfg.packet_bits,
            };
            *st.next_packet_id += 1;
            let src_slot = plan.head_slot[src.index()];
            debug_assert!(src_slot >= 0, "unplanned generator must be a head");
            let q = &mut st.queues[src_slot as usize];
            let fate = match q.offer(pkt, time) {
                Offer::Accepted { .. } => None,
                Offer::Dropped(QueueDrop::Full) => {
                    st.counters.dropped_queue_full += 1;
                    Some(PacketFate::DroppedQueueFull)
                }
                Offer::Dropped(QueueDrop::Deadline) => {
                    st.counters.dropped_deadline += 1;
                    Some(PacketFate::DroppedDeadline)
                }
            };
            if st.obs.is_active() {
                if let Some(fate) = fate {
                    st.obs.emit(Event::PacketOutcome {
                        round,
                        src: src.0,
                        fate,
                    });
                }
            }
            continue;
        }

        let k = {
            let pn = &mut planned[pi as usize];
            let k = pn.cursor;
            pn.cursor += 1;
            k
        };
        if !st.net.node(src).is_alive() {
            continue; // died earlier this round; generates nothing
        }
        let pkt_plan = &planned[pi as usize].packets[k];
        st.counters.generated += 1;
        let pkt = Packet {
            id: *st.next_packet_id,
            src,
            created_at: time,
            bits: cfg.packet_bits,
        };
        *st.next_packet_id += 1;

        // Replay the planned attempts against the live network.
        // Exactly one outcome bucket is incremented per packet,
        // attributed to the *final* attempt's failure cause.
        let mut fail = FailCause::Link;
        let mut resolved = false;
        let mut attempt: u32 = 0;
        st.protocol.on_packet_start(src);
        for att in pkt_plan.iter() {
            if !st.net.node(src).is_alive() {
                fail = FailCause::Dead;
                break;
            }
            if attempt > 0 {
                st.counters.retried += 1;
                if st.obs.is_active() {
                    st.obs.emit(Event::PacketRetried {
                        round,
                        src: src.0,
                        attempt,
                    });
                }
            }
            let attempt_time = time + attempt as f64 * cfg.hop_delay;
            let (target, e) = match *att {
                PlannedAttempt::Failed { target, e } => (target, e),
                PlannedAttempt::DeliveredBs { e } => (Target::Bs, e),
                PlannedAttempt::ToHead { h, e } => (Target::Head(h), e),
            };
            let sender = st.net.node_mut(src);
            if !sender.battery.can_supply(e) {
                // The planned draw drains the battery flat — the
                // plan's own death, or an earlier live continuation
                // spent extra energy the plan didn't know about.
                st.breakdown.member_tx += sender.battery.consume(e);
                st.protocol.on_hop_result(src, target, false);
                fail = FailCause::Dead;
                break;
            }
            sender.battery.consume(e);
            st.breakdown.member_tx += e;
            match *att {
                PlannedAttempt::Failed { .. } => {
                    fail = FailCause::Link;
                    st.protocol.on_hop_result(src, target, false);
                }
                PlannedAttempt::DeliveredBs { .. } => {
                    st.counters.delivered += 1;
                    let lat = attempt_time + cfg.hop_delay - pkt.created_at;
                    st.latency.push(lat);
                    if st.obs.is_active() {
                        st.obs.emit(Event::PacketOutcome {
                            round,
                            src: src.0,
                            fate: PacketFate::Delivered { latency_slots: lat },
                        });
                    }
                    st.protocol.on_hop_result(src, target, true);
                    resolved = true;
                }
                PlannedAttempt::ToHead { h, .. } => {
                    let h_slot = plan.head_slot[h.index()];
                    if !st.net.node(h).is_alive() || h_slot < 0 {
                        // The head ran dry earlier in the merge: the
                        // planned hop lands on a dead radio.
                        stats.conflicts += 1;
                        stats.conflict_dead_head += 1;
                        fail = FailCause::Link;
                        st.protocol.on_hop_result(src, target, false);
                    } else {
                        // Reception costs the head energy even if its
                        // queue then refuses the packet.
                        st.breakdown.head_rx += st
                            .net
                            .node_mut(h)
                            .battery
                            .consume(radio.rx_energy(cfg.packet_bits));
                        let q = &mut st.queues[h_slot as usize];
                        match q.offer(pkt, attempt_time + cfg.hop_delay) {
                            Offer::Accepted { .. } => {
                                st.protocol.on_hop_result(src, target, true);
                                resolved = true;
                            }
                            Offer::Dropped(reason) => {
                                // A planned hop refused by the live
                                // queue state — stage 1 could not
                                // have known.
                                stats.conflicts += 1;
                                fail = match reason {
                                    QueueDrop::Full => {
                                        stats.conflict_queue_full += 1;
                                        FailCause::QueueFull
                                    }
                                    QueueDrop::Deadline => {
                                        stats.conflict_deadline += 1;
                                        FailCause::Deadline
                                    }
                                };
                                st.protocol.on_hop_result(src, target, false);
                            }
                        }
                    }
                }
            }
            attempt += 1;
            if resolved {
                break;
            }
        }

        // Live continuation: the plan ended on a contingency stage 1
        // could not resolve — a queue refusal or a head that died
        // mid-merge. The remaining retries re-decide against the
        // live network (the MDP's self-loop semantics), drawing from
        // the master RNG; the walk is sequential, so this stays
        // identical at every thread count.
        if !resolved && !matches!(fail, FailCause::Dead) {
            if attempt <= cfg.member_retries {
                stats.retargets += 1;
            }
            while attempt <= cfg.member_retries {
                if !st.net.node(src).is_alive() {
                    fail = FailCause::Dead;
                    break;
                }
                if attempt > 0 {
                    st.counters.retried += 1;
                    if st.obs.is_active() {
                        st.obs.emit(Event::PacketRetried {
                            round,
                            src: src.0,
                            attempt,
                        });
                    }
                }
                let attempt_time = time + attempt as f64 * cfg.hop_delay;
                let target = st
                    .protocol
                    .choose_target(st.net, src, plan.heads, &mut *st.rng);
                let d = match target {
                    Target::Bs => st.net.dist_to_bs(src),
                    Target::Head(h) => st.net.distance(src, h),
                };
                let e = radio.tx_energy(cfg.packet_bits, d);
                let sender = st.net.node_mut(src);
                if !sender.battery.can_supply(e) {
                    st.breakdown.member_tx += sender.battery.consume(e);
                    st.protocol.on_hop_result(src, target, false);
                    fail = FailCause::Dead;
                    break;
                }
                sender.battery.consume(e);
                st.breakdown.member_tx += e;
                match target {
                    Target::Bs => {
                        if sample_hop(st.faults, &link, &mut *st.rng, d, src.0, None) {
                            st.counters.delivered += 1;
                            let lat = attempt_time + cfg.hop_delay - pkt.created_at;
                            st.latency.push(lat);
                            if st.obs.is_active() {
                                st.obs.emit(Event::PacketOutcome {
                                    round,
                                    src: src.0,
                                    fate: PacketFate::Delivered { latency_slots: lat },
                                });
                            }
                            st.protocol.on_hop_result(src, target, true);
                            resolved = true;
                        } else {
                            fail = FailCause::Link;
                            st.protocol.on_hop_result(src, target, false);
                        }
                    }
                    Target::Head(h) => {
                        let head_alive = st.net.node(h).is_alive();
                        let radio_ok =
                            sample_hop(st.faults, &link, &mut *st.rng, d, src.0, Some(h.0));
                        let h_slot = plan.head_slot[h.index()];
                        if !radio_ok || !head_alive || h_slot < 0 {
                            fail = FailCause::Link;
                            st.protocol.on_hop_result(src, target, false);
                        } else {
                            st.breakdown.head_rx += st
                                .net
                                .node_mut(h)
                                .battery
                                .consume(radio.rx_energy(cfg.packet_bits));
                            let q = &mut st.queues[h_slot as usize];
                            match q.offer(pkt, attempt_time + cfg.hop_delay) {
                                Offer::Accepted { .. } => {
                                    st.protocol.on_hop_result(src, target, true);
                                    resolved = true;
                                }
                                Offer::Dropped(reason) => {
                                    fail = match reason {
                                        QueueDrop::Full => FailCause::QueueFull,
                                        QueueDrop::Deadline => FailCause::Deadline,
                                    };
                                    st.protocol.on_hop_result(src, target, false);
                                }
                            }
                        }
                    }
                }
                attempt += 1;
                if resolved {
                    break;
                }
            }
        }

        if !resolved {
            let fate = match fail {
                FailCause::Dead => {
                    st.counters.dropped_dead += 1;
                    PacketFate::DroppedDead
                }
                FailCause::Link => {
                    st.counters.dropped_link += 1;
                    PacketFate::DroppedLink
                }
                FailCause::QueueFull => {
                    st.counters.dropped_queue_full += 1;
                    PacketFate::DroppedQueueFull
                }
                FailCause::Deadline => {
                    st.counters.dropped_deadline += 1;
                    PacketFate::DroppedDeadline
                }
            };
            if st.obs.is_active() {
                st.obs.emit(Event::PacketOutcome {
                    round,
                    src: src.0,
                    fate,
                });
            }
        }
    }

    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use crate::protocol::GreedyEnergyProtocol;
    use crate::sim::Simulator;
    use qlec_obs::{JsonLinesSink, ObserverSet};
    use qlec_radio::link::DistanceLossLink;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    #[test]
    fn outcome_invariants_catch_split_breaks() {
        assert_eq!(
            MergeOutcome::default().check_invariants(),
            Vec::<String>::new()
        );
        let healthy = MergeOutcome {
            conflicts: 3,
            retargets: 2,
            conflict_dead_head: 1,
            conflict_queue_full: 2,
            ..MergeOutcome::default()
        };
        assert_eq!(healthy.check_invariants(), Vec::<String>::new());
        let mut broken = healthy;
        broken.conflict_deadline = 9; // split no longer sums to conflicts
        assert!(broken.check_invariants()[0].contains("cause split"));
    }

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

    /// One observed run at the given thread count: the deterministic
    /// JSON-lines event stream plus the serialized report.
    fn run_observed(threads: usize) -> (String, String) {
        let mut rng = StdRng::seed_from_u64(11);
        let net = NetworkBuilder::new()
            .link(AnyLink::DistanceLoss(DistanceLossLink::for_cube(200.0)))
            .uniform_cube(&mut rng, 60, 200.0, 5.0);
        let buf = SharedBuf::default();
        let sink = JsonLinesSink::new(buf.clone())
            .expect("in-memory sink")
            .deterministic();
        let mut obs = ObserverSet::new();
        obs.attach(Arc::new(Mutex::new(sink)));
        let mut cfg = SimConfig::paper(1.0);
        cfg.rounds = 6;
        cfg.threads = threads;
        let mut protocol = GreedyEnergyProtocol::new(4);
        let mut run_rng = StdRng::seed_from_u64(12);
        let report = Simulator::builder(net)
            .config(cfg)
            .observers(obs.clone())
            .build()
            .run(&mut protocol, &mut run_rng);
        obs.flush().expect("sink flush");
        let stream = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf8 stream");
        // `report.threads` records the *resolved* worker count — the one
        // field whose value legitimately tracks the knob under test — so
        // the equivalence diff compares the report without it.
        assert_eq!(report.threads, threads.max(1), "resolved count recorded");
        let mut value = serde_json::to_value(&report).expect("report serializes");
        if let serde::Value::Object(fields) = &mut value {
            fields.retain(|(k, _)| k != "threads");
        }
        let report_json = serde_json::to_string(&value).expect("report serializes");
        (stream, report_json)
    }

    /// Every thread count produces identical reports and identical
    /// event streams: planning fans out across the pool, and the walk
    /// commits the plans in the same global order either way.
    #[test]
    fn commit_is_thread_invariant() {
        let (seq_stream, seq_report) = run_observed(1);
        assert!(
            seq_stream.lines().count() > 100,
            "baseline must carry real traffic"
        );
        for threads in [2, 4] {
            let (stream, report) = run_observed(threads);
            assert!(
                stream == seq_stream,
                "event stream diverged at threads={threads}"
            );
            assert_eq!(seq_report, report, "report diverged at threads={threads}");
        }
    }
}
