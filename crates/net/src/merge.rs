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
//! The plans arrive in one round-scoped arena, not one allocation per
//! packet: every planned attempt of the round sits in one flat
//! [`PlannedAttempt`] buffer, packet after packet in `(node, arrival)`
//! order, and a bounds vector delimits each packet's range. A member's
//! packets are contiguous, so a [`PlannedNode`] carries only its first
//! packet index and a read cursor. Stage 1 fills the arena from one
//! chunk of nodes per worker and appends the chunks in node order; the
//! engine keeps the buffers from round to round, so once their capacity
//! is reached a round allocates only the planner's per-node scratch.
//!
//! Each member packet runs one attempt loop, the Data Transmission rule
//! of Alg. 1 with §4.2's ACK/retry: the sender pays the transmit draw,
//! the hop is acknowledged or refused, and a refusal retries while the
//! budget lasts. An attempt's target and radio verdict come from one of
//! two places:
//!
//! * **the plan**, while it lasts. No master RNG is drawn. A planned hop
//!   that lands on a head which died earlier in the merge, or that the
//!   head's queue refuses (full, or past the fusion deadline), met a
//!   verdict stage 1 could not know: that refusal is a *conflict*,
//!   counted per cause in [`MergeOutcome`].
//! * **the live network**, once the plan is spent with the packet's fate
//!   still open and retry budget left. The packet goes live once
//!   (counted in `retargets`); each further attempt asks
//!   `Protocol::choose_target` and samples the *master* RNG, so it must
//!   run in exact global order. A live refusal is an ordinary retry, not
//!   a conflict.
//!
//! Every terminal fate is settled by one helper, [`settle`], which the
//! aggregation phase in `sim.rs` shares.
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
use crate::protocol::Protocol;
use crate::queue::{ChQueue, Offer, QueueDrop};
use crate::sim::SimConfig;
use qlec_fault::FaultDriver;
use qlec_geom::stats::Welford;
use qlec_obs::{Event, ObserverSet, PacketFate};
use qlec_radio::link::{AnyLink, LinkModel};
use rand::{Rng, RngCore};

/// One radio attempt of a member packet: its target, the *requested*
/// transmit draw `e`, and the radio verdict `ok`. A planned attempt's
/// verdict is stage 1's: for a head hop, the radio landed on a head that
/// was alive with a queue slot at plan time (the head's aliveness at
/// reception and the queue verdict resolve at merge time). The merge
/// replays `e` against the live battery with the same
/// `can_supply`/`consume` guards as a live attempt, so a battery death
/// planned in stage 1 (or induced by an earlier live continuation)
/// resolves identically.
///
/// A round's planned attempts live in one arena, packet after packet in
/// `(node, arrival)` order: packet `p`'s attempts are
/// `attempts[bounds[p]..bounds[p + 1]]` (see [`MergePlan`]). The range is
/// empty when the sender was already dead at the arrival time (the
/// merge's live aliveness check skips the packet — a dead plan implies a
/// dead live battery, since the live trajectory only ever drains more).
#[derive(Clone, Copy)]
pub(crate) struct PlannedAttempt {
    pub(crate) target: Target,
    pub(crate) e: f64,
    pub(crate) ok: bool,
}

/// One member node's stage-1 entry for the current round.
#[derive(Clone)]
pub(crate) struct PlannedNode {
    pub(crate) src: NodeId,
    /// This node's packet arrivals this round (their times live in the
    /// round's event list; planning needs only the count).
    pub(crate) arrivals: u32,
    /// Arena index of this node's first packet: its packets are
    /// `first_packet..first_packet + arrivals`, one per arrival, in
    /// arrival order.
    pub(crate) first_packet: u32,
    /// Merge read position: the packets already walked.
    pub(crate) cursor: u32,
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

/// Settle one packet's terminal fate: bump its counter, push its latency
/// when it was delivered, and emit its `PacketOutcome` when observed.
/// Every fate of the round — a head's own refused packet, a member
/// packet's walk, and the aggregation phase — is settled here.
pub(crate) fn settle(
    counters: &mut PacketCounters,
    latency: &mut Welford,
    obs: &ObserverSet,
    round: u32,
    src: NodeId,
    fate: PacketFate,
) {
    counters.record(&fate);
    if let PacketFate::Delivered { latency_slots } = fate {
        latency.push(latency_slots);
    }
    if obs.is_active() {
        obs.emit(Event::PacketOutcome {
            round,
            src: src.0,
            fate,
        });
    }
}

/// The fate of a packet a head queue refused.
fn refused(reason: QueueDrop) -> PacketFate {
    match reason {
        QueueDrop::Full => PacketFate::DroppedQueueFull,
        QueueDrop::Deadline => PacketFate::DroppedDeadline,
    }
}

/// The immutable inputs of one round's merge: the time-ordered event
/// list, the stage-1 plan arena, the per-node lookup tables built during
/// election/traffic, and the round configuration.
pub(crate) struct MergePlan<'a> {
    /// (arrival time, source) packet-generation events, time-ordered.
    pub(crate) events: &'a [(f64, NodeId)],
    /// Every planned attempt of the round, packet after packet.
    pub(crate) attempts: &'a [PlannedAttempt],
    /// Packet `p`'s attempts are `attempts[bounds[p]..bounds[p + 1]]`:
    /// one entry per planned packet plus a leading 0, non-decreasing,
    /// ending at `attempts.len()`.
    pub(crate) bounds: &'a [u32],
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

impl<P: Protocol + ?Sized> MergeState<'_, P> {
    /// Stamp the next packet id on a packet `src` generated at `time`,
    /// and count it generated.
    fn generate(&mut self, src: NodeId, time: f64, bits: u64) -> Packet {
        self.counters.generated += 1;
        let id = *self.next_packet_id;
        *self.next_packet_id += 1;
        Packet {
            id,
            src,
            created_at: time,
            bits,
        }
    }
}

/// Commit one round's plans: the ordered walk.
///
/// Walks the round's events in global `(time, node)` order: packet ids,
/// battery consumes, head receptions, queue offers, settled fates,
/// events, and the per-hop protocol hooks — all sequential and
/// deterministic. A head's own sensing packet goes straight into its
/// queue; a member packet runs the attempt loop of [`walk_packet`].
pub(crate) fn commit<P: Protocol + ?Sized>(
    plan: &MergePlan<'_>,
    planned: &mut [PlannedNode],
    st: &mut MergeState<'_, P>,
) -> MergeOutcome {
    let mut stats = MergeOutcome::default();
    for &(time, src) in plan.events.iter() {
        let pi = plan.plan_index[src.index()];
        let fate = if pi < 0 {
            // A head's own sensing packet: checked and queued live —
            // its battery is drained by the merged receptions, so its
            // aliveness is only known here.
            if !st.net.node(src).is_alive() {
                continue; // died earlier this round; generates nothing
            }
            let pkt = st.generate(src, time, plan.cfg.packet_bits);
            let slot = plan.head_slot[src.index()];
            debug_assert!(slot >= 0, "unplanned generator must be a head");
            match st.queues[slot as usize].offer(pkt, time) {
                Offer::Accepted { .. } => None,
                Offer::Dropped(reason) => Some(refused(reason)),
            }
        } else {
            let pn = &mut planned[pi as usize];
            let p = (pn.first_packet + pn.cursor) as usize;
            pn.cursor += 1;
            if !st.net.node(src).is_alive() {
                continue; // died earlier this round; generates nothing
            }
            let pkt = st.generate(src, time, plan.cfg.packet_bits);
            st.protocol.on_packet_start(src);
            let attempts = &plan.attempts[plan.bounds[p] as usize..plan.bounds[p + 1] as usize];
            walk_packet(plan, attempts, pkt, st, &mut stats)
        };
        if let Some(fate) = fate {
            settle(st.counters, st.latency, st.obs, plan.round, src, fate);
        }
    }
    stats
}

/// The attempt loop of one member packet. Attempts come from its plan
/// while the plan lasts; after that, while retry budget is left, from
/// the protocol's `choose_target` against the live network with a
/// master-RNG radio sample. Returns the packet's terminal fate, or
/// `None` when a head queue accepted it (the aggregation phase settles
/// it at round end).
fn walk_packet<P: Protocol + ?Sized>(
    plan: &MergePlan<'_>,
    attempts: &[PlannedAttempt],
    pkt: Packet,
    st: &mut MergeState<'_, P>,
    stats: &mut MergeOutcome,
) -> Option<PacketFate> {
    let cfg = plan.cfg;
    let src = pkt.src;
    let link = st.net.link;
    let radio = st.net.radio;
    // The latest attempt's failure: the packet's fate if no retry follows.
    let mut fate = PacketFate::DroppedLink;
    let mut attempt: u32 = 0;
    loop {
        let next = attempts.get(attempt as usize).copied();
        let planned = next.is_some();
        if !planned {
            if attempt > cfg.member_retries {
                return Some(fate);
            }
            if attempt as usize == attempts.len() {
                // The plan ran out on a contingency stage 1 could not
                // resolve: the remaining retries re-decide against the
                // live network (the MDP's self-loop semantics).
                stats.retargets += 1;
            }
        }
        if !st.net.node(src).is_alive() {
            return Some(PacketFate::DroppedDead);
        }
        if attempt > 0 {
            st.counters.retried += 1;
            if st.obs.is_active() {
                st.obs.emit(Event::PacketRetried {
                    round: plan.round,
                    src: src.0,
                    attempt,
                });
            }
        }
        let att = next.unwrap_or_else(|| {
            let target = st
                .protocol
                .choose_target(st.net, src, plan.heads, &mut *st.rng);
            let (d, dst) = match target {
                Target::Bs => (st.net.dist_to_bs(src), None),
                Target::Head(h) => (st.net.distance(src, h), Some(h.0)),
            };
            let e = radio.tx_energy(cfg.packet_bits, d);
            // The radio is sampled only for a draw the battery can pay,
            // and a head hop is sampled whether or not the head is alive.
            let ok = st.net.node(src).battery.can_supply(e)
                && sample_hop(st.faults, &link, &mut *st.rng, d, src.0, dst);
            PlannedAttempt { target, e, ok }
        });
        let sender = &mut st.net.node_mut(src).battery;
        if !sender.can_supply(att.e) {
            // The draw drains the battery flat — the plan's own death,
            // or an earlier live continuation spent extra energy the
            // plan didn't know about.
            st.breakdown.member_tx += sender.consume(att.e);
            st.protocol.on_hop_result(src, att.target, false);
            return Some(PacketFate::DroppedDead);
        }
        sender.consume(att.e);
        st.breakdown.member_tx += att.e;
        let landed = pkt.created_at + attempt as f64 * cfg.hop_delay + cfg.hop_delay;
        // `Ok` ends the walk (`None`: a head queue took the packet);
        // `Err` is this attempt's failure.
        let verdict = match att.target {
            _ if !att.ok => Err(PacketFate::DroppedLink),
            Target::Bs => Ok(Some(PacketFate::Delivered {
                latency_slots: landed - pkt.created_at,
            })),
            Target::Head(h) => {
                let slot = plan.head_slot[h.index()];
                if !st.net.node(h).is_alive() || slot < 0 {
                    // The head ran dry earlier in the merge: the hop
                    // lands on a dead radio.
                    if planned {
                        stats.conflicts += 1;
                        stats.conflict_dead_head += 1;
                    }
                    Err(PacketFate::DroppedLink)
                } else {
                    // Reception costs the head energy even if its queue
                    // then refuses the packet.
                    st.breakdown.head_rx += st
                        .net
                        .node_mut(h)
                        .battery
                        .consume(radio.rx_energy(cfg.packet_bits));
                    match st.queues[slot as usize].offer(pkt, landed) {
                        Offer::Accepted { .. } => Ok(None),
                        Offer::Dropped(reason) => {
                            if planned {
                                stats.conflicts += 1;
                                match reason {
                                    QueueDrop::Full => stats.conflict_queue_full += 1,
                                    QueueDrop::Deadline => stats.conflict_deadline += 1,
                                }
                            }
                            Err(refused(reason))
                        }
                    }
                }
            }
        };
        st.protocol.on_hop_result(src, att.target, verdict.is_ok());
        match verdict {
            Ok(done) => return done,
            Err(failed) => fate = failed,
        }
        attempt += 1;
    }
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
        let sink = JsonLinesSink::new(buf.clone()).expect("in-memory sink");
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
