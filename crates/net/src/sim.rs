//! The round engine.
//!
//! One simulated round follows Algorithm 1's two phases:
//!
//! 1. **Cluster Head Selection** — the protocol elects heads (charging any
//!    control-message energy itself).
//! 2. **Data Transmission** — alive members generate packets at Poisson
//!    times (§5.2) and the protocol routes each to a head or the BS; heads
//!    run bounded FIFO queues ([`crate::queue`]); at the round end every
//!    head fuses what it processed (50 % compression, Table 2), pays the
//!    aggregation energy `E_DA` per bit, and forwards the fused payload
//!    along the protocol's aggregate route to the BS.
//!
//! Every radio interaction draws the first-order-radio-model energy from
//! the respective battery and samples the link model, so energy, delivery,
//! and latency all emerge from one consistent event sequence.
//!
//! **Latency convention.** A delivered packet's latency is the time from
//! its creation until its head finished processing it, plus one
//! `hop_delay` per radio hop on the way to the BS. Queueing delay at a
//! congested head and extra relay hops (the FCM baseline) therefore both
//! show up in the metric; the shared end-of-round fusion wait, identical
//! across protocols, does not.

use crate::merge::{
    self, sample_hop, MergeOutcome, MergePlan, MergeState, PacketPlan, PlannedAttempt, PlannedNode,
};
use crate::metrics::{EnergyBreakdown, LifespanInfo, PacketCounters, RoundMetrics, SimReport};
use crate::network::Network;
use crate::node::NodeId;
use crate::packet::Target;
use crate::protocol::{PlanScratch, Protocol, RoutePlanner};
use crate::queue::ChQueue;
use crate::traffic::PoissonTraffic;
use qlec_fault::FaultDriver;
use qlec_geom::randx::{stream_tag, StreamRng};
use qlec_geom::stats::Welford;
use qlec_obs::{Event, ObserverSet, PacketFate, Phase};
use rand::{Rng, RngCore};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Simulation parameters. Defaults mirror §5.1/Table 2 where the paper
/// specifies them; the queueing/timing constants the paper leaves implicit
/// are documented on each field.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SimConfig {
    /// Rounds to simulate — the paper's `R = 20`.
    pub rounds: u32,
    /// Slots per round (the round duration `T`).
    pub slots_per_round: f64,
    /// Packet payload in bits (the paper's `L`).
    pub packet_bits: u64,
    /// Mean packet inter-arrival time λ in slots (Fig. 3's x-axis;
    /// smaller = more congested).
    pub mean_interarrival: f64,
    /// Cluster-head queue capacity ("limited storage caches", §4.2).
    pub queue_capacity: usize,
    /// Head service time per packet, slots.
    pub service_time: f64,
    /// Per-radio-hop forwarding delay, slots.
    pub hop_delay: f64,
    /// Data-fusion compression ratio at heads (Table 2: 50 %).
    pub compression: f64,
    /// Energy death line (J), §5.1.
    pub death_line: f64,
    /// Stop simulating once the death line is crossed (lifespan runs);
    /// otherwise run all `rounds` (PDR/energy runs — §5.1 "we lower the
    /// energy death line while measuring … energy … and packet delivery").
    pub stop_when_dead: bool,
    /// Extra attempts for each aggregate hop after the first fails.
    pub aggregate_retries: u32,
    /// Extra attempts for a member's packet after the first fails. The
    /// QLEC MDP's failure transition is a *self-loop* (`S_{t+1} = b_i`,
    /// §4.2) — the node still holds the packet and acts again, possibly
    /// toward a different head — so the simulator re-asks the protocol
    /// for a target on every retry. All protocols get the same retry
    /// budget. Each attempt costs transmit energy.
    pub member_retries: u32,
    /// Whether heads sense and contribute their own packets (fed straight
    /// into their queue, no radio hop).
    pub heads_generate: bool,
    /// Worker threads for the data-parallel phases of the round engine
    /// (`0` = use every available core). Pure throughput knob: traffic
    /// generation and member routing draw from per-(seed, round, node)
    /// RNG streams and are merged in stable node order, so event streams
    /// and reports are byte-identical at every setting.
    pub threads: usize,
}

impl SimConfig {
    /// Paper-shaped defaults at a given congestion level λ.
    pub fn paper(mean_interarrival: f64) -> Self {
        SimConfig {
            rounds: 20,
            slots_per_round: 100.0,
            packet_bits: 2_000,
            mean_interarrival,
            queue_capacity: 60,
            service_time: 0.2,
            hop_delay: 0.5,
            compression: 0.5,
            death_line: 0.0,
            stop_when_dead: false,
            aggregate_retries: 2,
            member_retries: 2,
            heads_generate: true,
            threads: 1,
        }
    }

    /// Validate invariants (positive durations, ratio in range, …).
    pub fn validate(&self) -> Result<(), String> {
        if self.slots_per_round <= 0.0 {
            return Err("slots_per_round must be positive".into());
        }
        if self.mean_interarrival <= 0.0 {
            return Err("mean_interarrival must be positive".into());
        }
        if self.service_time <= 0.0 {
            return Err("service_time must be positive".into());
        }
        if self.hop_delay < 0.0 {
            return Err("hop_delay must be non-negative".into());
        }
        if !(0.0..=1.0).contains(&self.compression) {
            return Err("compression must be in [0, 1]".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be positive".into());
        }
        if self.packet_bits == 0 {
            return Err("packet_bits must be positive".into());
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper(2.0)
    }
}

/// Per-round scratch buffers, reused across rounds so the hot loop
/// allocates O(1) per round instead of O(nodes + packets): at 10k nodes
/// the event list alone is tens of thousands of entries per round, and
/// the former per-head `HashMap` rebuild hashed every queue access.
#[derive(Default)]
struct RoundScratch {
    /// (arrival time, source) packet-generation events, time-ordered.
    events: Vec<(f64, NodeId)>,
    /// node index → this round's queue slot (`-1` = not a head).
    head_slot: Vec<i32>,
    /// One queue per head, in head order (buffers reused via
    /// [`ChQueue::reset`]).
    queues: Vec<ChQueue>,
    /// Per-queue-slot overflow ratio for relayed aggregates.
    relay_overflow: Vec<f64>,
    /// Alive bitmap at round start (observed runs only).
    alive_before: Vec<bool>,
    /// node index → position in this round's member-plan list (`-1` =
    /// not a planned member: a head, a dead node, or no arrivals).
    plan_index: Vec<i32>,
}

/// Runs a [`Protocol`] over a [`Network`] for the configured rounds.
pub struct Simulator {
    net: Network,
    cfg: SimConfig,
    next_packet_id: u64,
    obs: ObserverSet,
    faults: Option<FaultDriver>,
    scratch: RoundScratch,
    /// Worker pool for the data-parallel phases (`None` when the
    /// resolved thread count is 1).
    pool: Option<rayon::ThreadPool>,
    /// Root of the per-(round, node) RNG stream derivation, drawn once
    /// from the caller's RNG at the start of [`Simulator::run`].
    stream_seed: u64,
    /// Whole-run merge totals, accumulated round by round — returned by
    /// [`Simulator::run_with_outcome`].
    merge_totals: MergeOutcome,
}

/// Fluent assembly of a [`Simulator`] — network, configuration, faults,
/// observers, and threads in one place, mirroring `QlecBuilder`:
///
/// ```
/// use qlec_net::{NetworkBuilder, SimConfig, Simulator};
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(1);
/// let net = NetworkBuilder::new().uniform_cube(&mut rng, 50, 200.0, 5.0);
/// let sim = Simulator::builder(net)
///     .config(SimConfig::paper(2.0))
///     .threads(2)
///     .build();
/// ```
pub struct SimBuilder {
    net: Network,
    cfg: SimConfig,
    faults: Option<FaultDriver>,
    obs: ObserverSet,
}

impl SimBuilder {
    /// Replace the full simulation configuration (validated at
    /// [`Self::build`]). Defaults to [`SimConfig::default`].
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Override the worker-thread count (`0` = use every available
    /// core) on top of whatever [`Self::config`] set — the common case
    /// where the config is paper-shaped and only the throughput knob
    /// varies.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Attach a fault driver (`qlec-fault`): its plan's scheduled events
    /// — node crashes, battery drains, link degradations, region
    /// blackouts, BS outages — are applied at the start of each round and
    /// during that round's transmissions. The driver is bound to the
    /// network's node positions at [`Self::build`], so region blackouts
    /// resolve against the actual deployment.
    pub fn faults(mut self, driver: FaultDriver) -> Self {
        self.faults = Some(driver);
        self
    }

    /// Attach an observer set; every structured event of the run is
    /// fanned out to its sinks. An empty set (the default) costs one
    /// predictable branch per emission site.
    pub fn observers(mut self, obs: ObserverSet) -> Self {
        self.obs = obs;
        self
    }

    /// Validate the configuration and assemble the simulator.
    ///
    /// # Panics
    ///
    /// If the configuration fails [`SimConfig::validate`].
    pub fn build(self) -> Simulator {
        if let Err(e) = self.cfg.validate() {
            panic!("invalid SimConfig: {e}");
        }
        let mut sim = Simulator {
            net: self.net,
            cfg: self.cfg,
            next_packet_id: 0,
            obs: self.obs,
            faults: None,
            scratch: RoundScratch::default(),
            pool: None,
            stream_seed: 0,
            merge_totals: MergeOutcome::default(),
        };
        if let Some(mut driver) = self.faults {
            driver.bind(&sim.net.positions());
            sim.faults = Some(driver);
        }
        sim
    }
}

impl Simulator {
    /// Start configuring a simulator over a deployed network — see
    /// [`SimBuilder`].
    pub fn builder(net: Network) -> SimBuilder {
        SimBuilder {
            net,
            cfg: SimConfig::default(),
            faults: None,
            obs: ObserverSet::new(),
        }
    }

    /// The network in its current (possibly partially drained) state.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Run the full simulation, consuming the simulator.
    pub fn run<P: Protocol + ?Sized>(self, protocol: &mut P, rng: &mut dyn RngCore) -> SimReport {
        self.run_with_outcome(protocol, rng).0
    }

    /// Run the full simulation and also return the whole-run
    /// [`MergeOutcome`] totals: merge conflicts split by cause, and
    /// retargets (thread-invariant).
    pub fn run_with_outcome<P: Protocol + ?Sized>(
        mut self,
        protocol: &mut P,
        rng: &mut dyn RngCore,
    ) -> (SimReport, MergeOutcome) {
        let threads = if self.cfg.threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.cfg.threads
        };
        if threads > 1 {
            self.pool = Some(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("worker pool"),
            );
        }
        protocol.configure_threads(threads);
        if let Some(prof) = self.obs.profiler() {
            prof.set_threads(threads);
        }
        // Root all per-(round, node) streams in one draw so the caller's
        // RNG advances identically at every thread count.
        self.stream_seed = rng.next_u64();

        let mut rounds_out = Vec::with_capacity(self.cfg.rounds as usize);
        let mut totals = PacketCounters::default();
        let mut latency_all = Welford::new();
        let mut lifespan = LifespanInfo::default();

        for round in 0..self.cfg.rounds {
            let (metrics, round_latency) = self.run_round(protocol, rng, round);
            totals.add(&metrics.packets);
            latency_all.merge(&round_latency);
            let completed = round + 1;

            // Lifespan milestones (evaluated at round end).
            if lifespan.death_line_round.is_none() && metrics.min_residual < self.cfg.death_line {
                lifespan.death_line_round = Some(completed);
            }
            let dead = self.net.len() - metrics.alive_end;
            if lifespan.first_node_dead.is_none() && dead >= 1 {
                lifespan.first_node_dead = Some(completed);
            }
            if lifespan.half_nodes_dead.is_none() && dead * 2 >= self.net.len() {
                lifespan.half_nodes_dead = Some(completed);
            }
            if lifespan.last_node_dead.is_none() && dead == self.net.len() {
                lifespan.last_node_dead = Some(completed);
            }

            rounds_out.push(metrics);

            if self.cfg.stop_when_dead && lifespan.death_line_round.is_some() {
                break;
            }
        }

        let consumption_rates = self
            .net
            .arena()
            .batteries()
            .iter()
            .map(|b| b.consumption_rate())
            .collect();

        let report = SimReport {
            protocol: protocol.name().to_string(),
            rounds: rounds_out,
            totals,
            latency: latency_all,
            lifespan,
            consumption_rates,
            horizon: self.cfg.rounds,
            threads,
        };
        (report, self.merge_totals)
    }

    /// Execute one round; returns its metrics and latency accumulator.
    fn run_round<P: Protocol + ?Sized>(
        &mut self,
        protocol: &mut P,
        rng: &mut dyn RngCore,
        round: u32,
    ) -> (RoundMetrics, Welford) {
        let cfg = self.cfg;
        // Out-of-band phase profiling: spans record their wall into the
        // shared profiler and busy time goes there directly, never into
        // the event stream, so the `--events` bytes are identical with
        // and without a profiler attached.
        let prof = self.obs.profiler().cloned();
        let round_t0 = prof.as_ref().map(|p| p.now_ns());
        // A phase that runs on the simulation thread is busy for its
        // whole wall, on worker slot 0.
        let serial_busy = |phase: Phase, wall_ns: u64| {
            if let Some(p) = &prof {
                p.record_busy(phase, 0, wall_ns);
            }
        };

        // ---- Phase 0: scheduled fault injection ----------------------
        // Applied before anything else so crashed/blacked-out nodes are
        // invisible to election and traffic generation, and exogenous
        // battery drains stay out of the round's protocol energy ledger
        // (they are visible in per-node consumption rates). The driver is
        // moved into a local so the hop loops below can query it without
        // borrowing `self`.
        let mut faults = self.faults.take();
        let injected = if let Some(driver) = faults.as_mut() {
            let directives = driver.begin_round(round);
            for i in 0..self.net.len() {
                *self.net.node_mut(NodeId(i as u32)).online = true;
            }
            for &id in &directives.offline {
                if (id as usize) < self.net.len() {
                    *self.net.node_mut(NodeId(id)).online = false;
                }
            }
            for &(id, joules) in &directives.drains {
                if (id as usize) < self.net.len() {
                    self.net.node_mut(NodeId(id)).battery.consume(joules);
                }
            }
            directives.injected
        } else {
            Vec::new()
        };

        let energy_before = self.net.total_consumed();
        let round_start = round as f64 * cfg.slots_per_round;
        let deadline = round_start + cfg.slots_per_round;

        // ---- Phase 1: cluster-head selection -------------------------
        // Observability bookkeeping is gated on `is_active()` so an
        // unobserved run never constructs an event (or the alive bitmap).
        self.scratch.alive_before.clear();
        if self.obs.is_active() {
            self.obs.emit(Event::RoundStarted {
                round,
                alive: self.net.alive_count(),
                sim_time: round_start,
            });
            for f in &injected {
                self.obs.emit(Event::FaultInjected {
                    round,
                    kind: f.kind.to_string(),
                    nodes: f.nodes.clone(),
                });
            }
            self.scratch
                .alive_before
                .extend(self.net.iter().map(|n| n.is_alive()));
        }
        self.net.reset_roles();
        let election_span = self.obs.span_start();
        let heads = protocol.on_round_start(&mut self.net, round, rng);
        serial_busy(
            Phase::Election,
            self.obs.span_end(election_span, Phase::Election),
        );
        if self.obs.is_active() {
            for &h in &heads {
                self.obs.emit(Event::HeadElected {
                    round,
                    node: h.0,
                    residual_j: self.net.node(h).residual(),
                });
            }
        }
        // One queue slot per head; `head_slot` gives O(1) unhashed lookup
        // and the queue buffers carry over from round to round.
        self.scratch.head_slot.clear();
        self.scratch.head_slot.resize(self.net.len(), -1);
        let mut queues = std::mem::take(&mut self.scratch.queues);
        queues.truncate(heads.len());
        for q in queues.iter_mut() {
            q.reset(cfg.queue_capacity, cfg.service_time, deadline);
        }
        while queues.len() < heads.len() {
            queues.push(ChQueue::new(cfg.queue_capacity, cfg.service_time, deadline));
        }
        for (si, &h) in heads.iter().enumerate() {
            debug_assert_eq!(self.scratch.head_slot[h.index()], -1, "duplicate head {h}");
            self.scratch.head_slot[h.index()] = si as i32;
        }

        // ---- Phase 2: packet generation ------------------------------
        // Arrival times come from per-(seed, round, node) RNG streams,
        // not the master RNG, so every node's traffic is independent of
        // iteration order and thread count. Members with arrivals get a
        // plan slot for stage 1 below; heads' own packets skip planning
        // and are resolved live during the merge.
        let traffic_span = self.obs.span_start();
        let traffic = PoissonTraffic::new(cfg.mean_interarrival);
        let mut events = std::mem::take(&mut self.scratch.events);
        events.clear();
        self.scratch.plan_index.clear();
        self.scratch.plan_index.resize(self.net.len(), -1);
        let mut planned: Vec<PlannedNode> = Vec::new();
        for idx in 0..self.net.len() {
            let id = NodeId(idx as u32);
            let node = self.net.node(id);
            if !node.is_alive() {
                continue;
            }
            let is_head = self.scratch.head_slot[idx] >= 0;
            if is_head && !cfg.heads_generate {
                continue;
            }
            let mut trng =
                StreamRng::for_node(self.stream_seed, round, idx as u32, stream_tag::TRAFFIC);
            if is_head {
                traffic.for_each_arrival(&mut trng, round_start, cfg.slots_per_round, |t| {
                    events.push((t, id));
                });
            } else {
                let mut arrivals = 0;
                traffic.for_each_arrival(&mut trng, round_start, cfg.slots_per_round, |t| {
                    arrivals += 1;
                    events.push((t, id));
                });
                if arrivals > 0 {
                    self.scratch.plan_index[idx] = planned.len() as i32;
                    planned.push(PlannedNode {
                        src: id,
                        arrivals,
                        packets: Vec::new(),
                        scratch: None,
                        cursor: 0,
                    });
                }
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        serial_busy(
            Phase::Traffic,
            self.obs.span_end(traffic_span, Phase::Traffic),
        );

        // ---- Phase 2: member hops and head queues --------------------
        //
        // Two stages, one semantics at every thread count.
        //
        // *Stage 1 — plan.* Every member's packets are routed against the
        // frozen post-election network: target choices (PROTOCOL stream),
        // radio samples (LINK stream), and the sender's battery
        // trajectory, tracked locally with exact `Battery::consume`
        // arithmetic — exact because a member's battery is drained only
        // by its own transmissions. Protocols exposing a [`RoutePlanner`]
        // fan the member nodes out across the worker pool; the rest plan
        // sequentially through `choose_target`.
        //
        // *Stage 2 — merge.* Plans replay in global (time, node) order:
        // packet ids, battery consumes, head receptions, queue offers,
        // counters, latency, events, and the per-hop protocol hooks —
        // all sequential and deterministic. Queue verdicts and head
        // aliveness are decided here (a head's battery evolves with the
        // merged receptions): a planned hop onto a head that died
        // mid-merge is a link drop, and a refused queue offer is
        // terminal. Planner scratch is absorbed back in ascending node
        // order.
        let mut counters = PacketCounters::default();
        let mut latency = Welford::new();
        let mut breakdown = EnergyBreakdown::default();
        // Direct-to-BS deliveries complete immediately; queued packets
        // resolve at round end with their head's aggregate.
        let link = self.net.link;
        let radio = self.net.radio;

        let tx_span = self.obs.span_start();
        let has_planner = protocol.planner().is_some();
        let prof_ref = prof.as_deref();
        let plan_span = self.obs.span_start();
        {
            let net = &self.net;
            let head_slot = self.scratch.head_slot.as_slice();
            let stream_seed = self.stream_seed;
            let faults_ref = faults.as_ref();
            let heads_ref = heads.as_slice();
            if has_planner {
                let planner = protocol.planner().expect("planner() just returned Some");
                // `PlanScratch` is `Send` but not `Sync`, so the fan-out
                // iterates Sync job tuples rather than the nodes proper.
                let jobs: Vec<(NodeId, usize)> =
                    planned.iter().map(|pn| (pn.src, pn.arrivals)).collect();
                let plan_one = |job: &(NodeId, usize)| {
                    // Worker-local busy measurement: clock reads only,
                    // no shared state touched from the fan-out.
                    let t0 = prof_ref.map(|p| p.now_ns());
                    let (src, arrivals) = *job;
                    let mut t = PlannerTargeter {
                        planner,
                        scratch: planner.begin_node(net, src),
                    };
                    let packets = plan_member_packets(
                        net,
                        &cfg,
                        faults_ref,
                        heads_ref,
                        head_slot,
                        stream_seed,
                        round,
                        src,
                        arrivals,
                        &mut t,
                    );
                    let busy_ns = match (prof_ref, t0) {
                        (Some(p), Some(t0)) => p.now_ns().saturating_sub(t0),
                        _ => 0,
                    };
                    (packets, t.scratch, busy_ns)
                };
                type PlanJob = (Vec<PacketPlan>, PlanScratch, u64);
                let results: Vec<PlanJob> = match self.pool.as_ref() {
                    Some(pool) if jobs.len() > 1 => {
                        pool.install(|| jobs.par_iter().map(&plan_one).collect())
                    }
                    _ => jobs.iter().map(&plan_one).collect(),
                };
                drop(jobs);
                if let Some(p) = prof_ref {
                    // Attribute each job's busy time to the worker slot
                    // that ran it. The vendored rayon splits jobs into
                    // contiguous chunks of ceil(J / W) with
                    // W = current_num_threads().min(J), so job i runs on
                    // slot i / chunk_len; the sequential path is slot 0.
                    let n_jobs = results.len();
                    let workers = match self.pool.as_ref() {
                        Some(pool) if n_jobs > 1 => pool.current_num_threads().min(n_jobs),
                        _ => 1,
                    };
                    let chunk_len = n_jobs.div_ceil(workers.max(1)).max(1);
                    for (i, (_, _, busy_ns)) in results.iter().enumerate() {
                        p.record_busy(Phase::Plan, i / chunk_len, *busy_ns);
                    }
                }
                for (pn, (packets, scratch, _)) in planned.iter_mut().zip(results) {
                    pn.packets = packets;
                    pn.scratch = Some(scratch);
                }
            } else {
                for pn in planned.iter_mut() {
                    let mut t = ChooseTargeter {
                        protocol: &mut *protocol,
                    };
                    pn.packets = plan_member_packets(
                        net,
                        &cfg,
                        faults_ref,
                        heads_ref,
                        head_slot,
                        stream_seed,
                        round,
                        pn.src,
                        pn.arrivals,
                        &mut t,
                    );
                }
            }
        }
        let plan_wall = self.obs.span_end(plan_span, Phase::Plan);
        if !has_planner {
            // The choose_target fallback plans on the simulation thread;
            // the planner path recorded per-job busy above.
            serial_busy(Phase::Plan, plan_wall);
        }

        // ---- Stage 2: the merge (crate::merge) -----------------------
        // One explicit API: the immutable round inputs (MergePlan), the
        // mutable simulation state (MergeState), and the outcome counters
        // the profiler and the equivalence tests consume (MergeOutcome).
        // One ordered walk at every thread count, so the event stream is
        // byte-identical by construction.
        let merge_span = self.obs.span_start();
        let outcome = {
            let mplan = MergePlan {
                events: &events,
                plan_index: &self.scratch.plan_index,
                head_slot: &self.scratch.head_slot,
                heads: &heads,
                round,
                cfg: &cfg,
            };
            let mut st = MergeState {
                net: &mut self.net,
                protocol,
                rng,
                faults: faults.as_ref(),
                queues: &mut queues,
                obs: &self.obs,
                counters: &mut counters,
                latency: &mut latency,
                breakdown: &mut breakdown,
                next_packet_id: &mut self.next_packet_id,
            };
            merge::commit(&mplan, &mut planned, &mut st)
        };

        self.merge_totals.accumulate(&outcome);

        serial_busy(Phase::Merge, self.obs.span_end(merge_span, Phase::Merge));
        if let Some(p) = &prof {
            p.inc("merge.conflicts", outcome.conflicts);
            p.inc("merge.retargets", outcome.retargets);
            p.inc("merge.conflict_dead_head", outcome.conflict_dead_head);
            p.inc("merge.conflict_queue_full", outcome.conflict_queue_full);
            p.inc("merge.conflict_deadline", outcome.conflict_deadline);
        }

        // Absorb planner scratch (Q-value writes, link-table overlays)
        // back into the protocol, in stable ascending node order.
        for pn in planned.iter_mut() {
            if let Some(scratch) = pn.scratch.take() {
                protocol.absorb_plan(pn.src, scratch);
            }
        }
        self.obs.span_end(tx_span, Phase::Transmission);

        // ---- Phase 2: data fusion and aggregate forwarding -----------
        // A relay head's buffer pressure carries over to forwarded
        // aggregates: a head whose own queue overflowed this round
        // refuses a relayed aggregate with probability equal to its
        // overflow ratio ("limited storage caches of cluster heads",
        // §4.2 — this is the congestion mechanism behind the FCM
        // baseline's multi-hop losses in Fig. 3(a)).
        let agg_span = self.obs.span_start();
        let mut relay_overflow = std::mem::take(&mut self.scratch.relay_overflow);
        relay_overflow.clear();
        relay_overflow.extend(queues.iter().map(|q| {
            let refused = q.drops_full();
            let accepted = q.processed().len() as u64;
            let total = refused + accepted;
            if total == 0 {
                0.0
            } else {
                refused as f64 / total as f64
            }
        }));
        let mut head_loads = Vec::with_capacity(heads.len());
        for (si, &head) in heads.iter().enumerate() {
            let q = &queues[si];
            head_loads.push(crate::metrics::HeadLoad {
                head: head.0,
                accepted: q.processed().len() as u64,
                drops_full: q.drops_full(),
                drops_deadline: q.drops_deadline(),
                peak_occupancy: q.peak_occupancy(),
            });
            let processed = q.processed();
            if processed.is_empty() {
                continue;
            }
            let processed_bits = q.processed_bits();
            let agg_bits = ((processed_bits as f64 * cfg.compression).ceil() as u64).max(1);

            // Aggregation cost at the head (E_DA per incoming bit).
            let mut ok = self.net.node(head).is_alive();
            if ok {
                let e = radio.aggregation_energy(processed_bits);
                let b = &mut self.net.node_mut(head).battery;
                if b.can_supply(e) {
                    b.consume(e);
                    breakdown.aggregation += e;
                } else {
                    breakdown.aggregation += b.consume(e);
                    ok = false;
                }
            }

            // Forward the fused payload along the protocol's route.
            let route = if ok {
                let r = protocol.aggregate_route(&self.net, head, &heads);
                debug_assert_eq!(r.last(), Some(&Target::Bs), "route must end at the BS");
                r
            } else {
                Vec::new()
            };
            let mut cur = head;
            let mut hops_done = 0u32;
            for hop in route {
                if !ok {
                    break;
                }
                let (d, dst) = match hop {
                    Target::Bs => (self.net.dist_to_bs(cur), None),
                    Target::Head(h) => (self.net.distance(cur, h), Some(h.0)),
                };
                // Each attempt costs transmit energy; retries re-send.
                let mut hop_ok = false;
                for attempt in 0..=cfg.aggregate_retries {
                    if attempt > 0 {
                        counters.retried += 1;
                        if self.obs.is_active() {
                            self.obs.emit(Event::PacketRetried {
                                round,
                                src: cur.0,
                                attempt,
                            });
                        }
                    }
                    let e = radio.tx_energy(agg_bits, d);
                    let b = &mut self.net.node_mut(cur).battery;
                    if !b.can_supply(e) {
                        breakdown.aggregate_tx += b.consume(e);
                        break;
                    }
                    b.consume(e);
                    breakdown.aggregate_tx += e;
                    if sample_hop(faults.as_ref(), &link, rng, d, cur.0, dst) {
                        hop_ok = true;
                        break;
                    }
                }
                if !hop_ok {
                    ok = false;
                    break;
                }
                hops_done += 1;
                if let Target::Head(h) = hop {
                    if !self.net.node(h).is_alive() {
                        ok = false;
                        break;
                    }
                    // Congested relays refuse forwarded aggregates.
                    let overflow = match self.scratch.head_slot[h.index()] {
                        s if s >= 0 => relay_overflow[s as usize],
                        _ => 0.0,
                    };
                    if overflow > 0.0 && rng.gen::<f64>() < overflow {
                        ok = false;
                        break;
                    }
                    breakdown.aggregate_tx += self
                        .net
                        .node_mut(h)
                        .battery
                        .consume(radio.rx_energy(agg_bits));
                    cur = h;
                }
            }

            if ok {
                for (pkt, completed_at) in processed {
                    counters.delivered += 1;
                    let queueing = completed_at - pkt.created_at;
                    let lat = queueing + hops_done as f64 * cfg.hop_delay;
                    latency.push(lat);
                    if self.obs.is_active() {
                        self.obs.emit(Event::PacketOutcome {
                            round,
                            src: pkt.src.0,
                            fate: PacketFate::Delivered { latency_slots: lat },
                        });
                    }
                }
            } else {
                counters.dropped_aggregate += processed.len() as u64;
                if self.obs.is_active() {
                    for (pkt, _) in processed {
                        self.obs.emit(Event::PacketOutcome {
                            round,
                            src: pkt.src.0,
                            fate: PacketFate::DroppedAggregate,
                        });
                    }
                }
            }
        }
        serial_busy(
            Phase::Aggregation,
            self.obs.span_end(agg_span, Phase::Aggregation),
        );

        protocol.on_round_end(&mut self.net, round, &heads);

        debug_assert!(
            counters.is_conserved(),
            "packet conservation violated in round {round}: {counters:?}"
        );

        let energy_consumed = self.net.total_consumed() - energy_before;
        breakdown.other = (energy_consumed - breakdown.total()).max(0.0);
        let metrics = RoundMetrics {
            round,
            packets: counters,
            energy_consumed,
            energy_breakdown: breakdown,
            latency,
            head_count: heads.len(),
            alive_end: self.net.alive_count(),
            min_residual: self.net.min_residual().unwrap_or(0.0),
            head_loads,
        };
        if self.obs.is_active() {
            for (i, was_alive) in self.scratch.alive_before.iter().enumerate() {
                if *was_alive && !self.net.arena().is_alive(i) {
                    self.obs.emit(Event::NodeDied {
                        round,
                        node: i as u32,
                    });
                }
            }
            self.obs.emit(Event::RoundEnded {
                round,
                alive: metrics.alive_end,
                energy_j: energy_consumed,
                heads: heads.iter().map(|h| h.0).collect(),
                residuals_j: self.net.iter().map(|n| n.residual()).collect(),
            });
        }
        self.faults = faults;
        self.scratch.events = events;
        self.scratch.queues = queues;
        self.scratch.relay_overflow = relay_overflow;
        if let (Some(p), Some(t0)) = (&prof, round_t0) {
            p.record_round(p.now_ns().saturating_sub(t0));
        }
        (metrics, latency)
    }
}

/// Stage-1 front-end over the two planning paths: a [`RoutePlanner`]
/// (immutable, parallel-safe) or the bare `&mut Protocol` fallback.
trait PlanTargeter {
    fn begin_packet(&mut self, src: NodeId);
    fn target(
        &mut self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        rng: &mut dyn RngCore,
    ) -> Target;
    fn hop_result(&mut self, src: NodeId, target: Target, success: bool);
}

struct PlannerTargeter<'a> {
    planner: &'a dyn RoutePlanner,
    scratch: PlanScratch,
}

impl PlanTargeter for PlannerTargeter<'_> {
    fn begin_packet(&mut self, src: NodeId) {
        self.planner.begin_packet(src, &mut self.scratch);
    }

    fn target(
        &mut self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        rng: &mut dyn RngCore,
    ) -> Target {
        self.planner
            .plan_target(net, src, heads, rng, &mut self.scratch)
    }

    fn hop_result(&mut self, src: NodeId, target: Target, success: bool) {
        self.planner
            .plan_hop_result(src, target, success, &mut self.scratch);
    }
}

/// Fallback for protocols without a planner: only `choose_target` is
/// consulted while planning (always sequentially). The per-packet hook
/// runs here so `choose_target` sees the per-packet state reset of a
/// live call sequence; the merge replays it again, which is harmless
/// because the hook is a reset. Per-hop hooks are replayed at merge
/// time only, uniformly with the planner path.
struct ChooseTargeter<'a, P: Protocol + ?Sized> {
    protocol: &'a mut P,
}

impl<P: Protocol + ?Sized> PlanTargeter for ChooseTargeter<'_, P> {
    fn begin_packet(&mut self, src: NodeId) {
        self.protocol.on_packet_start(src);
    }

    fn target(
        &mut self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        rng: &mut dyn RngCore,
    ) -> Target {
        self.protocol.choose_target(net, src, heads, rng)
    }

    fn hop_result(&mut self, _src: NodeId, _target: Target, _success: bool) {}
}

/// Plan one member's packets against the frozen post-election network
/// (stage 1 of the transmission phase). The sender's residual is tracked
/// locally with the exact `Battery::consume` arithmetic, so the merge
/// replay is bit-identical; head aliveness is frozen here and re-checked
/// at merge time. Target choices draw from the node's PROTOCOL stream
/// and radio samples from its LINK stream, making the plan independent
/// of scheduling and thread count.
#[allow(clippy::too_many_arguments)]
fn plan_member_packets(
    net: &Network,
    cfg: &SimConfig,
    faults: Option<&FaultDriver>,
    heads: &[NodeId],
    head_slot: &[i32],
    stream_seed: u64,
    round: u32,
    src: NodeId,
    arrivals: usize,
    targeter: &mut dyn PlanTargeter,
) -> Vec<PacketPlan> {
    let link = net.link;
    let radio = net.radio;
    let mut prng = StreamRng::for_node(stream_seed, round, src.0, stream_tag::PROTOCOL);
    let mut lrng = StreamRng::for_node(stream_seed, round, src.0, stream_tag::LINK);
    let mut residual = net.node(src).battery.residual();
    let mut packets = Vec::with_capacity(arrivals);
    for _ in 0..arrivals {
        // Mid-round, a member's `is_alive` reduces to battery state: the
        // `online` flag cannot change within a round, and it was online
        // when it generated this arrival.
        if residual <= 0.0 {
            packets.push(Vec::new());
            continue;
        }
        targeter.begin_packet(src);
        let mut attempts = Vec::new();
        let mut resolved = false;
        for _ in 0..=cfg.member_retries {
            if residual <= 0.0 {
                break;
            }
            let target = targeter.target(net, src, heads, &mut prng);
            let d = match target {
                Target::Bs => net.dist_to_bs(src),
                Target::Head(h) => net.distance(src, h),
            };
            let e = radio.tx_energy(cfg.packet_bits, d);
            if residual < e {
                // Partial supply: this draw drains the battery flat.
                residual = 0.0;
                attempts.push(PlannedAttempt::Failed { target, e });
                targeter.hop_result(src, target, false);
                break;
            }
            residual -= e;
            match target {
                Target::Bs => {
                    if sample_hop(faults, &link, &mut lrng, d, src.0, None) {
                        attempts.push(PlannedAttempt::DeliveredBs { e });
                        targeter.hop_result(src, target, true);
                        resolved = true;
                    } else {
                        attempts.push(PlannedAttempt::Failed { target, e });
                        targeter.hop_result(src, target, false);
                    }
                }
                Target::Head(h) => {
                    let head_alive = net.node(h).is_alive();
                    let radio_ok = sample_hop(faults, &link, &mut lrng, d, src.0, Some(h.0));
                    if !radio_ok || !head_alive || head_slot[h.index()] < 0 {
                        attempts.push(PlannedAttempt::Failed { target, e });
                        targeter.hop_result(src, target, false);
                    } else {
                        // Optimistic: the queue verdict lands at merge.
                        attempts.push(PlannedAttempt::ToHead { h, e });
                        targeter.hop_result(src, target, true);
                        resolved = true;
                    }
                }
            }
            if resolved {
                break;
            }
        }
        packets.push(attempts);
    }
    packets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use crate::protocol::{DirectToBsProtocol, GreedyEnergyProtocol};
    use qlec_radio::link::{AnyLink, DistanceLossLink, IdealLink};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_net(seed: u64, link: AnyLink) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new()
            .link(link)
            .uniform_cube(&mut rng, 40, 200.0, 5.0)
    }

    fn run(net: Network, cfg: SimConfig, protocol: &mut dyn Protocol, seed: u64) -> SimReport {
        let mut rng = StdRng::seed_from_u64(seed);
        Simulator::builder(net)
            .config(cfg)
            .build()
            .run(protocol, &mut rng)
    }

    #[test]
    fn ideal_uncongested_run_delivers_nearly_everything() {
        let net = small_net(1, AnyLink::Ideal(IdealLink));
        let mut cfg = SimConfig::paper(10.0); // idle network
        cfg.rounds = 5;
        let mut p = GreedyEnergyProtocol::new(4);
        let report = run(net, cfg, &mut p, 2);
        assert!(report.totals.generated > 0);
        assert!(report.totals.is_conserved());
        // With ideal links and light load the only loss mechanism left is
        // the end-of-round fusion deadline (packets generated in the last
        // service-backlog window of a round). PDR must be ≈ 1.
        assert_eq!(report.totals.dropped_link, 0);
        assert_eq!(report.totals.dropped_queue_full, 0);
        assert!(
            report.pdr() > 0.97,
            "ideal links + light load must deliver almost all: {:?}",
            report.totals
        );
        assert!(report.mean_latency().unwrap() > 0.0);
    }

    #[test]
    fn congestion_reduces_pdr() {
        let idle = {
            let net = small_net(3, AnyLink::Ideal(IdealLink));
            let mut cfg = SimConfig::paper(10.0);
            cfg.rounds = 5;
            run(net, cfg, &mut GreedyEnergyProtocol::new(3), 4).pdr()
        };
        let congested = {
            let net = small_net(3, AnyLink::Ideal(IdealLink));
            let mut cfg = SimConfig::paper(0.5);
            cfg.rounds = 5;
            run(net, cfg, &mut GreedyEnergyProtocol::new(3), 4).pdr()
        };
        assert!(
            congested < idle - 0.05,
            "congested PDR {congested} should be well below idle PDR {idle}"
        );
    }

    #[test]
    fn congestion_increases_latency() {
        let mk = |lambda: f64| {
            let net = small_net(5, AnyLink::Ideal(IdealLink));
            let mut cfg = SimConfig::paper(lambda);
            cfg.rounds = 5;
            run(net, cfg, &mut GreedyEnergyProtocol::new(3), 6)
                .mean_latency()
                .unwrap()
        };
        let idle = mk(10.0);
        let congested = mk(1.0);
        assert!(
            congested > idle,
            "congested latency {congested} should exceed idle latency {idle}"
        );
    }

    #[test]
    fn lossy_links_drop_packets() {
        let net = small_net(
            7,
            AnyLink::DistanceLoss(DistanceLossLink::new(80.0, 2.0, 0.0)),
        );
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 3;
        let report = run(net, cfg, &mut GreedyEnergyProtocol::new(3), 8);
        assert!(
            report.totals.dropped_link > 0,
            "short-range links must lose packets"
        );
        assert!(report.totals.is_conserved());
        assert!(report.pdr() < 1.0);
    }

    #[test]
    fn energy_is_consumed_and_monotone_per_round() {
        let net = small_net(9, AnyLink::Ideal(IdealLink));
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 6;
        let report = run(net, cfg, &mut GreedyEnergyProtocol::new(3), 10);
        assert!(report.total_energy() > 0.0);
        for r in &report.rounds {
            assert!(r.energy_consumed >= 0.0);
        }
        // Energy totals match the network's battery accounting.
        let sum: f64 = report.rounds.iter().map(|r| r.energy_consumed).sum();
        assert!((sum - report.total_energy()).abs() < 1e-12);
    }

    #[test]
    fn direct_to_bs_consumes_more_than_clustering_with_remote_bs() {
        // The clustering premise: when the BS is far away, the d⁴
        // multi-path term makes per-node direct transmission ruinous,
        // while clustering pays it only once per head on a compressed
        // aggregate. (With the BS at the cube centre the distances are too
        // short for clustering to win on raw energy — that regime is what
        // the intra-clustering comparisons of Fig. 3(b) are about.)
        let remote_bs = qlec_geom::Vec3::new(100.0, 100.0, 500.0);
        let mk = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            NetworkBuilder::new()
                .link(AnyLink::Ideal(IdealLink))
                .bs_at(remote_bs)
                .uniform_cube(&mut rng, 40, 200.0, 50.0)
        };
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 5;
        let e_direct = run(mk(11), cfg, &mut DirectToBsProtocol, 12).total_energy();
        let e_clustered = run(mk(11), cfg, &mut GreedyEnergyProtocol::new(5), 12).total_energy();
        assert!(
            e_clustered < e_direct,
            "clustered {e_clustered} J should beat direct {e_direct} J"
        );
    }

    #[test]
    fn death_line_stops_lifespan_run() {
        let net = small_net(13, AnyLink::Ideal(IdealLink));
        let mut cfg = SimConfig::paper(1.0);
        cfg.rounds = 500;
        cfg.death_line = 4.999; // absurdly high: dies in round 1
        cfg.stop_when_dead = true;
        let report = run(net, cfg, &mut GreedyEnergyProtocol::new(3), 14);
        assert_eq!(report.lifespan.death_line_round, Some(1));
        assert_eq!(report.rounds.len(), 1, "must stop immediately");
        assert_eq!(report.lifespan_rounds(), 0);
    }

    #[test]
    fn packet_ids_are_unique_across_rounds() {
        // Indirectly verified through conservation and monotone counter;
        // here we check the totals add up over a multi-round run.
        let net = small_net(15, AnyLink::Ideal(IdealLink));
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 4;
        let report = run(net, cfg, &mut GreedyEnergyProtocol::new(3), 16);
        let per_round: u64 = report.rounds.iter().map(|r| r.packets.generated).sum();
        assert_eq!(per_round, report.totals.generated);
    }

    #[test]
    fn zero_head_protocol_still_works() {
        let net = small_net(17, AnyLink::Ideal(IdealLink));
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 2;
        let report = run(net, cfg, &mut DirectToBsProtocol, 18);
        assert!(report.totals.generated > 0);
        assert_eq!(report.pdr(), 1.0);
        assert!(report.rounds.iter().all(|r| r.head_count == 0));
    }

    #[test]
    fn consumption_rates_have_network_size() {
        let net = small_net(19, AnyLink::Ideal(IdealLink));
        let n = net.len();
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 2;
        let report = run(net, cfg, &mut GreedyEnergyProtocol::new(3), 20);
        assert_eq!(report.consumption_rates.len(), n);
        assert!(report
            .consumption_rates
            .iter()
            .all(|&r| (0.0..=1.0).contains(&r)));
        // Someone consumed something.
        assert!(report.consumption_rates.iter().any(|&r| r > 0.0));
    }

    #[test]
    #[should_panic(expected = "invalid SimConfig")]
    fn invalid_config_rejected() {
        let net = small_net(21, AnyLink::Ideal(IdealLink));
        let mut cfg = SimConfig::paper(5.0);
        cfg.compression = 2.0;
        let _ = Simulator::builder(net).config(cfg).build();
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use crate::protocol::{DirectToBsProtocol, GreedyEnergyProtocol};
    use qlec_fault::{FaultEvent, FaultPlan};
    use qlec_radio::link::{AnyLink, DistanceLossLink, IdealLink};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64, link: AnyLink) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new()
            .link(link)
            .uniform_cube(&mut rng, 30, 200.0, 5.0)
    }

    fn driver(events: Vec<FaultEvent>) -> FaultDriver {
        FaultDriver::new(FaultPlan::named("test", events)).unwrap()
    }

    #[test]
    fn crashed_node_stops_consuming_and_conservation_holds() {
        let crash_round = 2;
        let victim = NodeId(4);
        let mut cfg = SimConfig::paper(3.0);
        cfg.rounds = 6;
        let run = |faulted: bool| {
            let mut rng = StdRng::seed_from_u64(9);
            let mut sim = Simulator::builder(net(31, AnyLink::Ideal(IdealLink))).config(cfg);
            if faulted {
                sim = sim.faults(driver(vec![FaultEvent::NodeCrash {
                    round: crash_round,
                    node: victim.0,
                }]));
            }
            sim.build().run(&mut GreedyEnergyProtocol::new(4), &mut rng)
        };
        let report = run(true);
        assert!(report.totals.is_conserved());
        // The victim consumed strictly less than in the fault-free run
        // (it was cut off after round 2 of 6).
        let baseline = run(false);
        let consumed = |r: &SimReport| r.consumption_rates[victim.index()];
        assert!(
            consumed(&report) < consumed(&baseline),
            "crashed node kept spending energy: faulted {} vs baseline {}",
            consumed(&report),
            consumed(&baseline)
        );
    }

    #[test]
    fn battery_drain_reduces_residual_outside_protocol_ledger() {
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 2;
        let mut rng = StdRng::seed_from_u64(11);
        let sim = Simulator::builder(net(33, AnyLink::Ideal(IdealLink)))
            .config(cfg)
            .faults(driver(vec![FaultEvent::BatteryDrain {
                round: 1,
                node: 0,
                joules: 3.0,
            }]));
        let report = sim.build().run(&mut GreedyEnergyProtocol::new(3), &mut rng);
        // The drain shows up in the node's consumption rate…
        assert!(
            report.consumption_rates[0] > 3.0 / 5.0,
            "drain missing from consumption rate {}",
            report.consumption_rates[0]
        );
        // …but not in the per-round protocol energy ledger (3 J would
        // dwarf a 2-round, 30-node run's radio budget).
        assert!(
            report.total_energy() < 3.0,
            "exogenous drain leaked into protocol energy: {} J",
            report.total_energy()
        );
        assert!(report.totals.is_conserved());
    }

    #[test]
    fn bs_outage_window_blocks_all_deliveries() {
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 3;
        let mut rng = StdRng::seed_from_u64(13);
        let sim = Simulator::builder(net(35, AnyLink::Ideal(IdealLink)))
            .config(cfg)
            .faults(driver(vec![FaultEvent::BsOutage {
                from_round: 1,
                to_round: 1,
            }]));
        let report = sim.build().run(&mut DirectToBsProtocol, &mut rng);
        assert!(report.totals.is_conserved());
        assert_eq!(report.rounds[0].packets.pdr(), 1.0, "before the outage");
        assert_eq!(
            report.rounds[1].packets.delivered, 0,
            "nothing reaches a dark BS"
        );
        assert!(report.rounds[1].packets.retried > 0, "retries were spent");
        assert_eq!(report.rounds[2].packets.pdr(), 1.0, "after recovery");
    }

    #[test]
    fn link_degradation_raises_retries_and_stays_conserved() {
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 4;
        cfg.member_retries = 3;
        let events = (0..30)
            .map(|n| FaultEvent::LinkDegrade {
                from_round: 0,
                to_round: 3,
                a: qlec_fault::LinkEnd::Node(n),
                b: qlec_fault::LinkEnd::Bs,
                loss_multiplier: 40.0,
            })
            .collect();
        let link = AnyLink::DistanceLoss(DistanceLossLink::for_cube(200.0));
        let mut rng = StdRng::seed_from_u64(17);
        let faulted = Simulator::builder(net(37, link))
            .config(cfg)
            .faults(driver(events))
            .build()
            .run(&mut DirectToBsProtocol, &mut rng);
        let mut rng = StdRng::seed_from_u64(17);
        let clean = Simulator::builder(net(37, link))
            .config(cfg)
            .build()
            .run(&mut DirectToBsProtocol, &mut rng);
        assert!(faulted.totals.is_conserved());
        assert!(clean.totals.is_conserved());
        assert!(
            faulted.totals.retried > clean.totals.retried,
            "degraded links must force more retries: {} vs {}",
            faulted.totals.retried,
            clean.totals.retried
        );
        assert!(faulted.pdr() < clean.pdr());
    }

    #[test]
    fn empty_plan_matches_unfaulted_run_exactly() {
        let mut cfg = SimConfig::paper(4.0);
        cfg.rounds = 3;
        let link = AnyLink::DistanceLoss(DistanceLossLink::for_cube(200.0));
        let mut rng = StdRng::seed_from_u64(21);
        let with_empty = Simulator::builder(net(39, link))
            .config(cfg)
            .faults(driver(Vec::new()))
            .build()
            .run(&mut GreedyEnergyProtocol::new(4), &mut rng);
        let mut rng = StdRng::seed_from_u64(21);
        let without = Simulator::builder(net(39, link))
            .config(cfg)
            .build()
            .run(&mut GreedyEnergyProtocol::new(4), &mut rng);
        assert_eq!(
            serde_json::to_string(&with_empty.totals).unwrap(),
            serde_json::to_string(&without.totals).unwrap(),
            "an empty plan must not perturb the RNG sequence"
        );
        assert_eq!(with_empty.consumption_rates, without.consumption_rates);
    }
}

#[cfg(test)]
mod head_load_tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use crate::protocol::GreedyEnergyProtocol;
    use qlec_radio::link::{AnyLink, IdealLink};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn head_loads_are_recorded_and_consistent() {
        let mut rng = StdRng::seed_from_u64(71);
        let net = NetworkBuilder::new()
            .link(AnyLink::Ideal(IdealLink))
            .uniform_cube(&mut rng, 40, 200.0, 5.0);
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 3;
        let mut p = GreedyEnergyProtocol::new(4);
        let report = Simulator::builder(net)
            .config(cfg)
            .build()
            .run(&mut p, &mut rng);
        for r in &report.rounds {
            assert_eq!(r.head_loads.len(), r.head_count);
            let accepted: u64 = r.head_loads.iter().map(|h| h.accepted).sum();
            // Everything a head accepted is either delivered with its
            // aggregate or dropped with it.
            assert_eq!(
                accepted,
                r.packets.delivered + r.packets.dropped_aggregate,
                "round {}",
                r.round
            );
            for h in &r.head_loads {
                assert!(h.peak_occupancy <= cfg.queue_capacity);
                assert!(h.accepted == 0 || h.peak_occupancy > 0);
            }
        }
    }

    #[test]
    fn overload_shows_in_peak_occupancy() {
        let mut rng = StdRng::seed_from_u64(72);
        let net = NetworkBuilder::new()
            .link(AnyLink::Ideal(IdealLink))
            .uniform_cube(&mut rng, 40, 200.0, 5.0);
        let mut cfg = SimConfig::paper(0.5); // saturating traffic
        cfg.rounds = 2;
        let mut p = GreedyEnergyProtocol::new(2);
        let report = Simulator::builder(net)
            .config(cfg)
            .build()
            .run(&mut p, &mut rng);
        let peak = report
            .rounds
            .iter()
            .flat_map(|r| r.head_loads.iter())
            .map(|h| h.peak_occupancy)
            .max()
            .unwrap();
        assert_eq!(
            peak, cfg.queue_capacity,
            "saturated queues must hit capacity"
        );
        let full_drops: u64 = report
            .rounds
            .iter()
            .flat_map(|r| r.head_loads.iter())
            .map(|h| h.drops_full)
            .sum();
        assert!(full_drops > 0);
    }
}
