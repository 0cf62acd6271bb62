//! Per-layer timing from outside the crates: a decorator over the public
//! [`Protocol`] and [`RoutePlanner`] traits.
//!
//! [`Timed`] wraps the `Box<dyn Protocol>` the CLI builds and times each
//! hook the round engine calls. Hooks on the simulation thread add their
//! wall time to [`LayerTimes`] directly. Planner hooks run on worker
//! threads, so they touch no shared state: [`RoutePlanner::begin_node`]
//! wraps the inner scratch in a [`TimedScratch`] that carries the node's
//! clock readings and decision count, and [`Protocol::absorb_plan`]
//! unwraps it on the simulation thread and folds those into the totals.

use qlec_net::protocol::{PlanScratch, RoutePlanner};
use qlec_net::{Network, NodeId, Protocol, Target};
use rand::RngCore;
use std::time::Instant;

/// `choose_target` and `on_hop_result` are timed on one call in this
/// many, and each timed call stands for that many; the call counts stay
/// exact. On `saturated-10k` the merge makes about three such calls per
/// packet, so timing every call made their clock reads most of the
/// trace's overhead.
pub const SAMPLE_STRIDE: u64 = 16;

/// Hook totals of one run. Times are wall nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `on_round_start`: election, broadcast, index upkeep, head V
    /// refresh.
    pub election_ns: u64,
    /// Member nodes planned (`begin_node` calls).
    pub plan_nodes: u64,
    /// Planned routing decisions (`plan_target` calls).
    pub plan_decisions: u64,
    /// Per-node planning spans, summed over workers: each runs from the
    /// node's `begin_node` entry to the exit of its last planner hook.
    pub plan_busy_ns: u64,
    /// Stage-1 wall per round, from the round's first planner call to
    /// its last, summed over rounds.
    pub plan_wall_ns: u64,
    /// Merge-time retargets (`choose_target` calls).
    pub retarget_calls: u64,
    /// Time inside `choose_target`, estimated from every
    /// [`SAMPLE_STRIDE`]-th call.
    pub retarget_ns: u64,
    /// ACK feedback replayed by the merge (`on_hop_result` calls).
    pub feedback_calls: u64,
    /// Time inside `on_hop_result`, estimated from every
    /// [`SAMPLE_STRIDE`]-th call.
    pub feedback_ns: u64,
    /// Time inside `absorb_plan`.
    pub absorb_ns: u64,
    /// Time inside `on_round_end`.
    pub round_end_ns: u64,
    /// Worker threads the engine reported through `configure_threads`.
    pub threads: usize,
}

impl LayerTimes {
    /// Every timed hook, with planning counted by its wall: the part of
    /// a run spent outside the engine's own code.
    pub fn hooks_ns(&self) -> u64 {
        self.election_ns
            + self.plan_wall_ns
            + self.retarget_ns
            + self.feedback_ns
            + self.absorb_ns
            + self.round_end_ns
    }
}

/// A protocol whose hooks are timed into [`LayerTimes`].
pub struct Timed {
    inner: Box<dyn Protocol>,
    layers: LayerTimes,
    /// First planner entry and last planner exit seen this round.
    round_plan: Option<(Instant, Instant)>,
}

impl Timed {
    /// Wrap a protocol.
    pub fn new(inner: Box<dyn Protocol>) -> Self {
        Timed {
            inner,
            layers: LayerTimes::default(),
            round_plan: None,
        }
    }

    /// The totals so far.
    pub fn layers(&self) -> LayerTimes {
        self.layers
    }
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

impl Protocol for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_round_start(
        &mut self,
        net: &mut Network,
        round: u32,
        rng: &mut dyn RngCore,
    ) -> Vec<NodeId> {
        let t0 = Instant::now();
        let heads = self.inner.on_round_start(net, round, rng);
        self.layers.election_ns += ns_since(t0);
        heads
    }

    fn on_packet_start(&mut self, src: NodeId) {
        self.inner.on_packet_start(src)
    }

    fn choose_target(
        &mut self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        rng: &mut dyn RngCore,
    ) -> Target {
        self.layers.retarget_calls += 1;
        if !self.layers.retarget_calls.is_multiple_of(SAMPLE_STRIDE) {
            return self.inner.choose_target(net, src, heads, rng);
        }
        let t0 = Instant::now();
        let target = self.inner.choose_target(net, src, heads, rng);
        self.layers.retarget_ns += ns_since(t0) * SAMPLE_STRIDE;
        target
    }

    fn on_hop_result(&mut self, src: NodeId, target: Target, success: bool) {
        self.layers.feedback_calls += 1;
        if !self.layers.feedback_calls.is_multiple_of(SAMPLE_STRIDE) {
            return self.inner.on_hop_result(src, target, success);
        }
        let t0 = Instant::now();
        self.inner.on_hop_result(src, target, success);
        self.layers.feedback_ns += ns_since(t0) * SAMPLE_STRIDE;
    }

    fn aggregate_route(&mut self, net: &Network, head: NodeId, heads: &[NodeId]) -> Vec<Target> {
        self.inner.aggregate_route(net, head, heads)
    }

    fn on_round_end(&mut self, net: &mut Network, round: u32, heads: &[NodeId]) {
        if let Some((first, last)) = self.round_plan.take() {
            self.layers.plan_wall_ns += last.duration_since(first).as_nanos() as u64;
        }
        let t0 = Instant::now();
        self.inner.on_round_end(net, round, heads);
        self.layers.round_end_ns += ns_since(t0);
    }

    fn planner(&self) -> Option<&dyn RoutePlanner> {
        // The engine borrows the planner for as long as it borrows the
        // protocol, so the wrapper must live as long as `&self`. Leaking
        // one two-word box per call (twice a round) is the safe way to
        // hand that out.
        let inner = self.inner.planner()?;
        Some(Box::leak(Box::new(TimedPlanner(inner))))
    }

    fn absorb_plan(&mut self, src: NodeId, scratch: PlanScratch) {
        let timed = scratch
            .downcast::<TimedScratch>()
            .expect("scratch comes from TimedPlanner::begin_node");
        let TimedScratch {
            inner,
            first,
            last,
            decisions,
        } = *timed;
        self.layers.plan_nodes += 1;
        self.layers.plan_decisions += decisions;
        self.layers.plan_busy_ns += last.duration_since(first).as_nanos() as u64;
        self.round_plan = Some(match self.round_plan {
            None => (first, last),
            Some((a, b)) => (a.min(first), b.max(last)),
        });
        let t0 = Instant::now();
        self.inner.absorb_plan(src, inner);
        self.layers.absorb_ns += ns_since(t0);
    }

    fn configure_threads(&mut self, threads: usize) {
        self.layers.threads = threads;
        self.inner.configure_threads(threads)
    }
}

/// One node's planning state: the inner protocol's scratch plus the
/// node's clock readings, so workers share nothing.
struct TimedScratch {
    inner: PlanScratch,
    first: Instant,
    last: Instant,
    decisions: u64,
}

fn timed_scratch(scratch: &mut PlanScratch) -> &mut TimedScratch {
    scratch
        .downcast_mut::<TimedScratch>()
        .expect("scratch comes from TimedPlanner::begin_node")
}

/// The inner protocol's planner with each hook's exit time recorded.
struct TimedPlanner<'a>(&'a dyn RoutePlanner);

impl RoutePlanner for TimedPlanner<'_> {
    fn begin_node(&self, net: &Network, src: NodeId) -> PlanScratch {
        let first = Instant::now();
        let inner = self.0.begin_node(net, src);
        Box::new(TimedScratch {
            inner,
            first,
            last: Instant::now(),
            decisions: 0,
        })
    }

    fn begin_packet(&self, src: NodeId, scratch: &mut PlanScratch) {
        // No clock read: `plan_target` always follows.
        self.0.begin_packet(src, &mut timed_scratch(scratch).inner);
    }

    fn plan_target(
        &self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        rng: &mut dyn RngCore,
        scratch: &mut PlanScratch,
    ) -> Target {
        // No clock read: the engine reports every planned attempt through
        // `plan_hop_result`, which records the exit time.
        let s = timed_scratch(scratch);
        s.decisions += 1;
        self.0.plan_target(net, src, heads, rng, &mut s.inner)
    }

    fn plan_hop_result(
        &self,
        src: NodeId,
        target: Target,
        success: bool,
        scratch: &mut PlanScratch,
    ) {
        let s = timed_scratch(scratch);
        self.0.plan_hop_result(src, target, success, &mut s.inner);
        s.last = Instant::now();
    }
}
