//! The full QLEC protocol (Algorithm 1), as a [`qlec_net::Protocol`].
//!
//! Per round:
//!
//! 1. compute `k_opt` (Theorem 1, cached; or the explicit `k` override)
//!    and the coverage radius `d_c` (Eq. 5) — Algorithm 1 lines 1–2;
//! 2. run the improved-DEEC selection with HELLO redundancy reduction —
//!    lines 5–9 ([`crate::deec_improved`]);
//! 3. route every member packet by the Q-learning `Send-Data` rule —
//!    lines 10–12 ([`crate::qrouting`]);
//! 4. heads forward their fused aggregates directly to the BS and update
//!    their own V values — lines 13–15.

use crate::deec_improved::{select_heads_from_roster, SelectionFeatures, SelectionOutcome};
use crate::kopt;
use crate::params::{CandidatePolicy, QlecParams};
use crate::qrouting::{ActionConst, QRouter};
use qlec_geom::{UniformGrid, Vec3};
use qlec_net::protocol::{nearest_head, PlanScratch, RoutePlanner};
use qlec_net::{Network, NodeId, Protocol, Target};
use qlec_obs::{Event, ObserverSet, Phase};
use rand::RngCore;
use std::cell::RefCell;

/// `retarget_slot` entry of a source not ranked yet this round.
const UNRANKED: (u32, u32) = (u32::MAX, 0);

/// QLEC with its feature switchboard (all features on = the paper's
/// algorithm; see [`crate::ablation`] for the toggled variants).
pub struct QlecProtocol {
    params: QlecParams,
    features: SelectionFeatures,
    /// When false, members fall back to nearest-head routing (plain-DEEC
    /// behaviour) instead of the Q-learning rule — the routing ablation.
    q_routing: bool,
    /// Lazily computed per deployment.
    k: Option<usize>,
    grid: Option<UniformGrid>,
    router: Option<QRouter>,
    /// Selection diagnostics of the most recent round.
    pub last_selection: Option<SelectionOutcome>,
    /// Targets that NACKed the packet in flight (cleared by
    /// `on_packet_start`; retries avoid them). The merge resolves one
    /// packet at a time — `on_packet_start`, its attempts, then its
    /// retargets — so one list serves every source.
    nacked: Vec<Target>,
    /// Fraction of a member packet that rides the head's fused BS
    /// transmission (the data-fusion compression ratio, Table 2: 0.5);
    /// scales the head-update transmission cost — see
    /// [`QRouter::head_update`].
    aggregate_share: f64,
    name: String,
    /// Structured-event observer (inert by default). Emits
    /// [`Event::QUpdate`] per V change and [`Event::HeadWithdrawn`] from
    /// the redundancy reduction, and times the [`Phase::Broadcast`] and
    /// [`Phase::IndexMaintenance`] spans.
    obs: ObserverSet,
    /// Round currently in flight (protocol hooks that lack a round
    /// argument stamp their events with it).
    current_round: u32,
    /// Grid over this round's head positions, built in
    /// `on_round_start`; grid point `i` is head `head_ids[i]`, ids
    /// ascending, so the grid's `(d², index)` order is the `(d², id)`
    /// order. Only queried while `candidates_active`.
    head_grid: UniformGrid,
    head_ids: Vec<u32>,
    /// Whether this round's candidate budget is binding — i.e.
    /// `params.candidates` resolved to a budget smaller than the head
    /// set and `head_grid` holds this round's heads.
    candidates_active: bool,
    /// The resolved per-packet candidate budget for the current round
    /// (meaningless while `candidates_active` is false).
    candidate_budget: usize,
    /// Election-phase alive roster: exactly the alive node ids, ascending,
    /// maintained by the same per-round diff that feeds the grid (deaths
    /// retained out, blackout revivals re-merged). Algorithm 2+3 head
    /// selection walks this roster instead of re-scanning all `N`
    /// deployment slots.
    alive_roster: Vec<NodeId>,
    /// Per-node alive flag backing `alive_roster` diffs. Unlike the
    /// grid's one-way removal this tracks revivals too, so the roster
    /// always equals the true alive set.
    roster_alive: Vec<bool>,
    /// Reused scratch holding the pruned candidate head set.
    candidate_buf: Vec<NodeId>,
    /// Per-round cache of the merge-time retargets' k-nearest head
    /// ranking: node id → `(start, len)` into `retarget_ids`
    /// ([`UNRANKED`] until the node's first retarget this round). The
    /// ranking depends only on the source position and `head_grid` —
    /// both frozen between `on_round_start` calls — so the first
    /// retarget of a node pays the grid query and later ones reuse it;
    /// the alive filter stays live, so the candidate set (and every
    /// downstream byte) matches the uncached query exactly.
    retarget_slot: Vec<(u32, u32)>,
    /// Head ids of every ranking cached this round, nearest first.
    retarget_ids: Vec<u32>,
}

/// Per-thread query and kernel buffers, reused across every node a
/// worker plans and every retarget (their contents never outlive one
/// call), so the per-node [`QlecPlanScratch`] carries only what lives
/// until `absorb_plan`.
#[derive(Default)]
struct ThreadBufs {
    knn_out: Vec<(u32, f64)>,
    actions: Vec<ActionConst>,
}

thread_local! {
    static THREAD_BUFS: RefCell<ThreadBufs> = RefCell::new(ThreadBufs::default());
}

/// Fill `out` with the first `c` alive heads of `ranking` (nearest
/// first).
fn alive_prefix(
    net: &Network,
    ranking: impl Iterator<Item = u32>,
    c: usize,
    out: &mut Vec<NodeId>,
) {
    out.clear();
    for id in ranking {
        if net.arena().is_alive(id as usize) {
            out.push(NodeId(id));
            if out.len() == c {
                break;
            }
        }
    }
}

/// Fluent configuration for [`QlecProtocol`] — the one way to assemble a
/// QLEC variant.
///
/// Replaces the former constructor zoo (`paper()`, `paper_with_k()`,
/// `with_features()`, `with_observer()`, `with_aggregate_share()`,
/// `named()` — deprecated for two releases and now removed). Defaults are
/// the paper's Table 2 configuration with every selection feature enabled
/// and Theorem 1's derived `k_opt`:
///
/// ```
/// use qlec_core::QlecProtocol;
/// let protocol = QlecProtocol::builder().k(5).named("qlec-k5").build();
/// ```
#[derive(Clone)]
pub struct QlecBuilder {
    params: QlecParams,
    features: SelectionFeatures,
    q_routing: bool,
    aggregate_share: f64,
    name: String,
    obs: ObserverSet,
}

impl Default for QlecBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl QlecBuilder {
    /// Start from the paper's Table 2 parameters (all features on,
    /// Q-routing on, derived `k_opt`, aggregate share 0.5).
    pub fn new() -> Self {
        QlecBuilder {
            params: QlecParams::paper(),
            features: SelectionFeatures::default(),
            q_routing: true,
            aggregate_share: 0.5,
            name: "qlec".to_string(),
            obs: ObserverSet::new(),
        }
    }

    /// Replace the full parameter set (validated at [`Self::build`]).
    pub fn params(mut self, params: QlecParams) -> Self {
        self.params = params;
        self
    }

    /// Fix the cluster count instead of deriving Theorem 1's `k_opt`
    /// (the Fig. 3 configuration uses the §5.1 `k = 5`).
    pub fn k(mut self, k: usize) -> Self {
        self.params.k_override = Some(k);
        self
    }

    /// Set the planned horizon `R` (drives the Eq. 2/Eq. 4 estimates).
    pub fn total_rounds(mut self, rounds: u32) -> Self {
        self.params.total_rounds = rounds;
        self
    }

    /// Set the `Send-Data` candidate-pruning policy. The default
    /// [`CandidatePolicy::Auto`] derives the per-round budget from
    /// Theorem 1 (full scan for `k ≤ 8`); see [`QlecParams::candidates`].
    pub fn candidates(mut self, policy: CandidatePolicy) -> Self {
        self.params.candidates = policy;
        self
    }

    /// Shorthand for [`Self::candidates`]`(CandidatePolicy::Fixed(c))`:
    /// prune each packet's `Send-Data` scan to the `c` nearest alive
    /// heads regardless of `k`.
    pub fn candidate_heads(mut self, c: usize) -> Self {
        self.params.candidates = CandidatePolicy::Fixed(c);
        self
    }

    /// Override the head-selection feature switchboard (ablations).
    pub fn features(mut self, features: SelectionFeatures) -> Self {
        self.features = features;
        self
    }

    /// Enable or disable the Q-learning `Send-Data` routing rule; when
    /// off, members fall back to nearest-head routing (plain-DEEC
    /// behaviour) — the routing ablation.
    pub fn q_routing(mut self, enabled: bool) -> Self {
        self.q_routing = enabled;
        self
    }

    /// Override the data-fusion share used in the head V update (set it
    /// to the simulator's `compression` when running with a non-default
    /// ratio).
    pub fn aggregate_share(mut self, share: f64) -> Self {
        assert!((0.0..=1.0).contains(&share), "share must be in [0,1]");
        self.aggregate_share = share;
        self
    }

    /// Override the displayed protocol name (ablation labelling).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Attach an observer set. Pass a clone of the set given to
    /// [`qlec_net::SimBuilder::observers`] so protocol-level events (Q
    /// updates, HELLO withdrawals, Q-routing timing) land in the same
    /// sinks as the simulator's.
    pub fn observer(mut self, obs: ObserverSet) -> Self {
        self.obs = obs;
        self
    }

    /// Validate the parameters and assemble the protocol.
    ///
    /// # Panics
    ///
    /// If the parameter set fails [`QlecParams::validate`].
    pub fn build(self) -> QlecProtocol {
        self.params.validate().expect("invalid QlecParams");
        QlecProtocol {
            params: self.params,
            features: self.features,
            q_routing: self.q_routing,
            k: self.params.k_override,
            grid: None,
            router: None,
            last_selection: None,
            nacked: Vec::new(),
            aggregate_share: self.aggregate_share,
            name: self.name,
            obs: self.obs,
            current_round: 0,
            head_grid: UniformGrid::build(std::iter::empty()),
            head_ids: Vec::new(),
            candidates_active: false,
            candidate_budget: 0,
            alive_roster: Vec::new(),
            roster_alive: Vec::new(),
            candidate_buf: Vec::new(),
            retarget_slot: Vec::new(),
            retarget_ids: Vec::new(),
        }
    }
}

impl QlecProtocol {
    /// Start configuring a QLEC variant — see [`QlecBuilder`].
    pub fn builder() -> QlecBuilder {
        QlecBuilder::new()
    }

    /// The paper's QLEC with the given parameters.
    pub fn new(params: QlecParams) -> Self {
        QlecBuilder::new().params(params).build()
    }

    /// In-crate observer attachment (wrappers like
    /// [`crate::multihop::MultiHopQlec`] forward to this without exposing
    /// a public setter).
    pub(crate) fn set_observer(&mut self, obs: ObserverSet) {
        self.obs = obs;
    }

    /// In-crate feature override (see [`Self::set_observer`]).
    pub(crate) fn set_features(&mut self, features: SelectionFeatures, q_routing: bool) {
        self.features = features;
        self.q_routing = q_routing;
    }

    /// In-crate rename (see [`Self::set_observer`]).
    pub(crate) fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The cluster count in use (`None` until the first round when it is
    /// derived from the deployment).
    pub fn k(&self) -> Option<usize> {
        self.k
    }

    /// The Q-router state (populated after the first round).
    pub fn router(&self) -> Option<&QRouter> {
        self.router.as_ref()
    }

    /// Total elementary Q updates so far — the paper's `X`.
    pub fn q_updates(&self) -> u64 {
        self.router.as_ref().map_or(0, |r| r.updates.total())
    }

    fn ensure_initialized(&mut self, net: &Network) {
        if self.k.is_none() {
            // Algorithm 1 line 1: Theorem 1 with d_toBS approximated by
            // the mean node→BS distance.
            let k = kopt::kopt(
                net.len(),
                net.side_length(),
                net.mean_dist_to_bs().max(1e-9),
                &net.radio,
            );
            self.k = Some(k);
        }
        if self.router.is_none() {
            self.router = Some(QRouter::new(net, self.params));
        }
    }

    /// Bring the Algorithm 3 node grid in line with the network at the
    /// top of a round: built once over every deployment position, then
    /// every dead node is removed (a no-op for one the grid already
    /// dropped, so only the newly dead cost a tombstone). Every
    /// grid consumer filters dead nodes out-of-band (`is_elected` /
    /// `is_alive`), so a dead node's lingering entry is unobservable.
    /// The removal is one-way: a node revived after a blackout is not
    /// re-inserted (a known defect, see ROADMAP; fixing it changes the
    /// event bytes of every faulted run with a blackout).
    /// Also brings `alive_roster` in line with the network, folding the
    /// roster diff into the same per-node pass as the grid's death diff
    /// so the round pays one alive scan, not one per consumer.
    fn maintain_grid(&mut self, net: &Network) {
        if self.grid.is_none() {
            self.grid = Some(UniformGrid::build(net.iter_positions()));
            self.roster_alive = vec![true; net.len()];
            self.alive_roster = net.ids().collect();
        }
        let grid = self.grid.as_mut().expect("built above");
        let mut deaths = 0usize;
        let mut revivals = 0usize;
        for i in 0..net.len() {
            let now = net.node(NodeId(i as u32)).is_alive();
            if !now {
                grid.remove(i as u32);
            }
            if self.roster_alive[i] != now {
                self.roster_alive[i] = now;
                if now {
                    revivals += 1;
                } else {
                    deaths += 1;
                }
            }
        }
        // Deaths compact in place; a (rare) blackout revival re-merges by
        // rebuilding from the flags — both keep the roster exactly the
        // ascending alive set.
        if revivals > 0 {
            self.alive_roster.clear();
            self.alive_roster.extend(
                self.roster_alive
                    .iter()
                    .enumerate()
                    .filter(|(_, &a)| a)
                    .map(|(i, _)| NodeId(i as u32)),
            );
        } else if deaths > 0 {
            let flags = &self.roster_alive;
            self.alive_roster.retain(|id| flags[id.0 as usize]);
        }
    }

    /// The k-nearest window behind every pruned candidate set: `c + 8`
    /// heads, padding so a few mid-round head deaths still leave `c`
    /// alive candidates.
    fn knn_window(&self) -> usize {
        (self.candidate_budget + 8).min(self.head_ids.len())
    }

    /// The `k` heads nearest `q` as `(id, squared distance)`, ascending by
    /// `(squared distance, id)`. `out` is caller-owned so `&self`
    /// queries can run from parallel planners.
    fn nearest_heads_into(&self, q: Vec3, k: usize, out: &mut Vec<(u32, f64)>) {
        self.head_grid.k_nearest_into(q, k, out);
        for entry in out.iter_mut() {
            entry.0 = self.head_ids[entry.0 as usize];
        }
    }

    /// `src`'s head ranking for merge-time retargets, as a range of
    /// `retarget_ids`: queried on the node's first retarget of the
    /// round, cached for the rest.
    fn retarget_ranking(&mut self, net: &Network, src: NodeId) -> std::ops::Range<usize> {
        let (start, len) = self.retarget_slot[src.index()];
        if (start, len) != UNRANKED {
            return start as usize..(start + len) as usize;
        }
        let (start, window) = (self.retarget_ids.len(), self.knn_window());
        THREAD_BUFS.with_borrow_mut(|bufs| {
            self.nearest_heads_into(net.node(src).pos, window, &mut bufs.knn_out);
            self.retarget_ids
                .extend(bufs.knn_out.iter().map(|&(id, _)| id));
        });
        self.retarget_slot[src.index()] = (start as u32, (self.retarget_ids.len() - start) as u32);
        start..self.retarget_ids.len()
    }
}

impl Protocol for QlecProtocol {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_round_start(
        &mut self,
        net: &mut Network,
        round: u32,
        rng: &mut dyn RngCore,
    ) -> Vec<NodeId> {
        self.ensure_initialized(net);
        self.current_round = round;
        let k = self.k.expect("initialized above");
        // Index maintenance, part 1: the Algorithm 3 node grid. Timed
        // as IndexMaintenance, which nests inside the simulator's
        // Election span (this all happens in `on_round_start`).
        let grid_span = self.obs.span_start();
        self.maintain_grid(net);
        self.obs.span_end(grid_span, Phase::IndexMaintenance);
        let grid = self.grid.as_ref().expect("maintained above");
        let outcome = select_heads_from_roster(
            net,
            grid,
            &self.alive_roster,
            round,
            k,
            &self.params,
            self.features,
            rng,
            &self.obs,
        );
        let heads = outcome.heads.clone();
        self.last_selection = Some(outcome);
        // Index maintenance, part 2: the Send-Data candidate index over
        // this round's heads, for the per-packet c-nearest query. Only
        // worth it (and only *valid* as a pure speedup) when the head set
        // is larger than the candidate budget.
        self.candidates_active = false;
        self.retarget_slot.clear();
        self.retarget_ids.clear();
        if let Some(c) = self.params.candidates.budget(k) {
            if self.q_routing && heads.len() > c {
                let index_span = self.obs.span_start();
                self.head_ids.clear();
                self.head_ids.extend(heads.iter().map(|h| h.0));
                self.head_ids.sort_unstable();
                self.head_grid =
                    UniformGrid::build(self.head_ids.iter().map(|&h| net.node(NodeId(h)).pos));
                self.candidate_budget = c;
                self.candidates_active = true;
                self.retarget_slot.resize(net.len(), UNRANKED);
                self.obs.span_end(index_span, Phase::IndexMaintenance);
            }
        }
        // Refresh each head's V at promotion: a node's V from its member
        // days values a different action set; the head's state is "hold
        // the aggregate, forward to the BS", so its V is the line-15
        // Q(h, a_BS) — computed now so members route against current
        // values instead of stale ones.
        if self.q_routing {
            if let Some(router) = self.router.as_mut() {
                let deltas = router.head_update_batch(net, &heads, self.aggregate_share);
                if self.obs.is_active() {
                    for (&h, &delta) in heads.iter().zip(&deltas) {
                        self.obs.emit(Event::QUpdate {
                            round,
                            node: h.0,
                            delta,
                        });
                    }
                }
            }
        }
        heads
    }

    fn on_packet_start(&mut self, _src: NodeId) {
        self.nacked.clear();
    }

    fn choose_target(
        &mut self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        _rng: &mut dyn RngCore,
    ) -> Target {
        if !self.q_routing {
            return nearest_head(net, src, heads).map_or(Target::Bs, Target::Head);
        }
        // Pruned candidate set: the c nearest alive heads of the cached
        // ranking; an all-dead window falls back to the full list (the
        // router skips dead heads itself).
        let candidates: &[NodeId] = if self.candidates_active {
            let ranking = self.retarget_ranking(net, src);
            alive_prefix(
                net,
                self.retarget_ids[ranking].iter().copied(),
                self.candidate_budget,
                &mut self.candidate_buf,
            );
            if self.candidate_buf.is_empty() {
                heads
            } else {
                &self.candidate_buf
            }
        } else {
            heads
        };
        let router = self
            .router
            .as_mut()
            .expect("router initialized in on_round_start");
        let target = router.send_data_excluding(net, src, candidates, &self.nacked);
        if self.obs.is_active() {
            self.obs.emit(Event::QUpdate {
                round: self.current_round,
                node: src.0,
                delta: router.last_delta(),
            });
        }
        target
    }

    fn on_hop_result(&mut self, src: NodeId, target: Target, success: bool) {
        if let Some(router) = self.router.as_mut() {
            router.on_hop_result(src, target, success);
        }
        if !success {
            self.nacked.push(target);
        }
    }

    fn on_round_end(&mut self, net: &mut Network, round: u32, heads: &[NodeId]) {
        // Algorithm 1 line 15: heads refresh their own V values from the
        // BS-hop Q after data fusion.
        if let Some(router) = self.router.as_mut() {
            let deltas = router.head_update_batch(net, heads, self.aggregate_share);
            if self.obs.is_active() {
                for (&h, &delta) in heads.iter().zip(&deltas) {
                    self.obs.emit(Event::QUpdate {
                        round,
                        node: h.0,
                        delta,
                    });
                }
            }
            // Round-end housekeeping: drop link estimates for endpoints
            // that died this round (they are never consulted again, so
            // this cannot change behaviour — only the table's footprint).
            router.prune_dead_links(net);
        }
    }

    fn planner(&self) -> Option<&dyn RoutePlanner> {
        Some(self)
    }

    fn absorb_plan(&mut self, src: NodeId, scratch: PlanScratch) {
        let s = scratch
            .downcast::<QlecPlanScratch>()
            .expect("QlecProtocol scratch");
        if let Some(router) = self.router.as_mut() {
            router.absorb_plan(src, s.v_src, s.updates, &s.deltas);
        }
        if self.obs.is_active() {
            for &delta in &s.deltas {
                self.obs.emit(Event::QUpdate {
                    round: self.current_round,
                    node: src.0,
                    delta,
                });
            }
        }
    }
}

/// Per-node planning state for the parallel engine (one per member node
/// per round, created by [`RoutePlanner::begin_node`]).
///
/// `v_src` carries the node's `V*` through its packets' fixed-point
/// iterations; `overlay` layers this node's pending link-EWMA updates
/// over the shared table (the shared table itself is only written at
/// merge time, through the usual `on_hop_result` replay, so cross-node
/// learning lands between rounds regardless of thread count); `deltas`
/// and `updates` are the bookkeeping that [`QlecProtocol::absorb_plan`]
/// commits.
struct QlecPlanScratch {
    /// `V*(src)`, carried across this node's planned packets.
    v_src: f64,
    /// Pending link beliefs `(destination, P̂)` (`u32::MAX` = BS), one
    /// entry per target this node's planned attempts reached. All share
    /// `src`, so the source id is implicit. A node only ever targets its
    /// candidate window plus the BS, a handful of entries, so a linear
    /// scan beats hashing.
    overlay: Vec<(u32, f64)>,
    /// Targets that NACKed the packet currently being planned.
    nacked: Vec<Target>,
    /// This node's pruned candidate set, computed on its first planned
    /// attempt. Planning sees a frozen network, so the query — and the
    /// alive filter — return the same set for every attempt of every
    /// packet of the node.
    candidate_buf: Vec<NodeId>,
    /// Whether `candidate_buf` already holds this node's pruned set.
    knn_ready: bool,
    /// Signed `V*(src)` change per planned packet, in packet order.
    deltas: Vec<f64>,
    /// Elementary Q computations performed while planning.
    updates: u64,
}

fn overlay_key(t: Target) -> u32 {
    match t {
        Target::Bs => u32::MAX,
        Target::Head(h) => h.0,
    }
}

impl RoutePlanner for QlecProtocol {
    fn begin_node(&self, _net: &Network, src: NodeId) -> PlanScratch {
        Box::new(QlecPlanScratch {
            v_src: self.router.as_ref().map_or(0.0, |r| r.v_of(src)),
            overlay: Vec::new(),
            nacked: Vec::new(),
            candidate_buf: Vec::new(),
            knn_ready: false,
            deltas: Vec::new(),
            updates: 0,
        })
    }

    fn begin_packet(&self, _src: NodeId, scratch: &mut PlanScratch) {
        let s = scratch
            .downcast_mut::<QlecPlanScratch>()
            .expect("QlecProtocol scratch");
        s.nacked.clear();
    }

    fn plan_target(
        &self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        _rng: &mut dyn RngCore,
        scratch: &mut PlanScratch,
    ) -> Target {
        if !self.q_routing {
            return nearest_head(net, src, heads).map_or(Target::Bs, Target::Head);
        }
        let s = scratch
            .downcast_mut::<QlecPlanScratch>()
            .expect("QlecProtocol scratch");
        let router = self
            .router
            .as_ref()
            .expect("router initialized in on_round_start");
        let QlecPlanScratch {
            v_src,
            overlay,
            nacked,
            candidate_buf,
            knn_ready,
            deltas,
            updates,
        } = s;
        THREAD_BUFS.with_borrow_mut(|bufs| {
            // Same pruned-candidate query as `choose_target`, computed once
            // per node on the worker's buffers (the index itself is only
            // read — `&self` planning stays free of interior mutation).
            let candidates: &[NodeId] = if self.candidates_active {
                if !*knn_ready {
                    self.nearest_heads_into(
                        net.node(src).pos,
                        self.knn_window(),
                        &mut bufs.knn_out,
                    );
                    alive_prefix(
                        net,
                        bufs.knn_out.iter().map(|&(id, _)| id),
                        self.candidate_budget,
                        candidate_buf,
                    );
                    *knn_ready = true;
                }
                if candidate_buf.is_empty() {
                    heads
                } else {
                    candidate_buf
                }
            } else {
                heads
            };
            let overlay: &[(u32, f64)] = overlay;
            let p_base = |t: Target| -> f64 {
                let key = overlay_key(t);
                match overlay.iter().find(|e| e.0 == key) {
                    Some(&(_, p)) => p,
                    None => router.links().probability(src, t),
                }
            };
            let v_before = *v_src;
            let target = router.send_data_core(
                net,
                src,
                candidates,
                nacked,
                v_src,
                &p_base,
                updates,
                &mut bufs.actions,
            );
            deltas.push(*v_src - v_before);
            target
        })
    }

    fn plan_hop_result(
        &self,
        src: NodeId,
        target: Target,
        success: bool,
        scratch: &mut PlanScratch,
    ) {
        let s = scratch
            .downcast_mut::<QlecPlanScratch>()
            .expect("QlecProtocol scratch");
        if let Some(router) = self.router.as_ref() {
            let (links, key) = (router.links(), overlay_key(target));
            match s.overlay.iter_mut().find(|e| e.0 == key) {
                Some((_, p)) => *p = links.updated(*p, success),
                None => {
                    let p = links.updated(links.probability(src, target), success);
                    s.overlay.push((key, p));
                }
            }
        }
        if !success {
            s.nacked.push(target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlec_net::{NetworkBuilder, SimConfig, Simulator};
    use qlec_radio::link::{AnyLink, DistanceLossLink, IdealLink};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_net(seed: u64, link: AnyLink) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new()
            .link(link)
            .uniform_cube(&mut rng, 100, 200.0, 5.0)
    }

    #[test]
    fn full_run_is_conserved_and_delivers() {
        let net = paper_net(1, AnyLink::Ideal(IdealLink));
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = QlecProtocol::builder().k(5).build();
        let report = Simulator::builder(net)
            .config(SimConfig::paper(5.0))
            .build()
            .run(&mut p, &mut rng);
        assert!(report.totals.is_conserved());
        assert!(report.pdr() > 0.9, "QLEC idle PDR {}", report.pdr());
        assert_eq!(report.protocol, "qlec");
        assert!(p.q_updates() > 0);
    }

    #[test]
    fn kopt_is_derived_when_not_overridden() {
        let net = paper_net(3, AnyLink::Ideal(IdealLink));
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = QlecProtocol::builder().build();
        assert_eq!(p.k(), None);
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 1;
        let _ = Simulator::builder(net)
            .config(cfg)
            .build()
            .run(&mut p, &mut rng);
        let k = p.k().expect("k computed on first round");
        // Centre-BS Theorem 1 value for N=100, M=200 (see kopt.rs note).
        assert!((8..=14).contains(&k), "derived k_opt = {k}");
    }

    #[test]
    fn head_counts_stay_near_k() {
        let net = paper_net(5, AnyLink::Ideal(IdealLink));
        let mut rng = StdRng::seed_from_u64(6);
        let mut p = QlecProtocol::builder().k(5).build();
        let report = Simulator::builder(net)
            .config(SimConfig::paper(5.0))
            .build()
            .run(&mut p, &mut rng);
        let mean = report.mean_head_count();
        assert!((4.0..=6.0).contains(&mean), "mean head count {mean}");
    }

    #[test]
    fn members_avoid_direct_bs_when_heads_exist() {
        let net = paper_net(7, AnyLink::Ideal(IdealLink));
        let mut rng = StdRng::seed_from_u64(8);
        let mut p = QlecProtocol::builder().k(5).build();
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 5;
        let report = Simulator::builder(net)
            .config(cfg)
            .build()
            .run(&mut p, &mut rng);
        // Direct-to-BS member hops would show up as delivered packets with
        // sub-slot latency; with ideal links and the l penalty every
        // member packet should go through a head. We check the lifespan
        // counters indirectly: no dropped_dead, conserved, high PDR.
        assert!(report.pdr() > 0.9);
    }

    #[test]
    fn q_routing_beats_nearest_head_under_congestion() {
        // The Fig. 3(a) mechanism in miniature: under congestion, the
        // nearest-head rule pins each member to one queue, so big
        // clusters overflow while small ones idle; the ACK-driven router
        // senses queue refusals (P̂ drops) and redistributes load.
        let run = |q_routing: bool, seed: u64| {
            let net = paper_net(9, AnyLink::Ideal(IdealLink));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = QlecProtocol::builder().k(5).q_routing(q_routing).build();
            let mut cfg = SimConfig::paper(2.0); // congested
            cfg.rounds = 10;
            Simulator::builder(net)
                .config(cfg)
                .build()
                .run(&mut p, &mut rng)
                .pdr()
        };
        // Average over seeds to damp randomized-election noise.
        let seeds = [10u64, 11, 12];
        let with_q: f64 = seeds.iter().map(|&s| run(true, s)).sum::<f64>() / seeds.len() as f64;
        let without: f64 = seeds.iter().map(|&s| run(false, s)).sum::<f64>() / seeds.len() as f64;
        assert!(
            with_q > without,
            "Q-routing congested PDR {with_q} should beat nearest-head {without}"
        );
    }

    #[test]
    fn q_routing_matches_nearest_head_on_lossy_links() {
        // With distance-monotone link loss, nearest-head is already
        // reliability-optimal; the learned router must not do materially
        // worse while it spends packets learning the link map. Uses the
        // experiments' own link model (reliable below ~150 m): under
        // much harsher loss the ACK signal conflates congestion with
        // radio loss and the comparison is not meaningful.
        let link = AnyLink::DistanceLoss(DistanceLossLink::for_cube(200.0));
        let run = |q_routing: bool, seed: u64| {
            let net = paper_net(9, link);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = QlecProtocol::builder().k(5).q_routing(q_routing).build();
            let mut cfg = SimConfig::paper(4.0);
            cfg.rounds = 10;
            Simulator::builder(net)
                .config(cfg)
                .build()
                .run(&mut p, &mut rng)
                .pdr()
        };
        let seeds = [10u64, 11, 12];
        let with_q: f64 = seeds.iter().map(|&s| run(true, s)).sum::<f64>() / seeds.len() as f64;
        let without: f64 = seeds.iter().map(|&s| run(false, s)).sum::<f64>() / seeds.len() as f64;
        assert!(
            with_q >= without - 0.05,
            "Q-routing PDR {with_q} trails nearest-head {without} by too much"
        );
    }

    #[test]
    fn candidate_pruning_off_or_inert_is_identical() {
        // The default `CandidatePolicy::Auto` is inert at k = 5 (its
        // budget is k), as is a budget the head set never exceeds: both
        // runs take the unpruned path. Identical RNG streams ⇒
        // identical reports.
        let run = |c: Option<usize>| {
            let net = paper_net(21, AnyLink::Ideal(IdealLink));
            let mut rng = StdRng::seed_from_u64(22);
            let mut b = QlecProtocol::builder().k(5);
            if let Some(c) = c {
                b = b.candidate_heads(c);
            }
            let mut p = b.build();
            let mut cfg = SimConfig::paper(5.0);
            cfg.rounds = 10;
            Simulator::builder(net)
                .config(cfg)
                .build()
                .run(&mut p, &mut rng)
        };
        let off = run(None);
        let inert = run(Some(50)); // ≥ any head count at k = 5
        assert_eq!(off.consumption_rates, inert.consumption_rates);
        assert_eq!(off.pdr(), inert.pdr());
        assert_eq!(off.mean_head_count(), inert.mean_head_count());
    }

    #[test]
    fn candidate_pruning_small_c_stays_equivalent() {
        // Aggressive pruning (c = 2 of k = 5 heads) must preserve the
        // protocol's character: conserved energy, near-full idle PDR, and
        // an unchanged head-selection trajectory (selection never looks at
        // the knob).
        let run = |prune: bool| {
            let net = paper_net(23, AnyLink::Ideal(IdealLink));
            let mut rng = StdRng::seed_from_u64(24);
            let mut b = QlecProtocol::builder().k(5);
            if prune {
                b = b.candidate_heads(2);
            }
            let mut p = b.build();
            Simulator::builder(net)
                .config(SimConfig::paper(5.0))
                .build()
                .run(&mut p, &mut rng)
        };
        let full = run(false);
        let pruned = run(true);
        assert!(pruned.totals.is_conserved());
        assert!(pruned.pdr() > 0.9, "pruned idle PDR {}", pruned.pdr());
        assert_eq!(full.mean_head_count(), pruned.mean_head_count());
        assert!(
            (full.pdr() - pruned.pdr()).abs() < 0.05,
            "pruned PDR {} vs full {}",
            pruned.pdr(),
            full.pdr()
        );
    }

    #[test]
    fn link_table_is_pruned_over_a_lifespan_run() {
        // Run a deployment to total meltdown: every endpoint eventually
        // dies, so the round-end pruning must leave the link table empty.
        // Before this PR the table kept one entry per directed link ever
        // used — the regression this guards against.
        let mut rng = StdRng::seed_from_u64(25);
        let net = NetworkBuilder::new()
            .link(AnyLink::Ideal(IdealLink))
            .uniform_cube(&mut rng, 60, 200.0, 0.05);
        let mut p = QlecProtocol::builder().k(5).build();
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 400;
        let report = Simulator::builder(net)
            .config(cfg)
            .build()
            .run(&mut p, &mut rng);
        assert_eq!(
            report.rounds.last().expect("ran").alive_end,
            0,
            "premise: the network melts down"
        );
        assert!(p.q_updates() > 0, "premise: links were exercised");
        let tracked = p.router().expect("router ran").links().links_tracked();
        assert_eq!(tracked, 0, "{tracked} link entries leaked past death");
    }

    #[test]
    fn rotation_spreads_head_duty() {
        let net = paper_net(15, AnyLink::Ideal(IdealLink));
        let mut rng = StdRng::seed_from_u64(16);
        let mut p = QlecProtocol::builder().k(5).build();
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 20;
        let sim = Simulator::builder(net).config(cfg);
        let _ = sim; // run consumes; rebuild to inspect final network
        let net = paper_net(15, AnyLink::Ideal(IdealLink));
        let sim = Simulator::builder(net).config(cfg);
        let report = sim.build().run(&mut p, &mut rng);
        // ~5 heads × 20 rounds = ~100 head-slots across 100 nodes: the
        // rotation should touch a sizable fraction of the network.
        let served = report
            .consumption_rates
            .iter()
            .filter(|&&r| r > 0.0)
            .count();
        assert!(served > 50, "only {served} nodes consumed energy");
    }

    #[test]
    fn survives_heavily_drained_network() {
        let mut net = paper_net(17, AnyLink::Ideal(IdealLink));
        for i in 0..95u32 {
            net.node_mut(NodeId(i)).battery.consume(4.99);
        }
        let mut rng = StdRng::seed_from_u64(18);
        let mut p = QlecProtocol::builder().k(5).build();
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 10;
        let report = Simulator::builder(net)
            .config(cfg)
            .build()
            .run(&mut p, &mut rng);
        assert!(report.totals.is_conserved());
    }

    /// The uncached reference for a retarget's candidate set: a brute
    /// force `(squared distance, id)` ranking of this round's heads, cut
    /// to the k-nearest window and filtered by the live alive flags.
    fn uncached_candidates(p: &QlecProtocol, net: &Network, src: NodeId) -> Vec<NodeId> {
        let q = net.node(src).pos;
        let mut ranked: Vec<(f64, u32)> = p
            .head_ids
            .iter()
            .map(|&h| (net.node(NodeId(h)).pos.dist_sq(q), h))
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        ranked.truncate(p.knn_window());
        ranked
            .into_iter()
            .map(|(_, h)| NodeId(h))
            .filter(|&h| net.node(h).is_alive())
            .take(p.candidate_budget)
            .collect()
    }

    #[test]
    fn retarget_cache_tracks_head_deaths_and_resets_per_round() {
        // k = 40 heads against a budget of 4: the candidate index is in
        // use, and every retarget goes through the per-round cache.
        let mut rng = StdRng::seed_from_u64(51);
        let mut net = NetworkBuilder::new()
            .link(AnyLink::Ideal(IdealLink))
            .uniform_cube(&mut rng, 400, 200.0, 5.0);
        let mut p = QlecProtocol::builder().k(40).candidate_heads(4).build();
        let unranked = |p: &QlecProtocol| {
            p.retarget_ids.is_empty() && p.retarget_slot.iter().all(|&s| s == UNRANKED)
        };
        let heads = p.on_round_start(&mut net, 0, &mut rng);
        assert!(p.candidates_active, "premise: pruning is binding");
        assert!(unranked(&p));
        let members: Vec<NodeId> = net
            .ids()
            .filter(|id| !heads.contains(id))
            .take(40)
            .collect();
        let retarget = |p: &mut QlecProtocol, net: &Network, src: NodeId| {
            p.on_packet_start(src);
            p.choose_target(net, src, &heads, &mut StdRng::seed_from_u64(0));
            assert_eq!(p.candidate_buf, uncached_candidates(p, net, src), "{src}");
        };
        for &src in &members {
            retarget(&mut p, &net, src);
            assert_ne!(p.retarget_slot[src.index()], UNRANKED, "{src} cached");
        }
        // A mid-round head death: the cached ranking is reused, and the
        // live alive filter drops the dead head from the candidate set.
        let src = members[0];
        let victim = p.candidate_buf[0];
        net.node_mut(victim).battery.consume(10.0);
        let ranked = p.retarget_ids.len();
        retarget(&mut p, &net, src);
        assert_eq!(
            p.retarget_ids.len(),
            ranked,
            "ranking reused, not re-queried"
        );
        assert!(!p.candidate_buf.contains(&victim), "dead head filtered out");
        // A round boundary drops every cached ranking; the next retarget
        // queries the new round's index.
        p.on_round_end(&mut net, 0, &heads);
        let heads = p.on_round_start(&mut net, 1, &mut rng);
        assert!(p.candidates_active);
        assert!(unranked(&p), "on_round_start resets the cache");
        for &src in members.iter().filter(|id| !heads.contains(id)) {
            p.on_packet_start(src);
            p.choose_target(&net, src, &heads, &mut StdRng::seed_from_u64(0));
            assert_eq!(p.candidate_buf, uncached_candidates(&p, &net, src), "{src}");
        }
    }

    #[test]
    fn planner_path_is_bit_identical_to_the_live_path() {
        // Production runs plan through `plan_target` / `plan_hop_result`,
        // which keep V*(src) and the pending link beliefs in the per-node
        // scratch; the live path (`choose_target` + `on_hop_result`)
        // writes both in place. For one source over many packets, with
        // NACK churn and a dead head in its candidate window, the two
        // must agree bit for bit: targets, per-decision deltas, the final
        // V*(src) and the elementary-update count.
        let setup = || {
            let mut rng = StdRng::seed_from_u64(81);
            let mut net = NetworkBuilder::new()
                .link(AnyLink::Ideal(IdealLink))
                .uniform_cube(&mut rng, 400, 200.0, 5.0);
            let mut p = QlecProtocol::builder().k(40).candidate_heads(4).build();
            let heads = p.on_round_start(&mut net, 0, &mut rng);
            (net, p, heads)
        };
        let (mut net, mut planned, heads) = setup();
        let (mut live_net, mut live, live_heads) = setup();
        assert_eq!(heads, live_heads);
        assert!(planned.candidates_active, "premise: pruning is binding");
        let src = net.ids().find(|id| !heads.contains(id)).expect("a member");
        // Kill the nearest head of `src`'s window in both networks.
        let victim = uncached_candidates(&planned, &net, src)[0];
        net.node_mut(victim).battery.consume(10.0);
        live_net.node_mut(victim).battery.consume(10.0);

        let planner = planned.planner().expect("QLEC plans");
        let mut scratch = planner.begin_node(&net, src);
        let mut rng = StdRng::seed_from_u64(0);
        let (mut live_deltas, mut targets) = (Vec::new(), Vec::new());
        let mut x: u64 = 0x2545_F491;
        for packet in 0..300 {
            planner.begin_packet(src, &mut scratch);
            live.on_packet_start(src);
            for attempt in 0..4 {
                let a = planner.plan_target(&net, src, &heads, &mut rng, &mut scratch);
                let b = live.choose_target(&live_net, src, &heads, &mut rng);
                assert_eq!(a, b, "packet {packet} attempt {attempt}");
                assert_ne!(a, Target::Head(victim), "dead head chosen");
                live_deltas.push(live.router().expect("router").last_delta());
                targets.push(a);
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let success = (x >> 33).is_multiple_of(3);
                planner.plan_hop_result(src, a, success, &mut scratch);
                live.on_hop_result(src, b, success);
                if success {
                    break;
                }
            }
        }
        targets.sort_unstable_by_key(|t| match t {
            Target::Head(h) => h.0,
            Target::Bs => u32::MAX,
        });
        targets.dedup();
        assert!(targets.len() >= 3, "premise: NACKs move the argmax");
        let s = scratch
            .downcast_ref::<QlecPlanScratch>()
            .expect("QlecProtocol scratch");
        let bits = |d: &[f64]| d.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&s.deltas), bits(&live_deltas), "per-decision deltas");
        planned.absorb_plan(src, scratch);
        let v = |p: &QlecProtocol| p.router().expect("router").v_of(src).to_bits();
        assert_eq!(v(&planned), v(&live), "V*(src) bits");
        assert_eq!(planned.q_updates(), live.q_updates(), "update counts");
    }

    #[test]
    fn event_stream_is_thread_invariant_under_the_example_fault_plan() {
        // The `qlec-sim run --n 1000 --faults examples/faults.json
        // --events -` stream (9 rounds reach the plan's drain, crash,
        // link degradation and region blackout) at threads 1, 2 and 4.
        use qlec_net::{FaultDriver, FaultPlan};
        use qlec_obs::JsonLinesSink;
        use std::io::Write;
        use std::sync::{Arc, Mutex};

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

        let plan: FaultPlan =
            serde_json::from_str(include_str!("../../../examples/faults.json")).expect("plan");
        let run = |threads: usize| -> Vec<u8> {
            let mut rng = StdRng::seed_from_u64(61);
            let net = NetworkBuilder::new()
                .link(AnyLink::DistanceLoss(DistanceLossLink::for_cube(200.0)))
                .uniform_cube(&mut rng, 1000, 200.0, 5.0);
            let buf = SharedBuf::default();
            let mut obs = ObserverSet::new();
            obs.attach(Arc::new(Mutex::new(
                JsonLinesSink::new(buf.clone()).expect("sink"),
            )));
            let mut cfg = SimConfig::paper(5.0);
            cfg.rounds = 9;
            cfg.threads = threads;
            let mut p = QlecProtocol::builder()
                .total_rounds(9)
                .observer(obs.clone())
                .build();
            Simulator::builder(net)
                .config(cfg)
                .observers(obs.clone())
                .faults(FaultDriver::new(plan.clone()).expect("plan validates"))
                .build()
                .run(&mut p, &mut rng);
            assert!(p.candidates_active, "premise: the retarget cache is in use");
            obs.flush().expect("flush");
            let bytes = buf.0.lock().unwrap().clone();
            bytes
        };
        let base = run(1);
        assert!(base.len() > 100_000, "premise: a real event stream");
        for threads in [2, 4] {
            assert!(
                run(threads) == base,
                "events diverged at threads = {threads}"
            );
        }
    }

    #[test]
    #[ignore = "known defect: revived nodes missing from the Alg. 3 grid; see ROADMAP"]
    fn revived_nodes_are_back_in_the_grid_after_a_blackout() {
        // A blackout darkens ten nodes for round 1; from round 2 they are
        // alive again, so Algorithm 3's HELLO and withdrawal ball queries
        // must find them. The grid only ever removes nodes, so they stay
        // missing.
        let mut net = paper_net(71, AnyLink::Ideal(IdealLink));
        let mut rng = StdRng::seed_from_u64(72);
        let mut p = QlecProtocol::builder().k(5).build();
        let dark: Vec<NodeId> = (0..10).map(NodeId).collect();
        for round in 0..3 {
            for &id in &dark {
                *net.node_mut(id).online = round != 1;
            }
            let heads = p.on_round_start(&mut net, round, &mut rng);
            p.on_round_end(&mut net, round, &heads);
        }
        let grid = p.grid.as_ref().expect("grid built");
        for id in net.ids().filter(|&id| net.node(id).is_alive()) {
            assert!(
                grid.within_radius(net.node(id).pos, 0.0).contains(&id.0),
                "alive node {id} is missing from the grid"
            );
        }
    }

    #[test]
    fn named_variant_reports_custom_name() {
        let p = QlecProtocol::builder().k(5).named("qlec-ablated").build();
        assert_eq!(p.name(), "qlec-ablated");
    }
}
