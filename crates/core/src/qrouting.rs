//! The Data Transmission Phase — Algorithm 4 (`Send-Data`) and the reward
//! functions of Eq. 16–20.
//!
//! Per §4.2, each non-head node `b_i` maintains a state space
//! `S(b_i) = {b_i, h_BS} ∪ H` and, on every packet, *computes* the Q-value
//! of forwarding to each current head (and the BS) from its model —
//! ACK-estimated link probabilities and the reward functions — instead of
//! sampling real transitions:
//!
//! ```text
//! Q*(b_i, a_j) = R_t + γ·(P^{a_j}_{b_i h_j}·V*(h_j) + P^{a_j}_{b_i b_i}·V*(b_i))
//! R_t          = P·R^{a_j}_{b_i h_j} + (1−P)·R^{a_j}_{b_i b_i}                (Eq. 16)
//! R^{a_j}_{b_i h_j} = −g + α₁[x(b_i)+x(h_j)] − α₂·y(b_i,h_j)                  (Eq. 17)
//! R^{a_BS}_{b_i h_BS} = … − l                                                  (Eq. 19)
//! R^{a_j}_{b_i b_i} = −g + β₁·x(b_i) − β₂·y(b_i,h_j)                          (Eq. 20)
//! ```
//!
//! then updates `V*(b_i) = max_j Q*(b_i, a_j)` and forwards to the argmax
//! head. Cluster heads run the same update for their own BS hop at the
//! round end (Algorithm 1 line 15) — without the `l` penalty, since
//! relaying to the BS is a head's job, not the behaviour Eq. 19 punishes.
//!
//! Scaling conventions (see [`crate::params::QlecParams`]): `x(·)` is the
//! residual *fraction* and `y(·,·)` is the Eq. 18 transmission energy
//! normalized by the cost at a reference distance, so the Table 2 weights
//! are meaningful on any deployment.

use crate::params::QlecParams;
use qlec_mdp::{ConvergenceTracker, SparseQRow, UpdateCounter};
use qlec_net::{Network, NodeId, Target};
use std::collections::HashMap;

/// Key for the link-probability table: `(source, destination)` with
/// `u32::MAX` standing in for the base station.
type LinkKey = (u32, u32);

const BS_KEY: u32 = u32::MAX;

fn key_of(src: NodeId, target: Target) -> LinkKey {
    match target {
        Target::Bs => (src.0, BS_KEY),
        Target::Head(h) => (src.0, h.0),
    }
}

/// ACK-ratio link-probability estimator (§4.2, following \[2\]): an EWMA
/// of transmission outcomes per directed link, with an optimistic prior.
#[derive(Debug, Clone)]
pub struct LinkEstimator {
    weight: f64,
    prior: f64,
    table: HashMap<LinkKey, f64>,
}

impl LinkEstimator {
    /// Create with the given EWMA weight and prior.
    pub fn new(weight: f64, prior: f64) -> Self {
        assert!((0.0..=1.0).contains(&weight) && weight > 0.0);
        assert!((0.0..=1.0).contains(&prior));
        LinkEstimator {
            weight,
            prior,
            table: HashMap::new(),
        }
    }

    /// Current estimate `P̂` for a link.
    pub fn probability(&self, src: NodeId, target: Target) -> f64 {
        *self.table.get(&key_of(src, target)).unwrap_or(&self.prior)
    }

    /// Fold in one ACK (or its absence).
    pub fn record(&mut self, src: NodeId, target: Target, success: bool) {
        let entry = self.table.entry(key_of(src, target)).or_insert(self.prior);
        let obs = if success { 1.0 } else { 0.0 };
        *entry += self.weight * (obs - *entry);
    }

    /// The estimate that [`LinkEstimator::record`] would leave behind,
    /// given the current estimate — the pure EWMA step, exposed so
    /// plan-time code can maintain a private overlay of pending updates
    /// without mutating the shared table.
    pub fn updated(&self, current: f64, success: bool) -> f64 {
        let obs = if success { 1.0 } else { 0.0 };
        current + self.weight * (obs - current)
    }

    /// Number of links with recorded evidence.
    pub fn links_tracked(&self) -> usize {
        self.table.len()
    }

    /// Drop every link with a dead endpoint. Dead nodes never transmit
    /// again and never come back, so their entries are pure leak: over a
    /// lifespan run the table would otherwise keep one entry per directed
    /// link ever exercised, long after both ends stopped existing. BS
    /// links survive as long as their source does (the BS is
    /// mains-powered).
    pub fn prune_dead(&mut self, net: &Network) {
        self.table.retain(|&(src, dst), _| {
            net.node(NodeId(src)).is_alive() && (dst == BS_KEY || net.node(NodeId(dst)).is_alive())
        });
    }
}

/// Sweep cap and convergence tolerance of the `Send-Data` fixed point.
const MAX_SWEEPS: usize = 60;
const SWEEP_TOL: f64 = 1e-6;

/// Sweep-invariant constants of one `Send-Data` action, hoisted by
/// [`QRouter::send_data_core`]: the (NACK-halved) link belief, the
/// Eq. 16 expected reward, and the target's `V*` — everything in the
/// Q-value except the failure self-loop term that the fixed point
/// iterates on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActionConst {
    target: Target,
    p_ok: f64,
    r_t: f64,
    v_target: f64,
}

/// The per-network Q-routing state: one V value per node plus the BS.
#[derive(Debug, Clone)]
pub struct QRouter {
    params: QlecParams,
    /// `V*(b_i)` for every node; the BS is pinned at 0 (terminal — its
    /// value never updates, matching the terminal-state convention of
    /// `qlec-mdp`).
    v: Vec<f64>,
    links: LinkEstimator,
    /// Reference transmission cost used to normalize Eq. 18 (cost at the
    /// deployment side length).
    y_ref: f64,
    /// Counts elementary Q computations — the paper's `X` (Lemma 3).
    pub updates: UpdateCounter,
    /// Tracks V-value deltas for convergence measurement.
    pub convergence: ConvergenceTracker,
    /// Signed V change of the most recent update (observability).
    last_delta: f64,
    /// Action buffer reused by [`QRouter::send_data_excluding`].
    actions: Vec<ActionConst>,
}

impl QRouter {
    /// Initialize for a network: "all the V values and Q values are
    /// initialized to 0" (§4.2).
    pub fn new(net: &Network, params: QlecParams) -> Self {
        params.validate().expect("invalid QlecParams");
        let m = net.side_length().max(1e-9);
        // Eq. 18 cost at the reference distance; per-bit (bit count
        // cancels in the normalized ratio, so use 1 bit). Eq. 18 is the
        // *amplifier* energy only (`L·ε_fs·d²` / `L·ε_mp·d⁴` — no
        // electronics term).
        let y_ref = net.radio.amp_energy(1, m);
        QRouter {
            params,
            v: vec![0.0; net.len()],
            links: LinkEstimator::new(params.link_ewma_weight, params.link_prior),
            y_ref,
            updates: UpdateCounter::new(),
            convergence: ConvergenceTracker::new(1e-4),
            last_delta: 0.0,
            actions: Vec::new(),
        }
    }

    /// Signed `V` change of the most recent [`QRouter::send_data`] or
    /// [`QRouter::head_update`] call (0 before any update).
    pub fn last_delta(&self) -> f64 {
        self.last_delta
    }

    /// Current `V*` of a node.
    pub fn v_of(&self, id: NodeId) -> f64 {
        self.v[id.index()]
    }

    /// Link estimator (read access for diagnostics).
    pub fn links(&self) -> &LinkEstimator {
        &self.links
    }

    /// Normalized residual fraction `x(b_i)`.
    fn x(&self, net: &Network, id: NodeId) -> f64 {
        let b = &net.node(id).battery;
        if b.initial() > 0.0 {
            b.residual() / b.initial()
        } else {
            0.0
        }
    }

    /// Normalized Eq. 18 transmission cost `y(b_i, target)` (amplifier
    /// energy, Eq. 18 verbatim).
    fn y(&self, net: &Network, src: NodeId, target: Target) -> f64 {
        let d = match target {
            Target::Bs => net.dist_to_bs(src),
            Target::Head(h) => net.distance(src, h),
        };
        net.radio.amp_energy(1, d) / self.y_ref
    }

    /// Eq. 17 / Eq. 19: reward for a *successful* hop from `src` to
    /// `target`. `penalize_bs` applies the `l` penalty of Eq. 19 (true
    /// for members, false for heads doing their aggregate duty).
    fn reward_success(&self, net: &Network, src: NodeId, target: Target, penalize_bs: bool) -> f64 {
        let p = &self.params;
        let x_target = match target {
            Target::Bs => p.x_bs,
            Target::Head(h) => self.x(net, h),
        };
        let mut r =
            -p.g + p.alpha1 * (self.x(net, src) + x_target) - p.alpha2 * self.y(net, src, target);
        if penalize_bs && target == Target::Bs {
            r -= p.l;
        }
        r
    }

    /// Eq. 20: reward for a failed hop (stay in state `b_i`).
    fn reward_failure(&self, net: &Network, src: NodeId, target: Target) -> f64 {
        let p = &self.params;
        -p.g + p.beta1 * self.x(net, src) - p.beta2 * self.y(net, src, target)
    }

    /// One Algorithm 4 Q-value: Eq. 16 expected reward plus the discounted
    /// two-outcome continuation (Eq. 15 specialised to
    /// `{delivered → target, lost → self}`).
    pub fn q_value(&self, net: &Network, src: NodeId, target: Target, penalize_bs: bool) -> f64 {
        self.q_value_with(
            net,
            src,
            target,
            penalize_bs,
            self.links.probability(src, target),
            self.v[src.index()],
        )
    }

    /// [`QRouter::q_value`] with an explicit link probability and
    /// `V*(src)` — the per-sweep recomputation the tests' reference
    /// `Send-Data` kernel iterates on.
    fn q_value_with(
        &self,
        net: &Network,
        src: NodeId,
        target: Target,
        penalize_bs: bool,
        p_ok: f64,
        v_src: f64,
    ) -> f64 {
        let r_t = p_ok * self.reward_success(net, src, target, penalize_bs)
            + (1.0 - p_ok) * self.reward_failure(net, src, target);
        let v_target = match target {
            Target::Bs => 0.0, // terminal
            Target::Head(h) => self.v[h.index()],
        };
        r_t + self.params.gamma * (p_ok * v_target + (1.0 - p_ok) * v_src)
    }

    /// Algorithm 4 (`Send-Data`): compute Q for every current head and the
    /// BS, update `V*(src)` to the max, and return the argmax action.
    ///
    /// Each `Q(src, a)` is affine in `V*(src)` through the failure
    /// self-loop term `γ·(1−P)·V*(src)`, so `V*(src) = max_a Q_a(V*(src))`
    /// is solved by iterating the backup to its fixed point — this is
    /// §3.3's "nodes are capable of computing the Q values of all the
    /// actions based on their own knowledge to update V values rather
    /// than take real actions". The iteration is a γ-contraction and
    /// typically settles in a handful of sweeps; every elementary Q
    /// computation counts toward the paper's `X`.
    ///
    /// Returns [`Target::Bs`] when `heads` is empty (the only action
    /// left). Dead heads are skipped.
    pub fn send_data(&mut self, net: &Network, src: NodeId, heads: &[NodeId]) -> Target {
        self.send_data_excluding(net, src, heads, &[])
    }

    /// [`QRouter::send_data`] with a per-packet NACK list: each NACK a
    /// target already gave *this* packet halves the link belief used for
    /// the remaining attempts. A single radio fluke on a good link barely
    /// moves the argmax (the packet is retried in place, where success is
    /// still likely), while a persistently-full queue collects NACKs and
    /// is priced out — without ever *removing* the action, so the router
    /// never trades a cheap nearby head for a ruinously distant one
    /// unless the Q comparison genuinely favours it.
    pub fn send_data_excluding(
        &mut self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        nacked: &[Target],
    ) -> Target {
        let v_before = self.v[src.index()];
        let mut v_src = v_before;
        let mut updates = 0u64;
        let mut actions = std::mem::take(&mut self.actions);
        let p_base = |t: Target| self.links.probability(src, t);
        let action = self.send_data_core(
            net,
            src,
            heads,
            nacked,
            &mut v_src,
            &p_base,
            &mut updates,
            &mut actions,
        );
        self.actions = actions;
        self.v[src.index()] = v_src;
        self.updates.add(updates);
        self.last_delta = v_src - v_before;
        self.convergence.observe(self.last_delta.abs());
        action
    }

    /// The Algorithm 4 fixed-point iteration, side-effect-free: `V*(src)`
    /// lives in the caller-owned `v_src`, link beliefs come from the
    /// caller-supplied `p_base` (so a planning pass can layer pending
    /// per-packet EWMA updates over the shared table), and elementary
    /// Q-computation counts accumulate in `updates`.
    ///
    /// Within one call the network is frozen (`&Network`) and the NACK
    /// list fixed, so each action's link belief `P`, Eq. 16 expected
    /// reward `R_t`, and target `V*` are sweep invariants: they are
    /// computed once into `actions` (the caller-owned buffer, cleared
    /// here, so per-packet calls allocate nothing in steady state), and
    /// only the failure self-loop term `γ·(1−P)·V*(src)` is re-evaluated
    /// per sweep. The expression tree `R_t + γ·(P·V*(target) +
    /// (1−P)·V*(src))` is the textbook Q-value's, so every intermediate
    /// f64 — and the elementary-update count, the paper's `X` — matches
    /// a per-sweep recomputation bit for bit. The tests keep that
    /// recomputation as the oracle (`cached_kernel_is_bit_identical`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_data_core(
        &self,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        nacked: &[Target],
        v_src: &mut f64,
        p_base: &dyn Fn(Target) -> f64,
        updates: &mut u64,
        actions: &mut Vec<ActionConst>,
    ) -> Target {
        let p_of = |t: Target| -> f64 {
            let n = nacked.iter().filter(|&&x| x == t).count() as i32;
            p_base(t) * 0.5f64.powi(n)
        };

        // Dead heads are skipped before the elementary-update counter, and
        // the BS action comes last, fixing the argmax comparison order.
        actions.clear();
        for &h in heads {
            if !net.node(h).is_alive() {
                continue;
            }
            let t = Target::Head(h);
            let p_ok = p_of(t);
            let r_t = p_ok * self.reward_success(net, src, t, true)
                + (1.0 - p_ok) * self.reward_failure(net, src, t);
            actions.push(ActionConst {
                target: t,
                p_ok,
                r_t,
                v_target: self.v[h.index()],
            });
        }
        {
            let p_ok = p_of(Target::Bs);
            let r_t = p_ok * self.reward_success(net, src, Target::Bs, true)
                + (1.0 - p_ok) * self.reward_failure(net, src, Target::Bs);
            actions.push(ActionConst {
                target: Target::Bs,
                p_ok,
                r_t,
                v_target: 0.0, // terminal
            });
        }

        let mut action = Target::Bs;
        for _ in 0..MAX_SWEEPS {
            let mut best: Option<(Target, f64)> = None;
            for a in actions.iter() {
                let q = a.r_t + self.params.gamma * (a.p_ok * a.v_target + (1.0 - a.p_ok) * *v_src);
                *updates += 1;
                if best.is_none_or(|(_, bq)| q > bq) {
                    best = Some((a.target, q));
                }
            }
            let (a, v_new) = best.expect("BS action always exists");
            action = a;
            let delta = (v_new - *v_src).abs();
            *v_src = v_new;
            if delta < SWEEP_TOL {
                break;
            }
        }
        action
    }

    /// Commit the outcome of a planning pass that ran the side-effect-free
    /// `Send-Data` fixed point (possibly several times, one per packet)
    /// on a local `V*` copy: write the final value back, fold in
    /// the elementary-update count, and replay the per-packet signed
    /// deltas through the convergence tracker in packet order — exactly
    /// the bookkeeping the in-place path does per call.
    pub fn absorb_plan(&mut self, src: NodeId, v_src: f64, updates: u64, deltas: &[f64]) {
        self.v[src.index()] = v_src;
        self.updates.add(updates);
        for &d in deltas {
            self.last_delta = d;
            self.convergence.observe(d.abs());
        }
    }

    /// Algorithm 1 line 15: a cluster head refreshes its own V from its
    /// BS-hop Q-value after forwarding the aggregate (no Eq. 19 penalty —
    /// see the module docs).
    ///
    /// `aggregate_share` is the fraction of a member packet's bits that
    /// actually travel on the head's fused BS transmission — the data
    /// fusion compression ratio (Table 2: 0.5). The head's transmission
    /// cost `y(h, BS)` is scaled by it so the value a member inherits
    /// through `V*(h_j)` reflects the *marginal* cost its packet adds to
    /// the aggregate, not a full uncompressed retransmission.
    pub fn head_update(&mut self, net: &Network, head: NodeId, aggregate_share: f64) {
        assert!(
            (0.0..=1.0).contains(&aggregate_share),
            "aggregate_share must be in [0,1], got {aggregate_share}"
        );
        let q = self.head_q(net, head, aggregate_share);
        self.updates.bump();
        self.last_delta = q - self.v[head.index()];
        self.convergence.observe(self.last_delta.abs());
        self.v[head.index()] = q;
    }

    /// The pure Q-value behind [`QRouter::head_update`]. Reads only the
    /// head's own `V` (plus the shared link table and frozen network), so
    /// distinct heads' values can be computed in any order — or in
    /// parallel — without changing a single bit.
    fn head_q(&self, net: &Network, head: NodeId, aggregate_share: f64) -> f64 {
        let p = self.params;
        let p_ok = self.links.probability(head, Target::Bs);
        let r_success = -p.g + p.alpha1 * (self.x(net, head) + p.x_bs)
            - p.alpha2 * aggregate_share * self.y(net, head, Target::Bs);
        let r_failure = -p.g + p.beta1 * self.x(net, head)
            - p.beta2 * aggregate_share * self.y(net, head, Target::Bs);
        let r_t = p_ok * r_success + (1.0 - p_ok) * r_failure;
        r_t + p.gamma * (1.0 - p_ok) * self.v[head.index()]
    }

    /// [`QRouter::head_update`] over a whole head roster, in roster
    /// order. Returns the per-head signed deltas in roster order for
    /// event emission.
    pub fn head_update_batch(
        &mut self,
        net: &Network,
        heads: &[NodeId],
        aggregate_share: f64,
    ) -> Vec<f64> {
        assert!(
            (0.0..=1.0).contains(&aggregate_share),
            "aggregate_share must be in [0,1], got {aggregate_share}"
        );
        let qs: Vec<f64> = heads
            .iter()
            .map(|&h| self.head_q(net, h, aggregate_share))
            .collect();
        let mut deltas = Vec::with_capacity(heads.len());
        for (&h, &q) in heads.iter().zip(&qs) {
            self.updates.bump();
            self.last_delta = q - self.v[h.index()];
            self.convergence.observe(self.last_delta.abs());
            self.v[h.index()] = q;
            deltas.push(self.last_delta);
        }
        deltas
    }

    /// ACK feedback from the simulator.
    pub fn on_hop_result(&mut self, src: NodeId, target: Target, success: bool) {
        self.links.record(src, target, success);
    }

    /// Round-end housekeeping: drop link estimates whose endpoint died
    /// (see [`LinkEstimator::prune_dead`]). Behaviour-invariant — dead
    /// links are never consulted again — but keeps `links_tracked()`
    /// bounded by the live topology instead of the run's history.
    pub fn prune_dead_links(&mut self, net: &Network) {
        self.links.prune_dead(net);
    }
}

/// Per-round record of every node's decision Q-values — the paper's
/// Q-rows, materialized for inspection without touching the hot path.
///
/// The router itself stores only `V*` per node (`Q*(b_i, a_j)` is
/// *computed* per packet, §4.2); this store records the value behind
/// each committed decision: `V*(src)` after a `Send-Data` argmax keyed
/// by the chosen target, and a head's line-15 `Q(h, a_BS)` keyed by the
/// BS. It is strictly write-only with respect to routing — nothing on
/// the decision path ever reads it — so any thread count produces
/// byte-identical event streams by construction.
///
/// Each node keeps one [`SparseQRow`] sized by the Theorem-1 candidate
/// budget, so the store stays linear in `N` at any scale. Rows are
/// cleared lazily per round via a round stamp: a row's first write in
/// round `r` resets it, and reads of rows not written in the current
/// round see an empty row. Keys are node ids with `u32::MAX` for the BS
/// (the link-table convention).
#[derive(Debug, Clone)]
pub struct QRowStore {
    /// One budgeted row per source node.
    rows: Vec<SparseQRow>,
    /// Round each row was last written in (`u32::MAX` = never).
    stamp: Vec<u32>,
    round: u32,
}

impl QRowStore {
    /// Create a store for `n` nodes. `budget` caps the entries a row
    /// retains (the Theorem-1 candidate window plus the BS; the weakest
    /// entry is evicted beyond it — acceptable for a diagnostic, and
    /// unreachable while per-round distinct targets fit the budget).
    pub fn new(n: usize, budget: usize) -> Self {
        QRowStore {
            rows: vec![SparseQRow::new(budget.max(1)); n],
            stamp: vec![u32::MAX; n],
            round: 0,
        }
    }

    /// Number of source rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the store tracks zero nodes.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The round rows currently belong to.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Enter a round: later writes reset each row they touch first.
    pub fn begin_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Record the Q-value behind a decision of `src` toward `key` (a
    /// node id, or `u32::MAX` for the BS). Last write per key wins
    /// within a round.
    pub fn record(&mut self, src: u32, key: u32, q: f64) {
        let i = src as usize;
        debug_assert!(i < self.len(), "source {src} out of range");
        if self.stamp[i] != self.round {
            self.rows[i].clear();
            self.stamp[i] = self.round;
        }
        self.rows[i].set(key, q);
    }

    /// The recorded Q-value of `src` toward `key` this round (0.0 when
    /// the row was not written this round or the key is absent).
    pub fn q(&self, src: u32, key: u32) -> f64 {
        let i = src as usize;
        if i >= self.len() || self.stamp[i] != self.round {
            return 0.0;
        }
        self.rows[i].get(key)
    }

    /// This round's non-zero entries of `src`'s row, key-ascending with
    /// the BS (`u32::MAX`) last.
    pub fn row(&self, src: u32) -> Vec<(u32, f64)> {
        let i = src as usize;
        if i >= self.len() || self.stamp[i] != self.round {
            return Vec::new();
        }
        self.rows[i].iter().filter(|&(_, q)| q != 0.0).collect()
    }

    /// Count of rows written in the current round.
    pub fn rows_touched(&self) -> usize {
        self.stamp.iter().filter(|&&s| s == self.round).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlec_geom::Vec3;
    use qlec_mdp::QTable;
    use qlec_net::NetworkBuilder;

    /// Line deployment: src at origin, near head at 30 m, far head at
    /// 150 m, BS at 60 m (the enclosing-box centre is irrelevant — we pin
    /// the BS).
    fn line_net() -> Network {
        NetworkBuilder::new()
            .bs_at(Vec3::new(60.0, 0.0, 0.0))
            .from_nodes(&[
                (Vec3::new(0.0, 0.0, 0.0), 5.0),   // 0: src
                (Vec3::new(30.0, 0.0, 0.0), 5.0),  // 1: near head
                (Vec3::new(150.0, 0.0, 0.0), 5.0), // 2: far head
            ])
    }

    fn router(net: &Network) -> QRouter {
        QRouter::new(net, QlecParams::paper())
    }

    #[test]
    fn link_estimator_converges_to_frequency() {
        let mut est = LinkEstimator::new(0.2, 1.0);
        let src = NodeId(0);
        let t = Target::Head(NodeId(1));
        assert_eq!(est.probability(src, t), 1.0, "prior before evidence");
        for _ in 0..200 {
            est.record(src, t, false);
        }
        assert!(
            est.probability(src, t) < 0.01,
            "all-failure link must go to ≈ 0"
        );
        for _ in 0..200 {
            est.record(src, t, true);
        }
        assert!(est.probability(src, t) > 0.99);
        assert_eq!(est.links_tracked(), 1);
    }

    #[test]
    fn link_estimator_is_per_link() {
        let mut est = LinkEstimator::new(0.5, 1.0);
        est.record(NodeId(0), Target::Head(NodeId(1)), false);
        assert!(est.probability(NodeId(0), Target::Head(NodeId(1))) < 1.0);
        assert_eq!(est.probability(NodeId(0), Target::Head(NodeId(2))), 1.0);
        assert_eq!(est.probability(NodeId(0), Target::Bs), 1.0);
        est.record(NodeId(0), Target::Bs, false);
        assert!(est.probability(NodeId(0), Target::Bs) < 1.0);
    }

    #[test]
    fn prune_dead_drops_only_dead_endpoint_links() {
        let mut net = line_net();
        let mut est = LinkEstimator::new(0.5, 1.0);
        est.record(NodeId(0), Target::Head(NodeId(1)), true);
        est.record(NodeId(0), Target::Head(NodeId(2)), false);
        est.record(NodeId(0), Target::Bs, true);
        est.record(NodeId(1), Target::Bs, true);
        assert_eq!(est.links_tracked(), 4);
        net.node_mut(NodeId(1)).battery.consume(10.0);
        est.prune_dead(&net);
        // Gone: 0→1 (dead dst) and 1→BS (dead src). Kept: 0→2, 0→BS.
        assert_eq!(est.links_tracked(), 2);
        assert!(est.probability(NodeId(0), Target::Head(NodeId(2))) < 1.0);
        assert_eq!(
            est.probability(NodeId(0), Target::Head(NodeId(1))),
            1.0,
            "pruned link reverts to the prior"
        );
    }

    #[test]
    fn member_prefers_near_head_over_far() {
        // Same energies and priors: the Eq. 18 cost (30 m free-space vs
        // 150 m multi-path) must dominate.
        let net = line_net();
        let mut r = router(&net);
        let heads = [NodeId(1), NodeId(2)];
        assert_eq!(
            r.send_data(&net, NodeId(0), &heads),
            Target::Head(NodeId(1))
        );
    }

    #[test]
    fn member_avoids_bs_due_to_penalty() {
        // The BS at 60 m is geometrically closer than the far head, but
        // Eq. 19's penalty l must keep members off it while any head
        // lives.
        let net = line_net();
        let mut r = router(&net);
        for &heads in &[&[NodeId(1)][..], &[NodeId(2)][..]] {
            let t = r.send_data(&net, NodeId(0), heads);
            assert_ne!(t, Target::Bs, "heads {heads:?}");
        }
    }

    #[test]
    fn no_heads_forces_bs() {
        let net = line_net();
        let mut r = router(&net);
        assert_eq!(r.send_data(&net, NodeId(0), &[]), Target::Bs);
    }

    #[test]
    fn dead_head_is_skipped() {
        let mut net = line_net();
        net.node_mut(NodeId(1)).battery.consume(10.0);
        let mut r = router(&net);
        let t = r.send_data(&net, NodeId(0), &[NodeId(1), NodeId(2)]);
        assert_eq!(t, Target::Head(NodeId(2)));
    }

    #[test]
    fn failed_acks_steer_away_from_lossy_head() {
        // Start preferring the near head, then fail its ACKs repeatedly:
        // the estimator drives P̂ down and the fixed-point backup makes
        // hammering a dead link worth R_fail/(1−γ) — far below the far
        // head's value — so the router must switch.
        let net = line_net();
        let mut r = router(&net);
        let heads = [NodeId(1), NodeId(2)];
        assert_eq!(
            r.send_data(&net, NodeId(0), &heads),
            Target::Head(NodeId(1))
        );
        let mut switched = false;
        for _ in 0..60 {
            let t = r.send_data(&net, NodeId(0), &heads);
            if t == Target::Head(NodeId(2)) {
                switched = true;
                break;
            }
            // The simulator would report the failed hop.
            r.on_hop_result(NodeId(0), t, false);
        }
        assert!(switched, "router never abandoned the all-failure link");
        // And it stays switched while the bad link's estimate is ≈ 0.
        assert_eq!(
            r.send_data(&net, NodeId(0), &heads),
            Target::Head(NodeId(2))
        );
    }

    #[test]
    fn lower_energy_head_is_less_attractive() {
        // Two heads at symmetric distances; drain one. The α₁·x(h_j) term
        // and its V must tip the choice to the full head.
        let net = NetworkBuilder::new()
            .bs_at(Vec3::new(0.0, 100.0, 0.0))
            .from_nodes(&[
                (Vec3::new(0.0, 0.0, 0.0), 5.0),   // 0: src
                (Vec3::new(40.0, 0.0, 0.0), 5.0),  // 1: full head
                (Vec3::new(-40.0, 0.0, 0.0), 5.0), // 2: to be drained
            ]);
        let mut net = net;
        net.node_mut(NodeId(2)).battery.consume(4.5);
        let mut r = router(&net);
        let t = r.send_data(&net, NodeId(0), &[NodeId(1), NodeId(2)]);
        assert_eq!(t, Target::Head(NodeId(1)));
    }

    #[test]
    fn head_update_reflects_bs_cost_and_energy() {
        let net = line_net();
        let mut r = router(&net);
        assert_eq!(r.v_of(NodeId(1)), 0.0);
        r.head_update(&net, NodeId(1), 0.5);
        let v_near = r.v_of(NodeId(1)); // head at 30 m from BS
        r.head_update(&net, NodeId(2), 0.5);
        let v_far = r.v_of(NodeId(2)); // head at 90 m from BS
        assert!(
            v_near > v_far,
            "near-BS head V {v_near} must exceed far head V {v_far}"
        );
        // No Eq. 19 penalty in the head update: values stay on the reward
        // scale, far above -l.
        assert!(v_far > -r.params.l / 2.0);
    }

    #[test]
    fn v_values_are_bounded() {
        // Repeated updates must stay within r_max/(1-γ).
        let net = line_net();
        let mut r = router(&net);
        let heads = [NodeId(1), NodeId(2)];
        for i in 0..500 {
            r.send_data(&net, NodeId(0), &heads);
            r.head_update(&net, NodeId(1), 0.5);
            r.head_update(&net, NodeId(2), 0.5);
            let _ = i;
        }
        let p = QlecParams::paper();
        let r_max = p.g + 2.0 * p.alpha1 + p.alpha2 * 10.0 + p.l; // generous
        let bound = r_max / (1.0 - p.gamma);
        for id in [NodeId(0), NodeId(1), NodeId(2)] {
            assert!(
                r.v_of(id).abs() <= bound,
                "V({id}) = {} exceeds bound {bound}",
                r.v_of(id)
            );
        }
    }

    #[test]
    fn repeated_updates_converge() {
        // With a static network, V deltas shrink to (numerical) zero —
        // the fixed point exists and X is finite.
        let net = line_net();
        let mut r = router(&net);
        let heads = [NodeId(1), NodeId(2)];
        let mut converged_at = None;
        for sweep in 0..10_000 {
            r.send_data(&net, NodeId(0), &heads);
            r.head_update(&net, NodeId(1), 0.5);
            r.head_update(&net, NodeId(2), 0.5);
            if r.convergence.end_sweep() {
                converged_at = Some(sweep);
                break;
            }
        }
        assert!(converged_at.is_some(), "V never converged");
        assert!(r.updates.total() > 0);
    }

    /// The reference `Send-Data` kernel: every sweep recomputes each
    /// action's Q-value from scratch through [`QRouter::q_value_with`].
    /// Kept here as the oracle for the hoisted-constant kernel.
    fn reference_send_data(
        r: &mut QRouter,
        net: &Network,
        src: NodeId,
        heads: &[NodeId],
        nacked: &[Target],
    ) -> Target {
        let p_of = |t: Target| -> f64 {
            let n = nacked.iter().filter(|&&x| x == t).count() as i32;
            r.links.probability(src, t) * 0.5f64.powi(n)
        };
        let v_before = r.v[src.index()];
        let mut v_src = v_before;
        let mut updates = 0u64;
        let mut action = Target::Bs;
        for _ in 0..MAX_SWEEPS {
            let mut best: Option<(Target, f64)> = None;
            for &h in heads {
                if !net.node(h).is_alive() {
                    continue;
                }
                let t = Target::Head(h);
                let q = r.q_value_with(net, src, t, true, p_of(t), v_src);
                updates += 1;
                if best.is_none_or(|(_, bq)| q > bq) {
                    best = Some((t, q));
                }
            }
            let q_bs = r.q_value_with(net, src, Target::Bs, true, p_of(Target::Bs), v_src);
            updates += 1;
            if best.is_none_or(|(_, bq)| q_bs > bq) {
                best = Some((Target::Bs, q_bs));
            }
            let (a, v_new) = best.expect("BS action always exists");
            action = a;
            let delta = (v_new - v_src).abs();
            v_src = v_new;
            if delta < SWEEP_TOL {
                break;
            }
        }
        r.v[src.index()] = v_src;
        r.updates.add(updates);
        r.last_delta = v_src - v_before;
        r.convergence.observe(r.last_delta.abs());
        action
    }

    #[test]
    fn cached_kernel_is_bit_identical() {
        // The hoisted-constant kernel must reproduce the reference kernel
        // bit for bit: same action, same V*(src) bits, same elementary
        // update count, same signed delta — across evolving link
        // evidence, NACK lists, dead heads, and an empty head set.
        let mut net = NetworkBuilder::new()
            .bs_at(Vec3::new(60.0, 40.0, 0.0))
            .from_nodes(&[
                (Vec3::new(0.0, 0.0, 0.0), 5.0),
                (Vec3::new(30.0, 10.0, 0.0), 5.0),
                (Vec3::new(150.0, 0.0, 20.0), 5.0),
                (Vec3::new(80.0, 80.0, 80.0), 5.0),
                (Vec3::new(10.0, 90.0, 40.0), 2.5),
            ]);
        net.node_mut(NodeId(3)).battery.consume(4.0);
        let src = NodeId(0);
        let all_heads = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        let mut reference = router(&net);
        let mut cached = reference.clone();
        // Deterministic pseudo-random hop results / NACK churn.
        let mut x: u64 = 0x9E37_79B9;
        let mut nacked: Vec<Target> = Vec::new();
        for step in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let heads: &[NodeId] = match step % 4 {
                0 => &all_heads,
                1 => &all_heads[..2],
                2 => &all_heads[2..],
                _ => &[],
            };
            if step % 7 == 0 {
                nacked.clear();
            }
            let a = reference_send_data(&mut reference, &net, src, heads, &nacked);
            let b = cached.send_data_excluding(&net, src, heads, &nacked);
            assert_eq!(a, b, "action diverged at step {step}");
            assert_eq!(
                reference.v_of(src).to_bits(),
                cached.v_of(src).to_bits(),
                "V*(src) bits diverged at step {step}"
            );
            assert_eq!(
                reference.updates.total(),
                cached.updates.total(),
                "update counts diverged at step {step}"
            );
            assert_eq!(
                reference.last_delta().to_bits(),
                cached.last_delta().to_bits(),
                "last_delta bits diverged at step {step}"
            );
            let success = x & 1 == 0;
            reference.on_hop_result(src, a, success);
            cached.on_hop_result(src, b, success);
            if !success {
                nacked.push(a);
            }
        }
    }

    #[test]
    fn update_counter_counts_k_plus_one_per_sweep() {
        let net = line_net();
        let mut r = router(&net);
        let heads = [NodeId(1), NodeId(2)];
        r.send_data(&net, NodeId(0), &heads);
        // Each fixed-point sweep performs k + 1 = 3 elementary updates;
        // with optimistic priors (P = 1, no self-loop term) the fixed
        // point lands in the first sweep and the second confirms it.
        let total = r.updates.total();
        assert!(total >= 3 && total.is_multiple_of(3), "updates = {total}");
        assert!(total <= 3 * 200, "sweep cap respected");
    }

    /// The dense oracle for [`QRowStore`]: one [`QTable`] row per node
    /// with column `n` as the BS, zeroed whenever the round changes —
    /// fed the same `record` sequence, its non-zero cells must equal the
    /// store's rows.
    struct DenseOracle {
        table: QTable,
        touched: Vec<bool>,
    }

    impl DenseOracle {
        fn new(n: usize) -> Self {
            DenseOracle {
                table: QTable::zeros(n, n + 1),
                touched: vec![false; n],
            }
        }

        fn col(&self, key: u32) -> usize {
            if key == super::BS_KEY {
                self.touched.len()
            } else {
                key as usize
            }
        }

        fn begin_round(&mut self) {
            self.table.fill(0.0);
            self.touched.fill(false);
        }

        fn record(&mut self, src: u32, key: u32, q: f64) {
            let col = self.col(key);
            self.table.set(src as usize, col, q);
            self.touched[src as usize] = true;
        }

        fn row(&self, src: u32) -> Vec<(u32, f64)> {
            let n = self.touched.len();
            (0..=n)
                .filter_map(|a| {
                    let q = self.table.get(src as usize, a);
                    let key = if a == n { super::BS_KEY } else { a as u32 };
                    (q != 0.0).then_some((key, q))
                })
                .collect()
        }

        fn rows_touched(&self) -> usize {
            self.touched.iter().filter(|&&t| t).count()
        }
    }

    /// Replay `writes` (`(round, src, key, q)`) into a store and the
    /// dense oracle; every row must agree after each round.
    fn replay_against_oracle(n: usize, budget: usize, writes: &[(u32, u32, u32, f64)]) {
        let mut store = QRowStore::new(n, budget);
        let mut oracle = DenseOracle::new(n);
        let check = |store: &QRowStore, oracle: &DenseOracle| {
            for src in 0..n as u32 {
                assert_eq!(store.row(src), oracle.row(src), "src {src}");
                for &(key, q) in &oracle.row(src) {
                    assert_eq!(store.q(src, key), q, "src {src} key {key}");
                }
            }
            assert_eq!(store.rows_touched(), oracle.rows_touched());
        };
        let mut round = None;
        for &(r, src, key, q) in writes {
            if round != Some(r) {
                if round.is_some() {
                    check(&store, &oracle);
                }
                store.begin_round(r);
                oracle.begin_round();
                round = Some(r);
            }
            store.record(src, key, q);
            oracle.record(src, key, q);
        }
        check(&store, &oracle);
    }

    #[test]
    fn q_row_store_records_and_reads_back() {
        let bs = super::BS_KEY;
        let mut store = QRowStore::new(10, 4);
        store.begin_round(0);
        store.record(3, 7, -1.5);
        store.record(3, bs, -9.0);
        store.record(3, 7, -1.25); // last write wins
        assert_eq!(store.q(3, 7), -1.25);
        assert_eq!(store.q(3, bs), -9.0);
        assert_eq!(store.q(3, 5), 0.0, "unrecorded key");
        assert_eq!(store.q(4, 7), 0.0, "untouched row");
        // BS sorts last.
        assert_eq!(store.row(3), vec![(7, -1.25), (bs, -9.0)]);
        assert_eq!(store.rows_touched(), 1);
        replay_against_oracle(
            10,
            4,
            &[(0, 3, 7, -1.5), (0, 3, bs, -9.0), (0, 3, 7, -1.25)],
        );
    }

    #[test]
    fn q_row_store_clears_rows_lazily_per_round() {
        let mut store = QRowStore::new(4, 3);
        store.begin_round(0);
        store.record(1, 2, -0.5);
        store.begin_round(1);
        // Stale rows read empty before any write...
        assert_eq!(store.q(1, 2), 0.0);
        assert!(store.row(1).is_empty());
        // ...and the first write of the new round resets the row.
        store.record(1, 0, -2.0);
        assert_eq!(store.row(1), vec![(0, -2.0)]);
        replay_against_oracle(4, 3, &[(0, 1, 2, -0.5), (1, 1, 0, -2.0)]);
    }

    #[test]
    fn q_row_store_matches_the_dense_oracle_on_a_replayed_sequence() {
        let bs = super::BS_KEY;
        replay_against_oracle(
            6,
            4,
            &[
                (0, 0, 2, -1.0),
                (0, 0, bs, -8.0),
                (0, 5, 2, -0.25),
                (1, 0, 3, -4.0), // round bump clears rows lazily
                (1, 0, 2, -0.5),
                (1, 5, 1, -0.125),
                (2, 5, 1, -0.75),
                (2, 5, bs, -3.0),
                (2, 5, 1, -0.5), // last write wins
            ],
        );
        // A seeded random sequence; the budget holds every target, so
        // no entry is ever evicted.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let n = 8u32;
        let writes: Vec<(u32, u32, u32, f64)> = (0..400)
            .map(|i| {
                let key = rng.gen_range(0..=n);
                let key = if key == n { bs } else { key };
                (
                    i / 80,
                    rng.gen_range(0..n),
                    key,
                    -rng.gen_range(0.0f64..10.0),
                )
            })
            .collect();
        replay_against_oracle(n as usize, n as usize + 1, &writes);
    }
}
