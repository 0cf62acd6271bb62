//! The improved DEEC cluster-head selection (Algorithms 2 and 3).
//!
//! Two improvements over plain DEEC (§3.1):
//!
//! 1. **Energy threshold** (Eq. 4): a node is only eligible while
//!    `E_i(r) ≥ E_{i,th}(r) = (1 − (r/R)²)·E_{i,initial}` — nearly-drained
//!    nodes are barred from serving even when the randomized rotation
//!    would pick them. (The paper writes strict `>`; at `r = 0` the
//!    threshold equals the initial energy, so a strict comparison would
//!    bar *every* fresh node — we use `≥`, which matches the obvious
//!    intent.) If an elected node fails the threshold, "the improved DEEC
//!    algorithm will choose another node up to the demand to replace it" —
//!    implemented as the energy-greedy top-up below.
//! 2. **Redundancy reduction** (Algorithm 3): every fresh head HELLOs all
//!    nodes within the coverage radius `d_c` (Eq. 5) with its energy; a
//!    head that hears a HELLO from a *richer* head withdraws. HELLOs are
//!    broadcast simultaneously, so a head withdraws iff *any* elected head
//!    within `d_c` had more energy — including one that itself withdraws
//!    (it already sent its HELLO). Ties break toward the lower node id so
//!    the outcome is deterministic and at least one head of any conflict
//!    group survives.

use crate::params::QlecParams;
use qlec_clustering::deec::deec_probability;
use qlec_clustering::leach::{rotating_epoch, rotating_threshold};
use qlec_geom::{UniformGrid, Vec3};
use qlec_net::{Network, NodeId};
use qlec_obs::{Event, ObserverSet, Phase};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// Eq. 4: the minimum residual energy node `i` needs at round `r` (out of
/// planned `total_rounds`) to be eligible as a cluster head.
///
/// Total over all inputs: the decaying fraction `r/R` saturates at 1, so
/// the threshold is `0.0` for every round at or past the plan horizon
/// (`r ≥ total_rounds`) — and, by the same saturation, for the degenerate
/// `total_rounds = 0` (a zero-length plan is always past its horizon).
/// No input produces NaN or a negative threshold.
pub fn energy_threshold(initial_energy: f64, r: u32, total_rounds: u32) -> f64 {
    if r >= total_rounds {
        return 0.0;
    }
    let frac = r as f64 / total_rounds as f64;
    (1.0 - frac * frac) * initial_energy
}

/// Which optional improvements to apply — the ablation switchboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelectionFeatures {
    /// Apply the Eq. 4 energy threshold.
    pub energy_threshold: bool,
    /// Run the Algorithm 3 HELLO redundancy reduction.
    pub redundancy_reduction: bool,
    /// Enforce the target `k`: top up a short head set with the
    /// highest-energy eligible, non-conflicting candidates (the paper's
    /// replacement mechanism) and trim an over-full one to the `k`
    /// richest heads ("it is very important to set a certain cluster
    /// number for each round", §3.1).
    pub top_up: bool,
}

impl Default for SelectionFeatures {
    fn default() -> Self {
        SelectionFeatures {
            energy_threshold: true,
            redundancy_reduction: true,
            top_up: true,
        }
    }
}

/// Outcome of one selection round (diagnostics for tests and benches).
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// The final head set.
    pub heads: Vec<NodeId>,
    /// Heads elected by the randomized threshold before Algorithm 3.
    pub elected: usize,
    /// Heads withdrawn by the redundancy reduction.
    pub withdrawn: usize,
    /// The withdrawn heads themselves (id order of election).
    pub withdrawn_ids: Vec<NodeId>,
    /// Heads added by the top-up/replacement mechanism.
    pub topped_up: usize,
}

/// Run one round of improved-DEEC head selection. Installs roles and
/// rotation bookkeeping on the network and (optionally) charges HELLO
/// energy.
///
/// `k` is the target head count (Theorem 1's `k_opt` in QLEC proper);
/// `grid` must index the network's node positions in id order.
///
/// Scans the network for the alive roster itself and observes nothing;
/// callers that already maintain a roster (the protocol's incremental
/// election index) or attach an observer use [`select_heads_from_roster`].
pub fn select_heads(
    net: &mut Network,
    grid: &UniformGrid,
    round: u32,
    k: usize,
    params: &QlecParams,
    features: SelectionFeatures,
    rng: &mut dyn RngCore,
) -> SelectionOutcome {
    let alive: Vec<NodeId> = net.alive_ids().collect();
    let obs = ObserverSet::new();
    select_heads_from_roster(net, grid, &alive, round, k, params, features, rng, &obs)
}

/// [`select_heads`] driven by a caller-maintained alive roster, with an
/// observer: times the Algorithm 3 HELLO broadcast as
/// [`Phase::Broadcast`] and emits one [`Event::HeadWithdrawn`] per head
/// the redundancy reduction removes.
///
/// `alive` must hold exactly the network's alive node ids in ascending
/// order — the order Algorithm 2 consumes randomness in, so a correct
/// roster is byte-identical to the self-scanning entry point while the
/// caller amortizes the per-round `O(N)` alive scan into whatever diff
/// bookkeeping it already does (see the protocol's incremental index
/// maintenance). Every per-node pass below (election, top-up ranking,
/// the last-resort promotion) walks this roster instead of re-scanning
/// all `N` deployment slots.
///
/// Per-round cost, for `N` alive nodes and target `k`: the O(N) Alg. 2
/// pass; one grid ball query per elected head for Alg. 3 (see
/// [`redundancy_withdrawals`]); and, when the head set is short, an
/// O(N log N) sort of the top-up candidates, whose separation test is
/// one ball query against a head-only cell grid per candidate tried.
/// Nothing scales with `N · k`.
///
/// # Panics
/// Panics if `k` is 0, or if `alive` is not the network's alive ids in
/// ascending order (checked on every call, in O(N)).
#[allow(clippy::too_many_arguments)]
pub fn select_heads_from_roster(
    net: &mut Network,
    grid: &UniformGrid,
    alive: &[NodeId],
    round: u32,
    k: usize,
    params: &QlecParams,
    features: SelectionFeatures,
    rng: &mut dyn RngCore,
    obs: &ObserverSet,
) -> SelectionOutcome {
    assert!(k > 0, "target head count must be positive");
    assert!(
        alive.windows(2).all(|w| w[0] < w[1]),
        "alive roster must be strictly ascending"
    );
    assert!(
        alive.iter().all(|&id| net.node(id).is_alive()) && alive.len() == net.alive_count(),
        "alive roster out of sync with the network"
    );
    let n = net.len().max(1);
    let p_opt = (k as f64 / n as f64).min(1.0);
    let dc = crate::kopt::coverage_radius(net.side_length(), k);

    // Eq. 2 estimate of the average network energy. Saturate past the
    // plan horizon (and for a degenerate zero-round plan) like Eq. 4.
    let r_frac = if round >= params.total_rounds {
        1.0
    } else {
        round as f64 / params.total_rounds as f64
    };
    let avg_energy = (net.total_initial() / n as f64) * (1.0 - r_frac);

    // --- Algorithm 2: randomized election --------------------------------
    let mut elected: Vec<NodeId> = Vec::new();
    for id in alive {
        let node = net.node(*id);
        if features.energy_threshold {
            let th = energy_threshold(node.battery.initial(), round, params.total_rounds);
            if node.residual() < th {
                continue;
            }
        }
        let p_i = deec_probability(p_opt, node.residual(), avg_energy);
        if p_i <= 0.0 || node.was_head_recently(round, rotating_epoch(p_i)) {
            continue;
        }
        let t = rotating_threshold(p_i, round);
        if rng.gen::<f64>() < t {
            elected.push(*id);
        }
    }
    let elected_count = elected.len();

    // --- Algorithm 3: HELLO redundancy reduction -------------------------
    let mut withdrawn_ids: Vec<NodeId> = Vec::new();
    let broadcast_span = obs.span_start();
    let mut heads: Vec<NodeId> = if features.redundancy_reduction && elected.len() > 1 {
        let hello_bits = params.charge_control_traffic.then_some(params.hello_bits);
        let (kept, withdrawn) = redundancy_withdrawals(net, grid, &elected, dc, hello_bits);
        withdrawn_ids = withdrawn;
        kept
    } else {
        elected
    };
    obs.span_end(broadcast_span, Phase::Broadcast);
    if obs.is_active() {
        for &w in &withdrawn_ids {
            obs.emit(Event::HeadWithdrawn { round, node: w.0 });
        }
    }

    // --- Enforce k: trim an over-full head set to the richest k ----------
    if features.top_up && heads.len() > k {
        heads.sort_by(|&a, &b| {
            net.node(b)
                .residual()
                .total_cmp(&net.node(a).residual())
                .then(a.cmp(&b))
        });
        heads.truncate(k);
    }

    // --- Replacement / top-up (the Eq. 4 "choose another node") ----------
    //
    // "Up to the demand": the round must end with k heads whenever enough
    // alive nodes exist. Candidates are ranked by (passes the Eq. 4
    // threshold, residual energy); the coverage separation is respected
    // while possible and relaxed only when it would leave the demand
    // unmet — otherwise a congested early round (every node fractionally
    // below the near-initial threshold) collapses to a single head and
    // the network melts down.
    let mut topped_up = 0usize;
    if features.top_up && heads.len() < k {
        let mut is_head = vec![false; net.len()];
        for h in &heads {
            is_head[h.index()] = true;
        }
        // (passes, residual, id), read once. The order is total (ids are
        // unique), so the unstable sort is the stable sort's permutation.
        let mut candidates: Vec<(bool, f64, NodeId)> = alive
            .iter()
            .copied()
            .filter(|id| !is_head[id.index()])
            .map(|id| {
                let node = net.node(id);
                let residual = node.residual();
                let passes = !features.energy_threshold
                    || residual
                        >= energy_threshold(node.battery.initial(), round, params.total_rounds);
                (passes, residual, id)
            })
            .collect();
        candidates.sort_unstable_by(|&(pa, ra, a), &(pb, rb, b)| {
            pb.cmp(&pa).then(rb.total_cmp(&ra)).then(a.cmp(&b))
        });
        // Pass 1: respect the d_c separation. The head cells narrow each
        // candidate's test to the heads in nearby cells; the final call
        // is still `net.distance(id, h) <= dc`.
        let mut separation = features
            .redundancy_reduction
            .then(|| HeadCells::new(net, &heads, dc, k.min(alive.len())));
        for &(_, _, id) in &candidates {
            if heads.len() >= k {
                break;
            }
            if let Some(cells) = separation.as_mut() {
                let pos = net.node(id).pos;
                if cells.any_within(pos, dc * (1.0 + 1e-12), |h| net.distance(id, h) <= dc) {
                    continue;
                }
                cells.insert(id, pos);
            }
            is_head[id.index()] = true;
            heads.push(id);
            topped_up += 1;
        }
        // Pass 2: demand still unmet — relax the separation.
        for &(_, _, id) in &candidates {
            if heads.len() >= k {
                break;
            }
            if !is_head[id.index()] {
                heads.push(id);
                topped_up += 1;
            }
        }
    }

    // Last resort: an empty head set stalls the round — promote the single
    // richest alive node (unconditionally eligible).
    if heads.is_empty() {
        if let Some(best) = alive.iter().copied().max_by(|&a, &b| {
            net.node(a)
                .residual()
                .total_cmp(&net.node(b).residual())
                .then(b.cmp(&a))
        }) {
            heads.push(best);
        }
    }

    qlec_net::protocol::install_heads(net, round, &heads);
    let withdrawn = withdrawn_ids.len();
    SelectionOutcome {
        heads,
        elected: elected_count,
        withdrawn,
        withdrawn_ids,
        topped_up,
    }
}

/// Algorithm 3: every elected head HELLOs its `d_c` ball, then the
/// redundancy reduction partitions `elected` into (survivors,
/// withdrawals), both in election order. A head withdraws iff *any*
/// other elected head within `d_c` out-ranks it (more residual energy,
/// or equal energy and a lower id) — simultaneous-HELLO semantics, so
/// out-ranking heads count even when they themselves withdraw.
///
/// With `hello_bits = Some(bits)` the broadcast is charged first, in
/// election order: each head transmits `bits` at range `d_c` and every
/// other node the grid holds within `d_c` pays reception if it is still
/// alive at that moment. Withdrawals are decided only after every charge
/// (the messages were already sent), so they compare post-HELLO
/// residuals.
///
/// Cost: one [`UniformGrid`] ball query per elected head, O(elected ·
/// ball), kept in one flat buffer that both the charge and the
/// withdrawal test read. The query radius is inflated by one part in
/// 10¹² so the ball is a superset of both exact predicates: the charge
/// keeps the grid's own `dist_sq <= d_c²` test, the withdrawal keeps
/// `net.distance(i, j) <= dc`.
pub fn redundancy_withdrawals(
    net: &mut Network,
    grid: &UniformGrid,
    elected: &[NodeId],
    dc: f64,
    hello_bits: Option<u64>,
) -> (Vec<NodeId>, Vec<NodeId>) {
    let query_radius = dc * (1.0 + 1e-12);
    let mut ball: Vec<u32> = Vec::new();
    let mut balls: Vec<u32> = Vec::new();
    let mut ends: Vec<usize> = Vec::with_capacity(elected.len());
    for &h in elected {
        grid.within_radius_into(net.node(h).pos, query_radius, &mut ball);
        balls.extend_from_slice(&ball);
        ends.push(balls.len());
    }
    let ball_of = |at: usize| {
        let start = if at == 0 { 0 } else { ends[at - 1] };
        &balls[start..ends[at]]
    };

    if let Some(bits) = hello_bits {
        let radio = net.radio;
        let tx = radio.tx_energy(bits, dc);
        let rx = radio.rx_energy(bits);
        let dc_sq = dc * dc;
        let points = grid.points();
        for (at, &h) in elected.iter().enumerate() {
            net.node_mut(h).battery.consume(tx);
            let center = net.node(h).pos;
            for &i in ball_of(at) {
                let id = NodeId(i);
                if points[i as usize].dist_sq(center) <= dc_sq && id != h && net.node(id).is_alive()
                {
                    net.node_mut(id).battery.consume(rx);
                }
            }
        }
    }

    let mut is_elected = vec![false; net.len()];
    for &e in elected {
        is_elected[e.0 as usize] = true;
    }
    let mut kept: Vec<NodeId> = Vec::with_capacity(elected.len());
    let mut withdrawn: Vec<NodeId> = Vec::new();
    for (at, &i) in elected.iter().enumerate() {
        let me = net.node(i).residual();
        let outranked = ball_of(at).iter().any(|&jx| {
            let j = NodeId(jx);
            is_elected[jx as usize] && j != i && net.distance(i, j) <= dc && {
                let other = net.node(j).residual();
                other > me || (other == me && j < i)
            }
        });
        if outranked {
            withdrawn.push(i);
        } else {
            kept.push(i);
        }
    }
    (kept, withdrawn)
}

/// The top-up's separation index: a bucket grid over the deployment
/// bounds holding the heads placed so far (the kept heads, then each
/// accepted candidate). Cells are at least `d_c` wide, and since `d_c`
/// is Eq. 5's radius for `k` balls in the deployment cube there are
/// about `4.2·k` of them at most; `capacity` caps that for degenerate
/// inputs. It has its own cells rather than reusing the node
/// [`UniformGrid`]: that grid drops a node when it dies and does not
/// re-insert it after a blackout revival, so a revived head would stop
/// blocking its neighbours.
struct HeadCells {
    min: Vec3,
    /// Cells per unit length along each axis (0 on a flat axis).
    inv_width: [f64; 3],
    dims: [usize; 3],
    /// Per cell, the most recently inserted entry, or `NO_ENTRY`.
    first: Vec<u32>,
    /// `(head, next entry in the same cell)`.
    entries: Vec<(NodeId, u32)>,
}

const NO_ENTRY: u32 = u32::MAX;

impl HeadCells {
    fn new(net: &Network, heads: &[NodeId], dc: f64, capacity: usize) -> Self {
        let bounds = net.bounds();
        let ext = bounds.extent();
        let max_axis = (capacity.max(1) as f64).cbrt().ceil() as usize * 2;
        let mut dims = [1usize; 3];
        let mut inv_width = [0.0f64; 3];
        for a in 0..3 {
            let cells = (ext[a] / dc).floor();
            if ext[a] > 0.0 && cells >= 1.0 {
                dims[a] = (cells as usize).min(max_axis);
                inv_width[a] = dims[a] as f64 / ext[a];
            }
        }
        let mut cells = HeadCells {
            min: bounds.min(),
            inv_width,
            dims,
            first: vec![NO_ENTRY; dims[0] * dims[1] * dims[2]],
            entries: Vec::with_capacity(capacity),
        };
        for &h in heads {
            cells.insert(h, net.node(h).pos);
        }
        cells
    }

    /// The cell coordinate of `x` on axis `a`, clamped to the grid — a
    /// monotone map, so a clamped point stays inside every query range
    /// that covers it.
    fn axis_cell(&self, x: f64, a: usize) -> usize {
        let c = ((x - self.min[a]) * self.inv_width[a]).max(0.0) as usize;
        c.min(self.dims[a] - 1)
    }

    fn insert(&mut self, id: NodeId, p: Vec3) {
        let c = (self.axis_cell(p.z, 2) * self.dims[1] + self.axis_cell(p.y, 1)) * self.dims[0]
            + self.axis_cell(p.x, 0);
        self.entries.push((id, self.first[c]));
        self.first[c] = (self.entries.len() - 1) as u32;
    }

    /// Whether `hit` holds for any head in the cells that the box of
    /// half-width `radius` around `q` touches.
    fn any_within(&self, q: Vec3, radius: f64, mut hit: impl FnMut(NodeId) -> bool) -> bool {
        let lo = [0, 1, 2].map(|a| self.axis_cell(q[a] - radius, a));
        let hi = [0, 1, 2].map(|a| self.axis_cell(q[a] + radius, a));
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                for x in lo[0]..=hi[0] {
                    let mut e = self.first[(z * self.dims[1] + y) * self.dims[0] + x];
                    while e != NO_ENTRY {
                        let (h, next) = self.entries[e as usize];
                        if hit(h) {
                            return true;
                        }
                        e = next;
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlec_net::NetworkBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64, n: usize) -> (Network, UniformGrid) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = NetworkBuilder::new().uniform_cube(&mut rng, n, 200.0, 5.0);
        let grid = UniformGrid::build(net.positions());
        (net, grid)
    }

    #[test]
    fn eq4_threshold_shape() {
        // Fresh network: threshold equals initial energy.
        assert_eq!(energy_threshold(5.0, 0, 20), 5.0);
        // Quadratic decay: at r = R/2 the threshold is 75 % of initial.
        assert!((energy_threshold(5.0, 10, 20) - 3.75).abs() < 1e-12);
        // At the horizon: zero.
        assert_eq!(energy_threshold(5.0, 20, 20), 0.0);
        // Beyond the horizon it clamps at zero, never negative.
        assert_eq!(energy_threshold(5.0, 99, 20), 0.0);
    }

    #[test]
    fn eq4_threshold_is_total() {
        // A zero-length plan is always past its horizon: threshold 0, no
        // NaN (the old code divided 0/0 here in release builds).
        for r in [0u32, 1, 1000, u32::MAX] {
            let th = energy_threshold(5.0, r, 0);
            assert_eq!(th, 0.0, "r={r}, total_rounds=0");
            assert!(!th.is_nan());
        }
        // Extreme but valid inputs stay finite and non-negative.
        for (r, total) in [(0u32, u32::MAX), (u32::MAX, u32::MAX), (u32::MAX, 1)] {
            let th = energy_threshold(f64::MAX, r, total);
            assert!(th.is_finite() && th >= 0.0, "r={r} total={total} → {th}");
        }
    }

    /// Elect from `roster` on a fresh 40-node network.
    fn elect_from(roster: &[NodeId], kill: Option<NodeId>) {
        let (mut net, grid) = setup(9, 40);
        if let Some(id) = kill {
            net.node_mut(id).battery.consume(10.0);
        }
        let mut rng = StdRng::seed_from_u64(1);
        select_heads_from_roster(
            &mut net,
            &grid,
            roster,
            0,
            3,
            &QlecParams::paper(),
            SelectionFeatures::default(),
            &mut rng,
            &ObserverSet::new(),
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_roster_is_rejected() {
        let mut roster: Vec<NodeId> = (0..40).map(NodeId).collect();
        roster.swap(3, 4);
        elect_from(&roster, None);
    }

    #[test]
    #[should_panic(expected = "out of sync")]
    fn roster_with_a_dead_node_is_rejected() {
        let roster: Vec<NodeId> = (0..40).map(NodeId).collect();
        elect_from(&roster, Some(NodeId(7)));
    }

    #[test]
    fn selection_survives_zero_round_plan() {
        // total_rounds = 0 must not divide by zero in the Eq. 2 average
        // or the Eq. 4 threshold: the plan is past its horizon, so the
        // threshold bars nobody and the average-energy estimate is 0.
        let (mut net, grid) = setup(3, 60);
        let mut rng = StdRng::seed_from_u64(5);
        let params = QlecParams {
            total_rounds: 0,
            ..QlecParams::paper()
        };
        let out = select_heads(
            &mut net,
            &grid,
            0,
            4,
            &params,
            SelectionFeatures::default(),
            &mut rng,
        );
        assert!(!out.heads.is_empty(), "top-up must still reach k");
    }

    #[test]
    fn fresh_round_zero_selects_heads() {
        // The ≥-vs-> interpretation: with everything at full energy the
        // threshold equals the residual, and selection must still work.
        let (mut net, grid) = setup(1, 100);
        let mut rng = StdRng::seed_from_u64(2);
        let out = select_heads(
            &mut net,
            &grid,
            0,
            5,
            &QlecParams::paper(),
            SelectionFeatures::default(),
            &mut rng,
        );
        assert!(!out.heads.is_empty());
    }

    #[test]
    fn top_up_reaches_target_k() {
        let (mut net, grid) = setup(3, 100);
        let mut rng = StdRng::seed_from_u64(4);
        let out = select_heads(
            &mut net,
            &grid,
            0,
            5,
            &QlecParams::paper(),
            SelectionFeatures::default(),
            &mut rng,
        );
        assert_eq!(
            out.heads.len(),
            5,
            "top-up must hit k when candidates exist"
        );
    }

    #[test]
    fn redundancy_reduction_separates_heads() {
        let (mut net, grid) = setup(5, 200);
        let mut rng = StdRng::seed_from_u64(6);
        let k = 5;
        let dc = crate::kopt::coverage_radius(200.0, k);
        let out = select_heads(
            &mut net,
            &grid,
            0,
            k,
            &QlecParams::paper(),
            SelectionFeatures::default(),
            &mut rng,
        );
        // After Alg. 3 + separation-respecting top-up, surviving heads are
        // pairwise separated OR one of a conflicting pair out-ranks the
        // other — with simultaneous HELLO semantics the survivor set is
        // pairwise conflict-free.
        for (i, &a) in out.heads.iter().enumerate() {
            for &b in &out.heads[i + 1..] {
                assert!(
                    net.distance(a, b) > dc,
                    "heads {a} and {b} are within d_c = {dc}"
                );
            }
        }
    }

    #[test]
    fn drained_nodes_are_barred_by_threshold() {
        let (mut net, grid) = setup(7, 60);
        // Drain node 0 below the round-5 threshold.
        net.node_mut(NodeId(0)).battery.consume(2.0); // 3.0 residual
        let th = energy_threshold(5.0, 5, 20);
        assert!(3.0 < th, "test premise: node 0 must be under the threshold");
        let mut rng = StdRng::seed_from_u64(8);
        for r in 0..10u32 {
            net.reset_roles();
            let out = select_heads(
                &mut net,
                &grid,
                5, // fixed round so the threshold stays put
                4,
                &QlecParams::paper(),
                SelectionFeatures::default(),
                &mut rng,
            );
            assert!(!out.heads.contains(&NodeId(0)), "round {r}");
        }
    }

    #[test]
    fn without_threshold_drained_nodes_can_serve() {
        let (mut net, grid) = setup(9, 30);
        for i in 0..30u32 {
            net.node_mut(NodeId(i)).battery.consume(2.0);
        }
        let mut rng = StdRng::seed_from_u64(10);
        let features = SelectionFeatures {
            energy_threshold: false,
            ..Default::default()
        };
        let out = select_heads(
            &mut net,
            &grid,
            5,
            4,
            &QlecParams::paper(),
            features,
            &mut rng,
        );
        assert!(
            !out.heads.is_empty(),
            "ablated threshold must not block selection"
        );
    }

    #[test]
    fn hello_costs_energy_when_charged() {
        let (net0, grid) = setup(11, 100);
        let run = |charge: bool| {
            let mut net = net0.clone();
            let mut rng = StdRng::seed_from_u64(12);
            let params = QlecParams {
                charge_control_traffic: charge,
                ..QlecParams::paper()
            };
            select_heads(
                &mut net,
                &grid,
                0,
                5,
                &params,
                SelectionFeatures::default(),
                &mut rng,
            );
            net.total_consumed()
        };
        let with = run(true);
        let without = run(false);
        assert!(with > without, "HELLO charging {with} vs free {without}");
        assert_eq!(without, 0.0);
    }

    #[test]
    fn all_dead_network_yields_no_heads() {
        let (mut net, grid) = setup(13, 10);
        for i in 0..10u32 {
            net.node_mut(NodeId(i)).battery.consume(100.0);
        }
        let mut rng = StdRng::seed_from_u64(14);
        let out = select_heads(
            &mut net,
            &grid,
            0,
            3,
            &QlecParams::paper(),
            SelectionFeatures::default(),
            &mut rng,
        );
        assert!(out.heads.is_empty());
    }

    #[test]
    fn head_count_tracks_k_over_many_rounds() {
        let (mut net, grid) = setup(15, 100);
        let mut rng = StdRng::seed_from_u64(16);
        let mut total = 0usize;
        let rounds = 20;
        for r in 0..rounds {
            net.reset_roles();
            let out = select_heads(
                &mut net,
                &grid,
                r,
                5,
                &QlecParams::paper(),
                SelectionFeatures::default(),
                &mut rng,
            );
            total += out.heads.len();
        }
        let mean = total as f64 / rounds as f64;
        assert!(
            (4.0..=6.0).contains(&mean),
            "mean head count {mean}, want ≈ 5 (the paper's 'very close to k_opt')"
        );
    }
}
