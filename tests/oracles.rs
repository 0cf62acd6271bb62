//! Checks against something other than the simulator itself: each test
//! writes the expected answer out from the paper's definitions, with
//! fixed inputs and a stated tolerance.
//!
//! * **Q-routing** — a frozen network written as a finite MDP from
//!   Eq. 16–20 and solved by `qlec-mdp`'s value and policy iteration;
//!   iterating Algorithm 4 (`Send-Data`) with the heads' line-15 update
//!   must reach the same `V*`, Q-values and greedy policy.
//! * **Radio** — per-node energy on hand-built 2- and 3-node networks
//!   against the first-order radio totals on both sides of `d₀`.
//! * **Queue** — `ChQueue` against a reference M/D/1/B FIFO.
//! * **Election** — Algorithm 2's randomized draw against the LEACH/DEEC
//!   rotating threshold `p/(1 − p·(r mod ⌈1/p⌉))`, statistically over
//!   many seeds.

use qlec::core::qrouting::QRouter;
use qlec::core::QlecParams;
use qlec::geom::Vec3;
use qlec::mdp::mdp::{validate, TabularMdp};
use qlec::mdp::policy_iteration::policy_iteration;
use qlec::mdp::solver::value_iteration;
use qlec::net::protocol::{install_heads, PlanScratch, RoutePlanner};
use qlec::net::queue::{ChQueue, Offer, QueueDrop};
use qlec::net::{Network, NetworkBuilder, NodeId, Packet, Protocol, SimConfig, Simulator, Target};
use qlec::radio::link::{AnyLink, IdealLink};
use qlec::radio::RadioModel;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

// First-order radio constants (J/bit, J/bit/m², J/bit/m⁴): the paper's
// Table 2 amplifier constants with the conventional Heinzelman
// electronics and aggregation energies. The networks below are built
// from these, so the expected totals never read the simulator's copy.
const E_ELEC: f64 = 50e-9;
const E_DA: f64 = 5e-9;
const EPS_FS: f64 = 10e-12;
const EPS_MP: f64 = 0.0013e-12;

fn radio() -> RadioModel {
    RadioModel::new(E_ELEC, E_DA, EPS_FS, EPS_MP)
}

/// The free-space / multi-path crossover `d₀ = √(ε_fs/ε_mp)`.
fn d0() -> f64 {
    (EPS_FS / EPS_MP).sqrt()
}

/// Amplifier energy per bit at distance `d`: `ε_fs·d²` below `d₀`,
/// `ε_mp·d⁴` at or above.
fn amp_per_bit(d: f64) -> f64 {
    if d < d0() {
        EPS_FS * d * d
    } else {
        EPS_MP * d * d * d * d
    }
}

fn dist(a: [f64; 3], b: [f64; 3]) -> f64 {
    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt()
}

fn vec3(p: [f64; 3]) -> Vec3 {
    Vec3::new(p[0], p[1], p[2])
}

// ---------------------------------------------------------------------
// Q-routing: Algorithm 4 against the exact MDP solution
// ---------------------------------------------------------------------

/// Ten nodes in a 200 m cube; nodes 2, 5 and 8 serve as heads. The BS
/// sits at the centre. Member→head hops fall on both sides of `d₀`, and
/// so do the head→BS hops.
const POSITIONS: [[f64; 3]; 10] = [
    [0.0, 0.0, 0.0],
    [40.0, 30.0, 10.0],
    [60.0, 60.0, 60.0],
    [150.0, 20.0, 30.0],
    [190.0, 60.0, 20.0],
    [160.0, 150.0, 80.0],
    [100.0, 190.0, 140.0],
    [20.0, 170.0, 180.0],
    [60.0, 140.0, 170.0],
    [200.0, 200.0, 200.0],
];
const HEADS: [usize; 3] = [2, 5, 8];
const BS_POS: [f64; 3] = [100.0, 100.0, 100.0];
/// The paper's side length `M` of the layout above (Eq. 18's reference
/// distance).
const SIDE_M: f64 = 200.0;
const INITIAL_J: f64 = 5.0;
/// Energy drawn from some batteries before routing, so the residual
/// fractions `x(·)` differ.
const DRAINS: [(usize, f64); 5] = [(2, 1.5), (3, 2.0), (5, 0.5), (7, 4.0), (8, 3.0)];
/// The data-fusion share a head's BS hop is scaled by (Table 2: 0.5).
const SHARE: f64 = 0.5;
/// Reward of the padding actions: a head may only send to the BS, so its
/// other actions are self-loops no optimal policy takes.
const PAD_REWARD: f64 = -1.0e6;
/// Agreement required between the router's fixed point and the exact
/// solvers, on `V*` and on every member Q-value.
const Q_TOL: f64 = 1e-9;

/// A link: source node and target (`None` = the BS).
type Link = (usize, Option<usize>);

fn target_of(t: Option<usize>) -> Target {
    t.map_or(Target::Bs, |h| Target::Head(NodeId(h as u32)))
}

/// The test's own model of the frozen network: residual fractions,
/// link probabilities and the Eq. 16–20 rewards, written out from the
/// layout constants and `QlecParams`.
struct RoutingModel {
    params: QlecParams,
    /// ACK outcomes fed to the router before it iterates.
    history: Vec<(Link, bool)>,
}

impl RoutingModel {
    /// Residual fraction `x(i)` after the drains.
    fn x(i: usize) -> f64 {
        DRAINS
            .iter()
            .find(|d| d.0 == i)
            .map_or(1.0, |&(_, joules)| (INITIAL_J - joules) / INITIAL_J)
    }

    /// The ACK-ratio estimate of §4.2: the prior, then one EWMA step per
    /// recorded outcome on this link.
    fn p(&self, link: Link) -> f64 {
        let w = self.params.link_ewma_weight;
        self.history
            .iter()
            .filter(|(l, _)| *l == link)
            .fold(self.params.link_prior, |p, &(_, ok)| {
                p + w * (if ok { 1.0 } else { 0.0 } - p)
            })
    }

    /// Eq. 18 normalized by the cost at the side length `M`.
    fn y(src: usize, t: Option<usize>) -> f64 {
        let to = t.map_or(BS_POS, |h| POSITIONS[h]);
        amp_per_bit(dist(POSITIONS[src], to)) / amp_per_bit(SIDE_M)
    }

    /// Eq. 17 (head) / Eq. 19 (BS, with `l` for a member) and Eq. 20 for
    /// one action of `src`, as `(p, r_success, r_failure)`. `y_scale` is
    /// the fusion share on a head's own BS hop, 1 for a member.
    fn action(&self, src: usize, t: Option<usize>, y_scale: f64, penalty: f64) -> (f64, f64, f64) {
        let q = &self.params;
        let (x_src, x_t) = (Self::x(src), t.map_or(q.x_bs, Self::x));
        let y = y_scale * Self::y(src, t);
        let r_ok = -q.g + q.alpha1 * (x_src + x_t) - q.alpha2 * y - penalty;
        let r_fail = -q.g + q.beta1 * x_src - q.beta2 * y;
        (self.p((src, t)), r_ok, r_fail)
    }

    /// States `0..N` are the nodes, state `N` the BS (terminal). Actions
    /// `0..H` send to head `HEADS[a]`, action `H` to the BS.
    fn mdp(&self) -> TabularMdp {
        let (n, h) = (POSITIONS.len(), HEADS.len());
        let bs = n;
        let mut m = TabularMdp::new(n + 1, h + 1);
        m.set_terminal(bs);
        let add = |m: &mut TabularMdp, s: usize, a: usize, next: usize, act: (f64, f64, f64)| {
            let (p, r_ok, r_fail) = act;
            m.add(s, a, next, p, r_ok);
            m.add(s, a, s, 1.0 - p, r_fail);
        };
        for s in 0..n {
            if HEADS.contains(&s) {
                // A head holds the aggregate and forwards it to the BS:
                // the fusion-scaled cost and no Eq. 19 penalty.
                add(&mut m, s, h, bs, self.action(s, None, SHARE, 0.0));
                for a in 0..h {
                    m.add(s, a, s, 1.0, PAD_REWARD);
                }
            } else {
                for (a, &head) in HEADS.iter().enumerate() {
                    add(&mut m, s, a, head, self.action(s, Some(head), 1.0, 0.0));
                }
                add(&mut m, s, h, bs, self.action(s, None, 1.0, self.params.l));
            }
        }
        m
    }
}

fn check_routing_against_mdp(model: &RoutingModel) {
    let n = POSITIONS.len();
    let spec: Vec<(Vec3, f64)> = POSITIONS.iter().map(|&p| (vec3(p), INITIAL_J)).collect();
    let mut net = NetworkBuilder::new()
        .radio(radio())
        .bs_at(vec3(BS_POS))
        .from_nodes(&spec);
    for &(id, joules) in &DRAINS {
        net.node_mut(NodeId(id as u32)).battery.consume(joules);
    }
    let heads: Vec<NodeId> = HEADS.iter().map(|&h| NodeId(h as u32)).collect();
    let members: Vec<usize> = (0..n).filter(|i| !HEADS.contains(i)).collect();

    let mut router = QRouter::new(&net, model.params);
    for &((src, t), ok) in &model.history {
        router.on_hop_result(NodeId(src as u32), target_of(t), ok);
    }
    // Heads refresh their V (Algorithm 1 line 15) and every member runs
    // Send-Data, until no V moves.
    let v_of = |r: &QRouter| -> Vec<f64> { (0..n).map(|i| r.v_of(NodeId(i as u32))).collect() };
    let mut converged = false;
    for _ in 0..100_000 {
        let before = v_of(&router);
        router.head_update_batch(&net, &heads, SHARE);
        for &m in &members {
            router.send_data(&net, NodeId(m as u32), &heads);
        }
        let moved = v_of(&router)
            .iter()
            .zip(&before)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        if moved < 1e-13 {
            converged = true;
            break;
        }
    }
    assert!(converged, "Send-Data iteration did not settle");

    let mdp = model.mdp();
    validate(&mdp, 1e-12).expect("well-formed MDP");
    let gamma = model.params.gamma;
    let vi = value_iteration(&mdp, gamma, 1e-13, 1_000_000);
    let pi = policy_iteration(&mdp, gamma, 1e-13, 1_000);
    assert!(vi.converged && pi.converged);

    for (s, got) in v_of(&router).into_iter().enumerate() {
        for (solver, want) in [("value iteration", vi.v[s]), ("policy iteration", pi.v[s])] {
            let ok = (got - want).abs() <= Q_TOL;
            assert!(ok, "V*({s}): router {got} vs {solver} {want}");
        }
    }
    // Heads have one real action.
    let policy = vi.policy();
    for &h in &HEADS {
        assert_eq!(policy[h], HEADS.len(), "head {h} must send to the BS");
    }

    // Every member's Q row, then its argmax. The layouts are chosen so
    // that each member's top two actions differ by more than the
    // tolerance, and not every member picks the same one.
    for &m in &members {
        let src = NodeId(m as u32);
        let mut row = vi.q.row(m).to_vec();
        for (a, &want) in row.iter().enumerate() {
            let t = target_of(HEADS.get(a).copied());
            let got = router.q_value(&net, src, t, true);
            assert!(
                (got - want).abs() <= Q_TOL,
                "Q({m}, {t:?}): {got} vs {want}"
            );
        }
        let want = target_of(HEADS.get(policy[m]).copied());
        assert_eq!(router.send_data(&net, src, &heads), want, "member {m}");
        assert_eq!(policy[m], pi.policy[m], "member {m}: VI vs PI policy");
        row.sort_by(|a, b| b.total_cmp(a));
        assert!(row[0] - row[1] > Q_TOL, "member {m}: near-tie");
    }
    assert!(members.iter().any(|&m| policy[m] != policy[members[0]]));
}

#[test]
fn send_data_converges_to_the_mdp_solution_with_a_lossy_prior() {
    // No ACK evidence: every link sits at the prior P = 0.6, so each
    // Q-value carries the failure self-loop term γ·(1−P)·V*(src). Table 2
    // sets α₁ = β₁ and α₂ = β₂; distinct weights here make the Eq. 17
    // and Eq. 20 terms distinguishable.
    let params = QlecParams {
        link_prior: 0.6,
        beta1: 0.1,
        beta2: 0.8,
        ..QlecParams::paper()
    };
    check_routing_against_mdp(&RoutingModel {
        params,
        history: Vec::new(),
    });
}

#[test]
fn send_data_converges_to_the_mdp_solution_after_an_ack_history() {
    // The paper's optimistic prior, then a fixed ACK history on every
    // member→head, member→BS and head→BS link: a run of 3–12 outcomes
    // at a success rate of its own, so each link has its own estimate.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut history = Vec::new();
    for s in 0..POSITIONS.len() {
        let heads = if HEADS.contains(&s) {
            &[][..]
        } else {
            &HEADS[..]
        };
        for link in heads.iter().map(|&h| (s, Some(h))).chain([(s, None)]) {
            let rate = rng.gen_range(0.2..0.9);
            for _ in 0..rng.gen_range(3..13) {
                history.push((link, rng.gen::<f64>() < rate));
            }
        }
    }
    assert!(history.iter().any(|&(_, ok)| !ok));
    let params = QlecParams::paper();
    check_routing_against_mdp(&RoutingModel { params, history });
}

// ---------------------------------------------------------------------
// Radio: per-node energy against the first-order radio totals
// ---------------------------------------------------------------------

/// Fixed clusters: `heads` serve every round, and member `i` always
/// sends to `route[i]` (`None` = the BS). Counts each member-hop attempt
/// as the ACK hook reports it — the counts the closed form is built on.
struct FixedClusters {
    heads: Vec<NodeId>,
    route: Vec<Option<usize>>,
    attempts: Vec<u64>,
    /// `[round][head]`: packets a head accepted into its queue.
    accepted: Vec<Vec<u64>>,
}

impl Protocol for FixedClusters {
    fn name(&self) -> &str {
        "fixed-clusters"
    }

    fn on_round_start(
        &mut self,
        net: &mut Network,
        round: u32,
        _rng: &mut dyn RngCore,
    ) -> Vec<NodeId> {
        self.accepted.push(vec![0; self.route.len()]);
        install_heads(net, round, &self.heads);
        self.heads.clone()
    }

    fn planner(&self) -> Option<&dyn RoutePlanner> {
        Some(self)
    }

    fn on_hop_result(&mut self, src: NodeId, target: Target, success: bool) {
        self.attempts[src.index()] += 1;
        if let (Target::Head(h), true) = (target, success) {
            self.accepted.last_mut().expect("in a round")[h.index()] += 1;
        }
    }
}

impl RoutePlanner for FixedClusters {
    fn plan_target(
        &self,
        _net: &Network,
        src: NodeId,
        _heads: &[NodeId],
        _rng: &mut dyn RngCore,
        _scratch: &mut PlanScratch,
    ) -> Target {
        target_of(self.route[src.index()])
    }
}

/// Agreement required between simulated and closed-form energies,
/// relative to the closed form.
const ENERGY_RTOL: f64 = 1e-12;

fn check_radio_totals(nodes: &[[f64; 3]], bs: [f64; 3], heads: &[usize], route: &[Option<usize>]) {
    let n = nodes.len();
    // Node i's one hop: to its head, or (heads included) to the BS. Each
    // layout has hops on both sides of the crossover, well clear of it.
    let hop = |i: usize| dist(nodes[i], route[i].map_or(bs, |h| nodes[h]));
    assert_eq!(radio().d0(), d0());
    assert!((0..n).any(|i| hop(i) < d0() - 1.0), "no free-space hop");
    assert!((0..n).any(|i| hop(i) > d0() + 1.0), "no multi-path hop");

    let spec: Vec<(Vec3, f64)> = nodes.iter().map(|&p| (vec3(p), INITIAL_J)).collect();
    let net = NetworkBuilder::new()
        .radio(radio())
        .link(AnyLink::Ideal(IdealLink))
        .bs_at(vec3(bs))
        .from_nodes(&spec);
    let mut cfg = SimConfig::paper(10.0);
    cfg.rounds = 3;
    cfg.heads_generate = false;
    let mut protocol = FixedClusters {
        heads: heads.iter().map(|&h| NodeId(h as u32)).collect(),
        route: route.to_vec(),
        attempts: vec![0; n],
        accepted: Vec::new(),
    };
    let mut rng = StdRng::seed_from_u64(0xE6);
    let report = Simulator::builder(net)
        .config(cfg)
        .build()
        .run(&mut protocol, &mut rng);
    assert!(report.totals.is_conserved());

    // Every attempt reaches its target on an ideal link: a head pays
    // reception for each, E_DA per accepted bit, and sends the fused
    // aggregate of each round to the BS.
    let bits = cfg.packet_bits as f64;
    let attempts = &protocol.attempts;
    let want = |i: usize| -> f64 {
        if !heads.contains(&i) {
            assert!(attempts[i] > 0, "member {i} sent nothing");
            return attempts[i] as f64 * bits * (E_ELEC + amp_per_bit(hop(i)));
        }
        let received: u64 = (0..n)
            .filter(|&j| route[j] == Some(i))
            .map(|j| attempts[j])
            .sum();
        let mut total = received as f64 * bits * E_ELEC;
        for round in protocol.accepted.iter().filter(|r| r[i] > 0) {
            let processed = round[i] as f64 * bits;
            let agg_bits = (processed * cfg.compression).ceil();
            total += processed * E_DA + agg_bits * (E_ELEC + amp_per_bit(hop(i)));
        }
        total
    };
    for (i, &rate) in report.consumption_rates.iter().enumerate() {
        let (got, want) = (rate * INITIAL_J, want(i));
        let ok = (got - want).abs() <= ENERGY_RTOL * want;
        assert!(ok, "node {i}: simulated {got} J vs closed form {want}");
    }
    // Nothing else drew energy (no control traffic, no retries).
    let b = report.energy_breakdown();
    assert!(b.other.abs() <= ENERGY_RTOL * report.total_energy());
}

#[test]
fn two_and_three_node_energy_matches_first_order_radio_closed_form() {
    // Member 60 m from its head (d²), head 150 m from the BS (d⁴).
    check_radio_totals(
        &[[60.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [0.0, 150.0, 0.0],
        &[1],
        &[Some(1), None],
    );
    // Member 120 m from its head (d⁴), head 40 m from the BS (d²).
    check_radio_totals(
        &[[120.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [0.0, 0.0, 40.0],
        &[1],
        &[Some(1), None],
    );
    // Two members on either side of d₀ from one head 100 m from the BS.
    check_radio_totals(
        &[[50.0, 0.0, 0.0], [0.0, 110.0, 0.0], [0.0, 0.0, 0.0]],
        [0.0, 0.0, 100.0],
        &[2],
        &[Some(2), Some(2), None],
    );
    // No heads: every node sends straight to the BS, at 30, 80 and 130 m.
    check_radio_totals(
        &[[30.0, 0.0, 0.0], [0.0, 80.0, 0.0], [0.0, 0.0, 130.0]],
        [0.0, 0.0, 0.0],
        &[],
        &[None, None, None],
    );
}

// ---------------------------------------------------------------------
// Queue: ChQueue against a reference FIFO
// ---------------------------------------------------------------------

/// The M/D/1/B head queue from its definition: one server, FIFO,
/// deterministic service. An arrival is refused when `capacity` packets
/// are still in the system (accepted and not yet complete; one completing
/// exactly at the arrival time has left), and dropped when its service
/// would end after the deadline. Returns every verdict, the accepted
/// `(id, completion)` pairs in order, and the peak occupancy.
fn reference_fifo(
    (capacity, service, deadline): (usize, f64, f64),
    arrivals: &[f64],
) -> (Vec<Offer>, Vec<(u64, f64)>, usize) {
    let mut accepted: Vec<(u64, f64)> = Vec::new();
    let mut peak = 0;
    let verdicts = (0..)
        .zip(arrivals)
        .map(|(id, &t)| {
            let in_system = accepted.iter().filter(|&&(_, done)| done > t).count();
            if in_system >= capacity {
                return Offer::Dropped(QueueDrop::Full);
            }
            let done = accepted.last().map_or(t, |&(_, prev)| prev.max(t)) + service;
            if done > deadline {
                return Offer::Dropped(QueueDrop::Deadline);
            }
            accepted.push((id, done));
            peak = peak.max(in_system + 1);
            Offer::Accepted { completes_at: done }
        })
        .collect();
    (verdicts, accepted, peak)
}

/// Offer `arrivals` to a reused `ChQueue` and compare every verdict and
/// counter with the reference. Returns `(drops_full, drops_deadline)`.
fn check_queue(q: &mut ChQueue, shape: (usize, f64, f64), arrivals: &[f64]) -> (u64, u64) {
    let (verdicts, accepted, peak) = reference_fifo(shape, arrivals);
    q.reset(shape.0, shape.1, shape.2);
    for (id, (&t, want)) in arrivals.iter().zip(&verdicts).enumerate() {
        let packet = Packet {
            id: id as u64,
            src: NodeId(0),
            created_at: t,
            bits: 2000,
        };
        assert_eq!(q.offer(packet, t), *want, "arrival {id} at {t}");
    }
    let count = |d: QueueDrop| verdicts.iter().filter(|&&v| v == Offer::Dropped(d)).count() as u64;
    let (full, late) = (count(QueueDrop::Full), count(QueueDrop::Deadline));
    assert_eq!((q.drops_full(), q.drops_deadline()), (full, late));
    assert_eq!(q.peak_occupancy(), peak);
    let processed: Vec<(u64, f64)> = q.processed().iter().map(|(p, t)| (p.id, *t)).collect();
    assert_eq!(processed, accepted, "processed order");
    (full, late)
}

/// `count` arrivals from `start` with exponential gaps of mean `gap`.
fn poisson_arrivals(seed: u64, count: usize, start: f64, gap: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = start;
    (0..count)
        .map(|_| {
            t += -gap * (1.0 - rng.gen::<f64>()).ln();
            t
        })
        .collect()
}

#[test]
fn ch_queue_matches_reference_fifo_under_overflow() {
    let mut q = ChQueue::new(1, 1.0, 1.0);
    // A burst of five into a 3-slot queue, then arrivals exactly on
    // completion instants (a completing packet frees its slot), then a
    // drained queue.
    let burst = [
        0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 2.5, 2.5, 2.5, 9.0,
    ];
    let (full, late) = check_queue(&mut q, (3, 1.0, 1e9), &burst);
    assert!(full >= 3 && late == 0, "full {full}, late {late}");
    // Offered load 2.5× the service rate into four slots.
    let arrivals = poisson_arrivals(11, 300, 0.0, 0.4);
    let (full, late) = check_queue(&mut q, (4, 1.0, 1e9), &arrivals);
    assert!(full > 50 && late == 0, "full {full}, late {late}");
}

#[test]
fn ch_queue_matches_reference_fifo_under_deadline_misses() {
    let mut q = ChQueue::new(1, 1.0, 1.0);
    // Service 2.0 against a deadline of 10: five back-to-back arrivals
    // finish at 2, 4, …, 10 (the last exactly on the deadline, kept);
    // every later arrival would finish after it.
    let backlog = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 8.0, 9.5];
    let (full, late) = check_queue(&mut q, (100, 2.0, 10.0), &backlog);
    assert!(full == 0 && late >= 2, "full {full}, late {late}");
    // A backlog that grows past a round deadline of 60 slots.
    let arrivals = poisson_arrivals(23, 80, 0.0, 1.0);
    let (full, late) = check_queue(&mut q, (1000, 1.5, 60.0), &arrivals);
    assert!(full == 0 && late > 10, "full {full}, late {late}");
    // Both drop causes in one round.
    let (full, late) = check_queue(&mut q, (5, 1.5, 60.0), &arrivals);
    assert!(full > 0 && late > 0, "full {full}, late {late}");
}

// ---------------------------------------------------------------------
// Election: Algorithm 2 against the LEACH/DEEC rotating threshold
// ---------------------------------------------------------------------

/// Network size and target head count: `p = k/N = 0.05`, so one
/// rotation epoch is `⌈1/p⌉ = 20` rounds.
const ELECTION_N: usize = 200;
const ELECTION_K: usize = 10;
const EPOCH: u32 = 20;
/// Independent deployments and draw streams per statistic.
const ELECTION_SEEDS: u64 = 200;

/// The LEACH/DEEC threshold for a node still eligible at round `r`,
/// written from its definition (SNIPPETS §1 `select_CHs_deec`) and
/// capped at 1 — the last round of an epoch elects every node left.
fn leach_threshold(p: f64, r: u32) -> f64 {
    let epoch = (1.0 / p).ceil() as u32;
    (p / (1.0 - p * f64::from(r % epoch))).min(1.0)
}

/// One seed of plain Algorithm 2: equal batteries, every
/// `SelectionFeatures` improvement off, and a plan horizon far past the
/// run, so every node's DEEC probability stays `k/N` and the threshold
/// draw alone picks the heads. Returns, per round, the number of
/// eligible nodes (no head duty in the last `EPOCH` rounds, tracked
/// here from the returned head sets), the number the draw elected, and
/// the head set.
fn plain_election(seed: u64, rounds: u32) -> Vec<(usize, usize, Vec<NodeId>)> {
    use qlec::core::deec_improved::{select_heads, SelectionFeatures};
    use qlec::geom::UniformGrid;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = NetworkBuilder::new().uniform_cube(&mut rng, ELECTION_N, 200.0, 5.0);
    let grid = UniformGrid::build(net.positions());
    let params = QlecParams {
        total_rounds: u32::MAX,
        ..QlecParams::paper_with_k(ELECTION_K)
    };
    let plain = SelectionFeatures {
        energy_threshold: false,
        redundancy_reduction: false,
        top_up: false,
    };
    let mut last_duty: Vec<Option<u32>> = vec![None; ELECTION_N];
    (0..rounds)
        .map(|r| {
            let eligible = last_duty
                .iter()
                .filter(|last| last.is_none_or(|l| r - l >= EPOCH))
                .count();
            let out = select_heads(&mut net, &grid, r, ELECTION_K, &params, plain, &mut rng);
            for h in &out.heads {
                last_duty[h.index()] = Some(r);
            }
            (eligible, out.elected, out.heads)
        })
        .collect()
}

/// Each eligible node is drawn independently with probability `T(r)`,
/// so over the seeds a round's elected total has mean `Σ |G|·T` and
/// variance `Σ |G|·T(1 − T)`; every round of three epochs must land
/// within 4σ (exactly, when `T = 1`). In the first epoch every node
/// must serve exactly once.
#[test]
fn plain_election_draws_match_the_rotating_threshold() {
    let p = ELECTION_K as f64 / ELECTION_N as f64;
    let rounds = 3 * EPOCH;
    let mut elected = vec![0.0; rounds as usize];
    let mut mean = vec![0.0; rounds as usize];
    let mut var = vec![0.0; rounds as usize];
    for seed in 0..ELECTION_SEEDS {
        let mut first_epoch_duty = vec![0u32; ELECTION_N];
        for (r, (eligible, drawn, heads)) in plain_election(seed, rounds).into_iter().enumerate() {
            let t = leach_threshold(p, r as u32);
            elected[r] += drawn as f64;
            mean[r] += eligible as f64 * t;
            var[r] += eligible as f64 * t * (1.0 - t);
            if r < EPOCH as usize {
                for h in heads {
                    first_epoch_duty[h.index()] += 1;
                }
            }
        }
        assert!(
            first_epoch_duty.iter().all(|&d| d == 1),
            "seed {seed}: first-epoch head duty {first_epoch_duty:?}"
        );
    }
    for r in 0..rounds as usize {
        let sigma = var[r].sqrt();
        assert!(
            (elected[r] - mean[r]).abs() <= 4.0 * sigma + 1e-9,
            "round {r}: {} elected over {ELECTION_SEEDS} seeds, Σ T = {:.1} ± {sigma:.1}",
            elected[r],
            mean[r]
        );
    }
}

/// LEACH's epoch promise: after `⌈1/p⌉` rounds "all nodes are once
/// again eligible", so every epoch, not only the first, has each node
/// serve once, and each node's election phase is uniform over the epoch:
/// a round's head count is `Binomial(N, p)`, mean `k`.
///
/// Known defect: eligibility is a sliding window of the last `⌈1/p_i⌉`
/// rounds with no reset at the epoch boundary. From the second epoch on,
/// only the nodes that served at or before the same phase of the
/// previous epoch may stand, so the draw elects about 0.5 heads at
/// phase 0 and 36 at phase 19 (third epoch: 0.03 and 72), and the
/// last-resort promotion fills the empty rounds. QLEC's top-up and trim
/// restore the count but not the rotation.
#[test]
#[ignore = "known defect: DEEC eligibility has no epoch reset (ROADMAP item 2(a))"]
fn plain_election_keeps_k_heads_in_every_epoch() {
    let p = ELECTION_K as f64 / ELECTION_N as f64;
    let epochs = 3;
    let rounds = epochs * EPOCH;
    let mut heads_per_round = vec![0.0; rounds as usize];
    for seed in 0..ELECTION_SEEDS {
        let mut duty = vec![vec![0u32; ELECTION_N]; epochs as usize];
        for (r, (_, _, heads)) in plain_election(seed, rounds).into_iter().enumerate() {
            heads_per_round[r] += heads.len() as f64;
            for h in heads {
                duty[r / EPOCH as usize][h.index()] += 1;
            }
        }
        for (epoch, duty) in duty.iter().enumerate() {
            assert!(
                duty.iter().all(|&d| d == 1),
                "seed {seed}, epoch {epoch}: head duty {duty:?}"
            );
        }
    }
    let trials = ELECTION_SEEDS as f64 * ELECTION_N as f64;
    let sigma = (trials * p * (1.0 - p)).sqrt();
    for (r, &total) in heads_per_round.iter().enumerate() {
        assert!(
            (total - trials * p).abs() <= 4.0 * sigma,
            "round {r}: {total} heads over {ELECTION_SEEDS} seeds, expected {:.0} ± {sigma:.1}",
            trials * p
        );
    }
}
