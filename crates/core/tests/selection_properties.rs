//! Property-based tests on QLEC's cluster-head selection and Q-routing.

use proptest::prelude::*;
use qlec_clustering::deec::deec_probability;
use qlec_clustering::leach::{rotating_epoch, rotating_threshold};
use qlec_core::deec_improved::{
    energy_threshold, redundancy_withdrawals, select_heads, select_heads_from_roster,
    SelectionFeatures, SelectionOutcome,
};
use qlec_core::kopt::coverage_radius;
use qlec_core::params::QlecParams;
use qlec_core::qrouting::QRouter;
use qlec_geom::UniformGrid;
use qlec_net::{Network, NetworkBuilder, NodeId, Target};
use qlec_obs::ObserverSet;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The reference election: Algorithms 2 and 3 plus the top-up exactly as
/// first written — a HELLO charge pass and a withdrawal pass that each
/// query the grid, a top-up that filters candidates with
/// `heads.contains` and tests the `d_c` separation against every head.
/// O(N·k), and the oracle the production election must match bit for
/// bit.
#[allow(clippy::too_many_arguments)]
fn reference_select(
    net: &mut Network,
    grid: &UniformGrid,
    alive: &[NodeId],
    round: u32,
    k: usize,
    params: &QlecParams,
    features: SelectionFeatures,
    rng: &mut dyn RngCore,
) -> SelectionOutcome {
    let n = net.len().max(1);
    let p_opt = (k as f64 / n as f64).min(1.0);
    let dc = coverage_radius(net.side_length(), k);
    let r_frac = if round >= params.total_rounds {
        1.0
    } else {
        round as f64 / params.total_rounds as f64
    };
    let avg_energy = (net.total_initial() / n as f64) * (1.0 - r_frac);

    let mut elected: Vec<NodeId> = Vec::new();
    for &id in alive {
        let node = net.node(id);
        if features.energy_threshold
            && node.residual()
                < energy_threshold(node.battery.initial(), round, params.total_rounds)
        {
            continue;
        }
        let p_i = deec_probability(p_opt, node.residual(), avg_energy);
        if p_i <= 0.0 || node.was_head_recently(round, rotating_epoch(p_i)) {
            continue;
        }
        if rng.gen::<f64>() < rotating_threshold(p_i, round) {
            elected.push(id);
        }
    }
    let elected_count = elected.len();

    let mut withdrawn_ids = Vec::new();
    let mut heads = if features.redundancy_reduction && elected.len() > 1 {
        if params.charge_control_traffic {
            let tx = net.radio.tx_energy(params.hello_bits, dc);
            let rx = net.radio.rx_energy(params.hello_bits);
            for &h in &elected {
                net.node_mut(h).battery.consume(tx);
                for i in grid.within_radius(net.node(h).pos, dc) {
                    let id = NodeId(i);
                    if id != h && net.node(id).is_alive() {
                        net.node_mut(id).battery.consume(rx);
                    }
                }
            }
        }
        let mut kept = Vec::new();
        for &i in &elected {
            let me = net.node(i).residual();
            let outranked = grid
                .within_radius(net.node(i).pos, dc * (1.0 + 1e-12))
                .into_iter()
                .map(NodeId)
                .any(|j| {
                    elected.contains(&j) && j != i && net.distance(i, j) <= dc && {
                        let other = net.node(j).residual();
                        other > me || (other == me && j < i)
                    }
                });
            if outranked {
                withdrawn_ids.push(i);
            } else {
                kept.push(i);
            }
        }
        kept
    } else {
        elected
    };

    if features.top_up && heads.len() > k {
        heads.sort_by(|&a, &b| {
            net.node(b)
                .residual()
                .total_cmp(&net.node(a).residual())
                .then(a.cmp(&b))
        });
        heads.truncate(k);
    }
    let mut topped_up = 0usize;
    if features.top_up && heads.len() < k {
        let mut candidates: Vec<(bool, NodeId)> = alive
            .iter()
            .copied()
            .filter(|id| !heads.contains(id))
            .map(|id| {
                let node = net.node(id);
                let passes = !features.energy_threshold
                    || node.residual()
                        >= energy_threshold(node.battery.initial(), round, params.total_rounds);
                (passes, id)
            })
            .collect();
        candidates.sort_by(|&(pa, a), &(pb, b)| {
            pb.cmp(&pa)
                .then(net.node(b).residual().total_cmp(&net.node(a).residual()))
                .then(a.cmp(&b))
        });
        for &(_, id) in &candidates {
            if heads.len() >= k {
                break;
            }
            if features.redundancy_reduction && heads.iter().any(|h| net.distance(id, *h) <= dc) {
                continue;
            }
            heads.push(id);
            topped_up += 1;
        }
        for &(_, id) in &candidates {
            if heads.len() >= k {
                break;
            }
            if !heads.contains(&id) {
                heads.push(id);
                topped_up += 1;
            }
        }
    }
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
    SelectionOutcome {
        heads,
        elected: elected_count,
        withdrawn: withdrawn_ids.len(),
        withdrawn_ids,
        topped_up,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Selection invariants across random deployments, rounds, and k:
    /// heads are alive, unique, at most N, exactly k when enough alive
    /// candidates exist, and pairwise separated when redundancy
    /// reduction + top-up are on.
    #[test]
    fn selection_invariants(
        seed in 0u64..1000,
        n in 10usize..120,
        k in 1usize..8,
        round in 0u32..20,
        drained in 0usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = NetworkBuilder::new().uniform_cube(&mut rng, n, 200.0, 5.0);
        // Drain a few nodes completely.
        for i in 0..drained.min(n) {
            net.node_mut(NodeId(i as u32)).battery.consume(10.0);
        }
        let grid = UniformGrid::build(net.positions());
        let params = QlecParams::paper();
        let out = select_heads(
            &mut net,
            &grid,
            round,
            k,
            &params,
            SelectionFeatures::default(),
            &mut rng,
        );

        let alive = net.alive_count();
        // Exactly k heads whenever enough alive nodes exist; never more.
        prop_assert!(out.heads.len() <= k);
        if alive >= k {
            prop_assert_eq!(out.heads.len(), k);
        } else {
            prop_assert!(out.heads.len() <= alive);
        }
        // Unique and alive.
        let mut sorted = out.heads.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), out.heads.len());
        for &h in &out.heads {
            prop_assert!(net.node(h).is_alive(), "dead head {h}");
            prop_assert_eq!(net.node(h).last_head_round, Some(round));
        }
        // Diagnostics are consistent.
        prop_assert!(out.withdrawn <= out.elected);
    }

    /// With redundancy reduction and no top-up, surviving elected heads
    /// are pairwise separated by more than d_c.
    #[test]
    fn redundancy_reduction_separation(
        seed in 0u64..500,
        n in 30usize..150,
        k in 2usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = NetworkBuilder::new().uniform_cube(&mut rng, n, 200.0, 5.0);
        let grid = UniformGrid::build(net.positions());
        let features = SelectionFeatures { top_up: false, ..Default::default() };
        let out = select_heads(
            &mut net,
            &grid,
            0,
            k,
            &QlecParams::paper(),
            features,
            &mut rng,
        );
        let dc = coverage_radius(200.0, k);
        // With simultaneous-HELLO semantics, two surviving heads within
        // d_c would each have had to out-rank the other — impossible.
        // (The top-up's trim can break this only via its own separation
        // rule, hence top_up: false here; the singleton fallback head is
        // trivially separated.)
        for (i, &a) in out.heads.iter().enumerate() {
            for &b in &out.heads[i + 1..] {
                prop_assert!(
                    net.distance(a, b) > dc,
                    "heads {a} and {b} within d_c = {dc}"
                );
            }
        }
    }

    /// The grid-backed Algorithm 3 partition returns exactly the same
    /// survivor and withdrawn sets (same order) as the seed-era
    /// brute-force O(elected²) scan, across random deployments, elected
    /// subsets, coverage radii, and energy profiles (equal residuals
    /// exercise the lower-id tie-break).
    #[test]
    fn grid_survives_matches_brute_force(
        seed in 0u64..1000,
        n in 2usize..200,
        k in 1usize..10,
        elect_mod in 1usize..5,
        drained in 0usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = NetworkBuilder::new().uniform_cube(&mut rng, n, 200.0, 5.0);
        for i in 0..drained.min(n) {
            net.node_mut(NodeId(i as u32)).battery.consume(0.1 * (i + 1) as f64);
        }
        let grid = UniformGrid::build(net.positions());
        let dc = coverage_radius(200.0, k);
        // Pseudo-random elected subset, in id order as Algorithm 2 yields.
        let elected: Vec<NodeId> = (0..n as u32)
            .filter(|i| (*i as usize + seed as usize).is_multiple_of(elect_mod))
            .map(NodeId)
            .collect();

        let (kept, withdrawn) = redundancy_withdrawals(&mut net, &grid, &elected, dc, None);

        // Reference: the brute-force all-pairs scan this PR replaced.
        let survives = |i: &NodeId| -> bool {
            !elected.iter().any(|j| {
                j != i && net.distance(*i, *j) <= dc && {
                    let (other, me) = (net.node(*j).residual(), net.node(*i).residual());
                    other > me || (other == me && j < i)
                }
            })
        };
        let kept_ref: Vec<NodeId> = elected.iter().copied().filter(survives).collect();
        let withdrawn_ref: Vec<NodeId> = elected
            .iter()
            .copied()
            .filter(|i| !kept_ref.contains(i))
            .collect();
        prop_assert_eq!(kept, kept_ref);
        prop_assert_eq!(withdrawn, withdrawn_ref);
    }

    /// Q-router outputs are always valid actions, and V values stay
    /// bounded by r_max/(1−γ) under arbitrary interleavings of routing
    /// decisions and ACK feedback.
    #[test]
    fn qrouter_bounded_and_valid(
        seed in 0u64..500,
        n in 5usize..40,
        k in 1usize..6,
        steps in 1usize..80,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = NetworkBuilder::new().uniform_cube(&mut rng, n, 200.0, 5.0);
        let params = QlecParams::paper();
        let mut router = QRouter::new(&net, params);
        let heads: Vec<NodeId> = (0..k.min(n) as u32).map(NodeId).collect();
        use rand::Rng;
        for step in 0..steps {
            let src = NodeId((step % n) as u32);
            let t = router.send_data(&net, src, &heads);
            match t {
                Target::Bs => {}
                Target::Head(h) => prop_assert!(heads.contains(&h), "invalid head {h}"),
            }
            router.on_hop_result(src, t, rng.gen::<bool>());
            if step % 5 == 0 {
                for &h in &heads {
                    router.head_update(&net, h, 0.5);
                }
            }
        }
        // Generous reward bound: |r| ≤ g + 2α₁ + α₂·y_max + l with
        // y normalized so y ≤ diag³·…; use a loose constant.
        let r_max = params.g + 2.0 * params.alpha1 + params.alpha2 * 16.0 + params.l;
        let bound = r_max / (1.0 - params.gamma);
        for i in 0..n as u32 {
            let v = router.v_of(NodeId(i));
            prop_assert!(v.is_finite());
            prop_assert!(v.abs() <= bound, "V({i}) = {v} exceeds {bound}");
        }
    }

    /// The link estimator stays a probability under any feedback
    /// sequence and converges toward all-success / all-failure extremes.
    #[test]
    fn link_estimator_stays_probability(
        outcomes in prop::collection::vec(any::<bool>(), 1..300),
        weight in 0.01f64..1.0,
        prior in 0.0f64..1.0,
    ) {
        use qlec_core::qrouting::LinkEstimator;
        let mut est = LinkEstimator::new(weight, prior);
        let src = NodeId(0);
        let t = Target::Head(NodeId(1));
        for &ok in &outcomes {
            est.record(src, t, ok);
            let p = est.probability(src, t);
            prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    /// The link table equals a reference `(src, dst)`-keyed EWMA under
    /// random `record`, `probability` and `prune_dead` steps, over head
    /// and BS targets on a small network whose nodes die (battery) or go
    /// dark and come back (`online`): the same links tracked, and every
    /// estimate the same bits, after every step.
    #[test]
    fn link_table_matches_the_reference(
        seed in 0u64..1000,
        n in 2usize..12,
        weight in 0.01f64..1.0,
        prior in 0.0f64..1.0,
        ops in prop::collection::vec(0u32..u32::MAX, 1..200),
    ) {
        use qlec_core::qrouting::LinkEstimator;
        use std::collections::BTreeMap;
        const BS: u32 = u32::MAX;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = NetworkBuilder::new().uniform_cube(&mut rng, n, 200.0, 5.0);
        let mut est = LinkEstimator::new(weight, prior);
        let mut reference: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        let target_of = |dst: u32| if dst == BS { Target::Bs } else { Target::Head(NodeId(dst)) };
        for (step, &w) in ops.iter().enumerate() {
            // One op per word: kind, source, destination (n = the BS)
            // and ACK outcome from disjoint bit fields.
            let src = (w >> 4) % n as u32;
            let dst = match (w >> 12) % (n as u32 + 1) {
                d if d == n as u32 => BS,
                d => d,
            };
            let success = (w >> 24) & 1 == 1;
            match w % 16 {
                0..=8 => {
                    est.record(NodeId(src), target_of(dst), success);
                    let p = reference.entry((src, dst)).or_insert(prior);
                    *p += weight * (if success { 1.0 } else { 0.0 } - *p);
                }
                9 => {
                    net.node_mut(NodeId(src)).battery.consume(10.0);
                }
                10 => {
                    let online = net.node_mut(NodeId(src)).online;
                    *online = !*online;
                }
                11 | 12 => {
                    est.prune_dead(&net);
                    let alive = |id: u32| net.node(NodeId(id)).is_alive();
                    reference.retain(|&(s, d), _| alive(s) && (d == BS || alive(d)));
                }
                _ => {} // a probability-only step
            }
            prop_assert_eq!((step, est.links_tracked()), (step, reference.len()));
            let want = reference.get(&(src, dst)).copied().unwrap_or(prior);
            let got = est.probability(NodeId(src), target_of(dst));
            prop_assert_eq!((step, got.to_bits()), (step, want.to_bits()));
            for (&(s, d), &p) in &reference {
                let got = est.probability(NodeId(s), target_of(d));
                prop_assert_eq!((step, s, d, got.to_bits()), (step, s, d, p.to_bits()));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The production election matches [`reference_select`] bit for bit
    /// over a few consecutive rounds: the whole outcome, every node's
    /// residual after the HELLO charges, and every node's last duty
    /// round. Covers every feature flag and HELLO charging on and off;
    /// `k` up to past `n`, so the relaxed second top-up pass runs; equal
    /// residuals (every fresh node, and drain classes), so the id
    /// tie-breaks decide; nodes a HELLO kills; offline nodes that keep
    /// their charge and their grid entry; and alive nodes missing
    /// from the node grid — the blackout-revival defect — which the
    /// grid's ball queries miss but which can still be topped up as
    /// heads and must then block their neighbours.
    #[test]
    fn election_matches_the_reference(
        seed in 0u64..1000,
        n in 2usize..150,
        k_raw in 0usize..1000,
        first_round in 0u32..24,
        rounds in 1u32..4,
        energy_threshold in any::<bool>(),
        redundancy_reduction in any::<bool>(),
        top_up in any::<bool>(),
        charge in any::<bool>(),
        drains in prop::collection::vec(0u8..8, 150..151),
        off_grid in prop::collection::vec(0u8..7, 150..151),
    ) {
        let k = k_raw % (n + 3) + 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = NetworkBuilder::new().uniform_cube(&mut rng, n, 200.0, 5.0);
        let mut grid = UniformGrid::build(net.positions());
        for i in 0..n {
            let drain = match drains[i] {
                0 => 1.0,
                1 => 5.0 - 1e-6, // one HELLO reception kills it
                2 => 10.0,       // dead before the first round
                _ => 0.0,
            };
            let node = net.node_mut(NodeId(i as u32));
            node.battery.consume(drain);
            // Offline with charge left: in the grid, but must not pay
            // HELLO reception.
            *node.online = drains[i] != 3;
            if off_grid[i] == 0 {
                grid.remove(i as u32);
            }
        }
        let params = QlecParams { charge_control_traffic: charge, ..QlecParams::paper() };
        let features = SelectionFeatures { energy_threshold, redundancy_reduction, top_up };
        let mut reference = net.clone();
        let mut rng_ref = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut rng_sut = rng_ref.clone();
        for round in first_round..first_round + rounds {
            let alive: Vec<NodeId> = net.alive_ids().collect();
            let want = reference_select(
                &mut reference, &grid, &alive, round, k, &params, features, &mut rng_ref,
            );
            let got = select_heads_from_roster(
                &mut net, &grid, &alive, round, k, &params, features, &mut rng_sut,
                &ObserverSet::new(),
            );
            prop_assert_eq!((round, &got.heads), (round, &want.heads));
            prop_assert_eq!(got.elected, want.elected);
            prop_assert_eq!(got.withdrawn, want.withdrawn);
            prop_assert_eq!(&got.withdrawn_ids, &want.withdrawn_ids);
            prop_assert_eq!(got.topped_up, want.topped_up);
            for i in 0..n as u32 {
                let (a, b) = (net.node(NodeId(i)), reference.node(NodeId(i)));
                prop_assert_eq!((i, a.residual().to_bits()), (i, b.residual().to_bits()));
                prop_assert_eq!((i, a.last_head_round), (i, b.last_head_round));
            }
        }
    }
}
