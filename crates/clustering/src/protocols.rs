//! Simulator protocols wrapping the k-means and FCM clusterers — the two
//! comparators of Fig. 3.

use crate::fcm::{fcm, FcmConfig};
use crate::hierarchy::Hierarchy;
use crate::kmeans::{kmeans, KMeansConfig};
use qlec_net::protocol::{install_heads, PlanScratch, Protocol, RoutePlanner};
use qlec_net::{Network, NodeId, Target};
use rand::RngCore;
use std::collections::HashMap;

/// "Classic k-means clustering" (§5): positions-only clustering, head =
/// the member nearest each centroid, members single-hop to their cluster's
/// head, heads direct to the BS.
///
/// The paper's critique this protocol embodies: "k-means clusters nodes
/// based on the distance between them" — residual energy plays no role,
/// so drained nodes keep getting re-elected as heads.
#[derive(Debug, Clone)]
pub struct KMeansProtocol {
    /// Cluster count.
    pub k: usize,
    cfg: KMeansConfig,
    /// Member → this round's head.
    member_head: HashMap<NodeId, NodeId>,
}

impl KMeansProtocol {
    /// k-means with `k` clusters.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        KMeansProtocol {
            k,
            cfg: KMeansConfig::default(),
            member_head: HashMap::new(),
        }
    }
}

impl Protocol for KMeansProtocol {
    fn name(&self) -> &str {
        "k-means"
    }

    fn on_round_start(
        &mut self,
        net: &mut Network,
        round: u32,
        rng: &mut dyn RngCore,
    ) -> Vec<NodeId> {
        self.member_head.clear();
        let alive: Vec<NodeId> = net.alive_ids().collect();
        if alive.is_empty() {
            return Vec::new();
        }
        let positions: Vec<_> = alive.iter().map(|&id| net.node(id).pos).collect();
        let k = self.k.min(alive.len());
        let res = kmeans(rng, &positions, k, &self.cfg);

        // Head of each cluster: the member geometrically nearest the
        // centroid (energy deliberately ignored — that is the baseline's
        // weakness).
        let mut heads: Vec<Option<NodeId>> = vec![None; k];
        let mut best_d = vec![f64::INFINITY; k];
        for (i, &id) in alive.iter().enumerate() {
            let c = res.assignment[i];
            let d = positions[i].dist_sq(res.centroids[c]);
            if d < best_d[c] {
                best_d[c] = d;
                heads[c] = Some(id);
            }
        }
        for (i, &id) in alive.iter().enumerate() {
            if let Some(h) = heads[res.assignment[i]] {
                if h != id {
                    self.member_head.insert(id, h);
                }
            }
        }
        let heads: Vec<NodeId> = heads.into_iter().flatten().collect();
        install_heads(net, round, &heads);
        heads
    }

    fn planner(&self) -> Option<&dyn RoutePlanner> {
        Some(self)
    }
}

/// Member `src`'s head from this round's election, or the BS when the
/// election gave it none (it is a head, or was not alive then).
fn member_target(member_head: &HashMap<NodeId, NodeId>, src: NodeId) -> Target {
    member_head
        .get(&src)
        .copied()
        .map_or(Target::Bs, Target::Head)
}

impl RoutePlanner for KMeansProtocol {
    fn plan_target(
        &self,
        _net: &Network,
        src: NodeId,
        _heads: &[NodeId],
        _rng: &mut dyn RngCore,
        _scratch: &mut PlanScratch,
    ) -> Target {
        member_target(&self.member_head, src)
    }
}

/// The FCM-based scheme of \[14\]: fuzzy C-means cluster formation,
/// energy-aware head choice (membership × residual energy), and
/// hierarchy-based multi-hop aggregate routing toward the BS.
#[derive(Debug, Clone)]
pub struct FcmProtocol {
    /// Cluster count.
    pub c: usize,
    /// Number of hierarchy levels (distance bands around the BS).
    pub levels: usize,
    cfg: FcmConfig,
    member_head: HashMap<NodeId, NodeId>,
}

impl FcmProtocol {
    /// FCM with `c` clusters and the default 3 hierarchy levels.
    pub fn new(c: usize) -> Self {
        Self::with_levels(c, 3)
    }

    /// FCM with an explicit hierarchy depth.
    pub fn with_levels(c: usize, levels: usize) -> Self {
        assert!(c > 0, "c must be positive");
        assert!(levels >= 1, "levels must be at least 1");
        FcmProtocol {
            c,
            levels,
            cfg: FcmConfig::default(),
            member_head: HashMap::new(),
        }
    }

    fn hierarchy(&self, net: &Network) -> Hierarchy {
        let max_r = net
            .arena()
            .positions()
            .iter()
            .map(|p| p.dist(net.bs_pos()))
            .fold(0.0f64, f64::max)
            .max(1e-9);
        Hierarchy::new(self.levels, max_r)
    }
}

impl Protocol for FcmProtocol {
    fn name(&self) -> &str {
        "fcm"
    }

    fn on_round_start(
        &mut self,
        net: &mut Network,
        round: u32,
        rng: &mut dyn RngCore,
    ) -> Vec<NodeId> {
        self.member_head.clear();
        let alive: Vec<NodeId> = net.alive_ids().collect();
        if alive.is_empty() {
            return Vec::new();
        }
        let positions: Vec<_> = alive.iter().map(|&id| net.node(id).pos).collect();
        let c = self.c.min(alive.len());
        let res = fcm(rng, &positions, c, &self.cfg);

        // Head of each fuzzy cluster: maximize membership × residual
        // energy (\[14\] "employs the concept of maximizing residual
        // energy when choosing cluster heads").
        let mut heads: Vec<Option<NodeId>> = vec![None; res.c];
        let mut best_score = vec![f64::NEG_INFINITY; res.c];
        for (i, &id) in alive.iter().enumerate() {
            let e = net.node(id).residual();
            for j in 0..res.c {
                let score = res.membership(i, j) * e;
                if score > best_score[j] {
                    best_score[j] = score;
                    heads[j] = Some(id);
                }
            }
        }
        let hard = res.hard_assignment();
        for (i, &id) in alive.iter().enumerate() {
            if let Some(h) = heads[hard[i]] {
                if h != id {
                    self.member_head.insert(id, h);
                }
            }
        }
        let mut heads: Vec<NodeId> = heads.into_iter().flatten().collect();
        heads.sort_unstable();
        heads.dedup();
        install_heads(net, round, &heads);
        heads
    }

    fn planner(&self) -> Option<&dyn RoutePlanner> {
        Some(self)
    }

    fn aggregate_route(&mut self, net: &Network, head: NodeId, heads: &[NodeId]) -> Vec<Target> {
        // Hierarchy multi-hop: relay through the nearest lower-band head
        // until band 0, then the BS. Levels strictly decrease along the
        // route, so it always terminates.
        let h = self.hierarchy(net);
        let bs = net.bs_pos();
        let mut route = Vec::new();
        let mut cur = head;
        loop {
            let level = h.level_of(net.node(cur).pos, bs);
            if level == 0 {
                break;
            }
            let candidates: Vec<(usize, _)> = heads
                .iter()
                .enumerate()
                .filter(|&(_, &id)| id != cur && net.node(id).is_alive())
                .map(|(i, &id)| (i, net.node(id).pos))
                .collect();
            match h.next_hop(net.node(cur).pos, level, bs, &candidates) {
                Some(idx) => {
                    let relay = heads[idx];
                    route.push(Target::Head(relay));
                    cur = relay;
                }
                None => break, // no lower-band relay: go direct
            }
        }
        route.push(Target::Bs);
        route
    }
}

impl RoutePlanner for FcmProtocol {
    fn plan_target(
        &self,
        _net: &Network,
        src: NodeId,
        _heads: &[NodeId],
        _rng: &mut dyn RngCore,
        _scratch: &mut PlanScratch,
    ) -> Target {
        member_target(&self.member_head, src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlec_net::{NetworkBuilder, SimConfig, Simulator};
    use qlec_radio::link::{AnyLink, IdealLink};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64, n: usize) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new()
            .link(AnyLink::Ideal(IdealLink))
            .uniform_cube(&mut rng, n, 200.0, 5.0)
    }

    #[test]
    fn kmeans_protocol_elects_k_heads() {
        let mut n = net(1, 60);
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = KMeansProtocol::new(5);
        let heads = p.on_round_start(&mut n, 0, &mut rng);
        assert_eq!(heads.len(), 5);
        // Every non-head member has a routing entry.
        for id in n.alive_ids() {
            if !heads.contains(&id) {
                assert!(matches!(
                    p.choose_target(&n, id, &heads, &mut rng),
                    Target::Head(_)
                ));
            }
        }
    }

    #[test]
    fn kmeans_members_route_within_their_cluster() {
        let mut n = net(3, 60);
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = KMeansProtocol::new(4);
        let heads = p.on_round_start(&mut n, 0, &mut rng);
        // Routing targets must be heads of this round.
        for id in n.alive_ids() {
            if let Target::Head(h) = p.choose_target(&n, id, &heads, &mut rng) {
                assert!(heads.contains(&h), "{id} routed to non-head {h}");
            }
        }
    }

    #[test]
    fn kmeans_protocol_full_run_conserves_packets() {
        let n = net(5, 50);
        let mut rng = StdRng::seed_from_u64(6);
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 4;
        let report = Simulator::builder(n)
            .config(cfg)
            .build()
            .run(&mut KMeansProtocol::new(5), &mut rng);
        assert!(report.totals.is_conserved());
        assert!(report.pdr() > 0.8, "PDR {}", report.pdr());
    }

    #[test]
    fn fcm_protocol_elects_heads_and_routes() {
        let mut n = net(7, 60);
        let mut rng = StdRng::seed_from_u64(8);
        let mut p = FcmProtocol::new(5);
        let heads = p.on_round_start(&mut n, 0, &mut rng);
        assert!(!heads.is_empty() && heads.len() <= 5);
        for id in n.alive_ids() {
            if !heads.contains(&id) {
                let t = p.choose_target(&n, id, &heads, &mut rng);
                if let Target::Head(h) = t {
                    assert!(heads.contains(&h));
                }
            }
        }
    }

    #[test]
    fn fcm_heads_have_high_energy() {
        // Drain most nodes; FCM's energy-weighted head choice must prefer
        // the full ones.
        let mut n = net(9, 60);
        for i in 0..50u32 {
            n.node_mut(NodeId(i)).battery.consume(4.5);
        }
        let mut rng = StdRng::seed_from_u64(10);
        let mut p = FcmProtocol::new(4);
        let heads = p.on_round_start(&mut n, 0, &mut rng);
        let full_heads = heads.iter().filter(|h| h.0 >= 50).count();
        assert!(
            full_heads * 2 >= heads.len(),
            "expected mostly full-energy heads, got {full_heads}/{}",
            heads.len()
        );
    }

    #[test]
    fn fcm_aggregate_routes_end_at_bs_with_decreasing_levels() {
        let mut n = net(11, 80);
        let mut rng = StdRng::seed_from_u64(12);
        let mut p = FcmProtocol::with_levels(6, 3);
        let heads = p.on_round_start(&mut n, 0, &mut rng);
        let h = p.hierarchy(&n);
        let bs = n.bs_pos();
        for &head in &heads {
            let route = p.aggregate_route(&n, head, &heads);
            assert_eq!(route.last(), Some(&Target::Bs));
            // Relay levels strictly decrease.
            let mut prev = h.level_of(n.node(head).pos, bs);
            for hop in &route[..route.len() - 1] {
                if let Target::Head(relay) = hop {
                    let l = h.level_of(n.node(*relay).pos, bs);
                    assert!(l < prev, "relay level {l} not below {prev}");
                    prev = l;
                }
            }
        }
    }

    #[test]
    fn fcm_uses_multihop_when_levels_allow() {
        // With several levels and enough heads, at least one outer head
        // should relay (the mechanism behind FCM's congestion losses).
        let mut n = net(13, 120);
        let mut rng = StdRng::seed_from_u64(14);
        let mut p = FcmProtocol::with_levels(8, 3);
        let heads = p.on_round_start(&mut n, 0, &mut rng);
        let any_multihop = heads
            .iter()
            .any(|&head| p.aggregate_route(&n, head, &heads).len() > 1);
        assert!(
            any_multihop,
            "expected at least one multi-hop aggregate route"
        );
    }

    #[test]
    fn fcm_protocol_full_run_conserves_packets() {
        let n = net(15, 50);
        let mut rng = StdRng::seed_from_u64(16);
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 4;
        let report = Simulator::builder(n)
            .config(cfg)
            .build()
            .run(&mut FcmProtocol::new(5), &mut rng);
        assert!(report.totals.is_conserved());
        assert!(report.totals.delivered > 0);
    }

    #[test]
    fn protocols_survive_mass_death() {
        // Kill everyone but two nodes; protocols must not panic and the
        // sim must stay conserved.
        let mut n = net(17, 30);
        for i in 0..28u32 {
            n.node_mut(NodeId(i)).battery.consume(10.0);
        }
        let mut rng = StdRng::seed_from_u64(18);
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 3;
        for p in [true, false] {
            let net2 = n.clone();
            let report = if p {
                Simulator::builder(net2)
                    .config(cfg)
                    .build()
                    .run(&mut KMeansProtocol::new(5), &mut rng)
            } else {
                Simulator::builder(net2)
                    .config(cfg)
                    .build()
                    .run(&mut FcmProtocol::new(5), &mut rng)
            };
            assert!(report.totals.is_conserved());
        }
    }
}
