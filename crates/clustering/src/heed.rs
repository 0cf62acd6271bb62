//! HEED — Hybrid Energy-Efficient Distributed clustering (Younis &
//! Fahmy \[17\], cited in §2 of the QLEC paper among the distributed
//! energy-efficient approaches).
//!
//! HEED selects cluster heads through an iterative, fully distributed
//! probabilistic process:
//!
//! 1. every node starts with candidacy probability
//!    `CH_prob = C_prob · E_residual / E_max` (clamped below by
//!    `p_min`),
//! 2. in each iteration a node announces *tentative* candidacy with its
//!    current probability; nodes that hear a tentative head within their
//!    cluster range defer to the lowest-cost one; probabilities double
//!    every iteration,
//! 3. once a node's probability reaches 1 it becomes a *final* head;
//!    nodes that end the process without hearing any final head within
//!    range elect themselves.
//!
//! The secondary cost criterion (used to pick among competing heads) is
//! the classic AMRP — average minimum reachability power — approximated
//! here by the mean squared distance to the node's neighbours within the
//! cluster range.
//!
//! The protocol is an extra baseline for the reproduction: like QLEC's
//! improved DEEC it is residual-energy-driven and fully distributed, but
//! it has no rotation epoch, no coverage-radius redundancy reduction, and
//! no learning in the transmission phase.

use qlec_geom::UniformGrid;
use qlec_net::protocol::{install_heads, NearestHead, Protocol, RoutePlanner};
use qlec_net::{Network, NodeId};
use rand::{Rng, RngCore};

/// HEED parameters.
#[derive(Debug, Clone, Copy)]
pub struct HeedConfig {
    /// Initial candidacy fraction `C_prob` (HEED's default: 5 %).
    pub c_prob: f64,
    /// Lower bound on the candidacy probability (`p_min`).
    pub p_min: f64,
    /// Cluster range: nodes within this distance of a head join it and
    /// defer their own candidacy.
    pub cluster_range: f64,
    /// Safety cap on doubling iterations.
    pub max_iterations: u32,
}

impl Default for HeedConfig {
    fn default() -> Self {
        HeedConfig {
            c_prob: 0.05,
            p_min: 1e-4,
            cluster_range: 75.0,
            max_iterations: 32,
        }
    }
}

/// HEED as a simulator protocol. Members join the nearest final head;
/// heads transmit aggregates directly to the BS.
#[derive(Debug, Clone)]
pub struct HeedProtocol {
    pub cfg: HeedConfig,
    grid: Option<UniformGrid>,
}

impl HeedProtocol {
    /// HEED with the given configuration.
    pub fn new(cfg: HeedConfig) -> Self {
        assert!(
            cfg.c_prob > 0.0 && cfg.c_prob <= 1.0,
            "C_prob must be in (0,1]"
        );
        assert!(
            cfg.p_min > 0.0 && cfg.p_min <= cfg.c_prob,
            "p_min must be in (0, C_prob]"
        );
        assert!(cfg.cluster_range > 0.0, "cluster range must be positive");
        HeedProtocol { cfg, grid: None }
    }

    /// HEED with the default parameters and a cluster range derived from
    /// the target head count via the paper's Eq. 5 radius.
    pub fn with_target_k(net_side: f64, k: usize) -> Self {
        assert!(k > 0);
        let range = (3.0 / (4.0 * std::f64::consts::PI * k as f64)).cbrt() * net_side;
        HeedProtocol::new(HeedConfig {
            cluster_range: range,
            ..Default::default()
        })
    }

    /// AMRP-style cost: mean squared distance to neighbours within the
    /// cluster range (lower = better placed to serve its neighbourhood).
    fn cost(&self, net: &Network, grid: &UniformGrid, id: NodeId, buf: &mut Vec<u32>) -> f64 {
        let pos = net.node(id).pos;
        grid.within_radius_into(pos, self.cfg.cluster_range, buf);
        let mut sum = 0.0;
        let mut n = 0usize;
        for &i in buf.iter() {
            if i != id.0 {
                sum += net.node(NodeId(i)).pos.dist_sq(pos);
                n += 1;
            }
        }
        if n == 0 {
            // Isolated node: neutral (must head itself anyway).
            0.0
        } else {
            sum / n as f64
        }
    }
}

impl Protocol for HeedProtocol {
    fn name(&self) -> &str {
        "heed"
    }

    fn on_round_start(
        &mut self,
        net: &mut Network,
        round: u32,
        rng: &mut dyn RngCore,
    ) -> Vec<NodeId> {
        if self.grid.is_none() {
            self.grid = Some(UniformGrid::build(net.positions()));
        }
        let grid = self.grid.as_ref().expect("built above");
        let e_max = net
            .arena()
            .batteries()
            .iter()
            .map(|b| b.initial())
            .fold(0.0f64, f64::max)
            .max(f64::EPSILON);

        let alive: Vec<NodeId> = net.alive_ids().collect();
        let mut buf = Vec::new();
        // Per-node doubling probability, final/tentative state, and cost.
        let mut prob: Vec<f64> = alive
            .iter()
            .map(|&id| {
                (self.cfg.c_prob * net.node(id).residual() / e_max)
                    .max(self.cfg.p_min)
                    .min(1.0)
            })
            .collect();
        let costs: Vec<f64> = alive
            .iter()
            .map(|&id| self.cost(net, grid, id, &mut buf))
            .collect();
        let mut tentative = vec![false; alive.len()];
        let mut deferred = vec![false; alive.len()];

        for _ in 0..self.cfg.max_iterations {
            // Announcement phase: competing nodes whose coin lands become
            // tentative heads (probability 1 = certain candidacy).
            for i in 0..alive.len() {
                if tentative[i] || deferred[i] {
                    continue;
                }
                if prob[i] >= 1.0 || rng.gen::<f64>() < prob[i] {
                    tentative[i] = true;
                }
            }
            // Deferral phase: a node that hears a tentative head within
            // its cluster range joins that cluster and exits the
            // competition — this is what makes HEED energy-driven: rich
            // nodes announce in earlier iterations and their neighbours
            // stand down before their own probability matures.
            for (i, &id) in alive.iter().enumerate() {
                if tentative[i] || deferred[i] {
                    continue;
                }
                let pos = net.node(id).pos;
                grid.within_radius_into(pos, self.cfg.cluster_range, &mut buf);
                let hears_tentative = buf.iter().any(|&j| {
                    let jid = NodeId(j);
                    jid != id
                        && alive
                            .iter()
                            .position(|&x| x == jid)
                            .map(|jx| tentative[jx])
                            .unwrap_or(false)
                });
                if hears_tentative {
                    deferred[i] = true;
                }
            }
            // Doubling for everyone still competing.
            let mut still_competing = false;
            for i in 0..alive.len() {
                if !tentative[i] && !deferred[i] {
                    prob[i] = (prob[i] * 2.0).min(1.0);
                    still_competing = true;
                }
            }
            if !still_competing {
                break;
            }
        }

        // Resolution among tentative heads: a tentative head that hears a
        // lower-cost tentative head within range defers to it. Nodes with
        // no surviving head in range self-elect (completeness).
        let index_of = |id: NodeId| alive.iter().position(|&x| x == id);
        let mut heads: Vec<NodeId> = Vec::new();
        for (i, &id) in alive.iter().enumerate() {
            if !tentative[i] {
                continue;
            }
            let pos = net.node(id).pos;
            grid.within_radius_into(pos, self.cfg.cluster_range, &mut buf);
            let cheaper_neighbour = buf.iter().any(|&j| {
                let jid = NodeId(j);
                jid != id
                    && net.node(jid).is_alive()
                    && index_of(jid)
                        .map(|jx| {
                            tentative[jx]
                                && (costs[jx] < costs[i] || (costs[jx] == costs[i] && jid < id))
                        })
                        .unwrap_or(false)
            });
            if !cheaper_neighbour {
                heads.push(id);
            }
        }
        // Completeness: uncovered nodes self-elect.
        for &id in &alive {
            let pos = net.node(id).pos;
            let covered = heads
                .iter()
                .any(|&h| net.node(h).pos.dist(pos) <= self.cfg.cluster_range);
            if !covered {
                heads.push(id);
            }
        }

        install_heads(net, round, &heads);
        heads
    }

    fn planner(&self) -> Option<&dyn RoutePlanner> {
        Some(&NearestHead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlec_net::{NetworkBuilder, SimConfig, Simulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64, n: usize) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new().uniform_cube(&mut rng, n, 200.0, 5.0)
    }

    #[test]
    fn every_node_is_covered_or_a_head() {
        let mut n = net(1, 120);
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = HeedProtocol::with_target_k(200.0, 5);
        let heads = p.on_round_start(&mut n, 0, &mut rng);
        assert!(!heads.is_empty());
        let range = p.cfg.cluster_range;
        for id in n.alive_ids() {
            let pos = n.node(id).pos;
            let covered =
                heads.iter().any(|&h| n.node(h).pos.dist(pos) <= range) || heads.contains(&id);
            assert!(covered, "{id} uncovered");
        }
    }

    #[test]
    fn head_count_is_reasonable() {
        // With the Eq. 5 range for k = 5, HEED should produce a head
        // count in the same ballpark (coverage forces at least ~k).
        let mut n = net(3, 150);
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = HeedProtocol::with_target_k(200.0, 5);
        let mut total = 0;
        let rounds = 10;
        for r in 0..rounds {
            n.reset_roles();
            total += p.on_round_start(&mut n, r, &mut rng).len();
        }
        let mean = total as f64 / rounds as f64;
        assert!(
            (3.0..=20.0).contains(&mean),
            "mean HEED head count {mean} out of ballpark"
        );
    }

    #[test]
    fn high_energy_nodes_head_more_often() {
        let mut n = net(5, 80);
        for i in 0..40u32 {
            n.node_mut(NodeId(i)).battery.consume(4.0);
        }
        let mut rng = StdRng::seed_from_u64(6);
        let mut p = HeedProtocol::with_target_k(200.0, 6);
        let (mut low, mut high) = (0usize, 0usize);
        for r in 0..25 {
            n.reset_roles();
            for h in p.on_round_start(&mut n, r, &mut rng) {
                if h.0 < 40 {
                    low += 1;
                } else {
                    high += 1;
                }
            }
        }
        assert!(
            high > low,
            "high-energy nodes should head more often: high {high} vs low {low}"
        );
    }

    #[test]
    fn full_simulation_run_is_conserved() {
        let n = net(7, 80);
        let mut rng = StdRng::seed_from_u64(8);
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = 5;
        let mut p = HeedProtocol::with_target_k(200.0, 5);
        let report = Simulator::builder(n)
            .config(cfg)
            .build()
            .run(&mut p, &mut rng);
        assert!(report.totals.is_conserved());
        assert!(report.pdr() > 0.8, "HEED PDR {}", report.pdr());
        assert_eq!(report.protocol, "heed");
    }

    #[test]
    fn dead_nodes_never_head() {
        let mut n = net(9, 40);
        n.node_mut(NodeId(0)).battery.consume(10.0);
        let mut rng = StdRng::seed_from_u64(10);
        let mut p = HeedProtocol::with_target_k(200.0, 4);
        for r in 0..10 {
            n.reset_roles();
            let heads = p.on_round_start(&mut n, r, &mut rng);
            assert!(!heads.contains(&NodeId(0)));
        }
    }

    #[test]
    #[should_panic]
    fn invalid_config_rejected() {
        HeedProtocol::new(HeedConfig {
            c_prob: 0.0,
            ..Default::default()
        });
    }
}
