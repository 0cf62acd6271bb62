//! Plain DEEC \[11\] — the protocol QLEC improves.
//!
//! §3.1: "the probability `p_i` is given as `p_i = p_opt · E_i(r) / Ē(r)`"
//! (Eq. 1), with the network-average energy estimated without global
//! knowledge as `Ē(r) = (1/N)·E_initial·(1 − r/R)` (Eq. 2). Election uses
//! the rotating threshold (Eq. 3, shared with LEACH); members join the
//! *nearest* head ("nodes that are not selected as cluster heads
//! dynamically choose the nearest cluster head", §3.1); heads transmit the
//! fused data directly to the BS.
//!
//! This is the baseline *without* QLEC's three additions (energy
//! threshold Eq. 4, redundancy reduction Alg. 3, Q-routing Alg. 4) — the
//! ablation benches diff against it.

use crate::leach::{rotating_epoch, rotating_threshold};
use qlec_net::protocol::{install_heads, NearestHead, Protocol, RoutePlanner};
use qlec_net::{Network, NodeId};
use rand::{Rng, RngCore};

/// How the per-round average network energy `Ē(r)` is obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AverageEnergy {
    /// The paper's Eq. 2 estimate: `Ē(r) = (1/N)·E_initial·(1 − r/R)`,
    /// requiring only the horizon `R` — what a distributed node can
    /// compute.
    Estimate { total_rounds: u32 },
    /// The exact current average (an oracle; useful to quantify the
    /// estimate's impact).
    Exact,
}

impl AverageEnergy {
    /// Evaluate `Ē(r)` for a network at round `r`.
    pub fn evaluate(&self, net: &Network, round: u32) -> f64 {
        match *self {
            AverageEnergy::Estimate { total_rounds } => {
                let r_frac = if total_rounds == 0 {
                    1.0
                } else {
                    (round as f64 / total_rounds as f64).min(1.0)
                };
                (net.total_initial() / net.len().max(1) as f64) * (1.0 - r_frac)
            }
            AverageEnergy::Exact => net.mean_residual(),
        }
    }
}

/// The DEEC election probability `p_i` (Eq. 1), clamped into `[0, 1]`.
pub fn deec_probability(p_opt: f64, residual: f64, avg_energy: f64) -> f64 {
    if avg_energy <= f64::EPSILON {
        // The estimate has hit the end of the planned lifetime; fall back
        // to the uniform probability so election can still happen.
        return p_opt.clamp(0.0, 1.0);
    }
    (p_opt * residual / avg_energy).clamp(0.0, 1.0)
}

/// Plain DEEC as a simulator protocol.
#[derive(Debug, Clone)]
pub struct DeecProtocol {
    /// Desired average head count per round (`k_opt = N·p_opt`).
    pub k: usize,
    /// Average-energy source for Eq. 1.
    pub avg_energy: AverageEnergy,
}

impl DeecProtocol {
    /// DEEC targeting `k` heads with the paper's Eq. 2 estimate over a
    /// planned lifetime of `total_rounds`.
    pub fn new(k: usize, total_rounds: u32) -> Self {
        assert!(k > 0, "k must be positive");
        DeecProtocol {
            k,
            avg_energy: AverageEnergy::Estimate { total_rounds },
        }
    }

    /// DEEC with oracle average energy.
    pub fn with_exact_average(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        DeecProtocol {
            k,
            avg_energy: AverageEnergy::Exact,
        }
    }

    /// One election pass: returns the elected heads without installing
    /// them (shared with tests and the improved variant's diagnostics).
    pub fn elect(&self, net: &Network, round: u32, rng: &mut dyn RngCore) -> Vec<NodeId> {
        let n = net.len().max(1);
        let p_opt = (self.k as f64 / n as f64).min(1.0);
        let avg = self.avg_energy.evaluate(net, round);
        let mut heads = Vec::new();
        for id in net.ids().collect::<Vec<_>>() {
            let node = net.node(id);
            if !node.is_alive() {
                continue;
            }
            let p_i = deec_probability(p_opt, node.residual(), avg);
            if p_i <= 0.0 || node.was_head_recently(round, rotating_epoch(p_i)) {
                continue;
            }
            let t = rotating_threshold(p_i, round);
            if rng.gen::<f64>() < t {
                heads.push(id);
            }
        }
        heads
    }
}

impl Protocol for DeecProtocol {
    fn name(&self) -> &str {
        "deec"
    }

    fn on_round_start(
        &mut self,
        net: &mut Network,
        round: u32,
        rng: &mut dyn RngCore,
    ) -> Vec<NodeId> {
        let heads = self.elect(net, round, rng);
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
    use qlec_net::NetworkBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probability_scales_with_residual_energy() {
        // Eq. 1: p_i doubles when residual doubles (below the clamp).
        let p1 = deec_probability(0.05, 2.0, 4.0);
        let p2 = deec_probability(0.05, 4.0, 4.0);
        assert!((p2 - 2.0 * p1).abs() < 1e-12);
        // Average-energy node gets exactly p_opt.
        assert_eq!(deec_probability(0.05, 4.0, 4.0), 0.05);
    }

    #[test]
    fn probability_clamps() {
        assert_eq!(deec_probability(0.5, 100.0, 1.0), 1.0);
        assert_eq!(deec_probability(0.05, 0.0, 4.0), 0.0);
        // Depleted average estimate falls back to p_opt.
        assert_eq!(deec_probability(0.05, 3.0, 0.0), 0.05);
    }

    #[test]
    fn estimate_decays_linearly() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = NetworkBuilder::new().uniform_cube(&mut rng, 100, 200.0, 5.0);
        let avg = AverageEnergy::Estimate { total_rounds: 20 };
        assert!((avg.evaluate(&net, 0) - 5.0).abs() < 1e-12);
        assert!((avg.evaluate(&net, 10) - 2.5).abs() < 1e-12);
        assert!((avg.evaluate(&net, 20) - 0.0).abs() < 1e-12);
        // Beyond the horizon the estimate clamps at zero, not negative.
        assert!(avg.evaluate(&net, 40) >= 0.0);
    }

    #[test]
    fn exact_average_tracks_consumption() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = NetworkBuilder::new().uniform_cube(&mut rng, 10, 200.0, 5.0);
        net.node_mut(NodeId(0)).battery.consume(5.0);
        assert!((AverageEnergy::Exact.evaluate(&net, 3) - 4.5).abs() < 1e-12);
    }

    #[test]
    fn deec_elects_about_k_heads() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = NetworkBuilder::new().uniform_cube(&mut rng, 100, 200.0, 5.0);
        let mut p = DeecProtocol::new(5, 40);
        let mut total = 0usize;
        let rounds = 30;
        for r in 0..rounds {
            net.reset_roles();
            total += p.on_round_start(&mut net, r, &mut rng).len();
        }
        let mean = total as f64 / rounds as f64;
        assert!((2.0..=10.0).contains(&mean), "mean heads {mean}, want ≈ 5");
    }

    #[test]
    fn deec_favours_high_energy_nodes() {
        // Drain half the network heavily; high-energy nodes must serve as
        // heads far more often (the defining DEEC property LEACH lacks).
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = NetworkBuilder::new().uniform_cube(&mut rng, 60, 200.0, 5.0);
        for i in 0..30u32 {
            net.node_mut(NodeId(i)).battery.consume(4.5);
        }
        let mut p = DeecProtocol::with_exact_average(6);
        let (mut low, mut high) = (0usize, 0usize);
        for r in 0..40 {
            net.reset_roles();
            for h in p.on_round_start(&mut net, r, &mut rng) {
                if h.0 < 30 {
                    low += 1;
                } else {
                    high += 1;
                }
            }
        }
        assert!(
            high > 3 * low,
            "high-energy nodes served {high} vs drained {low}"
        );
    }

    #[test]
    fn dead_nodes_never_elected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = NetworkBuilder::new().uniform_cube(&mut rng, 20, 200.0, 5.0);
        net.node_mut(NodeId(7)).battery.consume(10.0);
        let mut p = DeecProtocol::new(5, 20);
        for r in 0..20 {
            net.reset_roles();
            let heads = p.on_round_start(&mut net, r, &mut rng);
            assert!(!heads.contains(&NodeId(7)));
        }
    }
}
