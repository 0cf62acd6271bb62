//! Classic LEACH randomized head rotation \[5\], plus the shared
//! rotating-threshold election primitive that DEEC and QLEC's improved
//! DEEC both build on.
//!
//! LEACH elects heads with the threshold of the paper's Eq. 3 with a
//! *uniform* probability `p_opt = k/N` — "LEACH does not take residual
//! energy of sensors into consideration" (§2), which is exactly the
//! weakness the energy-weighted variants fix.

use qlec_net::protocol::{install_heads, NearestHead, Protocol, RoutePlanner};
use qlec_net::{Network, NodeId};
use rand::{Rng, RngCore};

/// The rotating election threshold (the paper's Eq. 3):
///
/// ```text
/// T(b_i) = p / (1 − p·(r mod ⌈1/p⌉))   if b_i is a candidate
/// ```
///
/// `p` is the node's election probability this round and `r` the round
/// number. Within each rotating epoch of `n = ⌈1/p⌉` rounds the threshold
/// rises from `p` toward 1, guaranteeing every candidate is elected about
/// once per epoch. Out-of-range inputs are clamped: `p ≤ 0 → 0`,
/// `p ≥ 1 → 1`, and a non-positive denominator (end of epoch) → 1.
pub fn rotating_threshold(p: f64, r: u32) -> f64 {
    if p <= 0.0 {
        return 0.0;
    }
    if p >= 1.0 {
        return 1.0;
    }
    let epoch = (1.0 / p).ceil().max(1.0) as u32;
    let phase = (r % epoch) as f64;
    let denom = 1.0 - p * phase;
    if denom <= f64::EPSILON {
        1.0
    } else {
        (p / denom).min(1.0)
    }
}

/// The rotating epoch `n_i = ⌈1/p_i⌉` for an election probability.
pub fn rotating_epoch(p: f64) -> u32 {
    if p <= 0.0 {
        u32::MAX
    } else if p >= 1.0 {
        1
    } else {
        (1.0 / p).ceil() as u32
    }
}

/// Classic LEACH as a simulator protocol: uniform election probability,
/// nearest-head membership, heads direct to the BS.
#[derive(Debug, Clone)]
pub struct LeachProtocol {
    /// Desired average head count per round.
    pub k: usize,
}

impl LeachProtocol {
    /// LEACH targeting `k` heads on average.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        LeachProtocol { k }
    }
}

impl Protocol for LeachProtocol {
    fn name(&self) -> &str {
        "leach"
    }

    fn on_round_start(
        &mut self,
        net: &mut Network,
        round: u32,
        rng: &mut dyn RngCore,
    ) -> Vec<NodeId> {
        let n = net.len().max(1);
        let p_opt = (self.k as f64 / n as f64).min(1.0);
        let epoch = rotating_epoch(p_opt);
        let mut heads = Vec::new();
        for id in net.ids().collect::<Vec<_>>() {
            let node = net.node(id);
            if !node.is_alive() || node.was_head_recently(round, epoch) {
                continue;
            }
            let t = rotating_threshold(p_opt, round);
            if rng.gen::<f64>() < t {
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
    use qlec_net::NetworkBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn threshold_epoch_shape() {
        let p = 0.1;
        // Phase 0: T = p.
        assert!((rotating_threshold(p, 0) - 0.1).abs() < 1e-12);
        // Threshold rises within the epoch.
        let mut prev = 0.0;
        for r in 0..10 {
            let t = rotating_threshold(p, r);
            assert!(
                t >= prev,
                "threshold must be non-decreasing inside an epoch"
            );
            assert!((0.0..=1.0).contains(&t));
            prev = t;
        }
        // Last phase of the epoch: near-certain election.
        assert!(rotating_threshold(p, 9) > 0.9);
        // The epoch wraps: round 10 behaves like round 0.
        assert_eq!(rotating_threshold(p, 10), rotating_threshold(p, 0));
    }

    #[test]
    fn threshold_clamps_degenerate_p() {
        assert_eq!(rotating_threshold(0.0, 5), 0.0);
        assert_eq!(rotating_threshold(-0.3, 5), 0.0);
        assert_eq!(rotating_threshold(1.0, 5), 1.0);
        assert_eq!(rotating_threshold(1.7, 5), 1.0);
    }

    #[test]
    fn epoch_lengths() {
        assert_eq!(rotating_epoch(0.1), 10);
        assert_eq!(rotating_epoch(0.34), 3);
        assert_eq!(rotating_epoch(1.0), 1);
        assert_eq!(rotating_epoch(0.0), u32::MAX);
    }

    #[test]
    fn leach_elects_about_k_heads_per_round() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = NetworkBuilder::new().uniform_cube(&mut rng, 100, 200.0, 5.0);
        let mut p = LeachProtocol::new(5);
        let mut total = 0usize;
        let rounds = 40;
        for r in 0..rounds {
            net.reset_roles();
            total += p.on_round_start(&mut net, r, &mut rng).len();
        }
        let mean = total as f64 / rounds as f64;
        assert!(
            (2.0..=9.0).contains(&mean),
            "mean heads per round {mean}, want ≈ 5"
        );
    }

    #[test]
    fn leach_rotates_heads() {
        // Over a full epoch, (nearly) every alive node serves at least
        // once — the rotation guarantee.
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = NetworkBuilder::new().uniform_cube(&mut rng, 50, 200.0, 5.0);
        let mut p = LeachProtocol::new(5);
        for r in 0..10 {
            net.reset_roles();
            p.on_round_start(&mut net, r, &mut rng);
        }
        let served = net.iter().filter(|n| n.head_count > 0).count();
        assert!(served >= 45, "only {served}/50 nodes ever served as head");
    }

    #[test]
    fn leach_ignores_energy() {
        // A nearly-dead node is just as likely to be elected as a full
        // one: drain half the nodes and check they still serve.
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = NetworkBuilder::new().uniform_cube(&mut rng, 60, 200.0, 5.0);
        for i in 0..30u32 {
            let id = NodeId(i);
            net.node_mut(id).battery.consume(4.9);
        }
        let mut p = LeachProtocol::new(6);
        let mut drained_serves = 0;
        for r in 0..10 {
            net.reset_roles();
            for h in p.on_round_start(&mut net, r, &mut rng) {
                if h.0 < 30 {
                    drained_serves += 1;
                }
            }
        }
        assert!(drained_serves > 0, "LEACH must not avoid low-energy nodes");
    }
}
