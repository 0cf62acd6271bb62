//! Implementing your own protocol against the simulator's `Protocol`
//! trait — the extension point everything in this repository runs
//! through.
//!
//! The example protocol is deliberately simple: *octant clustering*. The
//! cube is split into its eight octants; each round, the highest-energy
//! alive node of each octant serves as that octant's head and members
//! send to their octant's head. It is a reasonable hand-rolled baseline —
//! spatially balanced like k-means, energy-rotating like DEEC — and ~50
//! lines of code.
//!
//! A protocol makes two kinds of decision. `on_round_start` elects the
//! heads, with `&mut` access to its own state and the network. Each
//! member's per-packet target comes from the protocol's `RoutePlanner`,
//! which reads shared state only, so the engine can plan members in
//! parallel. This one is stateless: it writes only `plan_target`, a
//! lookup in the routing table the election built, and the trait's
//! defaults supply the rest (including the merge's live retarget,
//! `choose_target`).
//!
//! Run with: `cargo run --release --example custom_protocol`

use qlec::core::QlecProtocol;
use qlec::geom::Vec3;
use qlec::net::protocol::{install_heads, PlanScratch, RoutePlanner};
use qlec::net::{Network, NetworkBuilder, NodeId, Protocol, SimConfig, Simulator, Target};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Octant clustering: one head per cube octant, rotated by energy.
struct OctantProtocol {
    /// Member → head routing table for the current round.
    member_head: std::collections::HashMap<NodeId, NodeId>,
}

impl OctantProtocol {
    fn new() -> Self {
        OctantProtocol {
            member_head: std::collections::HashMap::new(),
        }
    }

    fn octant_of(pos: Vec3, center: Vec3) -> usize {
        ((pos.x > center.x) as usize)
            | (((pos.y > center.y) as usize) << 1)
            | (((pos.z > center.z) as usize) << 2)
    }
}

impl Protocol for OctantProtocol {
    fn name(&self) -> &str {
        "octant"
    }

    fn on_round_start(
        &mut self,
        net: &mut Network,
        round: u32,
        _rng: &mut dyn RngCore,
    ) -> Vec<NodeId> {
        self.member_head.clear();
        let center = net.bounds().center();
        // Highest-residual alive node per octant becomes its head.
        let mut best: [Option<NodeId>; 8] = [None; 8];
        for id in net.alive_ids().collect::<Vec<_>>() {
            let o = Self::octant_of(net.node(id).pos, center);
            match best[o] {
                Some(b) if net.node(b).residual() >= net.node(id).residual() => {}
                _ => best[o] = Some(id),
            }
        }
        // Members route to their octant's head.
        for id in net.alive_ids().collect::<Vec<_>>() {
            let o = Self::octant_of(net.node(id).pos, center);
            if let Some(h) = best[o] {
                if h != id {
                    self.member_head.insert(id, h);
                }
            }
        }
        let heads: Vec<NodeId> = best.into_iter().flatten().collect();
        install_heads(net, round, &heads);
        heads
    }

    fn planner(&self) -> Option<&dyn RoutePlanner> {
        Some(self)
    }
}

impl RoutePlanner for OctantProtocol {
    fn plan_target(
        &self,
        _net: &Network,
        src: NodeId,
        _heads: &[NodeId],
        _rng: &mut dyn RngCore,
        _scratch: &mut PlanScratch,
    ) -> Target {
        self.member_head
            .get(&src)
            .copied()
            .map_or(Target::Bs, Target::Head)
    }
}

fn main() {
    println!("custom 'octant' protocol vs QLEC, same deployment and traffic:\n");
    println!(
        "{:<8}  {:>8}  {:>11}  {:>18}",
        "protocol", "PDR", "energy (J)", "min residual (J)"
    );
    for seed in [1u64] {
        for use_qlec in [false, true] {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = NetworkBuilder::new().uniform_cube(&mut rng, 100, 200.0, 5.0);
            let mut octant;
            let mut qlec;
            let p: &mut dyn Protocol = if use_qlec {
                qlec = QlecProtocol::builder().k(8).build(); // match the octant head count
                &mut qlec
            } else {
                octant = OctantProtocol::new();
                &mut octant
            };
            let report = Simulator::builder(net)
                .config(SimConfig::paper(5.0))
                .build()
                .run(p, &mut rng);
            assert!(report.totals.is_conserved());
            println!(
                "{:<8}  {:>8.4}  {:>11.2}  {:>18.3}",
                report.protocol,
                report.pdr(),
                report.total_energy(),
                report.rounds.last().map(|r| r.min_residual).unwrap_or(0.0),
            );
        }
    }
    println!(
        "\nAnything implementing `qlec::net::Protocol` gets the full metric suite\n\
         (PDR, energy breakdown, latency, lifespan) against identical physics."
    );
}
