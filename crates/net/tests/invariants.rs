//! Property-based invariants of the round engine: for randomized
//! configurations, deployments, and protocols, the simulator must
//! conserve packets, keep PDR in range, and never create energy.

use proptest::prelude::*;
use qlec_net::protocol::{DirectToBsProtocol, GreedyEnergyProtocol};
use qlec_net::queue::{ChQueue, Offer};
use qlec_net::{NetworkBuilder, NodeId, Packet, Protocol, SimConfig, Simulator};
use qlec_radio::link::{AnyLink, DistanceLossLink, IdealLink};
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation, metric ranges, and energy bounds hold for arbitrary
    /// small configurations of either reference protocol.
    #[test]
    fn simulation_invariants(
        seed in 0u64..500,
        n in 5usize..40,
        lambda in 0.5f64..20.0,
        k in 1usize..6,
        rounds in 1u32..6,
        queue_capacity in 1usize..80,
        ideal in any::<bool>(),
        greedy in any::<bool>(),
        member_retries in 0u32..4,
        compression in 0.0f64..1.0,
    ) {
        let link = if ideal {
            AnyLink::Ideal(IdealLink)
        } else {
            AnyLink::DistanceLoss(DistanceLossLink::new(150.0, 3.0, 0.02))
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let net = NetworkBuilder::new().link(link).uniform_cube(&mut rng, n, 200.0, 2.0);
        let initial = net.total_initial();

        let mut cfg = SimConfig::paper(lambda);
        cfg.rounds = rounds;
        cfg.queue_capacity = queue_capacity;
        cfg.member_retries = member_retries;
        cfg.compression = compression;

        let mut greedy_p;
        let mut direct_p;
        let protocol: &mut dyn Protocol = if greedy {
            greedy_p = GreedyEnergyProtocol::new(k);
            &mut greedy_p
        } else {
            direct_p = DirectToBsProtocol;
            &mut direct_p
        };

        let report = Simulator::builder(net).config(cfg).build().run(protocol, &mut rng);

        prop_assert!(report.totals.is_conserved(), "{:?}", report.totals);
        prop_assert!((0.0..=1.0).contains(&report.pdr()));
        prop_assert!(report.total_energy() >= 0.0);
        prop_assert!(report.total_energy() <= initial + 1e-9);
        let b = report.energy_breakdown();
        prop_assert!((b.total() - report.total_energy()).abs() < 1e-6);
        for r in &report.rounds {
            prop_assert!(r.packets.is_conserved());
            prop_assert!(r.min_residual >= 0.0);
            prop_assert!(r.alive_end <= n);
        }
        for &rate in &report.consumption_rates {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&rate));
        }
        if let Some(l) = report.mean_latency() {
            prop_assert!(l >= 0.0 && l.is_finite());
        }
    }

    /// The head queue never exceeds its capacity, never accepts past the
    /// deadline, and accounts every offer exactly once.
    #[test]
    fn queue_invariants(
        capacity in 1usize..30,
        service_time in 0.05f64..5.0,
        deadline in 1.0f64..100.0,
        gaps in prop::collection::vec(0.0f64..3.0, 1..200),
    ) {
        let mut q = ChQueue::new(capacity, service_time, deadline);
        let mut t = 0.0;
        let mut offered = 0u64;
        let mut accepted = 0u64;
        for (i, gap) in gaps.iter().enumerate() {
            t += gap;
            let pkt = Packet { id: i as u64, src: NodeId(0), created_at: t, bits: 100 };
            offered += 1;
            match q.offer(pkt, t) {
                Offer::Accepted { completes_at } => {
                    accepted += 1;
                    prop_assert!(completes_at >= t + service_time - 1e-12);
                    prop_assert!(completes_at <= deadline + 1e-12);
                }
                Offer::Dropped(_) => {}
            }
            prop_assert!(q.occupancy() <= capacity);
        }
        prop_assert_eq!(accepted, q.processed().len() as u64);
        prop_assert_eq!(offered, accepted + q.drops_full() + q.drops_deadline());
        // FIFO completions are strictly increasing.
        for w in q.processed().windows(2) {
            prop_assert!(w[0].1 < w[1].1 + 1e-12);
        }
    }

    /// Service capacity bound: a queue cannot process more packets than
    /// `deadline / service_time` regardless of the arrival pattern.
    #[test]
    fn queue_respects_service_capacity(
        capacity in 1usize..50,
        arrivals in prop::collection::vec(0.0f64..50.0, 1..300),
    ) {
        let service_time = 0.5;
        let deadline = 50.0;
        let mut q = ChQueue::new(capacity, service_time, deadline);
        let mut sorted = arrivals.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        for (i, &t) in sorted.iter().enumerate() {
            let pkt = Packet { id: i as u64, src: NodeId(0), created_at: t, bits: 1 };
            let _ = q.offer(pkt, t);
        }
        let max_served = (deadline / service_time) as usize;
        prop_assert!(q.processed().len() <= max_served);
    }

    /// `SimConfig::threads` is a pure throughput knob: for arbitrary
    /// configurations and either reference protocol (multi-threaded runs
    /// fan their `RoutePlanner` out over the rayon pool), the report
    /// serializes to exactly the single-threaded bytes.
    #[test]
    fn thread_count_never_changes_the_report(
        seed in 0u64..500,
        n in 5usize..40,
        lambda in 0.5f64..20.0,
        k in 1usize..6,
        rounds in 1u32..5,
        queue_capacity in 1usize..80,
        member_retries in 0u32..4,
        greedy in any::<bool>(),
        threads in 2usize..9,
    ) {
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = NetworkBuilder::new()
                .link(AnyLink::DistanceLoss(DistanceLossLink::new(150.0, 3.0, 0.02)))
                .uniform_cube(&mut rng, n, 200.0, 2.0);
            let mut cfg = SimConfig::paper(lambda);
            cfg.rounds = rounds;
            cfg.queue_capacity = queue_capacity;
            cfg.member_retries = member_retries;
            cfg.threads = threads;
            let mut greedy_p;
            let mut direct_p;
            let protocol: &mut dyn Protocol = if greedy {
                greedy_p = GreedyEnergyProtocol::new(k);
                &mut greedy_p
            } else {
                direct_p = DirectToBsProtocol;
                &mut direct_p
            };
            let report = Simulator::builder(net).config(cfg).build().run(protocol, &mut rng);
            // `report.threads` records the resolved worker count — the
            // one field that tracks the knob under test — so compare the
            // report without it.
            let mut value = serde_json::to_value(&report).expect("report serializes");
            if let serde::Value::Object(fields) = &mut value {
                fields.retain(|(key, _)| key != "threads");
            }
            serde_json::to_string(&value).expect("report serializes")
        };
        prop_assert_eq!(run(1), run(threads));
    }
}
