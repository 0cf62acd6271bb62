//! Packet conservation under randomized traffic/drop mixes, observed two
//! ways at once: the simulator's own `PacketCounters` and a test-local
//! fold of the event stream ([`FateLedger`]) must both account for every
//! generated packet, and must agree with each other.

use proptest::prelude::*;
use qlec::core::QlecProtocol;
use qlec::net::metrics::PacketCounters;
use qlec::net::{NetworkBuilder, SimConfig, Simulator};
use qlec::obs::{Event, ObserverSet, PacketFate, SimObserver};
use qlec::radio::link::{AnyLink, DistanceLossLink, IdealLink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

/// The stream's ledger: one count per `PacketOutcome` fate and one per
/// `PacketRetried`, folded independently of the simulator's counters.
#[derive(Default)]
struct FateLedger(PacketCounters);

impl SimObserver for FateLedger {
    fn on_event(&mut self, event: &Event) {
        let c = &mut self.0;
        match event {
            Event::PacketOutcome { fate, .. } => {
                c.generated += 1;
                *match fate {
                    PacketFate::Delivered { .. } => &mut c.delivered,
                    PacketFate::DroppedLink => &mut c.dropped_link,
                    PacketFate::DroppedQueueFull => &mut c.dropped_queue_full,
                    PacketFate::DroppedDeadline => &mut c.dropped_deadline,
                    PacketFate::DroppedAggregate => &mut c.dropped_aggregate,
                    PacketFate::DroppedDead => &mut c.dropped_dead,
                } += 1;
            }
            Event::PacketRetried { .. } => c.retried += 1,
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// QLEC (the full protocol: election, Q-routing, fusion, aggregates)
    /// conserves packets for arbitrary traffic intensities, queue sizes,
    /// retry budgets, and link reliabilities — and the observed event
    /// stream reproduces the same ledger.
    #[test]
    fn qlec_conserves_packets_under_random_traffic(
        seed in 0u64..200,
        n in 10usize..40,
        lambda in 0.5f64..15.0,
        k in 1usize..5,
        rounds in 1u32..5,
        queue_capacity in 1usize..40,
        member_retries in 0u32..3,
        lossy in any::<bool>(),
    ) {
        let link = if lossy {
            // Short reference distance + loss floor: plenty of link drops.
            AnyLink::DistanceLoss(DistanceLossLink::new(120.0, 3.0, 0.05))
        } else {
            AnyLink::Ideal(IdealLink)
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let net = NetworkBuilder::new().link(link).uniform_cube(&mut rng, n, 200.0, 1.0);

        let mut cfg = SimConfig::paper(lambda);
        cfg.rounds = rounds;
        cfg.queue_capacity = queue_capacity;
        cfg.member_retries = member_retries;

        let sink = Arc::new(Mutex::new(FateLedger::default()));
        let mut obs = ObserverSet::new();
        obs.attach(sink.clone());
        let mut protocol = QlecProtocol::builder()
            .k(k)
            .total_rounds(rounds)
            .observer(obs.clone())
            .build();
        let report = Simulator::builder(net).config(cfg).observers(obs).build().run(&mut protocol, &mut rng);

        // Ledger 1: the simulator's counters, per round and in total.
        prop_assert!(report.totals.is_conserved(), "{:?}", report.totals);
        for r in &report.rounds {
            prop_assert!(r.packets.is_conserved(), "round {}: {:?}", r.round, r.packets);
        }

        // Ledger 2: the event stream. Every generated packet got exactly
        // one fate event, so the sink's ledger closes too …
        let stream = sink.lock().unwrap().0;
        prop_assert!(stream.is_conserved(), "{:?}", stream);

        // … and the two ledgers agree entry by entry, retries included
        // (diagnostic, never part of the conservation identity).
        prop_assert_eq!(format!("{stream:?}"), format!("{:?}", report.totals));
    }
}

/// One deterministic run at the only tier-1 scale where the Theorem-1
/// candidate budget binds: N = 10 000 with k = 50 heads, so every
/// `Send-Data` scan is pruned to the nearest alive candidates. Pruning
/// must never bleed into the ledger — the simulator's packet accounting
/// still closes exactly, per round and in total.
#[test]
fn qlec_conserves_packets_at_n10k_with_candidate_budget() {
    let mut rng = StdRng::seed_from_u64(0x10_000);
    let net = NetworkBuilder::new()
        .link(AnyLink::DistanceLoss(DistanceLossLink::for_cube(200.0)))
        .uniform_cube(&mut rng, 10_000, 200.0, 5.0);

    let mut cfg = SimConfig::paper(8.0);
    cfg.rounds = 2;

    let mut protocol = QlecProtocol::builder()
        .k(50)
        .total_rounds(cfg.rounds)
        .build();
    let report = Simulator::builder(net)
        .config(cfg)
        .build()
        .run(&mut protocol, &mut rng);

    assert!(report.totals.is_conserved(), "{:?}", report.totals);
    for r in &report.rounds {
        assert!(
            r.packets.is_conserved(),
            "round {}: {:?}",
            r.round,
            r.packets
        );
    }
    assert!(
        report.totals.generated > 1_000,
        "run must carry real traffic"
    );
}
