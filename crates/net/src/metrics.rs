//! Metrics collection — the quantities §5 evaluates.
//!
//! Fig. 3 plots, per traffic condition λ: (a) packet delivery rate,
//! (b) total energy consumption over the 20 simulated rounds, and
//! (c) network lifespan under the death-line rule. Fig. 4 maps per-node
//! energy-consumption *rates*. The abstract additionally claims lower
//! *transmission latency*, so per-packet latency is tracked as well.
//!
//! Every generated packet ends in exactly one outcome bucket; the
//! conservation identity `generated = delivered + Σ drops` is asserted by
//! tests and checked (debug) at the end of every round.

use qlec_geom::stats::Welford;
use qlec_obs::PacketFate;
use serde::{Deserialize, Serialize};

/// Packet outcome counters for one round (or aggregated over a run).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PacketCounters {
    /// Packets generated by alive nodes.
    pub generated: u64,
    /// Packets whose payload reached the base station.
    pub delivered: u64,
    /// Lost on the member→head or member→BS radio hop.
    pub dropped_link: u64,
    /// Refused by a full cluster-head queue.
    pub dropped_queue_full: u64,
    /// Accepted but missed the round's fusion deadline.
    pub dropped_deadline: u64,
    /// Processed, but the head's aggregate failed to reach the BS.
    pub dropped_aggregate: u64,
    /// The sender's battery died mid-transmission.
    pub dropped_dead: u64,
    /// Retransmission attempts beyond each packet's first try (member and
    /// aggregate hops). Diagnostic only — retries re-send an existing
    /// packet, so this is *not* part of the conservation identity.
    pub retried: u64,
}

impl PacketCounters {
    /// Total drops across all causes.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_link
            + self.dropped_queue_full
            + self.dropped_deadline
            + self.dropped_aggregate
            + self.dropped_dead
    }

    /// Conservation check: every generated packet is delivered or dropped.
    pub fn is_conserved(&self) -> bool {
        self.generated == self.delivered + self.total_dropped()
    }

    /// Packet delivery rate ∈ [0, 1]; `1.0` when nothing was generated
    /// (an idle network loses nothing).
    pub fn pdr(&self) -> f64 {
        if self.generated == 0 {
            1.0
        } else {
            self.delivered as f64 / self.generated as f64
        }
    }

    /// Count one packet's terminal fate: `delivered`, or the matching
    /// `dropped_*` bucket.
    pub(crate) fn record(&mut self, fate: &PacketFate) {
        *match fate {
            PacketFate::Delivered { .. } => &mut self.delivered,
            PacketFate::DroppedLink => &mut self.dropped_link,
            PacketFate::DroppedQueueFull => &mut self.dropped_queue_full,
            PacketFate::DroppedDeadline => &mut self.dropped_deadline,
            PacketFate::DroppedAggregate => &mut self.dropped_aggregate,
            PacketFate::DroppedDead => &mut self.dropped_dead,
        } += 1;
    }

    /// Accumulate another counter set.
    pub fn add(&mut self, o: &PacketCounters) {
        self.generated += o.generated;
        self.delivered += o.delivered;
        self.dropped_link += o.dropped_link;
        self.dropped_queue_full += o.dropped_queue_full;
        self.dropped_deadline += o.dropped_deadline;
        self.dropped_aggregate += o.dropped_aggregate;
        self.dropped_dead += o.dropped_dead;
        self.retried += o.retried;
    }
}

/// Where the energy of a round went (J). `other` covers control traffic
/// charged by protocols during head selection (HELLO broadcasts).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Member transmissions toward heads or the BS (including retries).
    pub member_tx: f64,
    /// Packet reception at heads.
    pub head_rx: f64,
    /// Data-fusion cost at heads.
    pub aggregation: f64,
    /// Fused-aggregate transmissions (head→relay/BS, including retries)
    /// plus relay receptions.
    pub aggregate_tx: f64,
    /// Everything else (protocol control traffic).
    pub other: f64,
}

impl EnergyBreakdown {
    /// Sum of all categories.
    pub fn total(&self) -> f64 {
        self.member_tx + self.head_rx + self.aggregation + self.aggregate_tx + self.other
    }

    /// Accumulate another breakdown.
    pub fn add(&mut self, o: &EnergyBreakdown) {
        self.member_tx += o.member_tx;
        self.head_rx += o.head_rx;
        self.aggregation += o.aggregation;
        self.aggregate_tx += o.aggregate_tx;
        self.other += o.other;
    }
}

/// Per-cluster-head load figures for one round — the raw material of
/// load-balance analysis (QLEC's Q-routing vs geometric assignment).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HeadLoad {
    /// Head node id.
    pub head: u32,
    /// Packets its queue accepted (and that were fused at round end).
    pub accepted: u64,
    /// Packets refused with a full queue.
    pub drops_full: u64,
    /// Packets refused because service would miss the fusion deadline.
    pub drops_deadline: u64,
    /// Peak queue occupancy during the round.
    pub peak_occupancy: usize,
}

/// Everything measured in one round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundMetrics {
    pub round: u32,
    pub packets: PacketCounters,
    /// Energy drawn network-wide during this round (J).
    pub energy_consumed: f64,
    /// Per-category split of `energy_consumed`.
    pub energy_breakdown: EnergyBreakdown,
    /// Latency of packets delivered this round (slots).
    pub latency: Welford,
    /// Number of cluster heads that served this round.
    pub head_count: usize,
    /// Alive nodes at the end of the round.
    pub alive_end: usize,
    /// Smallest residual energy at the end of the round (J).
    pub min_residual: f64,
    /// Per-head queue load (one entry per serving head).
    pub head_loads: Vec<HeadLoad>,
}

/// Network-lifetime milestones.
///
/// §5.1: "the network dies when there exists one sensor possessing less
/// energy than a given energy death line" — that is
/// [`LifespanInfo::death_line_round`]. The conventional FND/HND/LND
/// milestones (first/half/last node with an *empty* battery) are tracked
/// too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LifespanInfo {
    /// First round (1-based count of completed rounds) at the end of which
    /// some node is below the death line; `None` if it never happened
    /// within the horizon.
    pub death_line_round: Option<u32>,
    /// First round with a fully empty battery.
    pub first_node_dead: Option<u32>,
    /// First round at which at least half the batteries are empty.
    pub half_nodes_dead: Option<u32>,
    /// First round at which every battery is empty.
    pub last_node_dead: Option<u32>,
}

impl LifespanInfo {
    /// The paper's scalar "lifespan": rounds survived before the death
    /// line was crossed; equals the horizon when it never was.
    pub fn lifespan_rounds(&self, horizon: u32) -> u32 {
        match self.death_line_round {
            Some(r) => r.saturating_sub(1),
            None => horizon,
        }
    }
}

/// Full output of a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Protocol under test.
    pub protocol: String,
    /// Per-round metrics, in order.
    pub rounds: Vec<RoundMetrics>,
    /// Run-level packet counters.
    pub totals: PacketCounters,
    /// Run-level latency accumulator.
    pub latency: Welford,
    /// Lifespan milestones.
    pub lifespan: LifespanInfo,
    /// Per-node energy-consumption rate (consumed / initial) at the end of
    /// the run — the Fig. 4 map.
    pub consumption_rates: Vec<f64>,
    /// Rounds that were configured (the horizon `R`).
    pub horizon: u32,
    /// The *resolved* worker-thread count the run used — never 0: a
    /// `SimConfig::threads` of 0 ("auto") resolves against the machine
    /// before the first round, and this records what it resolved to, so
    /// bench rows and archived reports are self-describing.
    pub threads: usize,
}

impl SimReport {
    /// Overall packet delivery rate — Fig. 3(a)'s y-axis.
    pub fn pdr(&self) -> f64 {
        self.totals.pdr()
    }

    /// Run-level energy breakdown (sums the per-round splits).
    pub fn energy_breakdown(&self) -> EnergyBreakdown {
        let mut b = EnergyBreakdown::default();
        for r in &self.rounds {
            b.add(&r.energy_breakdown);
        }
        b
    }

    /// Total energy consumed over the run (J) — Fig. 3(b)'s y-axis.
    pub fn total_energy(&self) -> f64 {
        self.rounds.iter().map(|r| r.energy_consumed).sum()
    }

    /// Mean delivered-packet latency in slots (`None` if nothing was
    /// delivered).
    pub fn mean_latency(&self) -> Option<f64> {
        self.latency.mean()
    }

    /// The paper's lifespan scalar — Fig. 3(c)'s y-axis.
    pub fn lifespan_rounds(&self) -> u32 {
        self.lifespan.lifespan_rounds(self.horizon)
    }

    /// Mean number of cluster heads per completed round.
    pub fn mean_head_count(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.head_count as f64).sum::<f64>() / self.rounds.len() as f64
    }

    /// Check every machine-verifiable report invariant and return the
    /// violations (empty = healthy). This is the hook the corpus runner
    /// and the soak harness call on every cell:
    ///
    /// - packet conservation, per round and in the totals
    ///   (`generated = delivered + Σ drops`), and totals = Σ rounds;
    /// - PDR ∈ [0, 1] per round and overall;
    /// - alive roster ⊆ arena (`alive_end`, `head_count` bounded by the
    ///   deployment size recorded in `consumption_rates`);
    /// - monotone cumulative deaths (`alive_end` non-increasing) —
    ///   unless `allow_revival` is set: windowed faults (blackouts, BS
    ///   outages) take nodes *offline* and give them back when the
    ///   window closes, so faulted runs legitimately revive;
    /// - energy sanity: non-negative finite per-round consumption that
    ///   matches its own breakdown, consumption rates ∈ [0, 1],
    ///   `min_residual` ≥ 0;
    /// - lifespan milestone ordering (first ≤ half ≤ last dead).
    pub fn check_invariants(&self, allow_revival: bool) -> Vec<String> {
        let mut v = Vec::new();
        let arena = self.consumption_rates.len();
        if !self.totals.is_conserved() {
            v.push(format!(
                "totals not conserved: generated {} != delivered {} + dropped {}",
                self.totals.generated,
                self.totals.delivered,
                self.totals.total_dropped()
            ));
        }
        let pdr = self.pdr();
        if !(0.0..=1.0).contains(&pdr) {
            v.push(format!("overall PDR {pdr} outside [0, 1]"));
        }
        let mut sum = PacketCounters::default();
        let mut prev_alive: Option<usize> = None;
        for r in &self.rounds {
            sum.add(&r.packets);
            if !r.packets.is_conserved() {
                v.push(format!("round {}: packet counters not conserved", r.round));
            }
            let rp = r.packets.pdr();
            if !(0.0..=1.0).contains(&rp) {
                v.push(format!("round {}: PDR {rp} outside [0, 1]", r.round));
            }
            if r.alive_end > arena {
                v.push(format!(
                    "round {}: alive_end {} exceeds arena size {arena}",
                    r.round, r.alive_end
                ));
            }
            if r.head_count > arena {
                v.push(format!(
                    "round {}: head_count {} exceeds arena size {arena}",
                    r.round, r.head_count
                ));
            }
            if let Some(prev) = prev_alive {
                if !allow_revival && r.alive_end > prev {
                    v.push(format!(
                        "round {}: alive_end rose {prev} -> {} without a fault window",
                        r.round, r.alive_end
                    ));
                }
            }
            prev_alive = Some(r.alive_end);
            if !r.energy_consumed.is_finite() || r.energy_consumed < 0.0 {
                v.push(format!(
                    "round {}: energy_consumed {} not a non-negative finite number",
                    r.round, r.energy_consumed
                ));
            }
            let split = r.energy_breakdown.total();
            let tol = 1e-6 * r.energy_consumed.abs().max(split.abs()).max(1.0);
            if (r.energy_consumed - split).abs() > tol {
                v.push(format!(
                    "round {}: energy_consumed {} disagrees with its breakdown total {split}",
                    r.round, r.energy_consumed
                ));
            }
            if !r.min_residual.is_finite() || r.min_residual < 0.0 {
                v.push(format!(
                    "round {}: min_residual {} not a non-negative finite number",
                    r.round, r.min_residual
                ));
            }
        }
        for (name, total, per_round) in [
            ("generated", self.totals.generated, sum.generated),
            ("delivered", self.totals.delivered, sum.delivered),
            ("dropped_link", self.totals.dropped_link, sum.dropped_link),
            (
                "dropped_queue_full",
                self.totals.dropped_queue_full,
                sum.dropped_queue_full,
            ),
            (
                "dropped_deadline",
                self.totals.dropped_deadline,
                sum.dropped_deadline,
            ),
            (
                "dropped_aggregate",
                self.totals.dropped_aggregate,
                sum.dropped_aggregate,
            ),
            ("dropped_dead", self.totals.dropped_dead, sum.dropped_dead),
            ("retried", self.totals.retried, sum.retried),
        ] {
            if total != per_round {
                v.push(format!(
                    "totals.{name} {total} != sum of per-round counters {per_round}"
                ));
            }
        }
        if let Some(mean) = self.mean_latency() {
            if !mean.is_finite() || mean < 0.0 {
                v.push(format!(
                    "mean latency {mean} not a non-negative finite number"
                ));
            }
        }
        for (i, rate) in self.consumption_rates.iter().enumerate() {
            if !rate.is_finite() || !(-1e-9..=1.0 + 1e-9).contains(rate) {
                v.push(format!("node {i}: consumption rate {rate} outside [0, 1]"));
                break; // one example is enough; a bad map repeats itself
            }
        }
        if self.rounds.len() as u32 > self.horizon {
            v.push(format!(
                "{} completed rounds exceed the {}-round horizon",
                self.rounds.len(),
                self.horizon
            ));
        }
        if self.threads == 0 {
            v.push("report records 0 resolved worker threads".to_string());
        }
        let l = &self.lifespan;
        if let (Some(first), Some(half)) = (l.first_node_dead, l.half_nodes_dead) {
            if first > half {
                v.push(format!(
                    "first_node_dead {first} after half_nodes_dead {half}"
                ));
            }
        }
        if let (Some(half), Some(last)) = (l.half_nodes_dead, l.last_node_dead) {
            if half > last {
                v.push(format!(
                    "half_nodes_dead {half} after last_node_dead {last}"
                ));
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdr_empty_network_is_one() {
        let c = PacketCounters::default();
        assert_eq!(c.pdr(), 1.0);
        assert!(c.is_conserved());
    }

    #[test]
    fn conservation_detects_leaks() {
        let mut c = PacketCounters {
            generated: 10,
            delivered: 7,
            ..Default::default()
        };
        assert!(!c.is_conserved());
        c.dropped_link = 2;
        c.dropped_queue_full = 1;
        assert!(c.is_conserved());
        assert_eq!(c.total_dropped(), 3);
        assert!((c.pdr() - 0.7).abs() < 1e-12);
    }

    /// Each fate lands in exactly one bucket — `delivered` or its own
    /// `dropped_*` — so a settled mix balances against `generated`.
    #[test]
    fn record_counts_each_fate_in_its_own_bucket() {
        let fates = [
            PacketFate::Delivered { latency_slots: 2.5 },
            PacketFate::DroppedLink,
            PacketFate::DroppedQueueFull,
            PacketFate::DroppedDeadline,
            PacketFate::DroppedAggregate,
            PacketFate::DroppedDead,
        ];
        let buckets = |c: &PacketCounters| {
            [
                c.delivered,
                c.dropped_link,
                c.dropped_queue_full,
                c.dropped_deadline,
                c.dropped_aggregate,
                c.dropped_dead,
            ]
        };
        for (i, fate) in fates.iter().enumerate() {
            let mut c = PacketCounters::default();
            c.record(fate);
            let mut want = [0; 6];
            want[i] = 1;
            assert_eq!(buckets(&c), want, "{fate:?}");
            assert_eq!((c.generated, c.retried), (0, 0), "{fate:?}");
        }
        let mut mix = PacketCounters::default();
        for fate in fates.iter().cycle().take(23) {
            mix.generated += 1;
            mix.record(fate);
        }
        assert!(mix.is_conserved(), "{mix:?}");
        assert_eq!(mix.delivered, 4);
    }

    #[test]
    fn counters_add() {
        let a = PacketCounters {
            generated: 5,
            delivered: 4,
            dropped_link: 1,
            ..Default::default()
        };
        let mut b = PacketCounters {
            generated: 3,
            delivered: 3,
            ..Default::default()
        };
        b.add(&a);
        assert_eq!(b.generated, 8);
        assert_eq!(b.delivered, 7);
        assert!(b.is_conserved());
    }

    fn healthy_report() -> SimReport {
        let round = |round: u32, alive_end: usize| RoundMetrics {
            round,
            packets: PacketCounters {
                generated: 10,
                delivered: 8,
                dropped_link: 2,
                ..Default::default()
            },
            energy_consumed: 1.5,
            energy_breakdown: EnergyBreakdown {
                member_tx: 1.0,
                head_rx: 0.5,
                ..Default::default()
            },
            latency: Welford::default(),
            head_count: 2,
            alive_end,
            min_residual: 3.0,
            head_loads: Vec::new(),
        };
        SimReport {
            protocol: "qlec".to_string(),
            rounds: vec![round(0, 10), round(1, 9)],
            totals: PacketCounters {
                generated: 20,
                delivered: 16,
                dropped_link: 4,
                ..Default::default()
            },
            latency: Welford::default(),
            lifespan: LifespanInfo::default(),
            consumption_rates: vec![0.3; 10],
            horizon: 2,
            threads: 1,
        }
    }

    #[test]
    fn invariants_pass_on_a_healthy_report() {
        assert_eq!(
            healthy_report().check_invariants(false),
            Vec::<String>::new()
        );
    }

    #[test]
    fn invariants_catch_conservation_leaks() {
        let mut report = healthy_report();
        report.totals.delivered += 1;
        let violations = report.check_invariants(false);
        assert!(
            violations.iter().any(|v| v.contains("not conserved")),
            "{violations:?}"
        );
    }

    #[test]
    fn invariants_catch_roster_and_revival_breaks() {
        let mut report = healthy_report();
        report.rounds[1].alive_end = 99; // arena holds 10
        let violations = report.check_invariants(false);
        assert!(
            violations.iter().any(|v| v.contains("arena")),
            "{violations:?}"
        );

        let mut report = healthy_report();
        report.rounds[0].alive_end = 5; // rises back to 9 in round 1
        let violations = report.check_invariants(false);
        assert!(
            violations.iter().any(|v| v.contains("alive_end rose")),
            "{violations:?}"
        );
        assert_eq!(
            report.check_invariants(true),
            Vec::<String>::new(),
            "windowed-fault runs may revive"
        );
    }

    #[test]
    fn invariants_catch_totals_vs_rounds_mismatch_and_energy_drift() {
        let mut report = healthy_report();
        report.totals.generated = 21;
        let violations = report.check_invariants(false);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("sum of per-round counters")),
            "{violations:?}"
        );

        let mut report = healthy_report();
        report.rounds[0].energy_consumed = 9.0; // breakdown still sums to 1.5
        let violations = report.check_invariants(false);
        assert!(
            violations.iter().any(|v| v.contains("breakdown")),
            "{violations:?}"
        );
    }

    #[test]
    fn lifespan_scalar() {
        let mut l = LifespanInfo::default();
        assert_eq!(l.lifespan_rounds(20), 20, "never died → horizon");
        l.death_line_round = Some(13);
        assert_eq!(l.lifespan_rounds(20), 12, "survived 12 full rounds");
        l.death_line_round = Some(1);
        assert_eq!(l.lifespan_rounds(20), 0, "died during the first round");
    }
}
