//! The three benchmark workloads.
//!
//! Each workload is a committed `--spec` file under `specs/`, so any
//! benchmark row replays with `qlec-sim run --spec`. A benchmark seed
//! picks one of [`SCENARIOS`] recorded scenarios: the spec's own `seed`
//! becomes `seed % SCENARIOS`, and a workload that carries a fault plan
//! gets the plan [`fault_plan`] generates from that spec seed. The
//! committed files hold scenario 0 exactly; `--print-spec` prints any
//! other scenario.

use qlec_cli::spec::SimSpec;
use qlec_geom::{Aabb, Vec3};
use qlec_net::{FaultEvent, FaultPlan, LinkEnd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of recorded scenarios per workload; `golden.json` holds one
/// digest for each.
pub const SCENARIOS: u64 = 16;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// N 10 000 at λ = 5: the merge is saturated with retargets.
    Saturated10k,
    /// N 100 000 at λ = 1000: per-round election and planning set-up
    /// dominate.
    Sparse100k,
    /// N 10 000 at λ = 20 under a fault plan, with the full event stream
    /// written on the engine thread.
    ObservedFaults10k,
}

impl Workload {
    /// Every workload, in the order the steady mode interleaves them.
    pub const ALL: [Workload; 3] = [
        Workload::Saturated10k,
        Workload::Sparse100k,
        Workload::ObservedFaults10k,
    ];

    /// The workload's benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Saturated10k => "saturated-10k",
            Workload::Sparse100k => "sparse-100k",
            Workload::ObservedFaults10k => "observed-faults-10k",
        }
    }

    /// Look a workload up by its benchmark name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload `{name}` (expected one of: {})",
                    names.join(", ")
                )
            })
    }

    /// The committed spec file's contents (scenario 0).
    pub fn spec_file(self) -> &'static str {
        match self {
            Workload::Saturated10k => include_str!("../specs/saturated-10k.json"),
            Workload::Sparse100k => include_str!("../specs/sparse-100k.json"),
            Workload::ObservedFaults10k => include_str!("../specs/observed-faults-10k.json"),
        }
    }

    /// Whether the run streams every event through the event sink.
    pub fn observed(self) -> bool {
        self == Workload::ObservedFaults10k
    }

    /// The concrete spec a benchmark seed selects.
    pub fn spec(self, seed: u64) -> SimSpec {
        let template = SimSpec::from_json(self.spec_file()).expect("committed spec parses");
        let n = template.n;
        self.resize(template, seed, n)
    }

    /// The same workload shrunk to `n` nodes (k = n / 20, as at full
    /// size) — a copy small enough for tests.
    pub fn scaled_spec(self, seed: u64, n: usize) -> SimSpec {
        let template = SimSpec::from_json(self.spec_file()).expect("committed spec parses");
        self.resize(template, seed, n)
    }

    fn resize(self, template: SimSpec, seed: u64, n: usize) -> SimSpec {
        let mut spec = SimSpec {
            n,
            k: (n / 20).max(1),
            seed: seed % SCENARIOS,
            ..template
        };
        if spec.faults.is_some() {
            spec.faults = Some(fault_plan(n as u32, spec.rounds, spec.m, spec.seed));
        }
        spec
    }
}

/// The observed workload's fault plan for spec seed `seed`: node
/// crashes, deep battery drains, a region blackout whose nodes revive,
/// link degradations and one BS-outage round.
pub fn fault_plan(n: u32, rounds: u32, m: f64, seed: u64) -> FaultPlan {
    assert!(rounds >= 4, "the plan needs rounds after its blackout");
    assert!(n >= 2, "link degradations need two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let last = rounds - 1;
    let mut events = Vec::new();
    for _ in 0..8 {
        events.push(FaultEvent::NodeCrash {
            round: rng.gen_range(1..=last),
            node: rng.gen_range(0..n),
        });
    }
    for _ in 0..8 {
        events.push(FaultEvent::BatteryDrain {
            round: rng.gen_range(1..=last),
            node: rng.gen_range(0..n),
            joules: rng.gen_range(3.5..5.0),
        });
    }
    // Rounds 1 and 2 dark; the region's nodes are back from round 3.
    let side = m / 4.0;
    let lo = Vec3::new(
        rng.gen_range(0.0..m - side),
        rng.gen_range(0.0..m - side),
        rng.gen_range(0.0..m - side),
    );
    events.push(FaultEvent::RegionBlackout {
        from_round: 1,
        to_round: 2,
        region: Aabb::from_corners(lo, Vec3::new(lo.x + side, lo.y + side, lo.z + side)),
    });
    for i in 0..4 {
        let a = rng.gen_range(0..n);
        let b = if i % 2 == 0 {
            LinkEnd::Bs
        } else {
            LinkEnd::Node((a + 1 + rng.gen_range(0..n - 1)) % n)
        };
        let from_round = rng.gen_range(0..last);
        events.push(FaultEvent::LinkDegrade {
            from_round,
            to_round: rng.gen_range(from_round..=last),
            a: LinkEnd::Node(a),
            b,
            loss_multiplier: rng.gen_range(2.0..8.0),
        });
    }
    events.push(FaultEvent::BsOutage {
        from_round: last - 1,
        to_round: last - 1,
    });
    FaultPlan::named(format!("bench-faults-{seed}"), events)
}
