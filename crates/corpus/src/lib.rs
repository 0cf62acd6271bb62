//! The differential scenario corpus: one generated runner over the
//! `SimSpec`/`FaultPlan` vocabulary instead of a pile of per-PR
//! hand-written equivalence suites.
//!
//! The corpus is a declarative **cell matrix** ([`matrix`]); every cell
//! names a spec and how to judge its run:
//!
//! - **Golden** cells (small N) byte-compare the deterministic event
//!   stream (as an FNV-1a digest) and the report against a checked-in
//!   ledger under `tests/corpus/golden/`. Regeneration is explicit
//!   (`qlec-corpus --regen`) so a behavior change has to be committed
//!   as a readable ledger diff, never absorbed silently.
//! - **Property** cells (large N) run the invariant hooks —
//!   [`SimReport::check_invariants`] (packet conservation, PDR bounds,
//!   monotone deaths, alive roster ⊆ arena, energy sanity) and
//!   [`MergeOutcome::check_invariants`] (conflict cause split) — where
//!   a golden ledger would be too big to review.
//! - **Equivalence** cells byte-diff every documented-equivalent config
//!   pair in one process: thread counts (for QLEC's stateful planner and
//!   for the LEACH and FCM baselines' stateless ones, with and without
//!   faults), the aggregate event mode across thread counts, profiler
//!   attached vs not, and the `--spec`-JSON round trip.
//!
//! Every cell runs through [`qlec_cli::commands::run_spec`] — the same
//! construction path `qlec-sim run` executes — so a diff here is a diff
//! a user could reproduce from the shell. The [`soak`] module layers a
//! time-boxed randomized sampler with shrinking on top of the same
//! checks.

pub mod soak;

use qlec_cli::commands::run_spec;
use qlec_cli::spec::SimSpec;
use qlec_geom::{Aabb, Vec3};
use qlec_net::{FaultEvent, FaultPlan, MergeOutcome, SimReport};
use qlec_obs::{read_events, Event, EventsMode, JsonLinesSink, ObserverSet, Phase, PhaseProfiler};
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Schema tag of the checked-in golden ledgers.
pub const GOLDEN_SCHEMA: &str = "qlec-corpus-golden/v2";

/// The repo's golden-ledger directory (resolved relative to this
/// crate, so tests and the `qlec-corpus` binary agree on it).
pub fn default_golden_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/golden"
    ))
}

/// A `Write` target the corpus can read back after the `ObserverSet`
/// clones holding the sink are gone.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One observed run of a spec: the deterministic event stream, the
/// report, and the whole-run merge totals.
pub struct CellRun {
    /// The JSON-lines event stream.
    pub stream: String,
    /// The run's report.
    pub report: SimReport,
    /// Whole-run stage-2 merge totals.
    pub outcome: MergeOutcome,
}

/// Run one spec with the event stream captured in memory — the
/// in-process equivalent of `qlec-sim run --events -`, optionally with
/// a [`PhaseProfiler`] attached (the `--profile` set-up).
pub fn run_cell(
    spec: &SimSpec,
    events_mode: EventsMode,
    profiler: Option<Arc<PhaseProfiler>>,
) -> Result<CellRun, String> {
    let buf = SharedBuf::default();
    let sink = JsonLinesSink::new(buf.clone())
        .map_err(|e| format!("in-memory sink: {e}"))?
        .with_mode(events_mode);
    let mut obs = ObserverSet::new();
    if let Some(profiler) = profiler {
        obs = obs.with_profiler(profiler);
    }
    obs.attach(Arc::new(Mutex::new(sink)));
    let (report, outcome) = run_spec(spec, obs.clone())?;
    obs.flush().map_err(|e| format!("sink flush: {e}"))?;
    let stream = String::from_utf8(buf.0.lock().unwrap().clone())
        .map_err(|e| format!("non-UTF-8 event stream: {e}"))?;
    Ok(CellRun {
        stream,
        report,
        outcome,
    })
}

/// The report serialized without its `threads` field — the one field
/// whose value legitimately tracks the knob the equivalence cells vary.
pub fn report_fingerprint(report: &SimReport) -> String {
    let mut value = report.to_value();
    if let Value::Object(fields) = &mut value {
        fields.retain(|(k, _)| k != "threads");
    }
    serde_json::to_string_pretty(&value).expect("report serializes")
}

/// FNV-1a (64-bit) digest — the stream fingerprint stored in golden
/// ledgers (small, diffable, dependency-free).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Run every invariant hook against one cell run. Revival is allowed
/// exactly when the spec carries a fault plan: windowed outages return
/// their nodes when the window closes.
pub fn check_run(spec: &SimSpec, run: &CellRun) -> Vec<String> {
    let mut v = run.report.check_invariants(spec.faults.is_some());
    v.extend(run.outcome.check_invariants());
    if run.report.consumption_rates.len() != spec.n {
        v.push(format!(
            "arena holds {} consumption rates for an n = {} spec",
            run.report.consumption_rates.len(),
            spec.n
        ));
    }
    v
}

/// How a cell's run is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// Byte-compare against the checked-in golden ledger.
    Golden,
    /// Invariant property checks only (large-N cells).
    Property,
    /// Byte-diff a documented-equivalent config axis.
    Equivalence(Axis),
}

/// The documented-equivalent axes the corpus diffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `--threads 1` vs 2 vs 4.
    Threads,
    /// The event sink's out-of-band neighbours: `--profile` on vs off
    /// in full event mode, and `--events-mode aggregate` at threads 1
    /// vs 2.
    Sink,
    /// Spec → JSON → spec round trip reproduces the run.
    SpecJson,
}

/// One corpus cell.
pub struct Cell {
    /// Stable name, also the golden-ledger file stem (`/` → directory).
    pub name: &'static str,
    /// The experiment.
    pub spec: SimSpec,
    /// How the run is judged.
    pub kind: CellKind,
}

/// The fault plan shared by the faulted small-N golden cell: one event
/// of every windowed flavor so ledger diffs cover the full directive
/// surface (crash, drain, blackout + recovery, BS outage).
fn golden_fault_plan(m: f64) -> FaultPlan {
    FaultPlan::named(
        "corpus-golden",
        vec![
            FaultEvent::NodeCrash { round: 1, node: 3 },
            FaultEvent::BatteryDrain {
                round: 1,
                node: 5,
                joules: 2.0,
            },
            FaultEvent::RegionBlackout {
                from_round: 1,
                to_round: 1,
                region: Aabb::from_corners(Vec3::ZERO, Vec3::new(m, m / 2.0, m)),
            },
            FaultEvent::BsOutage {
                from_round: 2,
                to_round: 2,
            },
        ],
    )
}

/// A fault plan with overlapping crash + blackout + BS-outage windows —
/// the composition today's single-fault suites never exercise together.
pub fn composed_fault_plan(n: u32, m: f64) -> FaultPlan {
    FaultPlan::named(
        "corpus-composed",
        vec![
            FaultEvent::NodeCrash { round: 1, node: 3 },
            FaultEvent::NodeCrash {
                round: 1,
                node: n / 2,
            },
            FaultEvent::RegionBlackout {
                from_round: 1,
                to_round: 2,
                region: Aabb::from_corners(Vec3::ZERO, Vec3::splat(m / 2.0)),
            },
            FaultEvent::BsOutage {
                from_round: 2,
                to_round: 3,
            },
            FaultEvent::BatteryDrain {
                round: 2,
                node: 7,
                joules: 4.0,
            },
        ],
    )
}

/// Two node crashes in round 1 and a BS outage in round 2.
fn crash_and_outage_plan(n: u32) -> FaultPlan {
    FaultPlan::named(
        "corpus-crash-and-outage",
        vec![
            FaultEvent::NodeCrash { round: 1, node: 3 },
            FaultEvent::NodeCrash {
                round: 1,
                node: n / 2,
            },
            FaultEvent::BsOutage {
                from_round: 2,
                to_round: 2,
            },
        ],
    )
}

/// The declarative cell matrix. Golden cells stay small enough that a
/// regenerated ledger is a reviewable diff; property cells push N up to
/// where the hand-written suites stop; equivalence cells pin every
/// byte-identity claim the CLI documents.
pub fn matrix() -> Vec<Cell> {
    let small = |protocol: &str| SimSpec {
        protocol: protocol.to_string(),
        n: 24,
        k: 4,
        lambda: 8.0,
        rounds: 3,
        seed: 11,
        ..SimSpec::default()
    };
    let medium = SimSpec {
        n: 400,
        k: 20,
        lambda: 5.0,
        rounds: 3,
        seed: 17,
        ..SimSpec::default()
    };
    vec![
        Cell {
            name: "golden/qlec-24",
            spec: small("qlec"),
            kind: CellKind::Golden,
        },
        Cell {
            name: "golden/qlec-24-faulted",
            spec: SimSpec {
                faults: Some(golden_fault_plan(200.0)),
                rounds: 4,
                ..small("qlec")
            },
            kind: CellKind::Golden,
        },
        Cell {
            name: "golden/leach-24",
            spec: small("leach"),
            kind: CellKind::Golden,
        },
        Cell {
            name: "golden/kmeans-24",
            spec: small("kmeans"),
            kind: CellKind::Golden,
        },
        Cell {
            name: "property/qlec-1k-t2",
            spec: SimSpec {
                n: 1000,
                k: 50,
                threads: 2,
                ..medium.clone()
            },
            kind: CellKind::Property,
        },
        Cell {
            name: "property/qlec-1k-t2-composed-faults",
            spec: SimSpec {
                n: 1000,
                k: 50,
                rounds: 4,
                threads: 2,
                faults: Some(composed_fault_plan(1000, 200.0)),
                ..medium.clone()
            },
            kind: CellKind::Property,
        },
        Cell {
            name: "property/qlec-400-death-line",
            spec: SimSpec {
                rounds: 12,
                death_line: 4.9,
                threads: 2,
                ..medium.clone()
            },
            kind: CellKind::Property,
        },
        // Full-cube blackout from round 0: nothing is ever generated,
        // so PDR = 1 by convention and the merge commits nothing.
        Cell {
            name: "property/qlec-blackout-everything",
            spec: SimSpec {
                n: 100,
                k: 5,
                rounds: 3,
                threads: 2,
                faults: Some(FaultPlan::named(
                    "total-blackout",
                    vec![FaultEvent::RegionBlackout {
                        from_round: 0,
                        to_round: 2,
                        region: Aabb::from_corners(Vec3::ZERO, Vec3::splat(200.0)),
                    }],
                )),
                ..SimSpec::default()
            },
            kind: CellKind::Property,
        },
        Cell {
            name: "equivalence/threads",
            spec: medium.clone(),
            kind: CellKind::Equivalence(Axis::Threads),
        },
        Cell {
            name: "equivalence/threads-composed-faults",
            spec: SimSpec {
                n: 100,
                k: 5,
                lambda: 1.0,
                rounds: 4,
                seed: 17,
                faults: Some(composed_fault_plan(100, 200.0)),
                ..SimSpec::default()
            },
            kind: CellKind::Equivalence(Axis::Threads),
        },
        // k = 50 puts the Theorem-1 candidate budget in play, and the
        // crashes and BS outage force dead-head and refused-queue
        // retargets through the merge walk.
        Cell {
            name: "equivalence/threads-1k-faults",
            spec: SimSpec {
                n: 1000,
                k: 50,
                rounds: 3,
                faults: Some(crash_and_outage_plan(1000)),
                ..medium.clone()
            },
            kind: CellKind::Equivalence(Axis::Threads),
        },
        // LEACH plans through the shared stateless `NearestHead`
        // planner, fanned out like every protocol, and the merge's
        // retargets at saturated λ = 1 go through its default
        // `choose_target`.
        Cell {
            name: "equivalence/threads-leach",
            spec: SimSpec {
                protocol: "leach".to_string(),
                n: 100,
                k: 5,
                lambda: 1.0,
                rounds: 5,
                seed: 17,
                ..SimSpec::default()
            },
            kind: CellKind::Equivalence(Axis::Threads),
        },
        // FCM plans by lookup in the member map its election builds, and
        // forwards aggregates over its multi-hop hierarchy.
        Cell {
            name: "equivalence/threads-fcm",
            spec: SimSpec {
                protocol: "fcm".to_string(),
                n: 100,
                k: 5,
                lambda: 1.0,
                rounds: 5,
                seed: 17,
                ..SimSpec::default()
            },
            kind: CellKind::Equivalence(Axis::Threads),
        },
        Cell {
            name: "equivalence/sink",
            spec: SimSpec {
                n: 100,
                k: 5,
                lambda: 1.0,
                rounds: 4,
                seed: 17,
                threads: 2,
                faults: Some(crash_and_outage_plan(100)),
                ..SimSpec::default()
            },
            kind: CellKind::Equivalence(Axis::Sink),
        },
        Cell {
            name: "equivalence/spec-json",
            spec: SimSpec {
                n: 100,
                k: 5,
                rounds: 3,
                seed: 17,
                faults: Some(golden_fault_plan(200.0)),
                ..SimSpec::default()
            },
            kind: CellKind::Equivalence(Axis::SpecJson),
        },
    ]
}

/// Whether golden cells verify against or rewrite their ledgers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenMode {
    /// Compare against the checked-in ledger; missing or differing
    /// ledgers fail the cell.
    Check,
    /// Rewrite the ledger from the current run (the explicit
    /// `--regen` flag).
    Regen,
}

fn ledger_value(cell: &Cell, run: &CellRun) -> Value {
    Value::Object(vec![
        ("schema".to_string(), Value::Str(GOLDEN_SCHEMA.to_string())),
        ("cell".to_string(), Value::Str(cell.name.to_string())),
        ("spec".to_string(), cell.spec.to_value()),
        (
            "stream_fnv1a64".to_string(),
            Value::Str(format!("{:016x}", fnv1a64(run.stream.as_bytes()))),
        ),
        (
            "stream_lines".to_string(),
            Value::UInt(run.stream.lines().count() as u64),
        ),
        (
            "report".to_string(),
            serde_json::from_str(&report_fingerprint(&run.report)).expect("fingerprint parses"),
        ),
        ("merge".to_string(), outcome_value(&run.outcome)),
    ])
}

/// The whole-run merge totals as a ledger object, so a refactor that
/// moves a count between conflict causes or the live path shows as a
/// ledger diff even when every packet keeps its fate.
fn outcome_value(o: &MergeOutcome) -> Value {
    Value::Object(
        [
            ("conflicts", o.conflicts()),
            ("retargets", o.retargets()),
            ("conflict_dead_head", o.conflict_dead_head()),
            ("conflict_queue_full", o.conflict_queue_full()),
            ("conflict_deadline", o.conflict_deadline()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), Value::UInt(v)))
        .collect(),
    )
}

fn golden_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(name.strip_prefix("golden/").unwrap_or(name))
        .with_extension("json")
}

fn run_golden_cell(cell: &Cell, dir: &Path, mode: GoldenMode) -> Result<(), String> {
    let run = run_cell(&cell.spec, EventsMode::Full, None)?;
    let violations = check_run(&cell.spec, &run);
    if !violations.is_empty() {
        return Err(format!("invariants violated: {}", violations.join("; ")));
    }
    let fresh = serde_json::to_string_pretty(&ledger_value(cell, &run))
        .map_err(|e| format!("ledger serializes: {e}"))?;
    let path = golden_path(dir, cell.name);
    match mode {
        GoldenMode::Regen => {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
            }
            std::fs::write(&path, format!("{fresh}\n"))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        }
        GoldenMode::Check => {
            let stored = std::fs::read_to_string(&path).map_err(|e| {
                format!(
                    "no golden ledger at {} ({e}); run `qlec-corpus --regen` and commit the diff",
                    path.display()
                )
            })?;
            let stored_value: Value = serde_json::from_str(&stored)
                .map_err(|e| format!("{}: not a ledger: {e}", path.display()))?;
            match stored_value.get("schema") {
                Some(Value::Str(s)) if s == GOLDEN_SCHEMA => {}
                other => {
                    return Err(format!(
                        "{}: ledger schema {other:?} is not {GOLDEN_SCHEMA}",
                        path.display()
                    ))
                }
            }
            let stored_normalized = serde_json::to_string_pretty(&stored_value)
                .map_err(|e| format!("ledger serializes: {e}"))?;
            if stored_normalized != fresh {
                return Err(format!(
                    "run diverged from golden ledger {} — if the change is intended, \
                     `qlec-corpus --regen` and commit the ledger diff",
                    path.display()
                ));
            }
            Ok(())
        }
    }
}

fn diff_location(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("first diff at line {}: {la:?} vs {lb:?}", i + 1);
        }
    }
    format!(
        "one stream is a prefix of the other ({} vs {} lines)",
        a.lines().count(),
        b.lines().count()
    )
}

fn expect_identical(label: &str, base: &CellRun, variant: &CellRun) -> Result<(), String> {
    if base.stream != variant.stream {
        return Err(format!(
            "event stream diverged ({label}): {}",
            diff_location(&base.stream, &variant.stream)
        ));
    }
    if report_fingerprint(&base.report) != report_fingerprint(&variant.report) {
        return Err(format!("report diverged ({label})"));
    }
    if base.outcome != variant.outcome {
        return Err(format!(
            "merge outcome diverged ({label}): {:?} vs {:?}",
            base.outcome, variant.outcome
        ));
    }
    Ok(())
}

fn run_equivalence_cell(cell: &Cell) -> Result<(), String> {
    let base = run_cell(&cell.spec, EventsMode::Full, None)?;
    let violations = check_run(&cell.spec, &base);
    if !violations.is_empty() {
        return Err(format!("invariants violated: {}", violations.join("; ")));
    }
    // An empty stream would make every diff below vacuous.
    if base.stream.lines().count() < cell.spec.rounds as usize {
        return Err("baseline stream carries no events".to_string());
    }
    match cell.kind {
        CellKind::Equivalence(Axis::Threads) => {
            for threads in [2, 4] {
                let spec = SimSpec {
                    threads,
                    ..cell.spec.clone()
                };
                let run = run_cell(&spec, EventsMode::Full, None)?;
                expect_identical(&format!("threads 1 vs {threads}"), &base, &run)?;
                let v = check_run(&spec, &run);
                if !v.is_empty() {
                    return Err(format!(
                        "invariants violated at threads {threads}: {}",
                        v.join("; ")
                    ));
                }
            }
            Ok(())
        }
        CellKind::Equivalence(Axis::Sink) => {
            // Profiling is out-of-band: attaching a profiler may not
            // change a byte. It must also have timed something, or the
            // comparison proves nothing.
            let profiler = Arc::new(PhaseProfiler::new());
            let run = run_cell(&cell.spec, EventsMode::Full, Some(profiler.clone()))?;
            expect_identical("profiler attached vs not", &base, &run)?;
            if profiler.report().wall_ns(Phase::Election) == 0 {
                return Err("the profiled pass recorded no election wall".to_string());
            }
            // Aggregate mode: the events-mode filter may not depend on
            // the thread count either.
            let aggregate = |threads: usize| {
                let spec = SimSpec {
                    threads,
                    ..cell.spec.clone()
                };
                run_cell(&spec, EventsMode::Aggregate, None)
            };
            let agg = aggregate(1)?;
            check_aggregate_stream(&agg.stream)?;
            expect_identical("aggregate mode, threads 1 vs 2", &agg, &aggregate(2)?)
        }
        CellKind::Equivalence(Axis::SpecJson) => {
            let back = SimSpec::from_json(&cell.spec.to_json())
                .map_err(|e| format!("spec JSON round trip failed: {e}"))?;
            if back != cell.spec {
                return Err("spec JSON round trip changed the spec".to_string());
            }
            let run = run_cell(&back, EventsMode::Full, None)?;
            expect_identical("spec vs spec-JSON round trip", &base, &run)?;
            Ok(())
        }
        CellKind::Golden | CellKind::Property => unreachable!("not an equivalence cell"),
    }
}

/// An aggregate-mode stream digests every round, carries the fault
/// plan's events, and no per-packet events — otherwise the aggregate
/// diffs would compare nothing.
fn check_aggregate_stream(stream: &str) -> Result<(), String> {
    let events = read_events(stream).map_err(|e| format!("aggregate stream: {e}"))?;
    let has = |f: fn(&Event) -> bool| events.iter().any(f);
    if !has(|e| matches!(e, Event::RoundSummary { .. })) {
        return Err("aggregate mode carries no RoundSummary".to_string());
    }
    if !has(|e| matches!(e, Event::FaultInjected { .. })) {
        return Err("aggregate stream carries no FaultInjected".to_string());
    }
    if has(|e| matches!(e, Event::PacketOutcome { .. })) {
        return Err("aggregate mode leaked per-packet events".to_string());
    }
    Ok(())
}

fn run_property_cell(cell: &Cell) -> Result<(), String> {
    let run = run_cell(&cell.spec, EventsMode::Full, None)?;
    let violations = check_run(&cell.spec, &run);
    if !violations.is_empty() {
        return Err(format!("invariants violated: {}", violations.join("; ")));
    }
    Ok(())
}

/// Run the matrix (optionally filtered by substring) and return one
/// result per executed cell.
pub fn run_matrix(
    filter: Option<&str>,
    golden_dir: &Path,
    mode: GoldenMode,
) -> Vec<(String, Result<(), String>)> {
    matrix()
        .iter()
        .filter(|cell| filter.is_none_or(|f| cell.name.contains(f)))
        .map(|cell| {
            let result = match cell.kind {
                CellKind::Golden => run_golden_cell(cell, golden_dir, mode),
                CellKind::Property => run_property_cell(cell),
                CellKind::Equivalence(_) => run_equivalence_cell(cell),
            };
            (cell.name.to_string(), result)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"qlec"), fnv1a64(b"qled"));
    }

    #[test]
    fn golden_cell_regen_then_check_round_trips() {
        let dir = std::env::temp_dir().join(format!("qlec-corpus-golden-{}", std::process::id()));
        let cells = matrix();
        let cell = cells
            .iter()
            .find(|c| c.name == "golden/qlec-24")
            .expect("cell exists");
        run_golden_cell(cell, &dir, GoldenMode::Regen).expect("regen writes");
        run_golden_cell(cell, &dir, GoldenMode::Check).expect("fresh ledger verifies");
        // A tampered ledger must fail the check with a regen hint.
        let path = golden_path(&dir, cell.name);
        let tampered = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"stream_lines\": ", "\"stream_lines\": 9");
        std::fs::write(&path, tampered).unwrap();
        let err = run_golden_cell(cell, &dir, GoldenMode::Check).unwrap_err();
        assert!(err.contains("--regen"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn blackout_everything_cell_really_generates_nothing() {
        let cells = matrix();
        let cell = cells
            .iter()
            .find(|c| c.name == "property/qlec-blackout-everything")
            .expect("cell exists");
        let run = run_cell(&cell.spec, EventsMode::Full, None).unwrap();
        assert_eq!(run.report.totals.generated, 0, "total blackout");
        assert_eq!(run.report.pdr(), 1.0, "idle network loses nothing");
        assert_eq!(run.outcome, MergeOutcome::default(), "nothing to merge");
        assert_eq!(check_run(&cell.spec, &run), Vec::<String>::new());
    }

    #[test]
    fn equivalence_cells_pass_at_paper_scale() {
        // The medium-N equivalence cells run in the root integration
        // test and CI; here the two small faulted cells keep the crate's
        // own suite fast while still exercising every axis arm.
        for name in [
            "equivalence/threads-composed-faults",
            "equivalence/spec-json",
        ] {
            let cells = matrix();
            let cell = cells.iter().find(|c| c.name == name).expect("cell exists");
            run_equivalence_cell(cell).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
