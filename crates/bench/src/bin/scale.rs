//! Scaling benchmark: the perf-trajectory harness for large deployments.
//!
//! Runs the paper-shaped QLEC configuration at N ∈ {100, 1k, 10k} (by
//! default) with `Send-Data` candidate pruning enabled, and emits
//! `BENCH_scale.json`: per-phase wall time (the [`PhaseProfiler`]'s
//! wall at each [`Phase::path`]), per-worker busy spans, merge counters,
//! peak RSS, and packet throughput for each (size, threads) point. CI
//! smoke-runs it at N = 100 and validates the artifact against the
//! schema, and the regression gate re-runs the committed baseline's
//! N = 100 point with `--compare`; the full sweep is the cross-PR
//! performance trajectory.
//!
//! The artifact is written from typed rows ([`ScaleReport`],
//! [`ScaleRun`]) and read back through the same types: `--validate`,
//! `--append` and `--compare` all parse it with [`parse_scale_report`],
//! a typed parse plus the named [`RUN_CHECKS`].
//!
//! Usage: `cargo run --release -p qlec-bench --bin scale -- \
//!     [--sizes 100,1000,10000] [--threads 1] [--rounds 20] \
//!     [--candidates auto|full|<n>] [--lambda 5] [--seed 42] \
//!     [--out BENCH_scale.json] [--append] \
//!     [--validate] [--compare BASE.json] [--gate-thread-scaling 0.8]`
//!
//! When the sweep includes a `threads = 1` point alongside multi-thread
//! points at the same (N, candidates, rounds, λ) coordinates, the
//! artifact gains `thread_scaling` summary rows: headline pkt/s
//! speedup plus per-phase wall speedups against the single-threaded
//! baseline. `--gate-thread-scaling FLOOR` turns those rows into a CI
//! gate — every multi-thread point at N ≥ 10 000 must reach FLOOR ×
//! the threads = 1 throughput (smaller points warn instead of failing:
//! tiny rounds oversubscribe the workers, see
//! [`SCALING_GATE_MIN_N`]), and a sweep with nothing to gate is an
//! error, not a silent pass.

use qlec_bench::{phase_walls, print_table, write_json, PhaseWall, ProtocolKind, RunSpec};
use qlec_core::params::{CandidatePolicy, QlecParams};
use qlec_net::{SimReport, Simulator};
use qlec_obs::{peak_rss_bytes, ObserverSet, Phase, PhaseProfiler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Version tag of the `BENCH_scale.json` artifact. Bump on any field
/// addition, removal, or semantic change. v2: added `threads` (engine
/// worker count per run) and replaced `candidate_heads` with the
/// `candidates` policy spelling. v3: added `head_index` (spatial-index
/// maintenance mode per run), admitted `legacy-auto` as a candidates
/// spelling, and `peak_rss_bytes` is now omitted — not null — on
/// platforms that cannot report it. v4: added per-phase-per-thread
/// busy spans (`phase_threads`), merge-stage counters
/// (`merge_conflicts`, `merge_retargets`), round-latency quantiles
/// (`round_p50_ns`/`round_p90_ns`/`round_p99_ns`), and optional
/// `events_pipeline` rows measuring the hot-thread cost of the
/// full-events sinks of the time.
/// v5: added `threads_resolved` (the worker count the engine actually
/// used — never 0, so `auto` sweeps record what they ran on), the
/// sharded-merge counters (`merge_shards`, `merge_shard_max`), and the
/// top-level `thread_scaling` summary array (always present; empty when
/// the sweep has no `threads = 1` baseline to compare against).
/// v6: added `q_rows` (`dense` or `sparse`, the decision-Q diagnostic
/// layout) to every run and to the `--compare` matching key, and
/// `--compare` now also gates `peak_rss_bytes` at scale — a matched
/// point with `n ≥ 100 000` fails when its fresh peak RSS grows more
/// than 25 % past the baseline's (skipped when either side lacks the
/// counter).
/// v7: every run now records its own `lambda` (so one artifact can mix
/// congestion levels; `lambda` joins the `--compare` and
/// thread-scaling matching keys), plus the reservation-merge counters
/// `merge_clean_commits` / `merge_residue` and the derived
/// `residue_fraction` (a number on sharded-merge runs, `null` on
/// sequential runs, which never classify). `--compare` gates
/// `residue_fraction` as a regression: a matched point whose fresh
/// fraction grows more than 0.05 (absolute) past the
/// baseline's fails, and `--gate-thread-scaling` now applies its floor
/// only to rows with `n ≥` [`SCALING_GATE_MIN_N`] (smaller rows warn —
/// see the gate's docs for why small-N inversion is expected).
/// v8: the reservation pre-pass is gone (one ordered merge walk at
/// every thread count), and with it `merge_shards`, `merge_shard_max`,
/// `merge_clean_commits`, `merge_residue`, `residue_fraction` and the
/// `--compare` residue gate. Every run gains `merge_share`: merge wall
/// over run wall, the serial fraction that bounds thread scaling
/// (Amdahl: speedup ≤ 1 / merge_share).
/// v9: the `head_index` and `q_rows` knobs are retired (one per-round
/// head kd-tree, one sparse Q-row layout), so rows drop both fields and
/// the `--compare`/append/thread-scaling keys shrink to `(n, threads,
/// candidates, lambda, rounds)`; `legacy-auto` is no longer a
/// candidates spelling.
/// v10: one phase taxonomy. `phase_wall` rows are labelled by the
/// profile path (`election/broadcast`, `transmission/merge`, …; the
/// overlapping `qrouting` span is gone, `traffic`, `transmission/plan`
/// and `transmission/merge` join) and carry `wall_ns` (the run total)
/// instead of the misnamed `mean_wall_ns`; the `thread_scaling` phase
/// speedups use the same labels. Profile-only runs no longer build
/// events, so the rows measure less observer overhead than v9's. The
/// optional `events_pipeline` rows went with the writer-thread sink
/// they compared against; no committed v10 row carried one.
const SCALE_SCHEMA: &str = "qlec-bench-scale/v10";

/// `--compare` fails on a `packets_per_sec` drop of more than this
/// fraction below the baseline at any matching point.
const REGRESSION_TOLERANCE: f64 = 0.20;

/// `--compare` fails on a `peak_rss_bytes` *growth* of more than this
/// fraction past the baseline at any matching point at or above
/// [`RSS_GATE_MIN_N`] nodes — memory is the whole point of the sparse
/// layouts, so a silent quadratic reappearing must fail CI. Both sides
/// must carry the counter; a platform without it skips the gate, never
/// fails it.
const RSS_TOLERANCE: f64 = 0.25;

/// Smallest `n` the RSS gate applies to. Below this the process
/// high-water mark is dominated by allocator noise and (within one
/// sweep) by whatever larger size ran first, not by per-node state.
const RSS_GATE_MIN_N: usize = 100_000;

/// Smallest `n` the `--gate-thread-scaling` floor applies to. Below
/// this the per-round fan-out is too small to amortize worker wakeups:
/// at N = 100 a round plans ~100 member packets, so four workers spend
/// more time parking and unparking than planning, and the v6 baseline
/// measured threads = 4 *slower* than threads = 2 (614k vs 766k
/// pkt/s). That inversion is expected oversubscription, not a
/// regression — small-N rows get a warning, never a gate failure.
const SCALING_GATE_MIN_N: usize = 10_000;

/// Per-run fields of retired knobs. A row carrying one predates v9: it
/// was measured under a mode the key no longer distinguishes, so two such
/// rows could collide on one coordinate.
const RETIRED_FIELDS: [&str; 2] = ["head_index", "q_rows"];

/// The `phase_wall` field a pre-v10 row carries in place of `wall_ns`.
const RETIRED_PHASE_WALL_FIELD: &str = "mean_wall_ns";

/// One (size, threads) point of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScaleRun {
    /// Node count N.
    n: usize,
    /// Cluster count k used (scales as N/20, the paper's N=100 → k=5).
    k: usize,
    /// Simulated rounds.
    rounds: u32,
    /// Engine worker threads (`SimConfig::threads`; 0 = all cores).
    threads: usize,
    /// The worker count the engine actually used (`SimReport::threads`)
    /// — never 0, so an `auto` sweep records the machine it ran on.
    threads_resolved: usize,
    /// `Send-Data` candidate pruning policy spelling (`auto`, `full`,
    /// or a fixed budget as an integer string).
    candidates: String,
    /// Traffic congestion level λ this run was generated under. v7:
    /// per-row, so one artifact can carry rows at several congestion
    /// levels; part of the `--compare` and thread-scaling keys.
    lambda: f64,
    /// End-to-end wall time of the run, seconds.
    wall_s: f64,
    /// Packets generated over the whole run.
    packets: u64,
    /// Generated packets per wall second — the headline throughput.
    packets_per_sec: f64,
    /// Packet delivery rate, for sanity (pruning must not crater it).
    pdr: f64,
    /// Alive nodes at the end of the run.
    alive_end: usize,
    /// Process peak RSS in bytes after this run (Linux `VmHWM`).
    /// Monotone across the process, so within one sweep the largest N
    /// dominates. Omitted from the JSON on platforms without the
    /// counter.
    peak_rss_bytes: Option<u64>,
    /// Wall nanoseconds per simulation phase over the run: the
    /// profiler's wall for each [`Phase`], labelled by [`Phase::path`].
    phase_wall: Vec<PhaseWall>,
    /// Busy nanoseconds per (phase path, worker slot), from the
    /// profiler — reveals fan-out imbalance the wall numbers hide.
    phase_threads: Vec<PhaseThreadBusy>,
    /// Merge-stage conflicts (packets rerouted or dropped because their
    /// planned head was gone by merge time).
    merge_conflicts: u64,
    /// Live-continuation retargets applied during the merge.
    merge_retargets: u64,
    /// Merge wall over run wall: the share of the run spent in the
    /// sequential commit walk, which bounds thread scaling at
    /// `1 / merge_share`.
    merge_share: f64,
    /// Round-latency quantiles (ns) over the run's rounds.
    round_p50_ns: f64,
    round_p90_ns: f64,
    round_p99_ns: f64,
}

impl ScaleRun {
    /// The point this row measures, `(n, threads, candidates, λ bits,
    /// rounds)`: `--compare`, `--append` and the thread-scaling pairing
    /// all match rows on it. λ as bits keeps the key `Eq`.
    fn key(&self) -> (usize, usize, &str, u64, u32) {
        (
            self.n,
            self.threads,
            &self.candidates,
            self.lambda.to_bits(),
            self.rounds,
        )
    }
}

/// Busy time one worker slot spent in one profiler phase path.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PhaseThreadBusy {
    /// `/`-separated profiler path (`"transmission/plan"`).
    phase: String,
    /// Worker slot (0 = the simulation thread).
    thread: usize,
    busy_ns: u64,
}

/// Speedup of a multi-thread point over its `threads = 1` baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ThreadScalingRow {
    n: usize,
    threads: usize,
    threads_resolved: usize,
    candidates: String,
    lambda: f64,
    packets_per_sec: f64,
    baseline_packets_per_sec: f64,
    speedup: f64,
    /// Per-phase wall speedups, for the phases both runs spent time in.
    phases: Vec<PhaseSpeedup>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct PhaseSpeedup {
    phase: String,
    speedup: f64,
}

/// The whole artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScaleReport {
    /// Always [`SCALE_SCHEMA`].
    schema: String,
    /// Traffic congestion level λ (slots between packets per node).
    lambda: f64,
    /// Deployment/protocol base seed.
    seed: u64,
    /// Speedups of the multi-thread points over their `threads = 1`
    /// baselines; empty when the sweep has nothing to compare.
    thread_scaling: Vec<ThreadScalingRow>,
    /// One entry per requested size, in request order.
    runs: Vec<ScaleRun>,
}

impl ScaleReport {
    /// The artifact's JSON value. An absent value is spelled by leaving
    /// its key out, never as `null` (v3): the derive writes `None` as
    /// `null`, so those fields are dropped here.
    fn to_artifact(&self) -> serde_json::Value {
        fn without_nulls(v: serde_json::Value) -> serde_json::Value {
            match v {
                serde_json::Value::Object(fields) => serde_json::Value::Object(
                    fields
                        .into_iter()
                        .filter(|(_, x)| !x.is_null())
                        .map(|(k, x)| (k, without_nulls(x)))
                        .collect(),
                ),
                serde_json::Value::Array(items) => {
                    serde_json::Value::Array(items.into_iter().map(without_nulls).collect())
                }
                other => other,
            }
        }
        without_nulls(self.to_value())
    }
}

/// Just the artifact's version tag, read before the full parse so a
/// stale artifact is named as such, not as its first missing field.
#[derive(Deserialize)]
struct SchemaTag {
    schema: String,
}

/// A named rule over one run row: the rule text, and whether a row
/// satisfies it.
type RunCheck = (&'static str, fn(&ScaleRun) -> bool);

/// The rules a well-typed run row must also satisfy, by name.
const RUN_CHECKS: [RunCheck; 4] = [
    ("merge_share must lie in [0, 1]", |r| {
        (0.0..=1.0).contains(&r.merge_share)
    }),
    // "auto" resolves to a concrete worker count before the first
    // round, so a recorded 0 means the run never resolved it.
    ("threads_resolved must be >= 1", |r| r.threads_resolved >= 1),
    ("candidates must be auto, full or a positive integer", |r| {
        CandidatePolicy::parse(&r.candidates).is_ok()
    }),
    ("phase_wall must name every phase", |r| {
        Phase::ALL
            .iter()
            .all(|p| r.phase_wall.iter().any(|w| w.phase == p.path()))
    }),
];

/// Parse a `BENCH_scale.json` text as the current schema: a typed parse
/// plus the [`RUN_CHECKS`]. Returns the report, or a description of the
/// first problem found.
fn parse_scale_report(text: &str) -> Result<ScaleReport, String> {
    let v: serde_json::Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let tag = SchemaTag::from_value(&v).map_err(|e| e.to_string())?;
    if tag.schema != SCALE_SCHEMA {
        return Err(format!(
            "schema must be {SCALE_SCHEMA:?}, got {:?}",
            tag.schema
        ));
    }
    // The rules the types cannot express, checked before the typed
    // parse so an old row is named as such, not by its first missing
    // field: the derive ignores unknown keys and reads an explicit `null`
    // as an absent value.
    for (i, row) in v["runs"].as_array().into_iter().flatten().enumerate() {
        let old_wall = row["phase_wall"]
            .as_array()
            .into_iter()
            .flatten()
            .any(|w| w.get(RETIRED_PHASE_WALL_FIELD).is_some());
        let retired = RETIRED_FIELDS.iter().find(|&&k| row.get(k).is_some());
        if let Some(key) = retired.or(old_wall.then_some(&RETIRED_PHASE_WALL_FIELD)) {
            return Err(format!(
                "runs[{i}] carries the retired field {key:?}: it predates {SCALE_SCHEMA}; \
                 re-run the sweep"
            ));
        }
        if row.get("peak_rss_bytes").is_some_and(|rss| rss.is_null()) {
            return Err(format!(
                "runs[{i}].peak_rss_bytes must be omitted, not null, when unavailable"
            ));
        }
    }
    let report = ScaleReport::from_value(&v).map_err(|e| e.to_string())?;
    if report.runs.is_empty() {
        return Err("runs must be non-empty".into());
    }
    for (i, run) in report.runs.iter().enumerate() {
        if let Some((rule, _)) = RUN_CHECKS.iter().find(|(_, holds)| !holds(run)) {
            return Err(format!("runs[{i}]: {rule}"));
        }
    }
    Ok(report)
}

/// Compute the `thread_scaling` summary rows.
///
/// Every run with `threads != 1` is paired with the `threads = 1` run
/// at the same `(n, candidates, lambda, rounds)` coordinates (a
/// `threads = 0` auto run counts as a scaled point — its baseline is
/// still the explicit single-thread row). Unpaired points contribute
/// nothing: speedup against a missing baseline is unmeasurable, not
/// 1.0. Each row carries the headline pkt/s speedup plus per-phase
/// wall speedups for every phase both runs actually spent time in.
/// Under `--append` the carried-through rows pair on equal footing with
/// fresh ones.
fn thread_scaling_rows(runs: &[ScaleRun]) -> Vec<ThreadScalingRow> {
    let wall = |r: &ScaleRun, p: Phase| {
        r.phase_wall
            .iter()
            .find(|w| w.phase == p.path())
            .map_or(0.0, |w| w.wall_ns)
    };
    runs.iter()
        .filter(|run| run.threads != 1)
        .filter_map(|run| {
            let mut baseline_key = run.key();
            baseline_key.1 = 1;
            let base = runs.iter().find(|b| b.key() == baseline_key)?;
            if base.packets_per_sec <= 0.0 {
                return None;
            }
            let phases = Phase::ALL
                .iter()
                .filter_map(|&p| {
                    let (b, s) = (wall(base, p), wall(run, p));
                    (b > 0.0 && s > 0.0).then(|| PhaseSpeedup {
                        phase: p.path().to_string(),
                        speedup: b / s,
                    })
                })
                .collect();
            Some(ThreadScalingRow {
                n: run.n,
                threads: run.threads,
                threads_resolved: run.threads_resolved,
                candidates: run.candidates.clone(),
                lambda: run.lambda,
                packets_per_sec: run.packets_per_sec,
                baseline_packets_per_sec: base.packets_per_sec,
                speedup: run.packets_per_sec / base.packets_per_sec,
                phases,
            })
        })
        .collect()
}

/// The scaling rows that missed a `--gate-thread-scaling` floor.
#[derive(Debug, Default)]
struct ScalingMisses {
    /// Points at `n ≥` [`SCALING_GATE_MIN_N`]: the gate fails.
    failures: Vec<String>,
    /// Smaller points: expected oversubscription, reported only.
    warnings: Vec<String>,
}

/// `--gate-thread-scaling`: every multi-thread point at `n ≥`
/// [`SCALING_GATE_MIN_N`] must reach `floor` × its single-threaded
/// pkt/s. Smaller points only *warn* when they miss the floor — below
/// ~10k nodes the per-round fan-out cannot amortize worker wakeups, so
/// oversubscription inversion (more threads, fewer pkt/s) is expected,
/// not a regression. No failures = gate passes; `Err` means the sweep
/// produced no gateable point at all, which would otherwise pass
/// vacuously.
fn gate_thread_scaling(rows: &[ThreadScalingRow], floor: f64) -> Result<ScalingMisses, String> {
    if rows.is_empty() {
        return Err(
            "nothing to gate: the sweep needs a threads = 1 point and a multi-thread point \
             at the same coordinates (e.g. --threads 1,4)"
                .into(),
        );
    }
    if !rows.iter().any(|row| row.n >= SCALING_GATE_MIN_N) {
        return Err(format!(
            "nothing to gate: the floor only applies at N >= {SCALING_GATE_MIN_N} (smaller \
             sweeps oversubscribe and only warn); add a size at or above it"
        ));
    }
    let mut misses = ScalingMisses::default();
    for row in rows.iter().filter(|row| row.speedup < floor) {
        let (list, verdict) = if row.n >= SCALING_GATE_MIN_N {
            (&mut misses.failures, "below")
        } else {
            (
                &mut misses.warnings,
                "below (expected small-N oversubscription, not gated by)",
            )
        };
        list.push(format!(
            "N={} threads={}: {:.2}x pkt/s vs threads=1 ({:.0} vs {:.0}), {verdict} the \
             {floor:.2}x floor",
            row.n, row.threads, row.speedup, row.packets_per_sec, row.baseline_packets_per_sec,
        ));
    }
    Ok(misses)
}

/// The artifact spelling of a candidate policy (also the `--candidates`
/// flag syntax, so baselines and fresh runs compare apples to apples).
fn policy_label(policy: CandidatePolicy) -> String {
    match policy {
        CandidatePolicy::Auto => "auto".into(),
        CandidatePolicy::Full => "full".into(),
        CandidatePolicy::Fixed(c) => c.to_string(),
    }
}

/// The coordinates of one sweep point.
#[derive(Debug, Clone, Copy)]
struct SweepPoint {
    n: usize,
    rounds: u32,
    candidates: CandidatePolicy,
    threads: usize,
    lambda: f64,
    seed: u64,
}

impl SweepPoint {
    /// Cluster count: N/20, the paper's N = 100 → k = 5.
    fn k(&self) -> usize {
        (self.n / 20).max(2)
    }

    /// Run the point's QLEC simulation under `obs`. Returns the report
    /// and the wall seconds of the run itself (set-up excluded).
    fn simulate(&self, obs: &ObserverSet) -> (SimReport, f64) {
        let mut spec = RunSpec::builder(self.lambda)
            .nodes(self.n)
            .k(self.k())
            .rounds(self.rounds)
            .seeds(vec![self.seed])
            .build();
        spec.sim.threads = self.threads;
        let net = spec.network(self.seed);
        let params = QlecParams {
            candidates: self.candidates,
            ..spec.qlec_params()
        };
        let mut protocol = ProtocolKind::Qlec.build_observed(&params, obs);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9E37_79B9_7F4A_7C15);
        let start = Instant::now();
        let report = Simulator::builder(net)
            .config(spec.sim)
            .observers(obs.clone())
            .build()
            .run(protocol.as_mut(), &mut rng);
        (report, start.elapsed().as_secs_f64())
    }
}

fn run_size(point: SweepPoint) -> ScaleRun {
    let profiler = Arc::new(PhaseProfiler::new());
    let (report, wall_s) = point.simulate(&ObserverSet::new().with_profiler(profiler.clone()));
    let profile = profiler.report();
    let phase_threads = profile
        .phases
        .iter()
        .flat_map(|row| {
            row.busy.iter().map(|b| PhaseThreadBusy {
                phase: row.path.clone(),
                thread: b.thread,
                busy_ns: b.busy_ns,
            })
        })
        .collect();
    let counter = |name: &str| profile.counter(name).unwrap_or(0);
    ScaleRun {
        n: point.n,
        k: point.k(),
        rounds: point.rounds,
        threads: point.threads,
        threads_resolved: report.threads,
        candidates: policy_label(point.candidates),
        lambda: point.lambda,
        wall_s,
        packets: report.totals.generated,
        packets_per_sec: report.totals.generated as f64 / wall_s.max(1e-9),
        pdr: report.pdr(),
        alive_end: report.rounds.last().map_or(point.n, |r| r.alive_end),
        peak_rss_bytes: peak_rss_bytes(),
        phase_wall: phase_walls(&profile),
        phase_threads,
        merge_conflicts: counter("merge.conflicts"),
        merge_retargets: counter("merge.retargets"),
        merge_share: profile.wall_ns(Phase::Merge) as f64 / (wall_s * 1e9).max(1.0),
        round_p50_ns: profile.round_latency.p50_ns,
        round_p90_ns: profile.round_latency.p90_ns,
        round_p99_ns: profile.round_latency.p99_ns,
    }
}

/// Fold fresh sweep rows into the rows of an existing artifact
/// (`--append`). The prior rows passed [`parse_scale_report`], so they
/// are current-schema rows. A fresh row whose coordinate already exists
/// would make every later baseline lookup pick one of the two at random
/// (`find` order), so duplicates are an error naming the coordinate —
/// re-run without `--append` to replace a point.
fn append_runs(prior: Vec<ScaleRun>, fresh: Vec<ScaleRun>) -> Result<Vec<ScaleRun>, String> {
    let mut merged = prior;
    for run in fresh {
        if merged.iter().any(|r| r.key() == run.key()) {
            return Err(format!(
                "--append would duplicate the point n={} threads={} candidates={} \
                 lambda={} rounds={}: the artifact already records it; drop --append to \
                 replace the artifact",
                run.n, run.threads, run.candidates, run.lambda, run.rounds,
            ));
        }
        merged.push(run);
    }
    Ok(merged)
}

/// Compare a fresh sweep against the runs of a committed baseline
/// artifact.
///
/// Points are matched on [`ScaleRun::key`]; `Ok` carries one message per
/// matched point whose `packets_per_sec` fell more than
/// [`REGRESSION_TOLERANCE`] below the baseline, or — at `n ≥`
/// [`RSS_GATE_MIN_N`], when both sides carry the counter — whose
/// `peak_rss_bytes` grew more than [`RSS_TOLERANCE`] past it (empty =
/// gate passes). `Err` means the comparison itself is impossible: no
/// point in common.
fn compare_against_baseline(fresh: &[ScaleRun], base: &[ScaleRun]) -> Result<Vec<String>, String> {
    let mut regressions = Vec::new();
    let mut matched = 0usize;
    for run in fresh {
        let Some(b) = base.iter().find(|b| b.key() == run.key()) else {
            continue;
        };
        matched += 1;
        let floor = b.packets_per_sec * (1.0 - REGRESSION_TOLERANCE);
        if run.packets_per_sec < floor {
            regressions.push(format!(
                "N={} threads={} candidates={}: {:.0} packets/s vs baseline {:.0} (below \
                 the {:.0}% floor {:.0})",
                run.n,
                run.threads,
                run.candidates,
                run.packets_per_sec,
                b.packets_per_sec,
                (1.0 - REGRESSION_TOLERANCE) * 100.0,
                floor,
            ));
        }
        if run.n >= RSS_GATE_MIN_N {
            if let (Some(rss), Some(base_rss)) = (run.peak_rss_bytes, b.peak_rss_bytes) {
                let ceiling = base_rss as f64 * (1.0 + RSS_TOLERANCE);
                if rss as f64 > ceiling {
                    regressions.push(format!(
                        "N={} threads={} candidates={}: peak RSS {:.1} MB vs baseline \
                         {:.1} MB (above the +{:.0}% ceiling {:.1} MB)",
                        run.n,
                        run.threads,
                        run.candidates,
                        rss as f64 / 1e6,
                        base_rss as f64 / 1e6,
                        RSS_TOLERANCE * 100.0,
                        ceiling / 1e6,
                    ));
                }
            }
        }
    }
    if matched == 0 {
        return Err(
            "no (n, threads, candidates, lambda, rounds) point in common with the baseline".into(),
        );
    }
    Ok(regressions)
}

/// Every option `scale` accepts, and whether it takes a value.
const SCALE_FLAGS: &[(&str, bool)] = &[
    ("--sizes", true),
    ("--threads", true),
    ("--rounds", true),
    ("--candidates", true),
    ("--lambda", true),
    ("--seed", true),
    ("--out", true),
    ("--append", false),
    ("--validate", false),
    ("--compare", true),
    ("--gate-thread-scaling", true),
];

/// Check `args` against [`SCALE_FLAGS`] before any work: an unknown or
/// retired option, an option given twice, a valued option with no value
/// and a stray value are all errors, so a misspelt option cannot be
/// silently ignored.
fn ensure_known(args: &[String]) -> Result<(), String> {
    let mut seen: Vec<&str> = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let Some(&(name, takes_value)) = SCALE_FLAGS.iter().find(|(f, _)| f == arg) else {
            let allowed: Vec<&str> = SCALE_FLAGS.iter().map(|(f, _)| *f).collect();
            return Err(if arg.starts_with("--") {
                format!("unknown option {arg} (allowed: {})", allowed.join(", "))
            } else {
                format!("unexpected argument `{arg}`")
            });
        };
        if seen.contains(&name) {
            return Err(format!("option {name} given twice"));
        }
        seen.push(name);
        if takes_value && rest.next().is_none() {
            return Err(format!("{name} takes a value"));
        }
    }
    Ok(())
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Bad invocation: structured message on stderr, exit 2, no panic.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Parse a comma-separated list of positive integers for `flag`.
fn positive_list(text: &str, flag: &str) -> Vec<usize> {
    let items: Vec<usize> = text
        .split(',')
        .map(|s| match s.trim().parse::<usize>() {
            Ok(v) if v > 0 => v,
            _ => die(&format!("{flag} takes positive integers, got `{s}`")),
        })
        .collect();
    if items.is_empty() {
        die(&format!("{flag} must name at least one value"));
    }
    items
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = ensure_known(&args) {
        die(&e);
    }
    let sizes = positive_list(
        &flag_value(&args, "--sizes").unwrap_or_else(|| "100,1000,10000".into()),
        "--sizes",
    );
    let threads_list: Vec<usize> = flag_value(&args, "--threads")
        .unwrap_or_else(|| "1".into())
        .split(',')
        .map(|s| match s.trim() {
            // The engine spells "all cores" as 0; accept `auto` too.
            "auto" => 0,
            t => t
                .parse()
                .unwrap_or_else(|_| die(&format!("--threads takes integers or auto, got `{t}`"))),
        })
        .collect();
    let rounds: u32 = flag_value(&args, "--rounds").map_or(20, |s| match s.parse() {
        Ok(r) if r > 0 => r,
        _ => die(&format!("--rounds takes a positive integer, got `{s}`")),
    });
    let candidates = flag_value(&args, "--candidates").map_or(CandidatePolicy::Fixed(8), |s| {
        CandidatePolicy::parse(&s).unwrap_or_else(|e| die(&format!("--candidates: {e}")))
    });
    let lambda: f64 = flag_value(&args, "--lambda").map_or(5.0, |s| match s.parse() {
        Ok(l) if l > 0.0 => l,
        _ => die(&format!("--lambda takes a positive number, got `{s}`")),
    });
    let seed: u64 = flag_value(&args, "--seed").map_or(42, |s| {
        s.parse()
            .unwrap_or_else(|_| die(&format!("--seed takes an integer, got `{s}`")))
    });
    let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_scale.json".into());

    let gate_floor: Option<f64> =
        flag_value(&args, "--gate-thread-scaling").map(|s| match s.parse::<f64>() {
            Ok(f) if f > 0.0 => f,
            _ => die(&format!(
                "--gate-thread-scaling takes a positive number, got `{s}`"
            )),
        });

    let mut fresh = Vec::new();
    let mut rows = Vec::new();
    for &n in &sizes {
        for &threads in &threads_list {
            let point = SweepPoint {
                n,
                rounds,
                candidates,
                threads,
                lambda,
                seed,
            };
            let run = run_size(point);
            eprintln!(
                "N = {n:>6} × {threads} thread(s): {:.2}s wall, {:.0} packets/s",
                run.wall_s, run.packets_per_sec
            );
            rows.push(vec![
                run.n.to_string(),
                run.k.to_string(),
                run.threads.to_string(),
                format!("{:.2}s", run.wall_s),
                run.packets.to_string(),
                format!("{:.0}", run.packets_per_sec),
                format!("{:.4}", run.pdr),
                run.peak_rss_bytes
                    .map_or("n/a".into(), |b| format!("{:.1}", b as f64 / 1e6)),
            ]);
            fresh.push(run);
        }
    }
    print_table(
        &format!(
            "scale sweep ({rounds} rounds, candidates = {}, λ = {lambda})",
            policy_label(candidates)
        ),
        &[
            "N",
            "k",
            "thr",
            "wall",
            "packets",
            "pkt/s",
            "PDR",
            "peak RSS (MB)",
        ],
        &rows,
    );

    // --append folds the fresh runs into an existing same-schema
    // artifact instead of replacing it (used to add the expensive
    // N = 100k points without re-running the whole sweep). The
    // thread-scaling summary is recomputed over the merged run set, so
    // appended points pick up baselines from the prior rows too.
    let runs = if args.iter().any(|a| a == "--append") {
        match std::fs::read_to_string(&out) {
            Ok(existing) => {
                let prior = parse_scale_report(&existing)
                    .unwrap_or_else(|e| die(&format!("--append: existing {out} is invalid: {e}")));
                append_runs(prior.runs, fresh.clone())
                    .unwrap_or_else(|e| die(&format!("--append: {e}")))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => fresh.clone(),
            Err(e) => die(&format!("--append: cannot read {out}: {e}")),
        }
    } else {
        fresh.clone()
    };
    let report = ScaleReport {
        schema: SCALE_SCHEMA.to_string(),
        lambda,
        seed,
        thread_scaling: thread_scaling_rows(&runs),
        runs,
    };
    for row in &report.thread_scaling {
        eprintln!(
            "thread scaling: N = {:>6} × {} thread(s): {:.2}x pkt/s vs threads = 1",
            row.n, row.threads, row.speedup,
        );
    }
    write_json(&out, &report.to_artifact());

    if args.iter().any(|a| a == "--validate") {
        let text = std::fs::read_to_string(&out).expect("artifact just written");
        match parse_scale_report(&text) {
            Ok(_) => println!("[{out} validates against {SCALE_SCHEMA}]"),
            Err(e) => {
                eprintln!("error: {out} failed schema validation: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(floor) = gate_floor {
        match gate_thread_scaling(&report.thread_scaling, floor) {
            Ok(misses) => {
                for w in &misses.warnings {
                    eprintln!("warning: thread scaling: {w}");
                }
                if misses.failures.is_empty() {
                    println!("[thread-scaling gate passes at {floor:.2}x]");
                } else {
                    for f in &misses.failures {
                        eprintln!("error: thread scaling: {f}");
                    }
                    std::process::exit(1);
                }
            }
            Err(e) => die(&e),
        }
    }

    if let Some(baseline) = flag_value(&args, "--compare") {
        let text = std::fs::read_to_string(&baseline)
            .unwrap_or_else(|e| panic!("--compare {baseline}: {e}"));
        let compared = parse_scale_report(&text)
            .map_err(|e| format!("baseline invalid: {e}"))
            .and_then(|base| compare_against_baseline(&fresh, &base.runs));
        match compared {
            Ok(regressions) if regressions.is_empty() => {
                println!("[no packets/s regression vs {baseline}]");
            }
            Ok(regressions) => {
                for r in &regressions {
                    eprintln!("error: regression: {r}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: cannot compare against {baseline}: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn tiny_point(threads: usize) -> SweepPoint {
        SweepPoint {
            n: 30,
            rounds: 2,
            candidates: CandidatePolicy::Fixed(4),
            threads,
            lambda: 8.0,
            seed: 7,
        }
    }

    fn tiny_run(threads: usize) -> ScaleRun {
        run_size(tiny_point(threads))
    }

    fn report_of(runs: Vec<ScaleRun>) -> ScaleReport {
        ScaleReport {
            schema: SCALE_SCHEMA.to_string(),
            lambda: 8.0,
            seed: 7,
            thread_scaling: thread_scaling_rows(&runs),
            runs,
        }
    }

    fn artifact_text(report: &ScaleReport) -> String {
        serde_json::to_string_pretty(&report.to_artifact()).unwrap()
    }

    #[test]
    fn a_tiny_run_produces_a_valid_artifact() {
        let report = report_of(vec![tiny_run(1)]);
        let back = parse_scale_report(&artifact_text(&report)).expect("fresh artifact validates");
        let r = &back.runs[0];
        assert!(r.wall_s > 0.0);
        assert!(r.packets > 0);
        assert_eq!(r.threads, 1);
        assert_eq!(r.threads_resolved, 1);
        assert_eq!(r.candidates, "4");
        assert_eq!(r.key(), report.runs[0].key());
        let row = &report.to_artifact()["runs"][0];
        for retired in RETIRED_FIELDS {
            assert!(row.get(retired).is_none(), "{retired} is retired in v9");
        }
        assert_eq!(r.phase_wall.len(), Phase::ALL.len());
        assert!(
            r.phase_threads
                .iter()
                .any(|s| s.phase == Phase::Plan.path()),
            "profiler spans must reach the artifact: {:?}",
            r.phase_threads
        );
        assert!(r.round_p50_ns > 0.0);
        assert!(r.round_p99_ns >= r.round_p50_ns);
        // The walk is part of every run, so its share is measured.
        assert!(
            r.merge_share > 0.0 && r.merge_share < 1.0,
            "{}",
            r.merge_share
        );
    }

    /// The committed baseline reads into the typed report, passes the
    /// validator, and writes back to the same JSON value.
    #[test]
    fn the_committed_baseline_round_trips() {
        let text = include_str!("../../../../results/BENCH_scale.json");
        let report = parse_scale_report(text).expect("committed baseline validates");
        let parsed: Value = serde_json::from_str(text).unwrap();
        assert_eq!(report.to_artifact(), parsed);
        assert_eq!(
            serde_json::to_string_pretty(&report.to_artifact()).unwrap(),
            text.trim_end()
        );
    }

    #[test]
    fn peak_rss_is_omitted_when_unavailable() {
        let mut run = tiny_run(1);
        run.peak_rss_bytes = None;
        let report = report_of(vec![run]);
        assert!(
            report.to_artifact()["runs"][0]
                .get("peak_rss_bytes")
                .is_none(),
            "absent RSS must drop the field, not write null"
        );
        let back = parse_scale_report(&artifact_text(&report)).unwrap();
        assert_eq!(back.runs[0].peak_rss_bytes, None);
        let mut run = back.runs[0].clone();
        run.peak_rss_bytes = Some(123);
        let report = report_of(vec![run]);
        assert_eq!(
            report.to_artifact()["runs"][0]["peak_rss_bytes"].as_u64(),
            Some(123)
        );
    }

    /// Every rejection the validator makes, one case each: where to edit
    /// a valid one-run artifact (an object path, `/`-separated), which
    /// key to set (`None` value = remove it), and a substring the error
    /// must carry.
    #[test]
    fn validator_rejects_every_broken_artifact() {
        let valid = report_of(vec![tiny_run(1)]).to_artifact();
        parse_scale_report(&serde_json::to_string(&valid).unwrap()).expect("untouched validates");
        let mut cases: Vec<(&str, String, Option<&str>, String)> = vec![
            (
                "",
                "schema".into(),
                Some("\"qlec-bench-scale/v9\""),
                "schema must be".into(),
            ),
            (
                "",
                "runs".into(),
                Some("[]"),
                "runs must be non-empty".into(),
            ),
            ("", "thread_scaling".into(), None, "thread_scaling".into()),
            (
                "",
                "thread_scaling".into(),
                Some("[{\"n\":30}]"),
                "thread_scaling[0]".into(),
            ),
            (
                "runs/0",
                "merge_share".into(),
                Some("1.5"),
                "merge_share".into(),
            ),
            (
                "runs/0",
                "threads_resolved".into(),
                Some("0"),
                "threads_resolved".into(),
            ),
            (
                "runs/0",
                "candidates".into(),
                Some("\"legacy-auto\""),
                "candidates".into(),
            ),
            (
                "runs/0",
                "peak_rss_bytes".into(),
                Some("null"),
                "peak_rss_bytes".into(),
            ),
            (
                "runs/0",
                "phase_wall".into(),
                Some("[{\"phase\":\"election\",\"wall_ns\":1.0}]"),
                "every phase".into(),
            ),
            (
                "runs/0",
                "phase_wall".into(),
                Some("[{\"phase\":\"election\",\"mean_wall_ns\":1.0}]"),
                format!("retired field \"mean_wall_ns\": it predates {SCALE_SCHEMA}"),
            ),
            (
                "runs/0",
                "phase_threads".into(),
                Some("[{\"phase\":\"traffic\",\"thread\":0}]"),
                "phase_threads[0]".into(),
            ),
            (
                "runs/0",
                "head_index".into(),
                Some("\"incremental\""),
                format!("retired field \"head_index\": it predates {SCALE_SCHEMA}"),
            ),
            (
                "runs/0",
                "q_rows".into(),
                Some("\"sparse\""),
                format!("retired field \"q_rows\": it predates {SCALE_SCHEMA}"),
            ),
            // A non-integer or negative coordinate is its own row's
            // error, never folded into a shared key.
            ("runs/0", "n".into(), Some("24.5"), "runs[0].n".into()),
            ("runs/0", "n".into(), Some("-24"), "runs[0].n".into()),
        ];
        for key in [
            "n",
            "k",
            "rounds",
            "threads",
            "threads_resolved",
            "candidates",
            "lambda",
            "wall_s",
            "packets",
            "packets_per_sec",
            "pdr",
            "alive_end",
            "phase_wall",
            "phase_threads",
            "merge_conflicts",
            "merge_retargets",
            "merge_share",
            "round_p50_ns",
            "round_p90_ns",
            "round_p99_ns",
        ] {
            cases.push((
                "runs/0",
                key.into(),
                None,
                format!("runs[0]: missing field `{key}`"),
            ));
        }
        for key in ["lambda", "seed"] {
            cases.push(("", key.into(), None, format!("missing field `{key}`")));
        }
        for (path, key, value, expected) in &cases {
            let mut artifact = valid.clone();
            let mut target = &mut artifact;
            for step in path.split('/').filter(|s| !s.is_empty()) {
                target = match target {
                    Value::Object(fields) => {
                        &mut fields.iter_mut().find(|(k, _)| k == step).unwrap().1
                    }
                    Value::Array(items) => &mut items[step.parse::<usize>().unwrap()],
                    _ => unreachable!("paths walk objects and arrays"),
                };
            }
            let Value::Object(fields) = target else {
                unreachable!("edits land in objects")
            };
            fields.retain(|(k, _)| k != key);
            if let Some(text) = value {
                fields.push((key.clone(), serde_json::from_str(text).unwrap()));
            }
            let err = parse_scale_report(&serde_json::to_string(&artifact).unwrap())
                .expect_err(&format!("{path}/{key} = {value:?} must be rejected"));
            assert!(err.contains(expected.as_str()), "{key}: {err}");
            assert!(!err.contains("duplicate"), "{key}: {err}");
        }
        for text in ["not json", "{\"schema\":\"other/v0\"}"] {
            assert!(parse_scale_report(text).is_err(), "{text}");
        }
        assert!(parse_scale_report("not json")
            .unwrap_err()
            .contains("not JSON"));
    }

    #[test]
    fn compare_flags_only_real_regressions() {
        let run = tiny_run(1);
        let pps = run.packets_per_sec;
        let baseline = |base_pps: f64| {
            let mut base_run = run.clone();
            base_run.packets_per_sec = base_pps;
            vec![base_run]
        };
        let fresh = std::slice::from_ref(&run);
        // Fresh matches (or beats) the baseline: no regression.
        assert_eq!(
            compare_against_baseline(fresh, &baseline(pps)).unwrap(),
            Vec::<String>::new()
        );
        // Baseline 10× faster: well past the 20% floor.
        let msgs = compare_against_baseline(fresh, &baseline(pps * 10.0)).unwrap();
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("N=30"), "{}", msgs[0]);
        // A drop within tolerance (fresh at ~83% of baseline) passes.
        assert!(compare_against_baseline(fresh, &baseline(pps * 1.2))
            .unwrap()
            .is_empty());
        // No matching point (threads or — v7 — λ differ) → a hard
        // error, not a silent pass.
        let mut other_threads = run.clone();
        other_threads.threads = 2;
        let mut other_lambda = run.clone();
        other_lambda.lambda = 9.0;
        for other_run in [other_threads, other_lambda] {
            let err = compare_against_baseline(fresh, &[other_run]).unwrap_err();
            assert!(err.contains("no (n, threads"), "{err}");
        }
    }

    /// The v6 peak-RSS gate: at `n ≥ 100 000` a matched point whose
    /// fresh RSS grew more than 25 % past the baseline fails; growth
    /// within tolerance, a small-`n` point, or a baseline without the
    /// counter all pass.
    #[test]
    fn compare_gates_peak_rss_growth_at_scale() {
        let mut run = tiny_run(1);
        run.n = RSS_GATE_MIN_N;
        run.peak_rss_bytes = Some(1_000_000_000);
        let with_rss = |run: &ScaleRun, rss: Option<u64>| {
            let mut base = run.clone();
            base.peak_rss_bytes = rss;
            vec![base]
        };
        let fresh = std::slice::from_ref(&run);
        // Identical RSS: passes.
        assert!(
            compare_against_baseline(fresh, &with_rss(&run, Some(1_000_000_000)))
                .unwrap()
                .is_empty()
        );
        // +11 % growth (baseline 0.9 GB): inside the 25 % ceiling.
        assert!(
            compare_against_baseline(fresh, &with_rss(&run, Some(900_000_000)))
                .unwrap()
                .is_empty()
        );
        // +43 % growth (baseline 0.7 GB): gate fires with the point named.
        let msgs = compare_against_baseline(fresh, &with_rss(&run, Some(700_000_000))).unwrap();
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("peak RSS"), "{}", msgs[0]);
        assert!(msgs[0].contains("candidates=4"), "{}", msgs[0]);
        // A baseline without the counter cannot gate — skip, not fail.
        assert!(compare_against_baseline(fresh, &with_rss(&run, None))
            .unwrap()
            .is_empty());
        // Below the gate's n floor the same growth is allocator noise.
        let mut small = run.clone();
        small.n = 30;
        assert!(compare_against_baseline(
            std::slice::from_ref(&small),
            &with_rss(&small, Some(700_000_000))
        )
        .unwrap()
        .is_empty());
    }

    #[test]
    fn thread_scaling_rows_pair_points_with_their_baselines() {
        let base = tiny_run(1);
        let mut fast = tiny_run(2);
        // Pin the headline numbers so the speedup is exact.
        fast.packets_per_sec = base.packets_per_sec * 2.0;
        let rows = thread_scaling_rows(&[base.clone(), fast]);
        assert_eq!(rows.len(), 1, "one scaled point, one row");
        let row = &rows[0];
        assert_eq!(row.n, 30);
        assert_eq!(row.threads, 2);
        assert_eq!(row.threads_resolved, 2);
        assert!((row.speedup - 2.0).abs() < 1e-9, "{}", row.speedup);
        assert!(!row.phases.is_empty(), "both runs spent time in some phase");
        assert!(row.phases.iter().all(|p| p.speedup > 0.0));
        // v7: λ is part of the pairing key — a scaled point whose only
        // threads = 1 partner ran at a different congestion level has no
        // baseline at all and contributes nothing.
        let other_lambda = run_size(SweepPoint {
            lambda: 9.0,
            ..tiny_point(2)
        });
        assert!(thread_scaling_rows(&[base, other_lambda]).is_empty());
        // The gate refuses to pass vacuously on an empty summary, and —
        // v7 — on a summary with no row at the N >= 10k gate floor.
        assert!(gate_thread_scaling(&[], 1.3).is_err());
        let err = gate_thread_scaling(&rows, 1.5).unwrap_err();
        assert!(err.contains("10000"), "{err}");
        // At gateable N the floor fails points below it and passes
        // points above; a small-N point missing the floor only warns.
        let resize = |n: usize| ThreadScalingRow {
            n,
            ..rows[0].clone()
        };
        let gated = [resize(10_000)];
        let misses = gate_thread_scaling(&gated, 1.5).unwrap();
        assert_eq!(misses.failures, Vec::<String>::new());
        assert_eq!(misses.warnings, Vec::<String>::new());
        let misses = gate_thread_scaling(&gated, 2.5).unwrap();
        assert_eq!(misses.failures.len(), 1);
        assert!(
            misses.failures[0].contains("below the 2.50x floor"),
            "{}",
            misses.failures[0]
        );
        assert!(misses.warnings.is_empty());
        // Mixed sweep: the small point warns, the large one gates.
        let misses = gate_thread_scaling(&[resize(100), resize(10_000)], 2.5).unwrap();
        assert_eq!(misses.failures.len(), 1, "{:?}", misses.failures);
        assert_eq!(misses.warnings.len(), 1, "{:?}", misses.warnings);
        assert!(
            misses.warnings[0].contains("oversubscription"),
            "{}",
            misses.warnings[0]
        );
    }

    #[test]
    fn append_merges_distinct_points_and_rejects_duplicates() {
        let prior = tiny_run(1);
        let mut other = prior.clone();
        other.threads = 2;
        // Distinct coordinates merge, prior rows first.
        let merged = append_runs(vec![prior.clone()], vec![other]).expect("distinct points append");
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].threads, 1);
        assert_eq!(merged[1].threads, 2);
        // Appending the same coordinate again is an error that
        // names the point instead of silently double-counting it.
        let err = append_runs(merged, vec![prior.clone()]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        assert!(err.contains("n=30 threads=1"), "{err}");
        assert!(err.contains("lambda=8"), "{err}");
        // A duplicate inside the fresh batch itself is caught too.
        let err = append_runs(vec![], vec![prior.clone(), prior]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn ci_invocations_are_accepted() {
        for line in [
            "--sizes 100 --rounds 2 --out BENCH_scale_smoke.json --validate",
            "--sizes 100 --threads 1,2 --rounds 20 --out BENCH_scale_fresh.json --validate \
             --compare results/BENCH_scale.json",
            "--sizes 100000 --rounds 3 --threads 2 --candidates auto --out BENCH_scale_100k.json \
             --validate --compare results/BENCH_scale.json",
            "--sizes 10000 --threads 1,4 --rounds 20 --out BENCH_thread_scaling.json --validate \
             --gate-thread-scaling 0.8",
            "--lambda 20 --seed 7 --append",
        ] {
            assert_eq!(ensure_known(&words(line)), Ok(()), "{line}");
        }
    }

    #[test]
    fn malformed_invocations_are_rejected() {
        for (line, want) in [
            ("--events-pipeline", "unknown option --events-pipeline"),
            ("--sizes 100 --size 200", "unknown option --size"),
            ("--sizes 100 --sizes 200", "given twice"),
            ("--rounds", "--rounds takes a value"),
            ("--validate yes", "unexpected argument `yes`"),
        ] {
            let err = ensure_known(&words(line)).unwrap_err();
            assert!(err.contains(want), "{line}: {err}");
        }
    }

    #[test]
    fn flag_parsing_finds_values() {
        let args: Vec<String> = ["--sizes", "100,200", "--validate", "--rounds", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--sizes").as_deref(), Some("100,200"));
        assert_eq!(flag_value(&args, "--rounds").as_deref(), Some("3"));
        assert_eq!(flag_value(&args, "--out"), None);
    }
}
