//! `qlec-perfbench`: run one benchmark workload and print its metrics.
//!
//! ```text
//! qlec-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! qlec-perfbench --steady
//! qlec-perfbench --print-spec --workload NAME --seed N
//! qlec-perfbench --record-golden > qlecbench/golden.json
//! ```
//!
//! A measuring run repeats set-up + run of its workload until `--seconds`
//! have passed and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. `--steady`
//! runs the workloads interleaved, each run in a child process, and
//! prints the spread of every end-to-end metric.

use qlec_cli::spec::SimSpec;
use qlec_perfbench::golden;
use qlec_perfbench::probe::{host_probe_ms, peak_rss_mib, rss_mib, REFERENCE_PROBE_MS};
use qlec_perfbench::run::{prepare, Digest, Mode, RunOutput};
use qlec_perfbench::stats::{median, quantile, quartiles, relative_iqr};
use qlec_perfbench::workload::{Workload, SCENARIOS};
use serde::Value;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups made and dropped after each operation, so `setup_s` is a
/// median over many samples even when only a few runs fit. A batch made
/// up front in a fresh process reads anywhere from 0.3 to 1 ms at 10k
/// nodes, varying from process to process; set-ups between runs reuse
/// the heap the run freed and agree across processes.
const SETUPS_PER_OP: usize = 30;

/// The operations' quantile the run metrics report: the edge of their
/// fastest quarter. A shared host slows whole stretches of a run by up
/// to half (other tenants thrashing the shared cache), while the
/// integer probe barely moves; the fast quarter is the program running
/// uncontended, and it agrees from run to run where the median follows
/// how much of the run fell into a slow stretch.
const FAST_QUARTILE: f64 = 0.25;

/// Untraced runs per workload in `--steady`, each with its own seed.
const STEADY_RUNS: u64 = 10;

/// Traced runs per workload in `--steady`.
const TRACE_RUNS: u64 = 5;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => fail(&e),
    };
    let result = if args.has("steady") {
        steady()
    } else if args.has("print-spec") {
        print_spec(&args)
    } else if args.has("record-golden") {
        record_golden()
    } else {
        measure(&args)
    };
    if let Err(e) = result {
        fail(&e);
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("qlec-perfbench: {msg}");
    std::process::exit(2);
}

/// `--key value` pairs and bare `--flag`s.
struct Args(Vec<(String, Option<String>)>);

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out: Vec<(String, Option<String>)> = Vec::new();
        for token in raw {
            match token.strip_prefix("--") {
                Some(key) => out.push((key.to_string(), None)),
                None => match out.last_mut() {
                    Some((_, value @ None)) => *value = Some(token),
                    _ => return Err(format!("unexpected argument `{token}`")),
                },
            }
        }
        Ok(Args(out))
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let text = self.required(key)?;
        text.parse()
            .map_err(|_| format!("--{key}: not a number: `{text}`"))
    }
}

/// One successful, checked operation.
struct Op {
    setup_s: f64,
    /// Resident MiB after set-up.
    setup_rss: f64,
    /// `VmHWM` right after the run.
    peak_after: f64,
    out: RunOutput,
}

/// Operation counts for the result line.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Set up, run and check one operation. A set-up or run error, a
    /// panic, or an output digest other than the golden one is a failed
    /// operation.
    fn operation(&mut self, spec: &SimSpec, mode: Mode, golden: &Digest) -> Option<Op> {
        self.attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(|| -> Result<Op, String> {
            let prepared = prepare(spec, mode)?;
            let setup_s = prepared.setup_s;
            let setup_rss = rss_mib();
            let out = prepared.run()?;
            Ok(Op {
                setup_s,
                setup_rss,
                peak_after: peak_rss_mib(),
                out,
            })
        }));
        let verdict = match result {
            Ok(Ok(op)) if op.out.digest() == *golden => {
                eprintln!(
                    "op {} ({mode:?}): setup {:.6} s, run {:.4} s, cpu {:.4} s",
                    self.attempted, op.setup_s, op.out.run_s, op.out.cpu_s
                );
                return Some(op);
            }
            Ok(Ok(op)) => format!(
                "output digest {:?} differs from the golden {golden:?}",
                op.out.digest()
            ),
            Ok(Err(e)) => e,
            Err(_) => "the run panicked".to_string(),
        };
        eprintln!("qlec-perfbench: failed operation ({mode:?}): {verdict}");
        self.failed += 1;
        None
    }

    fn print(&self, metrics: &[(&str, f64, &str)]) {
        let fields: Vec<(String, Value)> = metrics
            .iter()
            .map(|&(name, value, unit)| {
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(value)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            (
                "correct".to_string(),
                Value::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(fields)),
        ]);
        println!(
            "{}",
            serde_json::to_string(&line).expect("result line serializes")
        );
    }
}

fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

fn measure(args: &Args) -> Result<(), String> {
    let workload = Workload::parse(args.required("workload")?)?;
    let seed: u64 = args.number("seed")?;
    let seconds: f64 = args.number("seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let traced = match args.required("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let spec = workload.spec(seed);
    let golden = golden::lookup(golden::GOLDEN_JSON, workload, spec.seed)?;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut tally = Tally::default();
    let plain = Mode {
        observed: workload.observed(),
        traced: false,
    };
    let metrics = if traced {
        per_layer(&spec, &golden, &mut tally, start, budget)
    } else {
        let mut probe_ms = vec![host_probe_ms()];
        let (mut setup_s, mut pps, mut cpu_s) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            let probe = host_probe_ms();
            eprintln!("probe {probe:.3} ms");
            probe_ms.push(probe);
            let op = tally.operation(&spec, plain, &golden);
            // The first operation warms the process up: it is checked,
            // but it grows the heap from nothing, so its times are not
            // kept.
            if let (true, Some(op)) = (tally.attempted > 1, op) {
                setup_s.push(op.setup_s);
                pps.push(op.out.report.totals.generated as f64 / op.out.run_s);
                cpu_s.push(op.out.cpu_s);
            }
            for _ in 0..SETUPS_PER_OP {
                setup_s.push(prepare(&spec, plain)?.setup_s);
            }
            if tally.attempted > 1 && start.elapsed() >= budget {
                break;
            }
        }
        // Times at the reference host speed (see `host_probe_ms`).
        let slowdown = med(&probe_ms) / REFERENCE_PROBE_MS;
        let fast = |values: &[f64], p: f64| quantile(values, p).unwrap_or(0.0);
        vec![
            (
                "packets_per_s",
                fast(&pps, 1.0 - FAST_QUARTILE) * slowdown,
                "pkt/s",
            ),
            ("setup_s", med(&setup_s) / slowdown, "s"),
            ("cpu_s", fast(&cpu_s, FAST_QUARTILE) / slowdown, "s"),
            ("peak_rss_mb", peak_rss_mib(), "MiB"),
        ]
    };
    tally.print(&metrics);
    Ok(())
}

/// Whether operation `i` of a traced run is traced. The first one is,
/// so it runs in a fresh process and its memory readings are its own.
/// After it, pairs alternate untraced-traced and traced-untraced (ABBA),
/// so a drift in speed over the run lands on both sides equally.
fn traced_op(i: usize) -> bool {
    i == 0 || ((i - 1) % 2 == 1) != ((i - 1) / 2 % 2 == 1)
}

/// Each layer metric is the median over the traced operations.
/// `trace.overhead_pct` comes from every operation but the cold first one
/// (see [`trace_overhead_pct`]).
fn per_layer(
    spec: &SimSpec,
    golden: &Digest,
    tally: &mut Tally,
    start: Instant,
    budget: Duration,
) -> Vec<(&'static str, f64, &'static str)> {
    let observed = golden.events.is_some();
    let mut traced: Vec<Op> = Vec::new();
    // (position, traced, run time) of every checked operation after the
    // cold first one.
    let mut timings: Vec<(f64, bool, f64)> = Vec::new();
    let mut probe_ms = Vec::new();
    for i in 0.. {
        let mode = Mode {
            observed,
            traced: traced_op(i),
        };
        probe_ms.push(host_probe_ms());
        let op = tally.operation(spec, mode, golden);
        if let (true, Some(op)) = (i > 0, &op) {
            timings.push((i as f64, mode.traced, op.out.run_s));
        }
        if let (true, Some(op)) = (mode.traced, op) {
            traced.push(op);
        }
        // Stop only after a whole pair.
        if i >= 2 && i % 2 == 0 && start.elapsed() >= budget {
            break;
        }
    }
    let rows: Vec<_> = traced.iter().map(|op| layer_row(Some(&op.out))).collect();
    let mut metrics = match rows.first() {
        Some(first) => (0..first.len())
            .map(|c| {
                let column: Vec<f64> = rows.iter().map(|r| r[c].1).collect();
                (first[c].0, med(&column), first[c].2)
            })
            .collect(),
        None => layer_row(None),
    };
    let (setup_rss, growth) = traced.first().map_or((0.0, 0.0), |op| {
        (op.setup_rss, op.peak_after - op.setup_rss)
    });
    metrics.push(("mem.setup_rss_mb", setup_rss, "MiB"));
    metrics.push(("mem.run_growth_mb", growth, "MiB"));
    metrics.push(("trace.overhead_pct", trace_overhead_pct(&timings), "%"));
    metrics.push(("host.probe_ms", med(&probe_ms), "ms"));
    metrics
}

/// The traced operations' extra run time, in percent of the untraced
/// mean, from the least-squares fit `time = a + b·position + c·traced`.
/// The run's speed drifts (later operations tend to run faster), and the
/// `b` term takes that up, so `c` compares the two kinds at the same
/// point in the run. NaN without at least one operation of each kind.
fn trace_overhead_pct(timings: &[(f64, bool, f64)]) -> f64 {
    let n = timings.len() as f64;
    let mean = |f: &dyn Fn(&(f64, bool, f64)) -> f64| timings.iter().map(f).sum::<f64>() / n;
    let (mi, mx, my) = (
        mean(&|t| t.0),
        mean(&|t| f64::from(u8::from(t.1))),
        mean(&|t| t.2),
    );
    let (mut sii, mut sxx, mut six, mut siy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(i, traced, y) in timings {
        let (i, x, y) = (i - mi, f64::from(u8::from(traced)) - mx, y - my);
        sii += i * i;
        sxx += x * x;
        six += i * x;
        siy += i * y;
        sxy += x * y;
    }
    let c = (sii * sxy - six * siy) / (sii * sxx - six * six);
    let plain: Vec<f64> = timings.iter().filter(|t| !t.1).map(|t| t.2).collect();
    100.0 * c / (plain.iter().sum::<f64>() / plain.len() as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced run (all zero for `None`).
fn layer_row(out: Option<&RunOutput>) -> Vec<(&'static str, f64, &'static str)> {
    let layers = out.and_then(|o| o.layers).unwrap_or_default();
    let run_ns = out.map_or(0.0, |o| o.run_s * 1e9);
    let generated = out.map_or(0, |o| o.report.totals.generated) as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let busy = layers.plan_busy_ns as f64;
    let wall = layers.plan_wall_ns as f64;
    let merge = |f: fn(&qlec_net::MergeOutcome) -> u64| out.map_or(0, |o| f(&o.outcome)) as f64;
    let totals = |f: fn(&qlec_net::metrics::PacketCounters) -> u64| {
        out.map_or(0, |o| f(&o.report.totals)) as f64
    };
    let sink = out.and_then(|o| o.sink);
    let sink_u64 =
        |f: fn(&qlec_perfbench::run::SinkCounters) -> u64| sink.as_ref().map_or(0, f) as f64;
    let engine_ns = (run_ns - layers.hooks_ns() as f64).max(0.0);
    vec![
        ("core.election.ms", ms(layers.election_ns), "ms"),
        (
            "core.election.share",
            ratio(layers.election_ns as f64, run_ns),
            "ratio",
        ),
        ("core.plan.nodes", layers.plan_nodes as f64, "count"),
        ("core.plan.decisions", layers.plan_decisions as f64, "count"),
        ("core.plan.busy_ms", busy / 1e6, "ms"),
        (
            "core.plan.ns_per_decision",
            ratio(busy, layers.plan_decisions as f64),
            "ns",
        ),
        (
            "core.plan.ns_per_node",
            ratio(busy, layers.plan_nodes as f64),
            "ns",
        ),
        ("net.plan.wall_ms", wall / 1e6, "ms"),
        (
            "net.plan.efficiency",
            ratio(busy, wall * layers.threads as f64),
            "ratio",
        ),
        ("core.retarget.calls", layers.retarget_calls as f64, "count"),
        ("core.retarget.ms", ms(layers.retarget_ns), "ms"),
        (
            "core.retarget.ns_per_call",
            ratio(layers.retarget_ns as f64, layers.retarget_calls as f64),
            "ns",
        ),
        ("core.feedback.calls", layers.feedback_calls as f64, "count"),
        ("core.feedback.ms", ms(layers.feedback_ns), "ms"),
        ("core.absorb.ms", ms(layers.absorb_ns), "ms"),
        ("core.round_end.ms", ms(layers.round_end_ns), "ms"),
        ("net.engine.self_ms", engine_ns / 1e6, "ms"),
        ("net.engine.share", ratio(engine_ns, run_ns), "ratio"),
        ("net.merge.retargets", merge(|o| o.retargets()), "count"),
        (
            "net.merge.conflict_queue_full",
            merge(|o| o.conflict_queue_full()),
            "count",
        ),
        (
            "net.merge.conflict_deadline",
            merge(|o| o.conflict_deadline()),
            "count",
        ),
        (
            "net.merge.conflict_dead_head",
            merge(|o| o.conflict_dead_head()),
            "count",
        ),
        (
            "net.merge.retargets_per_packet",
            ratio(merge(|o| o.retargets()), generated),
            "ratio",
        ),
        ("net.packets.generated", generated, "count"),
        (
            "net.packets.pdr",
            out.map_or(0.0, |o| o.report.pdr()),
            "ratio",
        ),
        ("net.packets.retried", totals(|t| t.retried), "count"),
        (
            "net.queue.full_drop_share",
            ratio(totals(|t| t.dropped_queue_full), generated),
            "ratio",
        ),
        ("obs.sink.events", sink_u64(|s| s.events), "count"),
        (
            "obs.sink.hot_ns_per_event",
            ratio(sink_u64(|s| s.hot_ns), sink_u64(|s| s.events)),
            "ns",
        ),
        (
            "obs.sink.flush_ms",
            sink.and(out).map_or(0.0, |o| o.flush_s * 1e3),
            "ms",
        ),
        ("fault.injected", sink_u64(|s| s.stream.faults), "count"),
    ]
}

fn print_spec(args: &Args) -> Result<(), String> {
    let workload = Workload::parse(args.required("workload")?)?;
    let seed: u64 = args.number("seed")?;
    println!("{}", workload.spec(seed).to_json());
    Ok(())
}

/// Run every scenario of every workload and print a fresh
/// `golden.json`. An observed workload's report digest comes from a run
/// with no observers, and its observed run must reproduce it.
fn record_golden() -> Result<(), String> {
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let mut digests = Vec::new();
        for scenario in 0..SCENARIOS {
            let spec = workload.spec(scenario);
            let bare = Mode {
                observed: false,
                traced: false,
            };
            let mut digest = prepare(&spec, bare)?.run()?.digest();
            if workload.observed() {
                let observed = prepare(
                    &spec,
                    Mode {
                        observed: true,
                        traced: false,
                    },
                )?
                .run()?
                .digest();
                if observed.report != digest.report {
                    return Err(format!(
                        "{} seed {scenario}: observing the run changed its report",
                        workload.name()
                    ));
                }
                digest = observed;
            }
            eprintln!("{} seed {scenario}: {digest:?}", workload.name());
            digests.push((scenario, digest));
        }
        rows.push((workload, digests));
    }
    println!("{}", golden::render(&rows));
    Ok(())
}

/// The `end_to_end` bounds of a `BENCHMARK.json`.
fn bounds(manifest: &Value) -> BTreeMap<String, f64> {
    manifest
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Run this binary once as a child and parse its result line.
fn child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed}: child exited with {}",
            workload.name(),
            output.status
        ));
    }
    serde_json::from_str(last)
        .map_err(|e| format!("{} seed {seed}: bad result line: {e}", workload.name()))
}

fn metric_values(line: &Value) -> Vec<(String, f64)> {
    line.get("metrics")
        .and_then(Value::as_object)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

/// Interleave [`STEADY_RUNS`] untraced runs of every workload (each with
/// its own seed) and then [`TRACE_RUNS`] traced ones, each as long as
/// `run_seconds` in `BENCHMARK.json`. Print each end-to-end metric's
/// median, quartiles and relative spread next to its bound, then each
/// per-layer metric's median over the traced runs. Run it from the
/// repository root, where `BENCHMARK.json` is.
fn steady() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run --steady from the repository root): {e}"))?;
    let manifest: Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let seconds = manifest
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json: no run_seconds")?;
    let workloads = Workload::ALL;
    let mut values: BTreeMap<(usize, String), Vec<f64>> = BTreeMap::new();
    let mut failures = 0;
    for r in 0..STEADY_RUNS {
        for i in 0..workloads.len() {
            let wi = (i + r as usize) % workloads.len();
            let line = child(workloads[wi], r + 1, seconds, false)?;
            if line.get("correct").and_then(Value::as_bool) != Some(true) {
                failures += 1;
            }
            for (name, v) in metric_values(&line) {
                values.entry((wi, name)).or_default().push(v);
            }
        }
    }
    // Per-layer values by (workload, position in the result line).
    let mut layers: BTreeMap<(usize, usize), (String, Vec<f64>)> = BTreeMap::new();
    for r in 0..TRACE_RUNS {
        for (wi, &w) in workloads.iter().enumerate() {
            let line = child(w, r + 1, seconds, true)?;
            if line.get("correct").and_then(Value::as_bool) != Some(true) {
                failures += 1;
            }
            for (i, (name, v)) in metric_values(&line).into_iter().enumerate() {
                layers
                    .entry((wi, i))
                    .or_insert((name, Vec::new()))
                    .1
                    .push(v);
            }
        }
    }
    let bounds = bounds(&manifest);
    println!(
        "{:<20} {:<14} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "rel_iqr", "bound"
    );
    for ((wi, name), v) in &values {
        let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
        let bound = bounds.get(name).map_or("-".to_string(), |b| format!("{b}"));
        println!(
            "{:<20} {:<14} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>6}",
            workloads[*wi].name(),
            name,
            med(v),
            q1,
            q3,
            relative_iqr(v).unwrap_or(f64::NAN),
            bound
        );
    }
    println!("\nper-layer medians over {TRACE_RUNS} traced runs");
    for ((wi, _), (name, v)) in &layers {
        println!(
            "{:<20} {:<32} {:>16.4}   {:?}",
            workloads[*wi].name(),
            name,
            med(v),
            v
        );
    }
    println!("failed runs: {failures}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_fit_removes_a_linear_drift() {
        // 3 % extra on traced operations while every operation runs
        // 0.2 s faster than the one before.
        let timings: Vec<(f64, bool, f64)> = (1..=8)
            .map(|i| {
                let traced = traced_op(i);
                let base = 5.0 - 0.2 * i as f64;
                (i as f64, traced, if traced { base * 1.03 } else { base })
            })
            .collect();
        let pct = trace_overhead_pct(&timings);
        assert!((pct - 3.0).abs() < 0.1, "{pct}");
        assert_eq!(
            (0..9).map(traced_op).collect::<Vec<_>>(),
            [true, false, true, true, false, false, true, true, false]
        );
    }
}
