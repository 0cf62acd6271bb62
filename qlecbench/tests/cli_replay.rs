//! The benchmark runs what `qlec-sim run --spec` runs, and its inputs
//! and golden digests are complete.

use qlec_cli::args::ParsedArgs;
use qlec_cli::commands::dispatch;
use qlec_cli::spec::SimSpec;
use qlec_corpus::fnv1a64;
use qlec_perfbench::golden::{lookup, GOLDEN_JSON};
use qlec_perfbench::probe::{HashWriter, StreamDigest};
use qlec_perfbench::run::{prepare, Mode};
use qlec_perfbench::workload::{Workload, SCENARIOS};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// `qlec-sim run --spec FILE --json` for `spec`, in-process.
fn cli_report(spec: &SimSpec, name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.json"));
    std::fs::write(&path, spec.to_json()).expect("write spec file");
    let path = path.to_str().expect("UTF-8 temp path");
    let args = ParsedArgs::parse(["run", "--spec", path, "--json"]).expect("CLI arguments parse");
    dispatch(&args).expect("CLI run succeeds")
}

#[test]
fn tiny_copies_report_what_the_cli_reports() {
    for workload in Workload::ALL {
        let spec = workload.scaled_spec(3, 400);
        let expected = cli_report(&spec, workload.name());
        let mut streams = Vec::new();
        let sinks: &[bool] = if workload.observed() {
            &[false, true]
        } else {
            &[false]
        };
        for &observed in sinks {
            for traced in [false, true] {
                let mode = Mode { observed, traced };
                let out = prepare(&spec, mode)
                    .and_then(|p| p.run())
                    .unwrap_or_else(|e| panic!("{} {mode:?}: {e}", workload.name()));
                let report = serde_json::to_string_pretty(&out.report).expect("report serializes");
                assert_eq!(report, expected, "{} {mode:?}", workload.name());
                if let Some(layers) = out.layers {
                    assert!(
                        layers.election_ns > 0 && layers.plan_nodes > 0,
                        "{layers:?}"
                    );
                    assert!(layers.plan_decisions >= layers.plan_nodes, "{layers:?}");
                    assert!(layers.hooks_ns() as f64 <= out.run_s * 1e9, "{layers:?}");
                }
                if let Some(sink) = out.sink {
                    assert!(sink.stream.lines > 1 && sink.stream.faults > 0, "{sink:?}");
                    streams.push(sink.stream);
                }
            }
        }
        // Tracing the sink does not change the stream it writes.
        assert!(streams.windows(2).all(|w| w[0] == w[1]), "{streams:?}");
    }
}

#[test]
fn committed_specs_are_scenario_zero() {
    for workload in Workload::ALL {
        let file = SimSpec::from_json(workload.spec_file()).expect("spec parses");
        assert_eq!(file, workload.spec(0), "{}", workload.name());
        assert_eq!(workload.spec(SCENARIOS + 5), workload.spec(5));
        assert_eq!(file.faults.is_some(), workload.observed());
        // Knobs the roadmap retires stay out of the committed specs.
        for retired in ["head_index", "legacy-auto"] {
            assert!(!workload.spec_file().contains(retired), "{retired}");
        }
    }
}

#[test]
fn golden_covers_every_scenario() {
    for workload in Workload::ALL {
        for scenario in 0..SCENARIOS {
            let digest = lookup(GOLDEN_JSON, workload, scenario).expect("golden row");
            assert_eq!(digest.events.is_some(), workload.observed());
        }
    }
}

#[test]
fn hash_writer_matches_fnv_and_counts_fault_lines() {
    let stream: &[u8] = b"{\"schema\":\"qlec-obs/v3\"}\n{\"FaultInjected\":{\"round\":1}}\n\
        {\"RoundStarted\":{\"round\":1}}\n{\"FaultInjected\":{\"round\":2}}\n";
    let out = Arc::new(Mutex::new(StreamDigest::default()));
    let mut writer = HashWriter::new(out.clone());
    // Chunk boundaries fall inside the matched prefix.
    for chunk in stream.chunks(7) {
        writer.write_all(chunk).expect("hashing never fails");
    }
    writer.flush().expect("hashing never fails");
    let digest = *out.lock().expect("fresh lock");
    assert_eq!(
        digest,
        StreamDigest {
            fnv: fnv1a64(stream),
            lines: 4,
            faults: 2
        }
    );
}
