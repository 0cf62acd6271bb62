//! `qlec-sim run --events -` gives stdout to the JSON-lines event stream:
//! the report (text or `--json`) and the `--profile` table go to stderr,
//! so a consumer can parse every stdout line. Without `--events -` the
//! report stays on stdout.

use std::process::Command;

const RUN: [&str; 9] = [
    "run", "--n", "20", "--rounds", "2", "--lambda", "6", "--seed", "3",
];

fn run_binary(extra: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_qlec-sim"))
        .args(RUN)
        .args(extra)
        .output()
        .expect("qlec-sim runs");
    let stderr = String::from_utf8(out.stderr).expect("stderr utf8");
    assert!(out.status.success(), "{extra:?} failed: {stderr}");
    (String::from_utf8(out.stdout).expect("stdout utf8"), stderr)
}

fn assert_json_lines(stdout: &str, what: &str) {
    assert!(stdout.lines().count() > 1, "{what}: no event stream");
    for (i, line) in stdout.lines().enumerate() {
        serde_json::from_str::<serde_json::Value>(line)
            .unwrap_or_else(|e| panic!("{what}: stdout line {} is not JSON ({e}): {line}", i + 1));
    }
}

#[test]
fn events_to_stdout_keep_stdout_pure_json_lines() {
    let (stdout, stderr) = run_binary(&["--events", "-"]);
    assert_json_lines(&stdout, "text report");
    assert!(stderr.contains("protocol        : qlec"), "{stderr}");

    let (stdout, stderr) = run_binary(&["--events", "-", "--json"]);
    assert_json_lines(&stdout, "--json report");
    let report: serde_json::Value = serde_json::from_str(&stderr).expect("--json report on stderr");
    assert!(report.get("totals").is_some(), "{stderr}");

    let profile = std::env::temp_dir().join("qlec_test_events_stdout_profile.json");
    let (stdout, stderr) = run_binary(&["--events", "-", "--profile", profile.to_str().unwrap()]);
    assert_json_lines(&stdout, "--profile table");
    assert!(
        stderr.contains("protocol        : qlec") && stderr.lines().count() > 10,
        "{stderr}"
    );
}

#[test]
fn without_events_to_stdout_the_report_stays_on_stdout() {
    let (stdout, stderr) = run_binary(&[]);
    assert!(stdout.contains("protocol        : qlec"), "{stdout}");
    assert!(stderr.is_empty(), "{stderr}");

    let events = std::env::temp_dir().join("qlec_test_events_stdout_file.jsonl");
    let (stdout, _) = run_binary(&["--events", events.to_str().unwrap(), "--json"]);
    let report: serde_json::Value = serde_json::from_str(&stdout).expect("--json report on stdout");
    assert!(report.get("totals").is_some(), "{stdout}");
}
