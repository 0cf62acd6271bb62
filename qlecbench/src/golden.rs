//! The recorded output digests (`golden.json`), one per workload and
//! scenario. `--record-golden` writes the file; every benchmark run
//! checks against it.

use crate::run::Digest;
use crate::workload::Workload;
use serde::Value;

/// Schema tag of `golden.json`.
pub const SCHEMA: &str = "qlecbench-golden/v1";

/// The committed golden file.
pub const GOLDEN_JSON: &str = include_str!("../golden.json");

fn hex(v: &Value) -> Option<u64> {
    u64::from_str_radix(v.as_str()?, 16).ok()
}

/// The recorded digest of `workload` at spec seed `scenario`.
pub fn lookup(text: &str, workload: Workload, scenario: u64) -> Result<Digest, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("golden.json: {e}"))?;
    if root.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("golden.json: schema is not {SCHEMA}"));
    }
    let row = root
        .get("workloads")
        .and_then(|w| w.get(workload.name()))
        .and_then(Value::as_array)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("seed").and_then(Value::as_u64) == Some(scenario))
        })
        .ok_or_else(|| {
            format!(
                "golden.json has no {} row for seed {scenario}",
                workload.name()
            )
        })?;
    let report = row
        .get("report")
        .and_then(hex)
        .ok_or_else(|| format!("golden.json: bad report digest in {}", workload.name()))?;
    let events = match (row.get("events"), row.get("lines")) {
        (None, None) => None,
        (Some(e), Some(l)) => Some((
            hex(e).ok_or("golden.json: bad events digest")?,
            l.as_u64().ok_or("golden.json: bad line count")?,
        )),
        _ => return Err("golden.json: events digest without line count".into()),
    };
    Ok(Digest { report, events })
}

/// Render a golden file from `(workload, [(scenario, digest)])` rows.
pub fn render(rows: &[(Workload, Vec<(u64, Digest)>)]) -> String {
    let workloads = rows
        .iter()
        .map(|(w, digests)| {
            let entries = digests
                .iter()
                .map(|(seed, d)| {
                    let mut fields = vec![
                        ("seed".to_string(), Value::UInt(*seed)),
                        (
                            "report".to_string(),
                            Value::Str(format!("{:016x}", d.report)),
                        ),
                    ];
                    if let Some((fnv, lines)) = d.events {
                        fields.push(("events".to_string(), Value::Str(format!("{fnv:016x}"))));
                        fields.push(("lines".to_string(), Value::UInt(lines)));
                    }
                    Value::Object(fields)
                })
                .collect();
            (w.name().to_string(), Value::Array(entries))
        })
        .collect();
    let root = Value::Object(vec![
        ("schema".to_string(), Value::Str(SCHEMA.to_string())),
        ("workloads".to_string(), Value::Object(workloads)),
    ]);
    serde_json::to_string_pretty(&root).expect("golden file serializes")
}
