//! The `scale` binary refuses options it does not know before it runs
//! anything: each retired option exits nonzero with `unknown option`
//! and leaves no artifact behind.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn retired_options_fail_and_write_no_artifact() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("qlec-scale-options-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (i, retired) in [
        &["--events-pipeline"][..],
        &["--events-sink", "sync,async"],
        &["--head-index", "incremental"],
        &["--q-rows", "sparse"],
    ]
    .iter()
    .enumerate()
    {
        let out = dir.join(format!("scale-{i}.json"));
        let status = Command::new(env!("CARGO_BIN_EXE_scale"))
            .args(["--sizes", "100", "--rounds", "2", "--out"])
            .arg(&out)
            .args(*retired)
            .output()
            .expect("run scale");
        let stderr = String::from_utf8_lossy(&status.stderr);
        assert!(!status.status.success(), "{retired:?} was accepted");
        assert!(
            stderr.contains(&format!("unknown option {}", retired[0])),
            "{retired:?}: {stderr}"
        );
        assert!(!out.exists(), "{retired:?} wrote {}", out.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}
