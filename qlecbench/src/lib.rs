//! The repository benchmark: three QLEC workloads, end-to-end metrics
//! from untraced runs, per-layer metrics from traced ones, and a golden
//! output check on every run. `README.md` in this directory has the
//! metric definitions, the layer map and the recorded baseline.

pub mod golden;
pub mod probe;
pub mod run;
pub mod stats;
pub mod timed;
pub mod workload;
