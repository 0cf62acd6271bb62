//! Update counting and convergence detection.
//!
//! Lemma 3 of the paper: "Q-learning algorithm runs in `O(kX)` time until
//! it converges, where … `X` is the times of calculations to make V values
//! converge." [`UpdateCounter`] measures exactly that `X`;
//! [`ConvergenceTracker`] decides when a sweep's value deltas have fallen
//! below a tolerance. The `complexity` experiment binary uses both to
//! verify the claimed running-time shape empirically.

use serde::{Deserialize, Serialize};

/// Counts individual Q/V updates — the paper's `X`.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct UpdateCounter {
    updates: u64,
}

impl UpdateCounter {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` elementary updates.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.updates += n;
    }

    /// Record one elementary update.
    #[inline]
    pub fn bump(&mut self) {
        self.updates += 1;
    }

    /// Total updates so far.
    pub fn total(&self) -> u64 {
        self.updates
    }
}

/// Tracks the largest per-sweep value change and reports convergence when
/// a sweep's largest change falls within a tolerance.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ConvergenceTracker {
    tolerance: f64,
    current_max_delta: f64,
    converged: bool,
    sweeps: u64,
}

impl ConvergenceTracker {
    /// Create a tracker with the given tolerance.
    pub fn new(tolerance: f64) -> Self {
        assert!(
            tolerance >= 0.0 && tolerance.is_finite(),
            "tolerance must be non-negative"
        );
        ConvergenceTracker {
            tolerance,
            current_max_delta: 0.0,
            converged: false,
            sweeps: 0,
        }
    }

    /// Record one value update's absolute delta within the current sweep.
    #[inline]
    pub fn observe(&mut self, delta: f64) {
        debug_assert!(delta >= 0.0, "delta must be an absolute value");
        if delta > self.current_max_delta {
            self.current_max_delta = delta;
        }
    }

    /// Close the current sweep; returns `true` if converged.
    pub fn end_sweep(&mut self) -> bool {
        self.sweeps += 1;
        self.converged = self.current_max_delta <= self.tolerance;
        self.current_max_delta = 0.0;
        self.converged
    }

    /// Whether the most recent sweep was within the tolerance.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Number of completed sweeps.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = UpdateCounter::new();
        c.bump();
        c.add(10);
        assert_eq!(c.total(), 11);
    }

    #[test]
    fn tracker_converges_on_quiet_sweep() {
        let mut t = ConvergenceTracker::new(1e-6);
        t.observe(0.5);
        assert!(!t.end_sweep());
        t.observe(1e-9);
        assert!(t.end_sweep());
        assert!(t.converged());
        assert_eq!(t.sweeps(), 2);
    }

    #[test]
    fn tracker_empty_sweep_counts_as_quiet() {
        let mut t = ConvergenceTracker::new(1e-6);
        assert!(t.end_sweep(), "a sweep with no updates has max delta 0");
    }

    #[test]
    fn max_delta_is_per_sweep() {
        let mut t = ConvergenceTracker::new(0.1);
        t.observe(5.0);
        assert!(!t.end_sweep());
        // The 5.0 from the previous sweep must not leak into this one.
        t.observe(0.05);
        assert!(t.end_sweep());
    }
}
