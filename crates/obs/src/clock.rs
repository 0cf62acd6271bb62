//! Caller-supplied wall clocks for phase-timing spans.
//!
//! The simulator never reads the system clock directly: spans ask the
//! [`Clock`] of the [`crate::PhaseProfiler`] attached to the
//! [`crate::ObserverSet`], and read nothing when none is attached.
//! Production code uses [`WallClock`]; tests pass a [`ManualClock`] to
//! [`crate::PhaseProfiler::with_clock`] for deterministic durations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond clock.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) origin.
    fn now_ns(&self) -> u64;
}

/// Real wall time, measured from the clock's creation.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-advanced clock for deterministic tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    ns: AtomicU64,
}

impl ManualClock {
    /// A clock starting at 0 ns.
    pub fn new() -> Self {
        ManualClock {
            ns: AtomicU64::new(0),
        }
    }

    /// Advance by `delta_ns`.
    pub fn advance(&self, delta_ns: u64) {
        self.ns.fetch_add(delta_ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_advances_exactly() {
        let c = ManualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(42);
        c.advance(8);
        assert_eq!(c.now_ns(), 50);
    }
}
