//! Machine-readable run traces.
//!
//! A [`RunTrace`] captures the per-round evolution of a simulation —
//! head sets, per-node residual energies, packet counters — in a form
//! that serializes to JSON for external plotting (the Fig. 3/4 artifacts
//! are derived from exactly these quantities). Because snapshots hold a
//! residual per node per round, tracing is opt-in: attach a
//! [`TraceSink`] to the run's [`qlec_obs::ObserverSet`]. It rebuilds the
//! trace from the structured event stream
//! ([`qlec_obs::Event::RoundEnded`] carries heads, residuals and the
//! alive count), so it composes with the other sinks and leaves the
//! protocol, and the engine path it takes, untouched.

use qlec_obs::{Event, ObsError, SimObserver};
use serde::{Deserialize, Serialize};

/// One round's snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundSnapshot {
    pub round: u32,
    /// Ids of this round's cluster heads.
    pub heads: Vec<u32>,
    /// Residual energy per node (id order) at the *end* of the round.
    pub residuals: Vec<f64>,
    /// Alive nodes at the end of the round.
    pub alive: usize,
}

/// A full run trace.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunTrace {
    pub protocol: String,
    pub rounds: Vec<RoundSnapshot>,
}

impl RunTrace {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> Result<String, ObsError> {
        serde_json::to_string_pretty(self).map_err(ObsError::from)
    }

    /// Parse a trace back from JSON.
    pub fn from_json(text: &str) -> Result<RunTrace, ObsError> {
        serde_json::from_str(text).map_err(ObsError::from)
    }

    /// How many times each node served as head over the trace (head-duty
    /// histogram — rotation fairness in one vector).
    pub fn head_duty_counts(&self, n_nodes: usize) -> Vec<u32> {
        let mut counts = vec![0u32; n_nodes];
        for r in &self.rounds {
            for &h in &r.heads {
                if let Some(c) = counts.get_mut(h as usize) {
                    *c += 1;
                }
            }
        }
        counts
    }
}

/// Rebuilds a [`RunTrace`] from the structured event stream.
///
/// [`qlec_obs::Event::RoundEnded`] carries everything a
/// [`RoundSnapshot`] needs (heads, per-node residuals, alive count), so
/// attaching this sink to a [`qlec_obs::ObserverSet`] traces the run
/// without wrapping the protocol.
#[derive(Debug, Default)]
pub struct TraceSink {
    trace: RunTrace,
}

impl TraceSink {
    /// A sink labelled with the protocol's name.
    pub fn new(protocol: &str) -> Self {
        TraceSink {
            trace: RunTrace {
                protocol: protocol.to_string(),
                rounds: Vec::new(),
            },
        }
    }

    /// The trace so far.
    pub fn trace(&self) -> &RunTrace {
        &self.trace
    }
}

impl SimObserver for TraceSink {
    fn on_event(&mut self, event: &Event) {
        if let Event::RoundEnded {
            round,
            alive,
            heads,
            residuals_j,
            ..
        } = event
        {
            self.trace.rounds.push(RoundSnapshot {
                round: *round,
                heads: heads.clone(),
                residuals: residuals_j.clone(),
                alive: *alive,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use crate::protocol::GreedyEnergyProtocol;
    use crate::sim::{SimConfig, Simulator};
    use qlec_obs::ObserverSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::{Arc, Mutex};

    fn traced_run(rounds: u32) -> (RunTrace, usize) {
        let mut rng = StdRng::seed_from_u64(1);
        let net = NetworkBuilder::new().uniform_cube(&mut rng, 30, 200.0, 5.0);
        let n = net.len();
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = rounds;
        let sink = Arc::new(Mutex::new(TraceSink::new("greedy-energy")));
        let mut obs = ObserverSet::new();
        obs.attach(sink.clone());
        let _ = Simulator::builder(net)
            .config(cfg)
            .observers(obs)
            .build()
            .run(&mut GreedyEnergyProtocol::new(3), &mut rng);
        let trace = sink.lock().unwrap().trace().clone();
        (trace, n)
    }

    #[test]
    fn records_every_round() {
        let (trace, n) = traced_run(4);
        assert_eq!(trace.protocol, "greedy-energy");
        assert_eq!(trace.rounds.len(), 4);
        for (i, r) in trace.rounds.iter().enumerate() {
            assert_eq!(r.round, i as u32);
            assert_eq!(r.heads.len(), 3);
            assert_eq!(r.residuals.len(), n);
            assert!(r.alive <= n);
        }
    }

    #[test]
    fn residuals_are_non_increasing_per_node() {
        let (trace, n) = traced_run(5);
        for node in 0..n {
            for w in trace.rounds.windows(2) {
                assert!(
                    w[1].residuals[node] <= w[0].residuals[node] + 1e-12,
                    "node {node} gained energy"
                );
            }
        }
    }

    #[test]
    fn json_roundtrip() {
        let (trace, _) = traced_run(3);
        let json = trace.to_json().unwrap();
        let parsed = RunTrace::from_json(&json).unwrap();
        assert_eq!(parsed.rounds.len(), trace.rounds.len());
        assert_eq!(parsed.protocol, trace.protocol);
        assert_eq!(parsed.rounds[1].heads, trace.rounds[1].heads);
        assert!(RunTrace::from_json("not json").is_err());
    }

    #[test]
    fn head_duty_histogram() {
        let (trace, n) = traced_run(6);
        let counts = trace.head_duty_counts(n);
        assert_eq!(counts.len(), n);
        let total: u32 = counts.iter().sum();
        assert_eq!(total as usize, 6 * 3, "3 heads per round for 6 rounds");
    }
}
