//! Explicit finite Markov Decision Processes.
//!
//! A [`FiniteMdp`] enumerates, for every state–action pair, the reachable
//! next states with their probabilities and rewards (the paper's Eq. 8–9:
//! `P^a_{ss'}` and `R^a_{ss'}`). The QLEC routing MDP (written out from
//! Eq. 16–20 in the root `tests/oracles.rs`) has exactly two reachable next
//! states per action — the chosen cluster head (delivery) and the node
//! itself (loss) — but the solver code here is written against the general
//! interface so it can be validated on reference problems (chains,
//! gridworlds) with known solutions.

use serde::{Deserialize, Serialize};

/// One `(s, a) → s'` outcome: probability and expected reward
/// (`P^a_{ss'}`, `R^a_{ss'}` in the paper's notation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Next state index.
    pub next: usize,
    /// Transition probability.
    pub probability: f64,
    /// Expected reward for the triple `(s, a, s')`.
    pub reward: f64,
}

/// A finite MDP with dense state/action indexing.
pub trait FiniteMdp {
    /// Number of states.
    fn n_states(&self) -> usize;

    /// Number of actions (uniform across states; unavailable actions can
    /// be encoded as self-loops with strongly negative reward, which is
    /// exactly what the paper's BS-penalty `l` in Eq. 19 does).
    fn n_actions(&self) -> usize;

    /// Outcomes of taking `action` in `state`. Probabilities should sum to
    /// 1 (checked by [`validate`]).
    fn transitions(&self, state: usize, action: usize) -> Vec<Transition>;

    /// Whether `state` is terminal (no future reward; `V(state) = 0`).
    fn is_terminal(&self, state: usize) -> bool {
        let _ = state;
        false
    }
}

/// A table-backed MDP, convenient for tests and small problems.
#[derive(Debug, Clone, Default)]
pub struct TabularMdp {
    pub n_states: usize,
    pub n_actions: usize,
    /// `table[s][a]` = outcomes.
    pub table: Vec<Vec<Vec<Transition>>>,
    pub terminal: Vec<bool>,
}

impl TabularMdp {
    /// An MDP with the given shape and no transitions yet.
    pub fn new(n_states: usize, n_actions: usize) -> Self {
        TabularMdp {
            n_states,
            n_actions,
            table: vec![vec![Vec::new(); n_actions]; n_states],
            terminal: vec![false; n_states],
        }
    }

    /// Add one outcome to `(s, a)`.
    pub fn add(&mut self, s: usize, a: usize, next: usize, probability: f64, reward: f64) {
        assert!(s < self.n_states && a < self.n_actions && next < self.n_states);
        self.table[s][a].push(Transition {
            next,
            probability,
            reward,
        });
    }

    /// Mark a state terminal.
    pub fn set_terminal(&mut self, s: usize) {
        self.terminal[s] = true;
    }
}

impl FiniteMdp for TabularMdp {
    fn n_states(&self) -> usize {
        self.n_states
    }

    fn n_actions(&self) -> usize {
        self.n_actions
    }

    fn transitions(&self, state: usize, action: usize) -> Vec<Transition> {
        self.table[state][action].clone()
    }

    fn is_terminal(&self, state: usize) -> bool {
        self.terminal[state]
    }
}

/// Check that every non-terminal `(s, a)` has outcomes whose probabilities
/// are valid and sum to 1 (within `tol`). Returns the first violation.
pub fn validate<M: FiniteMdp>(mdp: &M, tol: f64) -> Result<(), String> {
    for s in 0..mdp.n_states() {
        if mdp.is_terminal(s) {
            continue;
        }
        for a in 0..mdp.n_actions() {
            let ts = mdp.transitions(s, a);
            if ts.is_empty() {
                return Err(format!("state {s} action {a}: no transitions"));
            }
            let mut total = 0.0;
            for t in &ts {
                if !(0.0..=1.0 + tol).contains(&t.probability) {
                    return Err(format!(
                        "state {s} action {a}: probability {} out of range",
                        t.probability
                    ));
                }
                if !t.reward.is_finite() {
                    return Err(format!("state {s} action {a}: non-finite reward"));
                }
                if t.next >= mdp.n_states() {
                    return Err(format!(
                        "state {s} action {a}: next {} out of range",
                        t.next
                    ));
                }
                total += t.probability;
            }
            if (total - 1.0).abs() > tol {
                return Err(format!(
                    "state {s} action {a}: probabilities sum to {total}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;

    /// A deterministic 1-D chain `0 → 1 → … → n-1` where action 0 moves
    /// right with reward -1 and action 1 stays with reward -2; the last
    /// state is terminal. Optimal V(s) = -(n-1-s).
    pub fn chain(n: usize) -> TabularMdp {
        let mut m = TabularMdp::new(n, 2);
        for s in 0..n - 1 {
            m.add(s, 0, s + 1, 1.0, -1.0);
            m.add(s, 1, s, 1.0, -2.0);
        }
        m.set_terminal(n - 1);
        m
    }

    /// A two-state, two-outcome MDP shaped like the QLEC routing problem:
    /// from state 0 ("holding a packet"), action 0 reaches the terminal
    /// state 1 with probability `p` (reward `r_ok`) and stays at 0 with
    /// probability `1-p` (reward `r_fail`).
    pub fn lossy_hop(p: f64, r_ok: f64, r_fail: f64) -> TabularMdp {
        let mut m = TabularMdp::new(2, 1);
        m.add(0, 0, 1, p, r_ok);
        m.add(0, 0, 0, 1.0 - p, r_fail);
        m.set_terminal(1);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;

    #[test]
    fn tabular_mdp_roundtrip() {
        let m = chain(4);
        assert_eq!(m.n_states(), 4);
        assert_eq!(m.n_actions(), 2);
        assert!(m.is_terminal(3));
        assert!(!m.is_terminal(0));
        let ts = m.transitions(0, 0);
        assert_eq!(ts.len(), 1);
        assert_eq!(
            ts[0],
            Transition {
                next: 1,
                probability: 1.0,
                reward: -1.0
            }
        );
    }

    #[test]
    fn validate_accepts_good_mdps() {
        assert!(validate(&chain(5), 1e-9).is_ok());
        assert!(validate(&lossy_hop(0.7, 1.0, -1.0), 1e-9).is_ok());
    }

    #[test]
    fn validate_rejects_missing_transitions() {
        let m = TabularMdp::new(2, 1);
        let err = validate(&m, 1e-9).unwrap_err();
        assert!(err.contains("no transitions"), "{err}");
    }

    #[test]
    fn validate_rejects_bad_probability_sum() {
        let mut m = TabularMdp::new(2, 1);
        m.add(0, 0, 1, 0.6, 0.0);
        m.set_terminal(1);
        let err = validate(&m, 1e-9).unwrap_err();
        assert!(err.contains("sum"), "{err}");
    }

    #[test]
    fn validate_rejects_nonfinite_reward() {
        let mut m = TabularMdp::new(2, 1);
        m.add(0, 0, 1, 1.0, f64::NAN);
        m.set_terminal(1);
        assert!(validate(&m, 1e-9).is_err());
    }

    #[test]
    fn validate_ignores_terminal_states() {
        let mut m = TabularMdp::new(1, 1);
        m.set_terminal(0);
        assert!(validate(&m, 1e-9).is_ok());
    }
}
