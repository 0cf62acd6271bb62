//! Model-based solvers: expected Q-updates and value iteration.
//!
//! [`expected_q`] is the paper's Eq. 15 for one state–action pair — the
//! update QLEC's `Send-Data` (Algorithm 4) performs for every candidate
//! cluster head: "nodes are capable of computing the Q values of all the
//! actions based on their own knowledge … rather than take real actions"
//! (§3.3). [`value_iteration`] sweeps that update to a fixed point and is
//! the reference solution the `Send-Data` fixed point is tested against.

use crate::convergence::{ConvergenceTracker, UpdateCounter};
use crate::mdp::FiniteMdp;
use crate::qtable::QTable;

/// The expected (model-based) Q-value of `(s, a)` given the current value
/// estimates `v`:
///
/// ```text
/// Q(s, a) = Σ_{s'} P^a_{ss'} · R^a_{ss'}  +  γ · Σ_{s'} P^a_{ss'} · V(s')
/// ```
///
/// The first sum is the paper's `R_t` (Eq. 10/16); the second is the
/// discounted expected continuation (Eq. 15). Terminal next states
/// contribute no continuation value.
pub fn expected_q<M: FiniteMdp>(mdp: &M, s: usize, a: usize, gamma: f64, v: &[f64]) -> f64 {
    let mut r_t = 0.0;
    let mut cont = 0.0;
    for t in mdp.transitions(s, a) {
        r_t += t.probability * t.reward;
        if !mdp.is_terminal(t.next) {
            cont += t.probability * v[t.next];
        }
    }
    r_t + gamma * cont
}

/// Result of a [`value_iteration`] run.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Converged action-value table.
    pub q: QTable,
    /// Converged state values (`V(s) = max_a Q(s, a)`).
    pub v: Vec<f64>,
    /// Number of full sweeps performed.
    pub sweeps: u64,
    /// Total elementary Q-updates — the paper's `X`.
    pub updates: u64,
    /// Whether the tolerance was reached before `max_sweeps`.
    pub converged: bool,
}

impl Solution {
    /// The greedy policy of the converged table.
    pub fn policy(&self) -> Vec<usize> {
        (0..self.q.n_states())
            .map(|s| self.q.greedy(s).unwrap_or(0))
            .collect()
    }
}

/// Synchronous value iteration over the full state–action space.
///
/// Sweeps `Q(s,a) ← expected_q(s,a)` for all pairs until the largest
/// V-change falls below `tolerance` or `max_sweeps` is hit. With
/// `γ ∈ [0,1)` and bounded rewards this is a γ-contraction, so it always
/// converges; the returned [`Solution::updates`] is the empirical `X`.
///
/// ```
/// use qlec_mdp::mdp::TabularMdp;
/// use qlec_mdp::solver::value_iteration;
/// // One lossy hop: succeed with p = 0.5 (reward 1), else self-loop.
/// let mut m = TabularMdp::new(2, 1);
/// m.add(0, 0, 1, 0.5, 1.0);
/// m.add(0, 0, 0, 0.5, 0.0);
/// m.set_terminal(1);
/// let sol = value_iteration(&m, 0.9, 1e-12, 10_000);
/// assert!(sol.converged);
/// // Fixed point: V = 0.5 / (1 - 0.9·0.5).
/// assert!((sol.v[0] - 0.5 / 0.55).abs() < 1e-9);
/// ```
pub fn value_iteration<M: FiniteMdp>(
    mdp: &M,
    gamma: f64,
    tolerance: f64,
    max_sweeps: u64,
) -> Solution {
    assert!(
        (0.0..1.0).contains(&gamma),
        "gamma must be in [0,1) for guaranteed convergence"
    );
    let ns = mdp.n_states();
    let na = mdp.n_actions();
    let mut q = QTable::zeros(ns, na); // checked shape: panics structurally, never wraps
    let mut v = vec![0.0; ns]; // one dimension, no product to overflow
    let mut tracker = ConvergenceTracker::new(tolerance);
    let mut counter = UpdateCounter::new();
    let mut converged = false;

    for _ in 0..max_sweeps {
        for s in 0..ns {
            if mdp.is_terminal(s) {
                continue;
            }
            for a in 0..na {
                let nq = expected_q(mdp, s, a, gamma, &v);
                q.set(s, a, nq);
                counter.bump();
            }
            let nv = q.v(s).unwrap_or(0.0);
            tracker.observe((nv - v[s]).abs());
            v[s] = nv;
        }
        if tracker.end_sweep() {
            converged = true;
            break;
        }
    }

    Solution {
        q,
        v,
        sweeps: tracker.sweeps(),
        updates: counter.total(),
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdp::fixtures::{chain, lossy_hop};
    use proptest::prelude::*;

    #[test]
    fn chain_optimal_values() {
        // With gamma = 1 - eps the optimal plan is "always move right";
        // V(s) ≈ -(n-1-s) for small discounting. Use gamma close to 1.
        let n = 6;
        let m = chain(n);
        let sol = value_iteration(&m, 0.999, 1e-10, 10_000);
        assert!(sol.converged);
        for s in 0..n - 1 {
            let want = -((n - 1 - s) as f64);
            assert!(
                (sol.v[s] - want).abs() < 0.02,
                "V({s}) = {} want ≈ {want}",
                sol.v[s]
            );
        }
        // Optimal policy: always action 0 (move right).
        assert!(sol.policy()[..n - 1].iter().all(|&a| a == 0));
    }

    #[test]
    fn lossy_hop_closed_form() {
        // Single action with success probability p, reward r_ok on success
        // and r_fail on self-loop. Fixed point:
        //   Q = p·r_ok + (1-p)·r_fail + γ(1-p)·Q
        // (terminal target contributes no continuation), so
        //   Q = (p·r_ok + (1-p)·r_fail) / (1 - γ(1-p)).
        let (p, r_ok, r_fail, gamma) = (0.7, 2.0, -1.0, 0.95);
        let m = lossy_hop(p, r_ok, r_fail);
        let sol = value_iteration(&m, gamma, 1e-12, 100_000);
        assert!(sol.converged);
        let want = (p * r_ok + (1.0 - p) * r_fail) / (1.0 - gamma * (1.0 - p));
        assert!(
            (sol.v[0] - want).abs() < 1e-9,
            "V = {} want {want}",
            sol.v[0]
        );
    }

    #[test]
    fn expected_q_matches_hand_computation() {
        let m = lossy_hop(0.5, 1.0, -1.0);
        let v = vec![10.0, 99.0]; // state 1 is terminal — its V must be ignored
        let q = expected_q(&m, 0, 0, 0.9, &v);
        // R_t = 0.5·1 + 0.5·(-1) = 0; continuation = 0.9·0.5·V(0) = 4.5.
        assert!((q - 4.5).abs() < 1e-12);
    }

    #[test]
    fn terminal_states_have_zero_value() {
        let m = chain(4);
        let sol = value_iteration(&m, 0.9, 1e-10, 1000);
        assert_eq!(sol.v[3], 0.0);
    }

    #[test]
    fn update_count_scales_with_state_action_space() {
        // X (updates to convergence) should grow with problem size — the
        // O(kX) claim's X is measurable.
        let small = value_iteration(&chain(4), 0.9, 1e-9, 10_000);
        let large = value_iteration(&chain(64), 0.9, 1e-9, 10_000);
        assert!(small.converged && large.converged);
        assert!(large.updates > small.updates);
        // Per sweep, updates = (non-terminal states) × actions.
        assert_eq!(small.updates, small.sweeps * 3 * 2);
    }

    #[test]
    fn hitting_max_sweeps_reports_unconverged() {
        let sol = value_iteration(&chain(50), 0.999, 1e-15, 3);
        assert!(!sol.converged);
        assert_eq!(sol.sweeps, 3);
    }

    proptest! {
        /// Q-values are bounded by r_max / (1 - γ) for any lossy hop.
        #[test]
        fn q_bounded(p in 0.01..1.0f64, r_ok in -5.0..5.0f64,
                     r_fail in -5.0..5.0f64, gamma in 0.0..0.99f64) {
            let m = lossy_hop(p, r_ok, r_fail);
            let sol = value_iteration(&m, gamma, 1e-9, 200_000);
            let r_max = r_ok.abs().max(r_fail.abs());
            let bound = r_max / (1.0 - gamma) + 1e-6;
            prop_assert!(sol.q.max_abs() <= bound,
                "Q {} exceeds bound {bound}", sol.q.max_abs());
        }

        /// Value iteration converges for every discount below 1.
        #[test]
        fn always_converges(p in 0.05..1.0f64, gamma in 0.0..0.95f64) {
            let m = lossy_hop(p, 1.0, -1.0);
            let sol = value_iteration(&m, gamma, 1e-8, 100_000);
            prop_assert!(sol.converged);
        }
    }
}
