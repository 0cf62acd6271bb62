//! Tabular MDP machinery for the QLEC reproduction, and the exact
//! reference solution the Q-routing rule is checked against.
//!
//! §3.3 of the paper frames the cluster-head choice of a non-head node as a
//! finite Markov Decision Process and solves it with a *model-based*
//! Q-update (Eq. 15 / Algorithm 4): the agent computes the expectation over
//! next states analytically from its estimated link probabilities, instead
//! of sampling a single transition:
//!
//! ```text
//! Q*(Sₜ, Aₜ) = Rₜ + γ · Σ_{Sₜ₊₁} P^{Aₜ}_{Sₜ Sₜ₊₁} · max_a Q*(Sₜ₊₁, a)
//! ```
//!
//! This crate keeps that machinery generic, independent of the
//! sensor-network semantics, so it serves as the Q-routing oracle: the
//! root `tests/oracles.rs` writes a frozen network out as a
//! [`mdp::TabularMdp`] from Eq. 16–20 and checks that `qlec-core`'s
//! `Send-Data` fixed point lands on the values and greedy policy solved
//! here.
//!
//! * [`mdp::FiniteMdp`] — an explicit finite MDP (transition triples),
//! * [`qtable::QTable`] — a dense `states × actions` action-value table,
//! * [`solver`] — value iteration and expected (model-based) Q-updates,
//! * [`policy_iteration`] — a second exact solver cross-validating value
//!   iteration,
//! * [`convergence`] — update counting and Δ-tracking; `X`, the number of
//!   updates to convergence, is the quantity in the paper's `O(kX)` running
//!   time (Lemma 3 / Theorem 3).

pub mod convergence;
pub mod mdp;
pub mod policy_iteration;
pub mod qtable;
pub mod solver;

pub use convergence::{ConvergenceTracker, UpdateCounter};
pub use mdp::{FiniteMdp, Transition};
pub use qtable::{MdpError, QTable};
