//! Dense action-value tables.
//!
//! Algorithm 4 of the paper keeps, per node, Q-values for every action
//! (forward to each cluster head, or to the BS) and a V-value per state
//! (`V*(b_i) = max_a Q*(b_i, a)`, Eq. 14). [`QTable`] is that storage in
//! row-major `states × actions` layout — one contiguous allocation, cache
//! friendly for the per-round full-row recomputation QLEC performs.

use serde::{Deserialize, Serialize};

/// Structured failure building tabular storage.
///
/// Dense action-value tables multiply two caller-supplied dimensions; on
/// a 64-bit host `n_states * n_actions` can wrap (or produce a byte
/// count past the allocator's `isize::MAX` ceiling) long before either
/// factor looks suspicious — `QTable::zeros(usize::MAX, 2)` used to wrap
/// to a *small* table whose `idx()` arithmetic then aliased rows. Every
/// construction path now goes through [`QTable::try_zeros`], which
/// reports the offending shape instead of wrapping or aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdpError {
    /// `n_states × actions` overflows, or its byte size exceeds what a
    /// single allocation may hold.
    TableTooLarge { n_states: usize, n_actions: usize },
}

impl std::fmt::Display for MdpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MdpError::TableTooLarge {
                n_states,
                n_actions,
            } => write!(
                f,
                "Q-table shape {n_states} states x {n_actions} actions \
                 overflows a single allocation"
            ),
        }
    }
}

impl std::error::Error for MdpError {}

/// A dense `states × actions` table of action values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QTable {
    n_states: usize,
    n_actions: usize,
    q: Vec<f64>,
}

impl QTable {
    /// All-zero table — the paper initializes "all the V values and Q
    /// values … to 0" (§4.2). Fails with [`MdpError::TableTooLarge`]
    /// when `n_states * n_actions` overflows `usize` or the resulting
    /// byte size cannot be represented by one allocation (`isize::MAX`),
    /// instead of silently wrapping the length arithmetic.
    pub fn try_zeros(n_states: usize, n_actions: usize) -> Result<Self, MdpError> {
        let len = n_states
            .checked_mul(n_actions)
            .filter(|&len| {
                len.checked_mul(std::mem::size_of::<f64>())
                    .is_some_and(|bytes| isize::try_from(bytes).is_ok())
            })
            .ok_or(MdpError::TableTooLarge {
                n_states,
                n_actions,
            })?;
        Ok(QTable {
            n_states,
            n_actions,
            q: vec![0.0; len],
        })
    }

    /// [`QTable::try_zeros`] for shapes known to be small (the exact
    /// solvers' `n_states × n_actions` reference problems).
    ///
    /// # Panics
    /// Panics with the structured [`MdpError`] message when the shape
    /// overflows — it no longer wraps to an aliased small table.
    pub fn zeros(n_states: usize, n_actions: usize) -> Self {
        Self::try_zeros(n_states, n_actions).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of states (rows).
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of actions (columns).
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    #[inline]
    fn idx(&self, s: usize, a: usize) -> usize {
        debug_assert!(
            s < self.n_states && a < self.n_actions,
            "({s},{a}) out of range"
        );
        s * self.n_actions + a
    }

    /// Read `Q(s, a)`.
    #[inline]
    pub fn get(&self, s: usize, a: usize) -> f64 {
        self.q[self.idx(s, a)]
    }

    /// Write `Q(s, a)`; returns the absolute change (used by convergence
    /// tracking — the paper's `X` counts updates until these deltas die
    /// out).
    #[inline]
    pub fn set(&mut self, s: usize, a: usize, value: f64) -> f64 {
        debug_assert!(value.is_finite(), "Q value must be finite, got {value}");
        let i = self.idx(s, a);
        let delta = (value - self.q[i]).abs();
        self.q[i] = value;
        delta
    }

    /// The whole row `Q(s, ·)`.
    #[inline]
    pub fn row(&self, s: usize) -> &[f64] {
        let start = s * self.n_actions;
        &self.q[start..start + self.n_actions]
    }

    /// `V(s) = max_a Q(s, a)` (Eq. 14). `None` for a zero-action table.
    pub fn v(&self, s: usize) -> Option<f64> {
        self.row(s).iter().copied().reduce(f64::max)
    }

    /// Greedy action `argmax_a Q(s, a)`, lowest index wins ties
    /// (deterministic, so seeded runs are reproducible). `None` for a
    /// zero-action table.
    pub fn greedy(&self, s: usize) -> Option<usize> {
        let row = self.row(s);
        let mut best: Option<(usize, f64)> = None;
        for (a, &q) in row.iter().enumerate() {
            match best {
                Some((_, bq)) if q <= bq => {}
                _ => best = Some((a, q)),
            }
        }
        best.map(|(a, _)| a)
    }

    /// Largest absolute Q-value (tests bound this by `r_max / (1 - γ)`).
    pub fn max_abs(&self) -> f64 {
        self.q.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_zeros_rejects_overflowing_shapes() {
        // The product wraps `usize`: usize::MAX * 2 ≡ usize::MAX - 1, a
        // small-looking length that would alias rows.
        assert_eq!(
            QTable::try_zeros(usize::MAX, 2),
            Err(MdpError::TableTooLarge {
                n_states: usize::MAX,
                n_actions: 2
            })
        );
        // The product fits `usize` but the byte size exceeds the
        // allocator's `isize::MAX` ceiling.
        assert!(QTable::try_zeros(1 << 40, 1 << 22).is_err());
        // The error renders the offending shape.
        let msg = QTable::try_zeros(usize::MAX, 2).unwrap_err().to_string();
        assert!(msg.contains("overflows"), "{msg}");
        // Ordinary shapes still build, including degenerate empties.
        assert!(QTable::try_zeros(3, 4).is_ok());
        assert!(QTable::try_zeros(0, 0).is_ok());
    }

    #[test]
    #[should_panic(expected = "overflows a single allocation")]
    fn zeros_panics_with_structured_message_on_overflow() {
        let _ = QTable::zeros(usize::MAX, 2);
    }

    #[test]
    fn zeros_and_shape() {
        let t = QTable::zeros(3, 4);
        assert_eq!(t.n_states(), 3);
        assert_eq!(t.n_actions(), 4);
        assert_eq!(t.get(2, 3), 0.0);
        assert_eq!(t.v(0), Some(0.0));
        assert_eq!(t.max_abs(), 0.0);
    }

    #[test]
    fn set_get_and_delta() {
        let mut t = QTable::zeros(2, 2);
        assert_eq!(t.set(0, 1, 5.0), 5.0);
        assert_eq!(t.get(0, 1), 5.0);
        assert_eq!(t.set(0, 1, 3.0), 2.0);
        assert_eq!(t.get(0, 1), 3.0);
        // Other cells untouched.
        assert_eq!(t.get(0, 0), 0.0);
        assert_eq!(t.get(1, 1), 0.0);
    }

    #[test]
    fn v_is_row_max() {
        let mut t = QTable::zeros(1, 3);
        t.set(0, 0, -1.0);
        t.set(0, 1, 4.0);
        t.set(0, 2, 2.0);
        assert_eq!(t.v(0), Some(4.0));
    }

    #[test]
    fn greedy_ties_break_low() {
        let mut t = QTable::zeros(1, 3);
        t.set(0, 1, 7.0);
        t.set(0, 2, 7.0);
        assert_eq!(t.greedy(0), Some(1));
    }

    #[test]
    fn zero_action_table() {
        let t = QTable::zeros(2, 0);
        assert_eq!(t.v(0), None);
        assert_eq!(t.greedy(0), None);
    }

    #[test]
    fn row_layout() {
        let mut t = QTable::zeros(2, 3);
        t.set(1, 0, 1.0);
        t.set(1, 2, 2.0);
        assert_eq!(t.row(1), &[1.0, 0.0, 2.0]);
        assert_eq!(t.row(0), &[0.0, 0.0, 0.0]);
    }
}
