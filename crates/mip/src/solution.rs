//! MIP solver results.

/// Why branch-and-bound stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MipStatus {
    /// The incumbent is optimal within the gap tolerance.
    Optimal,
    /// A feasible incumbent exists but the node/time budget ran out before
    /// optimality was proven — the paper's anytime mode — or the incumbent
    /// cleared the target of
    /// [`MipModel::solve_to_target`](crate::MipModel::solve_to_target).
    Feasible,
    /// The problem has no feasible integral point.
    Infeasible,
    /// The relaxation is unbounded.
    Unbounded,
    /// Budget exhausted before any incumbent was found.
    NoSolution,
}

/// Result of a branch-and-bound run.
///
/// Every exit path follows one sign convention for this maximization
/// solver:
///
/// | status       | `objective` | `best_bound`            | `gap`      |
/// |--------------|-------------|-------------------------|------------|
/// | `Optimal`    | incumbent   | `>= objective`, finite  | `<= tol`   |
/// | `Feasible`   | incumbent   | `>= objective`, open    | finite     |
/// | `Infeasible` | `-inf`      | `-inf`                  | `0`        |
/// | `Unbounded`  | `+inf`      | `+inf`                  | `0`        |
/// | `NoSolution` | `-inf`      | best proven (may `+inf`)| `+inf`     |
///
/// Proven verdicts (`Infeasible`, `Unbounded`) have objective and bound
/// agreeing, hence gap 0; `NoSolution` proves nothing, hence gap infinity.
/// `Feasible` covers every early stop with an incumbent — node cap,
/// deadline, a node LP that could not be solved, or an incumbent above the
/// caller's target — and its `best_bound` is the largest bound still open
/// when the search stopped.
#[derive(Clone, Debug)]
pub struct MipSolution {
    /// Final status.
    pub status: MipStatus,
    /// Incumbent objective (meaningful for `Optimal` / `Feasible`).
    pub objective: f64,
    /// Incumbent point (integral within tolerance).
    pub x: Vec<f64>,
    /// Best proven upper bound on the optimum. Never below `objective`
    /// when an incumbent exists.
    pub best_bound: f64,
    /// Relative optimality gap `(best_bound − objective) / max(|objective|, 1)`,
    /// clamped to `>= 0`.
    pub gap: f64,
    /// Branch-and-bound nodes processed.
    pub nodes: usize,
    /// Total simplex iterations across all LP relaxations.
    pub lp_iterations: usize,
}

impl MipSolution {
    /// `true` if a usable incumbent is present.
    pub fn has_incumbent(&self) -> bool {
        matches!(self.status, MipStatus::Optimal | MipStatus::Feasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_incumbent_matches_status() {
        let base = MipSolution {
            status: MipStatus::Optimal,
            objective: 1.0,
            x: vec![],
            best_bound: 1.0,
            gap: 0.0,
            nodes: 1,
            lp_iterations: 0,
        };
        assert!(base.has_incumbent());
        assert!(MipSolution {
            status: MipStatus::Feasible,
            ..base.clone()
        }
        .has_incumbent());
        assert!(!MipSolution {
            status: MipStatus::Infeasible,
            ..base.clone()
        }
        .has_incumbent());
        assert!(!MipSolution {
            status: MipStatus::NoSolution,
            ..base
        }
        .has_incumbent());
    }
}
