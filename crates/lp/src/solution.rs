//! Solver results.

/// Per-solve simplex telemetry, returned on every [`LpSolution`] and
/// flushed into the global [`rasa_obs`] registry under `simplex.*`.
/// Deterministic tests assert on this struct; the registry is best-effort
/// aggregate telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimplexStats {
    /// Basis-exchange pivots (excludes bound flips).
    pub pivots: usize,
    /// Nonbasic bound-to-bound flips.
    pub bound_flips: usize,
    /// From-scratch basis-inverse refactorizations.
    pub refactorizations: usize,
    /// Refactorization attempts that found the basis numerically singular
    /// (warm-start bases rejected for this reason, or mid-solve bail-outs).
    pub refactor_singular: usize,
    /// Product-form eta updates appended to the factorization between
    /// refactorizations (one per basis-exchange pivot in the sparse kernel;
    /// always 0 in the dense reference kernel).
    pub eta_updates: usize,
    /// Total nonzeros stored across all eta updates this solve — the
    /// fill-in the eta file accumulated before each refactorization reset.
    pub eta_nnz: usize,
    /// Degenerate ratio-test ties resolved by the Harris-style
    /// magnitude-preferring second pass (more than one row tied within the
    /// relaxed ratio bound; always 0 in the dense reference kernel, which
    /// keeps the historical first-row tie-break).
    pub harris_ties: usize,
    /// Times the pricing rule switched to Bland's rule (sticky within a
    /// solve, so at most 1 unless the solve is restarted).
    pub bland_activations: usize,
    /// Iterations spent driving artificials out (phase 1).
    pub phase1_iterations: usize,
    /// Primal iterations spent on the true objective (phase 2).
    pub phase2_iterations: usize,
    /// Dual-simplex iterations spent repairing a warm-start basis that was
    /// dual-feasible but primal-infeasible (always 0 on a cold solve and in
    /// the dense reference kernel).
    pub dual_iterations: usize,
    /// A supplied warm-start basis was used: either primal-feasible as it
    /// stood, or repaired by the dual simplex (phase 1 skipped either way).
    pub warm_accepted: bool,
    /// A supplied warm-start basis was rejected (wrong shape, singular,
    /// neither primal- nor dual-feasible under the current model, or the
    /// dual repair failed numerically) and the solve fell back to a cold
    /// two-phase start.
    pub warm_rejected: bool,
}

/// A simplex basis, detached from any particular solve.
///
/// Column indexing follows the solver's computational form: structural
/// variables occupy columns `0..n` (in [`LpModel`](crate::LpModel) variable
/// order) and the slack of row `i` occupies column `n + i`. Artificial
/// variables are never part of an exported basis.
///
/// A `Basis` taken from [`LpSolution::basis`] can warm-start a later solve
/// of the *same-shaped* model (same variable and row counts) via
/// [`LpModel::solve_warm`](crate::LpModel::solve_warm), even after bounds,
/// objective, or right-hand sides changed. The solver re-validates it and
/// picks the cheapest way to use it:
///
/// * still primal-feasible (objective or column changes) → the primal
///   simplex continues from it;
/// * primal-infeasible but dual-feasible (tightened bounds or moved
///   right-hand sides — every branch-and-bound child of an optimal parent)
///   → the dual simplex repairs it, then the primal simplex confirms;
///   boxed nonbasic variables are moved to whichever bound makes their
///   reduced cost dual-feasible first;
/// * misshapen, singular, feasible in neither sense, or numerically
///   troublesome during the repair → a cold two-phase start.
///
/// Which of these happened is reported in
/// [`SimplexStats::warm_accepted`] / [`SimplexStats::warm_rejected`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Basis {
    /// `basic[i]` is the column basic in row `i` (length = number of rows).
    pub basic: Vec<usize>,
    /// For each of the `n + m` columns: whether a *nonbasic* variable rests
    /// at its upper bound (entries for basic columns are ignored).
    pub at_upper: Vec<bool>,
}

/// Termination status of a simplex run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded above over the feasible region.
    Unbounded,
    /// The iteration or wall-clock budget ran out; `x` holds the best
    /// feasible iterate if phase 1 finished, otherwise it is meaningless.
    IterationLimit,
    /// The dual simplex proved the optimum is at or below the caller's
    /// cutoff ([`LpModel::solve_warm_above`](crate::LpModel::solve_warm_above))
    /// and stopped; `objective` holds the bound it reached, `x` is not
    /// feasible.
    Cutoff,
}

/// Result of solving an [`LpModel`](crate::LpModel).
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Why the solver stopped.
    pub status: LpStatus,
    /// Objective value `cᵀx` (only meaningful for `Optimal`, or for
    /// `IterationLimit` when `feasible` is `true`).
    pub objective: f64,
    /// Primal values per variable.
    pub x: Vec<f64>,
    /// Dual value per row (the simplex multipliers `y`). For a maximization
    /// with `<=` rows, optimal duals are non-negative; column generation
    /// uses these for pricing.
    pub duals: Vec<f64>,
    /// `true` if `x` satisfies all constraints within tolerance (phase 1
    /// completed).
    pub feasible: bool,
    /// Simplex iterations performed (both phases).
    pub iterations: usize,
    /// Per-solve telemetry (pivots, refactorizations, Bland activations).
    pub stats: SimplexStats,
    /// The final basis, exported for warm-starting a re-solve of a
    /// perturbed model. `None` when the solve did not reach a feasible
    /// basis free of artificial variables (or the model had no rows).
    pub basis: Option<Basis>,
}

impl LpSolution {
    /// An infeasible verdict with empty data.
    pub(crate) fn infeasible(num_vars: usize, num_rows: usize, iterations: usize) -> Self {
        LpSolution {
            status: LpStatus::Infeasible,
            objective: f64::NEG_INFINITY,
            x: vec![0.0; num_vars],
            duals: vec![0.0; num_rows],
            feasible: false,
            iterations,
            stats: SimplexStats::default(),
            basis: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infeasible_constructor_shapes_output() {
        let s = LpSolution::infeasible(3, 2, 17);
        assert_eq!(s.status, LpStatus::Infeasible);
        assert_eq!(s.x.len(), 3);
        assert_eq!(s.duals.len(), 2);
        assert_eq!(s.iterations, 17);
        assert!(!s.feasible);
    }
}
