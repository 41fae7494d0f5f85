//! LP model builder: variables with bounds, sparse rows, maximize objective.

use crate::simplex::{solve_simplex, SimplexOptions};
use crate::solution::LpSolution;
use crate::time::Deadline;
use std::sync::{Arc, OnceLock};

/// Index of a variable within an [`LpModel`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// Row sense of a linear constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RowSense {
    /// `Σ a_j x_j <= b`
    Le,
    /// `Σ a_j x_j >= b`
    Ge,
    /// `Σ a_j x_j == b`
    Eq,
}

/// A sparse row under construction.
#[derive(Clone, Debug)]
pub(crate) struct Row {
    pub(crate) coeffs: Vec<(usize, f64)>,
    pub(crate) sense: RowSense,
    pub(crate) rhs: f64,
}

/// The column-major computational form `A x + s = b` the simplex pivots
/// on: structural columns `0..n`, then the unit slack column of row `i` at
/// `n + i`, in one flat entry pool. It depends on the rows only, so
/// [`LpModel`] builds it once and every later solve — each
/// branch-and-bound node of a MIP, which only overwrites bounds — reuses it.
#[derive(Debug)]
pub(crate) struct ColumnForm {
    /// Start offset of each column in `entries`, plus the end sentinel.
    starts: Vec<usize>,
    /// `(row, coefficient)` pairs, rows increasing within a column.
    entries: Vec<(usize, f64)>,
    /// Right-hand side per row.
    pub(crate) b: Vec<f64>,
    /// Slack bounds encoding each row's sense.
    pub(crate) slack_lower: Vec<f64>,
    pub(crate) slack_upper: Vec<f64>,
}

impl ColumnForm {
    fn build(model: &LpModel) -> Self {
        let (n, m) = (model.num_vars(), model.num_rows());
        // counting sort of the row-major coefficients into columns
        let mut starts = vec![0usize; n + m + 1];
        for row in &model.rows {
            for &(j, _) in &row.coeffs {
                starts[j + 1] += 1;
            }
        }
        for j in 0..n + m {
            // slack columns hold one entry each
            starts[j + 1] = starts[j] + if j < n { starts[j + 1] } else { 1 };
        }
        let mut entries = vec![(0usize, 0.0f64); starts[n + m]];
        let mut cursor = starts[..n].to_vec();
        let mut b = Vec::with_capacity(m);
        let mut slack_lower = Vec::with_capacity(m);
        let mut slack_upper = Vec::with_capacity(m);
        for (i, row) in model.rows.iter().enumerate() {
            for &(j, a) in &row.coeffs {
                entries[cursor[j]] = (i, a);
                cursor[j] += 1;
            }
            entries[starts[n + i]] = (i, 1.0);
            b.push(row.rhs);
            let (sl, su) = match row.sense {
                RowSense::Le => (0.0, f64::INFINITY),
                RowSense::Ge => (f64::NEG_INFINITY, 0.0),
                RowSense::Eq => (0.0, 0.0),
            };
            slack_lower.push(sl);
            slack_upper.push(su);
        }
        ColumnForm {
            starts,
            entries,
            b,
            slack_lower,
            slack_upper,
        }
    }

    /// Column `j` (structural or slack).
    #[inline]
    pub(crate) fn col(&self, j: usize) -> &[(usize, f64)] {
        &self.entries[self.starts[j]..self.starts[j + 1]]
    }
}

/// A linear program in *maximization* form:
///
/// `max cᵀx  s.t.  rows,  l <= x <= u`.
///
/// Build with [`add_var`](Self::add_var) / [`add_row`](Self::add_row), then
/// call [`solve`](Self::solve). Minimization callers negate their objective.
#[derive(Clone, Debug, Default)]
pub struct LpModel {
    pub(crate) objective: Vec<f64>,
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) rows: Vec<Row>,
    /// Cached [`ColumnForm`]; dropped whenever a variable or row is added,
    /// kept across bound changes.
    form: OnceLock<Arc<ColumnForm>>,
}

impl LpModel {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a variable with bounds `[lower, upper]` and objective
    /// coefficient `obj`. `f64::NEG_INFINITY` / `f64::INFINITY` bounds are
    /// allowed (free variables).
    ///
    /// # Panics
    /// Panics if `lower > upper` or either bound is NaN.
    pub fn add_var(&mut self, lower: f64, upper: f64, obj: f64) -> VarId {
        assert!(!lower.is_nan() && !upper.is_nan(), "NaN bound");
        assert!(lower <= upper, "lower bound {lower} > upper bound {upper}");
        assert!(obj.is_finite(), "objective coefficient must be finite");
        self.form.take();
        self.objective.push(obj);
        self.lower.push(lower);
        self.upper.push(upper);
        VarId(self.objective.len() - 1)
    }

    /// Number of variables so far.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of rows so far.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Add a constraint row. Duplicate variable entries are summed.
    ///
    /// # Panics
    /// Panics on out-of-range variables or non-finite data.
    pub fn add_row(&mut self, coeffs: Vec<(VarId, f64)>, sense: RowSense, rhs: f64) {
        assert!(rhs.is_finite(), "rhs must be finite");
        let mut merged: std::collections::BTreeMap<usize, f64> = Default::default();
        for (v, a) in coeffs {
            assert!(
                v.0 < self.num_vars(),
                "row references unknown variable {v:?}"
            );
            assert!(a.is_finite(), "coefficient must be finite");
            *merged.entry(v.0).or_insert(0.0) += a;
        }
        let coeffs: Vec<(usize, f64)> = merged.into_iter().filter(|(_, a)| *a != 0.0).collect();
        self.form.take();
        self.rows.push(Row { coeffs, sense, rhs });
    }

    /// The computational form of the current rows, built on first use.
    pub(crate) fn column_form(&self) -> &ColumnForm {
        self.form.get_or_init(|| Arc::new(ColumnForm::build(self)))
    }

    /// Shorthand for a `<=` row.
    pub fn add_row_le(&mut self, coeffs: Vec<(VarId, f64)>, rhs: f64) {
        self.add_row(coeffs, RowSense::Le, rhs);
    }

    /// Shorthand for a `>=` row.
    pub fn add_row_ge(&mut self, coeffs: Vec<(VarId, f64)>, rhs: f64) {
        self.add_row(coeffs, RowSense::Ge, rhs);
    }

    /// Shorthand for an `==` row.
    pub fn add_row_eq(&mut self, coeffs: Vec<(VarId, f64)>, rhs: f64) {
        self.add_row(coeffs, RowSense::Eq, rhs);
    }

    /// Tighten a variable's bounds in place (used by branch-and-bound).
    ///
    /// # Panics
    /// Panics if the new bounds cross (`lower > upper`).
    pub fn set_bounds(&mut self, var: VarId, lower: f64, upper: f64) {
        assert!(
            lower <= upper,
            "crossed bounds for {var:?}: [{lower}, {upper}]"
        );
        self.lower[var.0] = lower;
        self.upper[var.0] = upper;
    }

    /// Current bounds of `var`.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        (self.lower[var.0], self.upper[var.0])
    }

    /// All lower bounds (used by branch-and-bound to snapshot/restore).
    pub fn lower_bounds(&self) -> &[f64] {
        &self.lower
    }

    /// All upper bounds.
    pub fn upper_bounds(&self) -> &[f64] {
        &self.upper
    }

    /// Replace every variable's bounds at once (lengths must match).
    ///
    /// # Panics
    /// Panics on length mismatch or crossed bounds.
    pub fn set_all_bounds(&mut self, lower: &[f64], upper: &[f64]) {
        assert_eq!(lower.len(), self.num_vars());
        assert_eq!(upper.len(), self.num_vars());
        for (j, (&l, &u)) in lower.iter().zip(upper).enumerate() {
            assert!(l <= u, "crossed bounds for var {j}: [{l}, {u}]");
        }
        self.lower.copy_from_slice(lower);
        self.upper.copy_from_slice(upper);
    }

    /// Objective coefficient of `var`.
    pub fn objective_of(&self, var: VarId) -> f64 {
        self.objective[var.0]
    }

    /// Evaluate `cᵀx` for an external point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Row activity `Σ a_j x_j` of row `i` at point `x`.
    pub fn row_activity(&self, i: usize, x: &[f64]) -> f64 {
        self.rows[i].coeffs.iter().map(|&(j, a)| a * x[j]).sum()
    }

    /// Check primal feasibility of an external point within tolerance.
    pub fn is_feasible_point(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        for ((&xj, &l), &u) in x.iter().zip(&self.lower).zip(&self.upper) {
            if xj < l - tol || xj > u + tol {
                return false;
            }
        }
        for (i, row) in self.rows.iter().enumerate() {
            let act = self.row_activity(i, x);
            let ok = match row.sense {
                RowSense::Le => act <= row.rhs + tol,
                RowSense::Ge => act >= row.rhs - tol,
                RowSense::Eq => (act - row.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Solve with default options and no deadline.
    pub fn solve(&self) -> LpSolution {
        solve_simplex(self, &SimplexOptions::default(), Deadline::none())
    }

    /// Solve with explicit options and deadline.
    pub fn solve_with(&self, options: &SimplexOptions, deadline: Deadline) -> LpSolution {
        solve_simplex(self, options, deadline)
    }

    /// Solve with an optional warm-start basis exported by a previous
    /// [`LpSolution::basis`](crate::LpSolution::basis) of a same-shaped
    /// model. A basis that is still primal-feasible continues with the
    /// primal simplex, one that is only dual-feasible (the state a bound
    /// change leaves an optimal basis in) is repaired by the dual simplex,
    /// and anything else falls back to a cold start; see
    /// [`crate::solution::Basis`].
    pub fn solve_warm(
        &self,
        options: &SimplexOptions,
        deadline: Deadline,
        warm: Option<&crate::solution::Basis>,
    ) -> LpSolution {
        self.solve_warm_above(options, deadline, warm, f64::NEG_INFINITY)
    }

    /// [`solve_warm`](Self::solve_warm) for a caller that only cares about
    /// optima above `cutoff` (branch-and-bound passes its incumbent): the
    /// dual simplex walks down from an upper bound on the optimum, and the
    /// solve stops with [`LpStatus::Cutoff`](crate::LpStatus::Cutoff) as
    /// soon as that bound is at or below `cutoff`. A solve that never runs
    /// the dual simplex ignores `cutoff`.
    pub fn solve_warm_above(
        &self,
        options: &SimplexOptions,
        deadline: Deadline,
        warm: Option<&crate::solution::Basis>,
        cutoff: f64,
    ) -> LpSolution {
        crate::simplex::solve_simplex_above(self, options, deadline, warm, cutoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_var_assigns_sequential_ids() {
        let mut m = LpModel::new();
        assert_eq!(m.add_var(0.0, 1.0, 1.0), VarId(0));
        assert_eq!(m.add_var(0.0, 1.0, 1.0), VarId(1));
        assert_eq!(m.num_vars(), 2);
    }

    #[test]
    fn duplicate_coefficients_are_merged() {
        let mut m = LpModel::new();
        let x = m.add_var(0.0, 10.0, 1.0);
        m.add_row_le(vec![(x, 1.0), (x, 2.0)], 6.0);
        assert_eq!(m.rows[0].coeffs, vec![(0, 3.0)]);
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let mut m = LpModel::new();
        let x = m.add_var(0.0, 10.0, 1.0);
        let y = m.add_var(0.0, 10.0, 1.0);
        m.add_row_le(vec![(x, 1.0), (y, 0.0)], 6.0);
        assert_eq!(m.rows[0].coeffs, vec![(0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn row_with_unknown_var_panics() {
        let mut m = LpModel::new();
        m.add_row_le(vec![(VarId(3), 1.0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "lower bound")]
    fn crossed_bounds_panic() {
        let mut m = LpModel::new();
        m.add_var(2.0, 1.0, 0.0);
    }

    #[test]
    fn feasibility_check() {
        let mut m = LpModel::new();
        let x = m.add_var(0.0, 5.0, 1.0);
        let y = m.add_var(0.0, 5.0, 1.0);
        m.add_row_le(vec![(x, 1.0), (y, 1.0)], 6.0);
        m.add_row_eq(vec![(x, 1.0), (y, -1.0)], 0.0);
        assert!(m.is_feasible_point(&[3.0, 3.0], 1e-9));
        assert!(!m.is_feasible_point(&[4.0, 3.0], 1e-9)); // eq violated
        assert!(!m.is_feasible_point(&[6.0, 6.0], 1e-9)); // le + bounds violated
        assert!(!m.is_feasible_point(&[1.0], 1e-9)); // wrong arity
    }

    #[test]
    fn objective_value_is_dot_product() {
        let mut m = LpModel::new();
        m.add_var(0.0, 1.0, 2.0);
        m.add_var(0.0, 1.0, -1.0);
        assert_eq!(m.objective_value(&[0.5, 1.0]), 0.0);
    }
}
