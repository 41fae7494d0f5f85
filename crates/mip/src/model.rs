//! MIP model builder: an [`LpModel`] plus integrality marks.

use crate::branch_and_bound::{solve_branch_and_bound, MipOptions};
use crate::solution::MipSolution;
use rasa_lp::{Deadline, LpModel, RowSense, VarId};

/// A mixed-integer program in maximization form.
#[derive(Clone, Debug, Default)]
pub struct MipModel {
    pub(crate) lp: LpModel,
    pub(crate) is_integer: Vec<bool>,
}

impl MipModel {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a continuous variable.
    pub fn add_var(&mut self, lower: f64, upper: f64, obj: f64) -> VarId {
        let v = self.lp.add_var(lower, upper, obj);
        self.is_integer.push(false);
        v
    }

    /// Add an integer variable. Bounds may be fractional; the solver only
    /// accepts integral *values* within them.
    pub fn add_int_var(&mut self, lower: f64, upper: f64, obj: f64) -> VarId {
        let v = self.lp.add_var(lower, upper, obj);
        self.is_integer.push(true);
        v
    }

    /// Add a binary (0/1) variable.
    pub fn add_bin_var(&mut self, obj: f64) -> VarId {
        self.add_int_var(0.0, 1.0, obj)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.lp.num_vars()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.lp.num_rows()
    }

    /// Is `v` marked integral?
    pub fn is_integer(&self, v: VarId) -> bool {
        self.is_integer[v.0]
    }

    /// Add a constraint row (duplicates merged, like [`LpModel::add_row`]).
    pub fn add_row(&mut self, coeffs: Vec<(VarId, f64)>, sense: RowSense, rhs: f64) {
        self.lp.add_row(coeffs, sense, rhs);
    }

    /// Shorthand for a `<=` row.
    pub fn add_row_le(&mut self, coeffs: Vec<(VarId, f64)>, rhs: f64) {
        self.lp.add_row_le(coeffs, rhs);
    }

    /// Shorthand for a `>=` row.
    pub fn add_row_ge(&mut self, coeffs: Vec<(VarId, f64)>, rhs: f64) {
        self.lp.add_row_ge(coeffs, rhs);
    }

    /// Shorthand for an `==` row.
    pub fn add_row_eq(&mut self, coeffs: Vec<(VarId, f64)>, rhs: f64) {
        self.lp.add_row_eq(coeffs, rhs);
    }

    /// Read-only access to the underlying LP (relaxation).
    pub fn lp(&self) -> &LpModel {
        &self.lp
    }

    /// Evaluate the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.lp.objective_value(x)
    }

    /// Check feasibility of a point including integrality (within `tol`).
    pub fn is_feasible_point(&self, x: &[f64], tol: f64) -> bool {
        if !self.lp.is_feasible_point(x, tol) {
            return false;
        }
        self.is_integer
            .iter()
            .zip(x)
            .all(|(&int, &v)| !int || (v - v.round()).abs() <= tol)
    }

    /// Solve with default options and no deadline.
    pub fn solve(&self) -> MipSolution {
        self.solve_with(&MipOptions::default(), Deadline::none())
    }

    /// Solve with explicit options and deadline.
    pub fn solve_with(&self, options: &MipOptions, deadline: Deadline) -> MipSolution {
        self.solve_to_target(options, deadline, f64::INFINITY)
    }

    /// Like [`solve_with`](Self::solve_with), but stop as soon as an
    /// incumbent's objective exceeds `target`. Such a stop is
    /// [`MipStatus::Feasible`](crate::MipStatus::Feasible) with the largest
    /// bound still open as `best_bound`; a solve whose optimum does not
    /// clear `target` runs exactly as `solve_with` would.
    pub fn solve_to_target(
        &self,
        options: &MipOptions,
        deadline: Deadline,
        target: f64,
    ) -> MipSolution {
        solve_branch_and_bound(self, options, deadline, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_kinds_are_tracked() {
        let mut m = MipModel::new();
        let a = m.add_var(0.0, 1.0, 1.0);
        let b = m.add_int_var(0.0, 5.0, 1.0);
        let c = m.add_bin_var(1.0);
        assert!(!m.is_integer(a));
        assert!(m.is_integer(b));
        assert!(m.is_integer(c));
        assert_eq!(m.num_vars(), 3);
    }

    #[test]
    fn integral_feasibility_check() {
        let mut m = MipModel::new();
        let a = m.add_int_var(0.0, 5.0, 1.0);
        let b = m.add_var(0.0, 5.0, 1.0);
        m.add_row_le(vec![(a, 1.0), (b, 1.0)], 6.0);
        assert!(m.is_feasible_point(&[2.0, 3.5], 1e-6));
        assert!(
            !m.is_feasible_point(&[2.5, 3.0], 1e-6),
            "a must be integral"
        );
        assert!(!m.is_feasible_point(&[4.0, 3.0], 1e-6), "row violated");
    }
}
