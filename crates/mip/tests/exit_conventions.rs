//! Every branch-and-bound exit path must follow one sign convention for
//! `best_bound` / `gap` (maximization — see the table on `MipSolution`):
//! proven verdicts (Infeasible, Unbounded) have objective and bound
//! agreeing and gap 0; NoSolution has gap infinity; exits with an
//! incumbent have `best_bound >= objective` and the documented relative
//! gap.  The historical bug: the root-unbounded exit and the
//! heap-exhausted-without-incumbent exit disagreed with the other
//! infeasible/unbounded sites (infinite gap, stale bound).

use rasa_lp::Deadline;
use rasa_mip::{MipModel, MipOptions, MipStatus, GAP_TOL};

fn opts() -> MipOptions {
    MipOptions::default()
}

#[test]
fn integer_bound_tightening_infeasibility() {
    // An integer variable boxed into (0.3, 0.7) admits no integer at all;
    // detected before the root LP is even solved.
    let mut m = MipModel::new();
    m.add_int_var(0.3, 0.7, 1.0);
    let sol = m.solve_with(&opts(), Deadline::none());
    assert_eq!(sol.status, MipStatus::Infeasible);
    assert_eq!(sol.objective, f64::NEG_INFINITY);
    assert_eq!(sol.best_bound, f64::NEG_INFINITY);
    assert_eq!(sol.gap, 0.0);
}

#[test]
fn root_relaxation_infeasibility() {
    // x >= 0 and x <= -1 conflict: the root LP itself is infeasible.
    let mut m = MipModel::new();
    let x = m.add_int_var(0.0, 10.0, 1.0);
    m.add_row_le(vec![(x, 1.0)], -1.0);
    let sol = m.solve_with(&opts(), Deadline::none());
    assert_eq!(sol.status, MipStatus::Infeasible);
    assert_eq!(sol.objective, f64::NEG_INFINITY);
    assert_eq!(sol.best_bound, f64::NEG_INFINITY);
    assert_eq!(sol.gap, 0.0);
}

#[test]
fn root_relaxation_unbounded() {
    // Maximize x with no upper bound or rows: unbounded above.  The
    // verdict is proven, so objective == best_bound == +inf and gap == 0
    // (the old exit reported an infinite gap here).
    let mut m = MipModel::new();
    m.add_int_var(0.0, f64::INFINITY, 1.0);
    let sol = m.solve_with(&opts(), Deadline::none());
    assert_eq!(sol.status, MipStatus::Unbounded);
    assert_eq!(sol.objective, f64::INFINITY);
    assert_eq!(sol.best_bound, f64::INFINITY);
    assert_eq!(sol.gap, 0.0);
}

#[test]
fn root_relaxation_iteration_limit_is_no_solution() {
    // A zero simplex iteration budget kills the root LP before anything
    // is proven: no incumbent, no bound, infinite gap.
    let mut m = MipModel::new();
    let x = m.add_int_var(0.0, 2.0, 1.0);
    m.add_row_le(vec![(x, 1.0)], 1.5);
    let mut o = opts();
    o.lp.max_iterations = 0;
    let sol = m.solve_with(&o, Deadline::none());
    assert_eq!(sol.status, MipStatus::NoSolution);
    assert_eq!(sol.objective, f64::NEG_INFINITY);
    assert_eq!(sol.best_bound, f64::INFINITY);
    assert_eq!(sol.gap, f64::INFINITY);
}

#[test]
fn heap_exhausted_without_incumbent_is_proven_infeasible() {
    // 0.4 <= x <= 0.6 via rows: the LP is feasible but no integer fits.
    // Both children of the root branch are infeasible, the heap drains,
    // and that PROVES infeasibility — same convention as the root exits
    // (the old code left the stale root bound and an infinite gap).
    let mut m = MipModel::new();
    let x = m.add_int_var(0.0, 10.0, 1.0);
    m.add_row_le(vec![(x, 2.0)], 1.2);
    m.add_row_le(vec![(x, -2.0)], -0.8);
    let sol = m.solve_with(&opts(), Deadline::none());
    assert_eq!(sol.status, MipStatus::Infeasible);
    assert_eq!(sol.objective, f64::NEG_INFINITY);
    assert_eq!(sol.best_bound, f64::NEG_INFINITY);
    assert_eq!(sol.gap, 0.0);
}

#[test]
fn optimal_exit_has_consistent_bound_and_gap() {
    // Small knapsack with a fractional relaxation: branching required.
    let mut m = MipModel::new();
    let a = m.add_int_var(0.0, 1.0, 8.0);
    let b = m.add_int_var(0.0, 1.0, 11.0);
    let c = m.add_int_var(0.0, 1.0, 6.0);
    let d = m.add_int_var(0.0, 1.0, 4.0);
    m.add_row_le(vec![(a, 5.0), (b, 7.0), (c, 4.0), (d, 3.0)], 14.0);
    let sol = m.solve_with(&opts(), Deadline::none());
    assert_eq!(sol.status, MipStatus::Optimal);
    assert!(
        (sol.objective - 21.0).abs() < 1e-6,
        "obj = {}",
        sol.objective
    );
    assert!(sol.best_bound >= sol.objective);
    assert!(sol.best_bound.is_finite());
    let expected = ((sol.best_bound - sol.objective) / sol.objective.abs().max(1.0)).max(0.0);
    assert!((sol.gap - expected).abs() < 1e-12);
    assert!(sol.gap <= GAP_TOL);
}

#[test]
fn node_budget_exhaustion_with_incumbent_is_feasible() {
    // Zero node budget, but the root heuristics still produce an
    // incumbent: anytime exit with bound >= objective and a finite gap.
    let mut m = MipModel::new();
    let a = m.add_int_var(0.0, 1.0, 8.0);
    let b = m.add_int_var(0.0, 1.0, 11.0);
    let c = m.add_int_var(0.0, 1.0, 6.0);
    let d = m.add_int_var(0.0, 1.0, 4.0);
    m.add_row_le(vec![(a, 5.0), (b, 7.0), (c, 4.0), (d, 3.0)], 14.0);
    let mut o = opts();
    o.max_nodes = 0;
    let sol = m.solve_with(&o, Deadline::none());
    assert_eq!(sol.status, MipStatus::Feasible);
    assert!(sol.objective.is_finite());
    assert!(sol.best_bound >= sol.objective);
    assert!(sol.gap.is_finite());
    let expected = ((sol.best_bound - sol.objective) / sol.objective.abs().max(1.0)).max(0.0);
    assert!((sol.gap - expected).abs() < 1e-12);
}

#[test]
fn target_exit_is_feasible_with_the_open_bound() {
    // The same knapsack (optimum 21) with a target any packing clears: the
    // root heuristics, or with them off the first integral node, end the
    // search before the tree proves anything.
    let mut m = MipModel::new();
    let a = m.add_int_var(0.0, 1.0, 8.0);
    let b = m.add_int_var(0.0, 1.0, 11.0);
    let c = m.add_int_var(0.0, 1.0, 6.0);
    let d = m.add_int_var(0.0, 1.0, 4.0);
    m.add_row_le(vec![(a, 5.0), (b, 7.0), (c, 4.0), (d, 3.0)], 14.0);
    let target = 1.0;
    let mut bare = opts();
    bare.rounding_every = 0;
    bare.dive = false;
    for o in [opts(), bare] {
        let sol = m.solve_to_target(&o, Deadline::none(), target);
        assert_eq!(sol.status, MipStatus::Feasible);
        assert!(sol.objective > target && sol.objective <= 21.0 + 1e-6);
        assert!(m.is_feasible_point(&sol.x, 1e-6));
        assert!(sol.best_bound >= sol.objective);
        assert!(
            sol.best_bound >= 21.0 - 1e-6,
            "the open bound covers the optimum"
        );
        assert!(sol.gap.is_finite());
        let expected = ((sol.best_bound - sol.objective) / sol.objective.abs().max(1.0)).max(0.0);
        assert!((sol.gap - expected).abs() < 1e-12);
    }
}

#[test]
fn node_budget_exhaustion_without_incumbent_is_no_solution() {
    // Zero node budget AND heuristics disabled: stopped early with
    // nothing proven — the root bound survives, the gap is infinite.
    let mut m = MipModel::new();
    let a = m.add_int_var(0.0, 1.0, 8.0);
    let b = m.add_int_var(0.0, 1.0, 11.0);
    let c = m.add_int_var(0.0, 1.0, 6.0);
    m.add_row_le(vec![(a, 5.0), (b, 7.0), (c, 4.0)], 9.0);
    let mut o = opts();
    o.max_nodes = 0;
    o.rounding_every = 0;
    o.dive = false;
    let sol = m.solve_with(&o, Deadline::none());
    assert_eq!(sol.status, MipStatus::NoSolution);
    assert_eq!(sol.objective, f64::NEG_INFINITY);
    assert!(sol.best_bound.is_finite(), "root bound should survive");
    assert_eq!(sol.gap, f64::INFINITY);
}
