//! Warm-start basis tests: a re-solve seeded with the final basis of a
//! previous solve must skip phase 1, survive perturbations of bounds /
//! objective / right-hand sides — by primal simplex while the basis stays
//! primal-feasible, by dual simplex when only dual feasibility is left —
//! and fall back to a cold start when the basis no longer validates.

use rasa_lp::{Basis, Deadline, LpModel, LpStatus, SimplexOptions};

const TOL: f64 = 1e-7;

/// An LP whose cold solve needs artificial variables (a `>=` row cut off
/// from the origin), so phase-1 iterations are observable.
fn covering_lp() -> LpModel {
    // max -2x - 3y ; x + y >= 4 ; x + 3y >= 6 ; x,y ∈ [0, 10]
    let mut m = LpModel::new();
    let x = m.add_var(0.0, 10.0, -2.0);
    let y = m.add_var(0.0, 10.0, -3.0);
    m.add_row_ge(vec![(x, 1.0), (y, 1.0)], 4.0);
    m.add_row_ge(vec![(x, 1.0), (y, 3.0)], 6.0);
    m
}

#[test]
fn solution_exports_a_basis() {
    let m = covering_lp();
    let sol = m.solve();
    assert_eq!(sol.status, LpStatus::Optimal);
    let basis = sol.basis.expect("optimal solve should export a basis");
    assert_eq!(basis.basic.len(), 2); // one basic column per row
    assert_eq!(basis.at_upper.len(), 2 + 2); // structural + slacks
    assert!(basis.basic.iter().all(|&j| j < 4));
}

#[test]
fn warm_resolve_skips_phase1_and_matches_cold() {
    let m = covering_lp();
    let cold = m.solve();
    assert_eq!(cold.status, LpStatus::Optimal);
    assert!(cold.stats.phase1_iterations > 0, "test wants a phase-1 LP");

    let warm = m.solve_warm(
        &SimplexOptions::default(),
        Deadline::none(),
        cold.basis.as_ref(),
    );
    assert_eq!(warm.status, LpStatus::Optimal);
    assert!(warm.stats.warm_accepted);
    assert!(!warm.stats.warm_rejected);
    assert_eq!(warm.stats.phase1_iterations, 0, "phase 1 must be skipped");
    assert!((warm.objective - cold.objective).abs() < TOL);
    // Re-solving at the optimum should need no pivots at all.
    assert_eq!(warm.stats.pivots, 0);
}

#[test]
fn warm_start_survives_rhs_perturbation() {
    let base = covering_lp();
    let cold = base.solve();
    let basis = cold.basis.clone().expect("basis");

    // Same shape, slightly different right-hand sides.
    let mut perturbed = LpModel::new();
    let x = perturbed.add_var(0.0, 10.0, -2.0);
    let y = perturbed.add_var(0.0, 10.0, -3.0);
    perturbed.add_row_ge(vec![(x, 1.0), (y, 1.0)], 4.2);
    perturbed.add_row_ge(vec![(x, 1.0), (y, 3.0)], 5.9);

    let warm = perturbed.solve_warm(&SimplexOptions::default(), Deadline::none(), Some(&basis));
    let reference = perturbed.solve();
    assert_eq!(warm.status, LpStatus::Optimal);
    assert!((warm.objective - reference.objective).abs() < TOL);
    // The old optimal basis stays primal-feasible for this small shift, so
    // the warm solve must accept it and skip phase 1.
    assert!(warm.stats.warm_accepted);
    assert_eq!(warm.stats.phase1_iterations, 0);
}

#[test]
fn warm_start_survives_objective_change() {
    let base = covering_lp();
    let basis = base.solve().basis.expect("basis");

    let mut changed = LpModel::new();
    let x = changed.add_var(0.0, 10.0, -1.0);
    let y = changed.add_var(0.0, 10.0, -5.0);
    changed.add_row_ge(vec![(x, 1.0), (y, 1.0)], 4.0);
    changed.add_row_ge(vec![(x, 1.0), (y, 3.0)], 6.0);

    let warm = changed.solve_warm(&SimplexOptions::default(), Deadline::none(), Some(&basis));
    let reference = changed.solve();
    assert_eq!(warm.status, LpStatus::Optimal);
    assert!(warm.stats.warm_accepted);
    assert!((warm.objective - reference.objective).abs() < TOL);
}

#[test]
fn invalid_basis_falls_back_to_cold_start() {
    let m = covering_lp();

    // Wrong shape: too few basic columns.
    let bad_shape = Basis {
        basic: vec![0],
        at_upper: vec![false; 4],
    };
    let sol = m.solve_warm(
        &SimplexOptions::default(),
        Deadline::none(),
        Some(&bad_shape),
    );
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!(sol.stats.warm_rejected);
    assert!(!sol.stats.warm_accepted);

    // Duplicate column: singular by construction.
    let dup = Basis {
        basic: vec![1, 1],
        at_upper: vec![false; 4],
    };
    let sol = m.solve_warm(&SimplexOptions::default(), Deadline::none(), Some(&dup));
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!(sol.stats.warm_rejected);

    // Out-of-range column index.
    let oob = Basis {
        basic: vec![0, 99],
        at_upper: vec![false; 4],
    };
    let sol = m.solve_warm(&SimplexOptions::default(), Deadline::none(), Some(&oob));
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!(sol.stats.warm_rejected);

    // All cold fallbacks must still reach the true optimum.
    let cold = m.solve();
    assert!((sol.objective - cold.objective).abs() < TOL);
}

#[test]
fn infeasible_basis_under_new_bounds_is_repaired() {
    let base = covering_lp();
    let basis = base.solve().basis.expect("basis");

    // Tighten bounds so the recorded basic values become infeasible: force
    // x to a band that excludes the previous optimum entirely. The basis
    // is still dual-feasible (the objective did not move), so the dual
    // simplex repairs it instead of the solve starting cold.
    let mut tight = LpModel::new();
    let x = tight.add_var(8.0, 10.0, -2.0);
    let y = tight.add_var(0.0, 10.0, -3.0);
    tight.add_row_ge(vec![(x, 1.0), (y, 1.0)], 4.0);
    tight.add_row_ge(vec![(x, 1.0), (y, 3.0)], 6.0);

    let warm = tight.solve_warm(&SimplexOptions::default(), Deadline::none(), Some(&basis));
    let reference = tight.solve();
    assert_eq!(warm.status, reference.status);
    assert!((warm.objective - reference.objective).abs() < TOL);
    assert!(warm.stats.warm_accepted && !warm.stats.warm_rejected);
    assert_eq!(warm.stats.phase1_iterations, 0);
    assert!(
        warm.stats.dual_iterations > 0,
        "the repair is the dual simplex"
    );

    // Bounds nothing can satisfy: the dual ratio test proves it, still
    // without a cold start.
    let mut empty = LpModel::new();
    let x = empty.add_var(0.0, 1.0, -2.0);
    let y = empty.add_var(0.0, 1.0, -3.0);
    empty.add_row_ge(vec![(x, 1.0), (y, 1.0)], 4.0);
    empty.add_row_ge(vec![(x, 1.0), (y, 3.0)], 6.0);
    let warm = empty.solve_warm(&SimplexOptions::default(), Deadline::none(), Some(&basis));
    assert_eq!(warm.status, LpStatus::Infeasible);
    assert_eq!(empty.solve().status, LpStatus::Infeasible);
    assert!(warm.stats.warm_accepted && !warm.stats.warm_rejected);
}

#[test]
fn basis_feasible_in_neither_sense_falls_back_to_cold_start() {
    // max x + y ; x + y <= 4 ; x, y >= 0 and unbounded above. Hand the
    // solver the all-slack basis of a model whose row it violates and whose
    // objective it does not maximize: x nonbasic at its (only) lower bound
    // with a positive reduced cost cannot be flipped, so neither simplex
    // can start from it.
    let mut m = LpModel::new();
    let x = m.add_var(0.0, f64::INFINITY, 1.0);
    let y = m.add_var(1.0, f64::INFINITY, 1.0);
    m.add_row_le(vec![(x, 1.0), (y, 1.0)], 4.0);
    m.add_row_ge(vec![(x, 1.0), (y, 1.0)], 2.0);
    let slack_basis = Basis {
        basic: vec![2, 3],
        at_upper: vec![false; 4],
    };
    let sol = m.solve_warm(
        &SimplexOptions::default(),
        Deadline::none(),
        Some(&slack_basis),
    );
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!((sol.objective - 4.0).abs() < TOL);
    assert!(sol.stats.warm_rejected && !sol.stats.warm_accepted);
}

#[test]
fn equality_constrained_lp_round_trips_through_its_basis() {
    // max x + y ; x + y == 3 ; x - y <= 1 ; x,y >= 0
    let mut m = LpModel::new();
    let x = m.add_var(0.0, f64::INFINITY, 1.0);
    let y = m.add_var(0.0, f64::INFINITY, 1.0);
    m.add_row_eq(vec![(x, 1.0), (y, 1.0)], 3.0);
    m.add_row_le(vec![(x, 1.0), (y, -1.0)], 1.0);
    let cold = m.solve();
    assert_eq!(cold.status, LpStatus::Optimal);
    let warm = m.solve_warm(
        &SimplexOptions::default(),
        Deadline::none(),
        cold.basis.as_ref(),
    );
    assert!(warm.stats.warm_accepted);
    assert_eq!(warm.stats.phase1_iterations, 0);
    assert!((warm.objective - cold.objective).abs() < TOL);
}
