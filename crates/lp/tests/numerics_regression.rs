//! Regression tests for the LP numerics bugfix sweep:
//!
//! 1. the exit feasibility verdict used `FEAS_TOL.max(1e-6) * 10.0` — 10×
//!    looser than the tolerance the phases pivoted against, so the solver
//!    could declare Optimal+feasible a point `certify_placement` rejects;
//! 2. the ratio test broke degenerate ties by first-row order, never
//!    preferring the larger |pivot| (an instability source the Harris-style
//!    two-pass fixes);
//! 3. a singular warm-start refactorization silently cold-started with no
//!    counter or flight event, hiding warm-start decay from BENCH artifacts.

use rasa_lp::simplex::FEAS_TOL;
use rasa_lp::time::Deadline;
use rasa_lp::{LpModel, LpStatus, SimplexOptions};

/// Bugfix 1: an LP infeasible by 5e-7 — inside the old verdict's 1e-5
/// slack, an order outside `FEAS_TOL` = 1e-7.
///
/// `x + y == 2 + 5e-7` with `x, y ∈ [0, 1]` caps `x + y` at exactly 2.
/// Phase 1 parks an artificial at 5e-7, which slipped past the old
/// hardcoded `> 1e-6` gate; the old exit verdict then blessed the point at
/// tolerance 1e-5 and returned Optimal+feasible.
#[test]
fn near_infeasible_lp_is_no_longer_blessed() {
    let mut m = LpModel::new();
    let x = m.add_var(0.0, 1.0, 1.0);
    let y = m.add_var(0.0, 1.0, 1.0);
    m.add_row_eq(vec![(x, 1.0), (y, 1.0)], 2.0 + 5e-7);

    // The best attainable point *is* inside the old loose tolerance — this
    // is exactly the point the old code wrongly accepted…
    assert!(m.is_feasible_point(&[1.0, 1.0], 1e-7f64.max(1e-6) * 10.0));
    // …and outside the tolerance the solve actually enforces.
    assert!(!m.is_feasible_point(&[1.0, 1.0], 1e-7));

    let sol = m.solve();
    assert_eq!(sol.status, LpStatus::Infeasible);
    assert!(!sol.feasible);
    assert!(sol.basis.is_none());

    // The retained dense reference kernel applies the same fix.
    let dense = rasa_lp::dense::solve_dense(&m, &SimplexOptions::default(), Deadline::none(), None);
    assert_eq!(dense.status, LpStatus::Infeasible);
    assert!(!dense.feasible);
}

/// Bugfix 1, verdict/point consistency: whenever the solver reports
/// `feasible`, the point must pass `is_feasible_point` at the same
/// `FEAS_TOL` — no hidden slack between the two.
#[test]
fn feasible_verdict_matches_feas_tol_exactly() {
    let mut m = LpModel::new();
    let x = m.add_var(0.0, 4.0, 3.0);
    let y = m.add_var(0.0, 4.0, 2.0);
    m.add_row_le(vec![(x, 1.0), (y, 1.0)], 5.0);
    m.add_row_eq(vec![(x, 1.0), (y, -1.0)], 1.0);
    let sol = m.solve();
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_eq!(sol.feasible, m.is_feasible_point(&sol.x, FEAS_TOL));
    assert!(sol.feasible);
}

/// Bugfix 2: a degenerate ratio-test tie between a 1e-6 pivot and a 1.0
/// pivot.
///
/// Maximize `x`, `x ∈ [0, 1]`, subject to `1e-6·x ≤ 0` (row 0) and
/// `x ≤ 0` (row 1). Both rows block at ratio exactly 0 when `x` enters.
/// The historical rule took whichever row came first — row 0, pivoting on
/// 1e-6 — while the Harris-style second pass picks row 1's pivot of 1.0.
/// The exported basis records which row `x` ended up basic in, so the two
/// rules are observably different.
#[test]
fn harris_ratio_test_prefers_the_large_pivot_on_degenerate_ties() {
    let mut m = LpModel::new();
    let x = m.add_var(0.0, 1.0, 1.0);
    m.add_row_le(vec![(x, 1e-6)], 0.0);
    m.add_row_le(vec![(x, 1.0)], 0.0);

    let sparse = m.solve();
    assert_eq!(sparse.status, LpStatus::Optimal);
    assert!(sparse.objective.abs() < 1e-9); // x pinned to 0
    let basis = sparse.basis.as_ref().expect("optimal solve exports basis");
    assert_eq!(
        basis.basic[1], 0,
        "sparse kernel should make x basic in row 1 (pivot 1.0), got basis {:?}",
        basis.basic
    );
    assert!(
        sparse.stats.harris_ties >= 1,
        "the degenerate tie must be counted: {:?}",
        sparse.stats
    );

    // The dense reference kernel keeps the historical first-row rule and
    // lands on the tiny pivot — the behaviour this fix removes.
    let dense = rasa_lp::dense::solve_dense(&m, &SimplexOptions::default(), Deadline::none(), None);
    assert_eq!(dense.status, LpStatus::Optimal);
    let dbasis = dense.basis.as_ref().expect("dense optimal exports basis");
    assert_eq!(
        dbasis.basic[0], 0,
        "dense kernel pivots in the first tied row, got basis {:?}",
        dbasis.basic
    );
    assert_eq!(dense.stats.harris_ties, 0);
}

/// Bugfix 3: a numerically singular warm-start basis must be *counted*
/// (`SimplexStats::refactor_singular` → `simplex.refactor_singular`), not
/// silently swallowed on the way to a cold start.
#[test]
fn singular_warm_basis_is_counted_not_silent() {
    // x and y have identical constraint columns, so a basis holding both
    // is structurally valid (right shape, no duplicates) but numerically
    // singular: B = [[1, 1], [1, 1]].
    let mut m = LpModel::new();
    let x = m.add_var(0.0, 1.0, 2.0);
    let y = m.add_var(0.0, 1.0, 1.0);
    m.add_row_le(vec![(x, 1.0), (y, 1.0)], 1.0);
    m.add_row_le(vec![(x, 1.0), (y, 1.0)], 2.0);

    let singular = rasa_lp::Basis {
        basic: vec![0, 1], // x basic in row 0, y basic in row 1
        at_upper: vec![false; 4],
    };
    let sol = m.solve_warm(
        &SimplexOptions::default(),
        Deadline::none(),
        Some(&singular),
    );
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!(sol.stats.warm_rejected, "singular basis must cold-start");
    assert!(!sol.stats.warm_accepted);
    assert_eq!(
        sol.stats.refactor_singular, 1,
        "the singularity must be counted: {:?}",
        sol.stats
    );

    // A healthy warm basis from the cold solve does not trip the counter.
    let warm = sol.basis.as_ref().expect("optimal solve exports basis");
    let resolve = m.solve_warm(&SimplexOptions::default(), Deadline::none(), Some(warm));
    assert!(resolve.stats.warm_accepted);
    assert_eq!(resolve.stats.refactor_singular, 0);
}
