//! Anti-cycling regression: once degeneracy trips the switch to Bland's
//! rule, it must stay on for the remainder of the solve.
//!
//! The historical bug reset `use_bland` whenever the objective improved,
//! re-arming Dantzig pricing — and with it exactly the cycling risk the
//! switch exists to prevent.  On LPs that alternate stalled and improving
//! stretches the switch re-triggered once per stalled stretch, observable
//! as `bland_activations > 1` in the per-solve stats.

use rasa_lp::{Deadline, LpModel, LpStatus, SimplexOptions};

/// Builds an LP whose pivot sequence interleaves stalled and improving
/// iterations so a non-sticky switch re-triggers.
///
/// Variables `a`, `b`, `e` each sit under a `<= 0` row whose slack starts
/// basic at zero, so entering them is a degenerate (zero-ratio) pivot that
/// leaves the objective unchanged.  `c` and `d` sit under `<= 1` rows and
/// admit genuine improving pivots.  The objective coefficients order the
/// Dantzig picks as a(9), b(7), c(5), e(3), d(1), and the first iteration
/// always reads as progress (`last_obj` starts at -inf), so the solve runs:
///
/// 1. enter `a` — degenerate, but counted as progress (first iteration);
/// 2. enter `b` — degenerate stall, activates Bland's rule;
/// 3. enter `c` (lowest index under Bland) — improving: the old reset
///    re-armed Dantzig here;
/// 4. enter `e` — degenerate stall: a second activation under the old
///    reset, a no-op with the sticky switch;
/// 5. enter `d` — improving, then optimal at objective 6.
fn stall_improve_stall_lp() -> LpModel {
    let mut m = LpModel::new();
    let c = m.add_var(0.0, f64::INFINITY, 5.0);
    let a = m.add_var(0.0, f64::INFINITY, 9.0);
    let b = m.add_var(0.0, f64::INFINITY, 7.0);
    let e = m.add_var(0.0, f64::INFINITY, 3.0);
    let d = m.add_var(0.0, f64::INFINITY, 1.0);
    m.add_row_le(vec![(a, 1.0)], 0.0);
    m.add_row_le(vec![(b, 1.0)], 0.0);
    m.add_row_le(vec![(e, 1.0)], 0.0);
    m.add_row_le(vec![(c, 1.0)], 1.0);
    m.add_row_le(vec![(d, 1.0)], 1.0);
    m
}

#[test]
fn blands_rule_switch_is_sticky_across_improving_iterations() {
    let m = stall_improve_stall_lp();
    let options = SimplexOptions {
        degenerate_stall: 1, // switch on the first stalled iteration
        ..SimplexOptions::default()
    };
    let sol = m.solve_with(&options, Deadline::none());

    assert_eq!(sol.status, LpStatus::Optimal);
    assert!(
        (sol.objective - 6.0).abs() < 1e-9,
        "obj = {}",
        sol.objective
    );

    // The first degenerate stall activates Bland's rule.  The improving
    // pivot that follows must NOT re-arm Dantzig: under the old reset, the
    // next degenerate stall activated the rule a second time.
    assert_eq!(
        sol.stats.bland_activations, 1,
        "Bland's rule re-armed after an improving iteration"
    );
    assert!(sol.stats.pivots >= 5, "pivots = {}", sol.stats.pivots);
}

#[test]
fn non_degenerate_solves_never_activate_blands_rule() {
    // maximize 3x + 2y  s.t.  x + y <= 4,  x <= 2 — every pivot improves.
    let mut m = LpModel::new();
    let x = m.add_var(0.0, f64::INFINITY, 3.0);
    let y = m.add_var(0.0, f64::INFINITY, 2.0);
    m.add_row_le(vec![(x, 1.0), (y, 1.0)], 4.0);
    m.add_row_le(vec![(x, 1.0)], 2.0);
    let sol = m.solve();
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_eq!(sol.stats.bland_activations, 0);
    assert!(sol.stats.pivots > 0);
}

#[test]
fn stats_split_iterations_between_phases() {
    // A >= row forces an artificial start, so phase 1 does real work.
    let mut m = LpModel::new();
    let x = m.add_var(0.0, 10.0, 1.0);
    let y = m.add_var(0.0, 10.0, 1.0);
    m.add_row_ge(vec![(x, 1.0), (y, 1.0)], 3.0);
    m.add_row_le(vec![(x, 1.0), (y, 1.0)], 8.0);
    let sol = m.solve();
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!(sol.stats.phase1_iterations > 0);
    assert_eq!(
        sol.stats.phase1_iterations + sol.stats.phase2_iterations,
        sol.iterations
    );
}
