//! The dual-simplex warm route against the cold two-phase start as oracle:
//! solve a random bounded LP, tighten the bound of one *basic* variable the
//! way a branch-and-bound child does (down and up, mildly and past
//! feasibility), and re-solve from the parent's basis. The parent basis
//! stays dual-feasible under a bound change, so the warm solve must take
//! the dual route — never the cold fallback — and agree with a cold solve
//! of the same model in status and objective.

use proptest::prelude::*;
use rasa_lp::{Deadline, LpModel, LpStatus, SimplexOptions, VarId};

const TOL: f64 = 1e-7;

/// A random bounded LP mixing `<=`, `>=` and `==` rows over boxed
/// variables (so never unbounded; some instances are infeasible and are
/// skipped by the caller).
fn bounded_lp() -> impl Strategy<Value = LpModel> {
    (2usize..7, 1usize..7).prop_flat_map(|(n, m)| {
        let objs = proptest::collection::vec(-4.0f64..8.0, n);
        let uppers = proptest::collection::vec(1.0f64..5.0, n);
        let coeffs = proptest::collection::vec(proptest::collection::vec(0.0f64..3.0, n), m);
        let rhs = proptest::collection::vec(1.0f64..12.0, m);
        let senses = proptest::collection::vec(0u8..4, m);
        (objs, uppers, coeffs, rhs, senses).prop_map(|(objs, uppers, coeffs, rhs, senses)| {
            let mut model = LpModel::new();
            let vars: Vec<_> = objs
                .iter()
                .zip(&uppers)
                .map(|(&c, &u)| model.add_var(0.0, u, c))
                .collect();
            for ((row, &b), &sense) in coeffs.iter().zip(&rhs).zip(&senses) {
                let entries: Vec<_> = vars
                    .iter()
                    .zip(row)
                    .filter(|(_, &a)| a > 0.25)
                    .map(|(&v, &a)| (v, a))
                    .collect();
                if entries.is_empty() {
                    continue;
                }
                match sense {
                    0 | 1 => model.add_row_le(entries, b),
                    2 => model.add_row_ge(entries, b * 0.25),
                    _ => model.add_row_eq(entries, b * 0.5),
                }
            }
            model
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tightened_basic_bound_resolves_warm_like_cold(
        model in bounded_lp(),
        pick in 0usize..64,
        cut in 0.05f64..0.95,
    ) {
        let opts = SimplexOptions::default();
        let parent = model.solve_with(&opts, Deadline::none());
        prop_assume!(parent.status == LpStatus::Optimal);
        let Some(basis) = parent.basis.as_ref() else {
            return Ok(()); // a basic artificial survived phase 1: nothing to hand on
        };
        let n = model.num_vars();
        let basic: Vec<usize> = basis.basic.iter().copied().filter(|&j| j < n).collect();
        prop_assume!(!basic.is_empty());
        let j = basic[pick % basic.len()];
        let v = parent.x[j];
        let (l, u) = model.bounds(VarId(j));

        // four children: the two branching directions, each mild (a cut
        // between the value and the bound) and severe (the variable pinned
        // to its far bound, which often leaves nothing feasible)
        let children = [
            (l, l + (v - l) * cut),
            (v + (u - v) * cut, u),
            (l, l),
            (u, u),
        ];
        for (cl, cu) in children {
            let mut child = model.clone();
            child.set_bounds(VarId(j), cl, cu);
            let cold = child.solve_with(&opts, Deadline::none());
            let warm = child.solve_warm(&opts, Deadline::none(), Some(basis));
            prop_assert!(
                warm.stats.warm_accepted && !warm.stats.warm_rejected,
                "x{j} in [{cl}, {cu}] (was {v}): dual route not taken"
            );
            prop_assert_eq!(warm.stats.phase1_iterations, 0);
            prop_assert_eq!(
                warm.status, cold.status,
                "x{} in [{}, {}] (was {}): warm {:?} vs cold {:?}",
                j, cl, cu, v, warm.status, cold.status
            );
            if cold.status == LpStatus::Optimal {
                prop_assert!(
                    (warm.objective - cold.objective).abs() < TOL,
                    "objective: warm {} vs cold {}", warm.objective, cold.objective
                );
                prop_assert!(child.is_feasible_point(&warm.x, 1e-6));
                prop_assert!(warm.objective <= parent.objective + TOL, "a child cannot beat its parent");
            }
        }
    }

    #[test]
    fn cutoff_stops_early_and_only_when_justified(
        model in bounded_lp(),
        pick in 0usize..64,
        cut in 0.05f64..0.95,
        shift in -0.5f64..0.5,
    ) {
        let opts = SimplexOptions::default();
        let parent = model.solve_with(&opts, Deadline::none());
        prop_assume!(parent.status == LpStatus::Optimal);
        let Some(basis) = parent.basis.as_ref() else {
            return Ok(());
        };
        let n = model.num_vars();
        let basic: Vec<usize> = basis.basic.iter().copied().filter(|&j| j < n).collect();
        prop_assume!(!basic.is_empty());
        let j = basic[pick % basic.len()];
        let (l, _) = model.bounds(VarId(j));
        let mut child = model.clone();
        child.set_bounds(VarId(j), l, l + (parent.x[j] - l) * cut);
        let cold = child.solve_with(&opts, Deadline::none());
        prop_assume!(cold.status == LpStatus::Optimal);

        // a cutoff around the child's optimum: above it the solve may stop
        // early, below it the solve must run to the optimum
        let cutoff = cold.objective + shift;
        let warm = child.solve_warm_above(&opts, Deadline::none(), Some(basis), cutoff);
        match warm.status {
            LpStatus::Cutoff => {
                prop_assert!(cold.objective <= cutoff + TOL, "cut off above the optimum");
                prop_assert!(warm.objective <= cutoff + TOL);
                prop_assert!(warm.objective >= cold.objective - TOL, "the dual objective is an upper bound");
            }
            LpStatus::Optimal => {
                prop_assert!((warm.objective - cold.objective).abs() < TOL);
            }
            other => prop_assert!(false, "unexpected status {:?}", other),
        }
        if cutoff < cold.objective - TOL {
            prop_assert_eq!(warm.status, LpStatus::Optimal);
        }
    }
}
