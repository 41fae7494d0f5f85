//! Property-based tests: on randomly generated LPs the simplex must
//! (a) return feasible points whenever it claims optimality,
//! (b) respect weak duality for `<=`-form problems,
//! (c) never beat the LP bound with any feasible sample point.

use proptest::prelude::*;
use rasa_lp::{LpModel, LpStatus};

/// A random `<=`-form LP with non-negative data — always feasible (x = 0)
/// and always bounded (every variable has a finite upper bound).
fn bounded_lp_strategy() -> impl Strategy<Value = LpModel> {
    let dims = (1usize..6, 1usize..6);
    dims.prop_flat_map(|(n, m)| {
        let objs = proptest::collection::vec(0.0f64..10.0, n);
        let uppers = proptest::collection::vec(0.5f64..5.0, n);
        let coeffs = proptest::collection::vec(proptest::collection::vec(0.0f64..3.0, n), m);
        let rhs = proptest::collection::vec(1.0f64..20.0, m);
        (objs, uppers, coeffs, rhs).prop_map(|(objs, uppers, coeffs, rhs)| {
            let mut model = LpModel::new();
            let vars: Vec<_> = objs
                .iter()
                .zip(&uppers)
                .map(|(&c, &u)| model.add_var(0.0, u, c))
                .collect();
            for (row, &b) in coeffs.iter().zip(&rhs) {
                let entries: Vec<_> = vars
                    .iter()
                    .zip(row)
                    .filter(|(_, &a)| a > 0.0)
                    .map(|(&v, &a)| (v, a))
                    .collect();
                if !entries.is_empty() {
                    model.add_row_le(entries, b);
                }
            }
            model
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn optimal_solutions_are_feasible(model in bounded_lp_strategy()) {
        let sol = model.solve();
        prop_assert_eq!(sol.status, LpStatus::Optimal);
        prop_assert!(sol.feasible);
        prop_assert!(model.is_feasible_point(&sol.x, 1e-5));
        // objective matches the reported value
        let recomputed = model.objective_value(&sol.x);
        prop_assert!((recomputed - sol.objective).abs() < 1e-6);
    }

    #[test]
    fn weak_duality_holds(model in bounded_lp_strategy()) {
        let sol = model.solve();
        prop_assert_eq!(sol.status, LpStatus::Optimal);
        // duals are non-negative for <= rows in a maximization
        for &d in &sol.duals {
            prop_assert!(d >= -1e-6, "negative dual {}", d);
        }
    }

    #[test]
    fn zero_point_never_beats_optimum(model in bounded_lp_strategy()) {
        let sol = model.solve();
        prop_assert_eq!(sol.status, LpStatus::Optimal);
        // x = 0 is feasible for this family; its objective (0, since all
        // c >= 0 and x = 0) must not exceed the reported optimum.
        prop_assert!(sol.objective >= -1e-9);
    }

    #[test]
    fn greedy_single_row_matches_fractional_knapsack(
        values in proptest::collection::vec(0.1f64..10.0, 2..8),
        weights in proptest::collection::vec(0.1f64..10.0, 2..8),
        cap_frac in 0.1f64..0.9,
    ) {
        let n = values.len().min(weights.len());
        let values = &values[..n];
        let weights = &weights[..n];
        let total_w: f64 = weights.iter().sum();
        let cap = cap_frac * total_w;

        let mut model = LpModel::new();
        let vars: Vec<_> = values.iter().map(|&v| model.add_var(0.0, 1.0, v)).collect();
        model.add_row_le(vars.iter().zip(weights).map(|(&v, &w)| (v, w)).collect(), cap);
        let sol = model.solve();
        prop_assert_eq!(sol.status, LpStatus::Optimal);

        // reference: greedy fractional knapsack
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            (values[b] / weights[b]).partial_cmp(&(values[a] / weights[a])).unwrap()
        });
        let mut remaining = cap;
        let mut expect = 0.0;
        for &i in &order {
            let take = (remaining / weights[i]).clamp(0.0, 1.0);
            expect += take * values[i];
            remaining -= take * weights[i];
            if remaining <= 0.0 {
                break;
            }
        }
        prop_assert!((sol.objective - expect).abs() < 1e-5,
            "simplex {} vs greedy {}", sol.objective, expect);
    }
}
