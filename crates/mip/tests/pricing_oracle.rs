//! Branch-and-bound against an exhaustive enumeration on tiny MIPs shaped
//! like the column-generation pricing problem (`price_pattern`): a few
//! integer "replica count" variables with small boxes, resource and
//! anti-affinity rows over them, and one continuous epigraph variable per
//! affinity edge (`a <= w/d_a * x_a`, `a <= w/d_b * x_b`, `a <= w`).
//!
//! The oracle shares nothing with the solver: it walks every integer
//! point, checks the rows by hand and prices each edge at the closed-form
//! `min`. About a third of the prices are exactly zero, as for services
//! whose dual price is zero. On every exit path — optimal, node cap,
//! expired deadline — the incumbent may not beat the oracle and
//! `best_bound` may not fall under it; a finished solve must hit it. A
//! target just under the optimum stops the search at an incumbent above the
//! target; one just over it changes nothing.
//!
//! Plus one fixed 20-variable instance on which warm node re-solves must
//! cost at least 3× fewer simplex iterations per node than cold ones.

use proptest::prelude::*;
use rasa_lp::{Deadline, LpModel, SimplexOptions, VarId};
use rasa_mip::{MipModel, MipOptions, MipStatus};
use std::time::Duration;

const TOL: f64 = 1e-6;

/// One pricing-shaped instance, kept as plain data so the oracle can read
/// it without going through the model.
#[derive(Clone, Debug)]
struct Pricing {
    /// Upper bound (replica cap) and objective (minus the dual price) of
    /// each integer variable.
    caps: Vec<u32>,
    prices: Vec<f64>,
    /// `<=` rows over the integer variables: coefficients, right-hand side.
    rows: Vec<(Vec<f64>, f64)>,
    /// Affinity edges `(a, b, weight, demand_a, demand_b)`.
    edges: Vec<(usize, usize, f64, f64, f64)>,
}

impl Pricing {
    fn model(&self) -> MipModel {
        let mut mip = MipModel::new();
        let x: Vec<VarId> = self
            .caps
            .iter()
            .zip(&self.prices)
            .map(|(&cap, &price)| mip.add_int_var(0.0, f64::from(cap), price))
            .collect();
        for (coeffs, rhs) in &self.rows {
            let entries: Vec<_> = x
                .iter()
                .zip(coeffs)
                .filter(|(_, &c)| c > 0.0)
                .map(|(&v, &c)| (v, c))
                .collect();
            if !entries.is_empty() {
                mip.add_row_le(entries, *rhs);
            }
        }
        for &(a, b, w, da, db) in &self.edges {
            let e = mip.add_var(0.0, w, 1.0);
            mip.add_row_le(vec![(e, 1.0), (x[a], -w / da)], 0.0);
            mip.add_row_le(vec![(e, 1.0), (x[b], -w / db)], 0.0);
        }
        mip
    }

    /// The optimum by enumeration of every integer point.
    fn oracle(&self) -> f64 {
        let n = self.caps.len();
        let mut x = vec![0u32; n];
        let mut best = f64::NEG_INFINITY;
        loop {
            let feasible = self.rows.iter().all(|(coeffs, rhs)| {
                let activity: f64 = coeffs.iter().zip(&x).map(|(c, &v)| c * f64::from(v)).sum();
                activity <= rhs + 1e-9
            });
            if feasible {
                let linear: f64 = self
                    .prices
                    .iter()
                    .zip(&x)
                    .map(|(p, &v)| p * f64::from(v))
                    .sum();
                let affinity: f64 = self
                    .edges
                    .iter()
                    .map(|&(a, b, w, da, db)| {
                        w.min(w / da * f64::from(x[a]))
                            .min(w / db * f64::from(x[b]))
                    })
                    .sum();
                best = best.max(linear + affinity);
            }
            // next point, odometer style
            let mut i = 0;
            loop {
                if i == n {
                    return best;
                }
                if x[i] < self.caps[i] {
                    x[i] += 1;
                    break;
                }
                x[i] = 0;
                i += 1;
            }
        }
    }
}

fn pricing_instance() -> impl Strategy<Value = Pricing> {
    (2usize..7).prop_flat_map(|n| {
        let caps = proptest::collection::vec(1u32..4, n);
        // a third of the services carry a zero dual price: zero-cost
        // integer variables that tie with costly ones at the branching step
        let price = (0u8..3, -1.5f64..0.3).prop_map(|(k, p)| if k == 0 { 0.0 } else { p });
        let prices = proptest::collection::vec(price, n);
        let resources = proptest::collection::vec(
            (proptest::collection::vec(0.0f64..3.0, n), 2.0f64..9.0),
            1..3,
        );
        let anti = (proptest::collection::vec(0u8..2, n), 1u32..4);
        let edges =
            proptest::collection::vec((0usize..n, 0usize..n, 0.5f64..3.0, 1u32..4, 1u32..4), 1..6);
        (caps, prices, resources, anti, edges).prop_map(|(caps, prices, resources, anti, edges)| {
            let mut rows: Vec<(Vec<f64>, f64)> = resources
                .into_iter()
                .map(|(c, rhs)| {
                    (
                        c.into_iter()
                            .map(|v| if v < 0.4 { 0.0 } else { v })
                            .collect(),
                        rhs,
                    )
                })
                .collect();
            rows.push((
                anti.0.iter().map(|&b| f64::from(b)).collect(),
                f64::from(anti.1),
            ));
            let edges = edges
                .into_iter()
                .filter(|&(a, b, ..)| a != b)
                .map(|(a, b, w, da, db)| (a, b, w, f64::from(da), f64::from(db)))
                .collect();
            Pricing {
                caps,
                prices,
                rows,
                edges,
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn every_exit_path_respects_the_enumeration_oracle(inst in pricing_instance()) {
        let oracle = inst.oracle(); // x = 0 is always feasible, so finite
        let mip = inst.model();

        // run to the end: the optimum itself
        let done = mip.solve_with(&MipOptions::default(), Deadline::none());
        prop_assert_eq!(done.status, MipStatus::Optimal);
        prop_assert!((done.objective - oracle).abs() < TOL,
            "b&b {} vs enumeration {}", done.objective, oracle);
        prop_assert!(done.best_bound >= oracle - TOL);
        prop_assert!(mip.is_feasible_point(&done.x, 1e-6));

        // a target the optimum clears: any incumbent above it ends the search
        let below = oracle - 1e-3;
        let early = mip.solve_to_target(&MipOptions::default(), Deadline::none(), below);
        prop_assert!(early.has_incumbent(), "{:?}", early.status);
        prop_assert!(early.objective > below && early.objective <= oracle + TOL,
            "stopped at {} for target {} and optimum {}", early.objective, below, oracle);
        prop_assert!(early.best_bound >= oracle - TOL);
        prop_assert!(mip.is_feasible_point(&early.x, 1e-6));
        // a target no incumbent reaches: the solve runs to the optimum
        let above = oracle + 1e-3;
        let full = mip.solve_to_target(&MipOptions::default(), Deadline::none(), above);
        prop_assert_eq!(full.status, MipStatus::Optimal);
        prop_assert!((full.objective - oracle).abs() < TOL);

        // truncated: by node cap (with and without the root heuristics that
        // usually supply an incumbent), and by a deadline already expired
        let mut truncated = Vec::new();
        for max_nodes in [0usize, 1, 2, 3, 5, 9] {
            for heuristics in [true, false] {
                let options = MipOptions {
                    max_nodes,
                    dive: heuristics,
                    rounding_every: if heuristics { 64 } else { 0 },
                    ..MipOptions::default()
                };
                truncated.push(mip.solve_with(&options, Deadline::none()));
            }
        }
        truncated.push(mip.solve_with(&MipOptions::default(), Deadline::after(Duration::ZERO)));
        for sol in truncated {
            prop_assert!(sol.best_bound >= oracle - TOL,
                "{:?}: bound {} under the optimum {}", sol.status, sol.best_bound, oracle);
            match sol.status {
                MipStatus::Optimal => prop_assert!((sol.objective - oracle).abs() < TOL),
                MipStatus::Feasible => {
                    prop_assert!(sol.objective <= oracle + TOL);
                    prop_assert!(mip.is_feasible_point(&sol.x, 1e-6));
                }
                MipStatus::NoSolution => {}
                other => prop_assert!(false, "a feasible bounded MIP ended {:?}", other),
            }
        }
    }
}

/// A fixed pricing-shaped MIP: 12 integer variables, 8 epigraph variables,
/// coefficients from a linear congruential stream so the instance is the
/// same everywhere.
fn fixed_twenty_variable_instance() -> Pricing {
    let mut seed = 11_u64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as f64 / (1u64 << 31) as f64
    };
    let n = 12;
    let caps = (0..n).map(|_| 1 + (next() * 3.0) as u32).collect();
    let prices = (0..n).map(|_| -0.9 * next()).collect();
    let rows = (0..3)
        .map(|_| {
            (
                (0..n).map(|_| 0.5 + 2.5 * next()).collect(),
                7.0 + 4.0 * next(),
            )
        })
        .collect();
    let edges = (0..8)
        .map(|k| {
            let a = k % n;
            let b = (a + 1 + (next() * (n - 2) as f64) as usize) % n;
            (
                a,
                b,
                0.8 + 2.0 * next(),
                1.0 + (next() * 3.0).floor(),
                1.0 + (next() * 3.0).floor(),
            )
        })
        .collect();
    Pricing {
        caps,
        prices,
        rows,
        edges,
    }
}

#[test]
fn warm_nodes_cost_a_third_of_cold_ones() {
    let inst = fixed_twenty_variable_instance();
    let mip = inst.model();
    assert_eq!(mip.num_vars(), 20);
    let sol = mip.solve_with(&MipOptions::default(), Deadline::none());
    assert_eq!(sol.status, MipStatus::Optimal);
    assert!(
        sol.nodes >= 30,
        "the instance must need a real tree, got {} nodes",
        sol.nodes
    );

    // Cold-node reference: what one node LP of this model costs from
    // scratch, averaged over every depth-1 child of the root (each integer
    // variable branched down and up at the root's value).
    let opts = SimplexOptions::default();
    let root = mip.lp().solve_with(&opts, Deadline::none());
    let mut cold_iterations = Vec::new();
    for j in 0..inst.caps.len() {
        let (l, u) = mip.lp().bounds(VarId(j));
        let v = root.x[j];
        for (cl, cu) in [(l, v.floor().max(l)), ((v.floor() + 1.0).min(u), u)] {
            let mut child: LpModel = mip.lp().clone();
            child.set_bounds(VarId(j), cl, cu);
            cold_iterations.push(child.solve_with(&opts, Deadline::none()).iterations);
        }
    }
    let cold_per_node = cold_iterations.iter().sum::<usize>() as f64 / cold_iterations.len() as f64;
    let per_node = sol.lp_iterations as f64 / sol.nodes as f64;
    assert!(
        per_node * 3.0 <= cold_per_node,
        "{per_node:.2} simplex iterations per node (root and dive included) against \
         {cold_per_node:.2} for a cold node"
    );
}
