//! The dense reference kernel: the original bounded-variable revised
//! simplex with an explicit `m × m` basis inverse and product-form
//! updates.
//!
//! Retained verbatim (minus the tolerance bugs fixed in this crate's
//! history — the final feasibility verdict and the phase-1 infeasibility
//! gate now use `FEAS_TOL`, matching the sparse kernel) as the **reference
//! implementation for differential testing**: `crates/lp/tests/differential.rs`
//! solves seeded random LPs with both kernels and requires status
//! agreement and objectives within `1e-6`. It is *not* on any production
//! path — [`solve_simplex`](crate::simplex::solve_simplex) routes to the
//! sparse LU kernel — and keeps the historical first-row degenerate
//! tie-break precisely so the ratio-test regression test can demonstrate
//! the difference against the sparse kernel's Harris-style rule.
//!
//! Memory is `O(m²)`: [`MAX_DENSE_ROWS`] bounds the accepted row count.

#![allow(clippy::needless_range_loop)] // dense index arithmetic over parallel arrays

use crate::model::{LpModel, RowSense};
use crate::simplex::{SimplexOptions, FEAS_TOL, OPT_TOL, PIVOT_TOL};
use crate::solution::{Basis, LpSolution, LpStatus, SimplexStats};
use crate::time::Deadline;

/// Largest row count the dense basis inverse accepts (`m²` doubles; 12k
/// rows ≈ 1.2 GB). Models beyond this return `IterationLimit` immediately
/// instead of exhausting memory — the behaviour large NO-PARTITION runs in
/// the paper's Fig 6 exhibit ("the program succeeds only for one
/// small-scale cluster"). The sparse kernel has no such cap.
pub const MAX_DENSE_ROWS: usize = 12_000;

/// Sparse column: (row, coefficient) pairs.
type Col = Vec<(usize, f64)>;

struct Tableau {
    m: usize,
    cols: Vec<Col>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    b: Vec<f64>,
}

struct State {
    x: Vec<f64>,
    basis: Vec<usize>,
    basic_row: Vec<Option<usize>>,
    at_upper: Vec<bool>,
    /// Dense row-major basis inverse, `m × m`.
    binv: Vec<f64>,
    iterations: usize,
    pivots_since_refactor: usize,
    use_bland: bool,
    stall: usize,
    stats: SimplexStats,
}

impl Tableau {
    fn col(&self, j: usize) -> &Col {
        &self.cols[j]
    }
}

/// `w = B⁻¹ · A_j` for a sparse column.
fn ftran(binv: &[f64], m: usize, col: &Col, out: &mut [f64]) {
    out[..m].fill(0.0);
    for &(row, a) in col {
        let base = row;
        for i in 0..m {
            out[i] += a * binv[i * m + base];
        }
    }
}

/// `y = c_Bᵀ · B⁻¹`.
fn btran(binv: &[f64], m: usize, cb: &[f64], out: &mut [f64]) {
    out[..m].fill(0.0);
    for i in 0..m {
        let ci = cb[i];
        if ci != 0.0 {
            let row = &binv[i * m..(i + 1) * m];
            for (o, &v) in out.iter_mut().zip(row) {
                *o += ci * v;
            }
        }
    }
}

/// Invert the current basis matrix from scratch (Gauss–Jordan with partial
/// pivoting). Returns `false` if the basis is numerically singular.
fn refactorize(tab: &Tableau, state: &mut State) -> bool {
    let m = tab.m;
    let mut bmat = vec![0.0f64; m * m];
    for (i, &j) in state.basis.iter().enumerate() {
        for &(row, a) in tab.col(j) {
            bmat[row * m + i] = a;
        }
    }
    let mut inv = vec![0.0f64; m * m];
    for i in 0..m {
        inv[i * m + i] = 1.0;
    }
    for col in 0..m {
        let mut piv_row = col;
        let mut piv_val = bmat[col * m + col].abs();
        for r in (col + 1)..m {
            let v = bmat[r * m + col].abs();
            if v > piv_val {
                piv_val = v;
                piv_row = r;
            }
        }
        if piv_val < 1e-12 {
            return false;
        }
        if piv_row != col {
            for k in 0..m {
                bmat.swap(col * m + k, piv_row * m + k);
                inv.swap(col * m + k, piv_row * m + k);
            }
        }
        let p = bmat[col * m + col];
        for k in 0..m {
            bmat[col * m + k] /= p;
            inv[col * m + k] /= p;
        }
        for r in 0..m {
            if r == col {
                continue;
            }
            let f = bmat[r * m + col];
            if f != 0.0 {
                for k in 0..m {
                    bmat[r * m + k] -= f * bmat[col * m + k];
                    inv[r * m + k] -= f * inv[col * m + k];
                }
            }
        }
    }
    state.binv = inv;
    state.pivots_since_refactor = 0;
    state.stats.refactorizations += 1;
    true
}

/// Recompute basic variable values: `x_B = B⁻¹ (b − N x_N)`.
fn recompute_basics(tab: &Tableau, state: &mut State) {
    let m = tab.m;
    let mut rhs = tab.b.clone();
    for j in 0..tab.cols.len() {
        if state.basic_row[j].is_some() {
            continue;
        }
        let xj = state.x[j];
        if xj != 0.0 {
            for &(row, a) in tab.col(j) {
                rhs[row] -= a * xj;
            }
        }
    }
    for i in 0..m {
        let mut v = 0.0;
        let row = &state.binv[i * m..(i + 1) * m];
        for (k, &r) in rhs.iter().enumerate() {
            v += row[k] * r;
        }
        state.x[state.basis[i]] = v;
    }
}

enum PhaseOutcome {
    Done,
    Unbounded,
    IterationLimit,
}

/// Run the simplex to optimality for the cost vector `cost`.
///
/// Pricing is full Dantzig with the Bland fallback; the ratio test breaks
/// degenerate ties by first-row order (the historical rule the sparse
/// kernel's Harris-style test discriminates against).
fn run_phase(
    tab: &Tableau,
    state: &mut State,
    cost: &[f64],
    options: &SimplexOptions,
    deadline: Deadline,
    iter_budget: usize,
) -> PhaseOutcome {
    let m = tab.m;
    let total = tab.cols.len();
    let mut y = vec![0.0f64; m];
    let mut w = vec![0.0f64; m];
    let mut cb = vec![0.0f64; m];
    let mut last_obj = f64::NEG_INFINITY;
    let mut local_iters = 0usize;

    loop {
        if local_iters >= iter_budget {
            return PhaseOutcome::IterationLimit;
        }
        if state.iterations % 64 == 0 && deadline.expired() {
            return PhaseOutcome::IterationLimit;
        }

        for i in 0..m {
            cb[i] = cost[state.basis[i]];
        }
        btran(&state.binv, m, &cb, &mut y);

        let mut entering: Option<(usize, f64, f64)> = None;
        for j in 0..total {
            if state.basic_row[j].is_some() {
                continue;
            }
            let (l, u) = (tab.lower[j], tab.upper[j]);
            if l == u {
                continue;
            }
            let mut d = cost[j];
            for &(row, a) in tab.col(j) {
                d -= y[row] * a;
            }
            let dir = if state.at_upper[j] {
                if d < -OPT_TOL {
                    -1.0
                } else {
                    continue;
                }
            } else if l.is_infinite() && u.is_infinite() {
                if d > OPT_TOL {
                    1.0
                } else if d < -OPT_TOL {
                    -1.0
                } else {
                    continue;
                }
            } else if d > OPT_TOL {
                1.0
            } else {
                continue;
            };
            if state.use_bland {
                entering = Some((j, d, dir));
                break;
            }
            match entering {
                Some((_, best, _)) if d.abs() <= best.abs() => {}
                _ => entering = Some((j, d, dir)),
            }
        }

        let Some((q, _dq, dir)) = entering else {
            return PhaseOutcome::Done;
        };

        ftran(&state.binv, m, tab.col(q), &mut w);

        let span_q = tab.upper[q] - tab.lower[q];
        let mut t_star = if span_q.is_finite() {
            span_q
        } else {
            f64::INFINITY
        };
        let mut leave: Option<(usize, bool)> = None;
        for i in 0..m {
            let wi = w[i];
            if wi.abs() <= PIVOT_TOL {
                continue;
            }
            let k = state.basis[i];
            let xk = state.x[k];
            let step = dir * wi;
            if step > 0.0 {
                let lk = tab.lower[k];
                if lk.is_finite() {
                    let t = ((xk - lk) / step).max(0.0);
                    if t < t_star - 1e-12 {
                        t_star = t;
                        leave = Some((i, false));
                    }
                }
            } else {
                let uk = tab.upper[k];
                if uk.is_finite() {
                    let t = ((uk - xk) / -step).max(0.0);
                    if t < t_star - 1e-12 {
                        t_star = t;
                        leave = Some((i, true));
                    }
                }
            }
        }

        if t_star.is_infinite() {
            return PhaseOutcome::Unbounded;
        }

        if t_star > 0.0 {
            for i in 0..m {
                if w[i] != 0.0 {
                    let k = state.basis[i];
                    state.x[k] -= dir * t_star * w[i];
                }
            }
            state.x[q] += dir * t_star;
        }

        match leave {
            None => {
                state.stats.bound_flips += 1;
                state.at_upper[q] = !state.at_upper[q];
                state.x[q] = if state.at_upper[q] {
                    tab.upper[q]
                } else {
                    tab.lower[q]
                };
            }
            Some((r, to_upper)) => {
                state.stats.pivots += 1;
                let leaving = state.basis[r];
                state.x[leaving] = if to_upper {
                    tab.upper[leaving]
                } else {
                    tab.lower[leaving]
                };
                state.at_upper[leaving] = to_upper;
                state.basic_row[leaving] = None;
                state.basis[r] = q;
                state.basic_row[q] = Some(r);

                let wr = w[r];
                debug_assert!(wr.abs() > PIVOT_TOL);
                let (before, rest) = state.binv.split_at_mut(r * m);
                let (pivot_row, after) = rest.split_at_mut(m);
                for v in pivot_row.iter_mut() {
                    *v /= wr;
                }
                let update = |rows: &mut [f64], base: usize| {
                    for (bi, chunk) in rows.chunks_exact_mut(m).enumerate() {
                        let i = base + bi;
                        let wi = w[i];
                        if wi != 0.0 {
                            for (c, p) in chunk.iter_mut().zip(pivot_row.iter()) {
                                *c -= wi * *p;
                            }
                        }
                    }
                };
                update(before, 0);
                update(after, r + 1);

                state.pivots_since_refactor += 1;
                if state.pivots_since_refactor >= options.refactor_every {
                    if !refactorize(tab, state) {
                        return PhaseOutcome::IterationLimit;
                    }
                    recompute_basics(tab, state);
                }
            }
        }

        let obj: f64 = state
            .basis
            .iter()
            .map(|&j| cost[j] * state.x[j])
            .sum::<f64>()
            + (0..total)
                .filter(|&j| state.basic_row[j].is_none())
                .map(|j| cost[j] * state.x[j])
                .sum::<f64>();
        if obj > last_obj + OPT_TOL {
            state.stall = 0;
        } else {
            state.stall += 1;
            if state.stall >= options.degenerate_stall && !state.use_bland {
                state.use_bland = true;
                state.stats.bland_activations += 1;
            }
        }
        last_obj = obj;

        state.iterations += 1;
        local_iters += 1;
    }
}

/// Validate and revive a warm-start basis (dense twin of the sparse
/// kernel's warm path).
fn try_warm_state(tab: &Tableau, n: usize, wb: &Basis) -> Option<State> {
    let m = tab.m;
    let total = n + m;
    if wb.basic.len() != m || wb.at_upper.len() != total {
        return None;
    }
    let mut basic_row = vec![None; total];
    for (i, &j) in wb.basic.iter().enumerate() {
        if j >= total || basic_row[j].is_some() {
            return None;
        }
        basic_row[j] = Some(i);
    }
    let mut x = vec![0.0f64; total];
    let mut at_upper = vec![false; total];
    for j in 0..total {
        if basic_row[j].is_some() {
            continue;
        }
        let (l, u) = (tab.lower[j], tab.upper[j]);
        x[j] = if wb.at_upper[j] && u.is_finite() {
            at_upper[j] = true;
            u
        } else if l.is_finite() {
            l
        } else if u.is_finite() {
            at_upper[j] = true;
            u
        } else {
            0.0
        };
    }
    let mut state = State {
        x,
        basis: wb.basic.clone(),
        basic_row,
        at_upper,
        binv: vec![0.0f64; m * m],
        iterations: 0,
        pivots_since_refactor: 0,
        use_bland: false,
        stall: 0,
        stats: SimplexStats::default(),
    };
    if !refactorize(tab, &mut state) {
        state.stats.refactor_singular += 1;
        return None;
    }
    recompute_basics(tab, &mut state);
    for i in 0..m {
        let k = state.basis[i];
        let v = state.x[k];
        if v < tab.lower[k] - FEAS_TOL || v > tab.upper[k] + FEAS_TOL {
            return None;
        }
    }
    Some(state)
}

/// Solve `model` (maximization) with the dense reference kernel.
///
/// Same contract as [`solve_simplex_warm`](crate::simplex::solve_simplex_warm)
/// — status, objective, duals, exported basis — but none of the `rasa_obs`
/// counters or flight events are emitted: this kernel exists for
/// differential testing, not production telemetry.
pub fn solve_dense(
    model: &LpModel,
    options: &SimplexOptions,
    deadline: Deadline,
    warm: Option<&Basis>,
) -> LpSolution {
    let n = model.num_vars();
    let m = model.num_rows();

    if m > MAX_DENSE_ROWS {
        let mut sol = LpSolution::infeasible(n, m, 0);
        sol.status = LpStatus::IterationLimit;
        return sol;
    }

    if m == 0 {
        return crate::simplex::solve_bounds_only(model);
    }

    // ---- computational form ----
    let mut cols: Vec<Col> = Vec::with_capacity(n + m);
    let mut lower = Vec::with_capacity(n + m);
    let mut upper = Vec::with_capacity(n + m);
    for j in 0..n {
        cols.push(Vec::new());
        lower.push(model.lower[j]);
        upper.push(model.upper[j]);
    }
    let mut b = Vec::with_capacity(m);
    for (i, row) in model.rows.iter().enumerate() {
        for &(j, a) in &row.coeffs {
            cols[j].push((i, a));
        }
        b.push(row.rhs);
        let (sl, su) = match row.sense {
            RowSense::Le => (0.0, f64::INFINITY),
            RowSense::Ge => (f64::NEG_INFINITY, 0.0),
            RowSense::Eq => (0.0, 0.0),
        };
        cols.push(vec![(i, 1.0)]);
        lower.push(sl);
        upper.push(su);
    }

    let mut tab = Tableau {
        m,
        cols,
        lower,
        upper,
        b,
    };

    let warm_state = warm.and_then(|wb| try_warm_state(&tab, n, wb));

    let (mut state, n_art) = if let Some(mut s) = warm_state {
        s.stats.warm_accepted = true;
        (s, 0)
    } else {
        let mut x = vec![0.0f64; n + m];
        let mut at_upper = vec![false; n + m];
        for j in 0..n {
            let (l, u) = (tab.lower[j], tab.upper[j]);
            x[j] = if l.is_finite() {
                l
            } else if u.is_finite() {
                at_upper[j] = true;
                u
            } else {
                0.0
            };
        }

        let mut residual = tab.b.clone();
        for j in 0..n {
            if x[j] != 0.0 {
                for &(row, a) in &tab.cols[j] {
                    residual[row] -= a * x[j];
                }
            }
        }

        let mut basis = vec![usize::MAX; m];
        let mut needs_artificial: Vec<(usize, f64)> = Vec::new();
        for i in 0..m {
            let s = n + i;
            let (sl, su) = (tab.lower[s], tab.upper[s]);
            if residual[i] >= sl - FEAS_TOL && residual[i] <= su + FEAS_TOL {
                basis[i] = s;
                x[s] = residual[i];
            } else {
                let rest = if residual[i] < sl { sl } else { su };
                x[s] = rest;
                at_upper[s] = rest == su && su.is_finite() && sl != su;
                needs_artificial.push((i, residual[i] - rest));
            }
        }
        let n_art = needs_artificial.len();
        for &(row, r) in &needs_artificial {
            let j = tab.cols.len();
            tab.cols
                .push(vec![(row, if r >= 0.0 { 1.0 } else { -1.0 })]);
            tab.lower.push(0.0);
            tab.upper.push(f64::INFINITY);
            basis[row] = j;
            x.push(r.abs());
            at_upper.push(false);
        }

        let total = tab.cols.len();
        let mut basic_row = vec![None; total];
        for (i, &j) in basis.iter().enumerate() {
            basic_row[j] = Some(i);
        }

        let mut binv = vec![0.0f64; m * m];
        for (i, &j) in basis.iter().enumerate() {
            let sign = tab.cols[j][0].1;
            binv[i * m + i] = 1.0 / sign;
        }

        let mut state = State {
            x,
            basis,
            basic_row,
            at_upper,
            binv,
            iterations: 0,
            pivots_since_refactor: 0,
            use_bland: false,
            stall: 0,
            stats: SimplexStats::default(),
        };
        state.stats.warm_rejected = warm.is_some();
        (state, n_art)
    };

    let total = tab.cols.len();

    // ---- phase 1 ----
    if n_art > 0 {
        let mut cost1 = vec![0.0f64; total];
        for c in cost1.iter_mut().skip(total - n_art) {
            *c = -1.0;
        }
        let outcome = run_phase(
            &tab,
            &mut state,
            &cost1,
            options,
            deadline,
            options.max_iterations,
        );
        let infeasibility: f64 = (total - n_art..total).map(|j| state.x[j]).sum();
        state.stats.phase1_iterations = state.iterations;
        match outcome {
            PhaseOutcome::Done => {
                // Residual infeasibility is judged at the same FEAS_TOL the
                // phases pivot against (historically a hardcoded 1e-6).
                if infeasibility > FEAS_TOL {
                    let mut sol = LpSolution::infeasible(n, m, state.iterations);
                    sol.stats = state.stats;
                    return sol;
                }
            }
            PhaseOutcome::Unbounded => {
                let mut sol = LpSolution::infeasible(n, m, state.iterations);
                sol.stats = state.stats;
                return sol;
            }
            PhaseOutcome::IterationLimit => {
                let mut sol = LpSolution::infeasible(n, m, state.iterations);
                sol.status = LpStatus::IterationLimit;
                sol.stats = state.stats;
                return sol;
            }
        }
        for j in total - n_art..total {
            tab.upper[j] = 0.0;
            state.x[j] = 0.0;
            state.at_upper[j] = false;
        }
    }

    // ---- phase 2 ----
    let mut cost2 = vec![0.0f64; total];
    cost2[..n].copy_from_slice(&model.objective);
    let budget = options.max_iterations.saturating_sub(state.iterations);
    let outcome = run_phase(&tab, &mut state, &cost2, options, deadline, budget);
    state.stats.phase2_iterations = state.iterations - state.stats.phase1_iterations;

    let mut cb = vec![0.0f64; m];
    for i in 0..m {
        cb[i] = cost2[state.basis[i]];
    }
    let mut duals = vec![0.0f64; m];
    btran(&state.binv, m, &cb, &mut duals);

    let xs: Vec<f64> = state.x[..n].to_vec();
    let objective = model.objective_value(&xs);
    // The exit verdict uses the same FEAS_TOL the phases pivoted against
    // (historically `FEAS_TOL.max(1e-6) * 10.0`, 10× looser — solutions it
    // blessed could then fail certify_placement).
    let feasible = model.is_feasible_point(&xs, FEAS_TOL);

    let status = match outcome {
        PhaseOutcome::Done => LpStatus::Optimal,
        PhaseOutcome::Unbounded => LpStatus::Unbounded,
        PhaseOutcome::IterationLimit => LpStatus::IterationLimit,
    };

    let final_basis = if feasible && state.basis.iter().all(|&j| j < n + m) {
        Some(Basis {
            basic: state.basis.clone(),
            at_upper: state.at_upper[..n + m].to_vec(),
        })
    } else {
        None
    };

    LpSolution {
        status,
        objective,
        x: xs,
        duals,
        feasible,
        iterations: state.iterations,
        stats: state.stats,
        basis: final_basis,
    }
}
