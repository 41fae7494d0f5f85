//! Bounded-variable revised simplex — primal with a two-phase start, dual
//! for re-solves — over a sparse LU-factorized basis.
//!
//! ## Method
//!
//! The model is brought to computational form `A x + s = b` by adding one
//! slack per row whose bounds encode the row sense (`<=` → `s ∈ [0, ∞)`,
//! `>=` → `s ∈ (−∞, 0]`, `==` → `s ∈ [0, 0]`). Nonbasic variables rest at
//! one of their bounds; the basis solves for the rest. The column-major
//! form depends on the rows only, so the model builds it once and every
//! solve borrows it; a solve allocates bounds and an iterate, not a matrix.
//!
//! A *cold* solve runs two primal phases. *Phase 1* starts from the
//! all-slack basis with structural variables at their bounds. Rows whose
//! residual violates the slack bounds receive an artificial variable
//! (coefficient ±1 matching the residual sign) that enters the basis at a
//! positive value; maximizing `−Σ artificials` drives the infeasibility to
//! zero or proves the LP infeasible. *Phase 2* maximizes the true objective
//! from the feasible basis, with artificial bounds pinned to `[0, 0]`.
//!
//! A *warm* solve ([`LpModel::solve_warm`]) is handed the final [`Basis`]
//! of an earlier solve of a same-shaped model and takes the first of three
//! routes that applies:
//!
//! 1. the basis is still **primal-feasible** (the objective moved, columns
//!    were appended): phase 1 is skipped and primal phase 2 continues from
//!    it;
//! 2. the basis is primal-infeasible but **dual-feasible** — what a
//!    tightened bound or a moved right-hand side does to an optimal basis,
//!    so every branch-and-bound child lands here — and the **dual simplex**
//!    repairs it: the most violated basic variable leaves toward the bound
//!    it broke, a ratio test over the nonbasic reduced costs (same Harris
//!    two-pass shape as the primal one) picks the entering column that
//!    keeps every reduced cost on its feasible side, and the objective
//!    falls monotonically toward the optimum. Boxed nonbasic variables are
//!    first flipped to whichever bound their reduced cost prefers, so only
//!    a one-sided variable can deny this route. An empty ratio test proves
//!    the LP infeasible; an objective at or below the caller's cutoff
//!    ([`LpModel::solve_warm_above`]) ends the solve as
//!    [`LpStatus::Cutoff`]. Primal phase 2 then runs from the repaired
//!    basis as a clean-up (normally zero iterations);
//! 3. otherwise — misshapen or singular basis, feasible in neither sense,
//!    or a dual repair that met a singular refactorization, a drifting
//!    pivot, a degenerate stall or the iteration cap — the solve
//!    **cold-starts** as above, keeping the counters of the abandoned
//!    attempt.
//!
//! ## Basis machinery
//!
//! Both simplexes pivot on the same state. The basis is held as a sparse
//! LU factorization ([`LuFactors`], Gilbert–Peierls left-looking
//! elimination with partial pivoting and a fill-reducing column order) plus
//! a product-form [`EtaFile`] that absorbs pivots
//! between refactorizations, so FTRAN/BTRAN cost tracks the factor
//! nonzeros instead of `m²`. The factorization is rebuilt from the basis
//! columns every [`SimplexOptions::refactor_every`] pivots, which also
//! resets the eta file and recomputes the basic values (and, in the dual,
//! the reduced costs) to squash accumulated drift. A refactorization that
//! finds the basis numerically singular bumps the
//! `simplex.refactor_singular` counter and emits a `RefactorSingular`
//! flight event (a silent cold start was how warm-start decay used to hide
//! from BENCH artifacts).
//!
//! Primal pricing is partial (sectioned) Dantzig
//! ([`PartialPricing`]): a cyclic window of
//! columns is scanned each iteration and the best eligible reduced cost in
//! the first non-empty window enters; a full eligible-free wrap proves
//! optimality. A long degenerate stall still switches permanently to
//! Bland's rule. The ratio test is a Harris-style two-pass: pass 1
//! computes the minimum *relaxed* ratio (each basic variable may overshoot
//! its bound by `FEAS_TOL`), pass 2 picks the largest-|pivot| row among
//! those whose exact ratio fits under that bound — degenerate ties break
//! toward numerical stability instead of first-row order. The dual mirrors
//! it: largest violation leaves, one BTRAN yields the pivot row, reduced
//! costs may overshoot zero by `OPT_TOL` in pass 1 and the largest |α|
//! inside that window enters. It has no Bland mode — a lowest-index rule
//! would have to accept whatever pivot comes first, however small — so
//! [`SimplexOptions::degenerate_stall`] zero-length steps end the repair
//! instead, and the cold start (which has one) takes over.
//!
//! The historical dense-inverse kernel survives as
//! [`dense`](crate::dense) for differential testing; it and the cold start
//! are the oracle the warm routes are tested against.

#![allow(clippy::needless_range_loop)] // dense index arithmetic over parallel arrays

use crate::factor::{EtaFile, LuFactors, LuWorkspace};
use crate::model::{ColumnForm, LpModel};
use crate::pricing::PartialPricing;
use crate::solution::{Basis, LpSolution, LpStatus, SimplexStats};
use crate::time::Deadline;
use rasa_obs::Counter;
use std::sync::{Arc, OnceLock};

pub use crate::dense::MAX_DENSE_ROWS;

/// Reduced-cost optimality tolerance.
pub const OPT_TOL: f64 = 1e-7;
/// Primal feasibility tolerance.
pub const FEAS_TOL: f64 = 1e-7;
/// Smallest acceptable pivot magnitude.
pub const PIVOT_TOL: f64 = 1e-9;

/// Limits for [`solve_simplex`]. Its tolerances are the constants
/// [`OPT_TOL`], [`FEAS_TOL`] and [`PIVOT_TOL`].
#[derive(Clone, Debug)]
pub struct SimplexOptions {
    /// Hard cap on simplex iterations across both phases.
    pub max_iterations: usize,
    /// Refactorize the basis every this many pivots (also bounds the eta
    /// file length, and with it FTRAN/BTRAN cost drift).
    pub refactor_every: usize,
    /// Switch to Bland's rule after this many consecutive non-improving
    /// (degenerate) primal iterations; a dual repair of a warm basis is
    /// abandoned for the cold start after this many in total.
    pub degenerate_stall: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iterations: 50_000,
            refactor_every: 120,
            degenerate_stall: 200,
        }
    }
}

/// Pivot magnitude below which a basis is declared numerically singular
/// during (re)factorization. Matches the historical dense Gauss–Jordan
/// threshold so singularity verdicts agree across kernels.
const SINGULAR_TOL: f64 = 1e-12;

/// Sparse column: (row, coefficient) pairs.
type Col = [(usize, f64)];

struct Tableau<'a> {
    m: usize,
    /// Structural and slack columns plus `b`, shared with the model.
    form: &'a ColumnForm,
    /// Artificial columns (cold start only), one signed unit entry each;
    /// artificial `k` is column `n + m + k`.
    art: Vec<(usize, f64)>,
    /// Bounds of every column: structural, then slacks, then artificials.
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// True objective of every column (zero beyond the structurals).
    cost: Vec<f64>,
}

#[derive(Default)]
struct State {
    /// Current value of every variable.
    x: Vec<f64>,
    /// Variable basic in each row.
    basis: Vec<usize>,
    /// `Some(row)` if basic, else `None`.
    basic_row: Vec<Option<usize>>,
    /// For nonbasic variables: resting at upper bound?
    at_upper: Vec<bool>,
    /// Sparse LU factors of the basis as of the last refactorization.
    lu: LuFactors,
    /// Product-form updates appended since then.
    etas: EtaFile,
    iterations: usize,
    pivots_since_refactor: usize,
    use_bland: bool,
    stall: usize,
    stats: SimplexStats,
}

impl State {
    /// Back to "no basis yet, fresh counters" over `total` columns. Every
    /// vector and both factor pools keep their capacity.
    fn reset(&mut self, total: usize) {
        self.x.clear();
        self.x.resize(total, 0.0);
        self.basis.clear();
        self.basic_row.clear();
        self.basic_row.resize(total, None);
        self.at_upper.clear();
        self.at_upper.resize(total, false);
        self.etas.clear();
        self.iterations = 0;
        self.pivots_since_refactor = 0;
        self.use_bland = false;
        self.stall = 0;
        self.stats = SimplexStats::default();
    }
}

/// What a solve allocates per column or per row, parked between solves so
/// a branch-and-bound node costs no allocation beyond its result.
#[derive(Default)]
struct Parked {
    state: State,
    art: Vec<(usize, f64)>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    cost: Vec<f64>,
}

/// Per-solve dense scratch (reused so the pivot loop never allocates).
struct Scratch {
    /// LU workspace (marks, stacks, solve accumulators).
    ws: LuWorkspace,
    /// FTRAN right-hand side, indexed by original row.
    rhs: Vec<f64>,
    /// Entering column's FTRAN image `w = B⁻¹ A_q`, by basis position.
    w: Vec<f64>,
    /// Basic cost vector / BTRAN input, by basis position.
    cb: Vec<f64>,
    /// Duals `y`, indexed by original row.
    y: Vec<f64>,
    /// Dual simplex: reduced cost of every column.
    d: Vec<f64>,
    /// Dual simplex: the pivot row `e_rᵀ B⁻¹ A`, by column.
    alpha: Vec<f64>,
    /// Spare factors: every (re)factorization targets this slot first and
    /// swaps in on success, recycling the entry pools and keeping the live
    /// factors intact when the basis turns out singular.
    spare: LuFactors,
    /// The previous solve's iterate and bound vectors, for reuse.
    parked: Parked,
}

impl Scratch {
    fn new(m: usize, cols: usize) -> Self {
        Scratch {
            ws: LuWorkspace::new(m),
            rhs: vec![0.0; m],
            w: vec![0.0; m],
            cb: vec![0.0; m],
            y: vec![0.0; m],
            d: vec![0.0; cols],
            alpha: vec![0.0; cols],
            spare: LuFactors::default(),
            parked: Parked::default(),
        }
    }

    fn resize(&mut self, m: usize, cols: usize) {
        if self.rhs.len() < m {
            self.rhs.resize(m, 0.0);
            self.w.resize(m, 0.0);
            self.cb.resize(m, 0.0);
            self.y.resize(m, 0.0);
        }
        if self.d.len() < cols {
            self.d.resize(cols, 0.0);
            self.alpha.resize(cols, 0.0);
        }
    }
}

thread_local! {
    /// Recycled [`Scratch`] — the pricing loops of B&B and column
    /// generation fire thousands of small LP solves per round, so the
    /// per-solve workspace is kept warm per thread instead of reallocated.
    static SCRATCH: std::cell::RefCell<Option<Scratch>> =
        const { std::cell::RefCell::new(None) };
}

/// Take the thread's recycled scratch (or build one). Re-entrant solves on
/// the same thread simply build a fresh workspace.
fn take_scratch(m: usize, cols: usize) -> Scratch {
    match SCRATCH.with(|s| s.borrow_mut().take()) {
        Some(mut s) => {
            s.resize(m, cols);
            s
        }
        None => Scratch::new(m, cols),
    }
}

/// Return a scratch to the thread-local slot for the next solve.
fn put_scratch(s: Scratch) {
    SCRATCH.with(|slot| *slot.borrow_mut() = Some(s));
}

impl Tableau<'_> {
    fn num_cols(&self) -> usize {
        self.lower.len()
    }

    fn col(&self, j: usize) -> &Col {
        let shared = self.lower.len() - self.art.len();
        if j < shared {
            self.form.col(j)
        } else {
            &self.art[j - shared..=j - shared]
        }
    }
}

/// `w = B⁻¹ · A_j`: scatter the sparse column, LU forward/backward solve,
/// then the eta file in recording order. `out` is basis-position indexed.
fn ftran_col(state: &State, scratch: &mut Scratch, col: &Col, m: usize) {
    scratch.rhs[..m].fill(0.0);
    for &(row, a) in col {
        scratch.rhs[row] += a;
    }
    state
        .lu
        .ftran(&scratch.rhs, &mut scratch.w, &mut scratch.ws);
    state.etas.apply_ftran(&mut scratch.w[..m]);
}

/// `y = c_Bᵀ · B⁻¹`: eta file newest-first on the basis-position input,
/// then the LU transpose solves. Clobbers `scratch.cb`; duals land in
/// `scratch.y` indexed by original row.
fn btran_duals(state: &State, scratch: &mut Scratch, m: usize) {
    state.etas.apply_btran(&mut scratch.cb[..m]);
    state.lu.btran(&scratch.cb, &mut scratch.y, &mut scratch.ws);
}

/// Factorize the current basis columns into the spare slot and swap it in,
/// resetting the eta file; `false` (factors untouched) if singular.
fn factor_basis(tab: &Tableau, state: &mut State, scratch: &mut Scratch) -> bool {
    let ok = {
        let basis = &state.basis;
        scratch
            .spare
            .factorize_into(tab.m, |i| tab.col(basis[i]), SINGULAR_TOL, &mut scratch.ws)
    };
    if ok {
        std::mem::swap(&mut state.lu, &mut scratch.spare);
        state.etas.clear();
        state.pivots_since_refactor = 0;
    }
    ok
}

/// Rebuild the LU factors from the current basis columns, reset the eta
/// file. Returns `false` (and counts + flight-records the singularity) if
/// the basis is numerically singular; the factors are left unchanged so
/// the caller can decide how to bail out.
fn refactorize(tab: &Tableau, state: &mut State, scratch: &mut Scratch, context: &str) -> bool {
    if factor_basis(tab, state, scratch) {
        state.stats.refactorizations += 1;
        true
    } else {
        state.stats.refactor_singular += 1;
        rasa_obs::flight::emit(|| rasa_obs::TraceEvent::RefactorSingular {
            context: context.to_string(),
            m: tab.m as u64,
        });
        false
    }
}

/// Recompute basic variable values: `x_B = B⁻¹ (b − N x_N)`.
fn recompute_basics(tab: &Tableau, state: &mut State, scratch: &mut Scratch) {
    let m = tab.m;
    scratch.rhs[..m].copy_from_slice(&tab.form.b);
    for j in 0..tab.num_cols() {
        if state.basic_row[j].is_some() {
            continue;
        }
        let xj = state.x[j];
        if xj != 0.0 {
            for &(row, a) in tab.col(j) {
                scratch.rhs[row] -= a * xj;
            }
        }
    }
    state
        .lu
        .ftran(&scratch.rhs, &mut scratch.w, &mut scratch.ws);
    state.etas.apply_ftran(&mut scratch.w[..m]);
    for i in 0..m {
        state.x[state.basis[i]] = scratch.w[i];
    }
}

enum PhaseOutcome {
    Done,
    Unbounded,
    IterationLimit,
}

/// Reduced cost `d_j = c_j − yᵀA_j` of column `j` under the duals `y`.
#[inline]
fn reduced_cost(tab: &Tableau, cost: &[f64], y: &[f64], j: usize) -> f64 {
    let mut d = cost[j];
    for &(row, a) in tab.col(j) {
        d -= y[row] * a;
    }
    d
}

/// Entering-variable eligibility: reduced cost and movement direction, or
/// `None` when the column cannot improve the objective.
fn eligibility(
    tab: &Tableau,
    state: &State,
    cost: &[f64],
    y: &[f64],
    j: usize,
) -> Option<(f64, f64)> {
    if state.basic_row[j].is_some() {
        return None;
    }
    let (l, u) = (tab.lower[j], tab.upper[j]);
    if l == u {
        return None; // fixed variable can never improve
    }
    let d = reduced_cost(tab, cost, y, j);
    let dir = if state.at_upper[j] {
        if d < -OPT_TOL {
            -1.0
        } else {
            return None;
        }
    } else if l.is_infinite() && u.is_infinite() {
        // free at 0: move either way
        if d > OPT_TOL {
            1.0
        } else if d < -OPT_TOL {
            -1.0
        } else {
            return None;
        }
    } else if d > OPT_TOL {
        1.0
    } else {
        return None;
    };
    Some((d, dir))
}

/// Run the simplex to optimality for the cost vector `cost`.
fn run_phase(
    tab: &Tableau,
    state: &mut State,
    scratch: &mut Scratch,
    cost: &[f64],
    options: &SimplexOptions,
    deadline: Deadline,
    iter_budget: usize,
) -> PhaseOutcome {
    let m = tab.m;
    let total = tab.num_cols();
    let mut pricer = PartialPricing::new(total);
    let mut local_iters = 0usize;

    loop {
        if local_iters >= iter_budget {
            return PhaseOutcome::IterationLimit;
        }
        if state.iterations % 64 == 0 && deadline.expired() {
            return PhaseOutcome::IterationLimit;
        }

        // duals
        for i in 0..m {
            scratch.cb[i] = cost[state.basis[i]];
        }
        btran_duals(state, scratch, m);

        // pricing: Bland scans first-eligible in index order (anti-cycling
        // needs the fixed ordering); otherwise the partial pricer picks the
        // best reduced cost in its cyclic window.
        let entering: Option<(usize, f64, f64)> = if state.use_bland {
            (0..total).find_map(|j| {
                eligibility(tab, state, cost, &scratch.y, j).map(|(d, dir)| (j, d, dir))
            })
        } else {
            let picked = {
                let y = &scratch.y;
                pricer.select(total, |j| {
                    eligibility(tab, state, cost, y, j).map(|(d, _)| d.abs())
                })
            };
            picked.and_then(|j| {
                eligibility(tab, state, cost, &scratch.y, j).map(|(d, dir)| (j, d, dir))
            })
        };

        let Some((q, d_q, dir)) = entering else {
            return PhaseOutcome::Done; // optimal for this cost vector
        };

        // direction through the basis
        ftran_col(state, scratch, tab.col(q), m);

        // ---- Harris two-pass ratio test ----
        // Pass 1: smallest ratio when every basic variable may overshoot
        // its bound by FEAS_TOL. Pass 2: among rows whose *exact* ratio
        // fits under that relaxed bound, take the largest |pivot| — on
        // degenerate ties this prefers the numerically stable pivot where
        // the historical rule took whichever row came first.
        let span_q = tab.upper[q] - tab.lower[q]; // may be inf
        let mut t_relax = f64::INFINITY;
        for i in 0..m {
            let wi = scratch.w[i];
            if wi.abs() <= PIVOT_TOL {
                continue;
            }
            let k = state.basis[i];
            let xk = state.x[k];
            let step = dir * wi;
            let t = if step > 0.0 {
                // basic var decreases toward its lower bound
                let lk = tab.lower[k];
                if !lk.is_finite() {
                    continue;
                }
                ((xk - lk + FEAS_TOL) / step).max(0.0)
            } else {
                // basic var increases toward its upper bound
                let uk = tab.upper[k];
                if !uk.is_finite() {
                    continue;
                }
                ((uk - xk + FEAS_TOL) / -step).max(0.0)
            };
            if t < t_relax {
                t_relax = t;
            }
        }

        if t_relax.is_infinite() && !span_q.is_finite() {
            return PhaseOutcome::Unbounded;
        }

        let t_star;
        let mut leave: Option<(usize, bool)> = None; // (row, leaving-to-upper?)
        let cap = t_relax.min(span_q);
        if t_relax.is_finite() {
            let mut best_mag = 0.0f64;
            let mut t_exact_min = f64::INFINITY;
            let mut candidates = 0usize;
            for i in 0..m {
                let wi = scratch.w[i];
                if wi.abs() <= PIVOT_TOL {
                    continue;
                }
                let k = state.basis[i];
                let xk = state.x[k];
                let step = dir * wi;
                let (t, to_upper) = if step > 0.0 {
                    let lk = tab.lower[k];
                    if !lk.is_finite() {
                        continue;
                    }
                    (((xk - lk) / step).max(0.0), false)
                } else {
                    let uk = tab.upper[k];
                    if !uk.is_finite() {
                        continue;
                    }
                    (((uk - xk) / -step).max(0.0), true)
                };
                if t < t_exact_min {
                    t_exact_min = t;
                }
                if t <= cap {
                    candidates += 1;
                    let mag = wi.abs();
                    if mag > best_mag {
                        best_mag = mag;
                        leave = Some((i, to_upper));
                    }
                }
            }
            if span_q.is_finite() && t_exact_min >= span_q - 1e-12 {
                // the entering variable reaches its far bound first
                leave = None;
                t_star = span_q;
            } else if let Some((r, _)) = leave {
                if candidates > 1 {
                    state.stats.harris_ties += 1;
                }
                // recover the chosen row's exact ratio
                let wi = scratch.w[r];
                let k = state.basis[r];
                let xk = state.x[k];
                let step = dir * wi;
                t_star = if step > 0.0 {
                    ((xk - tab.lower[k]) / step).max(0.0)
                } else {
                    ((tab.upper[k] - xk) / -step).max(0.0)
                };
            } else {
                // all finite-bound rows were filtered by PIVOT_TOL slack;
                // fall back to the entering variable's own span
                if span_q.is_finite() {
                    t_star = span_q;
                } else {
                    return PhaseOutcome::Unbounded;
                }
            }
        } else {
            // no blocking row at all: bound flip (span_q finite here)
            t_star = span_q;
        }

        // apply the step
        if t_star > 0.0 {
            for i in 0..m {
                if scratch.w[i] != 0.0 {
                    let k = state.basis[i];
                    state.x[k] -= dir * t_star * scratch.w[i];
                }
            }
            state.x[q] += dir * t_star;
        }

        match leave {
            None => {
                // bound flip: q jumps to its other bound, basis unchanged
                state.stats.bound_flips += 1;
                state.at_upper[q] = !state.at_upper[q];
                // snap exactly onto the bound to avoid drift
                state.x[q] = if state.at_upper[q] {
                    tab.upper[q]
                } else {
                    tab.lower[q]
                };
            }
            Some((r, to_upper)) => {
                state.stats.pivots += 1;
                let leaving = state.basis[r];
                // snap the leaving variable onto the bound it reached
                state.x[leaving] = if to_upper {
                    tab.upper[leaving]
                } else {
                    tab.lower[leaving]
                };
                state.at_upper[leaving] = to_upper;
                state.basic_row[leaving] = None;
                state.basis[r] = q;
                state.basic_row[q] = Some(r);

                // product-form update: append an eta instead of touching
                // an O(m²) inverse
                debug_assert!(scratch.w[r].abs() > PIVOT_TOL);
                let stored = state.etas.push(r, &scratch.w[..m]);
                state.stats.eta_updates += 1;
                state.stats.eta_nnz += stored;

                state.pivots_since_refactor += 1;
                if state.pivots_since_refactor >= options.refactor_every {
                    if !refactorize(tab, state, scratch, "mid_solve") {
                        return PhaseOutcome::IterationLimit;
                    }
                    recompute_basics(tab, state, scratch);
                }
            }
        }

        // degeneracy / cycling guard: the objective gain of this iteration
        // is exactly |reduced cost| × step length, so a full O(columns)
        // objective recompute is unnecessary here.
        if d_q.abs() * t_star > OPT_TOL {
            // progress resets the stall counter but NOT `use_bland`: the
            // switch to Bland's rule is permanent for the rest of the solve.
            // Degenerate LPs alternate improving and stalled stretches, and
            // re-arming Dantzig pricing after one improving step restores
            // exactly the cycling risk the switch exists to prevent.
            state.stall = 0;
        } else {
            state.stall += 1;
            if state.stall >= options.degenerate_stall && !state.use_bland {
                state.use_bland = true;
                state.stats.bland_activations += 1;
            }
        }

        state.iterations += 1;
        local_iters += 1;
    }
}

/// Reduced costs `d_j = c_j − yᵀA_j` of every nonbasic column into
/// `scratch.d` (0 for basic columns), from freshly solved duals.
fn compute_reduced_costs(tab: &Tableau, state: &State, scratch: &mut Scratch) {
    let m = tab.m;
    let cost = &tab.cost;
    for i in 0..m {
        scratch.cb[i] = cost[state.basis[i]];
    }
    btran_duals(state, scratch, m);
    for j in 0..tab.num_cols() {
        scratch.d[j] = if state.basic_row[j].is_some() {
            0.0
        } else {
            reduced_cost(tab, cost, &scratch.y, j)
        };
    }
}

/// Make the basis dual-feasible if resting choices alone can: a nonbasic
/// variable whose reduced cost points away from its bound is moved to its
/// other bound when that one is finite. Returns `false` when a one-sided
/// (or free) variable has a wrong-signed reduced cost — the dual simplex
/// cannot start from this basis. Leaves the reduced costs in `scratch.d`.
fn make_dual_feasible(tab: &Tableau, state: &mut State, scratch: &mut Scratch) -> bool {
    compute_reduced_costs(tab, state, scratch);
    let mut flips = 0usize;
    for j in 0..tab.num_cols() {
        let (l, u) = (tab.lower[j], tab.upper[j]);
        if state.basic_row[j].is_some() || l == u {
            continue;
        }
        let d = scratch.d[j];
        if state.at_upper[j] {
            if d < -OPT_TOL {
                if !l.is_finite() {
                    return false;
                }
                state.at_upper[j] = false;
                state.x[j] = l;
                flips += 1;
            }
        } else if d > OPT_TOL {
            if !u.is_finite() {
                return false;
            }
            state.at_upper[j] = true;
            state.x[j] = u;
            flips += 1;
        } else if d < -OPT_TOL && !l.is_finite() {
            return false; // free variable resting at 0
        }
    }
    if flips > 0 {
        state.stats.bound_flips += flips;
        recompute_basics(tab, state, scratch);
    }
    true
}

enum DualOutcome {
    /// Every basic variable is back inside its bounds.
    PrimalFeasible,
    /// The ratio test found no entering column: the LP is infeasible.
    Infeasible,
    /// The objective fell to this value, at or below the cutoff.
    Cutoff(f64),
    /// The deadline expired.
    OutOfTime,
    /// Singular refactorization, drifting pivot, degenerate stall or
    /// iteration cap.
    Failed,
}

/// How far a nonbasic column's reduced cost is from changing sign, if the
/// column can enter at all: `a` is its pivot-row entry oriented so that a
/// negative value moves the leaving variable toward its bound when the
/// column rises from its lower bound.
fn dual_slack(tab: &Tableau, state: &State, d: f64, j: usize, a: f64) -> Option<f64> {
    if a.abs() <= PIVOT_TOL {
        None
    } else if tab.lower[j].is_infinite() && tab.upper[j].is_infinite() {
        Some(0.0) // free: any dual step breaks d = 0
    } else if state.at_upper[j] {
        (a > 0.0).then_some(d.max(0.0))
    } else {
        (a < 0.0).then_some((-d).max(0.0))
    }
}

/// Bounded-variable dual simplex from a dual-feasible basis whose reduced
/// costs are in `scratch.d`: pivot until the basis is primal-feasible too.
#[allow(clippy::too_many_arguments)]
fn run_dual(
    tab: &Tableau,
    state: &mut State,
    scratch: &mut Scratch,
    n: usize,
    options: &SimplexOptions,
    deadline: Deadline,
    cutoff: f64,
) -> DualOutcome {
    let m = tab.m;
    let total = tab.num_cols();
    let mut stalled = 0usize;

    loop {
        if state.iterations >= options.max_iterations {
            return DualOutcome::Failed;
        }
        if state.iterations % 64 == 0 && deadline.expired() {
            return DualOutcome::OutOfTime;
        }
        // The dual objective is the primal objective of the current
        // (infeasible) iterate and only falls from here.
        if cutoff > f64::NEG_INFINITY {
            let z: f64 = (0..n).map(|j| tab.cost[j] * state.x[j]).sum();
            if z <= cutoff {
                return DualOutcome::Cutoff(z);
            }
        }

        // leaving row: largest bound violation
        let mut leave: Option<(usize, f64)> = None;
        for i in 0..m {
            let k = state.basis[i];
            let v = state.x[k];
            let viol = (tab.lower[k] - v).max(v - tab.upper[k]);
            if viol > FEAS_TOL && leave.map_or(true, |(_, worst)| viol > worst) {
                leave = Some((i, viol));
            }
        }
        let Some((r, viol)) = leave else {
            return DualOutcome::PrimalFeasible;
        };
        let k = state.basis[r];
        let below = state.x[k] < tab.lower[k];
        let target = if below { tab.lower[k] } else { tab.upper[k] };
        let sigma = if below { 1.0 } else { -1.0 };

        // pivot row: ρ = e_rᵀ B⁻¹, then α_j = ρ·A_j over the nonbasic columns
        scratch.cb[..m].fill(0.0);
        scratch.cb[r] = 1.0;
        btran_duals(state, scratch, m);

        // ---- Harris two-pass dual ratio test ----
        // Pass 1: smallest ratio when every reduced cost may overshoot zero
        // by OPT_TOL. Pass 2: among columns whose exact ratio fits under
        // it, the largest |α| (the smaller ratio on equal |α|).
        let mut theta_relax = f64::INFINITY;
        for j in 0..total {
            scratch.alpha[j] = 0.0;
            if state.basic_row[j].is_some() || tab.lower[j] == tab.upper[j] {
                continue; // fixed variables never enter
            }
            let mut a = 0.0;
            for &(row, v) in tab.col(j) {
                a += scratch.y[row] * v;
            }
            scratch.alpha[j] = a;
            if let Some(slack) = dual_slack(tab, state, scratch.d[j], j, sigma * a) {
                theta_relax = theta_relax.min((slack + OPT_TOL) / a.abs());
            }
        }
        let mut enter: Option<(usize, f64, f64)> = None; // (column, |α|, ratio)
        let mut candidates = 0usize;
        for j in 0..total {
            let a = scratch.alpha[j];
            let Some(slack) = dual_slack(tab, state, scratch.d[j], j, sigma * a) else {
                continue;
            };
            let ratio = slack / a.abs();
            if ratio <= theta_relax {
                candidates += 1;
                if enter.map_or(true, |(_, mag, best)| {
                    a.abs() > mag || (a.abs() == mag && ratio < best)
                }) {
                    enter = Some((j, a.abs(), ratio));
                }
            }
        }
        let Some((q, _, ratio_q)) = enter else {
            // no column can move x_k back toward its bound
            return DualOutcome::Infeasible;
        };
        if candidates > 1 {
            state.stats.harris_ties += 1;
        }

        // entering column through the basis; its r-th entry is α_q again,
        // computed the other way round — disagreement means drift
        ftran_col(state, scratch, tab.col(q), m);
        let alpha_q = scratch.alpha[q];
        let pivot = scratch.w[r];
        if (pivot - alpha_q).abs() > 1e-6 * (1.0 + alpha_q.abs()) {
            if state.pivots_since_refactor == 0 || !refactorize(tab, state, scratch, "dual") {
                return DualOutcome::Failed;
            }
            recompute_basics(tab, state, scratch);
            compute_reduced_costs(tab, state, scratch);
            continue;
        }

        // dual step of length ratio_q: d_q → 0 and the leaving variable
        // takes −θ. A reduced cost already past zero (inside OPT_TOL) makes
        // the step zero-length rather than backwards, so tolerated dual
        // infeasibilities never feed on each other.
        let theta = sigma * ratio_q;
        for j in 0..total {
            if scratch.alpha[j] != 0.0 {
                scratch.d[j] -= theta * scratch.alpha[j];
            }
        }
        scratch.d[q] = 0.0;
        scratch.d[k] = -theta;

        // primal step: x_k lands on the bound it violated
        let t = (state.x[k] - target) / pivot;
        for i in 0..m {
            if scratch.w[i] != 0.0 {
                state.x[state.basis[i]] -= t * scratch.w[i];
            }
        }
        state.x[q] += t;
        state.x[k] = target;
        state.at_upper[k] = !below;
        state.basic_row[k] = None;
        state.basis[r] = q;
        state.basic_row[q] = Some(r);

        state.stats.pivots += 1;
        state.stats.dual_iterations += 1;
        let stored = state.etas.push(r, &scratch.w[..m]);
        state.stats.eta_updates += 1;
        state.stats.eta_nnz += stored;
        state.pivots_since_refactor += 1;
        if state.pivots_since_refactor >= options.refactor_every {
            if !refactorize(tab, state, scratch, "dual") {
                return DualOutcome::Failed;
            }
            recompute_basics(tab, state, scratch);
            compute_reduced_costs(tab, state, scratch);
        }

        // The objective fell by |θ| × violation. A child LP is a few
        // pivots from its parent; a repair that keeps taking zero-length
        // steps is wandering over a dual-degenerate vertex (where the
        // largest-violation rule is no guide and the iterate drifts far
        // outside its bounds), so after `degenerate_stall` of them in total
        // it is abandoned for the cold start.
        if theta.abs() * viol <= OPT_TOL {
            stalled += 1;
            if stalled >= options.degenerate_stall {
                return DualOutcome::Failed;
            }
        }
        state.iterations += 1;
    }
}

/// Solve `model` (maximization) with the given options and deadline.
///
/// Per-solve counters come back in [`LpSolution::stats`] (deterministic,
/// for tests) and are also flushed into the global [`rasa_obs`] registry
/// under `simplex.*` (aggregate telemetry).
pub fn solve_simplex(model: &LpModel, options: &SimplexOptions, deadline: Deadline) -> LpSolution {
    solve_simplex_warm(model, options, deadline, None)
}

/// [`solve_simplex`] with an optional warm-start basis from a previous
/// solve of a same-shaped model (see [`Basis`] and the module docs for the
/// three routes a warm solve can take).
///
/// The outcome is recorded in [`SimplexStats::warm_accepted`] /
/// [`SimplexStats::warm_rejected`] and the `simplex.warm_accepted` /
/// `simplex.warm_rejected` obs counters.
pub fn solve_simplex_warm(
    model: &LpModel,
    options: &SimplexOptions,
    deadline: Deadline,
    warm: Option<&Basis>,
) -> LpSolution {
    solve_simplex_above(model, options, deadline, warm, f64::NEG_INFINITY)
}

/// [`solve_simplex_warm`] with the objective cutoff of
/// [`LpModel::solve_warm_above`].
pub(crate) fn solve_simplex_above(
    model: &LpModel,
    options: &SimplexOptions,
    deadline: Deadline,
    warm: Option<&Basis>,
    cutoff: f64,
) -> LpSolution {
    let _fs = rasa_obs::flight::span("lp.simplex");
    let sol = if model.num_rows() == 0 {
        solve_bounds_only(model)
    } else {
        let mut scratch = take_scratch(model.num_rows(), model.num_vars() + model.num_rows());
        let mut parked = std::mem::take(&mut scratch.parked);
        let sol = solve_with_scratch(
            model,
            options,
            deadline,
            warm,
            cutoff,
            &mut scratch,
            &mut parked,
        );
        scratch.parked = parked;
        put_scratch(scratch);
        sol
    };
    let stats = &sol.stats;
    let values = [
        1,
        stats.pivots,
        stats.bound_flips,
        stats.refactorizations,
        stats.refactor_singular,
        stats.eta_updates,
        stats.eta_nnz,
        stats.harris_ties,
        stats.bland_activations,
        stats.phase1_iterations,
        stats.phase2_iterations,
        stats.dual_iterations,
        usize::from(stats.warm_accepted),
        usize::from(stats.warm_rejected),
        // out of pivots, not out of time: the deadline stops with the same
        // status, and a singular refactorization stops short of the cap
        usize::from(
            sol.status == LpStatus::IterationLimit
                && sol.iterations >= options.max_iterations
                && !deadline.expired(),
        ),
    ];
    for (counter, value) in counters().iter().zip(values) {
        counter.add(value as u64);
    }
    sol
}

/// The `simplex.*` counters, in the order [`solve_simplex_above`] flushes
/// them. Branch-and-bound fires a solve every few microseconds, so the
/// handles are resolved once and each flush is fifteen lock-free adds
/// rather than fifteen trips through the registry's name map.
fn counters() -> &'static [Arc<Counter>; 15] {
    static HANDLES: OnceLock<[Arc<Counter>; 15]> = OnceLock::new();
    HANDLES.get_or_init(|| {
        [
            "simplex.solves",
            "simplex.pivots",
            "simplex.bound_flips",
            "simplex.refactorizations",
            "simplex.refactor_singular",
            "simplex.eta_updates",
            "simplex.eta_nnz",
            "simplex.harris_ties",
            "simplex.bland_activations",
            "simplex.phase1_iterations",
            "simplex.phase2_iterations",
            "simplex.dual_iterations",
            "simplex.warm_accepted",
            "simplex.warm_rejected",
            "simplex.iteration_limit",
        ]
        .map(|name| rasa_obs::global().counter(name))
    })
}

/// What became of a warm-start basis.
enum WarmStart {
    /// Primal-feasible (as supplied, or after the dual repair): continue
    /// with primal phase 2.
    Ready,
    /// The dual simplex settled the solve (infeasible, cut off, or out of
    /// time) with this status and objective.
    Done(LpStatus, f64),
    /// Unusable; cold-start, keeping the counters of the attempt.
    Rejected,
}

/// Revive a warm-start basis: validate its shape, rest every nonbasic
/// variable on a bound (honoring `at_upper` where the bound is finite),
/// factorize, and then take the first route that applies — primal-feasible
/// as it stands, or dual-feasible and repaired by [`run_dual`].
///
/// A numerically singular basis is rejected with the singularity counted
/// (surfaced as `simplex.refactor_singular` on the cold-started solve that
/// follows) — it used to vanish without a trace.
#[allow(clippy::too_many_arguments)]
fn warm_start(
    tab: &Tableau,
    n: usize,
    wb: &Basis,
    options: &SimplexOptions,
    deadline: Deadline,
    cutoff: f64,
    state: &mut State,
    scratch: &mut Scratch,
) -> WarmStart {
    let m = tab.m;
    let total = n + m;
    if wb.basic.len() != m || wb.at_upper.len() != total {
        return WarmStart::Rejected;
    }
    for (i, &j) in wb.basic.iter().enumerate() {
        if j >= total || state.basic_row[j].is_some() {
            return WarmStart::Rejected; // out of range or duplicate column
        }
        state.basic_row[j] = Some(i);
    }
    for j in 0..total {
        if state.basic_row[j].is_some() {
            continue;
        }
        let (l, u) = (tab.lower[j], tab.upper[j]);
        // Rest on the recorded bound when it is finite under the *current*
        // model; otherwise fall back to any finite bound (bounds may have
        // changed since the basis was exported), then to 0 for free vars.
        state.x[j] = if wb.at_upper[j] && u.is_finite() {
            state.at_upper[j] = true;
            u
        } else if l.is_finite() {
            l
        } else if u.is_finite() {
            state.at_upper[j] = true;
            u
        } else {
            0.0
        };
    }
    state.basis.extend_from_slice(&wb.basic);
    if !refactorize(tab, state, scratch, "warm_start") {
        return WarmStart::Rejected;
    }
    recompute_basics(tab, state, scratch);
    let primal_feasible = (0..m).all(|i| {
        let k = state.basis[i];
        let v = state.x[k];
        v >= tab.lower[k] - FEAS_TOL && v <= tab.upper[k] + FEAS_TOL
    });
    if primal_feasible {
        return WarmStart::Ready;
    }
    if !make_dual_feasible(tab, state, scratch) {
        return WarmStart::Rejected;
    }
    match run_dual(tab, state, scratch, n, options, deadline, cutoff) {
        DualOutcome::PrimalFeasible => WarmStart::Ready,
        DualOutcome::Failed => WarmStart::Rejected,
        DualOutcome::Infeasible => WarmStart::Done(LpStatus::Infeasible, f64::NEG_INFINITY),
        DualOutcome::Cutoff(z) => WarmStart::Done(LpStatus::Cutoff, z),
        DualOutcome::OutOfTime => WarmStart::Done(LpStatus::IterationLimit, f64::NEG_INFINITY),
    }
}

/// Rowless models reduce to independently optimizing each variable over
/// its box; shared by the sparse and dense kernels.
pub(crate) fn solve_bounds_only(model: &LpModel) -> LpSolution {
    let n = model.num_vars();
    let mut x = vec![0.0; n];
    for j in 0..n {
        let c = model.objective[j];
        let (l, u) = (model.lower[j], model.upper[j]);
        x[j] = if c > 0.0 {
            if u.is_finite() {
                u
            } else {
                return LpSolution {
                    status: LpStatus::Unbounded,
                    objective: f64::INFINITY,
                    x,
                    duals: vec![],
                    feasible: true,
                    iterations: 0,
                    stats: SimplexStats::default(),
                    basis: None,
                };
            }
        } else if c < 0.0 {
            if l.is_finite() {
                l
            } else {
                return LpSolution {
                    status: LpStatus::Unbounded,
                    objective: f64::INFINITY,
                    x,
                    duals: vec![],
                    feasible: true,
                    iterations: 0,
                    stats: SimplexStats::default(),
                    basis: None,
                };
            }
        } else if l.is_finite() {
            l
        } else if u.is_finite() {
            u
        } else {
            0.0
        };
    }
    let objective = model.objective_value(&x);
    LpSolution {
        status: LpStatus::Optimal,
        objective,
        x,
        duals: vec![],
        feasible: true,
        iterations: 0,
        stats: SimplexStats::default(),
        basis: None,
    }
}

fn solve_with_scratch(
    model: &LpModel,
    options: &SimplexOptions,
    deadline: Deadline,
    warm: Option<&Basis>,
    cutoff: f64,
    scratch: &mut Scratch,
    parked: &mut Parked,
) -> LpSolution {
    // ---- computational form: shared columns, this solve's bounds ----
    let form = model.column_form();
    let mut tab = Tableau {
        m: model.num_rows(),
        form,
        art: std::mem::take(&mut parked.art),
        lower: std::mem::take(&mut parked.lower),
        upper: std::mem::take(&mut parked.upper),
        cost: std::mem::take(&mut parked.cost),
    };
    tab.art.clear();
    tab.lower.clear();
    tab.lower.extend_from_slice(&model.lower);
    tab.lower.extend_from_slice(&form.slack_lower);
    tab.upper.clear();
    tab.upper.extend_from_slice(&model.upper);
    tab.upper.extend_from_slice(&form.slack_upper);
    tab.cost.clear();
    tab.cost.extend_from_slice(&model.objective);
    tab.cost.resize(tab.lower.len(), 0.0);

    let sol = solve_tableau(
        model,
        &mut tab,
        options,
        deadline,
        warm,
        cutoff,
        &mut parked.state,
        scratch,
    );
    (parked.art, parked.lower, parked.upper, parked.cost) =
        (tab.art, tab.lower, tab.upper, tab.cost);
    sol
}

#[allow(clippy::too_many_arguments)]
fn solve_tableau(
    model: &LpModel,
    tab: &mut Tableau,
    options: &SimplexOptions,
    deadline: Deadline,
    warm: Option<&Basis>,
    cutoff: f64,
    state: &mut State,
    scratch: &mut Scratch,
) -> LpSolution {
    let n = model.num_vars();
    let m = tab.m;

    // ---- warm start: revive the supplied basis if it still validates ----
    state.reset(n + m);
    let revived = warm.map(|wb| warm_start(tab, n, wb, options, deadline, cutoff, state, scratch));

    // iterations an abandoned warm attempt used up; the cold start that
    // follows gets the full `max_iterations` of its own
    let mut spent_iterations = 0usize;
    let n_art = match revived {
        Some(WarmStart::Done(status, objective)) => {
            state.stats.warm_accepted = true;
            return LpSolution {
                status,
                objective,
                stats: state.stats,
                ..LpSolution::infeasible(n, m, state.iterations)
            };
        }
        Some(WarmStart::Ready) => {
            // Feasible basis recovered: no artificials, phase 1 skipped.
            state.stats.warm_accepted = true;
            0
        }
        abandoned => {
            // ---- cold start ----
            if abandoned.is_some() {
                let spent = state.stats;
                spent_iterations = state.iterations;
                state.reset(n + m);
                state.stats = spent;
                state.stats.warm_rejected = true;
                state.iterations = spent_iterations;
            }
            let State {
                x, at_upper, basis, ..
            } = &mut *state;
            // initial point: structural vars at their nearest finite bound
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

            // residual the slack of each row must absorb
            let mut residual = tab.form.b.clone();
            for j in 0..n {
                if x[j] != 0.0 {
                    for &(row, a) in tab.col(j) {
                        residual[row] -= a * x[j];
                    }
                }
            }

            // basis: slack where feasible, artificial where not
            for i in 0..m {
                let s = n + i;
                let (sl, su) = (tab.lower[s], tab.upper[s]);
                if residual[i] >= sl - FEAS_TOL && residual[i] <= su + FEAS_TOL {
                    basis.push(s);
                    x[s] = residual[i];
                } else {
                    // slack rests at the bound nearest the residual, an
                    // artificial absorbs what is left
                    let rest = if residual[i] < sl { sl } else { su };
                    x[s] = rest;
                    at_upper[s] = rest == su && su.is_finite() && sl != su;
                    let r = residual[i] - rest;
                    basis.push(tab.num_cols());
                    tab.art.push((i, if r >= 0.0 { 1.0 } else { -1.0 }));
                    tab.lower.push(0.0);
                    tab.upper.push(f64::INFINITY);
                    tab.cost.push(0.0);
                    x.push(r.abs());
                    at_upper.push(false);
                }
            }
            state.basic_row.resize(tab.num_cols(), None);
            for (i, &j) in state.basis.iter().enumerate() {
                state.basic_row[j] = Some(i);
            }

            // B is diagonal ±1 at start (slacks +1, artificials ±1): its LU
            // factorization is immediate and cannot be singular.
            let ok = factor_basis(tab, state, scratch);
            assert!(ok, "±1 diagonal start basis cannot be singular");
            tab.art.len()
        }
    };

    let total = tab.num_cols();

    // ---- phase 1 ----
    if n_art > 0 {
        rasa_obs::flight::emit(|| rasa_obs::TraceEvent::SimplexPhase {
            transition: "start->phase1".into(),
        });
        let mut cost1 = vec![0.0f64; total];
        for c in cost1.iter_mut().skip(total - n_art) {
            *c = -1.0;
        }
        let phase1_start = state.iterations;
        let outcome = run_phase(
            tab,
            state,
            scratch,
            &cost1,
            options,
            deadline,
            options.max_iterations,
        );
        let infeasibility: f64 = (total - n_art..total).map(|j| state.x[j]).sum();
        state.stats.phase1_iterations = state.iterations - phase1_start;
        match outcome {
            PhaseOutcome::Done => {
                // Judge the residual infeasibility at the same FEAS_TOL the
                // phases pivot against. This gate was historically a
                // hardcoded 1e-6, an order looser than the default
                // tolerance — near-infeasible models slipped through and
                // were only (wrongly) blessed by the equally loose exit
                // verdict below.
                if infeasibility > FEAS_TOL {
                    let mut sol = LpSolution::infeasible(n, m, state.iterations);
                    sol.stats = state.stats;
                    return sol;
                }
            }
            PhaseOutcome::Unbounded => {
                // cannot happen: phase-1 objective is bounded above by 0
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
        // pin artificials at zero for phase 2
        for j in total - n_art..total {
            tab.upper[j] = 0.0;
            state.x[j] = 0.0;
            state.at_upper[j] = false;
        }
        rasa_obs::flight::emit(|| rasa_obs::TraceEvent::SimplexPhase {
            transition: "phase1->phase2".into(),
        });
    } else {
        rasa_obs::flight::emit(|| rasa_obs::TraceEvent::SimplexPhase {
            transition: if state.stats.warm_accepted {
                "warm->phase2"
            } else {
                "start->phase2"
            }
            .into(),
        });
    }

    // ---- phase 2 ----
    let budget = (options.max_iterations + spent_iterations).saturating_sub(state.iterations);
    let phase2_start = state.iterations;
    let outcome = run_phase(tab, state, scratch, &tab.cost, options, deadline, budget);
    state.stats.phase2_iterations = state.iterations - phase2_start;

    // squash incremental drift before judging the result: basic values are
    // recomputed from the factorization one last time
    recompute_basics(tab, state, scratch);

    // duals at the final basis: an optimal exit priced every column against
    // them on its way out, any other exit left `y` one pivot behind
    if !matches!(outcome, PhaseOutcome::Done) {
        for i in 0..m {
            scratch.cb[i] = tab.cost[state.basis[i]];
        }
        btran_duals(state, scratch, m);
    }
    let duals = scratch.y[..m].to_vec();

    let xs: Vec<f64> = state.x[..n].to_vec();
    let objective = model.objective_value(&xs);
    // The exit verdict uses the same FEAS_TOL the phases pivoted against.
    // It was historically `FEAS_TOL.max(1e-6) * 10.0` — 10× looser than
    // anything the solve enforced, so a solution could be declared
    // Optimal+feasible here and then rejected by certify_placement.
    let feasible = model.is_feasible_point(&xs, FEAS_TOL);

    let status = match outcome {
        PhaseOutcome::Done => LpStatus::Optimal,
        PhaseOutcome::Unbounded => LpStatus::Unbounded,
        PhaseOutcome::IterationLimit => LpStatus::IterationLimit,
    };

    // Export the final basis for warm-starting a later re-solve, but only
    // when it is artificial-free (a basic artificial — possible after a
    // degenerate phase 1 — has no meaning in a fresh computational form).
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
