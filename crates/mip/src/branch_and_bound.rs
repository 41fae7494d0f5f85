//! Best-bound branch-and-bound over LP relaxations.

use crate::model::MipModel;
use crate::solution::{MipSolution, MipStatus};
use rasa_lp::{Basis, Deadline, LpModel, LpStatus, SimplexOptions};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Integrality tolerance: a value within this of an integer counts as
/// integral.
pub const INT_TOL: f64 = 1e-6;
/// Relative gap at which the incumbent is declared optimal.
pub const GAP_TOL: f64 = 1e-6;

/// Limits and heuristics for [`MipModel::solve_with`]. Its tolerances are
/// the constants [`INT_TOL`] and [`GAP_TOL`].
#[derive(Clone, Debug)]
pub struct MipOptions {
    /// Simplex options used for every relaxation.
    pub lp: SimplexOptions,
    /// Maximum branch-and-bound nodes.
    pub max_nodes: usize,
    /// Try the LP-rounding incumbent heuristic at the root and every this
    /// many nodes (0 disables).
    pub rounding_every: usize,
    /// Run the LP diving heuristic at the root for a strong initial
    /// incumbent (a handful of extra LP solves).
    pub dive: bool,
}

impl Default for MipOptions {
    fn default() -> Self {
        MipOptions {
            lp: SimplexOptions::default(),
            max_nodes: 200_000,
            rounding_every: 64,
            dive: true,
        }
    }
}

/// A subproblem: variable bound overrides relative to the root model.
struct Node {
    /// LP bound inherited from the parent (upper bound on this subtree).
    bound: f64,
    /// Overridden bounds: `(var index, lower, upper)`.
    changes: Vec<(usize, f64, f64)>,
    depth: usize,
    /// The parent's optimal basis, shared with the sibling. One branching
    /// bound away from this node's LP it is still dual-feasible, so the
    /// relaxation re-solves from it by dual simplex in a few pivots.
    /// `None` when the parent's solve exported no basis.
    basis: Option<Rc<PackedBasis>>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // max-heap on bound (best-first); deeper first on ties → plunging
        self.bound
            .partial_cmp(&other.bound)
            .unwrap_or(Ordering::Equal)
            .then(self.depth.cmp(&other.depth))
    }
}

/// A [`Basis`] as the open-node heap holds it: thousands of nodes may be
/// waiting on an LP with over a thousand rows, so it is two bits per column
/// — is it basic, and does it rest at its upper bound — instead of a word
/// per row and a byte per column. Which row a basic column is assigned to
/// is not kept: any assignment describes the same basis matrix.
struct PackedBasis {
    basic: Box<[u64]>,
    at_upper: Box<[u64]>,
}

impl PackedBasis {
    fn pack(basis: &Basis) -> Self {
        let words = basis.at_upper.len().div_ceil(64);
        let mut basic = vec![0u64; words];
        for &j in &basis.basic {
            basic[j / 64] |= 1 << (j % 64);
        }
        let mut at_upper = vec![0u64; words];
        for (j, _) in basis.at_upper.iter().enumerate().filter(|(_, &up)| up) {
            at_upper[j / 64] |= 1 << (j % 64);
        }
        PackedBasis {
            basic: basic.into(),
            at_upper: at_upper.into(),
        }
    }

    /// Expand into `out`, which keeps its allocations between nodes.
    fn unpack_into(&self, out: &mut Basis) {
        out.basic.clear();
        for (j, up) in out.at_upper.iter_mut().enumerate() {
            let bit = 1 << (j % 64);
            if self.basic[j / 64] & bit != 0 {
                out.basic.push(j);
            }
            *up = self.at_upper[j / 64] & bit != 0;
        }
    }
}

/// The integer variable to branch on, or `None` when the point is
/// integral. Among the integer variables whose fractionality
/// `f_j = min(v − ⌊v⌋, ⌈v⌉ − v)` exceeds [`INT_TOL`], the one with the
/// largest score `|c_j| × f_j` wins, then the more fractional, then the
/// lowest index — a cheap stand-in for pseudo-cost branching (Achterberg,
/// Koch & Martin, "Branching rules revisited", 2005): a variable's branches
/// can move the bound by about its objective weight times the distance it
/// must travel. When every candidate costs 0 all scores are 0 and the most
/// fractional variable is taken.
fn pick_branch_var(model: &MipModel, x: &[f64]) -> Option<usize> {
    model
        .is_integer
        .iter()
        .zip(x)
        .enumerate()
        .filter_map(|(j, (&is_int, &v))| {
            let frac = (v - v.round()).abs();
            let weight = model.lp.objective_of(rasa_lp::VarId(j)).abs();
            (is_int && frac > INT_TOL).then_some((j, frac, weight * frac))
        })
        .max_by(|&(i, fi, si), &(j, fj, sj)| {
            si.total_cmp(&sj).then(fi.total_cmp(&fj)).then(j.cmp(&i))
        })
        .map(|(j, _, _)| j)
}

/// LP diving: repeatedly solve the relaxation, pin every integer variable
/// that already sits on an integer, then round the fractional variable
/// closest to an integer and pin it too. If a rounding makes the LP
/// infeasible, retry with its floor (for `<=`-dominated models flooring
/// only relaxes rows), then with its ceiling, before giving up. Returns an
/// integral feasible point, usually far better than naive rounding, at the
/// cost of a handful of LP solves, whose simplex iterations it adds to
/// `lp_iterations`.
fn diving_heuristic(
    model: &MipModel,
    lp_template: &LpModel,
    options: &MipOptions,
    deadline: Deadline,
    lp_iterations: &mut usize,
) -> Option<(Vec<f64>, f64)> {
    let mut lp = lp_template.clone();
    let max_rounds = 24usize;
    // the batch pinned in the previous round, kept for the floor fallback
    let mut last_batch: Vec<(usize, f64, f64, f64)> = Vec::new(); // (var, lp value, orig_l, orig_u)
    let mut retried = false;
    for _ in 0..max_rounds {
        if deadline.expired() {
            return None;
        }
        let sol = lp.solve_with(&options.lp, deadline);
        *lp_iterations += sol.iterations;
        if sol.status != LpStatus::Optimal {
            // the last batch over-constrained the LP: retry it with floors
            if !retried && !last_batch.is_empty() {
                retried = true;
                for &(j, v, orig_l, orig_u) in &last_batch {
                    let floored = v.floor().clamp(orig_l, orig_u);
                    lp.set_bounds(rasa_lp::VarId(j), floored, floored);
                }
                continue;
            }
            return None;
        }
        retried = false;

        // pin everything already integral; collect the fractional rest
        let mut fractional: Vec<(usize, f64, f64)> = Vec::new(); // (var, value, dist)
        for (j, &is_int) in model.is_integer.iter().enumerate() {
            if !is_int {
                continue;
            }
            let (l, u) = lp.bounds(rasa_lp::VarId(j));
            if l == u {
                continue; // already pinned
            }
            let v = sol.x[j];
            let dist = (v - v.round()).abs();
            if dist <= INT_TOL {
                let r = v.round().clamp(l, u);
                lp.set_bounds(rasa_lp::VarId(j), r, r);
            } else {
                fractional.push((j, v, dist));
            }
        }
        if fractional.is_empty() {
            let mut x = sol.x.clone();
            for (k, &is_int) in model.is_integer.iter().enumerate() {
                if is_int {
                    x[k] = x[k].round();
                }
            }
            if model.is_feasible_point(&x, INT_TOL) {
                let obj = model.objective_value(&x);
                return Some((x, obj));
            }
            return None;
        }
        // round-pin the third of the fractionals nearest an integer (at
        // least one), so the dive finishes in logarithmically many LP solves
        fractional.sort_by(|a, b| a.2.total_cmp(&b.2));
        let take = fractional.len().div_ceil(3);
        last_batch.clear();
        for &(j, v, _) in fractional.iter().take(take) {
            let (l, u) = lp.bounds(rasa_lp::VarId(j));
            let r = v.round().clamp(l, u);
            lp.set_bounds(rasa_lp::VarId(j), r, r);
            last_batch.push((j, v, l, u));
        }
    }
    None
}

/// Round the relaxation's integer variables to the nearest integers and
/// check full feasibility — a cheap incumbent heuristic.
fn rounding_heuristic(model: &MipModel, x: &[f64]) -> Option<(Vec<f64>, f64)> {
    let mut rounded = x.to_vec();
    for (j, &is_int) in model.is_integer.iter().enumerate() {
        if is_int {
            rounded[j] = rounded[j].round();
        }
    }
    if model.is_feasible_point(&rounded, INT_TOL) {
        let obj = model.objective_value(&rounded);
        Some((rounded, obj))
    } else {
        None
    }
}

/// Counters private to one solve, flushed into the global telemetry
/// registry by the [`solve_branch_and_bound`] wrapper.
#[derive(Default)]
struct BnbCounters {
    /// Nodes discarded because the relaxation was infeasible.
    pruned_infeasible: u64,
    /// Nodes discarded because their relaxation bound could not beat the
    /// incumbent.
    pruned_bound: u64,
    /// Times the incumbent was set or improved (heuristics and integral
    /// nodes alike).
    incumbent_updates: u64,
    /// Node relaxations re-solved from the parent's basis.
    warm_nodes: u64,
    /// Warm nodes that ended up solved cold after all: the LP rejected the
    /// basis or abandoned the dual repair, or the warm solve failed and the
    /// node was retried.
    warm_fallbacks: u64,
    /// Node relaxations that failed (iteration cap, singular basis, or an
    /// impossible `Unbounded`) with time left, even cold; each ends the
    /// solve as `Feasible`.
    node_lp_failures: u64,
    /// Solves ended as `Feasible` because the incumbent cleared the
    /// caller's target.
    target_stops: u64,
}

/// Make `found` the incumbent if it beats the current one, counting and
/// tracing the update against `bound` after `nodes` nodes.
fn offer_incumbent(
    incumbent: &mut Option<(Vec<f64>, f64)>,
    found: (Vec<f64>, f64),
    bound: f64,
    nodes: usize,
    counters: &mut BnbCounters,
) {
    let obj = found.1;
    if incumbent.as_ref().map_or(true, |(_, best)| obj > *best) {
        *incumbent = Some(found);
        counters.incumbent_updates += 1;
        rasa_obs::flight::emit(|| rasa_obs::TraceEvent::BnbIncumbent {
            objective: obj,
            best_bound: bound,
            node: nodes as u64,
        });
    }
}

/// Solve `model` by branch-and-bound. See [`MipOptions`] for limits;
/// `deadline` makes the solve anytime (incumbent returned on expiry). The
/// solve also stops, `Feasible`, as soon as an incumbent's objective exceeds
/// `target` (`f64::INFINITY` never stops it).
pub fn solve_branch_and_bound(
    model: &MipModel,
    options: &MipOptions,
    deadline: Deadline,
    target: f64,
) -> MipSolution {
    let mut counters = BnbCounters::default();
    let _fs = rasa_obs::flight::span("mip.bnb");
    let sol = solve_bnb_impl(model, options, deadline, target, &mut counters);
    let obs = rasa_obs::global();
    obs.add("bnb.solves", 1);
    obs.add("bnb.nodes", sol.nodes as u64);
    obs.add("bnb.lp_iterations", sol.lp_iterations as u64);
    obs.add("bnb.pruned_infeasible", counters.pruned_infeasible);
    obs.add("bnb.pruned_bound", counters.pruned_bound);
    obs.add("bnb.incumbent_updates", counters.incumbent_updates);
    obs.add("bnb.warm_nodes", counters.warm_nodes);
    obs.add("bnb.warm_fallbacks", counters.warm_fallbacks);
    obs.add("bnb.node_lp_failures", counters.node_lp_failures);
    obs.add("bnb.target_stops", counters.target_stops);
    if sol.gap.is_finite() {
        obs.record("bnb.final_gap", sol.gap);
    }
    sol
}

fn solve_bnb_impl(
    model: &MipModel,
    options: &MipOptions,
    deadline: Deadline,
    target: f64,
    counters: &mut BnbCounters,
) -> MipSolution {
    let mut lp: LpModel = model.lp.clone();
    let mut lp_iterations = 0usize;
    let mut nodes = 0usize;

    // Integer variables with fractional bounds can never take a value at a
    // fractional bound anyway; tighten them once up front.
    let int_vars: Vec<usize> = model
        .is_integer
        .iter()
        .enumerate()
        .filter(|(_, &b)| b)
        .map(|(j, _)| j)
        .collect();
    for &j in &int_vars {
        let (l, u) = lp.bounds(rasa_lp::VarId(j));
        let tl = if l.is_finite() { l.ceil() } else { l };
        let tu = if u.is_finite() { u.floor() } else { u };
        if tl > tu {
            return MipSolution {
                status: MipStatus::Infeasible,
                objective: f64::NEG_INFINITY,
                x: vec![0.0; model.num_vars()],
                best_bound: f64::NEG_INFINITY,
                gap: 0.0,
                nodes: 0,
                lp_iterations: 0,
            };
        }
        lp.set_bounds(rasa_lp::VarId(j), tl, tu);
    }
    let root_lower = lp.lower_bounds().to_vec();
    let root_upper = lp.upper_bounds().to_vec();

    // root relaxation
    let root = lp.solve_with(&options.lp, deadline);
    lp_iterations += root.iterations;
    match root.status {
        LpStatus::Infeasible => {
            return MipSolution {
                status: MipStatus::Infeasible,
                objective: f64::NEG_INFINITY,
                x: vec![0.0; model.num_vars()],
                best_bound: f64::NEG_INFINITY,
                gap: 0.0,
                nodes: 1,
                lp_iterations,
            };
        }
        LpStatus::Unbounded => {
            // objective and bound agree at +inf — nothing left to prove,
            // so the gap is 0 (same convention as the infeasible exits,
            // where both sit at -inf).
            return MipSolution {
                status: MipStatus::Unbounded,
                objective: f64::INFINITY,
                x: root.x,
                best_bound: f64::INFINITY,
                gap: 0.0,
                nodes: 1,
                lp_iterations,
            };
        }
        LpStatus::IterationLimit => {
            return MipSolution {
                status: MipStatus::NoSolution,
                objective: f64::NEG_INFINITY,
                x: vec![0.0; model.num_vars()],
                best_bound: f64::INFINITY,
                gap: f64::INFINITY,
                nodes: 1,
                lp_iterations,
            };
        }
        LpStatus::Cutoff => unreachable!("the root is solved without a cutoff"),
        LpStatus::Optimal => {}
    }

    // root incumbent attempts
    if pick_branch_var(model, &root.x).is_none() {
        // relaxation already integral
        let obj = root.objective;
        return MipSolution {
            status: MipStatus::Optimal,
            objective: obj,
            x: root.x,
            best_bound: obj,
            gap: 0.0,
            nodes: 1,
            lp_iterations,
        };
    }
    let finish = |status: MipStatus,
                  incumbent: Option<(Vec<f64>, f64)>,
                  bound: f64,
                  nodes: usize,
                  lp_iterations: usize| {
        match incumbent {
            Some((x, obj)) => {
                // a stale node bound can sit below the incumbent (the node
                // was queued before the incumbent improved); the proven
                // bound is never below the best feasible solution
                let bound = bound.max(obj);
                let gap = ((bound - obj) / obj.abs().max(1.0)).max(0.0);
                MipSolution {
                    status,
                    objective: obj,
                    x,
                    best_bound: bound,
                    gap,
                    nodes,
                    lp_iterations,
                }
            }
            None => {
                // Exhausting the tree without an incumbent proves
                // infeasibility: bound and objective both collapse to -inf
                // and the gap is 0, matching the root infeasible exits.
                // Stopping early (budget/deadline) proves nothing: the
                // bound stays at whatever was established and the gap is
                // infinite.
                let proven_infeasible = status == MipStatus::Optimal;
                MipSolution {
                    status: if proven_infeasible {
                        MipStatus::Infeasible
                    } else {
                        MipStatus::NoSolution
                    },
                    objective: f64::NEG_INFINITY,
                    x: vec![0.0; model.num_vars()],
                    best_bound: if proven_infeasible {
                        f64::NEG_INFINITY
                    } else {
                        bound
                    },
                    gap: if proven_infeasible {
                        0.0
                    } else {
                        f64::INFINITY
                    },
                    nodes,
                    lp_iterations,
                }
            }
        }
    };
    let clears_target = |incumbent: &Option<(Vec<f64>, f64)>| {
        incumbent.as_ref().is_some_and(|(_, obj)| *obj > target)
    };

    let mut incumbent: Option<(Vec<f64>, f64)> = None;
    if options.rounding_every > 0 {
        if let Some(found) = rounding_heuristic(model, &root.x) {
            offer_incumbent(&mut incumbent, found, root.objective, 1, counters);
        }
    }
    if options.dive && !clears_target(&incumbent) {
        if let Some(found) = diving_heuristic(model, &lp, options, deadline, &mut lp_iterations) {
            offer_incumbent(&mut incumbent, found, root.objective, 1, counters);
        }
    }
    if clears_target(&incumbent) {
        counters.target_stops += 1;
        return finish(
            MipStatus::Feasible,
            incumbent,
            root.objective,
            1,
            lp_iterations,
        );
    }

    let share = |basis: &Option<Basis>| basis.as_ref().map(|b| Rc::new(PackedBasis::pack(b)));
    let mut heap: BinaryHeap<Node> = BinaryHeap::new();
    heap.push(Node {
        bound: root.objective,
        changes: Vec::new(),
        depth: 0,
        basis: share(&root.basis),
    });
    // the popped node's basis, unpacked (allocated once)
    let mut warm = Basis {
        basic: Vec::with_capacity(lp.num_rows()),
        at_upper: vec![false; lp.num_vars() + lp.num_rows()],
    };

    // trace the bound trajectory, but only on strict improvement: with a
    // best-first heap the popped bound is non-increasing, so this emits one
    // event per distinct bound level rather than one per node
    let mut last_bound_event = f64::INFINITY;
    while let Some(node) = heap.pop() {
        let global_bound = node.bound;
        if global_bound < last_bound_event {
            last_bound_event = global_bound;
            rasa_obs::flight::emit(|| rasa_obs::TraceEvent::BnbBound {
                best_bound: global_bound,
                node: nodes as u64,
            });
        }
        // prune against incumbent
        if let Some((_, inc_obj)) = &incumbent {
            let gap = (global_bound - inc_obj) / inc_obj.abs().max(1.0);
            if gap <= GAP_TOL {
                return finish(
                    MipStatus::Optimal,
                    incumbent,
                    global_bound,
                    nodes,
                    lp_iterations,
                );
            }
        }
        if nodes >= options.max_nodes || deadline.expired() {
            return finish(
                MipStatus::Feasible,
                incumbent,
                global_bound,
                nodes,
                lp_iterations,
            );
        }
        nodes += 1;

        // apply bound changes
        lp.set_all_bounds(&root_lower, &root_upper);
        for &(j, l, u) in &node.changes {
            lp.set_bounds(rasa_lp::VarId(j), l, u);
        }

        // Re-solve from the parent's basis; only an optimum that can beat
        // the incumbent is of interest, so the dual simplex may stop as soon
        // as its falling bound says otherwise.
        let cutoff = incumbent
            .as_ref()
            .map_or(f64::NEG_INFINITY, |(_, inc_obj)| inc_obj + GAP_TOL);
        let mut relax = match &node.basis {
            Some(packed) => {
                counters.warm_nodes += 1;
                packed.unpack_into(&mut warm);
                lp.solve_warm_above(&options.lp, deadline, Some(&warm), cutoff)
            }
            None => lp.solve_with(&options.lp, deadline),
        };
        lp_iterations += relax.iterations;
        if node.basis.is_some() {
            // the LP may already have given the basis up for a cold start
            let mut fell_back = relax.stats.warm_rejected;
            if !fell_back
                && matches!(relax.status, LpStatus::IterationLimit | LpStatus::Unbounded)
                && !deadline.expired()
            {
                // numerical trouble on the warm path: once more from scratch
                relax = lp.solve_with(&options.lp, deadline);
                lp_iterations += relax.iterations;
                fell_back = true;
            }
            counters.warm_fallbacks += u64::from(fell_back);
        }
        match relax.status {
            LpStatus::Infeasible => {
                counters.pruned_infeasible += 1;
                continue;
            }
            LpStatus::Cutoff => {
                counters.pruned_bound += 1;
                continue;
            }
            LpStatus::IterationLimit | LpStatus::Unbounded => {
                // Out of time mid-node, or this node's LP cannot be solved
                // (a bounded root with tightened bounds is never truly
                // unbounded). Either way the subtree stays unexplored:
                // return what we have, with this node's inherited bound —
                // the largest still open — as the proven bound.
                if !deadline.expired() {
                    counters.node_lp_failures += 1;
                }
                return finish(
                    MipStatus::Feasible,
                    incumbent,
                    global_bound,
                    nodes,
                    lp_iterations,
                );
            }
            LpStatus::Optimal => {}
        }

        // prune by bound
        if let Some((_, inc_obj)) = &incumbent {
            if relax.objective <= *inc_obj + GAP_TOL {
                counters.pruned_bound += 1;
                continue;
            }
        }

        match pick_branch_var(model, &relax.x) {
            None => {
                // integral: candidate incumbent
                let found = (relax.x, relax.objective);
                offer_incumbent(&mut incumbent, found, global_bound, nodes, counters);
            }
            Some(j) => {
                // occasionally try rounding deeper in the tree
                if options.rounding_every > 0 && nodes % options.rounding_every == 0 {
                    if let Some(found) = rounding_heuristic(model, &relax.x) {
                        offer_incumbent(&mut incumbent, found, global_bound, nodes, counters);
                    }
                }
                let v = relax.x[j];
                let floor = v.floor();
                let basis = share(&relax.basis);
                // down child: x_j <= floor
                let mut down = node.changes.clone();
                let (cur_l, cur_u) = lp.bounds(rasa_lp::VarId(j));
                if floor >= cur_l {
                    down.push((j, cur_l, floor));
                    heap.push(Node {
                        bound: relax.objective,
                        changes: down,
                        depth: node.depth + 1,
                        basis: basis.clone(),
                    });
                }
                // up child: x_j >= floor + 1
                if floor + 1.0 <= cur_u {
                    let mut up = node.changes.clone();
                    up.push((j, floor + 1.0, cur_u));
                    heap.push(Node {
                        bound: relax.objective,
                        changes: up,
                        depth: node.depth + 1,
                        basis,
                    });
                }
            }
        }
        if clears_target(&incumbent) {
            // this node's bound is the largest still open
            counters.target_stops += 1;
            return finish(
                MipStatus::Feasible,
                incumbent,
                global_bound,
                nodes,
                lp_iterations,
            );
        }
    }

    // heap exhausted: incumbent (if any) is optimal
    let bound = incumbent.as_ref().map_or(f64::NEG_INFINITY, |(_, o)| *o);
    finish(MipStatus::Optimal, incumbent, bound, nodes, lp_iterations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_var_picks_most_fractional() {
        let mut m = MipModel::new();
        m.add_int_var(0.0, 10.0, 1.0);
        m.add_int_var(0.0, 10.0, 1.0);
        m.add_var(0.0, 10.0, 1.0);
        let x = vec![2.9, 1.5, 0.5];
        assert_eq!(pick_branch_var(&m, &x), Some(1));
        let x = vec![3.0, 2.0, 0.5];
        assert_eq!(pick_branch_var(&m, &x), None, "continuous vars ignored");
    }

    #[test]
    fn branch_var_maximises_objective_weight_times_fractionality() {
        let mut m = MipModel::new();
        m.add_int_var(0.0, 10.0, 1.0);
        m.add_int_var(0.0, 10.0, -4.0);
        m.add_int_var(0.0, 10.0, 2.0);
        m.add_var(0.0, 10.0, 9.0);
        // |c| × frac: 1 × 0.5 = 0.5 against 4 × 0.25 = 1 — the costlier,
        // less fractional variable wins
        assert_eq!(pick_branch_var(&m, &[0.5, 1.25, 0.0, 0.0]), Some(1));
        // equal products (1 × 0.5 = 2 × 0.25): the more fractional wins
        assert_eq!(pick_branch_var(&m, &[0.5, 1.0, 2.25, 0.0]), Some(0));
        // equal products and fractionalities: the lowest index
        let mut even = MipModel::new();
        even.add_int_var(0.0, 10.0, 3.0);
        even.add_int_var(0.0, 10.0, -3.0);
        assert_eq!(pick_branch_var(&even, &[4.5, 0.5]), Some(0));
        // every candidate costs 0: all scores are 0, the most fractional wins
        let mut free = MipModel::new();
        free.add_int_var(0.0, 10.0, 0.0);
        free.add_int_var(0.0, 10.0, 0.0);
        assert_eq!(pick_branch_var(&free, &[0.2, 1.4]), Some(1));
        // a continuous variable is never a candidate, whatever its weight
        assert_eq!(pick_branch_var(&m, &[0.5, 2.0, 0.5, 0.5]), Some(2));
        // an integral point has nothing to branch on
        assert_eq!(pick_branch_var(&m, &[1.0, 2.0, 3.0, 0.5]), None);
    }

    #[test]
    fn packed_basis_round_trips_up_to_row_order() {
        let basis = Basis {
            basic: vec![70, 3, 64],
            at_upper: (0..130).map(|j| j % 7 == 0).collect(),
        };
        let mut out = Basis {
            basic: vec![9; 5],
            at_upper: vec![true; 130],
        };
        PackedBasis::pack(&basis).unpack_into(&mut out);
        assert_eq!(out.basic, vec![3, 64, 70]);
        assert_eq!(out.at_upper, basis.at_upper);
    }

    #[test]
    fn rounding_heuristic_validates() {
        let mut m = MipModel::new();
        let a = m.add_int_var(0.0, 10.0, 1.0);
        m.add_row_le(vec![(a, 1.0)], 3.2);
        // 3.4 rounds to 3 — feasible
        assert!(rounding_heuristic(&m, &[3.4]).is_some());
        // 3.6 rounds to 4 — violates the row
        assert!(rounding_heuristic(&m, &[3.6]).is_none());
    }
}
