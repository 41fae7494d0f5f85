//! The column-generation scheduling algorithm (Section IV-C2, Algorithm 1).
//!
//! RASA's *cutting-stock formulation*: a **pattern** is a feasible placement
//! of service containers on a single machine (resources, anti-affinity and
//! schedulable constraints all hold), valued at the gained affinity it
//! realizes, `v_p = Σ_e w_e · min(p_s/d_s, p_{s'}/d_{s'})`. The restricted
//! master problem (RMP) chooses how many machines of each group use each
//! pattern:
//!
//! ```text
//! max  Σ_{g,p} v_p · y_{g,p}
//! s.t. Σ_p y_{g,p}            <= K_g   ∀ groups g         (dual μ_g)
//!      Σ_{g,p} p_s · y_{g,p}  <= d_s   ∀ services s       (dual π_s)
//!      y >= 0
//! ```
//!
//! Each round solves the RMP's LP relaxation (`SolveCuttingStock`), then for
//! every machine group solves a pricing MIP (`GenPattern`) that searches for
//! a single-machine pattern with positive reduced cost
//! `v_p − Σ_s π_s p_s − μ_g`. Pricing is partial: while the master LP's
//! objective rises from round to round, each MIP stops at the first incumbent
//! whose reduced cost clears the acceptance tolerance rather than proving the
//! most improving pattern, and only a group with no such pattern is searched
//! to the end; a round whose master objective did not rise prices every group
//! to its best pattern. Rounds end when one adds no column (converged only if
//! every pricing MIP finished its search), when the master LP fails, or when
//! the deadline fires (`IsTerminate`); each pricing MIP runs under that
//! deadline and `PRICING_MAX_NODES`. The master is then re-solved as an
//! integer program over the generated columns (`Round`, `ROUNDING_MAX_NODES`),
//! falling back to a greedy rounding if branch-and-bound cannot finish in time.

use crate::column_cache::{CgWarmStart, PatternCounts};
use crate::completion::complete_placement;
use crate::formulation::per_machine_cap;
use crate::scheduler::{fan_out, BorrowedThreads, ScheduleOutcome, Scheduler};
use rasa_lp::{Basis, Deadline, LpStatus, SimplexOptions};
use rasa_mip::{MipModel, MipOptions, MipStatus};
use rasa_model::{MachineGroup, Placement, Problem, ResourceVec, ServiceId, NUM_RESOURCES};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Branch-and-bound node cap for a pricing MIP (kept small — a pricing MIP
/// covers one machine).
const PRICING_MAX_NODES: usize = 2_000;
/// Branch-and-bound node cap for the final integral rounding.
const ROUNDING_MAX_NODES: usize = 20_000;
/// Reduced-cost threshold for accepting a new pattern.
const REDUCED_COST_TOL: f64 = 1e-6;

/// Options for [`ColumnGeneration`]. The pricing and rounding node caps and
/// the reduced-cost threshold are constants of this module.
#[derive(Clone, Debug)]
pub struct CgOptions {
    /// Run the completion pass afterwards.
    pub complete: bool,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions { complete: true }
    }
}

/// Counters describing a column-generation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CgStats {
    /// Pricing rounds executed.
    pub rounds: usize,
    /// Total patterns in the final master.
    pub patterns: usize,
    /// Master LP solves.
    pub master_solves: usize,
    /// Pricing MIP solves.
    pub pricing_solves: usize,
    /// Patterns admitted from a [`ColumnCache`](crate::ColumnCache) pool
    /// (still feasible under the current machine groups and not already
    /// produced by the seed heuristics).
    pub seeded_patterns: usize,
}

/// A single-machine placement pattern for one machine group.
#[derive(Clone, Debug, PartialEq)]
struct Pattern {
    /// `(service, containers)` with positive counts, sorted by service.
    counts: Vec<(ServiceId, u32)>,
    /// Exact gained affinity of this pattern on one machine.
    value: f64,
}

/// The column-generation member of the scheduling algorithm pool.
///
/// *Characteristics* (paper): sub-optimal quality, acceptable runtime —
/// right for medium-scale subproblems with non-negligible affinity.
#[derive(Clone, Debug, Default)]
pub struct ColumnGeneration {
    /// Options for this run.
    pub options: CgOptions,
    /// Optional cross-round column-pool handle. When set, the run seeds
    /// its restricted master from the cached pool under `warm.key` (each
    /// pattern re-validated against the current machine groups) and stores
    /// its final pool back under the same key.
    pub warm: Option<CgWarmStart>,
}

impl ColumnGeneration {
    /// Column generation with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run and additionally report statistics.
    pub fn schedule_with_stats(
        &self,
        problem: &Problem,
        deadline: Deadline,
    ) -> (ScheduleOutcome, CgStats) {
        self.run(problem, deadline, None)
    }

    /// [`Self::schedule_with_stats`]; `pinned_helpers` fixes the number of
    /// pricing helpers per round instead of borrowing idle solver threads
    /// (tests only).
    fn run(
        &self,
        problem: &Problem,
        deadline: Deadline,
        pinned_helpers: Option<usize>,
    ) -> (ScheduleOutcome, CgStats) {
        let start = Instant::now();
        let _fs = rasa_obs::flight::span("cg.solve");
        let mut stats = CgStats::default();

        let groups = problem.machine_groups();
        let edge_weight: HashMap<(ServiceId, ServiceId), f64> = problem
            .affinity_edges
            .iter()
            .map(|e| ((e.a, e.b), e.weight))
            .collect();
        let active: Vec<ServiceId> = {
            let mut has_edge = vec![false; problem.num_services()];
            for e in &problem.affinity_edges {
                has_edge[e.a.idx()] = true;
                has_edge[e.b.idx()] = true;
            }
            problem
                .services
                .iter()
                .filter(|s| has_edge[s.id.idx()])
                .map(|s| s.id)
                .collect()
        };

        let mut patterns: Vec<Vec<Pattern>> = groups
            .iter()
            .map(|g| initial_patterns(problem, g, &active, &edge_weight))
            .collect();
        let mut seen: Vec<HashSet<Vec<(ServiceId, u32)>>> = patterns
            .iter()
            .map(|ps| ps.iter().map(|p| p.counts.clone()).collect())
            .collect();

        // ---- seed the master from a cached pool (warm start) ----
        let mut cache_hit = false;
        if let Some(warm) = &self.warm {
            if let Some(pool) = warm.cache.get(warm.key) {
                cache_hit = true;
                for counts in pool {
                    for (gi, g) in groups.iter().enumerate() {
                        if pattern_feasible(problem, g, &counts) && seen[gi].insert(counts.clone())
                        {
                            let value = pattern_value(problem, &counts, &edge_weight);
                            patterns[gi].push(Pattern {
                                counts: counts.clone(),
                                value,
                            });
                            stats.seeded_patterns += 1;
                        }
                    }
                }
            }
        }
        if let Some(warm) = &self.warm {
            let key = warm.key;
            rasa_obs::flight::emit(|| {
                let cache = "column_cache".to_string();
                if cache_hit {
                    rasa_obs::TraceEvent::CacheHit { cache, key }
                } else {
                    rasa_obs::TraceEvent::CacheMiss { cache, key }
                }
            });
        }

        // ---- Algorithm 1 main loop ----
        // The master LP warm-starts each round from the previous round's
        // final basis, remapped onto the grown column set. Each round but the
        // last adds a pattern not seen before, so the loop ends.
        let mut master_basis: Option<(Basis, Vec<usize>)> = None;
        let master_rows = groups.len() + active.len();
        let mut converged = false;
        let mut last_objective = f64::NEG_INFINITY;
        let (mut helper_rounds, mut pricing_helped) = (0u64, 0u64);
        while !deadline.expired() {
            stats.rounds += 1;
            let counts_now: Vec<usize> = patterns.iter().map(Vec::len).collect();
            let warm_basis = master_basis
                .as_ref()
                .and_then(|(b, old)| remap_master_basis(b, old, &counts_now, master_rows));
            let Some((duals, final_basis)) = self.solve_master_lp(
                problem,
                &groups,
                &patterns,
                &active,
                deadline,
                warm_basis.as_ref(),
            ) else {
                break;
            };
            master_basis = final_basis.map(|b| (b, counts_now));
            stats.master_solves += 1;
            // Partial pricing while the master objective rises. On a
            // degenerate master, columns that only just price out can enter
            // round after round without moving it, so a round whose master
            // objective did not rise prices every group to its best pattern.
            let first_improving = duals.objective > last_objective + REDUCED_COST_TOL;
            last_objective = duals.objective;

            let mut added_any = false;
            let mut added_this_round = 0u64;
            let mut best_reduced_cost = f64::NEG_INFINITY;
            // The pricing MIPs of a round are independent: they run on this
            // thread plus whatever idle cores it may borrow, and merge in
            // group order, so the result does not depend on how many helped.
            let most_helpers = groups.len().saturating_sub(1);
            let borrowed = pinned_helpers
                .is_none()
                .then(|| BorrowedThreads::up_to(most_helpers));
            let helpers = match &borrowed {
                Some(b) => b.count(),
                None => pinned_helpers.unwrap_or(0).min(most_helpers),
            };
            let (priced, helped) = price_groups(groups.len(), helpers, deadline, |gi| {
                self.price_pattern(
                    problem,
                    &groups[gi],
                    &active,
                    &edge_weight,
                    &duals.service,
                    duals.group[gi],
                    first_improving,
                    deadline,
                )
            });
            drop(borrowed);
            helper_rounds += u64::from(helpers > 0);
            pricing_helped += helped as u64;
            let verdicts: Vec<Option<MipStatus>> =
                priced.iter().map(|p| p.as_ref().map(|(v, _)| *v)).collect();
            for (gi, priced) in priced.into_iter().enumerate() {
                let Some((_, priced)) = priced else {
                    continue; // the deadline fired before this group's turn
                };
                stats.pricing_solves += 1;
                if let Some((p, reduced_cost)) = priced {
                    best_reduced_cost = best_reduced_cost.max(reduced_cost);
                    if seen[gi].insert(p.counts.clone()) {
                        patterns[gi].push(p);
                        added_any = true;
                        added_this_round += 1;
                    }
                }
            }
            rasa_obs::flight::emit(|| rasa_obs::TraceEvent::CgPricingRound {
                round: stats.rounds as u64,
                columns_added: added_this_round,
                total_columns: patterns.iter().map(|ps| ps.len() as u64).sum(),
                best_reduced_cost: if best_reduced_cost.is_finite() {
                    best_reduced_cost
                } else {
                    0.0 // no pricing MIP produced a column this round
                },
            });
            if !added_any {
                // no pricing MIP found a column; that is a proof only if
                // every one of them finished its search
                converged = pricing_proved(&verdicts);
                break;
            }
        }

        stats.patterns = patterns.iter().map(Vec::len).sum();

        // ---- persist the final pool for the next round ----
        if let Some(warm) = &self.warm {
            let mut dedup: HashSet<PatternCounts> = HashSet::new();
            let mut pool: Vec<PatternCounts> = Vec::new();
            for ps in &patterns {
                for p in ps {
                    if dedup.insert(p.counts.clone()) {
                        pool.push(p.counts.clone());
                    }
                }
            }
            warm.cache.put(warm.key, pool);
        }

        // ---- Round: integral master over the generated columns ----
        let mut placement = self.round_master(problem, &groups, &patterns, &active, deadline);
        if self.options.complete {
            complete_placement(problem, &mut placement);
        }
        let outcome = ScheduleOutcome::evaluate(problem, placement, start.elapsed(), converged);
        let obs = rasa_obs::global();
        obs.add("cg.solves", 1);
        obs.add("cg.rounds", stats.rounds as u64);
        obs.add("cg.master_solves", stats.master_solves as u64);
        obs.add("cg.pricing_solves", stats.pricing_solves as u64);
        obs.add("cg.helper_rounds", helper_rounds);
        obs.add("cg.pricing_helped", pricing_helped);
        obs.add("cg.patterns", stats.patterns as u64);
        if self.warm.is_some() {
            obs.add(
                if cache_hit {
                    "cg.cache_hits"
                } else {
                    "cg.cache_misses"
                },
                1,
            );
            obs.add("cg.cache_seeded_patterns", stats.seeded_patterns as u64);
        }
        obs.record_duration("cg.solve_seconds", outcome.elapsed);
        (outcome, stats)
    }

    /// Solve the RMP LP relaxation (optionally warm-started from the
    /// previous round's basis) and return its duals plus the final basis.
    fn solve_master_lp(
        &self,
        problem: &Problem,
        groups: &[MachineGroup],
        patterns: &[Vec<Pattern>],
        active: &[ServiceId],
        deadline: Deadline,
        warm: Option<&Basis>,
    ) -> Option<(MasterDuals, Option<Basis>)> {
        let (lp, _vars) = build_master(problem, groups, patterns, active, false);
        let sol = lp
            .lp()
            .solve_warm(&SimplexOptions::default(), deadline, warm);
        if sol.status != LpStatus::Optimal {
            return None;
        }
        let g = groups.len();
        let duals = MasterDuals {
            objective: sol.objective,
            group: sol.duals[..g].to_vec(),
            service: active
                .iter()
                .enumerate()
                .map(|(k, &s)| (s, sol.duals[g + k]))
                .collect(),
        };
        Some((duals, sol.basis))
    }

    /// `GenPattern`: price a new pattern for group `g`. Returns how the
    /// pricing MIP ended, and the pattern together with its (positive)
    /// reduced cost when one beats the tolerance. With `first_improving` the
    /// MIP stops at the first such pattern (`Feasible`), which is improving
    /// but not necessarily the most improving one.
    #[allow(clippy::too_many_arguments)]
    fn price_pattern(
        &self,
        problem: &Problem,
        g: &MachineGroup,
        active: &[ServiceId],
        edge_weight: &HashMap<(ServiceId, ServiceId), f64>,
        pi: &HashMap<ServiceId, f64>,
        mu: f64,
        first_improving: bool,
        deadline: Deadline,
    ) -> (MipStatus, Option<(Pattern, f64)>) {
        let mut mip = MipModel::new();
        // pattern variables in `active` order, plus a by-service index for
        // the rows below: the model is the same in every process and the
        // pricing loop does no hashing
        let mut p_vars: Vec<(ServiceId, rasa_mip::VarId)> = Vec::with_capacity(active.len());
        let mut var_of: Vec<Option<rasa_mip::VarId>> = vec![None; problem.services.len()];
        for &s in active {
            let svc = &problem.services[s.idx()];
            if !svc.required_features.subset_of(g.features) {
                continue;
            }
            let cap1 = per_machine_cap(problem, s, &g.capacity).min(svc.replicas);
            if cap1 == 0 {
                continue;
            }
            let price = -pi.get(&s).copied().unwrap_or(0.0);
            let v = mip.add_int_var(0.0, f64::from(cap1), price);
            p_vars.push((s, v));
            var_of[s.idx()] = Some(v);
        }
        if p_vars.is_empty() {
            return (MipStatus::Optimal, None); // the empty pattern is the only one
        }
        // single-machine resources
        for r in 0..NUM_RESOURCES {
            let coeffs: Vec<_> = p_vars
                .iter()
                .filter_map(|&(s, v)| {
                    let dem = problem.services[s.idx()].demand.0[r];
                    (dem > 0.0).then_some((v, dem))
                })
                .collect();
            if !coeffs.is_empty() {
                mip.add_row_le(coeffs, g.capacity.0[r]);
            }
        }
        // anti-affinity on one machine
        for rule in &problem.anti_affinity {
            let coeffs: Vec<_> = rule
                .services
                .iter()
                .filter_map(|s| var_of[s.idx()].map(|v| (v, 1.0)))
                .collect();
            if !coeffs.is_empty() {
                mip.add_row_le(coeffs, f64::from(rule.max_per_machine));
            }
        }
        // affinity epigraph
        for e in &problem.affinity_edges {
            let (Some(va), Some(vb)) = (var_of[e.a.idx()], var_of[e.b.idx()]) else {
                continue;
            };
            let da = f64::from(problem.services[e.a.idx()].replicas);
            let db = f64::from(problem.services[e.b.idx()].replicas);
            let a = mip.add_var(0.0, e.weight, 1.0);
            mip.add_row_le(vec![(a, 1.0), (va, -e.weight / da)], 0.0);
            mip.add_row_le(vec![(a, 1.0), (vb, -e.weight / db)], 0.0);
        }

        let options = MipOptions {
            max_nodes: PRICING_MAX_NODES,
            ..MipOptions::default()
        };
        let target = if first_improving {
            mu + REDUCED_COST_TOL
        } else {
            f64::INFINITY
        };
        let sol = mip.solve_to_target(&options, deadline, target);
        if !sol.has_incumbent() {
            return (sol.status, None);
        }
        let mut counts: Vec<(ServiceId, u32)> = p_vars
            .iter()
            .filter_map(|&(s, v)| {
                let n = sol.x[v.0].round().max(0.0) as u32;
                (n > 0).then_some((s, n))
            })
            .collect();
        counts.sort_by_key(|&(s, _)| s);
        if counts.is_empty() {
            return (sol.status, None);
        }
        let value = pattern_value(problem, &counts, edge_weight);
        let priced: f64 = counts
            .iter()
            .map(|(s, n)| pi.get(s).copied().unwrap_or(0.0) * f64::from(*n))
            .sum();
        let reduced_cost = value - priced - mu;
        let column =
            (reduced_cost > REDUCED_COST_TOL).then_some((Pattern { counts, value }, reduced_cost));
        (sol.status, column)
    }

    /// `Round`: solve the master as an integer program; greedy fallback.
    fn round_master(
        &self,
        problem: &Problem,
        groups: &[MachineGroup],
        patterns: &[Vec<Pattern>],
        active: &[ServiceId],
        deadline: Deadline,
    ) -> Placement {
        let (mip, vars) = build_master(problem, groups, patterns, active, true);
        let options = MipOptions {
            max_nodes: ROUNDING_MAX_NODES,
            ..MipOptions::default()
        };
        let sol = mip.solve_with(&options, deadline);
        let copies: Vec<Vec<u32>> = if sol.has_incumbent() {
            vars.iter()
                .map(|per_g| {
                    per_g
                        .iter()
                        .map(|&v| sol.x[v.0].round().max(0.0) as u32)
                        .collect()
                })
                .collect()
        } else {
            greedy_round(problem, groups, patterns)
        };

        let mut placement = Placement::empty_for(problem);
        for (gi, g) in groups.iter().enumerate() {
            let mut member_cursor = 0usize;
            // honor remaining coverage when expanding (defensive: the
            // integral master already enforces it)
            let mut remaining: HashMap<ServiceId, u32> = problem
                .services
                .iter()
                .map(|s| {
                    (
                        s.id,
                        s.replicas.saturating_sub(placement.placed_count(s.id)),
                    )
                })
                .collect();
            for (pi_, pattern) in patterns[gi].iter().enumerate() {
                for _ in 0..copies[gi][pi_] {
                    if member_cursor >= g.members.len() {
                        break;
                    }
                    let m = g.members[member_cursor];
                    member_cursor += 1;
                    for &(s, c) in &pattern.counts {
                        let left = remaining.get_mut(&s).expect("known service");
                        let take = c.min(*left);
                        if take > 0 {
                            placement.add(s, m, take);
                            *left -= take;
                        }
                    }
                }
            }
        }
        placement
    }
}

impl Scheduler for ColumnGeneration {
    fn name(&self) -> &'static str {
        "CG"
    }

    fn schedule(&self, problem: &Problem, deadline: Deadline) -> ScheduleOutcome {
        self.schedule_with_stats(problem, deadline).0
    }
}

struct MasterDuals {
    /// The master LP's optimal objective.
    objective: f64,
    group: Vec<f64>,
    service: HashMap<ServiceId, f64>,
}

/// One pricing round through [`fan_out`]: slot `g` of the result holds what
/// `price(g)` returned, or `None` when the deadline had fired by the time a
/// thread reached that group; the second value is how many groups a helper
/// priced.
fn price_groups<T: Send>(
    groups: usize,
    helpers: usize,
    deadline: Deadline,
    price: impl Fn(usize) -> T + Sync,
) -> (Vec<Option<T>>, usize) {
    let owner = std::thread::current().id();
    let priced = fan_out(groups, helpers, |g| {
        (!deadline.expired()).then(|| (price(g), std::thread::current().id() != owner))
    });
    let helped = priced.iter().flatten().filter(|p| p.1).count();
    let slots = priced.into_iter().map(|p| p.map(|(out, _)| out)).collect();
    (slots, helped)
}

/// Does a pricing round without a new column prove the master LP optimal?
/// Only when every group was priced (`Some`) and every pricing MIP finished
/// its search. One stopped by its node cap or the deadline may have missed
/// an improving column.
fn pricing_proved(verdicts: &[Option<MipStatus>]) -> bool {
    verdicts
        .iter()
        .all(|v| matches!(v, Some(MipStatus::Optimal | MipStatus::Infeasible)))
}

/// Can a cached pattern still run on one machine of group `g` under the
/// *current* problem? Checks service existence, schedulability, per-service
/// caps, joint resource fit, and anti-affinity.
fn pattern_feasible(problem: &Problem, g: &MachineGroup, counts: &[(ServiceId, u32)]) -> bool {
    if counts.is_empty() {
        return false;
    }
    let mut used = ResourceVec::ZERO;
    for &(s, c) in counts {
        if c == 0 || s.idx() >= problem.num_services() {
            return false;
        }
        let svc = &problem.services[s.idx()];
        if !svc.required_features.subset_of(g.features) {
            return false;
        }
        if c > per_machine_cap(problem, s, &g.capacity).min(svc.replicas) {
            return false;
        }
        used += svc.demand * f64::from(c);
    }
    if !used.fits_within(&g.capacity, 1e-6) {
        return false;
    }
    problem.anti_affinity.iter().all(|rule| {
        let total: u32 = counts
            .iter()
            .filter(|(s, _)| rule.services.contains(s))
            .map(|&(_, c)| c)
            .sum();
        total <= rule.max_per_machine
    })
}

/// Remap a master-LP basis exported when per-group pattern counts were
/// `old_counts` onto the layout implied by `new_counts`. Master variables
/// are laid out group-by-group and patterns are only ever *appended* within
/// a group, so a pattern keeps its in-group index and only the group
/// offsets shift; slacks shift uniformly by the total growth. `m` is the
/// (stable) number of master rows.
fn remap_master_basis(
    basis: &Basis,
    old_counts: &[usize],
    new_counts: &[usize],
    m: usize,
) -> Option<Basis> {
    if old_counts.len() != new_counts.len() {
        return None;
    }
    let n_old: usize = old_counts.iter().sum();
    let n_new: usize = new_counts.iter().sum();
    if basis.basic.len() != m || basis.at_upper.len() != n_old + m {
        return None;
    }
    let mut map = vec![usize::MAX; n_old + m];
    let (mut off_old, mut off_new) = (0usize, 0usize);
    for (gi, &c_old) in old_counts.iter().enumerate() {
        if new_counts[gi] < c_old {
            return None; // a pattern was removed: layouts are incompatible
        }
        for p in 0..c_old {
            map[off_old + p] = off_new + p;
        }
        off_old += c_old;
        off_new += new_counts[gi];
    }
    for i in 0..m {
        map[n_old + i] = n_new + i;
    }
    let mut at_upper = vec![false; n_new + m];
    for (j, &nj) in map.iter().enumerate() {
        if nj != usize::MAX {
            at_upper[nj] = basis.at_upper[j];
        }
    }
    let basic: Vec<usize> = basis
        .basic
        .iter()
        .map(|&j| map.get(j).copied().unwrap_or(usize::MAX))
        .collect();
    if basic.contains(&usize::MAX) {
        return None;
    }
    Some(Basis { basic, at_upper })
}

/// Exact gained affinity of a pattern on one machine.
fn pattern_value(
    problem: &Problem,
    counts: &[(ServiceId, u32)],
    edge_weight: &HashMap<(ServiceId, ServiceId), f64>,
) -> f64 {
    let mut value = 0.0;
    for (i, &(sa, ca)) in counts.iter().enumerate() {
        let da = f64::from(problem.services[sa.idx()].replicas);
        for &(sb, cb) in &counts[i + 1..] {
            let key = if sa < sb { (sa, sb) } else { (sb, sa) };
            if let Some(&w) = edge_weight.get(&key) {
                let db = f64::from(problem.services[sb.idx()].replicas);
                value += w * (f64::from(ca) / da).min(f64::from(cb) / db);
            }
        }
    }
    value
}

/// Seed patterns: per group, singleton packs plus one balanced pack per
/// affinity edge (both endpoints schedulable).
fn initial_patterns(
    problem: &Problem,
    g: &MachineGroup,
    active: &[ServiceId],
    edge_weight: &HashMap<(ServiceId, ServiceId), f64>,
) -> Vec<Pattern> {
    let mut out = Vec::new();
    let mut seen: HashSet<Vec<(ServiceId, u32)>> = HashSet::new();
    let cap1 = |s: ServiceId| -> u32 {
        let svc = &problem.services[s.idx()];
        if !svc.required_features.subset_of(g.features) {
            return 0;
        }
        per_machine_cap(problem, s, &g.capacity).min(svc.replicas)
    };
    for &s in active {
        let c = cap1(s);
        if c > 0 {
            let counts = vec![(s, c)];
            if seen.insert(counts.clone()) {
                out.push(Pattern { counts, value: 0.0 });
            }
        }
    }
    for e in &problem.affinity_edges {
        let (ca, cb) = (cap1(e.a), cap1(e.b));
        if ca == 0 || cb == 0 {
            continue;
        }
        // grow the pair keeping p_a/d_a ≈ p_b/d_b while one machine fits
        let da = f64::from(problem.services[e.a.idx()].replicas);
        let db = f64::from(problem.services[e.b.idx()].replicas);
        let mut pa = 0u32;
        let mut pb = 0u32;
        let mut used = rasa_model::ResourceVec::ZERO;
        // adding one more container of `s` must not break any anti-affinity
        // rule, counting both endpoints' contributions on the same machine
        let aa_allows = |s: ServiceId, pa: u32, pb: u32| -> bool {
            problem.anti_affinity.iter().all(|rule| {
                if !rule.services.contains(&s) {
                    return true;
                }
                let mut count = 0u32;
                if rule.services.contains(&e.a) {
                    count += pa;
                }
                if rule.services.contains(&e.b) {
                    count += pb;
                }
                count < rule.max_per_machine
            })
        };
        loop {
            // next container: whichever endpoint has the lower filled ratio
            let ra = if pa >= ca {
                f64::INFINITY
            } else {
                f64::from(pa) / da
            };
            let rb = if pb >= cb {
                f64::INFINITY
            } else {
                f64::from(pb) / db
            };
            let (svc, which_a) = if ra <= rb {
                if pa >= ca {
                    break;
                }
                (&problem.services[e.a.idx()], true)
            } else {
                if pb >= cb {
                    break;
                }
                (&problem.services[e.b.idx()], false)
            };
            if !(used + svc.demand).fits_within(&g.capacity, 1e-6) {
                break;
            }
            if !aa_allows(svc.id, pa, pb) {
                break;
            }
            used += svc.demand;
            if which_a {
                pa += 1;
            } else {
                pb += 1;
            }
        }
        if pa > 0 && pb > 0 {
            let mut counts = vec![(e.a, pa), (e.b, pb)];
            counts.sort_by_key(|&(s, _)| s);
            if seen.insert(counts.clone()) {
                let value = pattern_value(problem, &counts, edge_weight);
                out.push(Pattern { counts, value });
            }
        }
    }
    out
}

/// Build the master problem. With `integral = false` the returned model's
/// LP is the relaxation (y continuous); with `true`, y is integer. Row
/// order: one row per group, then one row per active service — duals are
/// read positionally.
fn build_master(
    problem: &Problem,
    groups: &[MachineGroup],
    patterns: &[Vec<Pattern>],
    active: &[ServiceId],
    integral: bool,
) -> (MipModel, Vec<Vec<rasa_mip::VarId>>) {
    let mut mip = MipModel::new();
    let mut vars: Vec<Vec<rasa_mip::VarId>> = Vec::with_capacity(groups.len());
    for (gi, g) in groups.iter().enumerate() {
        let k = g.members.len() as f64;
        let per_g: Vec<_> = patterns[gi]
            .iter()
            .map(|p| {
                if integral {
                    mip.add_int_var(0.0, k, p.value)
                } else {
                    mip.add_var(0.0, k, p.value)
                }
            })
            .collect();
        vars.push(per_g);
    }
    // group machine-count rows (order matters for duals)
    for (gi, g) in groups.iter().enumerate() {
        let coeffs: Vec<_> = vars[gi].iter().map(|&v| (v, 1.0)).collect();
        mip.add_row_le(coeffs, g.members.len() as f64);
    }
    // service coverage rows
    for &s in active {
        let mut coeffs = Vec::new();
        for (gi, per_g) in vars.iter().enumerate() {
            for (pi_, &v) in per_g.iter().enumerate() {
                if let Some(&(_, c)) = patterns[gi][pi_].counts.iter().find(|&&(ps, _)| ps == s) {
                    coeffs.push((v, f64::from(c)));
                }
            }
        }
        // always add the row (possibly empty → 0 <= d_s) so dual indexing
        // stays positional
        mip.add_row_le(coeffs, f64::from(problem.services[s.idx()].replicas));
    }
    (mip, vars)
}

/// Greedy integral rounding used when the rounding MIP cannot finish:
/// take patterns in decreasing value order while machines and coverage last.
fn greedy_round(
    problem: &Problem,
    groups: &[MachineGroup],
    patterns: &[Vec<Pattern>],
) -> Vec<Vec<u32>> {
    let mut copies: Vec<Vec<u32>> = patterns.iter().map(|ps| vec![0; ps.len()]).collect();
    let mut remaining: Vec<u32> = problem.services.iter().map(|s| s.replicas).collect();
    for (gi, g) in groups.iter().enumerate() {
        let mut machines_left = g.members.len() as u32;
        let mut order: Vec<usize> = (0..patterns[gi].len()).collect();
        order.sort_by(|&a, &b| {
            patterns[gi][b]
                .value
                .partial_cmp(&patterns[gi][a].value)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for pi_ in order {
            let p = &patterns[gi][pi_];
            if p.value <= 0.0 {
                break;
            }
            while machines_left > 0 && p.counts.iter().all(|&(s, c)| remaining[s.idx()] >= c) {
                copies[gi][pi_] += 1;
                machines_left -= 1;
                for &(s, c) in &p.counts {
                    remaining[s.idx()] -= c;
                }
            }
        }
    }
    copies
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{validate, FeatureMask, ProblemBuilder, ResourceVec};
    use std::time::Duration;

    fn pair_problem(weight: f64) -> Problem {
        let mut b = ProblemBuilder::new();
        let a = b.add_service("A", 2, ResourceVec::cpu_mem(2.0, 2.0));
        let c = b.add_service("B", 4, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(3, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(a, c, weight);
        b.build().expect("problem builds")
    }

    #[test]
    fn pattern_value_is_min_scaled() {
        let p = pair_problem(10.0);
        let ew: HashMap<_, _> = p
            .affinity_edges
            .iter()
            .map(|e| ((e.a, e.b), e.weight))
            .collect();
        let v = pattern_value(&p, &[(ServiceId(0), 1), (ServiceId(1), 2)], &ew);
        assert!((v - 5.0).abs() < 1e-12); // 10 · min(1/2, 2/4)
    }

    #[test]
    fn initial_patterns_include_pairs() {
        let p = pair_problem(1.0);
        let ew: HashMap<_, _> = p
            .affinity_edges
            .iter()
            .map(|e| ((e.a, e.b), e.weight))
            .collect();
        let g = &p.machine_groups()[0];
        let pats = initial_patterns(&p, g, &[ServiceId(0), ServiceId(1)], &ew);
        assert!(pats.iter().any(|p| p.counts.len() == 2 && p.value > 0.0));
    }

    #[test]
    fn cg_reaches_full_affinity_on_small_problem() {
        let p = pair_problem(1.0);
        let (out, stats) = ColumnGeneration::new().schedule_with_stats(&p, Deadline::none());
        assert!(
            (out.gained_affinity - 1.0).abs() < 1e-6,
            "gained {}",
            out.gained_affinity
        );
        assert!(validate(&p, &out.placement, true).is_empty());
        assert!(stats.rounds >= 1);
        assert!(stats.patterns > 0);
    }

    #[test]
    fn cg_matches_mip_on_chain() {
        use crate::mip_algorithm::MipBased;
        use crate::scheduler::Scheduler as _;
        let mut b = ProblemBuilder::new();
        let s: Vec<_> = (0..4)
            .map(|i| b.add_service(format!("s{i}"), 2, ResourceVec::cpu_mem(2.0, 2.0)))
            .collect();
        b.add_machines(4, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(s[0], s[1], 10.0);
        b.add_affinity(s[1], s[2], 1.0);
        b.add_affinity(s[2], s[3], 10.0);
        let p = b.build().expect("problem builds");
        let cg = ColumnGeneration::new().schedule(&p, Deadline::none());
        let mip = MipBased::new().schedule(&p, Deadline::none());
        assert!(
            cg.gained_affinity >= mip.gained_affinity * 0.95 - 1e-9,
            "CG {} too far below MIP {}",
            cg.gained_affinity,
            mip.gained_affinity
        );
        assert!(validate(&p, &cg.placement, true).is_empty());
    }

    #[test]
    fn greedy_round_respects_coverage_and_machines() {
        let p = pair_problem(1.0);
        let groups = p.machine_groups();
        let patterns = vec![vec![
            Pattern {
                counts: vec![(ServiceId(0), 1), (ServiceId(1), 2)],
                value: 0.5,
            },
            Pattern {
                counts: vec![(ServiceId(1), 4)],
                value: 0.0,
            },
        ]];
        let copies = greedy_round(&p, &groups, &patterns);
        // d_A = 2 allows two copies of the pair pattern (uses 2 of 3 machines)
        assert_eq!(copies[0][0], 2);
        assert_eq!(copies[0][1], 0, "zero-value patterns are skipped");
    }

    #[test]
    fn cg_with_zero_deadline_still_valid() {
        let p = pair_problem(1.0);
        let out = ColumnGeneration::new().schedule(&p, Deadline::after(Duration::ZERO));
        assert!(validate(&p, &out.placement, false).is_empty());
    }

    #[test]
    fn warm_cache_round_trips_pool_and_preserves_quality() {
        use crate::column_cache::{CgWarmStart, ColumnCache};
        use std::sync::Arc;
        let mut b = ProblemBuilder::new();
        let s: Vec<_> = (0..4)
            .map(|i| b.add_service(format!("s{i}"), 2, ResourceVec::cpu_mem(2.0, 2.0)))
            .collect();
        b.add_machines(4, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(s[0], s[1], 10.0);
        b.add_affinity(s[1], s[2], 1.0);
        b.add_affinity(s[2], s[3], 10.0);
        let p = b.build().expect("problem builds");

        let cache = Arc::new(ColumnCache::new());
        let cg = ColumnGeneration {
            warm: Some(CgWarmStart {
                cache: cache.clone(),
                key: 42,
            }),
            ..ColumnGeneration::new()
        };
        let (cold, cold_stats) = cg.schedule_with_stats(&p, Deadline::none());
        let pool = cache.get(42).expect("pool stored after first run");
        assert_eq!(pool.len(), cold_stats.patterns, "pool = final master");

        let (warm, warm_stats) = cg.schedule_with_stats(&p, Deadline::none());
        assert!(
            warm.gained_affinity >= cold.gained_affinity - 1e-9,
            "warm {} < cold {}",
            warm.gained_affinity,
            cold.gained_affinity
        );
        // the seeded master starts at (or past) the cold run's final pool,
        // so pricing converges in no more rounds than the cold run took
        assert!(warm_stats.rounds <= cold_stats.rounds);
        assert!(validate(&p, &warm.placement, true).is_empty());
    }

    #[test]
    fn infeasible_cached_patterns_are_filtered_out() {
        use crate::column_cache::{CgWarmStart, ColumnCache};
        use std::sync::Arc;
        let p = pair_problem(1.0);
        let cache = Arc::new(ColumnCache::new());
        // poison the pool: out-of-range service, zero count, over-capacity
        cache.put(
            7,
            vec![
                vec![(ServiceId(99), 1)],
                vec![(ServiceId(0), 0)],
                vec![(ServiceId(0), 1000)],
                vec![(ServiceId(0), 1), (ServiceId(1), 2)], // this one is fine
            ],
        );
        let cg = ColumnGeneration {
            warm: Some(CgWarmStart {
                cache: cache.clone(),
                key: 7,
            }),
            ..ColumnGeneration::new()
        };
        let (out, stats) = cg.schedule_with_stats(&p, Deadline::none());
        assert!(validate(&p, &out.placement, true).is_empty());
        // only the feasible pattern may seed (and only if the heuristics
        // did not already produce it)
        assert!(stats.seeded_patterns <= 1);
        assert!((out.gained_affinity - 1.0).abs() < 1e-6);
    }

    #[test]
    fn remap_master_basis_shifts_group_offsets() {
        // 2 groups, counts 2|1 → grown to 3|2; 2 master rows.
        let basis = Basis {
            basic: vec![1, 3], // var 1 (g0,p1) and slack 0 (old col 3+0)
            at_upper: vec![true, false, true, false, true],
        };
        let remapped = remap_master_basis(&basis, &[2, 1], &[3, 2], 2).expect("remaps");
        // g0 vars keep indices 0..2; g1 var 2 → 3; slacks 3,4 → 5,6
        assert_eq!(remapped.basic, vec![1, 5]);
        assert_eq!(remapped.at_upper.len(), 5 + 2);
        assert!(remapped.at_upper[0]); // (g0,p0) kept
        assert!(remapped.at_upper[3]); // (g1,p0): old col 2 → new col 3
        assert!(remapped.at_upper[6]); // old slack col 4 → new col 6
        assert!(!remapped.at_upper[5], "old slack col 3 stays at lower");
        assert!(!remapped.at_upper[4], "new pattern cols default to lower");

        // shrunk counts are rejected
        assert!(remap_master_basis(&basis, &[2, 1], &[1, 1], 2).is_none());
        // row-count mismatch is rejected
        assert!(remap_master_basis(&basis, &[2, 1], &[3, 2], 3).is_none());
    }

    /// Twelve services on a ring of affinities plus chords, five machine
    /// shapes: five pricing MIPs per round and several rounds to converge.
    fn five_group_problem() -> Problem {
        let mut b = ProblemBuilder::new();
        let s: Vec<_> = (0..12)
            .map(|i| {
                let cpu = 1.0 + f64::from(i % 3);
                b.add_service(
                    format!("s{i}"),
                    3 + i % 4,
                    ResourceVec::cpu_mem(cpu, 4.0 - cpu),
                )
            })
            .collect();
        for (k, (cpu, mem)) in [
            (8.0, 8.0),
            (12.0, 6.0),
            (6.0, 12.0),
            (16.0, 16.0),
            (10.0, 4.0),
        ]
        .into_iter()
        .enumerate()
        {
            b.add_machines(
                2 + k % 2,
                ResourceVec::cpu_mem(cpu, mem),
                FeatureMask::EMPTY,
            );
        }
        for i in 0..12 {
            b.add_affinity(s[i], s[(i + 1) % 12], 1.0 + (i * 7 % 5) as f64);
        }
        for i in 0..4 {
            b.add_affinity(s[i], s[i + 6], 2.5);
        }
        b.build().expect("problem builds")
    }

    #[test]
    fn helper_count_does_not_change_the_result() {
        use crate::column_cache::{CgWarmStart, ColumnCache};
        use std::sync::Arc;
        let p = five_group_problem();
        assert!(p.machine_groups().len() >= 4);
        let solve = |helpers: usize| {
            let cache = Arc::new(ColumnCache::new());
            let cg = ColumnGeneration {
                warm: Some(CgWarmStart {
                    cache: cache.clone(),
                    key: 1,
                }),
                ..ColumnGeneration::new()
            };
            let (out, stats) = cg.run(&p, Deadline::none(), Some(helpers));
            assert!(validate(&p, &out.placement, true).is_empty());
            (stats, cache.get(1).expect("pool stored"), out.placement)
        };
        let alone = solve(0);
        assert!(
            alone.0.rounds > 1 && alone.0.pricing_solves >= 8,
            "{:?}",
            alone.0
        );
        assert_eq!(solve(1), alone);
        assert_eq!(solve(3), alone);
    }

    #[test]
    fn helpers_keep_truncated_runs_valid() {
        let p = five_group_problem();
        let cg = ColumnGeneration::new();
        for budget in [Duration::ZERO, Duration::from_millis(2)] {
            let (out, _) = cg.run(&p, Deadline::after(budget), Some(3));
            assert!(validate(&p, &out.placement, false).is_empty(), "{budget:?}");
        }
    }

    #[test]
    fn price_groups_stops_handing_out_groups_once_the_deadline_fires() {
        // every call holds its thread until the deadline has fired, so each
        // thread prices the one group it pulled before that and no other
        let deadline = Deadline::after(Duration::from_millis(50));
        let hold = |g: usize| {
            while !deadline.expired() {
                std::thread::yield_now();
            }
            g
        };
        let (slots, helped) = price_groups(6, 2, deadline, hold);
        let priced: Vec<usize> = slots.iter().flatten().copied().collect();
        assert!((1..=3).contains(&priced.len()), "{slots:?}");
        assert!(helped <= priced.len().min(2), "{helped} of {slots:?}");
        for (g, slot) in slots.iter().enumerate() {
            assert!(slot.is_none() || *slot == Some(g));
        }
        // an already-expired deadline prices nothing, with or without helpers
        for helpers in [0, 2] {
            let (slots, helped) = price_groups(4, helpers, Deadline::after(Duration::ZERO), |g| g);
            assert!(slots.iter().all(Option::is_none));
            assert_eq!(helped, 0);
        }
    }

    #[test]
    fn only_finished_pricing_searches_prove_convergence() {
        use MipStatus::*;
        // (verdict, proves "no column"); `None` is a group never priced
        let cases = [
            (None, false),
            (Some(Optimal), true),
            (Some(Infeasible), true),
            (Some(Feasible), false),
            (Some(NoSolution), false),
            (Some(Unbounded), false),
        ];
        assert!(pricing_proved(&[]), "no group, nothing left to price");
        for (a, a_proves) in cases {
            assert_eq!(pricing_proved(&[a]), a_proves, "{a:?}");
            for (b, b_proves) in cases {
                assert_eq!(
                    pricing_proved(&[a, b]),
                    a_proves && b_proves,
                    "{a:?}, {b:?}"
                );
            }
        }
    }

    #[test]
    fn cg_handles_problem_without_edges() {
        let mut b = ProblemBuilder::new();
        b.add_service("only", 3, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        let p = b.build().expect("problem builds");
        let out = ColumnGeneration::new().schedule(&p, Deadline::none());
        assert_eq!(out.gained_affinity, 0.0);
        // completion still satisfies the SLA
        assert!(validate(&p, &out.placement, true).is_empty());
    }
}
