//! The RASA MIP formulation (Expressions (2)–(9) of the paper).
//!
//! Two flavors share one code path:
//!
//! * [`FormulationKind::PerMachine`] — the exact formulation: one
//!   `x_{s,m}` per service × machine and one `a_{s,s',m}` per edge ×
//!   machine. Used for small instances and as the ground truth the
//!   aggregated model is validated against in tests.
//! * [`FormulationKind::MachineGroup`] — machines with identical capacity
//!   and features are aggregated into groups (the paper's index `g`,
//!   Table I), shrinking the model by the group size. For a group of `K`
//!   identical machines an even spread of `x_{s,g}` containers achieves
//!   gained affinity `w · min(x_{s,g}/d_s, x_{s',g}/d_{s'})` — exactly the
//!   group-level linearization — so the aggregation is tight up to integer
//!   rounding during de-aggregation.
//!
//! The builder drops *trivial* variables up front: services without
//! affinity edges cannot contribute to the objective (the paper's
//! non-affinity partition makes the same observation), so by default they
//! are left to the completion pass / default scheduler.

use rasa_mip::{MipModel, VarId};
use rasa_model::{
    MachineGroup, Placement, Problem, RasaError, ResourceVec, ServiceId, NUM_RESOURCES,
};
use std::collections::HashMap;

/// Which formulation to build.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FormulationKind {
    /// Exact: one variable block per machine.
    PerMachine,
    /// Aggregated: one variable block per machine group.
    MachineGroup,
}

/// A built RASA MIP plus the maps needed to recover a [`Placement`].
pub struct RasaFormulation {
    mip: MipModel,
    groups: Vec<MachineGroup>,
    /// `x` variables: `(service, group index) -> VarId`.
    x_vars: HashMap<(ServiceId, usize), VarId>,
    /// Services that received variables, in id order.
    active_services: Vec<ServiceId>,
}

/// Maximum containers of `service` that fit on one machine with capacity
/// `cap`, considering resources and singleton anti-affinity rules.
pub fn per_machine_cap(problem: &Problem, service: ServiceId, cap: &ResourceVec) -> u32 {
    let svc = &problem.services[service.idx()];
    let mut fit = svc.replicas; // never need more than d_s on one machine
    for r in 0..NUM_RESOURCES {
        let dem = svc.demand.0[r];
        if dem > 0.0 {
            let by_res = ((cap.0[r] + 1e-9) / dem).floor();
            fit = fit.min(if by_res < 0.0 { 0 } else { by_res as u32 });
        }
    }
    for rule in &problem.anti_affinity {
        // any rule containing the service caps it: other members contribute
        // ≥ 0 to the rule's per-machine count, so this is a valid clamp
        if rule.services.contains(&service) {
            fit = fit.min(rule.max_per_machine);
        }
    }
    fit
}

impl RasaFormulation {
    /// Build the formulation for `problem`.
    ///
    /// `include_non_affinity` also creates variables for services without
    /// affinity edges (needed when the MIP must produce a *complete*
    /// schedule on its own; the default `false` matches the paper, which
    /// hands trivial services to the default scheduler).
    pub fn build(problem: &Problem, kind: FormulationKind, include_non_affinity: bool) -> Self {
        let groups: Vec<MachineGroup> = match kind {
            FormulationKind::PerMachine => problem
                .machines
                .iter()
                .map(|m| MachineGroup {
                    capacity: m.capacity,
                    features: m.features,
                    members: vec![m.id],
                })
                .collect(),
            FormulationKind::MachineGroup => problem.machine_groups(),
        };

        let has_edge = {
            let mut v = vec![false; problem.num_services()];
            for e in &problem.affinity_edges {
                v[e.a.idx()] = true;
                v[e.b.idx()] = true;
            }
            v
        };
        let active_services: Vec<ServiceId> = problem
            .services
            .iter()
            .filter(|s| include_non_affinity || has_edge[s.id.idx()])
            .map(|s| s.id)
            .collect();

        let mut mip = MipModel::new();
        let mut x_vars: HashMap<(ServiceId, usize), VarId> = HashMap::new();

        // x_{s,g} — integral placement counts (Expression (9)).
        for &s in &active_services {
            let svc = &problem.services[s.idx()];
            for (gi, g) in groups.iter().enumerate() {
                if !svc.required_features.subset_of(g.features) {
                    continue; // schedulable constraint (6) as a missing variable
                }
                let cap1 = per_machine_cap(problem, s, &g.capacity);
                let ub = (u64::from(cap1) * g.members.len() as u64).min(u64::from(svc.replicas));
                if ub == 0 {
                    continue;
                }
                let v = mip.add_int_var(0.0, ub as f64, 0.0);
                x_vars.insert((s, gi), v);
            }
        }

        // SLA coverage (Expression (3), relaxed to <= so partial deployment
        // degrades gracefully instead of making the model infeasible; the
        // completion pass finishes the job — Section IV-B5).
        for &s in &active_services {
            let coeffs: Vec<(VarId, f64)> = groups
                .iter()
                .enumerate()
                .filter_map(|(gi, _)| x_vars.get(&(s, gi)).map(|&v| (v, 1.0)))
                .collect();
            if !coeffs.is_empty() {
                mip.add_row_le(coeffs, f64::from(problem.services[s.idx()].replicas));
            }
        }

        // Resource capacity per group (Expression (4), aggregated over the
        // group's members).
        for (gi, g) in groups.iter().enumerate() {
            for r in 0..NUM_RESOURCES {
                let budget = g.capacity.0[r] * g.members.len() as f64;
                let coeffs: Vec<(VarId, f64)> = active_services
                    .iter()
                    .filter_map(|&s| {
                        let dem = problem.services[s.idx()].demand.0[r];
                        if dem > 0.0 {
                            x_vars.get(&(s, gi)).map(|&v| (v, dem))
                        } else {
                            None
                        }
                    })
                    .collect();
                if !coeffs.is_empty() {
                    mip.add_row_le(coeffs, budget);
                }
            }
        }

        // Anti-affinity (Expression (5), aggregated: h_k per machine → h_k·K
        // per group; per-machine exactness is restored at de-aggregation).
        for rule in &problem.anti_affinity {
            for (gi, g) in groups.iter().enumerate() {
                let coeffs: Vec<(VarId, f64)> = rule
                    .services
                    .iter()
                    .filter_map(|&s| x_vars.get(&(s, gi)).map(|&v| (v, 1.0)))
                    .collect();
                if !coeffs.is_empty() {
                    mip.add_row_le(
                        coeffs,
                        f64::from(rule.max_per_machine) * g.members.len() as f64,
                    );
                }
            }
        }

        // Gained-affinity epigraph variables and linearization rows
        // (objective (2) with Expressions (7)–(8)).
        //
        // The aggregated model additionally needs *per-machine-cap* rows:
        // when a service's single-machine cap `c` (resources or a spread
        // anti-affinity rule) is below `d_s`, each machine hosting the
        // partner contributes at most `w·c/d_s` to the pair's gained
        // affinity, and the partner occupies at most `x_partner` machines —
        // so `a ≤ w·(c_a/d_a)·x_b` (and symmetrically). Without these the
        // group relaxation promises affinity no per-machine placement can
        // realize (e.g. a spread-constrained hub with `h = 1`).
        for e in &problem.affinity_edges {
            let da = f64::from(problem.services[e.a.idx()].replicas);
            let db = f64::from(problem.services[e.b.idx()].replicas);
            if da == 0.0 || db == 0.0 {
                continue;
            }
            for (gi, g) in groups.iter().enumerate() {
                let (Some(&xa), Some(&xb)) = (x_vars.get(&(e.a, gi)), x_vars.get(&(e.b, gi)))
                else {
                    continue;
                };
                let a = mip.add_var(0.0, e.weight, 1.0);
                mip.add_row_le(vec![(a, 1.0), (xa, -e.weight / da)], 0.0);
                mip.add_row_le(vec![(a, 1.0), (xb, -e.weight / db)], 0.0);
                let ca = f64::from(per_machine_cap(problem, e.a, &g.capacity));
                let cb = f64::from(per_machine_cap(problem, e.b, &g.capacity));
                if ca < da {
                    mip.add_row_le(vec![(a, 1.0), (xb, -e.weight * ca / da)], 0.0);
                }
                if cb < db {
                    mip.add_row_le(vec![(a, 1.0), (xa, -e.weight * cb / db)], 0.0);
                }
            }
        }

        RasaFormulation {
            mip,
            groups,
            x_vars,
            active_services,
        }
    }

    /// The underlying MIP (maximization of total gained affinity).
    pub fn mip(&self) -> &MipModel {
        &self.mip
    }

    /// Services that received variables.
    pub fn active_services(&self) -> &[ServiceId] {
        &self.active_services
    }

    /// Machine groups of this formulation (size-1 groups for
    /// [`FormulationKind::PerMachine`]).
    pub fn groups(&self) -> &[MachineGroup] {
        &self.groups
    }

    /// Turn a MIP solution vector into a concrete per-machine [`Placement`].
    ///
    /// Group counts are de-aggregated onto member machines by spreading each
    /// service's containers as evenly as possible (which realizes the
    /// group-level affinity bound), while re-checking *exact* per-machine
    /// resource and anti-affinity limits; containers that do not fit are
    /// dropped (the paper accepts a small number of failed deployments,
    /// Section IV-B5).
    ///
    /// Panics if `x` is shorter than the formulation's variable count or
    /// contains non-finite entries; use [`Self::try_extract_placement`]
    /// for a checked variant.
    pub fn extract_placement(&self, problem: &Problem, x: &[f64]) -> Placement {
        self.try_extract_placement(problem, x)
            .expect("invariant: solution vector matches the formulation it was solved from")
    }

    /// Checked variant of [`extract_placement`](Self::extract_placement):
    /// rejects solution vectors that do not match the formulation (too
    /// short, or non-finite values) with [`RasaError::SolverInvariant`]
    /// instead of panicking. The fault-isolated pipeline uses this so a
    /// malformed solver result degrades one subproblem, not the run.
    pub fn try_extract_placement(
        &self,
        problem: &Problem,
        x: &[f64],
    ) -> Result<Placement, RasaError> {
        for &v in self.x_vars.values() {
            match x.get(v.0) {
                None => {
                    return Err(RasaError::SolverInvariant(format!(
                        "solution vector has {} entries but the formulation references x[{}]",
                        x.len(),
                        v.0
                    )))
                }
                Some(val) if !val.is_finite() => {
                    return Err(RasaError::SolverInvariant(format!(
                        "solution vector entry x[{}] is {val}",
                        v.0
                    )))
                }
                Some(_) => {}
            }
        }
        Ok(self.extract_placement_unchecked(problem, x))
    }

    fn extract_placement_unchecked(&self, problem: &Problem, x: &[f64]) -> Placement {
        // Apportion each service's (possibly fractional — e.g. from an LP
        // relaxation) group shares to integers by floor + largest
        // remainder, preserving the service's total. Independent per-group
        // rounding would drop containers whose mass is thinly spread
        // (six groups at 0.4 each would all round to zero).
        let mut per_group: Vec<Vec<(ServiceId, u32)>> = vec![Vec::new(); self.groups.len()];
        for &s in &self.active_services {
            let mut shares: Vec<(usize, f64)> = Vec::new();
            for gi in 0..self.groups.len() {
                if let Some(&v) = self.x_vars.get(&(s, gi)) {
                    let val = x[v.0].max(0.0);
                    if val > 1e-9 {
                        shares.push((gi, val));
                    }
                }
            }
            if shares.is_empty() {
                continue;
            }
            let d = problem.services[s.idx()].replicas;
            let total: f64 = shares.iter().map(|&(_, v)| v).sum();
            let target = (total.round() as u32).min(d);
            let mut counts: Vec<(usize, u32, f64)> = shares
                .iter()
                .map(|&(gi, v)| (gi, v.floor() as u32, v - v.floor()))
                .collect();
            let mut assigned: u32 = counts.iter().map(|&(_, c, _)| c).sum();
            // trim if floors already exceed the target (cannot happen from a
            // feasible model solution, but guard caller-supplied vectors)
            while assigned > target {
                if let Some(slot) = counts
                    .iter_mut()
                    .filter(|c| c.1 > 0)
                    .min_by(|a, b| a.2.total_cmp(&b.2))
                {
                    slot.1 -= 1;
                    assigned -= 1;
                } else {
                    break;
                }
            }
            counts.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
            let mut i = 0;
            let len = counts.len();
            while assigned < target && len > 0 {
                counts[i % len].1 += 1;
                assigned += 1;
                i += 1;
            }
            for (gi, c, _) in counts {
                if c > 0 {
                    per_group[gi].push((s, c));
                }
            }
        }
        let mut placement = Placement::empty_for(problem);
        for (gi, g) in self.groups.iter().enumerate() {
            let mut counts = std::mem::take(&mut per_group[gi]);
            counts.sort_by_key(|&(s, _)| s);
            deaggregate_group(problem, g, &counts, &mut placement);
        }
        placement
    }
}

/// De-aggregate group-level counts onto concrete machines.
///
/// The group model only fixes *how many* containers of each service land in
/// the group; realizing its `Σ_e w_e · min(x_{s,g}/d_s, x_{s',g}/d_{s'})`
/// promise depends on how containers align across the member machines.
/// Naive even spreading loses a little affinity per edge to integer
/// rounding, which adds up over hundreds of edges — so instead each
/// container is placed greedily on the member machine with the largest
/// *marginal* realized-affinity gain (packing as the tie-break), followed
/// by a bounded hill-climbing pass that relocates single containers while
/// that strictly improves the realized objective. Exact per-machine
/// resource and anti-affinity limits hold throughout; containers that fit
/// nowhere are dropped (the paper accepts a few failed deployments,
/// Section IV-B5).
pub(crate) fn deaggregate_group(
    problem: &Problem,
    g: &MachineGroup,
    counts: &[(ServiceId, u32)],
    placement: &mut Placement,
) {
    let k = g.members.len();
    if k == 0 || counts.is_empty() {
        return;
    }
    let mut usage: Vec<ResourceVec> = g
        .members
        .iter()
        .map(|&m| {
            // account for anything already on these machines (e.g. other
            // subproblem solutions merged earlier)
            let mut u = ResourceVec::ZERO;
            for (si, svc) in problem.services.iter().enumerate() {
                let c = placement.count(ServiceId(si as u32), m);
                if c > 0 {
                    u += svc.demand * f64::from(c);
                }
            }
            u
        })
        .collect();
    // per-rule, per-member anti-affinity counters
    let mut aa_counts: Vec<Vec<u32>> = problem
        .anti_affinity
        .iter()
        .map(|rule| {
            g.members
                .iter()
                .map(|&m| rule.services.iter().map(|&s| placement.count(s, m)).sum())
                .collect()
        })
        .collect();
    let rules_of: Vec<Vec<usize>> = {
        let mut map = vec![Vec::new(); problem.num_services()];
        for (ri, rule) in problem.anti_affinity.iter().enumerate() {
            for &s in &rule.services {
                map[s.idx()].push(ri);
            }
        }
        map
    };
    let adjacency = problem.edge_adjacency();

    // marginal realized-affinity change if x_{s,m} changes by `delta` (±1)
    let marginal =
        |placement: &Placement, s: ServiceId, m: rasa_model::MachineId, delta: i64| -> f64 {
            let ds = f64::from(problem.services[s.idx()].replicas).max(1.0);
            let x_self = f64::from(placement.count(s, m));
            let x_new = (x_self + delta as f64).max(0.0);
            let mut change = 0.0;
            for &eid in &adjacency[s.idx()] {
                let e = &problem.affinity_edges[eid.idx()];
                let other = e.other(s);
                let x_other = f64::from(placement.count(other, m));
                if x_other == 0.0 {
                    continue;
                }
                let d_other = f64::from(problem.services[other.idx()].replicas).max(1.0);
                let before = (x_self / ds).min(x_other / d_other);
                let after = (x_new / ds).min(x_other / d_other);
                change += e.weight * (after - before);
            }
            change
        };

    let feasible =
        |usage: &[ResourceVec], aa_counts: &[Vec<u32>], s: ServiceId, mi: usize| -> bool {
            let svc = &problem.services[s.idx()];
            (usage[mi] + svc.demand).fits_within(&g.capacity, 1e-6)
                && rules_of[s.idx()]
                    .iter()
                    .all(|&ri| aa_counts[ri][mi] < problem.anti_affinity[ri].max_per_machine)
        };

    // --- aligned insertion over the minimal feasible machine subset ---
    //
    // Spread every service evenly over the same `K*` members (all cursors
    // start at member 0), where `K*` is the smallest count that satisfies
    // aggregate resources, per-service single-machine caps, and
    // anti-affinity loads. An even aligned spread realizes the group-level
    // `min()` for every edge simultaneously up to integer rounding; the
    // hill-climbing pass below then repairs the rounding misalignments.
    let mut k_star = 1usize;
    {
        let mut total = ResourceVec::ZERO;
        for &(s, c) in counts {
            total += problem.services[s.idx()].demand * f64::from(c);
        }
        for r in 0..NUM_RESOURCES {
            let cap = g.capacity.0[r];
            if cap > 0.0 && total.0[r] > 0.0 {
                // 20% headroom above the resource-minimal subset: packed-full
                // machines would leave the hill-climbing repair pass no room
                // to relocate containers
                k_star = k_star.max((1.2 * total.0[r] / cap - 1e-9).ceil() as usize);
            } else if total.0[r] > 0.0 {
                k_star = k;
            }
        }
        for &(s, c) in counts {
            let cap1 = per_machine_cap(problem, s, &g.capacity);
            if cap1 > 0 {
                k_star = k_star.max(c.div_ceil(cap1) as usize);
            }
        }
        for rule in &problem.anti_affinity {
            if rule.max_per_machine == 0 {
                continue;
            }
            let load: u32 = counts
                .iter()
                .filter(|(s, _)| rule.services.contains(s))
                .map(|&(_, c)| c)
                .sum();
            k_star = k_star.max(load.div_ceil(rule.max_per_machine) as usize);
        }
        k_star = k_star.min(k).max(1);
    }
    // Insertion order: scarce services first (fewest containers) — they
    // anchor the layout; plentiful services then *chase* their partners by
    // marginal gain, stacking proportionally where the scarce side sits
    // (realizing min() needs the abundant side concentrated on the scarce
    // side's machines). Zero-gain containers fall back to the aligned
    // round-robin so unrelated services still interleave consistently.
    let totals = problem.all_service_total_affinities();
    let mut order: Vec<(ServiceId, u32)> = counts.to_vec();
    order.sort_by(|a, b| {
        a.1.cmp(&b.1)
            .then(
                totals[b.0.idx()]
                    .partial_cmp(&totals[a.0.idx()])
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.0.cmp(&b.0))
    });
    for &(s, c) in &order {
        let svc = &problem.services[s.idx()];
        let mut cursor = 0usize;
        for _ in 0..c {
            // best marginal-gain machine, if any strictly positive
            let mut best: Option<(usize, f64)> = None;
            for mi in 0..k {
                if !feasible(&usage, &aa_counts, s, mi) {
                    continue;
                }
                let gain = marginal(placement, s, g.members[mi], 1);
                if gain > 1e-12 && best.map_or(true, |(_, bg)| gain > bg + 1e-12) {
                    best = Some((mi, gain));
                }
            }
            let chosen = match best {
                Some((mi, _)) => Some(mi),
                None => {
                    // aligned round-robin fallback
                    let mut found = None;
                    for probe in 0..k {
                        let mi = if probe < k_star {
                            (cursor + probe) % k_star
                        } else {
                            probe
                        };
                        if feasible(&usage, &aa_counts, s, mi) {
                            if mi < k_star {
                                cursor = (mi + 1) % k_star;
                            }
                            found = Some(mi);
                            break;
                        }
                    }
                    found
                }
            };
            let Some(mi) = chosen else {
                break; // cannot fit anywhere in the group — drop
            };
            placement.add(s, g.members[mi], 1);
            usage[mi] += svc.demand;
            for &ri in &rules_of[s.idx()] {
                aa_counts[ri][mi] += 1;
            }
        }
    }

    // --- hill climbing: relocate single containers while it pays ---
    for pass in 0..8 {
        let mut improved = false;
        for &(s, _) in &order {
            let svc = &problem.services[s.idx()];
            let hosts: Vec<usize> = (0..k)
                .filter(|&mi| placement.count(s, g.members[mi]) > 0)
                .collect();
            for mi in hosts {
                let m_from = g.members[mi];
                let remove_delta = marginal(placement, s, m_from, -1);
                // try the best destination
                let mut best: Option<(usize, f64)> = None;
                for mj in 0..k {
                    if mj == mi || !feasible(&usage, &aa_counts, s, mj) {
                        continue;
                    }
                    let gain = marginal(placement, s, g.members[mj], 1);
                    let delta = gain + remove_delta;
                    if delta > 1e-9 && best.map_or(true, |(_, bd)| delta > bd) {
                        best = Some((mj, delta));
                    }
                }
                if let Some((mj, _)) = best {
                    placement.remove(s, m_from, 1);
                    usage[mi] -= svc.demand;
                    for &ri in &rules_of[s.idx()] {
                        aa_counts[ri][mi] -= 1;
                    }
                    placement.add(s, g.members[mj], 1);
                    usage[mj] += svc.demand;
                    for &ri in &rules_of[s.idx()] {
                        aa_counts[ri][mj] += 1;
                    }
                    improved = true;
                }
            }
        }
        // eviction subpass: push zero-marginal containers off the most
        // loaded machines onto the least loaded feasible ones, so the next
        // relocation pass has room to co-locate real pairs
        if pass % 2 == 0 {
            for &(s, _) in &order {
                let svc = &problem.services[s.idx()];
                for mi in 0..k {
                    let m_from = g.members[mi];
                    if placement.count(s, m_from) == 0 {
                        continue;
                    }
                    if marginal(placement, s, m_from, -1) < -1e-12 {
                        continue; // removing here would cost affinity
                    }
                    // destination: least-loaded feasible member
                    let dest = (0..k)
                        .filter(|&mj| mj != mi && feasible(&usage, &aa_counts, s, mj))
                        .min_by(|&a, &b| {
                            usage[a]
                                .dominant_share(&g.capacity)
                                .total_cmp(&usage[b].dominant_share(&g.capacity))
                        });
                    let Some(mj) = dest else { continue };
                    // only evict toward emptier machines, and never at an
                    // affinity price
                    if usage[mj].dominant_share(&g.capacity)
                        + svc.demand.dominant_share(&g.capacity)
                        >= usage[mi].dominant_share(&g.capacity)
                    {
                        continue;
                    }
                    if marginal(placement, s, g.members[mj], 1) + marginal(placement, s, m_from, -1)
                        < -1e-12
                    {
                        continue;
                    }
                    placement.remove(s, m_from, 1);
                    usage[mi] -= svc.demand;
                    for &ri in &rules_of[s.idx()] {
                        aa_counts[ri][mi] -= 1;
                    }
                    placement.add(s, g.members[mj], 1);
                    usage[mj] += svc.demand;
                    for &ri in &rules_of[s.idx()] {
                        aa_counts[ri][mj] += 1;
                    }
                }
            }
        } else if !improved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_mip::MipStatus;
    use rasa_model::{gained_affinity, validate, FeatureMask, MachineId, ProblemBuilder};

    /// Two services with an affinity edge, machines with room for both.
    fn small_problem() -> Problem {
        let mut b = ProblemBuilder::new();
        let a = b.add_service("A", 2, ResourceVec::cpu_mem(2.0, 2.0));
        let c = b.add_service("B", 4, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(3, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(a, c, 1.0);
        b.build().expect("problem builds")
    }

    #[test]
    fn per_machine_cap_respects_resources_and_singleton_rules() {
        let mut b = ProblemBuilder::new();
        let s = b.add_service("s", 10, ResourceVec::cpu_mem(3.0, 1.0));
        b.add_machine(ResourceVec::cpu_mem(10.0, 100.0), FeatureMask::EMPTY);
        b.add_anti_affinity(vec![s], 2);
        let p = b.build().expect("problem builds");
        // resources allow 3 (floor 10/3); singleton anti-affinity caps at 2
        assert_eq!(per_machine_cap(&p, s, &p.machines[0].capacity), 2);
    }

    #[test]
    fn per_machine_cap_zero_when_too_big() {
        let mut b = ProblemBuilder::new();
        let s = b.add_service("s", 1, ResourceVec::cpu_mem(100.0, 1.0));
        b.add_machine(ResourceVec::cpu_mem(10.0, 100.0), FeatureMask::EMPTY);
        let p = b.build().expect("problem builds");
        assert_eq!(per_machine_cap(&p, s, &p.machines[0].capacity), 0);
    }

    #[test]
    fn exact_formulation_solves_fig2_to_full_affinity() {
        let p = small_problem();
        let f = RasaFormulation::build(&p, FormulationKind::PerMachine, false);
        let sol = f.mip().solve();
        assert_eq!(sol.status, MipStatus::Optimal);
        // full collocation is possible: one machine holds 2×A (4 cpu) + 4×B (4 cpu)
        assert!(
            (sol.objective - 1.0).abs() < 1e-5,
            "obj = {}",
            sol.objective
        );
        let placement = f.extract_placement(&p, &sol.x);
        assert!((gained_affinity(&p, &placement) - 1.0).abs() < 1e-5);
        assert!(validate(&p, &placement, false).is_empty());
    }

    #[test]
    fn aggregated_formulation_matches_exact_on_identical_machines() {
        let p = small_problem();
        let exact = RasaFormulation::build(&p, FormulationKind::PerMachine, false);
        let agg = RasaFormulation::build(&p, FormulationKind::MachineGroup, false);
        assert_eq!(agg.groups().len(), 1, "identical machines form one group");
        assert!(
            agg.mip().num_vars() < exact.mip().num_vars(),
            "aggregation must shrink the model"
        );
        let se = exact.mip().solve();
        let sa = agg.mip().solve();
        assert!((se.objective - sa.objective).abs() < 1e-5);
        // de-aggregated placement achieves the model objective here
        let placement = agg.extract_placement(&p, &sa.x);
        assert!((gained_affinity(&p, &placement) - sa.objective).abs() < 1e-5);
    }

    #[test]
    fn schedulable_constraints_suppress_variables() {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service_full(
            rasa_model::Service::new(ServiceId(0), "needs-gpu", 2, ResourceVec::cpu_mem(1.0, 1.0))
                .with_features(FeatureMask::bit(3)),
        );
        let s1 = b.add_service("plain", 2, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machine(ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY); // no gpu
        b.add_machine(ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::bit(3)); // gpu
        b.add_affinity(s0, s1, 1.0);
        let p = b.build().expect("problem builds");
        let f = RasaFormulation::build(&p, FormulationKind::PerMachine, false);
        let sol = f.mip().solve();
        assert_eq!(sol.status, MipStatus::Optimal);
        let placement = f.extract_placement(&p, &sol.x);
        // s0 must never land on machine 0
        assert_eq!(placement.count(s0, MachineId(0)), 0);
        assert!(validate(&p, &placement, false).is_empty());
        // full collocation still achievable on the gpu machine
        assert!((gained_affinity(&p, &placement) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn anti_affinity_limits_collocation() {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("x", 2, ResourceVec::cpu_mem(1.0, 1.0));
        let s1 = b.add_service("y", 2, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(100.0, 100.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 1.0);
        // at most 2 containers from {x, y} per machine
        b.add_anti_affinity(vec![s0, s1], 2);
        let p = b.build().expect("problem builds");
        let f = RasaFormulation::build(&p, FormulationKind::PerMachine, false);
        let sol = f.mip().solve();
        assert_eq!(sol.status, MipStatus::Optimal);
        // best: 1×x + 1×y on each machine → per machine min(1/2,1/2) = 0.5·w each → 1.0 total
        assert!((sol.objective - 1.0).abs() < 1e-5);
        let placement = f.extract_placement(&p, &sol.x);
        assert!(validate(&p, &placement, false).is_empty());
    }

    #[test]
    fn non_affinity_services_excluded_by_default() {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 1, ResourceVec::cpu_mem(1.0, 1.0));
        let s1 = b.add_service("b", 1, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_service("loner", 5, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machine(ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 1.0);
        let p = b.build().expect("problem builds");
        let f = RasaFormulation::build(&p, FormulationKind::PerMachine, false);
        assert_eq!(f.active_services(), &[s0, s1]);
        let f_all = RasaFormulation::build(&p, FormulationKind::PerMachine, true);
        assert_eq!(f_all.active_services().len(), 3);
    }

    #[test]
    fn deaggregation_respects_per_machine_capacity() {
        // group constraint admits 3 containers of a 5-cpu service on a
        // 2-machine group with 8 cpu each (15 <= 16), but per machine only 1
        // fits — de-aggregation must drop the third container.
        let mut b = ProblemBuilder::new();
        let s = b.add_service("fat", 3, ResourceVec::cpu_mem(5.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 64.0), FeatureMask::EMPTY);
        let p = b.build().expect("problem builds");
        let g = &p.machine_groups()[0];
        let mut placement = Placement::empty_for(&p);
        deaggregate_group(&p, g, &[(s, 3)], &mut placement);
        assert_eq!(placement.placed_count(s), 2);
        assert!(validate(&p, &placement, false).is_empty());
    }

    #[test]
    fn deaggregation_places_all_affinity_free_containers() {
        // a service with no affinity edges: placement must be complete and
        // feasible; the exact spread is load-balancing territory, not an
        // affinity concern.
        let mut b = ProblemBuilder::new();
        let s = b.add_service("svc", 4, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        let p = b.build().expect("problem builds");
        let g = &p.machine_groups()[0];
        let mut placement = Placement::empty_for(&p);
        deaggregate_group(&p, g, &[(s, 4)], &mut placement);
        assert_eq!(placement.placed_count(s), 4);
        assert!(validate(&p, &placement, true).is_empty());
    }

    #[test]
    fn deaggregation_aligns_pairs_across_the_subset() {
        // two services, each 2 containers of 4 cpu → K* = 2 machines of
        // 8 cpu; aligned spread must put one of each on both machines.
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 2, ResourceVec::cpu_mem(4.0, 1.0));
        let s1 = b.add_service("b", 2, ResourceVec::cpu_mem(4.0, 1.0));
        b.add_machines(4, ResourceVec::cpu_mem(8.0, 64.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 1.0);
        let p = b.build().expect("problem builds");
        let g = &p.machine_groups()[0];
        let mut placement = Placement::empty_for(&p);
        deaggregate_group(&p, g, &[(s0, 2), (s1, 2)], &mut placement);
        assert_eq!(placement.count(s0, MachineId(0)), 1);
        assert_eq!(placement.count(s1, MachineId(0)), 1);
        assert_eq!(placement.count(s0, MachineId(1)), 1);
        assert_eq!(placement.count(s1, MachineId(1)), 1);
        assert!((gained_affinity(&p, &placement) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sla_is_upper_bounded_not_forced() {
        // machine too small for every container — model stays feasible and
        // places what fits.
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 10, ResourceVec::cpu_mem(1.0, 1.0));
        let s1 = b.add_service("b", 10, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machine(ResourceVec::cpu_mem(4.0, 4.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 1.0);
        let p = b.build().expect("problem builds");
        let f = RasaFormulation::build(&p, FormulationKind::PerMachine, false);
        let sol = f.mip().solve();
        assert_eq!(sol.status, MipStatus::Optimal);
        // best: 2 + 2 containers → min(2/10, 2/10) = 0.2
        assert!((sol.objective - 0.2).abs() < 1e-5, "obj {}", sol.objective);
        let placement = f.extract_placement(&p, &sol.x);
        assert!(validate(&p, &placement, false).is_empty());
        assert_eq!(placement.total_placed(), 4);
    }
}
