//! Affinity-aware first-fit completion: the stand-in for the cluster's
//! *default scheduler*, which the paper lets place whatever the optimizer
//! did not (trivial services, and the occasional failed deployment —
//! Sections III-A and IV-B5).

use crate::scheduler::{ScheduleOutcome, Scheduler};
use rasa_lp::Deadline;
use rasa_model::{Placement, Problem, ServiceId};
use std::time::Instant;

/// Place every still-missing container (up to each service's `d_s`) using
/// first-fit over machines, preferring machines that already host affinity
/// neighbors (score = potential marginal gained affinity), then machines
/// with the lowest dominant resource share. Respects all constraints;
/// containers that fit nowhere stay unplaced.
///
/// Returns the number of containers placed by this pass.
pub fn complete_placement(problem: &Problem, placement: &mut Placement) -> u64 {
    let num_machines = problem.num_machines();
    let mut usage = placement.machine_usage(problem);
    // per-rule per-machine anti-affinity counts
    let mut aa_counts: Vec<Vec<u32>> = problem
        .anti_affinity
        .iter()
        .map(|rule| {
            (0..num_machines)
                .map(|mi| {
                    rule.services
                        .iter()
                        .map(|&s| placement.count(s, rasa_model::MachineId(mi as u32)))
                        .sum()
                })
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

    // Services with the largest total affinity first, so high-value
    // leftovers get the best spots.
    let totals = problem.all_service_total_affinities();
    let mut order: Vec<ServiceId> = problem.services.iter().map(|s| s.id).collect();
    order.sort_by(|a, b| {
        totals[b.idx()]
            .partial_cmp(&totals[a.idx()])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(b))
    });

    let mut placed_total = 0u64;
    for s in order {
        let svc = &problem.services[s.idx()];
        let missing = svc.replicas.saturating_sub(placement.placed_count(s));
        for _ in 0..missing {
            // score every machine
            let mut best: Option<(usize, f64, f64)> = None; // (machine, score, -load)
            for mi in 0..num_machines {
                let machine = &problem.machines[mi];
                if !machine.can_host(svc.required_features) {
                    continue;
                }
                if !(usage[mi] + svc.demand).fits_within(&machine.capacity, 1e-6) {
                    continue;
                }
                if !rules_of[s.idx()]
                    .iter()
                    .all(|&ri| aa_counts[ri][mi] < problem.anti_affinity[ri].max_per_machine)
                {
                    continue;
                }
                let m = rasa_model::MachineId(mi as u32);
                // marginal affinity gain of adding one container of s here
                let mut score = 0.0;
                for &eid in &adjacency[s.idx()] {
                    let e = &problem.affinity_edges[eid.idx()];
                    let other = e.other(s);
                    let x_other = placement.count(other, m);
                    if x_other == 0 {
                        continue;
                    }
                    let ds = f64::from(svc.replicas);
                    let d_other = f64::from(problem.services[other.idx()].replicas);
                    let x_self = f64::from(placement.count(s, m));
                    let before = (x_self / ds).min(f64::from(x_other) / d_other);
                    let after = ((x_self + 1.0) / ds).min(f64::from(x_other) / d_other);
                    score += e.weight * (after - before);
                }
                let load = (usage[mi] + svc.demand).dominant_share(&machine.capacity);
                let better = match best {
                    None => true,
                    Some((_, bs, bl)) => score > bs + 1e-12 || (score > bs - 1e-12 && -load > bl),
                };
                if better {
                    best = Some((mi, score, -load));
                }
            }
            match best {
                Some((mi, _, _)) => {
                    let m = rasa_model::MachineId(mi as u32);
                    placement.add(s, m, 1);
                    usage[mi] += svc.demand;
                    for &ri in &rules_of[s.idx()] {
                        aa_counts[ri][mi] += 1;
                    }
                    placed_total += 1;
                }
                None => break, // no machine fits this service at all
            }
        }
    }
    placed_total
}

/// The completion pass as a standalone pool member: start from an empty
/// placement and let affinity-aware first-fit place everything. The
/// cheapest arm of the strategy pool — no LP, no search — and the
/// same code the fallback ladder already uses as its floor, so selecting
/// GREEDY is "skip straight to the floor, spend the budget elsewhere".
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyScheduler;

impl Scheduler for GreedyScheduler {
    fn name(&self) -> &'static str {
        "GREEDY"
    }

    fn schedule(&self, problem: &Problem, _deadline: Deadline) -> ScheduleOutcome {
        let start = Instant::now();
        let mut placement = Placement::empty_for(problem);
        complete_placement(problem, &mut placement);
        ScheduleOutcome::evaluate(problem, placement, start.elapsed(), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{validate, FeatureMask, MachineId, ProblemBuilder, ResourceVec};

    #[test]
    fn completes_an_empty_placement() {
        let mut b = ProblemBuilder::new();
        let s = b.add_service("svc", 5, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(4.0, 4.0), FeatureMask::EMPTY);
        let p = b.build().expect("problem builds");
        let mut x = Placement::empty_for(&p);
        let placed = complete_placement(&p, &mut x);
        assert_eq!(placed, 5);
        assert_eq!(x.placed_count(s), 5);
        assert!(validate(&p, &x, true).is_empty());
    }

    #[test]
    fn prefers_affinity_neighbors() {
        let mut b = ProblemBuilder::new();
        let hub = b.add_service("hub", 1, ResourceVec::cpu_mem(1.0, 1.0));
        let leaf = b.add_service("leaf", 1, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(3, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(hub, leaf, 5.0);
        let p = b.build().expect("problem builds");
        let mut x = Placement::empty_for(&p);
        x.add(hub, MachineId(2), 1);
        complete_placement(&p, &mut x);
        assert_eq!(x.count(leaf, MachineId(2)), 1, "leaf should chase the hub");
    }

    #[test]
    fn respects_capacity_and_reports_shortfall() {
        let mut b = ProblemBuilder::new();
        let _big = b.add_service("big", 4, ResourceVec::cpu_mem(3.0, 1.0));
        b.add_machine(ResourceVec::cpu_mem(7.0, 64.0), FeatureMask::EMPTY);
        let p = b.build().expect("problem builds");
        let mut x = Placement::empty_for(&p);
        let placed = complete_placement(&p, &mut x);
        assert_eq!(placed, 2, "only two 3-cpu containers fit in 7 cpu");
        assert!(validate(&p, &x, false).is_empty());
    }

    #[test]
    fn respects_anti_affinity() {
        let mut b = ProblemBuilder::new();
        let s = b.add_service("svc", 4, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(100.0, 100.0), FeatureMask::EMPTY);
        b.add_anti_affinity(vec![s], 1);
        let p = b.build().expect("problem builds");
        let mut x = Placement::empty_for(&p);
        let placed = complete_placement(&p, &mut x);
        assert_eq!(placed, 2, "one per machine under the singleton rule");
        assert!(validate(&p, &x, false).is_empty());
    }

    #[test]
    fn respects_schedulable_constraints() {
        let mut b = ProblemBuilder::new();
        let s = b.add_service_full(
            rasa_model::Service::new(ServiceId(0), "gpu", 2, ResourceVec::cpu_mem(1.0, 1.0))
                .with_features(FeatureMask::bit(0)),
        );
        b.add_machine(ResourceVec::cpu_mem(100.0, 100.0), FeatureMask::EMPTY);
        b.add_machine(ResourceVec::cpu_mem(100.0, 100.0), FeatureMask::bit(0));
        let p = b.build().expect("problem builds");
        let mut x = Placement::empty_for(&p);
        complete_placement(&p, &mut x);
        assert_eq!(x.count(s, MachineId(0)), 0);
        assert_eq!(x.count(s, MachineId(1)), 2);
    }

    #[test]
    fn already_complete_placement_is_untouched() {
        let mut b = ProblemBuilder::new();
        let s = b.add_service("svc", 2, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        let p = b.build().expect("problem builds");
        let mut x = Placement::empty_for(&p);
        x.add(s, MachineId(0), 2);
        let before = x.clone();
        assert_eq!(complete_placement(&p, &mut x), 0);
        assert_eq!(x, before);
    }
}
