//! APPLSCI19 (Hu et al., Applied Sciences 2019 \[46\], extended): min-weight
//! graph partitioning followed by heuristic packing.
//!
//! The original targets microservice placement with **one machine size**:
//! it cuts the affinity graph into machine-sized groups and packs each
//! group onto a machine. The paper's extension handles container counts;
//! the single-machine-size assumption stays, which is why the algorithm
//! degrades on heterogeneous machine pools (Section V-D: "the heuristic
//! packing did not consider problems with multiple machine types").
//!
//! Like the paper's version, it is all-or-nothing with respect to the
//! deadline: no intermediate result is available until it finishes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rasa_graph::{multilevel_partition, AffinityGraph, MultilevelConfig};
use rasa_lp::Deadline;
use rasa_model::{MachineId, Placement, Problem, ResourceVec, ServiceId};
use rasa_solver::{complete_placement, per_machine_cap, ScheduleOutcome, Scheduler};
use std::time::Instant;

/// The APPLSCI19 baseline. Like every other algorithm here it finishes
/// with the completion pass.
#[derive(Clone, Debug, Default)]
pub struct Applsci19 {
    /// RNG seed for the multilevel partitioner.
    pub seed: u64,
}

impl Scheduler for Applsci19 {
    fn name(&self) -> &'static str {
        "APPLSCI19"
    }

    fn schedule(&self, problem: &Problem, deadline: Deadline) -> ScheduleOutcome {
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.seed);

        // --- the single machine size the heuristic plans against: the most
        // common SKU (this is the load-bearing assumption) ---
        let groups = problem.machine_groups();
        let Some(plan_cap) = groups
            .iter()
            .max_by_key(|g| g.members.len())
            .map(|g| g.capacity)
        else {
            return ScheduleOutcome::evaluate(
                problem,
                Placement::empty_for(problem),
                start.elapsed(),
                false,
            );
        };

        // --- min-weight graph partitioning of the affinity graph into
        // roughly machine-sized service groups ---
        let graph = AffinityGraph::from_problem(problem);
        let affinity: Vec<usize> = graph.vertices_with_affinity();
        if affinity.is_empty() {
            let mut placement = Placement::empty_for(problem);
            complete_placement(problem, &mut placement);
            return ScheduleOutcome::evaluate(problem, placement, start.elapsed(), true);
        }
        // target parts: total affinity demand / planning capacity
        let total_demand: f64 = affinity
            .iter()
            .map(|&v| problem.services[v].total_demand().dominant_share(&plan_cap))
            .sum();
        let k = (total_demand.ceil() as usize).clamp(1, problem.num_machines().max(1));
        let index_of: std::collections::HashMap<usize, usize> =
            affinity.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut edges = Vec::new();
        for &v in &affinity {
            for (u, w) in graph.neighbors(v) {
                if v < u {
                    edges.push((index_of[&v], index_of[&u], w));
                }
            }
        }
        let sub_graph = AffinityGraph::from_edges(affinity.len(), &edges);
        let partition =
            multilevel_partition(&sub_graph, &MultilevelConfig::with_parts(k), &mut rng);
        if deadline.expired() {
            // all-or-nothing: no result under an expired deadline
            return ScheduleOutcome::evaluate(
                problem,
                Placement::empty_for(problem),
                start.elapsed(),
                false,
            );
        }

        // --- heuristic packing: each part becomes a sequence of virtual
        // machines of the *planning* size, filled by descending-weight
        // edge order, then mapped onto real machines first-fit ---
        let mut placement = Placement::empty_for(problem);
        let mut machine_cursor = 0usize;
        let mut usage = vec![ResourceVec::ZERO; problem.num_machines()];
        for part in partition.parts() {
            let services: Vec<ServiceId> = part
                .iter()
                .map(|&i| ServiceId(affinity[i] as u32))
                .collect();
            // virtual machine plan for this part
            let virtual_bins = pack_part(problem, &services, &plan_cap);
            // map each virtual bin to the next real machine that fits it —
            // bins planned for the common SKU routinely overflow smaller
            // SKUs, losing their containers (the heterogeneity failure)
            for bin in virtual_bins {
                let mut assigned = false;
                let m_total = problem.num_machines();
                for probe in 0..m_total {
                    let mi = (machine_cursor + probe) % m_total;
                    let machine = &problem.machines[mi];
                    let bin_demand = bin.iter().fold(ResourceVec::ZERO, |acc, &(s, c)| {
                        acc + problem.services[s.idx()].demand * f64::from(c)
                    });
                    let compatible = bin.iter().all(|&(s, _)| {
                        machine.can_host(problem.services[s.idx()].required_features)
                    });
                    // exact anti-affinity check: the machine's existing load
                    // plus this bin must respect every rule
                    let aa_ok = problem.anti_affinity.iter().all(|rule| {
                        let existing: u32 = rule
                            .services
                            .iter()
                            .map(|&s| placement.count(s, MachineId(mi as u32)))
                            .sum();
                        let added: u32 = bin
                            .iter()
                            .filter(|(s, _)| rule.services.contains(s))
                            .map(|&(_, c)| c)
                            .sum();
                        existing + added <= rule.max_per_machine
                    });
                    if compatible
                        && aa_ok
                        && (usage[mi] + bin_demand).fits_within(&machine.capacity, 1e-6)
                    {
                        for &(s, c) in &bin {
                            placement.add(s, MachineId(mi as u32), c);
                        }
                        usage[mi] += bin_demand;
                        machine_cursor = (mi + 1) % m_total;
                        assigned = true;
                        break;
                    }
                }
                if !assigned {
                    // bin dropped entirely — its containers fall through to
                    // the completion pass with no affinity intent
                }
            }
        }
        complete_placement(problem, &mut placement);
        let completed = !deadline.expired();
        ScheduleOutcome::evaluate(problem, placement, start.elapsed(), completed)
    }
}

/// Pack one service group onto virtual machines of the single planning
/// capacity `cap`.
///
/// The partitioner already sized each part at roughly one machine, so the
/// whole part maps onto one virtual machine when it fits; larger parts are
/// split across the minimum number of copies with every service spread
/// evenly (aligned ratios keep intra-part affinity localized, which is the
/// original algorithm's intent).
fn pack_part(
    problem: &Problem,
    services: &[ServiceId],
    cap: &ResourceVec,
) -> Vec<Vec<(ServiceId, u32)>> {
    if services.is_empty() {
        return Vec::new();
    }
    // copies: max over resources of demand/cap, and per-service fit limits
    let mut part_demand = ResourceVec::ZERO;
    for &s in services {
        part_demand += problem.services[s.idx()].total_demand();
    }
    let mut copies = part_demand.dominant_share(cap).ceil().max(1.0) as u32;
    for &s in services {
        let svc = &problem.services[s.idx()];
        // resource + singleton anti-affinity caps per machine
        let fit1 = per_machine_cap(problem, s, cap);
        if fit1 > 0 {
            copies = copies.max(svc.replicas.div_ceil(fit1));
        }
    }
    // multi-service anti-affinity rules also bound how much of the part a
    // single machine may hold
    for rule in &problem.anti_affinity {
        if rule.max_per_machine == 0 {
            continue;
        }
        let load: u32 = services
            .iter()
            .filter(|s| rule.services.contains(s))
            .map(|&s| problem.services[s.idx()].replicas)
            .sum();
        if load > 0 {
            copies = copies.max(load.div_ceil(rule.max_per_machine));
        }
    }
    // even spread of every service over the copies (floor + remainders to
    // the first bins, so different services' extras align)
    let mut bins: Vec<Vec<(ServiceId, u32)>> = vec![Vec::new(); copies as usize];
    for &s in services {
        let d = problem.services[s.idx()].replicas;
        let base = d / copies;
        let extra = d % copies;
        for (bi, bin) in bins.iter_mut().enumerate() {
            let c = base + u32::from((bi as u32) < extra);
            if c > 0 {
                bin.push((s, c));
            }
        }
    }
    bins.retain(|b| !b.is_empty());
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{validate, FeatureMask, ProblemBuilder};

    #[test]
    fn packs_uniform_machines_well() {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 2, ResourceVec::cpu_mem(2.0, 2.0));
        let s1 = b.add_service("b", 2, ResourceVec::cpu_mem(2.0, 2.0));
        b.add_machines(4, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 3.0);
        let p = b.build().unwrap();
        let out = Applsci19::default().schedule(&p, Deadline::none());
        assert!(validate(&p, &out.placement, true).is_empty());
        assert!(
            out.normalized_gained_affinity >= 0.99,
            "nga {}",
            out.normalized_gained_affinity
        );
    }

    #[test]
    fn degrades_on_heterogeneous_machines() {
        // the dominant SKU is big, but half the pool is small: bins planned
        // for the big SKU overflow the small machines
        let mut b = ProblemBuilder::new();
        let svcs: Vec<_> = (0..8)
            .map(|i| b.add_service(format!("s{i}"), 2, ResourceVec::cpu_mem(3.0, 3.0)))
            .collect();
        for i in 0..4 {
            b.add_affinity(svcs[2 * i], svcs[2 * i + 1], 5.0);
        }
        b.add_machines(5, ResourceVec::cpu_mem(12.0, 12.0), FeatureMask::EMPTY);
        b.add_machines(4, ResourceVec::cpu_mem(6.0, 6.0), FeatureMask::EMPTY);
        let p = b.build().unwrap();
        let out = Applsci19::default().schedule(&p, Deadline::none());
        // stays feasible…
        assert!(validate(&p, &out.placement, false).is_empty());
        // …but cannot localize everything (MIP can: check it leaves headroom)
        use rasa_solver::MipBased;
        let mip = MipBased::new().schedule(&p, Deadline::none());
        assert!(
            mip.gained_affinity >= out.gained_affinity - 1e-9,
            "mip {} vs applsci {}",
            mip.gained_affinity,
            out.gained_affinity
        );
    }

    #[test]
    fn expired_deadline_returns_nothing() {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 2, ResourceVec::cpu_mem(1.0, 1.0));
        let s1 = b.add_service("b", 2, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 1.0);
        let p = b.build().unwrap();
        let out = Applsci19::default().schedule(&p, Deadline::after(std::time::Duration::ZERO));
        assert!(!out.completed);
        assert_eq!(out.placement.total_placed(), 0, "all-or-nothing semantics");
    }

    #[test]
    fn no_affinity_problem_falls_through_to_completion() {
        let mut b = ProblemBuilder::new();
        b.add_service("lonely", 4, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        let p = b.build().unwrap();
        let out = Applsci19::default().schedule(&p, Deadline::none());
        assert!(validate(&p, &out.placement, true).is_empty());
    }
}
