//! Algorithm 2: computing the migration path.

use rasa_model::{
    ContainerAssignment, ContainerId, MachineId, Placement, Problem, ResourceVec, ServiceId,
};
use std::collections::VecDeque;

/// Safety valve on planner iterations.
pub const MAX_STEPS: usize = 10_000;

/// Options for [`plan_migration`].
#[derive(Clone, Copy, Debug)]
pub struct MigrateConfig {
    /// Fraction of each service's containers that must stay alive at every
    /// step (the paper relaxes SLAs to 75% during reallocation). The floor
    /// is `⌊fraction · d_s⌋`, so single-replica services can still migrate.
    pub min_alive_fraction: f64,
}

impl Default for MigrateConfig {
    fn default() -> Self {
        MigrateConfig {
            min_alive_fraction: 0.75,
        }
    }
}

/// One step of the migration path. All `deletes` execute (in parallel)
/// first; once they complete, all `creates` execute (in parallel). This is
/// the paper's pair of command sets `l_delete`, `l_create` per iteration.
#[derive(Clone, Debug, PartialEq)]
pub struct MigrationStep {
    /// Containers to delete, with the machine they currently occupy.
    pub deletes: Vec<(ContainerId, MachineId)>,
    /// Containers to (re)create, with their destination machine.
    pub creates: Vec<(ContainerId, MachineId)>,
}

/// A full migration plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MigrationPlan {
    /// Steps in execution order.
    pub steps: Vec<MigrationStep>,
}

impl MigrationPlan {
    /// Total containers moved (deleted and recreated elsewhere).
    pub fn total_moves(&self) -> usize {
        self.steps.iter().map(|s| s.creates.len()).sum()
    }

    /// `true` when nothing needs to move.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Why planning failed.
#[derive(Clone, Debug, PartialEq)]
pub enum MigrateError {
    /// Target places a different number of containers for a service than
    /// currently exist — reconcile (completion pass) before migrating.
    CountMismatch {
        /// The inconsistent service.
        service: ServiceId,
        /// Containers currently alive.
        current: u32,
        /// Containers in the target mapping.
        target: u32,
    },
    /// The planner could not make progress (SLA floor and resource
    /// constraints deadlock — e.g. a circular swap with no slack anywhere).
    Stuck {
        /// Containers still waiting to move when progress stopped.
        remaining: usize,
    },
    /// A planner bookkeeping invariant failed. This indicates a bug, but it
    /// is surfaced as an error instead of a panic so one bad subproblem
    /// cannot abort an entire optimization run.
    Internal(String),
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::CountMismatch {
                service,
                current,
                target,
            } => write!(
                f,
                "service {service}: target places {target} containers but {current} are alive"
            ),
            MigrateError::Stuck { remaining } => {
                write!(
                    f,
                    "migration deadlocked with {remaining} containers left to move"
                )
            }
            MigrateError::Internal(msg) => write!(f, "planner invariant failed: {msg}"),
        }
    }
}

impl std::error::Error for MigrateError {}

impl From<MigrateError> for rasa_model::RasaError {
    fn from(e: MigrateError) -> Self {
        rasa_model::RasaError::Migration(e.to_string())
    }
}

/// Compute a migration path from the running assignment `from` to the
/// optimizer's `target` mapping (Algorithm 2).
pub fn plan_migration(
    problem: &Problem,
    from: &ContainerAssignment,
    target: &Placement,
    config: &MigrateConfig,
) -> Result<MigrationPlan, MigrateError> {
    let num_services = problem.num_services();
    // sanity: per-service totals must match
    for s in problem.services.iter().map(|s| s.id) {
        let current = from.alive_count(s);
        let tgt = target.placed_count(s);
        if current != tgt {
            return Err(MigrateError::CountMismatch {
                service: s,
                current,
                target: tgt,
            });
        }
    }

    // --- diff: decide keepers, migrations, deficits ---
    let mut state = from.clone();
    // containers that must leave their machine, per machine, FIFO
    let mut to_migrate: Vec<Vec<ContainerId>> = vec![Vec::new(); problem.num_machines()];
    // creates still owed per machine: (machine) -> list of (service, count)
    let mut deficit: Vec<Vec<(ServiceId, u32)>> = vec![Vec::new(); problem.num_machines()];
    let mut total_pending = 0usize;
    for svc in &problem.services {
        let s = svc.id;
        // per machine current/target counts
        let mut current_per_m: std::collections::BTreeMap<MachineId, Vec<ContainerId>> =
            Default::default();
        for r in 0..svc.replicas {
            let c = ContainerId::new(s, r);
            if let Some(m) = from.machine_of(c) {
                current_per_m.entry(m).or_default().push(c);
            }
        }
        for (m, containers) in &current_per_m {
            let tgt = target.count(s, *m);
            if containers.len() as u32 > tgt {
                for &c in &containers[tgt as usize..] {
                    to_migrate[m.idx()].push(c);
                    total_pending += 1;
                }
            }
        }
        for (m, tgt) in target.machines_of(s) {
            let cur = current_per_m.get(&m).map_or(0, |v| v.len() as u32);
            if tgt > cur {
                deficit[m.idx()].push((s, tgt - cur));
            }
        }
    }

    if total_pending == 0 {
        return Ok(MigrationPlan::default());
    }

    // --- running state ---
    let start_placement = state.to_placement();
    let mut free: Vec<ResourceVec> = {
        let usage = start_placement.machine_usage(problem);
        problem
            .machines
            .iter()
            .zip(usage)
            .map(|(m, u)| m.capacity - u)
            .collect()
    };
    // Per-rule per-machine occupancy of every anti-affinity rule, maintained
    // as commands are selected: even when both endpoints satisfy a rule, a
    // create scheduled before the outgoing rule-member's delete would push
    // the *intermediate* state past the cap, so creates are gated on the
    // occupancy at that point in the plan.
    let mut aa_used: Vec<Vec<u32>> = problem
        .anti_affinity
        .iter()
        .map(|rule| {
            (0..problem.num_machines())
                .map(|mi| {
                    rule.services
                        .iter()
                        .map(|&s| start_placement.count(s, MachineId(mi as u32)))
                        .sum()
                })
                .collect()
        })
        .collect();
    let rules_of: Vec<Vec<usize>> = (0..num_services)
        .map(|si| {
            problem
                .anti_affinity
                .iter()
                .enumerate()
                .filter(|(_, r)| r.services.contains(&ServiceId(si as u32)))
                .map(|(k, _)| k)
                .collect()
        })
        .collect();
    let mut alive: Vec<u32> = (0..num_services)
        .map(|s| state.alive_count(ServiceId(s as u32)))
        .collect();
    let min_alive: Vec<u32> = problem
        .services
        .iter()
        .map(|s| (config.min_alive_fraction * f64::from(s.replicas)).floor() as u32)
        .collect();
    // deleted-but-not-recreated replicas per service (drives offline ratio)
    let mut offline_pool: Vec<VecDeque<ContainerId>> = vec![VecDeque::new(); num_services];
    let offline_ratio = |pool: &[VecDeque<ContainerId>], s: usize, d: u32| -> f64 {
        if d == 0 {
            0.0
        } else {
            pool[s].len() as f64 / f64::from(d)
        }
    };

    let mut plan = MigrationPlan::default();
    for _ in 0..MAX_STEPS {
        // --- SelectDelete: one per machine. The commands in the batch run
        // in parallel, so the SLA guard must account for deletes already
        // chosen for *other* machines in this same batch — counters update
        // as each command is selected. ---
        let mut deletes: Vec<(ContainerId, MachineId)> = Vec::new();
        for mi in 0..problem.num_machines() {
            // candidates on this machine, lowest offline ratio first
            let Some(best) = to_migrate[mi]
                .iter()
                .filter(|c| alive[c.service.idx()] > min_alive[c.service.idx()])
                .min_by(|a, b| {
                    let ra = offline_ratio(
                        &offline_pool,
                        a.service.idx(),
                        problem.services[a.service.idx()].replicas,
                    );
                    let rb = offline_ratio(
                        &offline_pool,
                        b.service.idx(),
                        problem.services[b.service.idx()].replicas,
                    );
                    // total_cmp: offline ratios are finite by construction,
                    // but a NaN slipping in must not abort the whole run
                    ra.total_cmp(&rb).then(a.cmp(b))
                })
                .copied()
            else {
                continue;
            };
            deletes.push((best, MachineId(mi as u32)));
            let si = best.service.idx();
            state.unassign(best);
            alive[si] -= 1;
            free[mi] += problem.services[si].demand;
            for &k in &rules_of[si] {
                aa_used[k][mi] -= 1;
            }
            offline_pool[si].push_back(best);
            let Some(pos) = to_migrate[mi].iter().position(|&x| x == best) else {
                return Err(MigrateError::Internal(format!(
                    "deleted container {best:?} was not queued on machine {mi}"
                )));
            };
            to_migrate[mi].remove(pos);
        }

        // --- SelectCreate: one per machine ---
        let mut creates: Vec<(ContainerId, MachineId)> = Vec::new();
        for mi in 0..problem.num_machines() {
            // services owed here with offline replicas available and fitting
            let candidate = deficit[mi]
                .iter()
                .enumerate()
                .filter(|(_, (s, count))| {
                    *count > 0
                        && !offline_pool[s.idx()].is_empty()
                        && problem.services[s.idx()]
                            .demand
                            .fits_within(&free[mi], 1e-6)
                        && rules_of[s.idx()]
                            .iter()
                            .all(|&k| aa_used[k][mi] < problem.anti_affinity[k].max_per_machine)
                })
                .max_by(|(_, (sa, _)), (_, (sb, _))| {
                    let ra =
                        offline_ratio(&offline_pool, sa.idx(), problem.services[sa.idx()].replicas);
                    let rb =
                        offline_ratio(&offline_pool, sb.idx(), problem.services[sb.idx()].replicas);
                    ra.total_cmp(&rb).then(sb.cmp(sa))
                })
                .map(|(idx, (s, _))| (idx, *s));
            let Some((didx, s)) = candidate else { continue };
            let Some(c) = offline_pool[s.idx()].pop_front() else {
                return Err(MigrateError::Internal(format!(
                    "create selected for service {s} with an empty offline pool"
                )));
            };
            creates.push((c, MachineId(mi as u32)));
            deficit[mi][didx].1 -= 1;
            state.assign(c, MachineId(mi as u32));
            alive[s.idx()] += 1;
            free[mi] -= problem.services[s.idx()].demand;
            for &k in &rules_of[s.idx()] {
                aa_used[k][mi] += 1;
            }
            total_pending -= 1;
        }

        if deletes.is_empty() && creates.is_empty() {
            return Err(MigrateError::Stuck {
                remaining: total_pending,
            });
        }
        plan.steps.push(MigrationStep { deletes, creates });
        if total_pending == 0 && offline_pool.iter().all(VecDeque::is_empty) {
            return Ok(plan);
        }
    }
    Err(MigrateError::Stuck {
        remaining: total_pending,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{FeatureMask, ProblemBuilder};

    fn problem(replicas: u32, machines: usize, cap: f64) -> Problem {
        let mut b = ProblemBuilder::new();
        b.add_service("svc", replicas, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(machines, ResourceVec::cpu_mem(cap, cap), FeatureMask::EMPTY);
        b.build().expect("problem builds")
    }

    #[test]
    fn no_op_migration_is_empty() {
        let p = problem(4, 2, 8.0);
        let mut target = Placement::empty_for(&p);
        target.add(ServiceId(0), MachineId(0), 2);
        target.add(ServiceId(0), MachineId(1), 2);
        let from = ContainerAssignment::materialize(&p, &target);
        let plan =
            plan_migration(&p, &from, &target, &MigrateConfig::default()).expect("plan exists");
        assert!(plan.is_empty());
    }

    #[test]
    fn simple_move_generates_delete_then_create() {
        let p = problem(4, 2, 8.0);
        let mut start = Placement::empty_for(&p);
        start.add(ServiceId(0), MachineId(0), 4);
        let from = ContainerAssignment::materialize(&p, &start);
        let mut target = Placement::empty_for(&p);
        target.add(ServiceId(0), MachineId(0), 2);
        target.add(ServiceId(0), MachineId(1), 2);
        let plan =
            plan_migration(&p, &from, &target, &MigrateConfig::default()).expect("plan exists");
        assert_eq!(plan.total_moves(), 2);
        // SLA floor is 3 for d=4 @ 0.75 → at most one offline at a time →
        // each container moves in its own step
        assert_eq!(plan.steps.len(), 2);
        for step in &plan.steps {
            assert!(step.deletes.len() <= 1);
        }
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let p = problem(4, 2, 8.0);
        let mut start = Placement::empty_for(&p);
        start.add(ServiceId(0), MachineId(0), 4);
        let from = ContainerAssignment::materialize(&p, &start);
        let mut target = Placement::empty_for(&p);
        target.add(ServiceId(0), MachineId(1), 3); // one short
        let err = plan_migration(&p, &from, &target, &MigrateConfig::default())
            .expect_err("counts differ");
        assert_eq!(
            err,
            MigrateError::CountMismatch {
                service: ServiceId(0),
                current: 4,
                target: 3
            }
        );
    }

    #[test]
    fn single_replica_service_can_migrate_with_floor_semantics() {
        let p = problem(1, 2, 8.0);
        let mut start = Placement::empty_for(&p);
        start.add(ServiceId(0), MachineId(0), 1);
        let from = ContainerAssignment::materialize(&p, &start);
        let mut target = Placement::empty_for(&p);
        target.add(ServiceId(0), MachineId(1), 1);
        let plan =
            plan_migration(&p, &from, &target, &MigrateConfig::default()).expect("plan exists");
        assert_eq!(plan.total_moves(), 1);
    }

    #[test]
    fn resource_swap_requires_freeing_first() {
        // two fat services swap machines; each machine only fits one at a time
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 2, ResourceVec::cpu_mem(4.0, 1.0));
        let s1 = b.add_service("b", 2, ResourceVec::cpu_mem(4.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 64.0), FeatureMask::EMPTY);
        let p = b.build().expect("problem builds");
        let mut start = Placement::empty_for(&p);
        start.add(s0, MachineId(0), 2);
        start.add(s1, MachineId(1), 2);
        let from = ContainerAssignment::materialize(&p, &start);
        let mut target = Placement::empty_for(&p);
        // swap: one of each on both machines
        target.add(s0, MachineId(0), 1);
        target.add(s0, MachineId(1), 1);
        target.add(s1, MachineId(0), 1);
        target.add(s1, MachineId(1), 1);
        let plan =
            plan_migration(&p, &from, &target, &MigrateConfig::default()).expect("plan exists");
        assert_eq!(plan.total_moves(), 2);
        // replay to ensure correctness (full invariants checked in verify.rs tests)
        assert!(crate::verify::replay_plan(&p, &from, &target, &plan, 0.75).is_ok());
    }

    #[test]
    fn impossible_swap_reports_stuck() {
        // d_s = 1 services completely filling both machines: deleting either
        // is allowed (floor 0), but if fraction is 1.0 nothing may go offline
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 1, ResourceVec::cpu_mem(8.0, 1.0));
        let s1 = b.add_service("b", 1, ResourceVec::cpu_mem(8.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 64.0), FeatureMask::EMPTY);
        let p = b.build().expect("problem builds");
        let mut start = Placement::empty_for(&p);
        start.add(s0, MachineId(0), 1);
        start.add(s1, MachineId(1), 1);
        let from = ContainerAssignment::materialize(&p, &start);
        let mut target = Placement::empty_for(&p);
        target.add(s0, MachineId(1), 1);
        target.add(s1, MachineId(0), 1);
        let strict = MigrateConfig {
            min_alive_fraction: 1.0,
        };
        let err = plan_migration(&p, &from, &target, &strict).expect_err("a full swap is stuck");
        assert!(matches!(err, MigrateError::Stuck { remaining: 2 }));
        // with the paper's 75% relaxation the swap succeeds
        let plan =
            plan_migration(&p, &from, &target, &MigrateConfig::default()).expect("plan exists");
        assert_eq!(plan.total_moves(), 2);
    }

    #[test]
    fn creates_never_transit_through_anti_affinity_violations() {
        // m0 starts with rule members {b, c} at the cap (2) plus an
        // unconstrained z; the target keeps b, evicts z and c, and brings a
        // in. A planner that gates creates on resources alone deletes z
        // first (lowest service id wins the tie-break) and creates a onto
        // m0 in the same step — three rule members on one machine, a
        // transient violation between two feasible endpoints.
        let mut b = ProblemBuilder::new();
        let z = b.add_service("z", 1, ResourceVec::cpu_mem(1.0, 1.0));
        let a = b.add_service("a", 1, ResourceVec::cpu_mem(1.0, 1.0));
        let sb = b.add_service("b", 1, ResourceVec::cpu_mem(1.0, 1.0));
        let sc = b.add_service("c", 1, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_anti_affinity(vec![a, sb, sc], 2);
        let p = b.build().expect("problem builds");

        let mut start = Placement::empty_for(&p);
        start.add(z, MachineId(0), 1);
        start.add(sb, MachineId(0), 1);
        start.add(sc, MachineId(0), 1);
        start.add(a, MachineId(1), 1);
        let from = ContainerAssignment::materialize(&p, &start);
        let mut target = Placement::empty_for(&p);
        target.add(a, MachineId(0), 1);
        target.add(sb, MachineId(0), 1);
        target.add(sc, MachineId(1), 1);
        target.add(z, MachineId(1), 1);

        let plan =
            plan_migration(&p, &from, &target, &MigrateConfig::default()).expect("plan exists");
        // replay the plan and audit the intermediate state after every step
        let mut state = from.clone();
        for step in &plan.steps {
            for &(c, _) in &step.deletes {
                state.unassign(c);
            }
            for &(c, m) in &step.creates {
                state.assign(c, m);
            }
            let violations = rasa_model::validate(&p, &state.to_placement(), false);
            assert!(
                violations.is_empty(),
                "intermediate state violates constraints: {violations:?}"
            );
        }
        assert_eq!(state.to_placement(), target);
    }

    #[test]
    fn parallel_deletes_across_machines_respect_the_shared_sla_floor() {
        // Regression: one service spread over many machines — selecting one
        // delete per machine in the same batch must not jointly breach the
        // alive floor (floor(0.75·3) = 2 → at most one offline at a time).
        let p = problem(3, 3, 8.0);
        let mut start = Placement::empty_for(&p);
        for m in 0..3 {
            start.add(ServiceId(0), MachineId(m), 1);
        }
        let from = ContainerAssignment::materialize(&p, &start);
        let mut target = Placement::empty_for(&p);
        target.add(ServiceId(0), MachineId(0), 3);
        let plan =
            plan_migration(&p, &from, &target, &MigrateConfig::default()).expect("plan exists");
        for step in &plan.steps {
            assert!(
                step.deletes.len() <= 1,
                "batch of {} deletes would breach the floor",
                step.deletes.len()
            );
        }
        assert!(crate::verify::replay_plan(&p, &from, &target, &plan, 0.75).is_ok());
    }

    #[test]
    fn sla_floor_limits_parallel_offline_containers() {
        // 8 replicas moving across machines: floor(0.75·8) = 6 alive → at
        // most 2 offline at any point
        let p = problem(8, 4, 8.0);
        let mut start = Placement::empty_for(&p);
        start.add(ServiceId(0), MachineId(0), 8);
        let from = ContainerAssignment::materialize(&p, &start);
        let mut target = Placement::empty_for(&p);
        for m in 0..4 {
            target.add(ServiceId(0), MachineId(m), 2);
        }
        let plan =
            plan_migration(&p, &from, &target, &MigrateConfig::default()).expect("plan exists");
        // verify the alive floor holds through replay
        assert!(crate::verify::replay_plan(&p, &from, &target, &plan, 0.75).is_ok());
    }
}
