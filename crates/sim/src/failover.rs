//! Failure injection for migration execution: a machine dies mid-path, its
//! containers are lost, and the controller must replan from the degraded
//! state (DESIGN.md §7 extension; the paper's rollback machinery, III-B,
//! handles the milder version of this).

use rasa_migrate::{plan_migration, MigrateConfig, MigrateError, MigrationPlan};
use rasa_model::{ContainerAssignment, ContainerId, MachineId, Placement, Problem};
use rasa_solver::complete_placement;

/// Outcome of executing a plan under failure injection.
#[derive(Clone, Debug)]
pub struct FailoverReport {
    /// Steps executed from the original plan before (or without) a failure.
    pub executed_steps: usize,
    /// Containers lost when the machine died (0 without a failure).
    pub lost_containers: usize,
    /// Steps in the recovery plan (0 without a failure).
    pub recovery_steps: usize,
    /// Containers moved by the recovery plan.
    pub recovery_moves: usize,
}

/// Execute `plan` step by step over `state`. If `fail` is set, the given
/// machine dies right after that step index: every container on it is lost
/// and the machine becomes unschedulable. The executor then rebuilds a
/// degraded problem (failed machine capacity zeroed), re-places the lost
/// containers, and computes a recovery migration plan toward the repaired
/// target. Returns the report; `state` ends at the final (recovered)
/// assignment.
///
/// Single-failure convenience wrapper around [`execute_with_failures`].
pub fn execute_with_failure(
    problem: &Problem,
    state: &mut ContainerAssignment,
    plan: &MigrationPlan,
    target: &Placement,
    fail: Option<(usize, MachineId)>,
    migrate: &MigrateConfig,
) -> Result<FailoverReport, MigrateError> {
    match fail {
        Some((step, machine)) => execute_with_failures(
            problem,
            state,
            plan,
            target,
            Some((step, &[machine])),
            migrate,
        ),
        None => execute_with_failures(problem, state, plan, target, None, migrate),
    }
}

/// Generalization of [`execute_with_failure`] to a *correlated* failure
/// burst: all machines in `fail.1` die together right after step `fail.0`
/// (think a rack or power-domain loss). Every container on any dead
/// machine is lost and the machines become unschedulable; recovery
/// re-places the lost containers on the surviving capacity and migrates to
/// the repaired target.
pub fn execute_with_failures(
    problem: &Problem,
    state: &mut ContainerAssignment,
    plan: &MigrationPlan,
    target: &Placement,
    fail: Option<(usize, &[MachineId])>,
    migrate: &MigrateConfig,
) -> Result<FailoverReport, MigrateError> {
    let mut executed_steps = 0usize;
    for (i, step) in plan.steps.iter().enumerate() {
        for &(c, _m) in &step.deletes {
            state.unassign(c);
        }
        for &(c, m) in &step.creates {
            state.assign(c, m);
        }
        executed_steps += 1;
        if let Some((fail_step, dead)) = fail {
            if i == fail_step {
                return recover(problem, state, dead, migrate, executed_steps);
            }
        }
    }
    // no failure: verify we reached the target
    if &state.to_placement() != target {
        // plan/target mismatch is a caller bug; surface as Stuck
        return Err(MigrateError::Stuck { remaining: 0 });
    }
    Ok(FailoverReport {
        executed_steps,
        lost_containers: 0,
        recovery_steps: 0,
        recovery_moves: 0,
    })
}

fn recover(
    problem: &Problem,
    state: &mut ContainerAssignment,
    dead: &[MachineId],
    migrate: &MigrateConfig,
    executed_steps: usize,
) -> Result<FailoverReport, MigrateError> {
    // 1. the machines die together: lose their containers
    let lost: Vec<_> = state
        .iter_assigned()
        .filter(|&(_, m)| dead.contains(&m))
        .map(|(c, _)| c)
        .collect();
    for &c in &lost {
        state.unassign(c);
    }

    // 2. degraded problem: no dead machine has capacity
    let mut degraded = problem.clone();
    for &d in dead {
        degraded.machines[d.idx()].capacity = rasa_model::ResourceVec::ZERO;
    }

    // 3. repaired target: current placement + lost containers re-placed by
    // the default scheduler on the degraded cluster
    let current = state.to_placement();
    let mut repaired = current.clone();
    complete_placement(&degraded, &mut repaired);

    // 4. the lost containers are already offline, so they can be recreated
    // immediately into the repaired target's new slots — no SLA risk, no
    // resource wait
    let recreated = recreate_lost(state, &current, &repaired, &lost);

    // 5. any residual difference (none in the common case) goes through the
    // normal migration planner
    let after = state.to_placement();
    let recovery = if after == repaired {
        MigrationPlan::default()
    } else {
        plan_migration(&degraded, state, &repaired, migrate)?
    };
    for step in &recovery.steps {
        for &(c, _m) in &step.deletes {
            state.unassign(c);
        }
        for &(c, m) in &step.creates {
            state.assign(c, m);
        }
    }
    Ok(FailoverReport {
        executed_steps,
        lost_containers: lost.len(),
        recovery_steps: recovery.steps.len(),
        recovery_moves: recovery.total_moves() + recreated,
    })
}

/// Recreate already-offline `lost` containers directly into the slots that
/// `repaired` added relative to `current`. Completion capacity-checked those
/// slots against the current usage, and offline containers carry no SLA
/// wait, so the assignments are immediate. Returns how many were recreated
/// (fewer than `lost.len()` when surviving capacity cannot hold them all).
pub(crate) fn recreate_lost(
    state: &mut ContainerAssignment,
    current: &Placement,
    repaired: &Placement,
    lost: &[ContainerId],
) -> usize {
    let mut recreated = 0usize;
    let mut lost_by_service: std::collections::HashMap<rasa_model::ServiceId, Vec<_>> =
        Default::default();
    for &c in lost {
        lost_by_service.entry(c.service).or_default().push(c);
    }
    for (s, replicas) in lost_by_service {
        let mut deficit: Vec<(MachineId, u32)> = repaired
            .machines_of(s)
            .map(|(m, tc)| (m, tc.saturating_sub(current.count(s, m))))
            .filter(|&(_, d)| d > 0)
            .collect();
        let mut di = 0usize;
        for c in replicas {
            while di < deficit.len() && deficit[di].1 == 0 {
                di += 1;
            }
            let Some(&mut (m, ref mut left)) = deficit.get_mut(di) else {
                break;
            };
            state.assign(c, m);
            *left -= 1;
            recreated += 1;
        }
    }
    recreated
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{validate, FeatureMask, ProblemBuilder, ResourceVec, ServiceId};

    fn setup() -> (Problem, ContainerAssignment, Placement, MigrationPlan) {
        let mut b = ProblemBuilder::new();
        b.add_service("svc", 6, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(3, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        let p = b.build().expect("setup problem builds");
        let mut start = Placement::empty_for(&p);
        start.add(ServiceId(0), MachineId(0), 6);
        let from = ContainerAssignment::materialize(&p, &start);
        let mut target = Placement::empty_for(&p);
        target.add(ServiceId(0), MachineId(0), 2);
        target.add(ServiceId(0), MachineId(1), 2);
        target.add(ServiceId(0), MachineId(2), 2);
        let plan = plan_migration(&p, &from, &target, &MigrateConfig::default())
            .expect("setup migration plans");
        (p, from, target, plan)
    }

    #[test]
    fn clean_execution_reaches_target() {
        let (p, from, target, plan) = setup();
        let mut state = from.clone();
        let report = execute_with_failure(
            &p,
            &mut state,
            &plan,
            &target,
            None,
            &MigrateConfig::default(),
        )
        .expect("clean execution succeeds");
        assert_eq!(report.lost_containers, 0);
        assert_eq!(state.to_placement(), target);
    }

    #[test]
    fn machine_failure_triggers_recovery() {
        let (p, from, target, plan) = setup();
        let mut state = from.clone();
        // kill machine 1 midway
        let fail_step = plan.steps.len() / 2;
        let report = execute_with_failure(
            &p,
            &mut state,
            &plan,
            &target,
            Some((fail_step, MachineId(1))),
            &MigrateConfig::default(),
        )
        .expect("recovery from a single machine failure succeeds");
        // SLA restored: all 6 containers alive, none on the dead machine
        let final_placement = state.to_placement();
        assert_eq!(final_placement.placed_count(ServiceId(0)), 6);
        assert_eq!(final_placement.count(ServiceId(0), MachineId(1)), 0);
        // the degraded cluster (m1 dead) must still satisfy constraints
        let mut degraded = p.clone();
        degraded.machines[1].capacity = ResourceVec::ZERO;
        assert!(validate(&degraded, &final_placement, true).is_empty());
        assert_eq!(report.executed_steps, fail_step + 1);
    }

    #[test]
    fn correlated_two_machine_failure_recovers_to_feasible_state() {
        // 4 machines so two can die and capacity still covers the SLA
        let mut b = ProblemBuilder::new();
        b.add_service("svc", 6, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(4, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        let p = b.build().expect("four-machine problem builds");
        let mut start = Placement::empty_for(&p);
        start.add(ServiceId(0), MachineId(0), 6);
        let from = ContainerAssignment::materialize(&p, &start);
        let mut target = Placement::empty_for(&p);
        for m in 0..3 {
            target.add(ServiceId(0), MachineId(m), 2);
        }
        let plan =
            plan_migration(&p, &from, &target, &MigrateConfig::default()).expect("migration plans");
        let mut state = from.clone();
        let dead = [MachineId(1), MachineId(2)];
        let report = execute_with_failures(
            &p,
            &mut state,
            &plan,
            &target,
            Some((plan.steps.len() / 2, &dead)),
            &MigrateConfig::default(),
        )
        .expect("recovery from correlated failures succeeds");
        let final_placement = state.to_placement();
        assert_eq!(final_placement.placed_count(ServiceId(0)), 6);
        for d in dead {
            assert_eq!(final_placement.count(ServiceId(0), d), 0);
        }
        let mut degraded = p.clone();
        for d in dead {
            degraded.machines[d.idx()].capacity = ResourceVec::ZERO;
        }
        assert!(validate(&degraded, &final_placement, true).is_empty());
        assert!(report.lost_containers <= 6);
    }

    #[test]
    fn failure_on_an_empty_machine_is_benign() {
        let (p, from, target, plan) = setup();
        let mut state = from.clone();
        // machine 2 may be empty early in the plan; kill it at step 0
        let report = execute_with_failure(
            &p,
            &mut state,
            &plan,
            &target,
            Some((0, MachineId(2))),
            &MigrateConfig::default(),
        )
        .expect("failure on an empty machine is benign");
        let final_placement = state.to_placement();
        assert_eq!(final_placement.placed_count(ServiceId(0)), 6);
        assert_eq!(final_placement.count(ServiceId(0), MachineId(2)), 0);
        // lost containers only if m2 already hosted some at step 0
        assert!(report.lost_containers <= 1);
    }
}
