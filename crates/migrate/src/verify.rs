//! Replay a migration plan step by step, checking the relaxed-SLA and
//! resource invariants the paper requires during reallocation.

use crate::planner::MigrationPlan;
use rasa_model::{ContainerAssignment, Placement, Problem, ResourceVec};

/// A violated invariant found during replay.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayError {
    /// A delete targeted a container that is not on the stated machine.
    BadDelete(String),
    /// A create targeted an occupied replica slot or mismatched machine.
    BadCreate(String),
    /// A service dropped below the alive floor after some phase.
    SlaViolated {
        /// Step index.
        step: usize,
        /// Human-readable description.
        detail: String,
    },
    /// A machine exceeded capacity after a create phase.
    ResourceViolated {
        /// Step index.
        step: usize,
        /// Human-readable description.
        detail: String,
    },
    /// The final state does not match the target mapping.
    WrongFinalState,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::BadDelete(d) => write!(f, "bad delete: {d}"),
            ReplayError::BadCreate(d) => write!(f, "bad create: {d}"),
            ReplayError::SlaViolated { step, detail } => {
                write!(f, "SLA violated at step {step}: {detail}")
            }
            ReplayError::ResourceViolated { step, detail } => {
                write!(f, "resources violated at step {step}: {detail}")
            }
            ReplayError::WrongFinalState => write!(f, "plan does not reach the target mapping"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Execute `plan` from `from`, verifying after every delete phase and every
/// create phase that (a) each service keeps at least
/// `⌊min_alive_fraction · d_s⌋` containers alive and (b) no machine exceeds
/// capacity. Finally checks the end state equals `target`.
pub fn replay_plan(
    problem: &Problem,
    from: &ContainerAssignment,
    target: &Placement,
    plan: &MigrationPlan,
    min_alive_fraction: f64,
) -> Result<(), ReplayError> {
    let mut state = from.clone();
    let min_alive: Vec<u32> = problem
        .services
        .iter()
        .map(|s| (min_alive_fraction * f64::from(s.replicas)).floor() as u32)
        .collect();

    let check_sla = |state: &ContainerAssignment, step: usize| -> Result<(), ReplayError> {
        for svc in &problem.services {
            let alive = state.alive_count(svc.id);
            if alive < min_alive[svc.id.idx()] {
                return Err(ReplayError::SlaViolated {
                    step,
                    detail: format!(
                        "{} alive {alive} < floor {}",
                        svc.id,
                        min_alive[svc.id.idx()]
                    ),
                });
            }
        }
        Ok(())
    };
    let check_resources = |state: &ContainerAssignment, step: usize| -> Result<(), ReplayError> {
        let usage = state.to_placement().machine_usage(problem);
        for (mi, used) in usage.iter().enumerate() {
            let cap: &ResourceVec = &problem.machines[mi].capacity;
            if !used.fits_within(cap, 1e-6) {
                return Err(ReplayError::ResourceViolated {
                    step,
                    detail: format!("machine m{mi}: used {used:?} > cap {cap:?}"),
                });
            }
        }
        Ok(())
    };

    check_resources(&state, 0)?;
    for (i, step) in plan.steps.iter().enumerate() {
        for &(c, m) in &step.deletes {
            if state.machine_of(c) != Some(m) {
                return Err(ReplayError::BadDelete(format!(
                    "container {c} is not on {m}"
                )));
            }
            state.unassign(c);
        }
        check_sla(&state, i)?;
        check_resources(&state, i)?;
        for &(c, m) in &step.creates {
            if state.machine_of(c).is_some() {
                return Err(ReplayError::BadCreate(format!(
                    "container {c} is already running"
                )));
            }
            state.assign(c, m);
        }
        check_sla(&state, i)?;
        check_resources(&state, i)?;
    }
    if &state.to_placement() != target {
        return Err(ReplayError::WrongFinalState);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_migration, MigrateConfig, MigrationStep};
    use rasa_model::{ContainerId, FeatureMask, MachineId, ProblemBuilder, ServiceId};

    fn setup() -> (Problem, ContainerAssignment, Placement) {
        let mut b = ProblemBuilder::new();
        b.add_service("svc", 4, rasa_model::ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(
            2,
            rasa_model::ResourceVec::cpu_mem(8.0, 8.0),
            FeatureMask::EMPTY,
        );
        let p = b.build().expect("problem builds");
        let mut start = Placement::empty_for(&p);
        start.add(ServiceId(0), MachineId(0), 4);
        let from = ContainerAssignment::materialize(&p, &start);
        let mut target = Placement::empty_for(&p);
        target.add(ServiceId(0), MachineId(0), 2);
        target.add(ServiceId(0), MachineId(1), 2);
        (p, from, target)
    }

    #[test]
    fn planner_output_replays_cleanly() {
        let (p, from, target) = setup();
        let plan =
            plan_migration(&p, &from, &target, &MigrateConfig::default()).expect("plan exists");
        assert_eq!(replay_plan(&p, &from, &target, &plan, 0.75), Ok(()));
    }

    #[test]
    fn detects_wrong_final_state() {
        let (p, from, target) = setup();
        let plan = MigrationPlan::default(); // does nothing
        assert_eq!(
            replay_plan(&p, &from, &target, &plan, 0.75),
            Err(ReplayError::WrongFinalState)
        );
    }

    #[test]
    fn detects_sla_violation() {
        let (p, from, target) = setup();
        // delete 3 of 4 containers at once → alive 1 < floor 3
        let plan = MigrationPlan {
            steps: vec![MigrationStep {
                deletes: (0..3)
                    .map(|r| (ContainerId::new(ServiceId(0), r), MachineId(0)))
                    .collect(),
                creates: vec![],
            }],
        };
        assert!(matches!(
            replay_plan(&p, &from, &target, &plan, 0.75),
            Err(ReplayError::SlaViolated { .. })
        ));
    }

    #[test]
    fn detects_bad_delete() {
        let (p, from, target) = setup();
        let plan = MigrationPlan {
            steps: vec![MigrationStep {
                deletes: vec![(ContainerId::new(ServiceId(0), 0), MachineId(1))], // wrong machine
                creates: vec![],
            }],
        };
        assert!(matches!(
            replay_plan(&p, &from, &target, &plan, 0.75),
            Err(ReplayError::BadDelete(_))
        ));
    }

    #[test]
    fn detects_resource_violation() {
        // moving a container onto a full machine without freeing
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 2, rasa_model::ResourceVec::cpu_mem(4.0, 1.0));
        b.add_machine(
            rasa_model::ResourceVec::cpu_mem(8.0, 64.0),
            FeatureMask::EMPTY,
        );
        b.add_machine(
            rasa_model::ResourceVec::cpu_mem(4.0, 64.0),
            FeatureMask::EMPTY,
        );
        let p = b.build().expect("problem builds");
        let mut start = Placement::empty_for(&p);
        start.add(s0, MachineId(0), 1);
        start.add(s0, MachineId(1), 1);
        let from = ContainerAssignment::materialize(&p, &start);
        let mut target = Placement::empty_for(&p);
        target.add(s0, MachineId(0), 2);
        // hand-written bad plan: create on m0 before deleting from m1?
        // m0 has capacity for 2 (8 cpu) so use m1 overload instead:
        let plan = MigrationPlan {
            steps: vec![MigrationStep {
                deletes: vec![(ContainerId::new(s0, 0), MachineId(0))],
                creates: vec![(ContainerId::new(s0, 0), MachineId(1))],
            }],
        };
        let mut bad_target = Placement::empty_for(&p);
        bad_target.add(s0, MachineId(1), 2);
        assert!(matches!(
            replay_plan(&p, &from, &bad_target, &plan, 0.5),
            Err(ReplayError::ResourceViolated { .. })
        ));
        let _ = target;
    }

    #[test]
    fn detects_create_of_running_container() {
        let (p, from, target) = setup();
        let plan = MigrationPlan {
            steps: vec![MigrationStep {
                deletes: vec![],
                creates: vec![(ContainerId::new(ServiceId(0), 0), MachineId(1))],
            }],
        };
        assert!(matches!(
            replay_plan(&p, &from, &target, &plan, 0.75),
            Err(ReplayError::BadCreate(_))
        ));
    }
}
