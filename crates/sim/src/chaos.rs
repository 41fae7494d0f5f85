//! Chaos-injection harness: seeded deterministic fault schedules executed
//! against a live scheduler + migration loop. It is the crate's one
//! machine-death executor: a single failure mid-migration is a two-event
//! schedule (`examples/failover_drill.rs`).
//!
//! Three fault families (DESIGN.md "Fault tolerance & degraded modes"):
//!
//! * **Correlated machine deaths** — a burst of machines (think a rack or a
//!   power domain) dies together mid-migration; their containers are lost and
//!   their capacity drops to zero.
//! * **Mid-solve death** — machines die *between* the optimizer solving and
//!   the result being executed, so the controller holds a stale target that
//!   still references dead capacity and must repair it before migrating.
//! * **Deadline starvation** — the optimizer is invoked with an already
//!   expired deadline and whatever partial answer it returns must still be
//!   safe to act on.
//!
//! An [`InvariantChecker`] runs `validate()` after **every** migration step:
//! the placement must never overflow the degraded cluster's capacity, and a
//! service pushed below its SLA floor by a failure must recover
//! monotonically (its alive count may only rise until the floor is
//! restored). Violations are collected, not panicked on, so a chaos run
//! always produces a full report.
//!
//! Every round also runs under a `chaos.round` flight-recorder scope marked
//! degraded (each round *is* an injected fault), so a recorder configured
//! with a dump directory black-boxes every fault round: the span tree down
//! through the nested optimizer solve plus the typed event log. The `chaos`
//! binary enables this by default.

use crate::cronjob::reconcile_counts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rasa_lp::Deadline;
use rasa_migrate::{plan_migration, MigrateConfig};
use rasa_model::{
    validate, ContainerAssignment, ContainerId, MachineId, Placement, Problem, ResourceVec,
};
use rasa_solver::{complete_placement, Scheduler};
use std::collections::BTreeSet;
use std::time::Duration;

/// Wall-clock budget for every non-starved solve the harnesses issue
/// (bootstrap, mid-solve targets, post-failure re-optimization here; every
/// pipeline solve of a [`crate::corruption`] round). The harnesses enforce
/// the same deadline discipline they test: an unbounded solve would let one
/// pathological branch-and-bound instance stall the whole drill, and
/// `complete_placement` repairs whatever partial the budget leaves behind.
pub(crate) const SOLVE_BUDGET: Duration = Duration::from_secs(2);

/// One fault in a chaos schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosEvent {
    /// `machines` die together right after migration step `after_step` of
    /// the round's plan (clamped to the plan length).
    CorrelatedFailure {
        /// Plan step index after which the burst lands.
        after_step: usize,
        /// The machines that die together.
        machines: Vec<MachineId>,
    },
    /// `machines` die between the optimizer producing a target and the
    /// controller executing it: the target is stale and references dead
    /// capacity.
    MidSolveFailure {
        /// The machines that die mid-solve.
        machines: Vec<MachineId>,
    },
    /// The optimizer runs with an already-expired deadline; its (possibly
    /// empty) partial answer must still be safe to act on.
    DeadlineStarvation,
}

impl ChaosEvent {
    /// Human-readable one-liner for reports.
    pub fn describe(&self) -> String {
        match self {
            ChaosEvent::CorrelatedFailure {
                after_step,
                machines,
            } => format!("correlated failure of {machines:?} after step {after_step}"),
            ChaosEvent::MidSolveFailure { machines } => {
                format!("mid-solve failure of {machines:?}")
            }
            ChaosEvent::DeadlineStarvation => "deadline starvation".to_string(),
        }
    }
}

/// A seeded, deterministic sequence of faults. Same problem + same seed →
/// byte-identical schedule, so every chaos run is reproducible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosSchedule {
    /// Seed the schedule was generated from.
    pub seed: u64,
    /// The faults, executed in order.
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// Generate a schedule killing at most `max_failures` machines (capped
    /// at `N-1` so the cluster never loses all capacity), in correlated
    /// bursts of one or two, interleaved with deadline-starvation rounds.
    /// No machine dies twice.
    pub fn generate(problem: &Problem, seed: u64, max_failures: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = vec![ChaosEvent::DeadlineStarvation];
        let mut alive: Vec<MachineId> = problem.machines.iter().map(|m| m.id).collect();
        let mut budget = max_failures.min(problem.num_machines().saturating_sub(1));
        while budget > 0 {
            let burst = if budget >= 2 && rng.gen_bool(0.5) {
                2
            } else {
                1
            };
            let mut machines = Vec::with_capacity(burst);
            for _ in 0..burst {
                let i = rng.gen_range(0..alive.len());
                machines.push(alive.swap_remove(i));
            }
            budget -= machines.len();
            if rng.gen_bool(0.4) {
                events.push(ChaosEvent::MidSolveFailure { machines });
            } else {
                events.push(ChaosEvent::CorrelatedFailure {
                    after_step: rng.gen_range(0..4usize),
                    machines,
                });
            }
            if rng.gen_bool(0.25) {
                events.push(ChaosEvent::DeadlineStarvation);
            }
        }
        ChaosSchedule { seed, events }
    }
}

/// Per-step safety monitor. `check` is called after every migration step of
/// every round; it records (never panics on) two invariant classes:
///
/// 1. `validate(degraded, placement, false)` must be empty — no capacity
///    overflow, no anti-affinity or schedulability violation on the
///    *degraded* cluster;
/// 2. monotone SLA recovery — once a failure pushes a service below its
///    `min_alive_fraction` floor, its alive count must never decrease again
///    until the floor is restored.
#[derive(Clone, Debug)]
pub struct InvariantChecker {
    floors: Vec<u32>,
    /// Highest alive count seen per service while it sits below its floor
    /// (`None` when at/above the floor or right after a failure burst).
    watermarks: Vec<Option<u32>>,
    /// Invariant violations observed so far (empty on a clean run).
    pub violations: Vec<String>,
}

impl InvariantChecker {
    /// Checker for `problem` with the SLA floor `⌊fraction · replicas⌋`
    /// (same formula the migration planner enforces).
    pub fn new(problem: &Problem, min_alive_fraction: f64) -> Self {
        let floors: Vec<u32> = problem
            .services
            .iter()
            .map(|s| (min_alive_fraction * f64::from(s.replicas)).floor() as u32)
            .collect();
        let watermarks = vec![None; floors.len()];
        InvariantChecker {
            floors,
            watermarks,
            violations: Vec::new(),
        }
    }

    /// A failure burst legitimately drops alive counts below the floor;
    /// reset the recovery watermarks so the drop itself is not flagged.
    pub fn on_failure(&mut self) {
        self.watermarks.iter_mut().for_each(|w| *w = None);
    }

    /// Validate `placement` against the degraded cluster and update the
    /// monotone-recovery watermarks. `phase` labels any violation recorded.
    pub fn check(&mut self, degraded: &Problem, placement: &Placement, phase: &str) {
        for v in validate(degraded, placement, false) {
            self.violations.push(format!("{phase}: {v:?}"));
        }
        for (i, svc) in degraded.services.iter().enumerate() {
            let alive = placement.placed_count(svc.id);
            if alive >= self.floors[i] {
                self.watermarks[i] = None;
                continue;
            }
            if let Some(w) = self.watermarks[i] {
                if alive < w {
                    self.violations.push(format!(
                        "{phase}: service {:?} alive count regressed {w} -> {alive} \
                         while below SLA floor {}",
                        svc.id, self.floors[i]
                    ));
                }
            }
            self.watermarks[i] = Some(self.watermarks[i].map_or(alive, |w| w.max(alive)));
        }
    }
}

/// What one chaos round did to the cluster.
#[derive(Clone, Debug)]
pub struct ChaosRound {
    /// Description of the injected event.
    pub event: String,
    /// Containers lost to dying machines this round.
    pub lost_containers: usize,
    /// Lost containers recreated immediately on surviving capacity.
    pub recreated: usize,
    /// Containers moved by migration plans this round.
    pub moves: usize,
    /// Planner error, if the round's migration could not be planned (the
    /// state simply stays at the last feasible point).
    pub error: Option<String>,
    /// Total alive fraction (placed / total replicas) after the round.
    pub alive_fraction: f64,
}

/// Full result of a chaos run.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// One entry per schedule event, in order.
    pub rounds: Vec<ChaosRound>,
    /// Machines dead at the end of the run.
    pub dead_machines: Vec<MachineId>,
    /// All invariant violations observed (empty on a clean run).
    pub violations: Vec<String>,
    /// The final container placement.
    pub final_placement: Placement,
    /// True when greedy completion cannot place a single further container
    /// on the surviving capacity — i.e. every service is as recovered as the
    /// degraded cluster permits.
    pub fully_recovered: bool,
}

impl ChaosReport {
    /// True when no invariant was violated at any step.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Execute `schedule` against `problem`: bootstrap a placement with
/// `scheduler`, then run every fault round, re-optimizing and migrating via
/// `rasa-migrate` under `migrate`'s SLA floor, with the invariant checker
/// auditing every step. Never panics on planner failures — they are recorded
/// in the round report and the state stays at the last feasible point.
pub fn run_chaos(
    problem: &Problem,
    scheduler: &dyn Scheduler,
    schedule: &ChaosSchedule,
    migrate: &MigrateConfig,
) -> ChaosReport {
    // bootstrap on the healthy cluster
    let mut bootstrap = scheduler
        .schedule(problem, Deadline::after(SOLVE_BUDGET))
        .placement;
    complete_placement(problem, &mut bootstrap);
    let mut state = ContainerAssignment::materialize(problem, &bootstrap);
    let mut dead: BTreeSet<MachineId> = BTreeSet::new();
    let mut checker = InvariantChecker::new(problem, migrate.min_alive_fraction);
    checker.check(problem, &state.to_placement(), "bootstrap");

    let mut rounds = Vec::with_capacity(schedule.events.len());
    for (round, event) in schedule.events.iter().enumerate() {
        let phase = format!("round {round} ({})", event.describe());
        let mut fscope = rasa_obs::flight::begin_solve(
            "chaos.round",
            &[
                ("round", round.to_string()),
                ("event", event.describe()),
                ("seed", schedule.seed.to_string()),
            ],
        );
        // the cluster as the round's optimizer sees it
        let pre = degraded_problem(problem, &dead);
        let mut lost_containers = 0;
        let mut recreated = 0;
        let (moves, error) = match event {
            ChaosEvent::DeadlineStarvation => {
                // the optimizer gets no budget; whatever partial answer it
                // returns is completed/reconciled into a safe target
                let target = solve_target(scheduler, &pre, &state, Duration::ZERO);
                migrate_to(
                    &pre,
                    &mut state,
                    &target,
                    usize::MAX,
                    migrate,
                    &mut checker,
                    &phase,
                )
            }
            ChaosEvent::MidSolveFailure { machines } => {
                // the optimizer solves against the cluster as it was...
                let mut target = scheduler
                    .schedule(&pre, Deadline::after(SOLVE_BUDGET))
                    .placement;
                // ...then the burst lands before the result is executed
                lost_containers = kill_machines(&mut state, &mut dead, machines, &mut checker);
                let degraded = degraded_problem(problem, &dead);
                // phase A — restore the SLA before acting on anything
                recreated = recreate_offline(problem, &degraded, &mut state, &mut checker, &phase);
                // phase B — the stale target is stripped of dead machines,
                // repaired, and only then acted on
                for &m in &dead {
                    for svc in &problem.services {
                        target.remove(svc.id, m, target.count(svc.id, m));
                    }
                }
                complete_placement(&degraded, &mut target);
                reconcile_counts(&degraded, &state.to_placement(), &mut target);
                migrate_to(
                    &degraded,
                    &mut state,
                    &target,
                    usize::MAX,
                    migrate,
                    &mut checker,
                    &phase,
                )
            }
            ChaosEvent::CorrelatedFailure {
                after_step,
                machines,
            } => {
                // a normal re-optimization round is in flight...
                let target = solve_target(scheduler, &pre, &state, SOLVE_BUDGET);
                let r = migrate_to(
                    &pre,
                    &mut state,
                    &target,
                    after_step.saturating_add(1),
                    migrate,
                    &mut checker,
                    &phase,
                );
                // ...when the burst lands mid-plan; the recovery below
                // re-places the burst-lost replicas and any an executed step
                // deleted before its create step ran
                lost_containers = kill_machines(&mut state, &mut dead, machines, &mut checker);
                r
            }
        };
        // recovery and top-up: the round's failure or migrations may have
        // left replicas offline, or opened room for ones that could not be
        // recreated earlier, so retry the offline pool before closing
        let degraded = degraded_problem(problem, &dead);
        recreated += recreate_offline(problem, &degraded, &mut state, &mut checker, &phase);
        // every chaos round is an injected fault: mark the recording
        // degraded so a dump-configured recorder black-boxes it
        fscope.set_verdict(
            match event {
                ChaosEvent::CorrelatedFailure { .. } => "correlated_failure",
                ChaosEvent::MidSolveFailure { .. } => "mid_solve_failure",
                ChaosEvent::DeadlineStarvation => "deadline_starvation",
            },
            true,
        );
        drop(fscope);
        rounds.push(ChaosRound {
            event: event.describe(),
            lost_containers,
            recreated,
            moves,
            error,
            alive_fraction: alive_fraction(problem, &state.to_placement()),
        });
    }

    let final_placement = state.to_placement();
    let degraded = degraded_problem(problem, &dead);
    let mut probe = final_placement.clone();
    let fully_recovered = complete_placement(&degraded, &mut probe) == 0;
    ChaosReport {
        rounds,
        dead_machines: dead.into_iter().collect(),
        violations: checker.violations,
        final_placement,
        fully_recovered,
    }
}

/// Clone of `problem` with every dead machine's capacity zeroed.
fn degraded_problem(problem: &Problem, dead: &BTreeSet<MachineId>) -> Problem {
    let mut degraded = problem.clone();
    for &d in dead {
        degraded.machines[d.idx()].capacity = ResourceVec::ZERO;
    }
    degraded
}

/// Solve `degraded` within `budget`, complete the answer, and match its
/// per-service counts to the running `state` so the planner accepts it.
fn solve_target(
    scheduler: &dyn Scheduler,
    degraded: &Problem,
    state: &ContainerAssignment,
    budget: Duration,
) -> Placement {
    let mut target = scheduler
        .schedule(degraded, Deadline::after(budget))
        .placement;
    complete_placement(degraded, &mut target);
    reconcile_counts(degraded, &state.to_placement(), &mut target);
    target
}

/// Mark `machines` dead and lose every container assigned to them. Returns
/// how many were lost.
fn kill_machines(
    state: &mut ContainerAssignment,
    dead: &mut BTreeSet<MachineId>,
    machines: &[MachineId],
    checker: &mut InvariantChecker,
) -> usize {
    dead.extend(machines.iter().copied());
    let lost: Vec<ContainerId> = state
        .iter_assigned()
        .filter(|&(_, m)| machines.contains(&m))
        .map(|(c, _)| c)
        .collect();
    for &c in &lost {
        state.unassign(c);
    }
    checker.on_failure();
    lost.len()
}

/// Recreate every offline replica — burst-lost or deleted by a partly
/// executed plan — that the degraded cluster has room for, straight into
/// the slots greedy completion finds for it, then audit. Completion
/// capacity-checked those slots against the current usage, and an offline
/// replica carries no SLA wait, so no migration plan is needed. Returns how
/// many were recreated (fewer than are offline when surviving capacity
/// cannot hold them all).
fn recreate_offline(
    problem: &Problem,
    degraded: &Problem,
    state: &mut ContainerAssignment,
    checker: &mut InvariantChecker,
    phase: &str,
) -> usize {
    let current = state.to_placement();
    let mut repaired = current.clone();
    complete_placement(degraded, &mut repaired);
    let mut recreated = 0usize;
    for svc in &problem.services {
        let offline: Vec<ContainerId> = (0..svc.replicas)
            .map(|r| ContainerId::new(svc.id, r))
            .filter(|&c| state.machine_of(c).is_none())
            .collect();
        let mut offline = offline.into_iter();
        for (m, want) in repaired.machines_of(svc.id) {
            for c in offline
                .by_ref()
                .take(want.saturating_sub(current.count(svc.id, m)) as usize)
            {
                state.assign(c, m);
                recreated += 1;
            }
        }
    }
    checker.check(degraded, &state.to_placement(), phase);
    recreated
}

/// Plan a migration toward `target` and execute at most `max_steps` of its
/// steps (`usize::MAX`: the whole plan), auditing after every step. Returns `(moves, planner_error)`; on a
/// planner error the state is left untouched (still feasible).
fn migrate_to(
    degraded: &Problem,
    state: &mut ContainerAssignment,
    target: &Placement,
    max_steps: usize,
    migrate: &MigrateConfig,
    checker: &mut InvariantChecker,
    phase: &str,
) -> (usize, Option<String>) {
    if &state.to_placement() == target {
        return (0, None);
    }
    match plan_migration(degraded, state, target, migrate) {
        Ok(plan) => {
            let mut moves = 0usize;
            for step in plan.steps.iter().take(max_steps) {
                for &(c, _m) in &step.deletes {
                    state.unassign(c);
                }
                for &(c, m) in &step.creates {
                    state.assign(c, m);
                    moves += 1;
                }
                checker.check(degraded, &state.to_placement(), phase);
            }
            (moves, None)
        }
        Err(e) => (0, Some(e.to_string())),
    }
}

/// Total alive fraction: placed containers over total replicas.
fn alive_fraction(problem: &Problem, placement: &Placement) -> f64 {
    let total: u64 = problem.services.iter().map(|s| u64::from(s.replicas)).sum();
    if total == 0 {
        1.0
    } else {
        placement.total_placed() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{FeatureMask, ProblemBuilder, ServiceId};
    use rasa_solver::MipBased;

    fn cluster(machines: usize) -> Problem {
        let mut b = ProblemBuilder::new();
        let a = b.add_service("a", 4, ResourceVec::cpu_mem(1.0, 1.0));
        let c = b.add_service("c", 4, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(machines, ResourceVec::cpu_mem(6.0, 6.0), FeatureMask::EMPTY);
        b.add_affinity(a, c, 10.0);
        b.build().expect("well-formed test cluster")
    }

    #[test]
    fn schedule_generation_is_deterministic_and_bounded() {
        let p = cluster(4);
        let s1 = ChaosSchedule::generate(&p, 99, 3);
        let s2 = ChaosSchedule::generate(&p, 99, 3);
        assert_eq!(s1, s2);
        let mut killed: Vec<MachineId> = Vec::new();
        for e in &s1.events {
            match e {
                ChaosEvent::CorrelatedFailure { machines, .. }
                | ChaosEvent::MidSolveFailure { machines } => killed.extend(machines),
                ChaosEvent::DeadlineStarvation => {}
            }
        }
        assert!(killed.len() <= 3, "kills {} machines", killed.len());
        let distinct: BTreeSet<_> = killed.iter().collect();
        assert_eq!(distinct.len(), killed.len(), "a machine died twice");
        // a different seed produces a different schedule (overwhelmingly)
        let s3 = ChaosSchedule::generate(&p, 100, 3);
        assert!(s1 != s3 || s1.events.len() == 1);
    }

    #[test]
    fn correlated_two_machine_burst_recovers_to_feasible_state() {
        // the acceptance drill: ≥2 correlated machine failures, full audit
        let p = cluster(4);
        let schedule = ChaosSchedule {
            seed: 0,
            events: vec![ChaosEvent::CorrelatedFailure {
                after_step: 1,
                machines: vec![MachineId(1), MachineId(2)],
            }],
        };
        let report = run_chaos(&p, &MipBased::new(), &schedule, &MigrateConfig::default());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.dead_machines, vec![MachineId(1), MachineId(2)]);
        // surviving capacity (2 machines × 6) covers all 8 containers
        assert!(report.fully_recovered);
        assert_eq!(report.final_placement.placed_count(ServiceId(0)), 4);
        assert_eq!(report.final_placement.placed_count(ServiceId(1)), 4);
        for d in [MachineId(1), MachineId(2)] {
            assert_eq!(report.final_placement.count(ServiceId(0), d), 0);
            assert_eq!(report.final_placement.count(ServiceId(1), d), 0);
        }
    }

    #[test]
    fn burst_after_a_starved_round_lands_mid_migration_and_recovers() {
        // the starved round spreads the cluster off the MIP placement, so
        // the next round migrates back and the burst cuts that plan short
        let p = cluster(4);
        let schedule = ChaosSchedule {
            seed: 0,
            events: vec![
                ChaosEvent::DeadlineStarvation,
                ChaosEvent::CorrelatedFailure {
                    after_step: 0,
                    machines: vec![MachineId(1)],
                },
            ],
        };
        let report = run_chaos(&p, &MipBased::new(), &schedule, &MigrateConfig::default());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        let burst = &report.rounds[1];
        assert!(burst.moves > 0, "{burst:?}");
        assert!(burst.lost_containers > 0, "{burst:?}");
        assert!(report.fully_recovered);
        for s in [ServiceId(0), ServiceId(1)] {
            assert_eq!(report.final_placement.count(s, MachineId(1)), 0);
            assert_eq!(report.final_placement.placed_count(s), 4);
        }
    }

    #[test]
    fn two_machine_burst_mid_migration_restores_the_full_sla() {
        // two machines die while a plan is moving replicas; the survivors
        // (2 machines × 6) still fit all 8, so the full SLA must hold again
        let p = cluster(4);
        let dead = [MachineId(1), MachineId(2)];
        let schedule = ChaosSchedule {
            seed: 0,
            events: vec![
                ChaosEvent::DeadlineStarvation,
                ChaosEvent::CorrelatedFailure {
                    after_step: 0,
                    machines: dead.to_vec(),
                },
            ],
        };
        let report = run_chaos(&p, &MipBased::new(), &schedule, &MigrateConfig::default());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        let burst = &report.rounds[1];
        assert!(burst.moves > 0, "{burst:?}");
        assert!(burst.lost_containers > 0, "{burst:?}");
        assert!(report.fully_recovered);
        let mut degraded = p.clone();
        for d in dead {
            degraded.machines[d.idx()].capacity = ResourceVec::ZERO;
        }
        assert!(validate(&degraded, &report.final_placement, true).is_empty());
    }

    #[test]
    fn burst_on_a_machine_hosting_nothing_is_benign() {
        // m4 is too small for any replica, so it never hosts one
        let mut b = ProblemBuilder::new();
        let a = b.add_service("a", 4, ResourceVec::cpu_mem(1.0, 1.0));
        let c = b.add_service("c", 4, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(4, ResourceVec::cpu_mem(6.0, 6.0), FeatureMask::EMPTY);
        let tiny = b.add_machine(ResourceVec::cpu_mem(0.5, 0.5), FeatureMask::EMPTY);
        b.add_affinity(a, c, 10.0);
        let p = b.build().expect("well-formed test cluster");
        let schedule = ChaosSchedule {
            seed: 0,
            events: vec![ChaosEvent::CorrelatedFailure {
                after_step: 0,
                machines: vec![tiny],
            }],
        };
        let report = run_chaos(&p, &MipBased::new(), &schedule, &MigrateConfig::default());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.rounds[0].lost_containers, 0);
        assert_eq!(report.rounds[0].recreated, 0);
        assert_eq!(report.final_placement.placed_count(a), 4);
        assert_eq!(report.final_placement.placed_count(c), 4);
    }

    #[test]
    fn mid_solve_failure_strips_stale_target() {
        let p = cluster(4);
        let schedule = ChaosSchedule {
            seed: 0,
            events: vec![ChaosEvent::MidSolveFailure {
                machines: vec![MachineId(0)],
            }],
        };
        let report = run_chaos(&p, &MipBased::new(), &schedule, &MigrateConfig::default());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        for s in [ServiceId(0), ServiceId(1)] {
            assert_eq!(report.final_placement.count(s, MachineId(0)), 0);
        }
        assert!(report.fully_recovered);
    }

    #[test]
    fn starvation_round_keeps_state_feasible() {
        let p = cluster(3);
        let schedule = ChaosSchedule {
            seed: 0,
            events: vec![
                ChaosEvent::DeadlineStarvation,
                ChaosEvent::DeadlineStarvation,
            ],
        };
        let report = run_chaos(&p, &MipBased::new(), &schedule, &MigrateConfig::default());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.dead_machines.is_empty());
        // nothing died, so the full replica set stays alive
        assert!(
            (report
                .rounds
                .last()
                .expect("at least one round")
                .alive_fraction
                - 1.0)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn generated_schedule_with_n_minus_1_failures_stays_clean() {
        let p = cluster(4);
        let schedule = ChaosSchedule::generate(&p, 7, 3);
        let report = run_chaos(&p, &MipBased::new(), &schedule, &MigrateConfig::default());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        // the final placement validates (partial allowed) on the degraded cluster
        let mut degraded = p.clone();
        for &d in &report.dead_machines {
            degraded.machines[d.idx()].capacity = ResourceVec::ZERO;
        }
        assert!(validate(&degraded, &report.final_placement, false).is_empty());
    }
}
