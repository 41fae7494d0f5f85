//! Property tests for the migration planner: between any two feasible
//! placements with matching per-service totals, a produced plan always
//! replays cleanly — or the planner honestly reports `Stuck`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rasa_migrate::{plan_migration, replay_plan, MigrateConfig, MigrateError};
use rasa_model::{
    ContainerAssignment, FeatureMask, MachineId, Placement, Problem, ProblemBuilder, ResourceVec,
    ServiceId,
};

/// Build a random problem plus two random feasible complete placements.
fn random_instance(seed: u64) -> Option<(Problem, Placement, Placement)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..6);
    let m = rng.gen_range(2..6);
    let mut b = ProblemBuilder::new();
    for i in 0..n {
        b.add_service(
            format!("s{i}"),
            rng.gen_range(1..5),
            ResourceVec::cpu_mem(1.0, 1.0),
        );
    }
    b.add_machines(m, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
    let problem = b.build().unwrap();

    let random_placement = |rng: &mut StdRng| -> Option<Placement> {
        let mut p = Placement::empty_for(&problem);
        let mut load = vec![0u32; m];
        for svc in &problem.services {
            for _ in 0..svc.replicas {
                // random feasible machine
                let start = rng.gen_range(0..m);
                let mut placed = false;
                for probe in 0..m {
                    let mi = (start + probe) % m;
                    if load[mi] < 8 {
                        p.add(svc.id, MachineId(mi as u32), 1);
                        load[mi] += 1;
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    return None;
                }
            }
        }
        Some(p)
    };
    let from = random_placement(&mut rng)?;
    let to = random_placement(&mut rng)?;
    Some((problem, from, to))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn plans_replay_or_report_stuck(seed in 0u64..5_000) {
        let Some((problem, from_p, to_p)) = random_instance(seed) else {
            return Ok(());
        };
        let from = ContainerAssignment::materialize(&problem, &from_p);
        match plan_migration(&problem, &from, &to_p, &MigrateConfig::default()) {
            Ok(plan) => {
                replay_plan(&problem, &from, &to_p, &plan, 0.75)
                    .map_err(|e| TestCaseError::fail(format!("seed {seed}: {e}")))?;
                // moves never exceed the total container count
                let total: u32 = problem.services.iter().map(|s| s.replicas).sum();
                prop_assert!(plan.total_moves() as u32 <= total);
            }
            Err(MigrateError::Stuck { .. }) => {
                // legal on adversarial instances
            }
            Err(e) => prop_assert!(false, "seed {seed}: unexpected {e}"),
        }
    }

    #[test]
    fn identity_migration_is_always_empty(seed in 0u64..1_000) {
        let Some((problem, from_p, _)) = random_instance(seed) else {
            return Ok(());
        };
        let from = ContainerAssignment::materialize(&problem, &from_p);
        let plan = plan_migration(&problem, &from, &from_p, &MigrateConfig::default())
            .expect("identity always plannable");
        prop_assert!(plan.is_empty());
    }

    #[test]
    fn stricter_sla_never_moves_more_per_step(seed in 0u64..800) {
        let Some((problem, from_p, to_p)) = random_instance(seed) else {
            return Ok(());
        };
        let from = ContainerAssignment::materialize(&problem, &from_p);
        let relaxed = MigrateConfig { min_alive_fraction: 0.5 };
        let strict = MigrateConfig { min_alive_fraction: 0.9 };
        let (Ok(p_relaxed), Ok(p_strict)) = (
            plan_migration(&problem, &from, &to_p, &relaxed),
            plan_migration(&problem, &from, &to_p, &strict),
        ) else {
            return Ok(());
        };
        // both plans move the same containers…
        prop_assert_eq!(p_relaxed.total_moves(), p_strict.total_moves());
        // …but the stricter SLA needs at least as many sequential steps
        prop_assert!(p_strict.steps.len() >= p_relaxed.steps.len(),
            "strict {} steps < relaxed {}", p_strict.steps.len(), p_relaxed.steps.len());
    }
}

#[test]
fn offline_ratio_ordering_prefers_low_ratio_for_delete() {
    // two services on one machine needing migration: the first delete must
    // come from the one with the lower offline ratio (both start at 0, tie
    // broken by container order) — then alternate as ratios shift.
    let mut b = ProblemBuilder::new();
    let s0 = b.add_service("a", 4, ResourceVec::cpu_mem(1.0, 1.0));
    let s1 = b.add_service("b", 4, ResourceVec::cpu_mem(1.0, 1.0));
    b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
    let p = b.build().unwrap();
    let mut from_p = Placement::empty_for(&p);
    from_p.add(s0, MachineId(0), 4);
    from_p.add(s1, MachineId(0), 4);
    let mut to_p = Placement::empty_for(&p);
    to_p.add(s0, MachineId(1), 4);
    to_p.add(s1, MachineId(1), 4);
    let from = ContainerAssignment::materialize(&p, &from_p);
    let plan = plan_migration(&p, &from, &to_p, &MigrateConfig::default()).unwrap();
    replay_plan(&p, &from, &to_p, &plan, 0.75).unwrap();
    // services must interleave: no step deletes two containers of one
    // service while the other sits at ratio zero
    for step in &plan.steps {
        let mut per_service = std::collections::HashMap::new();
        for (c, _) in &step.deletes {
            *per_service.entry(c.service).or_insert(0) += 1;
        }
        for (&svc, &count) in &per_service {
            assert!(count <= 1, "step deletes {count} containers of {svc}");
        }
    }
    let _ = ServiceId(0);
}
