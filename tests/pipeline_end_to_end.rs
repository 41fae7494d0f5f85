//! End-to-end integration tests: the full RASA pipeline on generated
//! clusters, including the optimize-and-migrate flow of Fig 3.

use rasa_core::{
    Deadline, MigrateConfig, PartitionStrategy, RasaConfig, RasaPipeline, Scheduler,
    SelectorChoice, SolveStatus,
};
use rasa_migrate::replay_plan;
use rasa_model::{validate, ContainerAssignment};
use rasa_trace::{generate, tiny_cluster, ClusterSpec};
use std::time::Duration;

fn medium_cluster(seed: u64) -> rasa_model::Problem {
    generate(&ClusterSpec {
        name: "itest".into(),
        services: 56,
        target_containers: 260,
        machines: 16,
        affinity_beta: 1.5,
        affinity_fraction: 0.6,
        edge_density: 3.0,
        machine_types: 3,
        seed,
        ..Default::default()
    })
}

#[test]
fn pipeline_produces_feasible_complete_schedules() {
    let problem = medium_cluster(1);
    let pipeline = RasaPipeline::new(RasaConfig::default());
    let run = pipeline.optimize(&problem, None, Deadline::after(Duration::from_secs(20)));
    // feasible except possibly SLA (capacity may genuinely not allow all)
    assert!(validate(&problem, &run.outcome.placement, false).is_empty());
    // in this sizing, capacity comfortably fits everything
    let violations = validate(&problem, &run.outcome.placement, true);
    assert!(violations.is_empty(), "{violations:?}");
    assert!(run.outcome.normalized_gained_affinity > 0.0);
    assert!(!run.subproblems.is_empty());
}

#[test]
fn pipeline_beats_a_scattered_baseline_substantially() {
    use rasa_baselines::Original;
    let problem = medium_cluster(3);
    let pipeline = RasaPipeline::new(RasaConfig::default());
    let rasa = pipeline.schedule(&problem, Deadline::after(Duration::from_secs(20)));
    let original = Original.schedule(&problem, Deadline::none());
    assert!(
        rasa.normalized_gained_affinity >= original.normalized_gained_affinity,
        "RASA {} vs ORIGINAL {}",
        rasa.normalized_gained_affinity,
        original.normalized_gained_affinity
    );
    // the paper reports >13× over ORIGINAL; on small clusters demand a clear win
    assert!(
        rasa.normalized_gained_affinity >= 2.0 * original.normalized_gained_affinity
            || rasa.normalized_gained_affinity > 0.8,
        "RASA {} vs ORIGINAL {}",
        rasa.normalized_gained_affinity,
        original.normalized_gained_affinity
    );
}

#[test]
fn pipeline_is_deterministic_for_a_seed() {
    let problem = generate(&tiny_cluster(5));
    let pipeline = RasaPipeline::new(RasaConfig {
        parallel: false, // deadline slicing differs under thread jitter
        ..Default::default()
    });
    let a = pipeline.optimize(&problem, None, Deadline::none());
    let b = pipeline.optimize(&problem, None, Deadline::none());
    assert_eq!(a.outcome.placement, b.outcome.placement);
    assert_eq!(a.partition_loss, b.partition_loss);
}

#[test]
fn parallel_and_sequential_agree_without_deadline() {
    let problem = generate(&tiny_cluster(6));
    let par = RasaPipeline::new(RasaConfig {
        parallel: true,
        ..Default::default()
    })
    .optimize(&problem, None, Deadline::none());
    let seq = RasaPipeline::new(RasaConfig {
        parallel: false,
        ..Default::default()
    })
    .optimize(&problem, None, Deadline::none());
    // identical subproblems and deterministic solvers → identical objective
    assert!(
        (par.outcome.gained_affinity - seq.outcome.gained_affinity).abs() < 1e-6,
        "par {} vs seq {}",
        par.outcome.gained_affinity,
        seq.outcome.gained_affinity
    );
}

#[test]
fn optimize_and_plan_round_trips_through_migration() {
    use rasa_baselines::Original;
    let problem = generate(&tiny_cluster(8));
    let start = Original.schedule(&problem, Deadline::none()).placement;
    let current = ContainerAssignment::materialize(&problem, &start);
    let pipeline = RasaPipeline::new(RasaConfig::default());
    let migrate = MigrateConfig::default();
    let (run, plan) = pipeline
        .optimize_and_plan(&problem, &current, Deadline::none(), &migrate)
        .expect("plan");
    replay_plan(&problem, &current, &run.outcome.placement, &plan, 0.75)
        .expect("verified migration");
    assert!(run.outcome.normalized_gained_affinity > 0.3);
}

#[test]
fn all_partition_strategies_run_through_the_pipeline() {
    let problem = generate(&tiny_cluster(9));
    for strategy in [
        PartitionStrategy::NoPartition,
        PartitionStrategy::Random,
        PartitionStrategy::Kahip,
        PartitionStrategy::MultiStage,
    ] {
        let pipeline = RasaPipeline::new(RasaConfig {
            strategy,
            ..Default::default()
        });
        let run = pipeline.optimize(&problem, None, Deadline::after(Duration::from_secs(15)));
        assert!(
            validate(&problem, &run.outcome.placement, false).is_empty(),
            "{strategy:?}"
        );
    }
}

#[test]
fn all_selector_choices_run_through_the_pipeline() {
    let problem = generate(&tiny_cluster(10));
    for selector in [
        SelectorChoice::Heuristic,
        SelectorChoice::AlwaysCg,
        SelectorChoice::AlwaysMip,
    ] {
        let pipeline = RasaPipeline::new(RasaConfig {
            selector,
            ..Default::default()
        });
        let run = pipeline.optimize(&problem, None, Deadline::after(Duration::from_secs(15)));
        assert!(validate(&problem, &run.outcome.placement, false).is_empty());
        assert!(run.outcome.normalized_gained_affinity > 0.0);
    }
}

#[test]
fn column_generation_converges_on_a_degenerate_master() {
    // tiny-3's one subproblem has a master LP whose objective stays flat for
    // ten and more rounds at a time; pricing only to the first improving
    // pattern through such stalls would not converge. tiny-90's one
    // subproblem needs 61 rounds to converge, so any cap on the number of
    // rounds would leave it unfinished.
    for seed in [3, 90] {
        let problem = generate(&tiny_cluster(seed));
        let pipeline = RasaPipeline::new(RasaConfig {
            selector: SelectorChoice::AlwaysCg,
            ..Default::default()
        });
        let run = pipeline.optimize(&problem, None, Deadline::none());
        assert!(!run.subproblems.is_empty());
        for sub in &run.subproblems {
            assert_eq!(sub.status, SolveStatus::Ok, "tiny-{seed}: {sub:?}");
        }
        assert!(validate(&problem, &run.outcome.placement, true).is_empty());
    }
}

#[test]
fn a_stop_without_a_deadline_is_unproved_not_a_deadline_miss() {
    // medium-23's column generation ends on a round that adds no column
    // while some pricing MIPs stopped at their node cap: not a proof, but no
    // deadline fired either. The node cap, not a clock, ends those MIPs, so
    // the stop is deterministic.
    let problem = medium_cluster(23);
    let pipeline = RasaPipeline::new(RasaConfig {
        selector: SelectorChoice::AlwaysCg,
        ..Default::default()
    });
    let run = pipeline.optimize(&problem, None, Deadline::none());
    assert!(run
        .subproblems
        .iter()
        .any(|sub| sub.status == SolveStatus::Unproved));
    for sub in &run.subproblems {
        assert!(
            matches!(sub.status, SolveStatus::Ok | SolveStatus::Unproved),
            "{sub:?}"
        );
        assert!(sub.error.is_none(), "{sub:?}");
    }
    assert!(run.is_degraded());
    assert!(validate(&problem, &run.outcome.placement, false).is_empty());
}

#[test]
fn deadline_is_respected_approximately() {
    let problem = medium_cluster(11);
    let pipeline = RasaPipeline::new(RasaConfig::default());
    let budget = Duration::from_millis(1500);
    let start = std::time::Instant::now();
    let run = pipeline.optimize(&problem, None, Deadline::after(budget));
    let elapsed = start.elapsed();
    // partitioning + per-node LP solves can overshoot a little, but not 10×
    assert!(
        elapsed < budget * 8,
        "took {elapsed:?} against a {budget:?} budget"
    );
    assert!(validate(&problem, &run.outcome.placement, false).is_empty());
}
