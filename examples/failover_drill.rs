//! Failover drill: a machine dies while a RASA migration is executing.
//! The drill is a two-event chaos schedule: a deadline-starved round first
//! moves the cluster off RASA's placement, then the next round's migration
//! back toward it is cut short when the machine RASA loads most dies. The
//! harness recreates the lost replicas on the surviving capacity and audits
//! every step against the degraded cluster.
//!
//! Run with: `cargo run -p rasa-core --release --example failover_drill`

use rasa_core::{Deadline, MigrateConfig, RasaConfig, RasaPipeline};
use rasa_model::{validate, Machine, ResourceVec};
use rasa_sim::{run_chaos, ChaosEvent, ChaosSchedule};
use rasa_solver::Scheduler;
use rasa_trace::{generate, tiny_cluster};
use std::time::Duration;

fn main() {
    let problem = generate(&tiny_cluster(9));
    println!(
        "cluster: {} services / {} machines",
        problem.num_services(),
        problem.num_machines()
    );
    let pipeline = RasaPipeline::new(RasaConfig::default());

    // the victim: the machine RASA's own placement loads most
    let rasa = pipeline.schedule(&problem, Deadline::after(Duration::from_secs(2)));
    let usage = rasa.placement.machine_usage(&problem);
    let share = |m: &Machine| usage[m.id.idx()].dominant_share(&m.capacity);
    let victim = problem
        .machines
        .iter()
        .max_by(|a, b| share(a).total_cmp(&share(b)))
        .expect("the cluster has machines")
        .id;

    let schedule = ChaosSchedule {
        seed: 9,
        events: vec![
            ChaosEvent::DeadlineStarvation,
            ChaosEvent::CorrelatedFailure {
                after_step: 2,
                machines: vec![victim],
            },
        ],
    };
    for (i, e) in schedule.events.iter().enumerate() {
        println!("  event {i}: {}", e.describe());
    }
    let report = run_chaos(&problem, &pipeline, &schedule, &MigrateConfig::default());
    for (i, r) in report.rounds.iter().enumerate() {
        println!(
            "  round {i}: lost={} recreated={} moves={} alive={:.3}",
            r.lost_containers, r.recreated, r.moves, r.alive_fraction
        );
    }

    // the burst landed mid-migration: the round had moved containers and
    // the victim still hosted some
    let burst = &report.rounds[1];
    assert!(burst.moves > 0 && burst.lost_containers > 0, "{burst:?}");
    // every step stayed feasible, and recovery went as far as the
    // surviving capacity allows
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(report.fully_recovered);
    let placement = &report.final_placement;
    for svc in &problem.services {
        assert_eq!(placement.count(svc.id, victim), 0);
    }
    let mut degraded = problem.clone();
    degraded.machines[victim.idx()].capacity = ResourceVec::ZERO;
    let violations = validate(&degraded, placement, false);
    assert!(violations.is_empty(), "{violations:?}");
    println!(
        "\nrecovered: {victim} empty, {:.1}% of replicas alive, all constraints hold",
        100.0 * burst.alive_fraction
    );
}
