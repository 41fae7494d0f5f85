//! **§III-B text claims** — each executed reallocation touches under 5% of
//! the cluster's containers, and the half-hourly CronJob dry-runs most of
//! the time (real reallocations happen "only a few times a day").

use rasa_bench::production::run_production;
use rasa_bench::{pct, print_table, report_shape_checks, save_json};
use serde::Serialize;

/// "Only a few times a day": at most one CronJob tick in this many
/// executes a migration (12 of the day's 48).
const TICKS_PER_MIGRATION: usize = 4;
/// The paper's bound on the containers one reallocation moves.
const PAPER_MOVED_FRACTION: f64 = 0.05;
/// Slack on that bound: the generated cluster is far smaller than the
/// paper's, so one moved service is a larger share of it.
const MOVED_FRACTION_SLACK: f64 = 0.05;

#[derive(Serialize)]
struct Summary {
    ticks: usize,
    migrations: usize,
    dry_runs: usize,
    max_moved_fraction: f64,
    mean_moved_fraction: f64,
}

fn main() {
    let (_problem, report, config) = run_production(33);
    let dry_runs = config.ticks - report.migrations;
    let max_frac = report
        .moves_per_migration_fraction
        .iter()
        .cloned()
        .fold(0.0f64, f64::max);
    let mean_frac = if report.moves_per_migration_fraction.is_empty() {
        0.0
    } else {
        report.moves_per_migration_fraction.iter().sum::<f64>()
            / report.moves_per_migration_fraction.len() as f64
    };

    println!("§III-B — churn discipline over one simulated day\n");
    print_table(
        &["metric", "value", "paper claim"],
        &[
            vec![
                "CronJob ticks".into(),
                config.ticks.to_string(),
                "48/day (half-hourly)".into(),
            ],
            vec![
                "executed migrations".into(),
                report.migrations.to_string(),
                "a few times a day".into(),
            ],
            vec!["dry-runs".into(), dry_runs.to_string(), "the rest".into()],
            vec![
                "max containers moved".into(),
                format!("{:.1}%", 100.0 * max_frac),
                "<5%".into(),
            ],
            vec![
                "mean containers moved".into(),
                format!("{:.1}%", 100.0 * mean_frac),
                "—".into(),
            ],
        ],
    );
    let few_migrations = report.migrations <= config.ticks / TICKS_PER_MIGRATION;
    let few_moved = max_frac < PAPER_MOVED_FRACTION + MOVED_FRACTION_SLACK;
    save_json(
        "ablation_churn",
        &Summary {
            ticks: config.ticks,
            migrations: report.migrations,
            dry_runs,
            max_moved_fraction: max_frac,
            mean_moved_fraction: mean_frac,
        },
    );
    report_shape_checks(&[
        (
            format!(
                "migrations ≤ ticks / {TICKS_PER_MIGRATION} (TICKS_PER_MIGRATION): {} ≤ {}",
                report.migrations,
                config.ticks / TICKS_PER_MIGRATION
            ),
            few_migrations,
        ),
        (
            format!(
                "max moved fraction < {:.0}% (paper) + {:.0}% (MOVED_FRACTION_SLACK): {}",
                100.0 * PAPER_MOVED_FRACTION,
                100.0 * MOVED_FRACTION_SLACK,
                pct(max_frac)
            ),
            few_moved,
        ),
    ]);
}
