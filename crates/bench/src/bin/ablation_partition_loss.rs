//! **§V-B text claims** — the multi-stage partitioning's optimality loss
//! stays below ~12% of total affinity, and the partitioning step costs
//! less than 10% of the RASA algorithm's total runtime.

use rasa_bench::{evaluation_clusters, pct, print_table, report_shape_checks, save_json, timeout};
use rasa_core::{Deadline, RasaConfig, RasaPipeline};
use serde::Serialize;

/// §V-B: partitioning loses under ~12 % of the total affinity.
const PAPER_LOSS_BOUND: f64 = 0.12;
/// §V-B: partitioning costs under 10 % of the RASA algorithm's runtime.
const PAPER_TIME_SHARE: f64 = 0.10;

#[derive(Serialize)]
struct Row {
    cluster: String,
    partition_loss_fraction: f64,
    partition_time_fraction: f64,
    subproblems: usize,
    masters: usize,
    alpha: f64,
}

fn main() {
    let budget = timeout();
    let mut artifacts = Vec::new();
    for (name, problem) in evaluation_clusters() {
        let pipeline = RasaPipeline::new(RasaConfig::default());
        let run = pipeline.optimize(&problem, None, Deadline::after(budget));
        let total = problem.total_affinity().max(1e-12);
        let loss_frac = run.partition_loss / total;
        let time_frac = run.partition.elapsed_secs / run.outcome.elapsed.as_secs_f64().max(1e-9);
        artifacts.push(Row {
            cluster: name,
            partition_loss_fraction: loss_frac,
            partition_time_fraction: time_frac,
            subproblems: run.subproblems.len(),
            masters: run.partition.masters,
            alpha: run.partition.alpha,
        });
    }

    println!("§V-B — multi-stage partitioning overhead and loss\n");
    let rows: Vec<Vec<String>> = artifacts
        .iter()
        .map(|r| {
            vec![
                r.cluster.clone(),
                pct(r.partition_loss_fraction),
                pct(r.partition_time_fraction),
                r.subproblems.to_string(),
                r.masters.to_string(),
                format!("{:.4}", r.alpha),
            ]
        })
        .collect();
    print_table(
        &[
            "cluster",
            "affinity loss",
            "time share",
            "#subproblems",
            "#masters",
            "α",
        ],
        &rows,
    );
    let loss_ok = artifacts
        .iter()
        .all(|r| r.partition_loss_fraction < PAPER_LOSS_BOUND);
    let time_ok = artifacts
        .iter()
        .all(|r| r.partition_time_fraction < PAPER_TIME_SHARE);
    save_json("ablation_partition_loss", &artifacts);
    report_shape_checks(&[
        (
            format!(
                "affinity loss < {} (PAPER_LOSS_BOUND) on every cluster",
                pct(PAPER_LOSS_BOUND)
            ),
            loss_ok,
        ),
        (
            format!(
                "partition time < {} (PAPER_TIME_SHARE) of the total on every cluster",
                pct(PAPER_TIME_SHARE)
            ),
            time_ok,
        ),
    ]);
}
