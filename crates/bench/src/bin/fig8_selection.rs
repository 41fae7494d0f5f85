//! **Fig 8** — gained affinity under different algorithm-selection methods
//! (CG / MIP / HEURISTIC / MLP-BASED / GCN-BASED) with a fixed time-out.
//!
//! Pipeline mirrors Section IV-D: label subproblems sampled from the
//! training clusters (T1–T4 analogues) by racing CG vs MIP, train the GCN
//! and MLP classifiers, then run the full RASA pipeline on the evaluation
//! clusters under each selection strategy.
//!
//! Shape to reproduce: only GCN-BASED is best-or-tied on *every* cluster;
//! fixed CG / fixed MIP / HEURISTIC / MLP each lose somewhere.

use rasa_bench::{
    evaluation_clusters, labelling_budget, pct, print_table, report_shape_checks, save_json,
    timeout,
};
use rasa_core::{
    generate_training_set, Deadline, RasaConfig, RasaPipeline, Scheduler, SelectorChoice,
};
use rasa_select::{train_gcn, train_mlp, PoolAlgorithm};
use rasa_trace::{generate, t_clusters};
use serde::Serialize;

/// How far GCN-BASED's normalized gained affinity may trail the best
/// selector on a cluster and still count as tied (3 points).
const TIE_TOLERANCE: f64 = 0.03;

#[derive(Serialize)]
struct Row {
    cluster: String,
    selector: String,
    normalized_gained_affinity: f64,
}

fn main() {
    let budget = timeout();
    // ---- train the learned selectors ----
    let (label_limit, label_budget) = labelling_budget();
    eprintln!("[train] generating ≤{label_limit} labelled subproblems from the T-clusters…");
    let train_problems: Vec<_> = t_clusters(900).iter().map(generate).collect();
    let data = generate_training_set(&train_problems, label_limit, label_budget, 7);
    let cg_labels = data.iter().filter(|d| d.label == PoolAlgorithm::Cg).count();
    eprintln!(
        "[train] {} examples ({} CG, {} MIP)",
        data.len(),
        cg_labels,
        data.len() - cg_labels
    );
    let (gcn, gcn_report) = train_gcn(&data, 300, 0.02, 42);
    let (mlp, mlp_report) = train_mlp(&data, 400, 0.02, 42);
    eprintln!(
        "[train] GCN accuracy {:.0}% | MLP accuracy {:.0}%",
        100.0 * gcn_report.train_accuracy,
        100.0 * mlp_report.train_accuracy
    );

    let selectors: Vec<SelectorChoice> = vec![
        SelectorChoice::AlwaysCg,
        SelectorChoice::AlwaysMip,
        SelectorChoice::Heuristic,
        SelectorChoice::Mlp(mlp),
        SelectorChoice::Gcn(gcn),
    ];

    // ---- evaluate ----
    let mut artifacts: Vec<Row> = Vec::new();
    for (name, problem) in evaluation_clusters() {
        for selector in &selectors {
            let label = selector.label().to_string();
            let pipeline = RasaPipeline::new(RasaConfig {
                selector: selector.clone(),
                ..Default::default()
            });
            let out = pipeline.schedule(&problem, Deadline::after(budget));
            eprintln!(
                "[{name}] {:<10} nga={}",
                label,
                pct(out.normalized_gained_affinity)
            );
            artifacts.push(Row {
                cluster: name.clone(),
                selector: label,
                normalized_gained_affinity: out.normalized_gained_affinity,
            });
        }
    }

    // ---- report ----
    println!(
        "\nFig 8 — gained affinity by algorithm-selection method ({}s time-out)\n",
        budget.as_secs()
    );
    let clusters: Vec<String> = {
        let mut v: Vec<String> = artifacts.iter().map(|r| r.cluster.clone()).collect();
        v.dedup();
        v
    };
    let mut rows = Vec::new();
    for selector in &selectors {
        let label = selector.label();
        let mut row = vec![label.to_string()];
        for cluster in &clusters {
            let v = artifacts
                .iter()
                .find(|r| &r.cluster == cluster && r.selector == label)
                .map(|r| r.normalized_gained_affinity)
                .unwrap_or(0.0);
            row.push(pct(v));
        }
        rows.push(row);
    }
    let mut headers = vec!["selector"];
    headers.extend(clusters.iter().map(String::as_str));
    print_table(&headers, &rows);

    // the paper's check: is GCN best-or-tied everywhere?
    let mut gcn_always_competitive = true;
    for cluster in &clusters {
        let best = artifacts
            .iter()
            .filter(|r| &r.cluster == cluster)
            .map(|r| r.normalized_gained_affinity)
            .fold(0.0f64, f64::max);
        let gcn_v = artifacts
            .iter()
            .find(|r| &r.cluster == cluster && r.selector == "GCN-BASED")
            .map(|r| r.normalized_gained_affinity)
            .unwrap_or(0.0);
        if gcn_v < best - TIE_TOLERANCE {
            gcn_always_competitive = false;
        }
    }
    save_json("fig8_selection", &artifacts);
    report_shape_checks(&[(
        format!(
            "GCN within {:.1} points (TIE_TOLERANCE) of the best selector on every cluster",
            100.0 * TIE_TOLERANCE
        ),
        gcn_always_competitive,
    )]);
}
