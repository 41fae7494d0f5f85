//! **retrain** — offline portfolio-selector retraining from a persisted
//! selection-sample stream, producing a saved model and a holdout regret
//! report.
//!
//! The input is the JSONL stream the pipeline's online loop accumulates
//! (`SampleLog` → `rasa_trace::save_jsonl`, e.g. a daemon's
//! `--sample-stream`) — by default `target/experiments/selection_samples.jsonl`.
//! When the stream file is missing, the binary bootstraps one there by
//! racing all four pool arms on training subproblems (full-feedback
//! labelling), so `cargo run -p rasa-bench --bin retrain` works from a
//! clean checkout.
//!
//! Usage:
//!
//! ```text
//! retrain [--samples STREAM.jsonl] [--out MODEL.json] [--holdout FRAC] [--seed N]
//! ```
//!
//! Outputs: the fitted model at `--out` (default
//! `target/experiments/portfolio_selector.json`) and the regret report at
//! `target/experiments/retrain_regret.json`.

use rasa_bench::{labelling_budget, save_json, training_clusters};
use rasa_core::training_subproblems;
use rasa_model::Problem;
use rasa_select::{label_portfolio, retrain_from_samples, SelectionSample};
use rasa_trace::{generate, load_jsonl, save_jsonl, t_clusters};
use std::path::Path;

/// Shard count for the POP rung during bootstrap labelling — matches
/// `RasaConfig::default().pop.parts`.
const POP_PARTS: usize = 4;
/// Bootstrap labelling cap (each label races all four arms).
const LABEL_CAP: usize = 48;

fn bootstrap_samples(stream_path: &Path) -> Vec<SelectionSample> {
    // Budget-matched, stratified labelling: race arms at the
    // per-subproblem slice deployed runs grant, over subproblems drawn
    // evenly from the T-clusters and the shifted-seed evaluation-family
    // clusters.
    let (label_limit, quick_budget) = labelling_budget();
    let label_budget = quick_budget.max(rasa_bench::timeout() / 4);
    let limit = label_limit.min(LABEL_CAP);
    eprintln!(
        "[bootstrap] no sample stream at {} — labelling ≤{limit} training subproblems…",
        stream_path.display()
    );
    let mut problems: Vec<Problem> = t_clusters(900).iter().map(generate).collect();
    problems.extend(training_clusters().into_iter().map(|(_, p)| p));
    let per_problem = limit.div_ceil(problems.len()).max(1);
    let subs: Vec<Problem> = problems
        .iter()
        .enumerate()
        .flat_map(|(pi, p)| {
            training_subproblems(std::slice::from_ref(p), per_problem, 7 + pi as u64)
        })
        .take(limit)
        .collect();
    let samples: Vec<SelectionSample> = subs
        .iter()
        .enumerate()
        .flat_map(|(i, sub)| {
            label_portfolio(sub, label_budget, POP_PARTS, 900 + i as u64).into_samples()
        })
        .collect();
    let _ = std::fs::create_dir_all("target/experiments");
    match save_jsonl(&samples, stream_path) {
        Ok(()) => eprintln!("[artifact] {}", stream_path.display()),
        Err(e) => eprintln!("[bootstrap] stream not persisted: {e}"),
    }
    samples
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut samples_path = "target/experiments/selection_samples.jsonl".to_string();
    let mut out_path = "target/experiments/portfolio_selector.json".to_string();
    let mut holdout = 0.25f64;
    let mut seed = 42u64;
    let mut i = 0;
    while i < args.len() {
        match (args.get(i).map(String::as_str), args.get(i + 1)) {
            (Some("--samples"), Some(v)) => {
                samples_path = v.clone();
                i += 2;
            }
            (Some("--out"), Some(v)) => {
                out_path = v.clone();
                i += 2;
            }
            (Some("--holdout"), Some(v)) => {
                holdout = v.parse().unwrap_or(holdout);
                i += 2;
            }
            (Some("--seed"), Some(v)) => {
                seed = v.parse().unwrap_or(seed);
                i += 2;
            }
            (Some(other), _) => {
                eprintln!(
                    "unknown flag {other}\nusage: retrain [--samples STREAM.jsonl] \
                     [--out MODEL.json] [--holdout FRAC] [--seed N]"
                );
                std::process::exit(1);
            }
            (None, _) => break,
        }
    }

    let stream = Path::new(&samples_path);
    let samples: Vec<SelectionSample> = if stream.is_file() {
        match load_jsonl(stream) {
            Ok(s) => {
                eprintln!("[load] {} samples from {}", s.len(), stream.display());
                s
            }
            Err(e) => {
                eprintln!("retrain: loading {samples_path} failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        bootstrap_samples(stream)
    };
    if samples.is_empty() {
        eprintln!("retrain: the sample stream is empty — nothing to fit");
        std::process::exit(1);
    }

    let (selector, report) = retrain_from_samples(&samples, holdout, 1e-3, seed);

    println!(
        "retrain: {} train / {} holdout samples (seed {seed})",
        report.train_samples, report.holdout_samples
    );
    println!(
        "  policy value      {:.4}\n  always-MIP value  {:.4}\n  best fixed        {:.4} ({})\n  estimated regret  {:.4}",
        report.policy_value, report.always_mip_value, report.best_fixed_value,
        report.best_fixed_arm, report.estimated_regret
    );
    println!("  arm counts (CG, MIP, POP, GREEDY): {:?}", report.arm_counts);

    if let Some(dir) = Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = selector.save(Path::new(&out_path)) {
        eprintln!("retrain: saving model to {out_path} failed: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
    save_json("retrain_regret", &report);
}
