//! **pipeline** — the whole partition → select → solve → combine pipeline
//! on the `RASA_SCALE` trace set, read as a runtime-vs-quality table.
//!
//! Traces: four tiny clusters at `small`; at `medium` / `large` / `xl` the
//! M-ratio ladder (`rasa_trace::medium_clusters` and friends), whose rungs
//! keep the paper's Table II container:machine ratios and whose default
//! budgets (20 / 30 / 60 s) step toward its one-minute M-cluster budget;
//! the T-clusters at `full`. Each trace runs under the heuristic selector
//! and under always-CG, three rounds on one [`SolveCache`]: round 1 is
//! cold, rounds 2 and 3 start warm from the cache.
//!
//! Prints one row per run — subproblems, normalized gained affinity, cold
//! seconds, the warm rounds' seconds, whether the cold round degraded, its
//! per-subproblem status tally and how many LP solves of the run stopped
//! on the simplex iteration cap — and saves the rows to
//! `target/experiments/pipeline_<scale>.json`. At `small` it also prints
//! the flight recorder's cost: the first trace solved cold with the
//! recorder off and sampling 1-in-4, interleaved. The ladder rungs skip
//! that A/B because their rounds run to the deadline.
//!
//! Exits 1 when a subproblem panicked, came back infeasible or fell back
//! (any round, any scale), when one hit its deadline or stopped unproved at
//! `small` or `medium`, when `simplex.pivots`, `bnb.nodes` or `cg.rounds`
//! stayed at zero, or when the recorder's median costs more than 5 % and
//! more than 5 ms.
//! `RASA_FLIGHT_DIR` turns the recorder on for the main runs, so a
//! degraded subproblem leaves its black box behind.

use rasa_bench::{print_table, save_json, scale, timeout_for, Scale};
use rasa_core::{Deadline, RasaConfig, RasaPipeline, SelectorChoice, SolveCache, SolveStatus};
use rasa_model::Problem;
use rasa_obs::FlightConfig;
use rasa_trace::{
    generate, large_clusters, medium_clusters, t_clusters, tiny_cluster, xl_clusters,
};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Rounds per (trace, selector) run on one cache.
const ROUNDS: usize = 3;

#[derive(Serialize)]
struct Run {
    trace: String,
    selector: &'static str,
    subproblems: usize,
    normalized_gained_affinity: f64,
    /// Wall seconds of each round; the first is the cold one.
    round_s: Vec<f64>,
    /// Whether any subproblem of the cold round degraded.
    degraded: bool,
    /// The cold round's per-subproblem `SolveStatus` tally.
    statuses: BTreeMap<&'static str, usize>,
    /// LP solves of all rounds that stopped on the simplex iteration cap
    /// with time left (`simplex.iteration_limit`).
    iteration_limits: u64,
}

/// Median of an odd-sized sample.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median cold seconds of `problem` with the flight recorder off and
/// sampling 1-in-4 (no dumps: the cost of recording, not of disk IO),
/// interleaved so the box's drift hits both sides alike.
fn recorder_medians(problem: &Problem, budget: Duration) -> (f64, f64) {
    let rec = rasa_obs::recorder();
    rec.configure(FlightConfig {
        dump_dir: None,
        sample_every: 4,
        ..FlightConfig::default()
    });
    let pipeline = RasaPipeline::default();
    let run = |recording: bool| {
        rec.set_enabled(recording);
        let t = Instant::now();
        let _ = pipeline.optimize_with_cache(problem, None, Deadline::after(budget), None);
        t.elapsed().as_secs_f64()
    };
    run(false); // warm-up: page cache, allocator
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        off.push(run(false));
        on.push(run(true));
    }
    (median(off), median(on))
}

fn main() {
    rasa_obs::global().reset();
    rasa_obs::recorder().configure_from_env();
    let sc = scale();
    let budget = timeout_for(sc);
    let specs = match sc {
        Scale::Small => (1..=4u64)
            .map(|seed| {
                let mut spec = tiny_cluster(seed);
                spec.name = format!("tiny-{seed}");
                spec
            })
            .collect(),
        Scale::Medium => medium_clusters(),
        Scale::Large => large_clusters(),
        Scale::Xl => xl_clusters(),
        Scale::Full => t_clusters(7),
    };
    let traces: Vec<(String, Problem)> = specs
        .iter()
        .map(|spec| (spec.name.clone(), generate(spec)))
        .collect();

    let mut runs = Vec::new();
    let mut failures = Vec::new();
    for (name, problem) in &traces {
        for (selector, choice) in [
            ("heuristic", SelectorChoice::Heuristic),
            ("always-cg", SelectorChoice::AlwaysCg),
        ] {
            let pipeline = RasaPipeline::new(RasaConfig {
                selector: choice,
                ..Default::default()
            });
            let cache = SolveCache::new();
            let iteration_limit = rasa_obs::global().counter("simplex.iteration_limit");
            let limits_before = iteration_limit.get();
            let rounds: Vec<_> = (0..ROUNDS)
                .map(|_| {
                    pipeline.optimize_with_cache(
                        problem,
                        None,
                        Deadline::after(budget),
                        Some(&cache),
                    )
                })
                .collect();
            for (round, run) in rounds.iter().enumerate() {
                for report in &run.subproblems {
                    let failed = match report.status {
                        SolveStatus::Ok => false,
                        SolveStatus::DeadlineExpired | SolveStatus::Unproved => {
                            matches!(sc, Scale::Small | Scale::Medium)
                        }
                        _ => true,
                    };
                    if failed {
                        failures.push(format!(
                            "{name}/{selector} round {}: subproblem {:?}",
                            round + 1,
                            report.status
                        ));
                    }
                }
            }
            let cold = &rounds[0];
            let mut statuses = BTreeMap::new();
            for report in &cold.subproblems {
                *statuses.entry(report.status.as_str()).or_insert(0) += 1;
            }
            runs.push(Run {
                trace: name.clone(),
                selector,
                subproblems: cold.subproblems.len(),
                normalized_gained_affinity: cold.outcome.normalized_gained_affinity,
                round_s: rounds
                    .iter()
                    .map(|r| r.outcome.elapsed.as_secs_f64())
                    .collect(),
                degraded: cold.is_degraded(),
                statuses,
                iteration_limits: iteration_limit.get() - limits_before,
            });
        }
    }
    for counter in ["simplex.pivots", "bnb.nodes", "cg.rounds"] {
        if rasa_obs::global().counter(counter).get() == 0 {
            failures.push(format!("counter {counter} stayed at zero"));
        }
    }

    println!(
        "\npipeline — {} scale, {:.0} s budget, {} traces × 2 selectors × {ROUNDS} rounds\n",
        sc.as_str(),
        budget.as_secs_f64(),
        traces.len()
    );
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let warm: Vec<String> = r.round_s[1..].iter().map(|s| format!("{s:.3}")).collect();
            let statuses: Vec<String> =
                r.statuses.iter().map(|(k, n)| format!("{k} {n}")).collect();
            vec![
                r.trace.clone(),
                r.selector.to_string(),
                r.subproblems.to_string(),
                format!("{:.4}", r.normalized_gained_affinity),
                format!("{:.3}", r.round_s[0]),
                warm.join(" / "),
                r.degraded.to_string(),
                statuses.join(", "),
                r.iteration_limits.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "trace", "selector", "subs", "affinity", "cold s", "warm s", "degraded", "statuses",
            "LP caps",
        ],
        &rows,
    );

    if sc == Scale::Small {
        let (off, on) = recorder_medians(&traces[0].1, budget);
        println!(
            "\nflight recorder: off {:.2} ms, 1-in-4 sampling {:.2} ms, ratio {:.3}",
            off * 1e3,
            on * 1e3,
            on / off.max(1e-12)
        );
        if on > 1.05 * off && on - off > 0.005 {
            failures.push(format!(
                "flight recorder costs {:.1}%",
                (on / off - 1.0) * 100.0
            ));
        }
    }
    save_json(&format!("pipeline_{}", sc.as_str()), &runs);

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
