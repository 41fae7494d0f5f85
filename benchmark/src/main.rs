//! The one benchmark of the RASA stack. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--quick]
//! benchmark --agree A.json B.json
//! ```
//!
//! With `--workload` the run happens in this process and its last line of
//! output is one JSON object (the driver's contract): the end-to-end
//! metrics after an untraced pass (`--trace 0`, the default), the per-layer
//! metrics after a traced pass (`--trace 1`). Without `--workload` every
//! workload runs in a process of its own, so that `peak_rss_mb` is the
//! workload's and not the sum of its predecessors', and the results are
//! merged into one file.

mod check;
mod daemon;
mod http;
mod inputs;
mod probes;
mod replay;
mod report;
mod spans;
mod spec;
mod stats;
mod sys;
mod workloads;

use report::{ResultFile, WorkloadResult};
use spec::{BenchmarkFile, RUN_SECONDS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{budget_bound, churn, cold_solve, serve_warm, RunCfg, Traced, Untraced};

/// Which passes a run makes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Passes {
    Untraced,
    Traced,
    Both,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    passes: Passes,
    quick: bool,
    agree: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--quick]\n       benchmark --agree A.json B.json";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        passes: Passes::Untraced,
        quick: false,
        agree: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.0 == name) {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
                    return Err(format!(
                        "unknown workload {name:?}; known: {}",
                        known.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be above 0 and at most 60".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.passes = match value("0 or 1")?.as_str() {
                    "0" => Passes::Untraced,
                    "1" => Passes::Traced,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--traced" => args.passes = Passes::Both,
            "--quick" => args.quick = true,
            "--agree" => {
                let a = value("two result files")?;
                let b = value("two result files")?;
                args.agree = Some((a.into(), b.into()));
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn result_path(dir: &Path, workload: Option<&str>, seed: u64, quick: bool) -> PathBuf {
    let quick = if quick { "_quick" } else { "" };
    match workload {
        Some(w) => dir.join(format!("result_{w}_seed{seed}{quick}.json")),
        None => dir.join(format!("result_seed{seed}{quick}.json")),
    }
}

fn run_untraced(workload: &str, cfg: &RunCfg) -> Result<Untraced, String> {
    match workload {
        "cold-solve" => workloads::untraced::<cold_solve::ColdSolve>(cfg),
        "budget-bound" => workloads::untraced::<budget_bound::BudgetBound>(cfg),
        "churn" => workloads::untraced::<churn::Churn>(cfg),
        _ => serve_warm::untraced(cfg),
    }
}

fn run_traced(workload: &str, cfg: &RunCfg) -> Result<Traced, String> {
    match workload {
        "cold-solve" => workloads::traced::<cold_solve::ColdSolve>(cfg),
        "budget-bound" => workloads::traced::<budget_bound::BudgetBound>(cfg),
        "churn" => workloads::traced::<churn::Churn>(cfg),
        _ => serve_warm::traced(cfg),
    }
}

/// Run one workload in this process. Returns whether every round was
/// correct.
fn run_workload(workload: &str, args: &Args) -> Result<bool, String> {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.quick { 2.0 } else { RUN_SECONDS as f64 }),
        quick: args.quick,
    };
    let dir = sys::output_dir();
    let started = Instant::now();
    let mut result = WorkloadResult {
        name: workload.to_string(),
        run_wall_s: 0.0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        round_samples: 0,
        warm_samples: 0,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    let count = |result: &mut WorkloadResult, t: &workloads::Tally| {
        result.attempted += t.attempted;
        result.failed += t.failed;
        result.failures.extend(t.failures.iter().cloned());
    };

    if args.passes != Passes::Traced {
        let pass = run_untraced(workload, &cfg)?;
        result.end_to_end = report::end_to_end(&pass)?;
        result.round_samples = pass.tally.round_s.len() as u64;
        result.warm_samples = pass.tally.warm_s.len() as u64;
        count(&mut result, &pass.tally);
        report::print_metrics(workload, &result.end_to_end);
        report::print_tally(workload, &pass.tally);
        println!(
            "{workload:<13} set-up n={} ({})",
            pass.setup_s.len(),
            pass.setup_s
                .iter()
                .map(|s| format!("{s:.3} s"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        if workload == "cold-solve" && !pass.tally.work_repeats() {
            println!("{workload:<13} work_repeat=false: simplex.pivots / bnb.nodes differ between repetitions, so this workload is wall-clock-dependent and must be resized");
        }
    }
    if args.passes != Passes::Untraced {
        let pass = run_traced(workload, &cfg)?;
        result.per_layer = report::per_layer(&pass)?;
        for t in std::iter::once(&pass.real).chain(&pass.replays) {
            count(&mut result, t);
        }
        report::print_metrics(workload, &result.per_layer);
        report::print_tally(workload, &pass.real);
        let path = report::write_trace(&dir, workload, &pass.spans)?;
        println!(
            "{workload:<13} {} spans written to {}",
            pass.spans.len(),
            path.display()
        );
        for (name, lo, hi) in [
            ("trace.coverage_share", 0.9, 1.1),
            ("trace.overhead_ratio", 0.0, 1.05),
        ] {
            let value = result
                .per_layer
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value);
            if let Some(v) = value.filter(|v| !(lo..=hi).contains(v)) {
                println!("{workload:<13} FLAG: {name} = {v:.4} is outside {lo}..{hi}");
            }
        }
    }
    result.run_wall_s = started.elapsed().as_secs_f64();
    if args.quick {
        println!("{workload:<13} --quick: tiny clusters and one set-up; these numbers are NOT comparable");
    }

    let correct = result.failed == 0;
    let file = ResultFile {
        provenance: sys::Provenance::collect(args.seed, args.quick, serve_warm::CLIENTS),
        workloads: vec![result],
    };
    report::write_json(
        &result_path(&dir, Some(workload), args.seed, args.quick),
        &file,
    )?;
    let result = &file.workloads[0];
    match args.passes {
        Passes::Untraced => println!("{}", report::driver_line(result, &result.end_to_end)),
        Passes::Traced => println!("{}", report::driver_line(result, &result.per_layer)),
        Passes::Both => {}
    }
    Ok(correct)
}

/// Run every workload, each in a process of its own, and merge the results.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let dir = sys::output_dir();
    let mut merged: Option<ResultFile> = None;
    let mut correct = true;
    for (workload, why) in WORKLOADS {
        println!("== {workload}: {why}");
        let mut child = Command::new(&exe);
        child.args(["--workload", workload, "--seed", &args.seed.to_string()]);
        if let Some(seconds) = args.seconds {
            child.args(["--seconds", &seconds.to_string()]);
        }
        match args.passes {
            Passes::Untraced => {}
            Passes::Traced => {
                child.args(["--trace", "1"]);
            }
            Passes::Both => {
                child.arg("--traced");
            }
        }
        if args.quick {
            child.arg("--quick");
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot start {workload}: {e}"))?;
        correct &= status.success();
        let part = report::load_result(&result_path(&dir, Some(workload), args.seed, args.quick))?;
        match &mut merged {
            Some(file) => file.workloads.extend(part.workloads),
            None => merged = Some(part),
        }
    }
    let merged = merged.ok_or("no workload ran")?;
    let path = result_path(&dir, None, args.seed, args.quick);
    report::write_json(&path, &merged)?;
    for w in &merged.workloads {
        println!(
            "{:<13} ran {:.1} s, attempted {}, failed {}",
            w.name, w.run_wall_s, w.attempted, w.failed
        );
    }
    println!("results written to {}", path.display());
    Ok(correct)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some((a, b)) = &args.agree {
        let contract = BenchmarkFile::load(Path::new("BENCHMARK.json"))?;
        return report::agree(
            &contract,
            &report::load_result(a)?,
            &report::load_result(b)?,
        );
    }
    if cfg!(debug_assertions) {
        return Err("this is a debug build; the benchmark only measures optimized builds (cargo run --release)".into());
    }
    match &args.workload {
        Some(workload) => run_workload(workload, &args),
        None => run_all(&args),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
