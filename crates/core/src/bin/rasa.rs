//! `rasa` — command-line driver for the RASA pipeline.
//!
//! Subcommands:
//!
//! * `rasa generate <spec.json|preset> <out.json>` — generate a synthetic
//!   cluster (presets: `tiny`, `s1`..`s4`) and save it;
//! * `rasa optimize <problem.json> [--timeout <secs>] [--placement <out.json>]`
//!   — run the pipeline and print the schedule summary;
//! * `rasa migrate <problem.json> <from.json> <to.json>` — compute and
//!   print the migration path between two placements;
//! * `rasa stats <problem.json>` — print cluster statistics.
//!
//! All files are the serde-JSON forms of `rasa_model` types.

use rasa_core::{Deadline, MigrateConfig, RasaConfig, RasaPipeline};
use rasa_migrate::{plan_migration, replay_plan};
use rasa_model::{ContainerAssignment, Placement};
use rasa_trace::{generate, load_problem, s_clusters, save_problem, tiny_cluster, ClusterSpec};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("optimize") => cmd_optimize(&args[1..]),
        Some("migrate") => cmd_migrate(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        _ => {
            eprintln!(
                "usage: rasa <generate|optimize|migrate|stats> …\n\
                 \n\
                 rasa generate <preset|spec.json> <out.json>   presets: tiny, s1..s4\n\
                 rasa optimize <problem.json> [--timeout <secs>] [--placement <out.json>]\n\
                 rasa migrate <problem.json> <from.json> <to.json>\n\
                 rasa stats <problem.json>"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn cmd_generate(args: &[String]) -> CliResult {
    let [preset, out] = args else {
        return Err("usage: rasa generate <preset|spec.json> <out.json>".into());
    };
    let spec: ClusterSpec = match preset.as_str() {
        "tiny" => tiny_cluster(42),
        "s1" => s_clusters().remove(0),
        "s2" => s_clusters().remove(1),
        "s3" => s_clusters().remove(2),
        "s4" => s_clusters().remove(3),
        path => {
            // specs are not serde types (they hold defaults); accept a
            // problem JSON instead and copy it through
            let problem = load_problem(Path::new(path))?;
            save_problem(&problem, Path::new(out))?;
            println!("copied problem with {} services", problem.num_services());
            return Ok(());
        }
    };
    let problem = generate(&spec);
    save_problem(&problem, Path::new(out))?;
    let st = problem.stats();
    println!(
        "generated {}: {} services / {} containers / {} machines / {} edges → {}",
        spec.name, st.services, st.containers, st.machines, st.edges, out
    );
    Ok(())
}

fn cmd_optimize(args: &[String]) -> CliResult {
    let Some(path) = args.first() else {
        return Err(
            "usage: rasa optimize <problem.json> [--timeout <secs>] [--placement <out.json>]"
                .into(),
        );
    };
    let mut timeout: Option<u64> = None;
    let mut placement_out: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--timeout" => {
                timeout = Some(args.get(i + 1).ok_or("--timeout needs a value")?.parse()?);
                i += 2;
            }
            "--placement" => {
                placement_out = Some(args.get(i + 1).ok_or("--placement needs a path")?.clone());
                i += 2;
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    let problem = load_problem(Path::new(path))?;
    let deadline = match timeout {
        Some(secs) => Deadline::after(Duration::from_secs(secs)),
        None => Deadline::none(),
    };
    let pipeline = RasaPipeline::new(RasaConfig::default());
    let run = pipeline.optimize(&problem, None, deadline);
    println!(
        "gained affinity: {:.2} of {:.2} total ({:.1}% localized) in {:.2}s",
        run.outcome.gained_affinity,
        problem.total_affinity(),
        100.0 * run.outcome.normalized_gained_affinity,
        run.outcome.elapsed.as_secs_f64()
    );
    println!(
        "partition: {} subproblems ({} masters, α = {:.4}), loss {:.2}",
        run.subproblems.len(),
        run.partition.masters,
        run.partition.alpha,
        run.partition_loss
    );
    for (i, sub) in run.subproblems.iter().enumerate() {
        println!(
            "  #{i}: {} services / {} machines → {:?} (gained {:.2}{})",
            sub.services,
            sub.machines,
            sub.algorithm,
            sub.gained_affinity,
            if sub.completed { "" } else { ", timed out" }
        );
    }
    if let Some(out) = placement_out {
        std::fs::write(&out, serde_json::to_string(&run.outcome.placement)?)?;
        println!("placement written to {out}");
    }
    Ok(())
}

fn cmd_migrate(args: &[String]) -> CliResult {
    let [problem_path, from_path, to_path] = args else {
        return Err("usage: rasa migrate <problem.json> <from.json> <to.json>".into());
    };
    let problem = load_problem(Path::new(problem_path))?;
    let from_placement: Placement = serde_json::from_str(&std::fs::read_to_string(from_path)?)?;
    let to_placement: Placement = serde_json::from_str(&std::fs::read_to_string(to_path)?)?;
    let from = ContainerAssignment::materialize(&problem, &from_placement);
    let config = MigrateConfig::default();
    let plan = plan_migration(&problem, &from, &to_placement, &config)?;
    replay_plan(
        &problem,
        &from,
        &to_placement,
        &plan,
        config.min_alive_fraction,
    )?;
    println!(
        "migration: {} moves across {} sequential command sets (verified)",
        plan.total_moves(),
        plan.steps.len()
    );
    for (i, step) in plan.steps.iter().enumerate() {
        println!("step {i}:");
        for (c, m) in &step.deletes {
            println!("  (delete, {c}, {m})");
        }
        for (c, m) in &step.creates {
            println!("  (create, {c}, {m})");
        }
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> CliResult {
    let Some(path) = args.first() else {
        return Err("usage: rasa stats <problem.json>".into());
    };
    let problem = load_problem(Path::new(path))?;
    let st = problem.stats();
    println!("services:       {}", st.services);
    println!("containers:     {}", st.containers);
    println!("machines:       {}", st.machines);
    println!("machine SKUs:   {}", st.machine_groups);
    println!("affinity edges: {}", st.edges);
    println!("total affinity: {:.2}", st.total_affinity);
    let graph = rasa_graph::AffinityGraph::from_problem(&problem);
    let mut totals: Vec<f64> = graph
        .all_total_affinities()
        .into_iter()
        .filter(|&t| t > 0.0)
        .collect();
    totals.sort_by(|a, b| b.partial_cmp(a).unwrap());
    if totals.len() >= 10 {
        let head: f64 = totals.iter().take(totals.len() / 10).sum();
        let all: f64 = totals.iter().sum();
        println!(
            "affinity skew:  top 10% of services carry {:.1}% of affinity",
            100.0 * head / all
        );
    }
    Ok(())
}
