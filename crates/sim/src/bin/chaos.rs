//! Seeded chaos drill: generate a small cluster, execute a deterministic
//! fault schedule against the MIP scheduler, print the round-by-round
//! report, and exit non-zero if any invariant was violated.
//!
//! Usage:
//!   `chaos [SEED] [MAX_FAILURES]`        — machine-failure drill
//!                                          (defaults: seed 7, 2 failures)
//!   `chaos corruption [SEED] [ROUNDS]`   — data-corruption campaign
//!                                          (defaults: seed 42, 55 rounds);
//!                                          writes the round-by-round JSON
//!                                          report to
//!                                          `target/corruption_chaos/report.json`
//!   `chaos crash [SEED] [POINTS]`        — kill-9 crash/recovery campaign
//!                                          against the real `rasa-serve`
//!                                          binary (defaults: seed 11, 50
//!                                          crash points; binary located
//!                                          via `RASA_SERVE_BIN` or next to
//!                                          this executable); report lands
//!                                          in `target/crash_chaos/report.json`,
//!                                          failed rounds leave journals in
//!                                          `target/crash_chaos/work/`
//!
//! Every fault round is black-boxed by the flight recorder: dumps land in
//! `RASA_FLIGHT_DIR` (default `target/chaos_blackbox/`), one JSON file per
//! degraded recording, at most 16 per run.

use rasa_migrate::MigrateConfig;
use rasa_obs::FlightConfig;
use rasa_sim::chaos::{run_chaos, ChaosSchedule};
use rasa_sim::corruption::run_corruption_campaign;
use rasa_sim::crash::{locate_serve_bin, run_crash_campaign, CrashConfig};
use rasa_solver::MipBased;
use rasa_trace::{generate, tiny_cluster};
use serde::Serialize;

/// Write `report` as pretty JSON to `<dir>/report.json`, announcing the
/// path on stdout; a failure to write is reported on stderr, not fatal.
fn write_report(dir: &str, report: &impl Serialize) {
    let out_dir = std::path::Path::new(dir);
    if std::fs::create_dir_all(out_dir).is_ok() {
        match serde_json::to_string_pretty(report) {
            Ok(json) => {
                let path = out_dir.join("report.json");
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("could not write {}: {e}", path.display());
                } else {
                    println!("report written to {}", path.display());
                }
            }
            Err(e) => eprintln!("could not serialize report: {e}"),
        }
    }
}

/// Run the data-corruption campaign and exit non-zero on any panic or
/// uncertified placement.
fn corruption_main(mut args: impl Iterator<Item = String>) -> ! {
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);
    let rounds: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(55);
    println!("corruption campaign: seed={seed}, {rounds} rounds");
    let report = run_corruption_campaign(seed, rounds);
    for (i, r) in report.rounds.iter().enumerate() {
        let detail = r
            .detail
            .as_deref()
            .map(|d| format!("  detail: {d}"))
            .unwrap_or_default();
        println!(
            "  round {i}: {} panicked={} certified={} quarantined={}{detail}",
            r.kind, r.panicked, r.certified, r.quarantined
        );
    }
    println!(
        "panics: {}; uncertified placements: {}",
        report.panics, report.uncertified
    );
    write_report("target/corruption_chaos", &report);
    std::process::exit(if report.is_clean() { 0 } else { 1 });
}

/// Run the kill-9 crash/recovery campaign and exit non-zero on any panic,
/// identity violation, or unbounded recovery.
fn crash_main(mut args: impl Iterator<Item = String>) -> ! {
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(11);
    let points: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(50);
    let Some(serve_bin) = locate_serve_bin() else {
        eprintln!(
            "rasa-serve binary not found: build it first \
             (`cargo build --release -p rasa-serve`) or set RASA_SERVE_BIN"
        );
        std::process::exit(2);
    };
    println!(
        "crash campaign: seed={seed}, {points} crash points, binary {}",
        serve_bin.display()
    );
    let config = CrashConfig {
        seed,
        crash_points: points,
        serve_bin,
        work_dir: "target/crash_chaos/work".into(),
    };
    let report = run_crash_campaign(&config);
    for (i, r) in report.rounds.iter().enumerate() {
        println!(
            "  round {i}: {} acked={} recovered={} recovery={:.2}s panicked={}{}",
            r.mode,
            r.acked_rounds,
            r.recovered,
            r.recovery_seconds,
            r.panicked,
            if r.violations.is_empty() {
                String::new()
            } else {
                format!("  VIOLATIONS: {}", r.violations.join("; "))
            }
        );
    }
    println!(
        "identical recoveries: {}; quarantines: {}; panics: {}; \
         recovery mean {:.2}s max {:.2}s",
        report.identical_recoveries,
        report.quarantines,
        report.panics,
        report.mean_recovery_seconds,
        report.max_recovery_seconds
    );
    for v in &report.violations {
        eprintln!("VIOLATION: {v}");
    }
    write_report("target/crash_chaos", &report);
    std::process::exit(if report.is_clean() { 0 } else { 1 });
}

fn main() {
    let mut args = std::env::args().skip(1);
    let first = args.next();

    // black-box every fault round; RASA_FLIGHT_DIR overrides the default dir
    if !rasa_obs::recorder().configure_from_env() {
        rasa_obs::recorder().configure(FlightConfig {
            dump_dir: Some("target/chaos_blackbox".into()),
            ..FlightConfig::default()
        });
    }

    if first.as_deref() == Some("corruption") {
        corruption_main(args);
    }
    if first.as_deref() == Some("crash") {
        crash_main(args);
    }
    let seed: u64 = first.and_then(|a| a.parse().ok()).unwrap_or(7);
    let max_failures: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);

    let problem = generate(&tiny_cluster(seed));
    println!(
        "chaos drill: seed={seed}, {} services on {} machines, up to {max_failures} failures",
        problem.num_services(),
        problem.num_machines()
    );
    let schedule = ChaosSchedule::generate(&problem, seed, max_failures);
    for (i, e) in schedule.events.iter().enumerate() {
        println!("  event {i}: {}", e.describe());
    }

    let report = run_chaos(
        &problem,
        &MipBased::new(),
        &schedule,
        &MigrateConfig::default(),
    );
    for (i, r) in report.rounds.iter().enumerate() {
        let err = r
            .error
            .as_deref()
            .map(|e| format!("  planner-error: {e}"))
            .unwrap_or_default();
        println!(
            "  round {i}: lost={} recreated={} moves={} alive={:.3}{err}",
            r.lost_containers, r.recreated, r.moves, r.alive_fraction
        );
    }
    println!(
        "dead machines: {:?}; fully recovered: {}; violations: {}",
        report.dead_machines,
        report.fully_recovered,
        report.violations.len()
    );
    for v in &report.violations {
        eprintln!("VIOLATION: {v}");
    }
    if !report.is_clean() {
        std::process::exit(1);
    }
}
