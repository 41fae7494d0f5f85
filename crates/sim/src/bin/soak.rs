//! `soak` — run the seeded churn campaign against an in-process
//! `rasa-serve` daemon and emit the report as JSON.
//!
//! ```text
//! soak [--seed 42] [--rounds 600] [--max-wall-s 60] [--max-breaker-trips N]
//!      [--report PATH] [--metrics-out PATH]
//! ```
//!
//! Exit codes: `0` campaign clean, `1` invariant violations (report still
//! written), `2` usage error. CI runs this with a fixed seed, uploads the
//! report and any flight-recorder black-box dumps, and fails the job on a
//! non-zero exit.

#![warn(clippy::unwrap_used)]

use rasa_sim::soak::{run_soak, SoakConfig};
use std::process::ExitCode;
use std::time::Duration;

fn write_creating_dirs(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

fn usage() -> &'static str {
    "usage: soak [--seed N] [--rounds N] [--max-wall-s N] [--max-breaker-trips N]\n\
     \x20           [--report PATH] [--metrics-out PATH]"
}

fn main() -> ExitCode {
    let mut config = SoakConfig::default();
    let mut report_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let parsed = match flag.as_str() {
            "--seed" => value("--seed").and_then(|v| {
                v.parse()
                    .map(|n| config.seed = n)
                    .map_err(|_| "--seed: not a number".into())
            }),
            "--rounds" => value("--rounds").and_then(|v| {
                v.parse()
                    .map(|n| config.rounds = n)
                    .map_err(|_| "--rounds: not a number".into())
            }),
            "--max-wall-s" => value("--max-wall-s").and_then(|v| {
                v.parse::<u64>()
                    .map(|n| config.max_wall = Duration::from_secs(n))
                    .map_err(|_| "--max-wall-s: not a number".into())
            }),
            "--max-breaker-trips" => value("--max-breaker-trips").and_then(|v| {
                v.parse()
                    .map(|n| config.max_breaker_trips = n)
                    .map_err(|_| "--max-breaker-trips: not a number".into())
            }),
            "--report" => value("--report").map(|v| report_path = Some(v)),
            "--metrics-out" => value("--metrics-out").map(|v| metrics_path = Some(v)),
            "--help" | "-h" => Err(usage().to_string()),
            other => Err(format!("unknown flag {other}\n{}", usage())),
        };
        if let Err(message) = parsed {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    }

    rasa_obs::flight::recorder().configure_from_env();
    println!(
        "soak: seed={} rounds={} max_wall={:?}",
        config.seed, config.rounds, config.max_wall
    );
    let report = run_soak(&config);

    let json = match serde_json::to_string_pretty(&report) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("soak: report serialization failed: {e}");
            return ExitCode::from(1);
        }
    };
    match &report_path {
        Some(path) => {
            if let Err(e) = write_creating_dirs(path, &json) {
                eprintln!("soak: writing {path} failed: {e}");
                return ExitCode::from(1);
            }
            println!("soak: report written to {path}");
            // Sidecar artifacts CI uploads on failure: the tenant roster
            // and the structured-log tail captured just before drain.
            let dir = std::path::Path::new(path)
                .parent()
                .map(|p| p.to_path_buf())
                .unwrap_or_default();
            for (name, body) in [
                ("tenants.json", &report.tenants_json),
                ("log_tail.json", &report.log_tail_json),
            ] {
                if body.is_empty() {
                    continue;
                }
                let sidecar = dir.join(name);
                let sidecar = sidecar.to_string_lossy();
                if let Err(e) = write_creating_dirs(&sidecar, body) {
                    eprintln!("soak: writing {sidecar} failed: {e}");
                } else {
                    println!("soak: {name} written to {sidecar}");
                }
            }
        }
        None => println!("{json}"),
    }

    if let Some(path) = &metrics_path {
        let scrape = rasa_obs::write_prometheus(
            &rasa_obs::global().snapshot(),
            rasa_obs::MetricsGlossary::builtin(),
        );
        match scrape {
            Ok(text) => {
                if let Err(e) = write_creating_dirs(path, &text) {
                    eprintln!("soak: writing {path} failed: {e}");
                    return ExitCode::from(1);
                }
                println!("soak: metrics written to {path}");
            }
            Err(e) => {
                eprintln!("soak: prometheus exposition failed: {e}");
                return ExitCode::from(1);
            }
        }
    }

    println!(
        "soak: rounds={} ok={} 429={} stale={} trips={} panics={} drain={:.3}s abandoned={}",
        report.rounds_executed,
        report.responses.ok,
        report.responses.too_many_requests,
        report.stale_served,
        report.counter("serve.breaker_trips"),
        report.counter("serve.solve_panics") + report.counter("serve.connection_panics"),
        report.drain.drain_seconds,
        report.drain.abandoned_jobs,
    );
    if report.is_clean() {
        println!("soak: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("soak: FAIL — {} violations:", report.violations.len());
        for violation in &report.violations {
            eprintln!("  - {violation}");
        }
        ExitCode::from(1)
    }
}
