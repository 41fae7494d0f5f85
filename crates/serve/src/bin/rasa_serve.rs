//! `rasa-serve` — run the allocation daemon from the command line.
//!
//! ```text
//! rasa-serve [--addr 127.0.0.1:7070] [--workers 2] [--queue-capacity 4]
//!            [--max-tenants 64] [--deadline-ms 2000]
//!            [--drain-grace-ms 5000] [--metrics-out PATH]
//!            [--wal-dir PATH] [--wal-sync always|never]
//!            [--wal-compact-every N]
//! ```
//!
//! `--wal-dir` turns on per-tenant write-ahead journaling: acked state is
//! durable before the 200, and on restart the daemon replays the journals
//! through both trust gates (`--wal-sync` is `always`, the default, or
//! `never`). Every `--wal-compact-every` records (default 64) a tenant's
//! state is compacted into one fresh segment and the older segments are
//! deleted.
//!
//! The bound address is printed as `listening on <addr>` once the socket
//! is open (scripts parse this when binding port 0). SIGTERM or SIGINT
//! initiates graceful drain; the process exits 0 after the drain report
//! is printed. The flight recorder reads its dump directory from
//! `RASA_FLIGHT_DIR` at startup, so black-box dumps work the same way as in
//! the batch CLI. The structured event log keeps the newest 512 entries,
//! echoes `warn`/`error` entries to stderr, and is served back by
//! `GET /debug/log?tail=N`.

#![warn(clippy::unwrap_used)]

use rasa_serve::{ServeConfig, Server, SyncPolicy, WalConfig};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static TERMINATE: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // No signal-handling crate is vendored; std links libc anyway, so a
    // two-line FFI declaration is all we need. The handler only performs
    // an atomic store — the async-signal-safe minimum.
    extern "C" fn on_signal(_sig: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn usage() -> &'static str {
    "usage: rasa-serve [--addr HOST:PORT] [--workers N] [--queue-capacity N]\n\
     \x20                 [--max-tenants N] [--deadline-ms N]\n\
     \x20                 [--drain-grace-ms N] [--metrics-out PATH] [--wal-dir PATH]\n\
     \x20                 [--wal-sync always|never] [--wal-compact-every N]"
}

/// The WAL config a `--wal-*` flag mutates, defaulting it into existence
/// on first use (flag order doesn't matter; the root must end up set).
fn wal_tuning(config: &mut ServeConfig) -> &mut WalConfig {
    config.wal.get_or_insert_with(|| WalConfig::new(""))
}

fn parse_args(config: &mut ServeConfig) -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers: not a number".to_string())?
            }
            "--queue-capacity" => {
                config.queue_capacity = value("--queue-capacity")?
                    .parse()
                    .map_err(|_| "--queue-capacity: not a number".to_string())?
            }
            "--max-tenants" => {
                config.max_tenants = value("--max-tenants")?
                    .parse()
                    .map_err(|_| "--max-tenants: not a number".to_string())?
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|_| "--deadline-ms: not a number".to_string())?;
                config.default_deadline = Duration::from_millis(ms.max(1));
            }
            "--drain-grace-ms" => {
                let ms: u64 = value("--drain-grace-ms")?
                    .parse()
                    .map_err(|_| "--drain-grace-ms: not a number".to_string())?;
                config.drain_grace = Duration::from_millis(ms);
            }
            "--metrics-out" => {
                config.metrics_flush_path = Some(value("--metrics-out")?.into());
            }
            "--wal-dir" => {
                let root: std::path::PathBuf = value("--wal-dir")?.into();
                // tuning flags parsed before --wal-dir are kept
                wal_tuning(config).root = root;
            }
            "--wal-sync" => {
                let sync = SyncPolicy::parse(&value("--wal-sync")?)
                    .map_err(|e| format!("--wal-sync: {e}"))?;
                wal_tuning(config).sync = sync;
            }
            "--wal-compact-every" => {
                let every: u64 = value("--wal-compact-every")?
                    .parse()
                    .map_err(|_| "--wal-compact-every: not a number".to_string())?;
                wal_tuning(config).compact_every = every.max(1);
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if config
        .wal
        .as_ref()
        .is_some_and(|w| w.root.as_os_str().is_empty())
    {
        return Err("--wal-sync/--wal-compact-every require --wal-dir".to_string());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut config = ServeConfig {
        addr: "127.0.0.1:7070".to_string(),
        ..ServeConfig::default()
    };
    if let Err(message) = parse_args(&mut config) {
        eprintln!("{message}");
        return ExitCode::from(2);
    }
    rasa_obs::flight::recorder().configure_from_env();
    install_signal_handlers();

    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            rasa_serve::log::error("main", format!("bind failed: {e}"));
            return ExitCode::from(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            println!("listening on {addr}");
            rasa_serve::log::info("main", format!("listening on {addr}"));
        }
        Err(e) => rasa_serve::log::error("main", format!("local_addr: {e}")),
    }

    let handle = server.handle();
    let watcher = std::thread::spawn(move || {
        while !TERMINATE.load(Ordering::SeqCst) {
            if handle.is_draining() {
                return; // drained via POST /drain — nothing to signal
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        handle.shutdown();
    });

    let report = server.run();
    println!(
        "drained: {:.3}s, abandoned_jobs={}, inflight_completed={}, blackbox_dumps={}",
        report.drain_seconds,
        report.abandoned_jobs,
        report.inflight_completed,
        report.blackbox_dumps
    );
    TERMINATE.store(true, Ordering::SeqCst); // unblock the watcher
    let _ = watcher.join();
    ExitCode::SUCCESS
}
