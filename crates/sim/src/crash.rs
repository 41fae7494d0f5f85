//! Seeded kill-9 crash campaign against the **real** `rasa-serve` binary.
//!
//! Unlike [`crate::soak`] (which drives an in-process server), this
//! harness spawns the daemon as a child process with write-ahead
//! journaling on, drives acked state into it, and then crashes it the way
//! production crashes: `SIGKILL` with zero warning, a seeded failpoint
//! (`RASA_WAL_CRASH_AT`) that aborts halfway through a journal append or
//! a compaction write, or a kill followed by deliberate journal damage
//! (torn tail, bit flip, truncated segment). It then restarts the daemon
//! on the same journal directory and asserts the recovery invariants:
//!
//! * **zero panics** — neither process lifetime may log `panicked at`;
//! * **zero uncertified publishes** — a recovered `GET /placement` must
//!   be byte-identical to a placement that was certified and acked
//!   before the crash (or belong to a round newer than the last ack —
//!   the ack-window race where a round published but its 200 never
//!   reached the client);
//! * **damage costs state, never the daemon** — a corrupted journal may
//!   roll the tenant back to the records before the damage (an older
//!   acked placement, or none: 404) or quarantine it (503), but the
//!   restarted daemon must come up and answer health checks;
//! * **bounded recovery** — the restarted daemon must be listening
//!   within [`RECOVERY_BOUND_SECS`].
//!
//! The campaign is deterministic per seed: crash modes cycle, failpoint
//! indices and delta payloads derive from the seeded RNG.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rasa_serve::http::{call, Reply};
use rasa_trace::{generate, tiny_cluster};
use serde::Serialize;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A restarted daemon must be accepting connections within this bound.
pub const RECOVERY_BOUND_SECS: f64 = 30.0;

/// Campaign configuration.
#[derive(Clone, Debug)]
pub struct CrashConfig {
    /// Master seed; every round derives from it.
    pub seed: u64,
    /// Crash points to execute (each round is one crash + one recovery).
    pub crash_points: usize,
    /// The `rasa-serve` binary to spawn.
    pub serve_bin: PathBuf,
    /// Scratch directory for journals and captured stderr. Rounds that
    /// pass are cleaned up; rounds that violate an invariant leave their
    /// journal and stderr behind for forensics.
    pub work_dir: PathBuf,
}

/// Locate the `rasa-serve` binary: `RASA_SERVE_BIN` if set, else a
/// sibling of the current executable (both live in `target/<profile>/`).
pub fn locate_serve_bin() -> Option<PathBuf> {
    if let Ok(path) = std::env::var("RASA_SERVE_BIN") {
        let path = PathBuf::from(path);
        return path.is_file().then_some(path);
    }
    let exe = std::env::current_exe().ok()?;
    let sibling = exe.parent()?.join("rasa-serve");
    sibling.is_file().then_some(sibling)
}

/// How one round crashes the daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CrashMode {
    /// Quiesce (all requests acked), then SIGKILL. The recovered
    /// placement must be byte-identical to the last acked one.
    KillQuiesced,
    /// `RASA_WAL_CRASH_AT=append:<n>`: abort halfway through the n-th
    /// journal append (a genuinely torn record mid-write).
    FailpointAppend,
    /// `RASA_WAL_CRASH_AT=compact:<n>`: abort halfway through writing a
    /// checkpoint, before its rename.
    FailpointCompact,
    /// SIGKILL, then tear the newest segment's tail off.
    TornTail,
    /// SIGKILL, then flip one payload byte mid-segment.
    BitFlip,
    /// SIGKILL, then truncate the newest segment to half its length.
    TruncateSegment,
}

impl CrashMode {
    fn label(self) -> &'static str {
        match self {
            CrashMode::KillQuiesced => "kill_quiesced",
            CrashMode::FailpointAppend => "failpoint_append",
            CrashMode::FailpointCompact => "failpoint_compact",
            CrashMode::TornTail => "torn_tail",
            CrashMode::BitFlip => "bit_flip",
            CrashMode::TruncateSegment => "truncate_segment",
        }
    }

    fn cycle(i: usize) -> CrashMode {
        match i % 6 {
            0 => CrashMode::KillQuiesced,
            1 => CrashMode::FailpointAppend,
            2 => CrashMode::FailpointCompact,
            3 => CrashMode::TornTail,
            4 => CrashMode::BitFlip,
            _ => CrashMode::TruncateSegment,
        }
    }
}

/// One crash round's outcome.
#[derive(Clone, Debug, Serialize)]
pub struct CrashRound {
    /// Crash mode label (`kill_quiesced`, `failpoint_append`, …).
    pub mode: String,
    /// Placements acked (certified 200s observed) before the crash.
    pub acked_rounds: u64,
    /// What `GET /placement` answered after recovery (`identical`,
    /// `newer_round`, `quarantined`, `no_placement`, `empty`, or a
    /// violation description).
    pub recovered: String,
    /// Wall-clock from respawn to `listening on`, seconds.
    pub recovery_seconds: f64,
    /// `panicked at` found in either process's stderr.
    pub panicked: bool,
    /// Invariant violations this round (empty = clean).
    pub violations: Vec<String>,
}

/// The whole campaign's outcome.
#[derive(Clone, Debug, Default, Serialize)]
pub struct CrashReport {
    /// Master seed the campaign ran under.
    pub seed: u64,
    /// Per-round outcomes.
    pub rounds: Vec<CrashRound>,
    /// Rounds whose recovered placement was byte-identical to an acked
    /// certified placement.
    pub identical_recoveries: u64,
    /// Rounds that ended quarantined (expected under journal damage).
    pub quarantines: u64,
    /// Total `panicked at` sightings (must be 0).
    pub panics: u64,
    /// Campaign-level violations (must be empty).
    pub violations: Vec<String>,
    /// Mean recovery wall-clock across rounds, seconds.
    pub mean_recovery_seconds: f64,
    /// Worst recovery wall-clock across rounds, seconds.
    pub max_recovery_seconds: f64,
}

impl CrashReport {
    /// `true` when every invariant held in every round.
    pub fn is_clean(&self) -> bool {
        self.panics == 0
            && self.violations.is_empty()
            && self.rounds.iter().all(|r| r.violations.is_empty())
    }
}

struct Daemon {
    child: Child,
    addr: SocketAddr,
    stderr_path: PathBuf,
    startup_seconds: f64,
}

/// Spawn the daemon and wait for `listening on <addr>` on stdout.
fn spawn_daemon(
    config: &CrashConfig,
    wal_dir: &Path,
    stderr_path: &Path,
    crash_at: Option<&str>,
) -> Result<Daemon, String> {
    let stderr_file = std::fs::File::create(stderr_path)
        .map_err(|e| format!("stderr capture {}: {e}", stderr_path.display()))?;
    let mut cmd = Command::new(&config.serve_bin);
    cmd.args([
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--deadline-ms",
        "500",
        "--drain-grace-ms",
        "500",
        "--wal-compact-every",
        "3",
    ])
    .arg("--wal-dir")
    .arg(wal_dir)
    .stdout(Stdio::piped())
    .stderr(Stdio::from(stderr_file))
    .env_remove("RASA_WAL_CRASH_AT");
    if let Some(spec) = crash_at {
        cmd.env("RASA_WAL_CRASH_AT", spec);
    }
    let started = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", config.serve_bin.display()))?;
    let stdout = child.stdout.take().ok_or("no stdout pipe")?;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        while let Ok(n) = reader.read_line(&mut line) {
            if n == 0 {
                break;
            }
            if let Some(rest) = line.trim().strip_prefix("listening on ") {
                let _ = tx.send(rest.to_string());
            }
            line.clear();
        }
        // keep draining so the daemon never blocks on a full pipe
    });
    let addr_line = rx
        .recv_timeout(Duration::from_secs_f64(RECOVERY_BOUND_SECS))
        .map_err(|_| {
            let _ = child.kill();
            "daemon did not print `listening on` within the recovery bound".to_string()
        })?;
    let addr: SocketAddr = addr_line
        .parse()
        .map_err(|e| format!("unparseable listen address {addr_line:?}: {e}"))?;
    Ok(Daemon {
        child,
        addr,
        stderr_path: stderr_path.to_path_buf(),
        startup_seconds: started.elapsed().as_secs_f64(),
    })
}

fn exchange(addr: SocketAddr, method: &str, target: &str, body: &str) -> Option<Reply> {
    call(
        addr,
        method,
        target,
        &[],
        body,
        Some(Duration::from_secs(30)),
    )
    .ok()
}

/// Round number and placement JSON out of a `GET /placement` body — the
/// identity key for byte-comparison across a crash (request-scoped fields
/// like `request_id` and `breaker` are excluded).
fn placement_key(body: &str) -> Option<(u64, String)> {
    let round: u64 = body
        .split("\"round\":")
        .nth(1)?
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .ok()?;
    let placement = body.split("\"placement\":").nth(1)?;
    let placement = placement.strip_suffix('}').unwrap_or(placement);
    Some((round, placement.to_string()))
}

fn problem_json(services: usize, seed: u64) -> String {
    let mut spec = tiny_cluster(seed);
    spec.services = services;
    spec.target_containers = services as u64 * 3;
    spec.machines = (services / 2).max(3);
    let problem = generate(&spec);
    serde_json::to_string(&problem).unwrap_or_else(|_| "{}".to_string())
}

fn delta_json(rng: &mut StdRng, service_span: u32) -> String {
    let a = rng.gen_range(0..service_span);
    let mut b = rng.gen_range(0..service_span);
    if b == a {
        b = (b + 1) % service_span.max(2);
    }
    let weight = 1.0 + rng.gen_range(0.0..1.0) * 40.0;
    format!(
        "{{\"edge_updates\":[{{\"a\":{a},\"b\":{b},\"weight\":{weight:.3}}}],\"replica_updates\":[]}}"
    )
}

/// The newest (highest-sequence) segment file of the tenant's journal.
fn newest_segment(wal_dir: &Path, tenant: &str) -> Option<PathBuf> {
    let dir = wal_dir.join(tenant);
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .ok()?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".wal"))
        })
        .collect();
    segs.sort();
    segs.pop()
}

/// Damage the newest segment according to `mode`. Returns a description
/// of what was done (None when there was nothing to damage).
fn injure_journal(
    wal_dir: &Path,
    tenant: &str,
    mode: CrashMode,
    rng: &mut StdRng,
) -> Option<String> {
    // the newest non-trivial segment (an empty fresh segment is only the
    // 8-byte magic — nothing to damage)
    let seg = newest_segment(wal_dir, tenant)?;
    let bytes = std::fs::read(&seg).ok()?;
    if bytes.len() <= 8 {
        return None;
    }
    let name = seg.file_name()?.to_str()?.to_string();
    let (damaged, what) = match mode {
        CrashMode::TornTail => {
            let cut = bytes.len() - rng.gen_range(1..8.min(bytes.len() - 8)).max(1);
            (
                bytes[..cut].to_vec(),
                format!("tore {} to {cut} bytes", name),
            )
        }
        CrashMode::BitFlip => {
            let mut bytes = bytes;
            let i = rng.gen_range(8..bytes.len());
            bytes[i] ^= 1 << rng.gen_range(0..8);
            (bytes, format!("flipped a bit at offset {i} of {name}"))
        }
        CrashMode::TruncateSegment => {
            let cut = (bytes.len() / 2).max(8);
            (
                bytes[..cut].to_vec(),
                format!("truncated {} to {cut} bytes", name),
            )
        }
        _ => return None,
    };
    std::fs::write(&seg, damaged).ok()?;
    Some(what)
}

fn stderr_panicked(path: &Path) -> bool {
    std::fs::read_to_string(path)
        .map(|s| s.contains("panicked at"))
        .unwrap_or(false)
}

/// Execute one crash round. `violations` collects invariant breaches.
fn run_round(config: &CrashConfig, i: usize, rng: &mut StdRng) -> CrashRound {
    let mode = CrashMode::cycle(i);
    let round_dir = config.work_dir.join(format!("round_{i:03}"));
    let wal_dir = round_dir.join("wal");
    let _ = std::fs::remove_dir_all(&round_dir);
    let _ = std::fs::create_dir_all(&wal_dir);
    let mut violations = Vec::new();
    let tenant = "t0";
    let services = 6;

    // failpoint index: somewhere in the first handful of journal writes
    let crash_at = match mode {
        CrashMode::FailpointAppend => Some(format!("append:{}", rng.gen_range(1..=6))),
        CrashMode::FailpointCompact => Some(format!("compact:{}", rng.gen_range(1..=2))),
        _ => None,
    };

    let daemon = match spawn_daemon(
        config,
        &wal_dir,
        &round_dir.join("serve_before.stderr"),
        crash_at.as_deref(),
    ) {
        Ok(daemon) => daemon,
        Err(e) => {
            return CrashRound {
                mode: mode.label().to_string(),
                acked_rounds: 0,
                recovered: String::new(),
                recovery_seconds: 0.0,
                panicked: false,
                violations: vec![format!("round {i}: daemon failed to boot: {e}")],
            };
        }
    };
    let mut child = daemon.child;
    let addr = daemon.addr;
    let stderr_before = daemon.stderr_path;

    // drive acked state in: one snapshot, then seeded deltas. Every 200
    // is followed by a GET /placement so the acked set holds only
    // certified, client-visible placements.
    let mut acked: std::collections::BTreeMap<u64, String> = std::collections::BTreeMap::new();
    let requests = 1 + rng.gen_range(3..7);
    for r in 0..requests {
        if child.try_wait().ok().flatten().is_some() {
            break; // the failpoint fired
        }
        let (target, body) = if r == 0 {
            (
                format!("/snapshot?tenant={tenant}"),
                problem_json(services, config.seed ^ (i as u64) << 8),
            )
        } else {
            (
                format!("/delta?tenant={tenant}"),
                delta_json(rng, services as u32),
            )
        };
        let reply = exchange(addr, "POST", &target, &body);
        let acked_ok = reply.as_ref().is_some_and(|r| r.status == 200);
        if acked_ok {
            if let Some(view) = exchange(addr, "GET", &format!("/placement?tenant={tenant}"), "") {
                if view.status == 200 {
                    if let Some((round, placement)) = placement_key(&view.body) {
                        acked.insert(round, placement);
                    }
                }
            }
        }
    }

    // crash it
    match mode {
        CrashMode::FailpointAppend | CrashMode::FailpointCompact => {
            // the daemon aborts itself at the failpoint; give it a moment,
            // then force the issue if the failpoint index was never reached
            let waited = Instant::now();
            while child.try_wait().ok().flatten().is_none()
                && waited.elapsed() < Duration::from_secs(5)
            {
                std::thread::sleep(Duration::from_millis(20));
            }
            if child.try_wait().ok().flatten().is_none() {
                let _ = child.kill();
            }
        }
        _ => {
            let _ = child.kill(); // SIGKILL — no drain, no flush
        }
    }
    let _ = child.wait();

    // post-mortem damage for the corruption modes
    let mut injected = None;
    if matches!(
        mode,
        CrashMode::TornTail | CrashMode::BitFlip | CrashMode::TruncateSegment
    ) {
        injected = injure_journal(&wal_dir, tenant, mode, rng);
    }

    // restart on the same journals and interrogate the recovered state
    let stderr_after = round_dir.join("serve_after.stderr");
    let daemon2 = match spawn_daemon(config, &wal_dir, &stderr_after, None) {
        Ok(daemon) => daemon,
        Err(e) => {
            return CrashRound {
                mode: mode.label().to_string(),
                acked_rounds: acked.len() as u64,
                recovered: String::new(),
                recovery_seconds: RECOVERY_BOUND_SECS,
                panicked: stderr_panicked(&stderr_before),
                violations: vec![format!(
                    "round {i} ({}): daemon failed to restart after crash: {e}",
                    mode.label()
                )],
            };
        }
    };
    let mut child2 = daemon2.child;
    let recovery_seconds = daemon2.startup_seconds;
    if recovery_seconds > RECOVERY_BOUND_SECS {
        violations.push(format!(
            "round {i} ({}): recovery took {recovery_seconds:.1}s (bound {RECOVERY_BOUND_SECS}s)",
            mode.label()
        ));
    }

    // the daemon must be serving, whatever the journal looked like
    if exchange(daemon2.addr, "GET", "/healthz", "").is_none() {
        violations.push(format!(
            "round {i} ({}): restarted daemon did not answer /healthz",
            mode.label()
        ));
    }

    let last_acked = acked.keys().next_back().copied().unwrap_or(0);
    let view = exchange(
        daemon2.addr,
        "GET",
        &format!("/placement?tenant={tenant}"),
        "",
    );
    let recovered = match view {
        Some(reply) if reply.status == 200 => match placement_key(&reply.body) {
            Some((round, placement)) => {
                if acked.get(&round) == Some(&placement) {
                    "identical".to_string()
                } else if round > last_acked {
                    // published-but-unacked round: certified pre-crash,
                    // journaled, its 200 just never reached the client
                    "newer_round".to_string()
                } else {
                    violations.push(format!(
                        "round {i} ({}): recovered placement for round {round} is not \
                         byte-identical to the acked certified one",
                        mode.label()
                    ));
                    "identity_violation".to_string()
                }
            }
            None => {
                violations.push(format!(
                    "round {i} ({}): unparseable /placement body: {}",
                    mode.label(),
                    reply.body
                ));
                "unparseable".to_string()
            }
        },
        Some(reply) if reply.status == 503 && reply.body.contains("quarantined") => {
            "quarantined".to_string()
        }
        Some(reply) if reply.status == 404 => {
            // tenant empty or placement record lost to damage — state was
            // lost, but nothing uncertified was served
            if mode == CrashMode::KillQuiesced && !acked.is_empty() {
                violations.push(format!(
                    "round {i} ({}): acked placement lost over a clean kill (fsync-always)",
                    mode.label()
                ));
            }
            if reply.body.contains("no placement") {
                "no_placement".to_string()
            } else {
                "empty".to_string()
            }
        }
        Some(reply) => {
            violations.push(format!(
                "round {i} ({}): unexpected /placement status {}: {}",
                mode.label(),
                reply.status,
                reply.body
            ));
            format!("status_{}", reply.status)
        }
        None => {
            violations.push(format!(
                "round {i} ({}): restarted daemon did not answer /placement",
                mode.label()
            ));
            "no_response".to_string()
        }
    };
    // quiesced clean kill: byte identity is mandatory, not just allowed
    if mode == CrashMode::KillQuiesced && !acked.is_empty() && recovered != "identical" {
        violations.push(format!(
            "round {i} (kill_quiesced): expected byte-identical recovery, got {recovered}"
        ));
    }

    let _ = child2.kill();
    let _ = child2.wait();

    let panicked = stderr_panicked(&stderr_before) || stderr_panicked(&stderr_after);
    if panicked {
        violations.push(format!(
            "round {i} ({}): `panicked at` in daemon stderr",
            mode.label()
        ));
    }
    let _ = injected; // descriptive only; damage is asserted via recovery
    if violations.is_empty() {
        let _ = std::fs::remove_dir_all(&round_dir);
    }
    CrashRound {
        mode: mode.label().to_string(),
        acked_rounds: acked.len() as u64,
        recovered,
        recovery_seconds,
        panicked,
        violations,
    }
}

/// Run the whole campaign: `crash_points` rounds cycling through the
/// crash modes, deterministic per seed.
pub fn run_crash_campaign(config: &CrashConfig) -> CrashReport {
    let mut report = CrashReport {
        seed: config.seed,
        ..CrashReport::default()
    };
    let _ = std::fs::create_dir_all(&config.work_dir);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut total_recovery = 0.0;
    for i in 0..config.crash_points {
        let round = run_round(config, i, &mut rng);
        if round.panicked {
            report.panics += 1;
        }
        match round.recovered.as_str() {
            "identical" => report.identical_recoveries += 1,
            "quarantined" => report.quarantines += 1,
            _ => {}
        }
        total_recovery += round.recovery_seconds;
        report.max_recovery_seconds = report.max_recovery_seconds.max(round.recovery_seconds);
        report.rounds.push(round);
    }
    if !report.rounds.is_empty() {
        report.mean_recovery_seconds = total_recovery / report.rounds.len() as f64;
    }
    // campaign-level sanity: the schedule must actually have exercised
    // identity-checkable recoveries, or the harness is vacuous
    if report.identical_recoveries == 0 && config.crash_points >= 6 {
        report
            .violations
            .push("no round recovered byte-identical state — harness or daemon broken".to_string());
    }
    report
}
