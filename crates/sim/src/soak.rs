//! Seeded churn soak harness for the `rasa-serve` daemon.
//!
//! Boots an in-process [`Server`], then drives it with a deterministic,
//! seeded mix of hostile and well-formed traffic: tenant arrivals and
//! departures, fresh snapshots, single deltas and concurrent delta
//! storms, deadline-starved rounds (to trip circuit breakers), slow-loris
//! connections, mid-request disconnects, oversized bodies, truncated
//! JSON, and corrupted snapshots reusing the [`corruption`] injectors.
//!
//! The campaign asserts the daemon's robustness contract:
//!
//! * **zero panics** — `serve.solve_panics` and `serve.connection_panics`
//!   stay at zero over the whole run;
//! * **zero uncertified publishes** — every `"accepted":true` response
//!   carries `"certified":true`;
//! * **bounded state** — live tenants never exceed the configured cap and
//!   resident memory growth stays under a budget;
//! * **bounded breaker flapping** — breaker trips stay under a threshold
//!   proportional to the deliberately-starved traffic;
//! * **degraded health reporting** — `/healthz` answers 503 naming the
//!   tenant while a breaker is open;
//! * **bounded label cardinality** — churning 10× the label cap of
//!   distinct tenants leaves at most `label_cap` resident labels, evicts
//!   into the `other` bucket, and conserves family totals;
//! * **clean drain** — the server drains and reports when the campaign
//!   ends.
//!
//! Violations are collected (not panicked) into [`SoakReport::violations`]
//! so a CI run can upload the full report alongside the failure.
//!
//! [`corruption`]: crate::corruption

use crate::corruption::{inject, CorruptionKind};
use rand::{rngs::StdRng, Rng, SeedableRng};
use rasa_serve::http::{call, Reply};
use rasa_serve::{ServeConfig, Server};
use rasa_trace::{generate, tiny_cluster};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Campaign parameters. [`Default`] gives a fast deterministic profile
/// suitable for tests; CI scales `rounds`/`max_wall` up.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Master seed for the action schedule, problem generation, and
    /// corruption injection.
    pub seed: u64,
    /// Number of churn actions to attempt.
    pub rounds: usize,
    /// Wall-clock cap: the campaign stops early once exceeded.
    pub max_wall: Duration,
    /// Names in the rotating tenant pool (`t0..tN`), excluding the
    /// dedicated deadline-starved tenant.
    pub tenant_pool: usize,
    /// Breaker-trip budget: more trips than this counts as flapping.
    pub max_breaker_trips: u64,
    /// Resident-memory growth budget in KiB (Linux only; ignored where
    /// `/proc/self/status` is unavailable).
    pub max_rss_growth_kib: i64,
    /// Server configuration for the in-process daemon.
    pub serve: ServeConfig,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 42,
            rounds: 120,
            max_wall: Duration::from_secs(120),
            tenant_pool: 6,
            max_breaker_trips: 30,
            max_rss_growth_kib: 512 * 1024,
            serve: ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                queue_capacity: 2,
                max_tenants: 8,
                read_timeout: Duration::from_millis(150),
                default_deadline: Duration::from_millis(250),
                breaker_cooldown: Duration::from_secs(2),
                drain_grace: Duration::from_secs(15),
                ..ServeConfig::default()
            },
        }
    }
}

/// How many times each churn action ran.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ActionTally {
    /// Fresh snapshot posted to a pool tenant.
    pub snapshots: u64,
    /// Snapshot corrupted by a [`CorruptionKind`] injector before posting.
    pub corrupted_snapshots: u64,
    /// Single delta posted to a pool tenant.
    pub deltas: u64,
    /// Burst of concurrent deltas against one tenant.
    pub delta_storms: u64,
    /// Delta with a 1 ms deadline against the starved tenant.
    pub starved_deltas: u64,
    /// Connection that dribbles bytes slower than the read timeout.
    pub slow_loris: u64,
    /// Connection dropped midway through the request body.
    pub disconnects: u64,
    /// Body with a declared length over the server limit.
    pub oversized: u64,
    /// Valid JSON cut off mid-document.
    pub truncated: u64,
    /// `DELETE /tenant` for a pool tenant.
    pub removals: u64,
}

/// Response statuses observed by the churn client.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ResponseTally {
    /// `200 OK` (fresh or stale).
    pub ok: u64,
    /// `400 Bad Request` (malformed JSON / bad params).
    pub bad_request: u64,
    /// `404 Not Found`.
    pub not_found: u64,
    /// `408 Request Timeout` (slow-loris caught).
    pub request_timeout: u64,
    /// `413 Payload Too Large`.
    pub payload_too_large: u64,
    /// `422 Unprocessable Entity` (structurally invalid delta).
    pub unprocessable: u64,
    /// `429 Too Many Requests` (queue full / tenant cap).
    pub too_many_requests: u64,
    /// `503 Service Unavailable` (draining / no placement yet).
    pub unavailable: u64,
    /// `504 Gateway Timeout` (round outlived the request timeout).
    pub gateway_timeout: u64,
    /// Any other status.
    pub other: u64,
    /// No response at all (deliberate disconnects, resets).
    pub no_response: u64,
}

/// Drain outcome copied out of the server's
/// [`DrainReport`](rasa_serve::DrainReport).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DrainSummary {
    /// Seconds the drain took.
    pub drain_seconds: f64,
    /// Queued jobs abandoned (black-boxed + 503) at the grace cutoff.
    pub abandoned_jobs: u64,
    /// Rounds that completed during the drain window.
    pub inflight_completed: u64,
    /// Flight-recorder black-box dumps written over the server lifetime.
    pub blackbox_dumps: u64,
}

/// Everything a soak campaign measured, serializable as the CI artifact.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SoakReport {
    /// Master seed the campaign ran under.
    pub seed: u64,
    /// Actions actually executed (≤ configured rounds if the wall cap hit).
    pub rounds_executed: u64,
    /// Campaign wall time in seconds, drain included.
    pub wall_seconds: f64,
    /// Per-action counts of the seed-drawn schedule (replay-identical).
    pub actions: ActionTally,
    /// Extra starved deltas the breaker epilogue needed before a request
    /// was served stale. How many that takes depends on timing, so they
    /// are kept out of `actions`.
    pub epilogue_starved_deltas: u64,
    /// Per-status counts.
    pub responses: ResponseTally,
    /// `200` responses that carried `"stale":true` (breaker-open serving).
    pub stale_served: u64,
    /// `"accepted":true` responses missing `"certified":true` — must be 0.
    pub accepted_uncertified: u64,
    /// Growth of `serve.*` counters over the campaign, name-sorted.
    pub serve_counters: Vec<(String, u64)>,
    /// Resident-set growth in KiB (`None` off Linux).
    pub rss_growth_kib: Option<i64>,
    /// Distinct metric labels resident after the hostile label-churn
    /// phase (must stay at or under the registry's label cap).
    pub label_count_after_churn: u64,
    /// Growth of `obs.label_evictions` over the campaign (churning 10×
    /// the cap of distinct tenants must evict).
    pub label_evictions: u64,
    /// `GET /tenants` body captured just before drain (uploaded by CI on
    /// failure).
    pub tenants_json: String,
    /// `GET /debug/log?tail=128` body captured just before drain.
    pub log_tail_json: String,
    /// Drain outcome.
    pub drain: DrainSummary,
    /// Invariant violations; empty means the campaign passed.
    pub violations: Vec<String>,
}

impl SoakReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Value of a `serve.*` counter delta (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.serve_counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// One-shot HTTP exchange; `None` when the connection failed or was reset
/// (which the soak treats as data, not an error).
fn exchange(addr: SocketAddr, method: &str, target: &str, body: &str) -> Option<Reply> {
    call(
        addr,
        method,
        target,
        &[],
        body,
        Some(Duration::from_secs(60)),
    )
    .ok()
}

fn tally_response(report: &mut SoakReport, reply: Option<Reply>) {
    let Some(reply) = reply else {
        report.responses.no_response += 1;
        return;
    };
    match reply.status {
        200 => report.responses.ok += 1,
        400 => report.responses.bad_request += 1,
        404 => report.responses.not_found += 1,
        408 => report.responses.request_timeout += 1,
        413 => report.responses.payload_too_large += 1,
        422 => report.responses.unprocessable += 1,
        429 => report.responses.too_many_requests += 1,
        503 => report.responses.unavailable += 1,
        504 => report.responses.gateway_timeout += 1,
        _ => report.responses.other += 1,
    }
    if reply.body.contains("\"stale\":true") {
        report.stale_served += 1;
        if !reply.body.contains("\"certified\":true") {
            report.violations.push(format!(
                "stale response without certified placement: {}",
                reply.body
            ));
        }
    }
    if reply.body.contains("\"accepted\":true") && !reply.body.contains("\"certified\":true") {
        report.accepted_uncertified += 1;
        report.violations.push(format!(
            "accepted response without certification: {}",
            reply.body
        ));
    }
}

fn problem_json(
    services: usize,
    seed: u64,
    corrupt: Option<(CorruptionKind, &mut StdRng)>,
) -> String {
    let mut spec = tiny_cluster(seed);
    spec.services = services;
    spec.target_containers = services as u64 * 4;
    spec.machines = (services / 3).max(4);
    let mut problem = generate(&spec);
    if let Some((kind, rng)) = corrupt {
        inject(&mut problem, kind, rng);
    }
    // Non-finite floats may refuse to serialize; hand the daemon malformed
    // JSON in that case — it must answer 400, not fall over.
    serde_json::to_string(&problem).unwrap_or_else(|_| "{\"services\":[{\"broken\":".to_string())
}

fn delta_json(rng: &mut StdRng, service_span: u32) -> String {
    let a = rng.gen_range(0..service_span);
    let mut b = rng.gen_range(0..service_span);
    if b == a {
        b = (b + 1) % service_span.max(2);
    }
    let weight = 1.0 + rng.gen_range(0.0..1.0) * 60.0;
    format!(
        "{{\"edge_updates\":[{{\"a\":{a},\"b\":{b},\"weight\":{weight:.3}}}],\"replica_updates\":[]}}"
    )
}

fn rss_kib() -> Option<i64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

const CORRUPTIONS: [CorruptionKind; 5] = [
    CorruptionKind::DanglingEdge,
    CorruptionKind::CapacitySignFlip,
    CorruptionKind::ZeroAntiAffinity,
    CorruptionKind::NonFiniteEdgeWeight,
    CorruptionKind::NanDemand,
];

/// Run a full churn campaign against a freshly booted in-process daemon
/// and return the report. Never panics on daemon misbehavior — failures
/// land in [`SoakReport::violations`].
pub fn run_soak(config: &SoakConfig) -> SoakReport {
    let mut report = SoakReport {
        seed: config.seed,
        ..SoakReport::default()
    };
    let before = rasa_obs::global().snapshot();
    let rss_before = rss_kib();
    let started = Instant::now();

    let server = match Server::bind(config.serve.clone()) {
        Ok(server) => server,
        Err(e) => {
            report.violations.push(format!("bind failed: {e}"));
            return report;
        }
    };
    let addr = match server.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            report.violations.push(format!("local_addr failed: {e}"));
            return report;
        }
    };
    let handle = server.handle();
    let daemon = std::thread::spawn(move || server.run());

    let mut rng = StdRng::seed_from_u64(config.seed);
    let read_timeout = config.serve.read_timeout;

    // The starved tenant gets a deliberately larger problem so 1 ms
    // deadlines reliably exhaust the ladder and trip its breaker.
    let starved_body = problem_json(40, config.seed ^ 0x5afe, None);
    tally_response(
        &mut report,
        exchange(addr, "POST", "/snapshot?tenant=starved", &starved_body),
    );

    for round in 0..config.rounds {
        if started.elapsed() > config.max_wall {
            break;
        }
        report.rounds_executed = round as u64 + 1;
        let tenant = format!("t{}", rng.gen_range(0..config.tenant_pool as u32));
        let roll = rng.gen_range(0..100u32);
        match roll {
            0..=24 => {
                report.actions.snapshots += 1;
                let body = problem_json(6 + rng.gen_range(0..6) as usize, rng.gen(), None);
                let target = format!("/snapshot?tenant={tenant}");
                tally_response(&mut report, exchange(addr, "POST", &target, &body));
            }
            25..=33 => {
                report.actions.corrupted_snapshots += 1;
                let kind = CORRUPTIONS[rng.gen_range(0..CORRUPTIONS.len() as u32) as usize];
                let seed = rng.gen();
                let body = problem_json(8, seed, Some((kind, &mut rng)));
                let target = format!("/snapshot?tenant={tenant}");
                tally_response(&mut report, exchange(addr, "POST", &target, &body));
            }
            34..=57 => {
                report.actions.deltas += 1;
                let body = delta_json(&mut rng, 12);
                let target = format!("/delta?tenant={tenant}");
                tally_response(&mut report, exchange(addr, "POST", &target, &body));
            }
            58..=65 => {
                report.actions.delta_storms += 1;
                let clients: Vec<_> = (0..4)
                    .map(|_| {
                        let body = delta_json(&mut rng, 12);
                        let target = format!("/delta?tenant={tenant}");
                        std::thread::spawn(move || exchange(addr, "POST", &target, &body))
                    })
                    .collect();
                for client in clients {
                    match client.join() {
                        Ok(reply) => tally_response(&mut report, reply),
                        Err(_) => report
                            .violations
                            .push("storm client thread panicked".to_string()),
                    }
                }
            }
            66..=71 => {
                report.actions.starved_deltas += 1;
                let body = delta_json(&mut rng, 40);
                tally_response(
                    &mut report,
                    exchange(addr, "POST", "/delta?tenant=starved&deadline_ms=1", &body),
                );
            }
            72..=77 => {
                report.actions.slow_loris += 1;
                if let Ok(mut stream) = TcpStream::connect(addr) {
                    let _ = stream.write_all(b"POST /snapshot?tena");
                    std::thread::sleep(read_timeout + Duration::from_millis(100));
                    let _ = stream.write_all(b"nt=slow HTTP/1.1\r\n");
                    let mut raw = String::new();
                    let _ = stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .and_then(|_| stream.read_to_string(&mut raw).map(|_| ()));
                    if raw.contains(" 408 ") {
                        report.responses.request_timeout += 1;
                    } else {
                        report.responses.no_response += 1;
                    }
                }
            }
            78..=83 => {
                report.actions.disconnects += 1;
                if let Ok(mut stream) = TcpStream::connect(addr) {
                    let head = format!(
                        "POST /snapshot?tenant={tenant} HTTP/1.1\r\nContent-Length: 4096\r\n\r\n{{\"serv"
                    );
                    let _ = stream.write_all(head.as_bytes());
                    drop(stream);
                    report.responses.no_response += 1;
                }
            }
            84..=87 => {
                report.actions.oversized += 1;
                if let Ok(mut stream) = TcpStream::connect(addr) {
                    let head = format!(
                        "POST /snapshot?tenant={tenant} HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
                    );
                    let _ = stream.write_all(head.as_bytes());
                    let mut raw = String::new();
                    let _ = stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .and_then(|_| stream.read_to_string(&mut raw).map(|_| ()));
                    if raw.contains(" 413 ") {
                        report.responses.payload_too_large += 1;
                    } else {
                        report.responses.no_response += 1;
                    }
                }
            }
            88..=93 => {
                report.actions.truncated += 1;
                let full = problem_json(8, rng.gen(), None);
                let cut = full.len() / 2;
                let target = format!("/snapshot?tenant={tenant}");
                tally_response(&mut report, exchange(addr, "POST", &target, &full[..cut]));
            }
            _ => {
                report.actions.removals += 1;
                let target = format!("/tenant?tenant={tenant}");
                tally_response(&mut report, exchange(addr, "DELETE", &target, ""));
            }
        }
    }

    // Deterministic breaker epilogue: starve the dedicated tenant until
    // its breaker opens and a request is served stale. The campaign must
    // *observe* the degraded-mode contract (stale-but-certified serving),
    // not just hope the churn schedule happens to hit the open window.
    for _ in 0..8 {
        if report.stale_served > 0 {
            break;
        }
        report.epilogue_starved_deltas += 1;
        let body = delta_json(&mut rng, 40);
        tally_response(
            &mut report,
            exchange(addr, "POST", "/delta?tenant=starved&deadline_ms=1", &body),
        );
    }
    if report.stale_served == 0 {
        report
            .violations
            .push("breaker epilogue never produced a stale-served response".to_string());
    }

    // /healthz must report degraded (503, naming the tenant) while a
    // breaker is open. Re-starve the dedicated tenant until the window is
    // observed; these extra requests stay out of the action tally so the
    // seeded schedule remains replay-identical.
    let mut healthz_degraded = false;
    for _ in 0..8 {
        if let Some(reply) = exchange(addr, "GET", "/healthz", "") {
            if reply.status == 503 && reply.body.contains("breaker_open") {
                healthz_degraded = true;
                break;
            }
        }
        let body = delta_json(&mut rng, 40);
        tally_response(
            &mut report,
            exchange(addr, "POST", "/delta?tenant=starved&deadline_ms=1", &body),
        );
    }
    if !healthz_degraded {
        report
            .violations
            .push("/healthz never reported degraded while a breaker was open".to_string());
    }

    // Hostile label churn: 10× the registry's label cap of distinct
    // tenants, each landing one labeled `serve.requests` increment (the
    // empty body fails parsing after the label is counted, so no tenant
    // slot or solve round is created). Cardinality must stay bounded by
    // LRU eviction into `other`, and eviction must conserve family totals.
    let obs = rasa_obs::global();
    let label_cap = config.serve.max_tenants;
    let churn_requests = label_cap as u64 * 10;
    let family_before = rasa_obs::global()
        .snapshot()
        .counter_family_total("serve.requests");
    for i in 0..churn_requests {
        tally_response(
            &mut report,
            exchange(addr, "POST", &format!("/delta?tenant=churn{i}"), ""),
        );
    }
    let family_after = rasa_obs::global()
        .snapshot()
        .counter_family_total("serve.requests");
    report.label_count_after_churn = obs.label_count() as u64;
    if report.label_count_after_churn > label_cap as u64 {
        report.violations.push(format!(
            "label cardinality unbounded: {} resident labels > cap {label_cap}",
            report.label_count_after_churn
        ));
    }
    if family_after - family_before != churn_requests {
        report.violations.push(format!(
            "label eviction lost counts: family grew {} over {churn_requests} churn requests",
            family_after - family_before
        ));
    }

    // Exercise the live scrape path before draining.
    match exchange(addr, "GET", "/metrics", "") {
        Some(reply) if reply.status == 200 && reply.body.contains("rasa_serve_requests") => {}
        Some(reply) => report
            .violations
            .push(format!("/metrics scrape failed with {}", reply.status)),
        None => report
            .violations
            .push("/metrics scrape got no response".to_string()),
    }

    // Capture the observability surfaces the CI job uploads on failure.
    if let Some(reply) = exchange(addr, "GET", "/tenants", "") {
        if reply.status == 200 {
            report.tenants_json = reply.body;
        } else {
            report
                .violations
                .push(format!("/tenants answered {}", reply.status));
        }
    } else {
        report
            .violations
            .push("/tenants got no response".to_string());
    }
    if let Some(reply) = exchange(addr, "GET", "/debug/log?tail=128", "") {
        if reply.status == 200 {
            report.log_tail_json = reply.body;
        } else {
            report
                .violations
                .push(format!("/debug/log answered {}", reply.status));
        }
    } else {
        report
            .violations
            .push("/debug/log got no response".to_string());
    }

    handle.shutdown();
    match daemon.join() {
        Ok(drain) => {
            report.drain = DrainSummary {
                drain_seconds: drain.drain_seconds,
                abandoned_jobs: drain.abandoned_jobs,
                inflight_completed: drain.inflight_completed,
                blackbox_dumps: drain.blackbox_dumps,
            };
        }
        Err(_) => report
            .violations
            .push("daemon thread panicked during run/drain".to_string()),
    }

    let after = rasa_obs::global().snapshot();
    report.serve_counters = after
        .counters_with_prefix("serve.")
        // saturating: a labeled series evicted and re-created mid-campaign
        // can legitimately end below its starting value
        .map(|(name, value)| (name.to_string(), value.saturating_sub(before.counter(name))))
        .collect();
    report.label_evictions =
        after.counter("obs.label_evictions") - before.counter("obs.label_evictions");
    if report.label_evictions == 0 {
        report.violations.push(format!(
            "churning {churn_requests} tenants past a {label_cap}-label cap must evict"
        ));
    }
    report.rss_growth_kib = match (rss_before, rss_kib()) {
        (Some(b), Some(a)) => Some(a - b),
        _ => None,
    };
    report.wall_seconds = started.elapsed().as_secs_f64();

    // Invariants.
    for name in ["serve.solve_panics", "serve.connection_panics"] {
        let value = report.counter(name);
        if value > 0 {
            report
                .violations
                .push(format!("{name} = {value} (must be 0)"));
        }
    }
    let live_tenants = report
        .counter("serve.tenants_created")
        .saturating_sub(report.counter("serve.tenants_removed"));
    if live_tenants > config.serve.max_tenants as u64 {
        report.violations.push(format!(
            "live tenants {live_tenants} exceed cap {}",
            config.serve.max_tenants
        ));
    }
    let trips = report.counter("serve.breaker_trips");
    if trips > config.max_breaker_trips {
        report.violations.push(format!(
            "breaker flapping: {trips} trips > budget {}",
            config.max_breaker_trips
        ));
    }
    if let Some(growth) = report.rss_growth_kib {
        if growth > config.max_rss_growth_kib {
            report.violations.push(format!(
                "resident memory grew {growth} KiB > budget {} KiB",
                config.max_rss_growth_kib
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn tiny_campaign_is_clean_and_deterministic_in_shape() {
        let config = SoakConfig {
            seed: 9,
            rounds: 25,
            ..SoakConfig::default()
        };
        let report = run_soak(&config);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.rounds_executed, 25);
        assert!(report.responses.ok > 0, "some traffic must succeed");
        assert_eq!(report.accepted_uncertified, 0);
        // the schedule itself is seed-deterministic
        let replay = run_soak(&config);
        assert_eq!(
            format!("{:?}", report.actions),
            format!("{:?}", replay.actions)
        );
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = SoakReport {
            seed: 3,
            rounds_executed: 5,
            serve_counters: vec![("serve.requests".to_string(), 7)],
            violations: vec!["example".to_string()],
            ..SoakReport::default()
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: SoakReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.counter("serve.requests"), 7);
        assert!(!back.is_clean());
    }
}
