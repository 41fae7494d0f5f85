//! `serve-warm`: the daemon's request path over real sockets. An in-process
//! `rasa-serve` daemon (two workers, journaling on, no fsync) holds eight
//! tenants snapshotted during set-up. Two closed-loop client threads then
//! alternate a `POST /delta` that really changes the tenant's state but
//! dirties no subproblem (one replica more or less of a background
//! service) with a `GET /placement` of the same tenant.
//!
//! Every response body is kept and checked after the window: the delta
//! reply must be an accepted, certified, non-stale, non-degraded all-hit
//! round, and the placement read back must pass the benchmark's own check
//! against the client-side copy of the tenant's problem.

use super::{read_counters, repeat_setup, Counters, RunCfg, Tally, Traced, Untraced};
use crate::check::check_placement;
use crate::daemon::Daemon;
use crate::http::{request, Trace};
use crate::inputs::{apply_to_copy, background_services, tenant_spec};
use crate::probes::{self, ProbeInput};
use crate::spans::SpanLog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rasa_core::{ReplicaUpdate, SnapshotDelta};
use rasa_model::{Placement, Problem, ServiceId};
use rasa_serve::SyncPolicy;
use rasa_trace::generate;
use serde::Deserialize;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const TENANTS: usize = 8;
/// Client threads of the load generator; the box has two cores.
pub const CLIENTS: usize = 2;
/// Every this many iterations a client also posts an empty delta: the
/// identical snapshot against the warmed cache (`warm_round_s`).
const WARM_EVERY: usize = 8;
const EMPTY_DELTA: &str = "{\"edge_updates\":[],\"replica_updates\":[]}";

#[derive(Deserialize)]
struct CacheReply {
    misses: u64,
}

#[derive(Deserialize)]
struct DeltaReply {
    accepted: bool,
    certified: bool,
    stale: bool,
    degraded: bool,
    cache: CacheReply,
}

#[derive(Deserialize)]
struct PlacementReply {
    stale: bool,
    objective: f64,
    placement: Placement,
}

/// One tenant as its client sees it.
#[derive(Clone)]
struct Tenant {
    name: String,
    /// Client-side copy of the tenant's problem, moved by every delta.
    problem: Problem,
    /// Background services and their replica counts in the base snapshot.
    background: Vec<(ServiceId, u32)>,
}

impl Tenant {
    fn new(index: usize) -> Result<Tenant, String> {
        let problem = generate(&tenant_spec(index));
        let background: Vec<(ServiceId, u32)> = background_services(&problem)
            .into_iter()
            .map(|s| (s, problem.services[s.idx()].replicas))
            .collect();
        if background.is_empty() {
            return Err(format!("tenant {index} has no background service to scale"));
        }
        Ok(Tenant {
            name: format!("t{index}"),
            problem,
            background,
        })
    }

    /// One replica more of a seeded background service, or back to the
    /// base count if it already has one more.
    fn next_delta(&self, rng: &mut StdRng) -> SnapshotDelta {
        let (service, base) = self.background[rng.gen_range(0..self.background.len())];
        let now = self.problem.services[service.idx()].replicas;
        SnapshotDelta {
            edge_updates: Vec::new(),
            replica_updates: vec![ReplicaUpdate {
                service: service.0,
                replicas: if now == base { base + 1 } else { base },
            }],
        }
    }
}

/// One iteration's responses, checked after the window.
struct Iteration {
    tenant: usize,
    delta: SnapshotDelta,
    /// `(status, body)` or the transport error.
    delta_reply: Result<(u16, String), String>,
    read_reply: Result<(u16, String), String>,
    warm_reply: Option<Result<(u16, String), String>>,
}

/// What one client thread measured.
#[derive(Default)]
struct ClientLog {
    round_s: Vec<f64>,
    read_s: Vec<f64>,
    warm_s: Vec<f64>,
    iterations: Vec<Iteration>,
}

pub struct ServeWarm {
    daemon: Daemon,
    /// `CLIENTS` disjoint groups: a tenant's state is moved by one client.
    groups: Vec<Vec<Tenant>>,
    seed: u64,
}

fn post_json<T: serde::Serialize>(
    addr: SocketAddr,
    target: &str,
    body: &T,
    trace: Option<Trace<'_>>,
) -> Result<crate::http::Exchange, String> {
    let body = serde_json::to_string(body).map_err(|e| format!("encode: {e}"))?;
    request(addr, "POST", target, &body, trace)
}

impl ServeWarm {
    pub fn setup(cfg: &RunCfg) -> Result<ServeWarm, String> {
        let daemon = Daemon::boot(4, Some(SyncPolicy::Never))?;
        let mut tenants = Vec::with_capacity(TENANTS);
        for index in 0..TENANTS {
            let tenant = Tenant::new(index)?;
            let reply = post_json(
                daemon.addr,
                &format!("/snapshot?tenant={}", tenant.name),
                &tenant.problem,
                None,
            )?;
            if reply.status != 200 {
                return Err(format!(
                    "snapshot of {} answered {}",
                    tenant.name, reply.status
                ));
            }
            tenants.push(tenant);
        }
        let mut groups: Vec<Vec<Tenant>> = (0..CLIENTS).map(|_| Vec::new()).collect();
        for (index, tenant) in tenants.into_iter().enumerate() {
            groups[index % CLIENTS].push(tenant);
        }
        let mut state = ServeWarm {
            daemon,
            groups,
            seed: cfg.seed,
        };
        // warm-up: a short untimed window, checked like a timed one
        let warmup = state.window(Duration::from_millis(500), &SpanLog::new(false));
        if warmup.failed > 0 {
            return Err(format!("serve-warm warm-up failed: {:?}", warmup.failures));
        }
        Ok(state)
    }

    /// Run the closed loop for `length`, then check everything it read.
    fn window(&mut self, length: Duration, log: &SpanLog) -> Tally {
        let addr = self.daemon.addr;
        let counters = read_counters();
        let cpu = crate::sys::process_cpu_seconds();
        let started = Instant::now();
        let end = started + length;
        let seed = self.seed;
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let clients: Vec<_> = self
                .groups
                .iter()
                .enumerate()
                .map(|(client, tenants)| {
                    scope.spawn(move || client_loop(addr, client, tenants, seed, end, log))
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread does not panic"))
                .collect()
        });
        let window_s = started.elapsed().as_secs_f64();
        let cpu_s = crate::sys::process_cpu_seconds() - cpu;
        let mut total: Counters = read_counters();
        for (t, b) in total.iter_mut().zip(&counters) {
            *t -= b;
        }

        let mut tally = Tally {
            cpu_s,
            window_s,
            ..Tally::default()
        };
        for (group, log) in self.groups.iter_mut().zip(logs) {
            tally.round_s.extend(&log.round_s);
            tally.warm_s.extend(&log.warm_s);
            tally.read_s.extend(&log.read_s);
            for iteration in log.iterations {
                check_iteration(&mut group[iteration.tenant], iteration, &mut tally);
            }
        }
        // the counters cannot be read per round under concurrent clients:
        // spread the window's totals evenly over its rounds
        let rounds = tally.round_s.len().max(1) as u64;
        tally.counts.push(total.map(|c| c / rounds));
        self.seed = self.seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        tally
    }

    pub fn probe_input(&self) -> ProbeInput {
        ProbeInput {
            spec: tenant_spec(0),
            problem: self.groups[0][0].problem.clone(),
            deadline: Duration::from_secs(2),
        }
    }
}

fn client_loop(
    addr: SocketAddr,
    client: usize,
    tenants: &[Tenant],
    seed: u64,
    end: Instant,
    log: &SpanLog,
) -> ClientLog {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut out = ClientLog::default();
    // replica counts as this client has left them, per tenant
    let mut shadow: Vec<Tenant> = tenants.to_vec();
    let mut n = 0usize;
    while Instant::now() < end {
        n += 1;
        let round_id = (client as u64) << 32 | n as u64;
        // tenants take turns; the seed draws which service each one scales
        let index = n % shadow.len();
        let tenant = &mut shadow[index];
        let delta = tenant.next_delta(&mut rng);
        apply_to_copy(&mut tenant.problem, &delta);

        let trace = |parent: crate::spans::SpanId| {
            Some(Trace {
                log,
                parent: parent.as_parent(),
                round_id,
            })
        };
        let span = log.start("round", None, round_id);
        let reply = post_json(
            addr,
            &format!("/delta?tenant={}", tenant.name),
            &delta,
            trace(span),
        );
        log.end(span);
        if let Ok(r) = &reply {
            out.round_s.push(r.wall_s);
        }
        let delta_reply = reply.map(|r| (r.status, r.body));

        let span = log.start("read", None, round_id);
        let reply = request(
            addr,
            "GET",
            &format!("/placement?tenant={}", tenant.name),
            "",
            trace(span),
        );
        log.end(span);
        if let Ok(r) = &reply {
            out.read_s.push(r.wall_s);
        }
        let read_reply = reply.map(|r| (r.status, r.body));

        let warm_reply = n.is_multiple_of(WARM_EVERY).then(|| {
            let reply = request(
                addr,
                "POST",
                &format!("/delta?tenant={}", tenant.name),
                EMPTY_DELTA,
                None,
            );
            if let Ok(r) = &reply {
                out.warm_s.push(r.wall_s);
            }
            reply.map(|r| (r.status, r.body))
        });

        out.iterations.push(Iteration {
            tenant: index,
            delta,
            delta_reply,
            read_reply,
            warm_reply,
        });
    }
    out
}

fn parse_delta_reply(reply: &Result<(u16, String), String>) -> Result<DeltaReply, String> {
    let (status, body) = reply.as_ref().map_err(Clone::clone)?;
    if *status != 200 {
        return Err(format!("POST /delta answered {status}: {body}"));
    }
    let parsed: DeltaReply = serde_json::from_str(body).map_err(|e| format!("delta reply: {e}"))?;
    if !(parsed.accepted && parsed.certified) || parsed.stale {
        return Err(format!("delta round not published fresh: {body}"));
    }
    if parsed.cache.misses != 0 {
        return Err(format!(
            "background delta dirtied {} subproblems",
            parsed.cache.misses
        ));
    }
    Ok(parsed)
}

/// Check one iteration against the client-side copy of its tenant.
fn check_iteration(tenant: &mut Tenant, iteration: Iteration, tally: &mut Tally) {
    apply_to_copy(&mut tenant.problem, &iteration.delta);
    tally.attempted += 1;
    let verdict = parse_delta_reply(&iteration.delta_reply).and_then(|delta| {
        tally.solves += 1;
        tally.solves_ok += u64::from(!delta.degraded);
        let (status, body) = iteration.read_reply.as_ref().map_err(Clone::clone)?;
        if *status != 200 {
            return Err(format!("GET /placement answered {status}: {body}"));
        }
        let read: PlacementReply =
            serde_json::from_str(body).map_err(|e| format!("placement reply: {e}"))?;
        if read.stale {
            return Err("placement read back stale".to_string());
        }
        check_placement(&tenant.problem, &read.placement, read.objective)
    });
    match verdict {
        Ok(checked) => tally.checked(checked),
        Err(why) => tally.fail(why),
    }
    if let Some(warm) = &iteration.warm_reply {
        tally.attempted += 1;
        if let Err(why) = parse_delta_reply(warm) {
            tally.fail(why);
        }
    }
}

/// Median share of a round's wall time that its four client-side phases
/// (`connect`, `send`, `wait`, `read`) account for.
fn client_coverage(spans: &[crate::spans::Span]) -> Result<f64, String> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let shares: Vec<f64> = spans
        .iter()
        .zip(&covered)
        .filter(|(span, _)| span.name == "round" && span.end_ns > span.start_ns)
        .map(|(span, &c)| c as f64 / (span.end_ns - span.start_ns) as f64)
        .collect();
    crate::stats::median(&shares).map_err(|_| "the traced window recorded no round".to_string())
}

pub fn untraced(cfg: &RunCfg) -> Result<Untraced, String> {
    let (setup_s, mut state) = repeat_setup(cfg, ServeWarm::setup)?;
    let tally = state.window(Duration::from_secs_f64(cfg.seconds), &SpanLog::new(false));
    Ok(Untraced { setup_s, tally })
}

pub fn traced(cfg: &RunCfg) -> Result<Traced, String> {
    let mut state = ServeWarm::setup(cfg)?;
    // recording off, then on; the daemon is the same either way
    let share = Duration::from_secs_f64(cfg.seconds / 2.0);
    let real = state.window(share, &SpanLog::new(false));
    let log = SpanLog::new(true);
    let traced = state.window(share, &log);
    let probes = probes::run(&state.probe_input(), cfg.quick)?;
    let spans = log.snapshot();
    Ok(Traced {
        coverage_share: client_coverage(&spans)?,
        overhead_ratio: traced.mean_round_s() / real.mean_round_s(),
        real,
        replays: vec![traced],
        spans,
        probes,
    })
}
