//! The daemon: accept loop, worker pool, per-tenant state, and the drain
//! coordinator.
//!
//! Request lifecycle (one `POST /snapshot` or `POST /delta`):
//!
//! 1. **Parse** — bounded read ([`crate::http`]), typed 400/408/413 on
//!    hostile input; JSON bodies report the 1-based line/column where
//!    parsing stopped, like `rasa_trace::persist::PersistError`.
//! 2. **Gate** — draining refuses with 503, the per-tenant circuit
//!    breaker may short-circuit to a stale-but-certified answer, and the
//!    bounded queue sheds overload with `429 + Retry-After`.
//! 3. **Solve** — a worker applies the mutation through the admission
//!    gate and re-solves warm via the session cache under the tenant's
//!    deadline budget. A tenant is scheduled on at most one worker at a
//!    time; its jobs run in arrival order.
//! 4. **Certify & publish** — only placements passing
//!    `certify_placement` are published; an uncertified round leaves the
//!    previous placement in effect and the client is told so at once
//!    (stale), with no in-process retry.
//!
//! Panics are isolated per connection and per solve round; a caught panic
//! is counted, reported to the breaker, and answered with the last
//! certified placement when one exists.

use crate::breaker::{BreakerDecision, BreakerState, CircuitBreaker};
use crate::http::{read_request, HttpError, Request, Response};
use crate::log;
use crate::queue::{BoundedQueue, QueueFull};
use crate::slo::SloTracker;
use crate::wal::{self, CheckpointState, RecoveryOutcome, TenantJournal, WalConfig, WalRecord};
use rasa_core::Deadline;
use rasa_core::{
    AllocationSession, PublishedPlacement, RasaConfig, RestoredPlacement, SessionError,
    SnapshotDelta,
};
use rasa_model::Problem;
use rasa_obs::flight;
use rasa_obs::RequestContext;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Cap for per-request `?deadline_ms=` overrides.
pub const MAX_DEADLINE: Duration = Duration::from_secs(10);

/// How long a handler waits for its round's result before answering 504
/// (the round still completes and publishes).
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Solver worker threads.
    pub workers: usize,
    /// Per-tenant bounded queue capacity (beyond it: 429).
    pub queue_capacity: usize,
    /// Maximum simultaneous tenants (beyond it: 429 on new tenants).
    pub max_tenants: usize,
    /// Socket read timeout; a client quieter than this is dropped (408).
    pub read_timeout: Duration,
    /// Default per-round solve deadline budget.
    pub default_deadline: Duration,
    /// How long an open per-tenant circuit breaker waits before admitting
    /// a probe.
    pub breaker_cooldown: Duration,
    /// Pipeline configuration used by every tenant session.
    pub rasa: RasaConfig,
    /// How long drain waits for in-flight rounds before black-boxing the
    /// still-queued remainder.
    pub drain_grace: Duration,
    /// Where to flush a final Prometheus snapshot on drain (optional).
    pub metrics_flush_path: Option<PathBuf>,
    /// Per-tenant write-ahead journaling ([`crate::wal`]). When set, every
    /// acked snapshot, delta, and certified placement is journaled before
    /// the client sees the 200, and [`Server::bind`] replays the journals
    /// through both trust gates to rebuild tenant state after a crash.
    /// `None` (the default) disables durability.
    pub wal: Option<WalConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 4,
            max_tenants: 64,
            read_timeout: Duration::from_secs(2),
            default_deadline: Duration::from_secs(2),
            breaker_cooldown: Duration::from_secs(10),
            rasa: RasaConfig::default(),
            drain_grace: Duration::from_secs(5),
            metrics_flush_path: None,
            wal: None,
        }
    }
}

/// What graceful drain accomplished.
#[derive(Clone, Copy, Debug)]
pub struct DrainReport {
    /// Wall-clock the drain took.
    pub drain_seconds: f64,
    /// Queued jobs answered `503` and black-boxed instead of solved.
    pub abandoned_jobs: u64,
    /// Rounds that completed after drain began (finished, not dropped).
    pub inflight_completed: u64,
    /// Flight-recorder black-box files written over the process lifetime.
    pub blackbox_dumps: u64,
}

enum JobKind {
    Snapshot(Box<Problem>),
    Delta(SnapshotDelta),
}

struct Job {
    kind: JobKind,
    deadline: Duration,
    probe: bool,
    reply: SyncSender<Response>,
    /// Request identity captured at ingress; the worker re-installs it so
    /// the solve's flight recording and log lines carry the same id.
    ctx: RequestContext,
}

/// The last published placement as readers see it: the session's
/// certified placement plus the request id of the round that produced it.
#[derive(Clone)]
struct PublishedView {
    certified: PublishedPlacement,
    request_id: String,
}

/// Everything about a tenant that is read without the engine lock.
struct TenantState {
    breaker: CircuitBreaker,
    /// The last certified placement — set only after it was journaled.
    published: Option<PublishedView>,
    /// Latest accepted snapshot generation (the session's, readable
    /// without the engine lock).
    generation: u64,
    /// SLO burn-rate accounting over this tenant's allocation requests.
    slo: SloTracker,
    /// Request id of the last allocation request that reached this tenant.
    last_request_id: String,
    /// Verdict of the last round (`"ok"`, `"degraded"`, `"breaker_open"`,
    /// …; `"none"` before the first round).
    last_verdict: &'static str,
    /// Set when recovery found this tenant's journal damaged beyond safe
    /// use: the reason. While set, allocation and placement requests
    /// answer 503 — quarantined state is never served. Cleared only by
    /// `DELETE /tenant` (which also removes the journal directory).
    quarantined: Option<String>,
}

impl TenantState {
    fn breaker_label(&self) -> &'static str {
        match self.breaker.state(Instant::now()) {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// `true` when the published placement predates the latest accepted
    /// snapshot generation.
    fn stale(&self) -> bool {
        self.published
            .as_ref()
            .is_some_and(|v| v.certified.generation < self.generation)
    }

    /// Report a round result to the breaker, counting trips and recoveries.
    fn report(&mut self, success: bool) {
        let obs = rasa_obs::global();
        let (trips, recoveries) = (self.breaker.trips(), self.breaker.recoveries());
        if success {
            self.breaker.on_success();
        } else {
            self.breaker.on_failure(Instant::now());
        }
        if self.breaker.trips() > trips {
            obs.inc("serve.breaker_trips");
        }
        if self.breaker.recoveries() > recoveries {
            obs.inc("serve.breaker_recoveries");
        }
    }
}

/// One tenant behind three locks, each with one job.
///
/// Lock order: `work` → tenants map → `engine` → `journal` → `state`
/// (`work` only ever wraps a map lookup and a queue-length read). `state` is
/// always innermost: while it is held nothing does I/O, sleeps, solves,
/// writes a socket or takes another daemon lock (only the metric
/// registry's and event log's leaf locks). A round journals under
/// `engine` → `journal` and only then publishes in one `state` section,
/// so no reader sees a placement before it is durable.
struct TenantSlot {
    name: String,
    queue: BoundedQueue<Job>,
    /// The session; held for a whole round.
    engine: Mutex<AllocationSession>,
    /// This tenant's open write-ahead journal (`None` when journaling is
    /// disabled, or after a journal write error disabled it).
    journal: Mutex<Option<TenantJournal>>,
    state: Mutex<TenantState>,
}

impl TenantSlot {
    fn state(&self) -> MutexGuard<'_, TenantState> {
        lock_or_recover(&self.state)
    }
}

/// Build a tenant slot around `engine` — used both by ingest (fresh
/// session) and by crash recovery (restored session, whose published
/// placement and generation seed the read-side views).
fn new_slot(
    config: &ServeConfig,
    tenant: &str,
    engine: AllocationSession,
    journal: Option<TenantJournal>,
    quarantined: Option<String>,
) -> Arc<TenantSlot> {
    let state = TenantState {
        breaker: CircuitBreaker::new(config.breaker_cooldown),
        published: engine.published().map(|p| PublishedView {
            certified: p.clone(),
            request_id: String::new(),
        }),
        generation: engine.generation(),
        slo: SloTracker::default(),
        last_request_id: String::new(),
        last_verdict: "none",
        quarantined,
    };
    Arc::new(TenantSlot {
        name: tenant.to_string(),
        queue: BoundedQueue::new(config.queue_capacity),
        engine: Mutex::new(engine),
        journal: Mutex::new(journal),
        state: Mutex::new(state),
    })
}

/// Open a tenant's journal, counting and logging (never propagating) a
/// failure: a tenant whose journal cannot open serves without durability
/// rather than not at all.
fn open_journal(config: &Option<WalConfig>, tenant: &str) -> Option<TenantJournal> {
    let walcfg = config.as_ref()?;
    match TenantJournal::open(walcfg, tenant) {
        Ok(journal) => Some(journal),
        Err(e) => {
            rasa_obs::global().inc("wal.open_errors");
            log::error(
                "wal",
                format!("journal for {tenant} failed to open; serving without durability: {e}"),
            );
            None
        }
    }
}

/// Run `write` against the tenant's journal when one is open. A write
/// error is counted and disables journaling for the tenant (the daemon
/// keeps serving; durability is lost, loudly) — it never fails the round.
fn journal_write(
    slot: &TenantSlot,
    write: impl FnOnce(&mut TenantJournal) -> Result<(), wal::WalError>,
) {
    let mut journal = lock_or_recover(&slot.journal);
    let Some(j) = journal.as_mut() else { return };
    if let Err(e) = write(j) {
        rasa_obs::global().inc("wal.append_errors");
        log::error(
            "wal",
            format!(
                "journal write for {} failed; disabling journaling: {e}",
                slot.name
            ),
        );
        *journal = None;
    }
}

/// The state a checkpoint folds in, borrowed from `session` (`None`
/// before its first snapshot).
fn checkpoint_state(session: &AllocationSession) -> Option<CheckpointState<'_>> {
    Some(CheckpointState {
        problem: session.problem()?,
        published: session.published().map(RestoredPlacement::from),
        rounds: session.rounds(),
        generation: session.generation(),
    })
}

/// Tenants ready for a worker, in arrival order, and the workers' stop
/// flag — under one mutex, so a stop cannot slip between a worker's check
/// and its wait. A tenant stays in `scheduled` from the job that makes it
/// ready until a worker finds its queue empty, so it is in `ready` at most
/// once and never on two workers: a second worker would only block on
/// the first one's `engine` while other tenants wait.
#[derive(Default)]
struct Work {
    ready: VecDeque<String>,
    scheduled: BTreeSet<String>,
    stop: bool,
}

struct Shared {
    config: ServeConfig,
    tenants: Mutex<BTreeMap<String, Arc<TenantSlot>>>,
    work: Mutex<Work>,
    work_cv: Condvar,
    draining: AtomicBool,
    active_rounds: AtomicU64,
    open_connections: AtomicU64,
    abandoned_jobs: AtomicU64,
    inflight_completed: AtomicU64,
}

/// Recover a mutex guard even if a (caught) panic poisoned it: the daemon
/// must keep serving other requests, and the guarded state is structurally
/// valid Rust data either way.
fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn new(config: ServeConfig, tenants: BTreeMap<String, Arc<TenantSlot>>) -> Self {
        Shared {
            config,
            tenants: Mutex::new(tenants),
            work: Mutex::default(),
            work_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            active_rounds: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            abandoned_jobs: AtomicU64::new(0),
            inflight_completed: AtomicU64::new(0),
        }
    }

    /// Call after pushing a job onto `tenant`'s queue.
    fn schedule(&self, tenant: &str) {
        let mut work = lock_or_recover(&self.work);
        if work.scheduled.insert(tenant.to_string()) {
            work.ready.push_back(tenant.to_string());
            self.work_cv.notify_one();
        }
    }

    /// Call when a worker is done with `tenant`'s round: queue it again
    /// behind the other ready tenants if jobs wait, else clear its mark.
    /// The queue is read under `work`, after any concurrent `schedule`'s
    /// push, so no job is stranded; the slot is looked up again because a
    /// tenant removed and re-created meanwhile has a new queue.
    fn finish(&self, tenant: &str) {
        let mut work = lock_or_recover(&self.work);
        if self
            .tenant(tenant)
            .is_some_and(|slot| !slot.queue.is_empty())
        {
            work.ready.push_back(tenant.to_string());
            self.work_cv.notify_one();
        } else {
            work.scheduled.remove(tenant);
        }
    }

    fn tenant(&self, name: &str) -> Option<Arc<TenantSlot>> {
        lock_or_recover(&self.tenants).get(name).cloned()
    }

    /// Every tenant, cloned out so no caller holds the map while it works.
    fn slots(&self) -> Vec<Arc<TenantSlot>> {
        lock_or_recover(&self.tenants).values().cloned().collect()
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }
}

fn valid_tenant(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

/// The daemon. Bind, then either [`Server::run`] on the current thread or
/// keep a [`ServerHandle`] and run on a spawned one; `run` returns the
/// [`DrainReport`] after a graceful drain.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Cloneable remote control for a running [`Server`]: initiate drain,
/// observe drain state.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin graceful drain: stop accepting, finish or black-box in-flight
    /// rounds, flush the flight recorder and metrics. Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// `true` once drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }
}

impl Server {
    /// Bind the listener (non-blocking accept; the loop polls the drain
    /// flag between accepts).
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        // one labeled series per tenant, at most: tie metric-label
        // cardinality to the tenant cap (overflow folds into `other`)
        rasa_obs::global().set_label_cap(config.max_tenants);
        let tenants = recover_tenants(&config);
        let shared = Arc::new(Shared::new(config, tenants));
        Ok(Server { listener, shared })
    }

    /// The bound address (useful with `addr = "127.0.0.1:0"`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A remote-control handle.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serve until drain is initiated (via [`ServerHandle::shutdown`] or
    /// `POST /drain`), then drain gracefully and report.
    pub fn run(self) -> DrainReport {
        let shared = &self.shared;
        let mut workers = Vec::new();
        for i in 0..shared.config.workers.max(1) {
            let s = Arc::clone(shared);
            workers.push(
                thread::Builder::new()
                    .name(format!("rasa-serve-worker-{i}"))
                    .spawn(move || worker_loop(&s))
                    .expect("spawning a worker thread"),
            );
        }

        while !shared.draining.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let s = Arc::clone(shared);
                    s.open_connections.fetch_add(1, Ordering::SeqCst);
                    let spawned = thread::Builder::new()
                        .name("rasa-serve-conn".to_string())
                        .spawn(move || {
                            handle_connection(&s, stream);
                            s.open_connections.fetch_sub(1, Ordering::SeqCst);
                        });
                    if spawned.is_err() {
                        shared.open_connections.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(20));
                }
                Err(_) => thread::sleep(Duration::from_millis(20)),
            }
        }

        drain(shared, workers)
    }
}

/// The startup recovery pass: replay every tenant journal under the WAL
/// root, push each rebuilt state back through **both trust gates**
/// (`AllocationSession::restore` re-admits the problem and re-certifies
/// the placement), and seed the tenant map. Journals too damaged to trust
/// produce quarantined slots that answer 503 until an operator removes
/// the tenant — recovery never panics the daemon and never publishes
/// uncertified state.
fn recover_tenants(config: &ServeConfig) -> BTreeMap<String, Arc<TenantSlot>> {
    let mut tenants = BTreeMap::new();
    let Some(walcfg) = &config.wal else {
        return tenants;
    };
    let obs = rasa_obs::global();
    let started = Instant::now();
    let mut scope = flight::begin_solve("serve.recovery", &[]);
    let mut quarantined_n = 0u64;
    for rec in wal::recover_all(walcfg) {
        if !valid_tenant(&rec.tenant) {
            continue;
        }
        let tenant = rec.tenant;
        let quarantine = |reason: String| {
            obs.inc("recovery.tenants_quarantined");
            flight::emit(|| flight::TraceEvent::RecoveryQuarantine {
                tenant: tenant.clone(),
                reason: reason.clone(),
            });
            log::error("recovery", format!("tenant {tenant} quarantined: {reason}"));
            new_slot(
                config,
                &tenant,
                AllocationSession::new(config.rasa.clone()),
                // leave the damaged journal untouched for forensics
                None,
                Some(reason),
            )
        };
        let slot = match rec.outcome {
            RecoveryOutcome::Empty => continue,
            RecoveryOutcome::Quarantined { reason } => {
                quarantined_n += 1;
                quarantine(reason)
            }
            RecoveryOutcome::Recovered(state) => {
                let restore = catch_unwind(AssertUnwindSafe(|| {
                    AllocationSession::restore(config.rasa.clone(), *state)
                }));
                match restore {
                    Ok(Ok(restored)) => {
                        obs.inc("recovery.tenants_recovered");
                        if restored.stale_placement_dropped {
                            obs.inc("recovery.placements_dropped");
                            log::warn(
                                "recovery",
                                format!(
                                    "tenant {tenant}: journaled placement predated the \
                                     final snapshot and failed re-certification; dropped"
                                ),
                            );
                        }
                        log::info(
                            "recovery",
                            format!(
                                "tenant {tenant} recovered through both gates \
                                 (generation {}, round {})",
                                restored.session.generation(),
                                restored.session.rounds(),
                            ),
                        );
                        // re-open the journal and immediately fold the
                        // recovered state into a checkpoint, so the next
                        // crash replays one compact file instead of the
                        // whole tail again
                        let journal = open_journal(&config.wal, &tenant).map(|mut j| {
                            let state = checkpoint_state(&restored.session)
                                .expect("restored session has a problem");
                            if let Err(e) = j.checkpoint(&state) {
                                log::warn(
                                    "recovery",
                                    format!("post-recovery checkpoint for {tenant} failed: {e}"),
                                );
                            }
                            j
                        });
                        new_slot(config, &tenant, restored.session, journal, None)
                    }
                    Ok(Err(e)) => {
                        quarantined_n += 1;
                        quarantine(format!("restored state failed the trust gates: {e}"))
                    }
                    Err(_) => {
                        quarantined_n += 1;
                        quarantine("restore panicked".to_string())
                    }
                }
            }
        };
        tenants.insert(slot.name.clone(), slot);
    }
    let seconds = started.elapsed().as_secs_f64();
    obs.record("recovery.seconds", seconds);
    scope.set_verdict(
        if quarantined_n > 0 {
            "quarantined"
        } else {
            "ok"
        },
        quarantined_n > 0,
    );
    drop(scope);
    if !tenants.is_empty() {
        log::info(
            "recovery",
            format!(
                "recovered {} tenant(s) in {seconds:.3}s ({quarantined_n} quarantined)",
                tenants.len()
            ),
        );
    }
    tenants
}

/// The drain coordinator: give in-flight work a grace window, then answer
/// and black-box whatever is still queued, stop the workers, and flush.
fn drain(shared: &Arc<Shared>, workers: Vec<thread::JoinHandle<()>>) -> DrainReport {
    let obs = rasa_obs::global();
    let started = Instant::now();
    log::info("drain", "graceful drain started");

    // Phase 1: let workers finish queued + in-flight rounds.
    while started.elapsed() < shared.config.drain_grace {
        let queued: usize = shared.slots().iter().map(|t| t.queue.len()).sum();
        let busy = shared.active_rounds.load(Ordering::SeqCst) > 0
            || shared.open_connections.load(Ordering::SeqCst) > 0
            || queued > 0;
        if !busy {
            break;
        }
        thread::sleep(Duration::from_millis(20));
    }

    // Phase 2: whatever is still queued gets an explicit 503 and a
    // black-box dump — never a silent drop.
    let tenants = shared.slots();
    for slot in &tenants {
        for job in slot.queue.drain() {
            if job.probe {
                slot.state().breaker.abandon_probe();
            }
            // re-install the job's request identity so its black box and
            // log line are joinable to the 503 the client received
            let _ctx = flight::with_request_context(job.ctx.clone());
            let mut scope =
                flight::begin_solve("serve.drain_abandon", &[("tenant", slot.name.clone())]);
            scope.set_verdict("drained", true);
            drop(scope);
            log::warn("drain", format!("abandoned queued job for {}", slot.name));
            obs.inc("serve.drained_jobs");
            shared.abandoned_jobs.fetch_add(1, Ordering::SeqCst);
            let _ = job.reply.try_send(
                Response::json(503, "{\"error\":\"draining\"}".to_string())
                    .with_header("Retry-After", "10".to_string()),
            );
        }
    }

    // Phase 3: stop and join the worker pool (a worker mid-round finishes
    // it first; rounds are deadline-bounded).
    lock_or_recover(&shared.work).stop = true;
    shared.work_cv.notify_all();
    for w in workers {
        let _ = w.join();
    }

    // Phase 4: flush observability.
    let drain_seconds = started.elapsed().as_secs_f64();
    obs.record("serve.drain_seconds", drain_seconds);
    if let Some(path) = &shared.config.metrics_flush_path {
        let snapshot = obs.snapshot();
        match rasa_obs::write_prometheus(&snapshot, rasa_obs::MetricsGlossary::builtin()) {
            Ok(text) => {
                if let Err(e) = std::fs::write(path, text) {
                    log::error(
                        "drain",
                        format!("metrics flush to {} failed: {e}", path.display()),
                    );
                }
            }
            Err(e) => log::error("drain", format!("metrics flush failed: {e}")),
        }
    }
    log::info("drain", format!("drain finished in {drain_seconds:.3}s"));

    DrainReport {
        drain_seconds,
        abandoned_jobs: shared.abandoned_jobs.load(Ordering::SeqCst),
        inflight_completed: shared.inflight_completed.load(Ordering::SeqCst),
        blackbox_dumps: flight::recorder().dumps_written(),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let name = {
            let mut work = lock_or_recover(&shared.work);
            loop {
                if let Some(n) = work.ready.pop_front() {
                    break n;
                }
                if work.stop {
                    return;
                }
                work = shared
                    .work_cv
                    .wait(work)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if let Some(slot) = shared.tenant(&name) {
            process_one(shared, &slot);
        }
        shared.finish(&name);
    }
}

/// Pop and run one job for `slot`, with panic isolation around the round.
fn process_one(shared: &Arc<Shared>, slot: &Arc<TenantSlot>) {
    let Some(job) = slot.queue.pop() else { return };
    let obs = rasa_obs::global();
    obs.inc("serve.rounds");
    shared.active_rounds.fetch_add(1, Ordering::SeqCst);
    let started = Instant::now();
    let draining = shared.draining.load(Ordering::SeqCst);

    // `probe` only matters to a job abandoned before it runs
    let Job {
        kind,
        deadline,
        reply,
        ctx,
        ..
    } = job;
    // the worker thread adopts the request's identity for the round, so
    // flight recordings and log lines carry the ingress request id
    let _ctx_guard = flight::with_request_context(ctx);
    let outcome = catch_unwind(AssertUnwindSafe(|| run_round(slot, kind, deadline)));
    let response = match outcome {
        Ok(response) => response,
        Err(_) => {
            // The pipeline has its own panic guards, so reaching this belt
            // means something outside them blew up. Count it, penalize the
            // breaker, serve stale if possible.
            obs.inc("serve.solve_panics");
            stale_or_unavailable(slot, "solve_panicked", true)
        }
    };
    obs.record_duration("serve.round_seconds", started.elapsed());
    let _ = reply.try_send(response);
    if draining {
        shared.inflight_completed.fetch_add(1, Ordering::SeqCst);
    }
    shared.active_rounds.fetch_sub(1, Ordering::SeqCst);
}

/// Apply the job's mutation and solve once. Returns the response to send.
/// The mutation and the certified placement are journaled first; the
/// published view, verdict and breaker then change in one `state` section.
fn run_round(slot: &Arc<TenantSlot>, kind: JobKind, deadline: Duration) -> Response {
    let obs = rasa_obs::global();
    let mut session = lock_or_recover(&slot.engine);

    let is_delta = matches!(kind, JobKind::Delta(_));
    let (admission, wal_record) = match kind {
        JobKind::Snapshot(problem) => {
            obs.inc("serve.snapshots");
            let report = session.apply_snapshot(&problem);
            // journal the POST-admission repaired problem, so replay
            // re-admits byte-identical state without re-repairing
            let admitted = session.problem().cloned().unwrap_or(*problem);
            (report, WalRecord::snapshot(session.generation(), admitted))
        }
        JobKind::Delta(delta) => {
            obs.inc("serve.deltas");
            match session.apply_delta(&delta) {
                Ok(report) => (report, WalRecord::delta(session.generation(), delta)),
                Err(e) => {
                    obs.inc("serve.delta_rejected");
                    return Response::json(
                        422,
                        format!("{{\"error\":\"delta_rejected\",\"detail\":\"{e}\"}}"),
                    );
                }
            }
        }
    };
    // journal the accepted mutation *before* solving: the 200 below
    // implies the state change is already durable (under fsync-always)
    journal_write(slot, |j| j.append(&wal_record));
    slot.state().generation = session.generation();

    let mut scope = flight::begin_solve("serve.round", &[("tenant", slot.name.clone())]);
    match session.resolve(Deadline::after(deadline)) {
        Ok(round) => {
            let verdict = if round.degraded { "degraded" } else { "ok" };
            scope.set_verdict(verdict, round.degraded);
            drop(scope);
            obs.inc("serve.rounds_published");
            if round.degraded {
                obs.inc("serve.rounds_degraded");
                log::warn(
                    "serve",
                    format!("degraded round {} published for {}", round.round, slot.name),
                );
            }
            // the placement passed Gate 2 — journal it and compact if
            // the journal is due, and only then let readers see it
            let certified = session.published().expect("a resolved round publishes");
            journal_write(slot, |j| {
                j.append(&WalRecord::placement(certified.into()))?;
                match checkpoint_state(&session) {
                    Some(state) if j.needs_checkpoint() => j.checkpoint(&state),
                    _ => Ok(()),
                }
            });
            let view = PublishedView {
                certified: certified.clone(),
                request_id: round.request_id.clone().unwrap_or_default(),
            };
            {
                let mut state = slot.state();
                state.published = Some(view);
                state.last_verdict = verdict;
                // A degraded round is still published (it certified),
                // but it counts as ladder exhaustion for the breaker.
                state.report(!round.degraded);
            }
            let (hits, misses) = round
                .run
                .cache
                .as_ref()
                .map(|c| (c.hits, c.misses))
                .unwrap_or((0, 0));
            if is_delta {
                // the split the published round itself solved by: a
                // miss (poisoned entries included) was dirty, a hit
                // was reused
                obs.add("serve.delta_dirty", misses as u64);
                obs.add("serve.delta_unchanged", hits as u64);
            }
            Response::json(
                200,
                format!(
                    "{{\"tenant\":\"{}\",\"accepted\":true,\"certified\":true,\"stale\":false,\
                     \"round\":{},\"objective\":{:.6},\"normalized\":{:.6},\"degraded\":{},\
                     \"cache\":{{\"hits\":{hits},\"misses\":{misses}}},\
                     \"admission\":{{\"clean\":{},\"quarantined_services\":{},\"quarantined_machines\":{}}}}}",
                    slot.name,
                    round.round,
                    round.objective,
                    round.normalized,
                    round.degraded,
                    admission.is_clean(),
                    admission.quarantined_services.len(),
                    admission.quarantined_machines.len(),
                ),
            )
        }
        Err(SessionError::Uncertified(_)) => {
            scope.set_verdict("uncertified", true);
            drop(scope);
            obs.inc("serve.uncertified_rejected");
            stale_or_unavailable(slot, "uncertified", true)
        }
        Err(e) => {
            scope.set_verdict("rejected", true);
            drop(scope);
            slot.state().last_verdict = "rejected";
            Response::json(
                422,
                format!("{{\"error\":\"rejected\",\"detail\":\"{e}\"}}"),
            )
        }
    }
}

/// Degraded-mode answer: the last certified placement with `stale: true`,
/// or 503 when this tenant has never published. Records `reason` as the
/// round's verdict and, when `failed`, a breaker failure — in the same
/// `state` section that reads the placement.
fn stale_or_unavailable(slot: &TenantSlot, reason: &'static str, failed: bool) -> Response {
    let obs = rasa_obs::global();
    let published = {
        let mut state = slot.state();
        if failed {
            state.report(false);
        }
        state.last_verdict = reason;
        state.published.as_ref().map(|v| {
            (
                v.certified.round,
                v.certified.objective,
                v.certified.normalized,
            )
        })
    };
    log::warn(
        "serve",
        format!("serving degraded answer for {}: {reason}", slot.name),
    );
    match published {
        Some((round, objective, normalized)) => {
            obs.inc("serve.stale_served");
            Response::json(
                200,
                format!(
                    "{{\"tenant\":\"{}\",\"accepted\":false,\"certified\":true,\"stale\":true,\
                     \"round\":{round},\"objective\":{objective:.6},\"normalized\":{normalized:.6},\"reason\":\"{reason}\"}}",
                    slot.name,
                ),
            )
        }
        None => Response::json(
            503,
            format!("{{\"error\":\"{reason}\",\"stale\":true,\"no_placement\":true}}"),
        )
        .with_header("Retry-After", "5".to_string()),
    }
}

/// Per-connection entry point with panic isolation.
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        handle_request(shared, &mut stream);
    }));
    if result.is_err() {
        rasa_obs::global().inc("serve.connection_panics");
        let _ = Response::json(500, "{\"error\":\"internal\"}".to_string()).write_to(&mut stream);
    }
}

fn handle_request(shared: &Arc<Shared>, stream: &mut TcpStream) {
    let obs = rasa_obs::global();
    let started = Instant::now();
    // The listener is non-blocking and the accepted socket inherits that on
    // some platforms; the parser sets its own read timeout.
    let _ = stream.set_nonblocking(false);
    let request = match read_request(stream, shared.config.read_timeout) {
        Ok(request) => request,
        Err(error) => {
            let status = match &error {
                HttpError::Timeout => {
                    obs.inc("serve.read_timeouts");
                    Some(408)
                }
                HttpError::BodyTooLarge { .. } => {
                    obs.inc("serve.payload_too_large");
                    Some(413)
                }
                HttpError::Malformed(_) => {
                    obs.inc("serve.bad_requests");
                    Some(400)
                }
                HttpError::Disconnected | HttpError::Io(_) => {
                    obs.inc("serve.disconnects");
                    None
                }
            };
            if let Some(status) = status {
                let _ =
                    Response::json(status, format!("{{\"error\":\"{error}\"}}")).write_to(stream);
            }
            obs.record_duration("serve.request_seconds", started.elapsed());
            return;
        }
    };
    obs.inc("serve.requests");
    // Adopt the caller's X-Rasa-Request-Id (or mint one) as this thread's
    // ambient identity: every span, black box, and log line below joins
    // on it, and the response echoes it back.
    let request_id = request_identity(&request);
    let tenant_label = request
        .param("tenant")
        .filter(|t| valid_tenant(t))
        .unwrap_or("")
        .to_string();
    let _ctx = flight::with_request_context(RequestContext::new(request_id.clone(), tenant_label));
    let response = route(shared, &request).with_header("X-Rasa-Request-Id", request_id);
    let status = response.status;
    let _ = response.write_to(stream);
    let elapsed = started.elapsed();
    obs.record_duration("serve.request_seconds", elapsed);
    finish_slo(shared, &request, status, elapsed);
}

/// The request id this request runs under: the caller's
/// `X-Rasa-Request-Id` when it is 1–48 chars of `[A-Za-z0-9_-]`, else a
/// daemon-minted `r<hex>` id.
fn request_identity(request: &Request) -> String {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    match request.header("x-rasa-request-id") {
        Some(id)
            if !id.is_empty()
                && id.len() <= 48
                && id
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_') =>
        {
            id.to_string()
        }
        _ => format!("r{:06x}", SEQ.fetch_add(1, Ordering::Relaxed)),
    }
}

/// Score one finished allocation request against the tenant's SLO
/// objectives and tally the labeled `slo.*` / latency series.
fn finish_slo(shared: &Arc<Shared>, request: &Request, status: u16, elapsed: Duration) {
    if request.method != "POST" || !matches!(request.path.as_str(), "/snapshot" | "/delta") {
        return;
    }
    let Some(tenant) = request.param("tenant") else {
        return;
    };
    if !valid_tenant(tenant) {
        return;
    }
    let Some(slot) = shared.tenant(tenant) else {
        return;
    };
    let obs = rasa_obs::global();
    obs.record_duration_labeled("serve.request_seconds", tenant, elapsed);
    obs.inc_labeled("slo.events", tenant);
    let (available, latency_ok) = slot.state().slo.record(status, elapsed);
    if !available {
        obs.inc_labeled("slo.unavailable", tenant);
    }
    if !latency_ok {
        obs.inc_labeled("slo.latency_misses", tenant);
    }
}

fn route(shared: &Arc<Shared>, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz_response(shared),
        ("GET", "/metrics") => metrics_response(),
        ("GET", "/placement") => placement_response(shared, request),
        ("GET", "/tenants") => tenants_response(shared),
        ("GET", "/debug/log") => debug_log_response(request),
        ("POST", "/snapshot") => ingest(shared, request, true),
        ("POST", "/delta") => ingest(shared, request, false),
        ("DELETE", "/tenant") => remove_tenant(shared, request),
        ("POST", "/drain") => {
            shared.begin_drain();
            Response::json(202, "{\"draining\":true}".to_string())
        }
        (
            _,
            "/healthz" | "/metrics" | "/placement" | "/tenants" | "/debug/log" | "/snapshot"
            | "/delta" | "/tenant" | "/drain",
        ) => Response::json(405, "{\"error\":\"method not allowed\"}".to_string()),
        _ => Response::json(404, "{\"error\":\"not found\"}".to_string()),
    }
}

/// Liveness with honesty: `200 ok` only while nothing is degraded. Drain
/// in progress or any open per-tenant breaker reports `503 degraded` with
/// the reasons, so orchestrators stop routing to a daemon that is already
/// shedding load.
fn healthz_response(shared: &Arc<Shared>) -> Response {
    let draining = shared.draining.load(Ordering::SeqCst);
    let mut reasons: Vec<String> = Vec::new();
    if draining {
        reasons.push("\"draining\"".to_string());
    }
    let now = Instant::now();
    let tenants = shared.slots();
    for slot in &tenants {
        let state = slot.state();
        if state.breaker.state(now) == BreakerState::Open {
            reasons.push(format!("\"breaker_open:{}\"", slot.name));
        }
        if state.quarantined.is_some() {
            reasons.push(format!("\"quarantined:{}\"", slot.name));
        }
    }
    if reasons.is_empty() {
        Response::json(200, "{\"status\":\"ok\",\"draining\":false}".to_string())
    } else {
        Response::json(
            503,
            format!(
                "{{\"status\":\"degraded\",\"draining\":{draining},\"reasons\":[{}]}}",
                reasons.join(",")
            ),
        )
    }
}

/// `GET /tenants`: one row per tenant — breaker state, queue depth, last
/// round verdict, last request id, and the 5m/1h SLO burn rates.
fn tenants_response(shared: &Arc<Shared>) -> Response {
    let tenants = shared.slots();
    let mut rows = Vec::with_capacity(tenants.len());
    for slot in &tenants {
        let queue_depth = slot.queue.len();
        let state = slot.state();
        let published_round = state
            .published
            .as_ref()
            .map_or("null".to_string(), |v| v.certified.round.to_string());
        let (short, long) = (state.slo.burn_short(), state.slo.burn_long());
        rows.push(format!(
            "{{\"tenant\":\"{}\",\"breaker\":\"{}\",\"queue_depth\":{queue_depth},\
             \"last_request_id\":\"{}\",\"last_verdict\":\"{}\",\
             \"published_round\":{published_round},\"stale\":{},\
             \"quarantined\":{},\
             \"slo\":{{\"events_5m\":{},\"latency_burn_5m\":{:.4},\"availability_burn_5m\":{:.4},\
             \"events_1h\":{},\"latency_burn_1h\":{:.4},\"availability_burn_1h\":{:.4}}}}}",
            slot.name,
            state.breaker_label(),
            state.last_request_id,
            state.last_verdict,
            state.stale(),
            state.quarantined.is_some(),
            short.events,
            short.latency,
            short.availability,
            long.events,
            long.latency,
            long.availability,
        ));
    }
    Response::json(200, format!("{{\"tenants\":[{}]}}", rows.join(",")))
}

/// `GET /debug/log?tail=N`: the newest structured-log entries as JSON
/// (`N` defaults to 64, capped at 1024).
fn debug_log_response(request: &Request) -> Response {
    let n = request
        .param("tail")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(64)
        .clamp(1, 1024);
    Response::json(200, log::event_log().tail_json(n))
}

fn metrics_response() -> Response {
    let snapshot = rasa_obs::global().snapshot();
    match rasa_obs::write_prometheus(&snapshot, rasa_obs::MetricsGlossary::builtin()) {
        Ok(text) => Response::text(200, text),
        Err(e) => Response::text(500, format!("metrics exposition failed: {e}\n")),
    }
}

fn tenant_param(request: &Request) -> Result<&str, Response> {
    match request.param("tenant") {
        Some(name) if valid_tenant(name) => Ok(name),
        Some(_) => {
            rasa_obs::global().inc("serve.bad_requests");
            Err(Response::json(
                400,
                "{\"error\":\"tenant must be 1-64 chars of [A-Za-z0-9_-]\"}".to_string(),
            ))
        }
        None => {
            rasa_obs::global().inc("serve.bad_requests");
            Err(Response::json(
                400,
                "{\"error\":\"missing tenant parameter\"}".to_string(),
            ))
        }
    }
}

/// The 503 a quarantined tenant answers to allocation and placement
/// requests.
fn quarantined(reason: &str) -> Response {
    rasa_obs::global().inc("serve.rejected_quarantined");
    Response::json(
        503,
        format!("{{\"error\":\"quarantined\",\"detail\":\"{reason}\"}}"),
    )
    .with_header("Retry-After", "30".to_string())
}

fn placement_response(shared: &Arc<Shared>, request: &Request) -> Response {
    let tenant = match tenant_param(request) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let Some(slot) = shared.tenant(tenant) else {
        return Response::json(404, "{\"error\":\"unknown tenant\"}".to_string());
    };
    let (view, stale, breaker) = {
        let state = slot.state();
        if let Some(reason) = &state.quarantined {
            return quarantined(reason);
        }
        let Some(view) = state.published.clone() else {
            return Response::json(
                404,
                "{\"error\":\"no placement published yet\"}".to_string(),
            );
        };
        (view, state.stale(), state.breaker_label())
    };
    let p = &view.certified;
    let placement_json = match serde_json::to_string(&p.placement) {
        Ok(j) => j,
        Err(_) => return Response::json(500, "{\"error\":\"serialize\"}".to_string()),
    };
    Response::json(
        200,
        format!(
            "{{\"tenant\":\"{tenant}\",\"round\":{},\"generation\":{},\"stale\":{stale},\
             \"breaker\":\"{breaker}\",\"request_id\":\"{}\",\"objective\":{:.6},\
             \"normalized\":{:.6},\"placement\":{placement_json}}}",
            p.round, p.generation, view.request_id, p.objective, p.normalized,
        ),
    )
}

fn remove_tenant(shared: &Arc<Shared>, request: &Request) -> Response {
    let tenant = match tenant_param(request) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let removed = lock_or_recover(&shared.tenants).remove(tenant);
    match removed {
        Some(slot) => {
            rasa_obs::global().inc("serve.tenants_removed");
            for job in slot.queue.drain() {
                let _ = job.reply.try_send(Response::json(
                    503,
                    "{\"error\":\"tenant removed\"}".to_string(),
                ));
            }
            // drop the open journal handle before deleting its directory;
            // this is also how an operator clears a quarantined journal
            *lock_or_recover(&slot.journal) = None;
            if let Some(walcfg) = &shared.config.wal {
                if let Err(e) = wal::remove_tenant_journal(&walcfg.root, tenant) {
                    log::warn("wal", format!("journal removal for {tenant} failed: {e}"));
                }
            }
            Response::json(200, format!("{{\"tenant\":\"{tenant}\",\"removed\":true}}"))
        }
        None => Response::json(404, "{\"error\":\"unknown tenant\"}".to_string()),
    }
}

/// Body-parse failures answer 400 with the same line/column reporting
/// `rasa_trace::persist::PersistError` gives for on-disk artifacts.
fn bad_body(error: &serde_json::Error) -> Response {
    rasa_obs::global().inc("serve.bad_requests");
    let (line, column) = (error.line(), error.column());
    let position = match (line, column) {
        (Some(l), Some(c)) => format!("\"line\":{l},\"column\":{c},"),
        _ => String::new(),
    };
    // serde_json's encoder escapes what the message may quote: quotes,
    // backslashes, control characters
    let detail = serde_json::to_string(&error.to_string()).expect("a string always serializes");
    Response::json(
        400,
        format!("{{\"error\":\"malformed json\",{position}\"detail\":{detail}}}"),
    )
}

fn ingest(shared: &Arc<Shared>, request: &Request, is_snapshot: bool) -> Response {
    let obs = rasa_obs::global();
    if shared.draining.load(Ordering::SeqCst) {
        obs.inc("serve.rejected_draining");
        return Response::json(503, "{\"error\":\"draining\"}".to_string())
            .with_header("Retry-After", "10".to_string());
    }
    let tenant = match tenant_param(request) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    obs.inc_labeled("serve.requests", tenant);
    let kind = if is_snapshot {
        match serde_json::from_str::<Problem>(&request.body) {
            Ok(problem) => JobKind::Snapshot(Box::new(problem)),
            Err(e) => return bad_body(&e),
        }
    } else {
        match serde_json::from_str::<SnapshotDelta>(&request.body) {
            Ok(delta) => JobKind::Delta(delta),
            Err(e) => return bad_body(&e),
        }
    };
    let deadline = match request.param("deadline_ms") {
        None => shared.config.default_deadline,
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) if ms > 0 => Duration::from_millis(ms).min(MAX_DEADLINE),
            _ => {
                obs.inc("serve.bad_requests");
                return Response::json(
                    400,
                    "{\"error\":\"deadline_ms must be a positive integer\"}".to_string(),
                );
            }
        },
    };

    let slot = {
        let mut tenants = lock_or_recover(&shared.tenants);
        match tenants.get(tenant) {
            Some(slot) => Arc::clone(slot),
            None => {
                if tenants.len() >= shared.config.max_tenants {
                    obs.inc("serve.rejected_tenant_capacity");
                    return Response::json(
                        429,
                        "{\"error\":\"tenant capacity reached\"}".to_string(),
                    )
                    .with_header("Retry-After", "30".to_string());
                }
                obs.inc("serve.tenants_created");
                let slot = new_slot(
                    &shared.config,
                    tenant,
                    AllocationSession::new(shared.config.rasa.clone()),
                    open_journal(&shared.config.wal, tenant),
                    None,
                );
                tenants.insert(tenant.to_string(), Arc::clone(&slot));
                slot
            }
        }
    };
    let ctx = flight::current_request_context().unwrap_or_default();
    let decision = {
        let mut state = slot.state();
        // A quarantined tenant's journal is damaged: serving (or mutating)
        // it would publish state the trust gates never re-validated. 503
        // until an operator removes the tenant.
        if let Some(reason) = &state.quarantined {
            return quarantined(reason);
        }
        state.last_request_id = ctx.request_id.clone();
        state.breaker.admit(Instant::now())
    };
    // Circuit breaker gate. While open, the mutation is NOT applied — the
    // client gets the last certified placement (stale) plus a Retry-After,
    // and should re-send after the cooldown.
    let probe = match decision {
        BreakerDecision::Solve => false,
        BreakerDecision::Probe => true,
        BreakerDecision::ServeStale => {
            return stale_or_unavailable(&slot, "breaker_open", false)
                .with_header("Retry-After", "5".to_string());
        }
    };

    let (tx, rx) = sync_channel(1);
    let job = Job {
        kind,
        deadline,
        probe,
        reply: tx,
        ctx,
    };
    match slot.queue.try_push(job) {
        Ok(depth) => obs.record("serve.queue_depth", depth as f64),
        Err(QueueFull(job)) => {
            if job.probe {
                slot.state().breaker.abandon_probe();
            }
            obs.inc("serve.rejected_queue_full");
            let retry_after = shared.config.default_deadline.as_secs().max(1);
            return Response::json(
                429,
                format!(
                    "{{\"error\":\"queue full\",\"tenant\":\"{tenant}\",\"capacity\":{}}}",
                    slot.queue.capacity()
                ),
            )
            .with_header("Retry-After", retry_after.to_string());
        }
    }
    shared.schedule(tenant);

    match rx.recv_timeout(REQUEST_TIMEOUT) {
        Ok(response) => response,
        Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
            obs.inc("serve.request_timeouts");
            log::warn(
                "serve",
                format!("request timed out awaiting round for {tenant}"),
            );
            Response::json(
                504,
                "{\"error\":\"round still running; poll /placement\"}".to_string(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A daemon core with `names` as tenants and no listener or workers:
    /// the tests below play the workers' part step by step.
    fn core(names: &[&str]) -> Shared {
        let config = ServeConfig::default();
        let tenants = names
            .iter()
            .map(|&name| {
                let session = AllocationSession::new(config.rasa.clone());
                (
                    name.to_string(),
                    new_slot(&config, name, session, None, None),
                )
            })
            .collect();
        Shared::new(config, tenants)
    }

    /// What `ingest` does once a request is accepted: queue the job, then
    /// schedule the tenant.
    fn ingest_job(shared: &Shared, tenant: &str) {
        let slot = shared.tenant(tenant).expect("known tenant");
        let job = Job {
            kind: JobKind::Delta(SnapshotDelta::default()),
            deadline: Duration::from_secs(1),
            probe: false,
            reply: sync_channel(1).0,
            ctx: RequestContext::default(),
        };
        assert!(slot.queue.try_push(job).is_ok(), "queue has room");
        shared.schedule(tenant);
    }

    /// A worker's wait, without the wait: the next ready tenant, if any.
    fn take(shared: &Shared) -> Option<String> {
        lock_or_recover(&shared.work).ready.pop_front()
    }

    /// A worker's round, without the solve: pop one job of `tenant`.
    fn pop_job(shared: &Shared, tenant: &str) {
        let slot = shared.tenant(tenant).expect("known tenant");
        assert!(slot.queue.pop().is_some(), "a scheduled tenant has a job");
    }

    #[test]
    fn a_tenant_is_never_handed_to_two_workers_at_once() {
        let shared = core(&["a", "b"]);
        ingest_job(&shared, "a");
        ingest_job(&shared, "a");
        ingest_job(&shared, "b");

        // two idle workers: one gets `a`, the other `b`, never `a` twice
        let first = take(&shared);
        let second = take(&shared);
        assert_eq!(first.as_deref(), Some("a"));
        assert_eq!(second.as_deref(), Some("b"));
        assert_eq!(
            take(&shared),
            None,
            "`a` is ready once though it has two jobs"
        );

        // the first worker's round leaves a job behind: `a` is ready again
        pop_job(&shared, "a");
        shared.finish("a");
        pop_job(&shared, "b");
        shared.finish("b");
        assert_eq!(take(&shared).as_deref(), Some("a"));
        assert_eq!(take(&shared), None);
        pop_job(&shared, "a");
        shared.finish("a");
        assert_eq!(take(&shared), None, "nothing queued, nothing ready");
        let work = lock_or_recover(&shared.work);
        assert!(work.scheduled.is_empty() && work.ready.is_empty());
    }

    #[test]
    fn a_job_pushed_between_the_last_pop_and_finish_still_runs() {
        let shared = core(&["a"]);
        ingest_job(&shared, "a");
        assert_eq!(take(&shared).as_deref(), Some("a"));
        pop_job(&shared, "a");

        // a request lands while the round runs: its tenant is still
        // scheduled, so it is not handed to a second worker ...
        ingest_job(&shared, "a");
        assert_eq!(take(&shared), None);
        // ... and the finishing worker sees the job and re-queues `a`
        shared.finish("a");
        assert_eq!(take(&shared).as_deref(), Some("a"));
        pop_job(&shared, "a");
        shared.finish("a");

        // once the mark is clear, the next job schedules the tenant afresh
        ingest_job(&shared, "a");
        assert_eq!(take(&shared).as_deref(), Some("a"));
    }

    #[test]
    fn finishing_a_removed_tenant_clears_its_mark() {
        let shared = core(&["a"]);
        ingest_job(&shared, "a");
        assert_eq!(take(&shared).as_deref(), Some("a"));
        lock_or_recover(&shared.tenants).remove("a");
        shared.finish("a");
        assert!(lock_or_recover(&shared.work).scheduled.is_empty());
    }
}
