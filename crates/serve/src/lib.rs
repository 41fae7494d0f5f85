#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! # rasa-serve
//!
//! The crash-tolerant long-running allocation daemon: cluster snapshots
//! and incremental deltas arrive over HTTP/1.1 + JSON, are admitted
//! through the `ProblemValidator` gate, re-solved warm via the session
//! `SolveCache`, certified, and published — continuously, per tenant,
//! under overload.
//!
//! The transport is deliberately boring (`std::net::TcpListener`, one
//! request per connection); the substance is the resilience layer:
//!
//! * **Backpressure** — per-tenant [`BoundedQueue`]s; a full queue answers
//!   `429 Too Many Requests` + `Retry-After` instead of buffering without
//!   bound ([`queue`]).
//! * **Deadline budgets** — every round runs under a per-tenant deadline
//!   that the pipeline's wave-based slicing subdivides across subproblems.
//! * **Certified or stale** — a round that fails certification is not
//!   applied: the client is answered at once with the last certified
//!   placement (`stale: true`), and the next request solves again.
//! * **Circuit breaking** — repeated ladder exhaustion trips a per-tenant
//!   [`CircuitBreaker`]; while open, the daemon serves the last *certified*
//!   placement with `stale: true` rather than erroring ([`breaker`]).
//! * **Panic isolation** — per connection and per solve round; a caught
//!   panic is counted, penalized, and degraded around, never fatal.
//! * **Graceful drain** — stop accepting, finish or black-box in-flight
//!   rounds, flush the flight recorder and metrics ([`server`]).
//! * **Request-scoped tracing** — every request adopts (or is minted) an
//!   `X-Rasa-Request-Id` that propagates through the solve to every span,
//!   black-box dump, and structured-log entry ([`log`]).
//! * **Per-tenant SLOs** — latency/availability objectives scored with
//!   5m/1h burn rates, surfaced by `GET /tenants` and `slo.*` metrics
//!   ([`slo`]).
//!
//! See `docs/ARCHITECTURE.md` ("Service layer") for the request lifecycle
//! and `docs/METRICS.md` for the `serve.*` metric glossary.

pub mod breaker;
pub mod http;
pub mod log;
pub mod queue;
pub mod server;
pub mod slo;
pub mod wal;

pub use breaker::{BreakerDecision, BreakerState, CircuitBreaker};
pub use http::{HttpError, Request, Response};
pub use log::{event_log, EventLog, LogEntry, LogLevel};
pub use queue::{BoundedQueue, QueueFull};
pub use server::{DrainReport, ServeConfig, Server, ServerHandle};
pub use slo::{SloBurn, SloTracker};
pub use wal::{
    recover_all, recover_tenant, RecoveredTenant, RecoveryOutcome, ReplayStats, SyncPolicy,
    TenantJournal, WalConfig, WalError, WalRecord,
};
