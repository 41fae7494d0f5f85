#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! # rasa-sim
//!
//! The cluster/network simulator standing in for the paper's production
//! deployment (Sections III and V-F). It reproduces the mechanism behind
//! Figs 11–13: collocated containers talk over IPC, remote ones over RPC,
//! so the *localized traffic fraction* (per-pair gained affinity) converts
//! directly into end-to-end latency and request error rate.
//!
//! Components:
//!
//! * [`NetworkModel`] — IPC vs RPC latency/error parameters with jitter;
//! * [`DataCollector`] — produces [`ClusterState`] snapshots, re-measuring
//!   traffic with observation noise like the metrics monitoring system;
//! * [`CronJob`] — the half-hourly workflow controller: collect → optimize
//!   → dry-run below the 3% improvement threshold → otherwise migrate via
//!   `rasa-migrate`, with verification-and-rollback;
//! * [`experiment`] — the production experiment: a churning cluster run
//!   twice (WITH RASA and WITHOUT RASA) plus the ONLY-COLLOCATED bound,
//!   producing the normalized time series of Figs 11–13;
//! * [`chaos`] — seeded deterministic fault schedules (correlated machine
//!   deaths, mid-solve deaths, deadline starvation) with a per-step
//!   invariant checker; the crate's one machine-death executor, so a single
//!   failure mid-migration is a two-event schedule;
//! * [`corruption`] — seeded *data*-corruption chaos (NaN/Inf flips,
//!   dangling references, truncated artifacts, poisoned cache entries)
//!   asserting the pipeline's two-gate trust boundary: no panics, no
//!   uncertified placement;
//! * [`soak`] — seeded churn campaign against a live `rasa-serve` daemon
//!   (tenant arrivals/departures, delta storms, slow-loris, disconnects,
//!   corrupted snapshots) asserting zero panics, zero uncertified
//!   publishes, and bounded state;
//! * [`crash`] — seeded kill-9 campaign against the **real** `rasa-serve`
//!   binary with write-ahead journaling on: SIGKILL at quiesce, aborts
//!   mid-append and mid-compaction via `RASA_WAL_CRASH_AT`, and post-kill
//!   journal damage (torn tail, bit flip, truncated segment), asserting
//!   recovered placements are byte-identical to acked certified ones and
//!   that damage quarantines instead of killing the daemon.

pub mod chaos;
pub mod collector;
pub mod corruption;
pub mod crash;
pub mod cronjob;
pub mod experiment;
pub mod network;
pub mod soak;

pub use chaos::{run_chaos, ChaosEvent, ChaosReport, ChaosSchedule, InvariantChecker};
pub use collector::{ClusterState, DataCollector};
pub use corruption::{run_corruption_campaign, CorruptionKind, CorruptionReport, CorruptionRound};
pub use crash::{locate_serve_bin, run_crash_campaign, CrashConfig, CrashReport, CrashRound};
pub use cronjob::{CronJob, CronJobConfig, TickOutcome};
pub use experiment::{run_production_experiment, ExperimentConfig, ExperimentReport, PairSeries};
pub use network::{NetworkModel, NetworkModelError};
pub use soak::{run_soak, SoakConfig, SoakReport};
