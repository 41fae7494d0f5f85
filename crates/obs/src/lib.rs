#![warn(missing_docs)]

//! # rasa-obs
//!
//! The repository's instrumentation substrate: lightweight counters,
//! log-bucketed histograms and scoped span timers behind a thread-safe
//! [`MetricsRegistry`] whose [`MetricsSnapshot`] serializes to JSON.
//!
//! The paper's headline claims are quantitative — resource-usage
//! reduction, solve-time budgets, migration counts (Figs 5–13) — and
//! partition-and-solve systems live or die by per-subproblem solve
//! statistics. This crate is how every hot layer reports them:
//!
//! * `rasa-lp` — simplex pivots, bound flips, refactorizations, Bland's
//!   rule activations, phase-1 vs phase-2 iterations;
//! * `rasa-mip` — branch-and-bound nodes, prunes, incumbent updates,
//!   final optimality gap;
//! * `rasa-solver` — column-generation pricing rounds, patterns, master
//!   LP re-solves;
//! * `rasa-partition` — stage sizes, cut weights, partition wall time;
//! * `rasa-core` — per-pipeline-stage spans, per-subproblem wall time,
//!   chosen algorithm, fallback-ladder depth, `SolveStatus` tallies, lost
//!   parallel slots.
//!
//! ## Recording model
//!
//! Hot loops never touch the registry per iteration: solvers accumulate
//! plain local counters and *flush once per solve* (a handful of lock
//! acquisitions per subproblem), so instrumentation overhead is far below
//! measurement noise. Long-lived recording sites may also hold an
//! [`Arc`](std::sync::Arc) handle from [`MetricsRegistry::counter`] /
//! [`MetricsRegistry::histogram`] and record lock-free.
//!
//! The process-wide registry behind [`global()`] is what the solver crates
//! flush into; it always records.
//!
//! ```
//! let reg = rasa_obs::MetricsRegistry::new();
//! reg.add("demo.solves", 1);
//! reg.record("demo.latency_secs", 0.125);
//! {
//!     let _span = reg.span("demo.span_secs"); // records on drop
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("demo.solves"), 1);
//! let json = snap.to_json().unwrap();
//! let back = rasa_obs::MetricsSnapshot::from_json(&json).unwrap();
//! assert_eq!(snap, back);
//! ```

pub mod flight;
pub mod labels;
mod metrics;
pub mod prometheus;
mod registry;
mod snapshot;

pub use flight::{
    current_request_context, recorder, set_request_context, with_request_context, ContextGuard,
    FlightConfig, FlightRecorder, FlightRecording, FlightScope, FlightSpan, RequestContext,
    SpanNode, TimedEvent, TraceEvent, BLACKBOX_SCHEMA_VERSION,
};
pub use labels::{labeled_name, sanitize_label, split_labeled, DEFAULT_LABEL_CAP, OTHER_LABEL};
pub use metrics::{Counter, Histogram, BUCKETS};
pub use prometheus::{write_prometheus, MetricsGlossary, PrometheusError};
pub use registry::{global, MetricsRegistry, Span};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};
