#![warn(missing_docs)]

//! # rasa-core
//!
//! The end-to-end **RASA algorithm** (Section IV of *"Resource Allocation
//! with Service Affinity in Large-Scale Cloud Environments"*, ICDE 2024)
//! and the crate downstream users depend on.
//!
//! The pipeline is the paper's three phases:
//!
//! 1. **Service partitioning** (`rasa-partition`) — multi-stage analysis of
//!    the affinity graph produces small *crucial* subproblems and a pile of
//!    *trivial* services;
//! 2. **Algorithm selection + solving** (`rasa-select`, `rasa-solver`) — a
//!    selector (GCN by default in the paper; pluggable here) routes each
//!    subproblem to the MIP-based or column-generation algorithm, solved
//!    independently (optionally on parallel threads) under the global
//!    deadline, and the solutions are merged;
//! 3. **Migration path** (`rasa-migrate`) — an executable delete/create
//!    plan transitions the running cluster to the new mapping under the
//!    relaxed 75%-alive SLA.
//!
//! ```
//! use rasa_core::{RasaConfig, RasaPipeline};
//! use rasa_core::Deadline;
//! use rasa_model::{ProblemBuilder, ResourceVec, FeatureMask};
//!
//! let mut b = ProblemBuilder::new();
//! let web = b.add_service("web", 2, ResourceVec::cpu_mem(500.0, 1024.0));
//! let cache = b.add_service("cache", 4, ResourceVec::cpu_mem(250.0, 2048.0));
//! b.add_machines(3, ResourceVec::cpu_mem(4000.0, 16384.0), FeatureMask::EMPTY);
//! b.add_affinity(web, cache, 100.0); // traffic volume
//! let problem = b.build().unwrap();
//!
//! let pipeline = RasaPipeline::new(RasaConfig::default());
//! let run = pipeline.optimize(&problem, None, Deadline::none());
//! assert!(run.outcome.normalized_gained_affinity > 0.99);
//! ```

pub mod certify;
pub mod pipeline;
pub mod selector_choice;
pub mod service;
pub mod solve_cache;
pub mod solve_guard;
pub mod training;

pub use certify::{certify_placement, CertificationFailure, OBJECTIVE_REL_TOL};
pub use pipeline::{RasaConfig, RasaPipeline, RasaRun, SubproblemReport};
pub use rasa_lp::Deadline;
pub use selector_choice::SelectorChoice;
pub use service::{
    apply_delta_to_problem, AllocationSession, DeltaPlan, EdgeUpdate, PublishedPlacement,
    ReplicaUpdate, RestoreError, Restored, RestoredPlacement, RestoredState, SessionError,
    SessionRound, SnapshotDelta,
};
pub use solve_cache::{CacheRoundStats, CachedSubSolve, SolveCache};
pub use solve_guard::{
    guarded_schedule, FaultInjection, GuardedOutcome, PanickingScheduler, SolveStatus,
};
pub use training::generate_training_set;

// Re-export the pieces users compose with.
pub use rasa_migrate::{plan_migration, MigrateConfig, MigrationPlan};
pub use rasa_model as model;
pub use rasa_model::{AdmissionReport, ProblemValidator, RasaError};
pub use rasa_partition::{PartitionConfig, PartitionStrategy};
pub use rasa_select::{portfolio_features, PoolAlgorithm, SampleLog, SelectionSample};
pub use rasa_solver::{ScheduleOutcome, Scheduler};
