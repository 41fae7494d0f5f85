#![warn(missing_docs)]
// solver code runs inside the fault-isolated solve layer: invariants
// surface as `RasaError` or `expect` with an invariant message, never as
// a bare unwrap
#![warn(clippy::unwrap_used)]

//! # rasa-solver
//!
//! The solver-based scheduling algorithms of the RASA paper's *algorithm
//! pool* (Section IV-C):
//!
//! * [`formulation`] — builds the paper's MIP (Expressions (2)–(9)) from a
//!   [`Problem`](rasa_model::Problem), in two flavors: the exact
//!   **per-machine** formulation and the **machine-group aggregated**
//!   formulation the paper's own notation (`a_{s,s',g}`, Table I) implies.
//!   Also owns de-aggregation of a group-level solution into concrete
//!   machines.
//! * [`mip_algorithm`] — the *MIP-based algorithm*: feed the formulation to
//!   the branch-and-bound solver, extract the placement (Section IV-C1).
//! * [`column_generation`] — the *column generation algorithm*
//!   (Algorithm 1): cutting-stock restricted master problem over per-machine
//!   *patterns*, pattern-pricing subproblems solved as small MIPs, and
//!   integral rounding of the final master (Section IV-C2).
//! * [`completion`] — the affinity-aware first-fit completion pass standing
//!   in for the cluster's default scheduler, which the paper lets absorb the
//!   few containers a subproblem fails to deploy (Section IV-B5). Also
//!   exposed as the [`GreedyScheduler`] pool member (the pool's cheapest
//!   arm).
//! * [`pop`] — POP (SOSP'21) as a first-class strategy rung: random k-way
//!   shard split, parallel per-shard MIP solves under wave-sliced
//!   deadlines, union. The `rasa-baselines` POP baseline is a constructor
//!   for this rung.
//! * [`scheduler`] — the [`Scheduler`] trait shared by these algorithms and
//!   every baseline in `rasa-baselines`, plus [`ScheduleOutcome`],
//!   [`fan_out`] — the one worker-pull primitive every parallel solve in
//!   the repository goes through — with its [`wave_slice`] deadline split,
//!   and the solver-thread gauge ([`SolverThread`]) that tells column
//!   generation how many idle cores its pricing round may borrow — on a
//!   thread a `parallel` pipeline round has marked ([`lend_idle_cores`]).

pub mod column_cache;
pub mod column_generation;
pub mod completion;
pub mod formulation;
pub mod mip_algorithm;
pub mod pop;
pub mod scheduler;

pub use column_cache::{CgWarmStart, ColumnCache, PatternCounts};
pub use column_generation::{CgOptions, CgStats, ColumnGeneration};
pub use completion::{complete_placement, GreedyScheduler};
pub use formulation::{per_machine_cap, FormulationKind, RasaFormulation};
pub use mip_algorithm::{MipBased, MipBasedOptions};
pub use pop::{split_affinity_loss, split_services, PopOptions, PopStrategy};
pub use scheduler::{
    busy_solver_threads, fan_out, idle_solver_threads, lend_idle_cores, solver_threads, wave_slice,
    BorrowedThreads, ScheduleOutcome, Scheduler, SolverThread,
};
