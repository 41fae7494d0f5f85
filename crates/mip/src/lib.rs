#![warn(missing_docs)]

//! # rasa-mip
//!
//! A branch-and-bound **mixed-integer programming** solver built on the
//! `rasa-lp` simplex. This is the repository's stand-in for the commercial
//! solver (Gurobi) the RASA paper feeds its MIP formulation to
//! (Section IV-C1).
//!
//! Capabilities, matching what the paper's workload needs:
//!
//! * maximization of a linear objective over linear rows with integer and
//!   continuous variables,
//! * **anytime behaviour**: an incumbent is kept at all times and returned
//!   when the [`Deadline`] fires, so the caller can impose the paper's
//!   one-minute-style time-outs and still get the best schedule found,
//! * **an objective target** ([`MipModel::solve_to_target`]): the search
//!   stops, `Feasible`, at the first incumbent above it — column-generation
//!   pricing needs *an* improving pattern, not the best one,
//! * best-bound node selection; branching on the integer variable with the
//!   largest objective weight times fractionality `|c_j| × f_j`, every node
//!   re-solved from its parent's basis by dual simplex, plus LP rounding and
//!   diving heuristics to find early incumbents,
//! * proof of optimality within a relative gap tolerance.
//!
//! ## Example
//!
//! ```
//! use rasa_mip::{MipModel, MipStatus};
//!
//! // knapsack: max 8a + 11b + 6c  s.t.  5a + 7b + 4c <= 14, binary
//! let mut m = MipModel::new();
//! let a = m.add_int_var(0.0, 1.0, 8.0);
//! let b = m.add_int_var(0.0, 1.0, 11.0);
//! let c = m.add_int_var(0.0, 1.0, 6.0);
//! m.add_row_le(vec![(a, 5.0), (b, 7.0), (c, 4.0)], 14.0);
//! let sol = m.solve();
//! assert_eq!(sol.status, MipStatus::Optimal);
//! assert_eq!(sol.objective.round() as i64, 19); // b + c
//! ```

pub mod branch_and_bound;
pub mod model;
pub mod solution;

pub use branch_and_bound::{MipOptions, GAP_TOL, INT_TOL};
pub use model::MipModel;
pub use rasa_lp::{Deadline, VarId};
pub use solution::{MipSolution, MipStatus};
