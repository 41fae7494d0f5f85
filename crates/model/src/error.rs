//! Model-level error type.

use crate::ids::{MachineId, ServiceId};
use std::fmt;

/// Errors raised while constructing or manipulating a [`Problem`](crate::Problem)
/// or [`Placement`](crate::Placement).
#[derive(Clone, Debug, PartialEq)]
pub enum ModelError {
    /// A service id referenced an index outside the problem's service list.
    UnknownService(ServiceId),
    /// A machine id referenced an index outside the problem's machine list.
    UnknownMachine(MachineId),
    /// The same unordered service pair appeared twice in the edge list.
    DuplicateEdge(ServiceId, ServiceId),
    /// An anti-affinity rule referenced no services.
    EmptyAntiAffinityRule,
    /// A structural inconsistency described by the message.
    Invalid(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownService(s) => write!(f, "unknown service {s}"),
            ModelError::UnknownMachine(m) => write!(f, "unknown machine {m}"),
            ModelError::DuplicateEdge(a, b) => {
                write!(f, "duplicate affinity edge ({a}, {b})")
            }
            ModelError::EmptyAntiAffinityRule => write!(f, "anti-affinity rule with no services"),
            ModelError::Invalid(msg) => write!(f, "invalid model: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Unified error type for the whole RASA stack.
///
/// Lower layers keep their precise error enums ([`ModelError`],
/// `MigrateError`, …); this type is the common currency fault-tolerant
/// callers — the pipeline's guarded solve layer, the chaos harness —
/// convert into so a failure in any layer can be *reported* instead of
/// unwinding through the stack.
#[derive(Clone, Debug, PartialEq)]
pub enum RasaError {
    /// A model construction/manipulation error.
    Model(ModelError),
    /// A solver-layer invariant did not hold (malformed solution vector,
    /// inconsistent formulation state, …).
    SolverInvariant(String),
    /// The migration planner failed; the message carries the lower-level
    /// `MigrateError` description.
    Migration(String),
    /// A worker panicked while solving the given subproblem; the message
    /// is the panic payload when it was a string.
    SolvePanicked {
        /// Index of the subproblem whose solve panicked.
        subproblem: usize,
        /// Stringified panic payload (`"<non-string panic payload>"` when
        /// the payload was not a string).
        message: String,
    },
    /// The deadline expired before the given subproblem produced a
    /// complete result.
    DeadlineExpired {
        /// Index of the subproblem that ran out of budget.
        subproblem: usize,
    },
    /// A solver returned a placement that violates problem constraints;
    /// the fault-isolation layer discarded it.
    InfeasibleResult {
        /// Index of the subproblem with the infeasible result.
        subproblem: usize,
    },
    /// Independent certification rejected a candidate solution: the
    /// placement satisfied the constraints but the solver's claimed
    /// objective did not match the recomputed one (or the claim was
    /// non-finite). Treated as a solver fault and routed down the
    /// fallback ladder.
    CertificationFailed {
        /// Index of the subproblem whose result failed certification.
        subproblem: usize,
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for RasaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RasaError::Model(e) => write!(f, "model error: {e}"),
            RasaError::SolverInvariant(msg) => write!(f, "solver invariant violated: {msg}"),
            RasaError::Migration(msg) => write!(f, "migration planning failed: {msg}"),
            RasaError::SolvePanicked {
                subproblem,
                message,
            } => write!(f, "subproblem {subproblem} solve panicked: {message}"),
            RasaError::DeadlineExpired { subproblem } => {
                write!(f, "subproblem {subproblem} ran out of deadline budget")
            }
            RasaError::InfeasibleResult { subproblem } => {
                write!(
                    f,
                    "subproblem {subproblem} produced an infeasible placement"
                )
            }
            RasaError::CertificationFailed { subproblem, detail } => {
                write!(f, "subproblem {subproblem} failed certification: {detail}")
            }
        }
    }
}

impl std::error::Error for RasaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RasaError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for RasaError {
    fn from(e: ModelError) -> Self {
        RasaError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rasa_error_display_and_source() {
        let e = RasaError::from(ModelError::UnknownMachine(MachineId(7)));
        assert_eq!(e.to_string(), "model error: unknown machine m7");
        assert!(std::error::Error::source(&e).is_some());
        let p = RasaError::SolvePanicked {
            subproblem: 3,
            message: "boom".into(),
        };
        assert_eq!(p.to_string(), "subproblem 3 solve panicked: boom");
        assert!(std::error::Error::source(&p).is_none());
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            ModelError::UnknownService(ServiceId(4)).to_string(),
            "unknown service s4"
        );
        assert_eq!(
            ModelError::DuplicateEdge(ServiceId(1), ServiceId(2)).to_string(),
            "duplicate affinity edge (s1, s2)"
        );
    }
}
