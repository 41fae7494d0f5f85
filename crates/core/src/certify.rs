//! Gate 2 of the pipeline's trust boundary: independent certification of
//! candidate placements.
//!
//! Every placement the pipeline is about to accept — from any rung of the
//! fallback ladder *or* replayed verbatim from the
//! [`SolveCache`](crate::SolveCache) — is re-verified here against the
//! paper's constraints (3)–(6) via [`fn@rasa_model::validate`], and the
//! producer's *claimed* objective is cross-checked against a recomputed
//! one. A failure is treated as a solver (or cache) fault: the caller
//! routes it down the fallback ladder or re-solves, never accepts it.
//!
//! Certification emits `certify.*` counters into the global metrics
//! registry and a [`TraceEvent::CertifyFailure`] flight event on every
//! rejection, so a poisoned cache entry or a miscounting solver leaves a
//! forensic trail (the pipeline marks the round degraded, which makes the
//! flight recorder dump a black box).

use rasa_model::{gained_affinity, validate, Placement, Problem, Violation};
use rasa_obs::flight::{self, TraceEvent};
use std::fmt;

/// Relative tolerance for the claimed-vs-recomputed objective
/// cross-check: `|claimed − recomputed| ≤ tol · max(1, |recomputed|)`.
pub const OBJECTIVE_REL_TOL: f64 = 1e-6;

/// Why a candidate placement was rejected by [`certify_placement`].
#[derive(Clone, Debug, PartialEq)]
pub struct CertificationFailure {
    /// Constraint violations found by the independent re-check (empty for
    /// a pure objective mismatch or a structural defect).
    pub violations: Vec<Violation>,
    /// A shape defect that made constraint validation impossible
    /// (placement sized for a different problem, unknown machine ids).
    pub structural: Option<String>,
    /// The objective the producer claimed.
    pub claimed_objective: f64,
    /// The objective recomputed from the placement (0 when a structural
    /// defect prevented recomputation).
    pub recomputed_objective: f64,
    /// Who produced the candidate (an algorithm name or `"solve_cache"`).
    pub source: String,
}

impl CertificationFailure {
    /// `true` when the placement satisfied all constraints but the
    /// claimed objective did not match the recomputed one.
    pub fn is_objective_mismatch(&self) -> bool {
        self.violations.is_empty() && self.structural.is_none()
    }

    /// Compact description suitable for
    /// [`RasaError::CertificationFailed`](rasa_model::RasaError::CertificationFailed).
    pub fn detail(&self) -> String {
        if let Some(s) = &self.structural {
            format!("structural defect from {}: {s}", self.source)
        } else if self.is_objective_mismatch() {
            format!(
                "objective mismatch from {}: claimed {} vs recomputed {}",
                self.source, self.claimed_objective, self.recomputed_objective
            )
        } else {
            format!(
                "{} constraint violation(s) from {} (first: {})",
                self.violations.len(),
                self.source,
                self.violations[0]
            )
        }
    }
}

/// A defect that makes the placement impossible to even validate against
/// `problem` — indexing it would panic, so it must be caught first.
fn structural_defect(problem: &Problem, placement: &Placement) -> Option<String> {
    if placement.num_services() != problem.num_services() {
        return Some(format!(
            "placement shaped for {} services, problem has {}",
            placement.num_services(),
            problem.num_services()
        ));
    }
    for (_, m, _) in placement.iter() {
        if m.idx() >= problem.num_machines() {
            return Some(format!("placement references unknown machine {m}"));
        }
    }
    None
}

impl fmt::Display for CertificationFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "certification failed: {}", self.detail())
    }
}

/// Independently certify a candidate placement.
///
/// Re-validates `placement` against every constraint of `problem`
/// (`check_sla = false` permits partial placements, matching the
/// fallback ladder's contract) and recomputes the gained-affinity
/// objective, rejecting when it differs from `claimed_objective` by more
/// than [`OBJECTIVE_REL_TOL`] (relative) — a NaN/infinite claim always
/// rejects. Returns the recomputed objective on success.
///
/// `source` names the producer in counters, flight events and error
/// details.
pub fn certify_placement(
    problem: &Problem,
    placement: &Placement,
    claimed_objective: f64,
    check_sla: bool,
    source: &str,
) -> Result<f64, CertificationFailure> {
    let obs = rasa_obs::global();
    obs.inc("certify.checks");
    // Structural defects first: validating a placement shaped for a
    // different problem would index out of bounds.
    if let Some(defect) = structural_defect(problem, placement) {
        obs.inc("certify.structural_failures");
        return reject(CertificationFailure {
            violations: Vec::new(),
            structural: Some(defect),
            claimed_objective,
            recomputed_objective: 0.0,
            source: source.to_string(),
        });
    }
    let violations = validate(problem, placement, check_sla);
    let recomputed = gained_affinity(problem, placement);
    if !violations.is_empty() {
        obs.inc("certify.constraint_failures");
        return reject(CertificationFailure {
            violations,
            structural: None,
            claimed_objective,
            recomputed_objective: recomputed,
            source: source.to_string(),
        });
    }
    let diff = (claimed_objective - recomputed).abs();
    let tol = OBJECTIVE_REL_TOL * recomputed.abs().max(1.0);
    // non-finite diff (a NaN or infinite claim) must also reject
    if !diff.is_finite() || diff > tol {
        obs.inc("certify.objective_failures");
        return reject(CertificationFailure {
            violations: Vec::new(),
            structural: None,
            claimed_objective,
            recomputed_objective: recomputed,
            source: source.to_string(),
        });
    }
    obs.inc("certify.ok");
    Ok(recomputed)
}

/// Flight-record a rejection and return it.
fn reject(failure: CertificationFailure) -> Result<f64, CertificationFailure> {
    flight::emit(|| TraceEvent::CertifyFailure {
        // a structural defect counts as one violation
        violations: failure.violations.len() as u64 + u64::from(failure.structural.is_some()),
        claimed_objective: failure.claimed_objective,
        recomputed_objective: failure.recomputed_objective,
        source: failure.source.clone(),
    });
    Err(failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{FeatureMask, MachineId, ProblemBuilder, ResourceVec, ServiceId};

    fn problem() -> Problem {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 2, ResourceVec::cpu_mem(1.0, 1.0));
        let s1 = b.add_service("b", 2, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(4.0, 4.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 10.0);
        b.build().expect("problem builds")
    }

    #[test]
    fn honest_placement_certifies() {
        let p = problem();
        let mut x = Placement::empty_for(&p);
        x.add(ServiceId(0), MachineId(0), 2);
        x.add(ServiceId(1), MachineId(0), 2);
        let obj = gained_affinity(&p, &x);
        let got = certify_placement(&p, &x, obj, true, "test").expect("certifies");
        assert_eq!(got, obj);
    }

    #[test]
    fn constraint_violation_rejected() {
        let p = problem();
        let mut x = Placement::empty_for(&p);
        x.add(ServiceId(0), MachineId(0), 2);
        x.add(ServiceId(1), MachineId(0), 3); // 5 x 1.0 cpu on a 4.0-cpu machine
        let claimed = gained_affinity(&p, &x);
        let err = certify_placement(&p, &x, claimed, false, "test").expect_err("rejected");
        assert!(!err.is_objective_mismatch());
        assert!(err.detail().contains("constraint violation"));
    }

    #[test]
    fn objective_mismatch_rejected() {
        let p = problem();
        let mut x = Placement::empty_for(&p);
        x.add(ServiceId(0), MachineId(0), 2);
        x.add(ServiceId(1), MachineId(0), 2);
        let obj = gained_affinity(&p, &x);
        let err = certify_placement(&p, &x, obj + 1.0, true, "liar").expect_err("rejected");
        assert!(err.is_objective_mismatch());
        assert_eq!(err.recomputed_objective, obj);
        assert!(err.to_string().contains("liar"));
    }

    #[test]
    fn nan_claim_rejected() {
        let p = problem();
        let x = Placement::empty_for(&p);
        let err = certify_placement(&p, &x, f64::NAN, false, "test").expect_err("rejected");
        assert!(err.is_objective_mismatch());
    }

    #[test]
    fn tolerance_absorbs_float_noise() {
        let p = problem();
        let mut x = Placement::empty_for(&p);
        x.add(ServiceId(0), MachineId(0), 2);
        x.add(ServiceId(1), MachineId(0), 2);
        let obj = gained_affinity(&p, &x);
        assert!(certify_placement(&p, &x, obj * (1.0 + 1e-12), true, "test").is_ok());
    }

    #[test]
    fn structurally_corrupt_placement_rejected_without_panic() {
        let p = problem();
        // Shaped for a different (larger) problem.
        let mut wrong_shape = Placement::empty(5);
        wrong_shape.add(ServiceId(4), MachineId(0), 1);
        let err = certify_placement(&p, &wrong_shape, 0.0, false, "cache").expect_err("rejected");
        assert!(err.structural.is_some());
        assert!(!err.is_objective_mismatch());
        assert!(err.detail().contains("structural defect"));

        // Right shape, but references a machine the problem doesn't have.
        let mut bad_machine = Placement::empty_for(&p);
        bad_machine.add(ServiceId(0), MachineId(99), 1);
        let err = certify_placement(&p, &bad_machine, 0.0, false, "cache").expect_err("rejected");
        assert!(err.structural.is_some());
        assert!(err.detail().contains("unknown machine"));
    }

    #[test]
    fn incomplete_placement_fails_sla_check_only() {
        let p = problem();
        let mut x = Placement::empty_for(&p);
        x.add(ServiceId(0), MachineId(0), 1);
        let obj = gained_affinity(&p, &x);
        assert!(certify_placement(&p, &x, obj, false, "test").is_ok());
        assert!(certify_placement(&p, &x, obj, true, "test").is_err());
    }
}
