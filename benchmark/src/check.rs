//! The correctness gate. Every placement the benchmark times is checked
//! again here, independently of the program's own verdict: constraints,
//! certification and the objective are all recomputed from the problem the
//! benchmark itself holds.

use rasa_core::certify_placement;
use rasa_model::{normalized_gained_affinity, validate, Placement, Problem};

/// What the gate recomputed for a placement that passed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Checked {
    /// Normalized gained affinity.
    pub affinity: f64,
    /// Containers placed as a share of the replicas the problem asks for.
    pub placed_share: f64,
}

/// Check `placement` against every constraint of `problem` and against the
/// objective its producer claimed (`certify_placement` recomputes it and
/// rejects a mismatch). A placement may be partial, as the program's own
/// publish gate allows (some generated clusters cannot host every replica
/// under their spread rules); how much was placed is reported, not judged.
pub fn check_placement(
    problem: &Problem,
    placement: &Placement,
    claimed_objective: f64,
) -> Result<Checked, String> {
    // certification first: it rejects a placement shaped for another
    // problem, which `validate` would index out of bounds on
    certify_placement(
        problem,
        placement,
        claimed_objective,
        false,
        "benchmark.check",
    )
    .map_err(|failure| format!("certification failed: {failure}"))?;
    let violations = validate(problem, placement, false);
    if let Some(first) = violations.first() {
        return Err(format!("{} violations, first: {first:?}", violations.len()));
    }
    let required: u64 = problem.services.iter().map(|s| u64::from(s.replicas)).sum();
    Ok(Checked {
        affinity: normalized_gained_affinity(problem, placement),
        placed_share: placement.total_placed() as f64 / required.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{FeatureMask, MachineId, ProblemBuilder, ResourceVec};

    fn two_services() -> Problem {
        let mut b = ProblemBuilder::new();
        let a = b.add_service("a", 1, ResourceVec::cpu_mem(1.0, 1.0));
        let c = b.add_service("c", 1, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(4.0, 4.0), FeatureMask::EMPTY);
        b.add_affinity(a, c, 10.0);
        b.build().expect("valid problem")
    }

    #[test]
    fn accepts_correct_placements_and_rejects_wrong_claims_and_overfull_machines() {
        let problem = two_services();
        let mut placement = Placement::empty_for(&problem);
        for s in &problem.services {
            placement.add(s.id, MachineId(0), 1);
        }
        let full = Checked {
            affinity: 1.0,
            placed_share: 1.0,
        };
        assert_eq!(check_placement(&problem, &placement, 10.0), Ok(full));
        assert!(check_placement(&problem, &placement, 7.0).is_err());
        placement.add(problem.services[0].id, MachineId(1), 9);
        assert!(
            check_placement(&problem, &placement, 10.0).is_err(),
            "over capacity"
        );
        let empty = Placement::empty_for(&problem);
        assert_eq!(
            check_placement(&problem, &empty, 0.0).map(|c| c.placed_share),
            Ok(0.0)
        );
    }
}
