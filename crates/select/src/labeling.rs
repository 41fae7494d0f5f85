//! Labelling subproblems for selector training (Section IV-D1: "To label a
//! subproblem, we attempt each subproblem with the two candidate algorithms
//! and choose the one that returns better objective within \[a\] time limit").

use crate::selectors::PoolAlgorithm;
use rasa_mip::Deadline;
use rasa_model::Problem;
use rasa_solver::Scheduler as _;
use rasa_solver::{ColumnGeneration, MipBased};
use std::time::Duration;

/// A labelled training example.
#[derive(Clone, Debug)]
pub struct LabeledSubproblem {
    /// The subproblem.
    pub problem: Problem,
    /// Winning pool algorithm.
    pub label: PoolAlgorithm,
    /// Gained affinity CG achieved under the time limit.
    pub cg_objective: f64,
    /// Gained affinity MIP achieved under the time limit.
    pub mip_objective: f64,
}

/// Run both pool algorithms on `problem` with `time_limit` each and label
/// with the winner (ties go to CG, the cheaper algorithm).
pub fn label_subproblem(problem: &Problem, time_limit: Duration) -> LabeledSubproblem {
    let cg = ColumnGeneration::new().schedule(problem, Deadline::after(time_limit));
    let mip = MipBased::new().schedule(problem, Deadline::after(time_limit));
    let label = if mip.gained_affinity > cg.gained_affinity + 1e-9 {
        PoolAlgorithm::Mip
    } else {
        PoolAlgorithm::Cg
    };
    LabeledSubproblem {
        problem: problem.clone(),
        label,
        cg_objective: cg.gained_affinity,
        mip_objective: mip.gained_affinity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{FeatureMask, ProblemBuilder, ResourceVec};

    #[test]
    fn labels_pick_the_better_objective() {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 2, ResourceVec::cpu_mem(1.0, 1.0));
        let s1 = b.add_service("b", 2, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 1.0);
        let p = b.build().unwrap();
        let labeled = label_subproblem(&p, Duration::from_secs(5));
        // tiny problem: both should reach 1.0, tie → CG
        assert!(
            labeled.cg_objective >= 1.0 - 1e-6,
            "cg {}",
            labeled.cg_objective
        );
        assert!(labeled.mip_objective >= 1.0 - 1e-6);
        assert_eq!(labeled.label, PoolAlgorithm::Cg);
    }
}
