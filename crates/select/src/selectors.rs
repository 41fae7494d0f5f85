//! The pool arms and the selectors of Fig 8 that look at the subproblem
//! (the fixed CG-only / MIP-only arms need no selector: they are
//! `rasa_core::SelectorChoice` variants).

use crate::features::feature_graph;
use rasa_model::Problem;
use rasa_nn::{Gcn, Mlp};
use serde::{Deserialize, Serialize};

/// A member of the scheduling algorithm pool. The paper's pool is
/// {CG, MIP} (Section IV-C); this pool adds the POP strategy rung (random
/// shard split, `rasa_solver::pop`) and the greedy completion floor as
/// first-class arms.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum PoolAlgorithm {
    /// Column generation — class index 0.
    Cg,
    /// MIP-based — class index 1.
    Mip,
    /// POP strategy rung (random k-way shard split) — class index 2.
    Pop,
    /// Greedy affinity-aware first-fit (the completion pass as an arm) —
    /// class index 3.
    Greedy,
}

impl PoolAlgorithm {
    /// Every pool arm, in class-index order.
    pub const ALL: [PoolAlgorithm; 4] = [
        PoolAlgorithm::Cg,
        PoolAlgorithm::Mip,
        PoolAlgorithm::Pop,
        PoolAlgorithm::Greedy,
    ];

    /// Class index used by the learned classifiers.
    pub fn class_index(self) -> usize {
        match self {
            PoolAlgorithm::Cg => 0,
            PoolAlgorithm::Mip => 1,
            PoolAlgorithm::Pop => 2,
            PoolAlgorithm::Greedy => 3,
        }
    }

    /// Inverse of [`class_index`](Self::class_index).
    ///
    /// # Panics
    /// Panics on an index outside `0..4`.
    pub fn from_class_index(idx: usize) -> Self {
        match idx {
            0 => PoolAlgorithm::Cg,
            1 => PoolAlgorithm::Mip,
            2 => PoolAlgorithm::Pop,
            3 => PoolAlgorithm::Greedy,
            _ => panic!("unknown class index {idx}"),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PoolAlgorithm::Cg => "CG",
            PoolAlgorithm::Mip => "MIP",
            PoolAlgorithm::Pop => "POP",
            PoolAlgorithm::Greedy => "GREEDY",
        }
    }
}

/// Chooses a pool algorithm for a subproblem.
pub trait AlgorithmSelector {
    /// Strategy name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Pick the algorithm for `problem`.
    fn select(&self, problem: &Problem) -> PoolAlgorithm;
}

/// The paper's empirical rule (Section V-C): compare the average container
/// count per service against the average machine count per machine type —
/// if services are "bigger" than machine groups, pick CG, else MIP.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeuristicSelector;

impl AlgorithmSelector for HeuristicSelector {
    fn name(&self) -> &'static str {
        "HEURISTIC"
    }

    fn select(&self, problem: &Problem) -> PoolAlgorithm {
        if problem.services.is_empty() {
            return PoolAlgorithm::Mip;
        }
        let avg_containers = problem
            .services
            .iter()
            .map(|s| f64::from(s.replicas))
            .sum::<f64>()
            / problem.services.len() as f64;
        let groups = problem.machine_groups();
        let avg_machines_per_type = if groups.is_empty() {
            0.0
        } else {
            problem.num_machines() as f64 / groups.len() as f64
        };
        if avg_containers > avg_machines_per_type {
            PoolAlgorithm::Cg
        } else {
            PoolAlgorithm::Mip
        }
    }
}

/// Topology-blind learned selector (mean-pooled features → MLP) — the
/// MLP-BASED ablation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MlpSelector {
    /// Trained model.
    pub model: Mlp,
}

impl AlgorithmSelector for MlpSelector {
    fn name(&self) -> &'static str {
        "MLP-BASED"
    }

    fn select(&self, problem: &Problem) -> PoolAlgorithm {
        let g = feature_graph(problem);
        PoolAlgorithm::from_class_index(self.model.predict(&g))
    }
}

/// The paper's proposal: a GCN over the subproblem's feature graph
/// (GCN-BASED in Fig 8).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GcnSelector {
    /// Trained model.
    pub model: Gcn,
}

impl AlgorithmSelector for GcnSelector {
    fn name(&self) -> &'static str {
        "GCN-BASED"
    }

    fn select(&self, problem: &Problem) -> PoolAlgorithm {
        let g = feature_graph(problem);
        PoolAlgorithm::from_class_index(self.model.predict(&g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{FeatureMask, ProblemBuilder, ResourceVec};

    #[test]
    fn class_index_round_trip() {
        for alg in PoolAlgorithm::ALL {
            assert_eq!(PoolAlgorithm::from_class_index(alg.class_index()), alg);
        }
        assert_eq!(PoolAlgorithm::Cg.label(), "CG");
        assert_eq!(PoolAlgorithm::Pop.label(), "POP");
        assert_eq!(PoolAlgorithm::Greedy.label(), "GREEDY");
    }

    #[test]
    fn heuristic_prefers_cg_for_replica_heavy_problems() {
        // many containers per service, few machines per type → CG
        let mut b = ProblemBuilder::new();
        b.add_service("big", 100, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machine(ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_machine(ResourceVec::cpu_mem(16.0, 8.0), FeatureMask::EMPTY);
        let p = b.build().unwrap();
        assert_eq!(HeuristicSelector.select(&p), PoolAlgorithm::Cg);
    }

    #[test]
    fn heuristic_prefers_mip_for_machine_heavy_problems() {
        let mut b = ProblemBuilder::new();
        b.add_service("small", 2, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(50, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        let p = b.build().unwrap();
        assert_eq!(HeuristicSelector.select(&p), PoolAlgorithm::Mip);
    }
}
