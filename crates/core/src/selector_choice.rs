//! A concrete, clonable selector configuration for the pipeline (wrapping
//! the five strategies of Fig 8).

use rasa_model::Problem;
use rasa_select::{AlgorithmSelector, GcnSelector, HeuristicSelector, MlpSelector, PoolAlgorithm};

/// Which algorithm-selection strategy the pipeline uses (Section IV-D /
/// Fig 8). The paper deploys
/// GCN-BASED; HEURISTIC is the zero-setup default here because it needs no
/// training data.
#[derive(Clone, Debug, Default)]
pub enum SelectorChoice {
    /// The paper's empirical rule — no training required.
    #[default]
    Heuristic,
    /// Always column generation (ablation).
    AlwaysCg,
    /// Always the MIP-based algorithm (ablation).
    AlwaysMip,
    /// A trained GCN classifier (the paper's proposal).
    Gcn(GcnSelector),
    /// A trained MLP over pooled features (topology-blind ablation).
    Mlp(MlpSelector),
}

impl SelectorChoice {
    /// Route a subproblem to a pool algorithm.
    pub fn select(&self, problem: &Problem) -> PoolAlgorithm {
        match self {
            SelectorChoice::Heuristic => HeuristicSelector.select(problem),
            SelectorChoice::AlwaysCg => PoolAlgorithm::Cg,
            SelectorChoice::AlwaysMip => PoolAlgorithm::Mip,
            SelectorChoice::Gcn(s) => s.select(problem),
            SelectorChoice::Mlp(s) => s.select(problem),
        }
    }

    /// Label for experiment tables (matches Fig 8's legend).
    pub fn label(&self) -> &'static str {
        match self {
            SelectorChoice::Heuristic => HeuristicSelector.name(),
            SelectorChoice::AlwaysCg => PoolAlgorithm::Cg.label(),
            SelectorChoice::AlwaysMip => PoolAlgorithm::Mip.label(),
            SelectorChoice::Gcn(s) => s.name(),
            SelectorChoice::Mlp(s) => s.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{ProblemBuilder, ResourceVec};

    #[test]
    fn fixed_choices_are_constant() {
        let mut b = ProblemBuilder::new();
        b.add_service("a", 1, ResourceVec::ZERO);
        let p = b.build().unwrap();
        assert_eq!(SelectorChoice::AlwaysCg.select(&p), PoolAlgorithm::Cg);
        assert_eq!(SelectorChoice::AlwaysMip.select(&p), PoolAlgorithm::Mip);
        assert_eq!(SelectorChoice::AlwaysCg.label(), "CG");
        assert_eq!(SelectorChoice::AlwaysMip.label(), "MIP");
        assert_eq!(SelectorChoice::default().label(), "HEURISTIC");
    }

    #[test]
    fn fixed_arms_select_and_label_as_their_pool_arm() {
        let mut b = ProblemBuilder::new();
        b.add_service("a", 1, ResourceVec::ZERO);
        let p = b.build().unwrap();
        for (choice, alg) in [
            (SelectorChoice::AlwaysCg, PoolAlgorithm::Cg),
            (SelectorChoice::AlwaysMip, PoolAlgorithm::Mip),
        ] {
            assert_eq!(choice.select(&p), alg);
            assert_eq!(choice.label(), alg.label());
        }
    }
}
