//! Training-set assembly for the learned selectors (Section IV-D1): the
//! paper samples subproblems from four training clusters (T1–T4) and
//! labels each by racing the two pool algorithms under a time limit.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rasa_model::Problem;
use rasa_partition::{multi_stage_partition, PartitionConfig};
use rasa_select::{label_subproblem, LabeledSubproblem};
use std::time::Duration;

/// Partition each training problem with the multi-stage pipeline (varying
/// the subproblem budget to diversify scales) and collect up to `limit`
/// labelable subproblems (edge-less subproblems are skipped — nothing to
/// learn from).
fn training_subproblems(problems: &[Problem], limit: usize, seed: u64) -> Vec<Problem> {
    let mut out = Vec::new();
    let budgets = [12usize, 24, 48];
    'outer: for (pi, problem) in problems.iter().enumerate() {
        for (bi, &budget) in budgets.iter().enumerate() {
            let config = PartitionConfig {
                max_subproblem_services: budget,
                ..Default::default()
            };
            let mut rng =
                StdRng::seed_from_u64(seed.wrapping_add((pi * budgets.len() + bi) as u64));
            let partition = multi_stage_partition(problem, None, &config, &mut rng);
            for sub in partition.subproblems {
                if sub.problem.affinity_edges.is_empty() {
                    continue; // nothing to learn from
                }
                out.push(sub.problem);
                if out.len() >= limit {
                    break 'outer;
                }
            }
        }
    }
    out
}

/// Partition each training problem with the multi-stage pipeline (varying
/// the subproblem budget to diversify scales), then label up to `limit`
/// subproblems with a `label_budget` race each.
pub fn generate_training_set(
    problems: &[Problem],
    limit: usize,
    label_budget: Duration,
    seed: u64,
) -> Vec<LabeledSubproblem> {
    training_subproblems(problems, limit, seed)
        .iter()
        .map(|sub| label_subproblem(sub, label_budget))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_trace::{generate, tiny_cluster};

    #[test]
    fn subproblem_collection_is_deterministic_and_edgeful() {
        let problems: Vec<Problem> = (0..2).map(|i| generate(&tiny_cluster(i))).collect();
        let a = training_subproblems(&problems, 6, 1);
        let b = training_subproblems(&problems, 6, 1);
        assert!(!a.is_empty());
        assert!(a.len() <= 6);
        assert_eq!(a.len(), b.len(), "same seed, same collection");
        for sub in &a {
            assert!(!sub.affinity_edges.is_empty());
        }
    }

    #[test]
    fn produces_labeled_examples() {
        let problems: Vec<Problem> = (0..2).map(|i| generate(&tiny_cluster(i))).collect();
        let data = generate_training_set(&problems, 6, Duration::from_millis(300), 1);
        assert!(!data.is_empty());
        assert!(data.len() <= 6);
        for ex in &data {
            assert!(!ex.problem.affinity_edges.is_empty());
            // objectives recorded for both arms
            assert!(ex.cg_objective >= 0.0);
            assert!(ex.mip_objective >= 0.0);
        }
    }
}
