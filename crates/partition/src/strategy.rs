//! The Fig 6 partitioning ablations behind one switch:
//! NO-PARTITION / RANDOM-PARTITION / KAHIP / MULTI-STAGE-PARTITION.

use crate::machines::assign_machines;
use crate::stages::{
    multi_stage_partition, PartitionConfig, PartitionOutcome, PartitionStats, Subproblem,
};
use rand::Rng;
use rasa_graph::{
    multilevel_partition, random_partition, AffinityGraph, MultilevelConfig, Partition,
};
use rasa_model::{Placement, Problem, ServiceId};
use std::time::Instant;

/// Which partitioning algorithm to run before the solve phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PartitionStrategy {
    /// Solve the whole problem as one subproblem (Fig 6's NO-PARTITION —
    /// only tractable for small clusters).
    NoPartition,
    /// Uniformly random service split (RANDOM-PARTITION).
    Random,
    /// Multilevel min-weight balanced graph partitioning (the KAHIP
    /// baseline, via our `rasa-graph` multilevel partitioner).
    Kahip,
    /// The paper's multi-stage partitioning (Section IV-B).
    MultiStage,
}

impl PartitionStrategy {
    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            PartitionStrategy::NoPartition => "NO-PARTITION",
            PartitionStrategy::Random => "RANDOM-PARTITION",
            PartitionStrategy::Kahip => "KAHIP",
            PartitionStrategy::MultiStage => "MULTI-STAGE-PARTITION",
        }
    }
}

/// Produce subproblems under `strategy`. All strategies share the
/// machine-assignment step so the comparison isolates the *service* split,
/// as in the paper's ablation.
pub fn partition_with_strategy<R: Rng>(
    problem: &Problem,
    current: Option<&Placement>,
    strategy: PartitionStrategy,
    config: &PartitionConfig,
    rng: &mut R,
) -> PartitionOutcome {
    let _fs = rasa_obs::flight::span_with(
        "partition.strategy",
        &[("strategy", strategy.label().into())],
    );
    let outcome = partition_with_strategy_impl(problem, current, strategy, config, rng);
    let obs = rasa_obs::global();
    obs.add("partition.runs", 1);
    obs.add("partition.subproblems", outcome.subproblems.len() as u64);
    obs.add(
        "partition.trivial_services",
        outcome.trivial_services.len() as u64,
    );
    obs.add(
        "partition.stage1_non_affinity",
        outcome.stats.non_affinity as u64,
    );
    obs.add("partition.stage2_masters", outcome.stats.masters as u64);
    obs.add(
        "partition.stage3_compat_blocks",
        outcome.stats.compat_blocks as u64,
    );
    obs.add(
        "partition.stage4_final_sets",
        outcome.stats.final_sets as u64,
    );
    obs.record("partition.cut_weight", outcome.affinity_loss);
    obs.record("partition.elapsed_seconds", outcome.stats.elapsed_secs);
    outcome
}

fn partition_with_strategy_impl<R: Rng>(
    problem: &Problem,
    current: Option<&Placement>,
    strategy: PartitionStrategy,
    config: &PartitionConfig,
    rng: &mut R,
) -> PartitionOutcome {
    match strategy {
        PartitionStrategy::MultiStage => multi_stage_partition(problem, current, config, rng),
        PartitionStrategy::NoPartition => {
            let start = Instant::now();
            let all_services: Vec<ServiceId> = problem.services.iter().map(|s| s.id).collect();
            let all_machines: Vec<_> = problem.machines.iter().map(|m| m.id).collect();
            let (sub, mapping) = problem.induced_subproblem(&all_services, &all_machines);
            PartitionOutcome {
                subproblems: vec![Subproblem {
                    problem: sub,
                    mapping,
                }],
                trivial_services: Vec::new(),
                affinity_loss: 0.0,
                stats: PartitionStats {
                    final_sets: 1,
                    elapsed_secs: start.elapsed().as_secs_f64(),
                    ..Default::default()
                },
            }
        }
        PartitionStrategy::Random | PartitionStrategy::Kahip => {
            let start = Instant::now();
            let graph = AffinityGraph::from_problem(problem);
            let affinity: Vec<usize> = graph.vertices_with_affinity();
            let trivial: Vec<ServiceId> = (0..problem.num_services())
                .filter(|&v| graph.degree(v) == 0)
                .map(|v| ServiceId(v as u32))
                .collect();
            let k = affinity
                .len()
                .div_ceil(config.max_subproblem_services)
                .max(1);
            let partition: Partition = if strategy == PartitionStrategy::Random {
                // random split of affinity services only
                let assignment: Vec<usize> = random_partition(affinity.len(), k, rng).part_of;
                Partition::from_assignment(assignment)
            } else {
                // KaHIP-style multilevel cut on the induced affinity graph
                let index_of: std::collections::HashMap<usize, usize> =
                    affinity.iter().enumerate().map(|(i, &v)| (v, i)).collect();
                let mut edges = Vec::new();
                for &v in &affinity {
                    for (u, w) in graph.neighbors(v) {
                        if v < u {
                            edges.push((index_of[&v], index_of[&u], w));
                        }
                    }
                }
                let sub_graph = AffinityGraph::from_edges(affinity.len(), &edges);
                multilevel_partition(&sub_graph, &MultilevelConfig::with_parts(k), rng)
            };
            let mut service_sets: Vec<Vec<ServiceId>> = vec![Vec::new(); partition.num_parts];
            for (i, &p) in partition.part_of.iter().enumerate() {
                service_sets[p].push(ServiceId(affinity[i] as u32));
            }
            service_sets.retain(|s| !s.is_empty());

            let shrunk = crate::machines::shrunk_capacities(problem, current, &trivial);
            let mut shrunk_problem = problem.clone();
            for (m, cap) in shrunk_problem.machines.iter_mut().zip(shrunk) {
                m.capacity = cap;
            }
            let machine_sets = assign_machines(&shrunk_problem, &service_sets);
            let set_of: std::collections::HashMap<ServiceId, usize> = service_sets
                .iter()
                .enumerate()
                .flat_map(|(kk, set)| set.iter().map(move |&s| (s, kk)))
                .collect();
            let affinity_loss = problem
                .affinity_edges
                .iter()
                .filter(|e| set_of.get(&e.a) != set_of.get(&e.b))
                .map(|e| e.weight)
                .sum();
            let subproblems = service_sets
                .iter()
                .zip(&machine_sets)
                .map(|(svcs, machines)| {
                    let (sub, mapping) = shrunk_problem.induced_subproblem(svcs, machines);
                    Subproblem {
                        problem: sub,
                        mapping,
                    }
                })
                .collect();
            PartitionOutcome {
                subproblems,
                trivial_services: trivial,
                affinity_loss,
                stats: PartitionStats {
                    final_sets: service_sets.len(),
                    elapsed_secs: start.elapsed().as_secs_f64(),
                    ..Default::default()
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rasa_model::{FeatureMask, ProblemBuilder, ResourceVec};

    fn modular_problem() -> Problem {
        // 3 clusters of 6 services, heavy inside, light across
        let mut b = ProblemBuilder::new();
        let svcs: Vec<_> = (0..18)
            .map(|i| b.add_service(format!("s{i}"), 1, ResourceVec::cpu_mem(1.0, 1.0)))
            .collect();
        b.add_machines(9, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        for c in 0..3 {
            let base = c * 6;
            for i in 0..6 {
                for j in (i + 1)..6 {
                    b.add_affinity(svcs[base + i], svcs[base + j], 5.0);
                }
            }
        }
        b.add_affinity(svcs[5], svcs[6], 0.1);
        b.add_affinity(svcs[11], svcs[12], 0.1);
        b.build().unwrap()
    }

    #[test]
    fn no_partition_is_one_subproblem() {
        let p = modular_problem();
        let mut rng = StdRng::seed_from_u64(0);
        let out = partition_with_strategy(
            &p,
            None,
            PartitionStrategy::NoPartition,
            &PartitionConfig::default(),
            &mut rng,
        );
        assert_eq!(out.subproblems.len(), 1);
        assert_eq!(out.subproblems[0].problem.num_services(), 18);
        assert_eq!(out.affinity_loss, 0.0);
    }

    #[test]
    fn kahip_cut_beats_random_on_modular_graphs() {
        let p = modular_problem();
        let cfg = PartitionConfig {
            max_subproblem_services: 6,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(42);
        let kahip = partition_with_strategy(&p, None, PartitionStrategy::Kahip, &cfg, &mut rng);
        let random = partition_with_strategy(&p, None, PartitionStrategy::Random, &cfg, &mut rng);
        assert!(
            kahip.affinity_loss < random.affinity_loss,
            "kahip {} vs random {}",
            kahip.affinity_loss,
            random.affinity_loss
        );
        // multilevel should find the (near-)module split
        assert!(kahip.affinity_loss <= 0.5, "loss {}", kahip.affinity_loss);
    }

    #[test]
    fn multi_stage_beats_or_matches_kahip_here() {
        let p = modular_problem();
        let cfg = PartitionConfig {
            max_subproblem_services: 6,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let ms = partition_with_strategy(&p, None, PartitionStrategy::MultiStage, &cfg, &mut rng);
        assert!(ms.affinity_loss <= 0.5, "loss {}", ms.affinity_loss);
    }

    #[test]
    fn all_strategies_cover_all_machines_exactly_once() {
        let p = modular_problem();
        let cfg = PartitionConfig {
            max_subproblem_services: 6,
            ..Default::default()
        };
        for strat in [
            PartitionStrategy::NoPartition,
            PartitionStrategy::Random,
            PartitionStrategy::Kahip,
            PartitionStrategy::MultiStage,
        ] {
            let mut rng = StdRng::seed_from_u64(9);
            let out = partition_with_strategy(&p, None, strat, &cfg, &mut rng);
            let mut machines: Vec<_> = out
                .subproblems
                .iter()
                .flat_map(|s| s.mapping.machine_to_parent.iter().copied())
                .collect();
            machines.sort();
            machines.dedup();
            assert_eq!(machines.len(), 9, "{}", strat.label());
        }
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(PartitionStrategy::Kahip.label(), "KAHIP");
        assert_eq!(
            PartitionStrategy::MultiStage.label(),
            "MULTI-STAGE-PARTITION"
        );
    }
}
