//! The four-stage partitioning pipeline (Section IV-B) and its outputs.

use crate::machines::assign_machines;
use crate::master::{default_master_ratio, master_services};
use rand::Rng;
use rasa_graph::{bfs_seeded_partition, cut_weight, is_balanced, AffinityGraph, Partition};
use rasa_model::{Placement, Problem, ServiceId, SubproblemMapping};
use std::time::Instant;

/// Balance criterion for stage 4 (paper: largest ≤ 2 × smallest).
pub const BALANCE_RATIO: f64 = 2.0;
/// Cap on the number of candidate partitions stage 4 samples (the paper
/// samples `|E|`; at industrial scale that is parallelized — we cap for
/// single-machine reproduction).
pub const MAX_SAMPLES: usize = 64;

/// Knobs for [`multi_stage_partition`]. Stage 4's balance criterion and
/// sample cap are the constants [`BALANCE_RATIO`] and [`MAX_SAMPLES`].
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// Master ratio `α`; `None` uses the paper's `45 · ln^0.66(N) / N`.
    pub master_ratio: Option<f64>,
    /// Service sets larger than this are split by stage 4.
    pub max_subproblem_services: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            master_ratio: None,
            max_subproblem_services: 24,
        }
    }
}

/// One subproblem: an induced problem plus the id mapping back to the
/// parent.
#[derive(Clone, Debug)]
pub struct Subproblem {
    /// Induced problem (re-densified ids, machines assigned).
    pub problem: Problem,
    /// Translation back to parent ids.
    pub mapping: SubproblemMapping,
}

/// Output of the multi-stage partitioning.
#[derive(Clone, Debug)]
pub struct PartitionOutcome {
    /// Crucial subproblems, each to be solved independently.
    pub subproblems: Vec<Subproblem>,
    /// Trivial services (non-affinity + non-master): left to the default
    /// scheduler / completion pass.
    pub trivial_services: Vec<ServiceId>,
    /// Affinity weight on edges crossing between different crucial sets or
    /// into the trivial set — the partitioning's optimality loss upper
    /// bound (the paper reports this stays below ~12%).
    pub affinity_loss: f64,
    /// Breakdown per stage for reports.
    pub stats: PartitionStats,
}

/// Per-stage counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PartitionStats {
    /// Services with no affinity edges (stage 1).
    pub non_affinity: usize,
    /// Master services kept by stage 2.
    pub masters: usize,
    /// Effective master ratio used.
    pub alpha: f64,
    /// Compatibility blocks after stage 3.
    pub compat_blocks: usize,
    /// Final crucial sets after stage 4.
    pub final_sets: usize,
    /// Wall-clock seconds spent partitioning.
    pub elapsed_secs: f64,
}

/// Run the four-stage service partitioning and machine assignment.
///
/// `current` (the running cluster's placement) is used to shrink machine
/// capacities by trivial services' usage; pass `None` when planning from
/// scratch. Randomness (stage 4 seeds) comes from `rng`, so outcomes are
/// reproducible.
pub fn multi_stage_partition<R: Rng>(
    problem: &Problem,
    current: Option<&Placement>,
    config: &PartitionConfig,
    rng: &mut R,
) -> PartitionOutcome {
    let start = Instant::now();
    let graph = AffinityGraph::from_problem(problem);
    let n_total = problem.num_services();

    // Stage 1: non-affinity partitioning.
    let affinity_vertices = graph.vertices_with_affinity();
    let non_affinity_count = n_total - affinity_vertices.len();

    // Stage 2: master-affinity partitioning.
    let alpha = config
        .master_ratio
        .unwrap_or_else(|| default_master_ratio(n_total));
    let (masters, non_masters) = master_services(&graph, &affinity_vertices, n_total, alpha);

    let mut trivial_services: Vec<ServiceId> = (0..n_total)
        .filter(|v| graph.degree(*v) == 0)
        .map(|v| ServiceId(v as u32))
        .collect();
    trivial_services.extend(non_masters.iter().map(|&v| ServiceId(v as u32)));
    trivial_services.sort();

    // Stage 3: compatibility partitioning — union services that share a
    // compatible machine group.
    let groups = problem.machine_groups();
    let mut dsu = Dsu::new(masters.len());
    {
        // anchor: first master service compatible with each group
        let mut anchor: Vec<Option<usize>> = vec![None; groups.len()];
        for (mi, &v) in masters.iter().enumerate() {
            let req = problem.services[v].required_features;
            for (gi, g) in groups.iter().enumerate() {
                if req.subset_of(g.features) {
                    match anchor[gi] {
                        None => anchor[gi] = Some(mi),
                        Some(a) => dsu.union(a, mi),
                    }
                }
            }
        }
    }
    // compatibility must not split affinity edges needlessly — but services
    // with disjoint machine sets genuinely cannot collocate, so the paper
    // separates them even if an edge connects them (that edge is dead
    // weight: min() is always 0). We follow the paper.
    let mut blocks: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (mi, &v) in masters.iter().enumerate() {
        blocks.entry(dsu.find(mi)).or_default().push(v);
    }
    let compat_blocks: Vec<Vec<usize>> = blocks.into_values().collect();
    let num_compat_blocks = compat_blocks.len();

    // Stage 4: loss-minimization balanced partitioning of oversized blocks.
    //
    // Zero-loss cuts come first: a compatibility block whose affinity
    // subgraph is disconnected splits along connected components for free,
    // so whole components are bin-packed into budget-sized sets and only
    // components that are *themselves* oversized go through the paper's
    // sampled BFS heuristic. (The heuristic would also find these cuts
    // given enough samples — packing just guarantees it.)
    let mut final_sets: Vec<Vec<usize>> = Vec::new();
    for block in compat_blocks {
        if block.len() <= config.max_subproblem_services {
            final_sets.push(block);
            continue;
        }
        // induced graph over the block
        let index_of: std::collections::HashMap<usize, usize> =
            block.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut edges: Vec<(usize, usize, f64)> = Vec::new();
        for &v in &block {
            for (u, w) in graph.neighbors(v) {
                if v < u {
                    if let (Some(&a), Some(&b)) = (index_of.get(&v), index_of.get(&u)) {
                        edges.push((a, b, w));
                    }
                }
            }
        }
        let sub_graph = AffinityGraph::from_edges(block.len(), &edges);
        let (comp_of, num_comps) = rasa_graph::connected_components(&sub_graph);
        let mut components: Vec<Vec<usize>> = vec![Vec::new(); num_comps];
        for (i, &c) in comp_of.iter().enumerate() {
            components[c].push(i);
        }
        // first-fit-decreasing packing of whole components into sets
        components.sort_by_key(|c| std::cmp::Reverse(c.len()));
        let mut packed: Vec<Vec<usize>> = Vec::new(); // local indices
        for comp in components {
            if comp.len() > config.max_subproblem_services {
                // oversized component: the paper's sampled-BFS heuristic,
                // applied recursively until every part fits the budget
                // (unbalanced best-cut fallbacks can leave oversized parts)
                let mut work: Vec<Vec<usize>> = vec![comp];
                while let Some(piece) = work.pop() {
                    if piece.len() <= config.max_subproblem_services {
                        packed.push(piece);
                        continue;
                    }
                    let piece_index: std::collections::HashMap<usize, usize> =
                        piece.iter().enumerate().map(|(i, &v)| (v, i)).collect();
                    let mut piece_edges: Vec<(usize, usize, f64)> = Vec::new();
                    for &v in &piece {
                        for (u, w) in sub_graph.neighbors(v) {
                            if v < u {
                                if let (Some(&a), Some(&b)) =
                                    (piece_index.get(&v), piece_index.get(&u))
                                {
                                    piece_edges.push((a, b, w));
                                }
                            }
                        }
                    }
                    let piece_graph = AffinityGraph::from_edges(piece.len(), &piece_edges);
                    let h = piece.len().div_ceil(config.max_subproblem_services);
                    let samples = piece_graph.num_edges().clamp(1, MAX_SAMPLES);
                    let mut best: Option<(f64, Partition)> = None;
                    let mut best_unbalanced: Option<(f64, Partition)> = None;
                    for _ in 0..samples {
                        let p = bfs_seeded_partition(&piece_graph, h.min(piece.len()), rng);
                        let cut = cut_weight(&piece_graph, &p);
                        if is_balanced(&p, BALANCE_RATIO) {
                            if best.as_ref().map_or(true, |(bc, _)| cut < *bc) {
                                best = Some((cut, p));
                            }
                        } else if best_unbalanced.as_ref().map_or(true, |(bc, _)| cut < *bc) {
                            best_unbalanced = Some((cut, p));
                        }
                    }
                    let chosen = best.or(best_unbalanced).expect("at least one sample").1;
                    let parts = chosen.parts();
                    if parts.len() <= 1 {
                        // splitter made no progress: force even chunks in
                        // BFS order so recursion terminates
                        for chunk in piece.chunks(config.max_subproblem_services) {
                            packed.push(chunk.to_vec());
                        }
                        continue;
                    }
                    for part in parts {
                        work.push(part.into_iter().map(|i| piece[i]).collect());
                    }
                }
            } else {
                // fits whole: first-fit into an existing set with room
                match packed
                    .iter_mut()
                    .find(|set| set.len() + comp.len() <= config.max_subproblem_services)
                {
                    Some(set) => set.extend(comp),
                    None => packed.push(comp),
                }
            }
        }
        for set in packed {
            final_sets.push(set.into_iter().map(|i| block[i]).collect());
        }
    }

    // affinity loss: edges not contained within a single final set
    let set_of: std::collections::HashMap<usize, usize> = final_sets
        .iter()
        .enumerate()
        .flat_map(|(k, set)| set.iter().map(move |&v| (v, k)))
        .collect();
    let mut affinity_loss = 0.0;
    for e in &problem.affinity_edges {
        match (set_of.get(&e.a.idx()), set_of.get(&e.b.idx())) {
            (Some(a), Some(b)) if a == b => {}
            _ => affinity_loss += e.weight,
        }
    }

    // machine assignment (Section IV-B5) on shrunk capacities
    let shrunk = crate::machines::shrunk_capacities(problem, current, &trivial_services);
    let mut shrunk_problem = problem.clone();
    for (m, cap) in shrunk_problem.machines.iter_mut().zip(shrunk) {
        m.capacity = cap;
    }
    let service_sets: Vec<Vec<ServiceId>> = final_sets
        .iter()
        .map(|set| set.iter().map(|&v| ServiceId(v as u32)).collect())
        .collect();
    let machine_sets = assign_machines(&shrunk_problem, &service_sets);

    let subproblems: Vec<Subproblem> = service_sets
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
        trivial_services,
        affinity_loss,
        stats: PartitionStats {
            non_affinity: non_affinity_count,
            masters: masters.len(),
            alpha,
            compat_blocks: num_compat_blocks,
            final_sets: final_sets.len(),
            elapsed_secs: start.elapsed().as_secs_f64(),
        },
    }
}

/// Minimal union-find.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rasa_model::{FeatureMask, ProblemBuilder, ResourceVec};

    /// 2 heavy hubs + light tail + isolated services.
    fn skewed_problem() -> Problem {
        let mut b = ProblemBuilder::new();
        let svcs: Vec<_> = (0..12)
            .map(|i| b.add_service(format!("s{i}"), 2, ResourceVec::cpu_mem(1.0, 1.0)))
            .collect();
        b.add_machines(6, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        // hub 0 and 1 carry nearly all affinity
        b.add_affinity(svcs[0], svcs[1], 100.0);
        b.add_affinity(svcs[0], svcs[2], 50.0);
        b.add_affinity(svcs[1], svcs[3], 40.0);
        // light tail
        b.add_affinity(svcs[4], svcs[5], 0.5);
        b.add_affinity(svcs[6], svcs[7], 0.2);
        // services 8..12 isolated
        b.build().unwrap()
    }

    #[test]
    fn stage1_identifies_non_affinity_services() {
        let p = skewed_problem();
        let mut rng = StdRng::seed_from_u64(0);
        let out = multi_stage_partition(&p, None, &PartitionConfig::default(), &mut rng);
        assert_eq!(out.stats.non_affinity, 4);
        for v in 8..12 {
            assert!(out.trivial_services.contains(&ServiceId(v)));
        }
    }

    #[test]
    fn small_problem_keeps_all_affinity_services_as_masters() {
        let p = skewed_problem();
        let mut rng = StdRng::seed_from_u64(0);
        let out = multi_stage_partition(&p, None, &PartitionConfig::default(), &mut rng);
        // N = 12 → α clamps to 1 → every affinity service is a master
        assert_eq!(out.stats.alpha, 1.0);
        assert_eq!(out.stats.masters, 8);
        assert_eq!(out.affinity_loss, 0.0, "single block keeps every edge");
    }

    #[test]
    fn master_ratio_override_drops_the_tail() {
        let p = skewed_problem();
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = PartitionConfig {
            master_ratio: Some(0.34), // ⌊0.34·12⌋ = 4 masters
            ..Default::default()
        };
        let out = multi_stage_partition(&p, None, &cfg, &mut rng);
        assert_eq!(out.stats.masters, 4);
        // hubs (0,1,2,3 by T) survive; tail edges lost
        assert!(
            (out.affinity_loss - 0.7).abs() < 1e-9,
            "loss {}",
            out.affinity_loss
        );
        // the loss is a small share of total affinity — the skewness argument
        assert!(out.affinity_loss / p.total_affinity() < 0.01);
    }

    #[test]
    fn compatibility_splits_disjoint_feature_blocks() {
        let mut b = ProblemBuilder::new();
        let a0 = b.add_service_full(
            rasa_model::Service::new(ServiceId(0), "v4a", 1, ResourceVec::cpu_mem(1.0, 1.0))
                .with_features(FeatureMask::bit(0)),
        );
        let a1 = b.add_service_full(
            rasa_model::Service::new(ServiceId(0), "v4b", 1, ResourceVec::cpu_mem(1.0, 1.0))
                .with_features(FeatureMask::bit(0)),
        );
        let b0 = b.add_service_full(
            rasa_model::Service::new(ServiceId(0), "v6a", 1, ResourceVec::cpu_mem(1.0, 1.0))
                .with_features(FeatureMask::bit(1)),
        );
        let b1 = b.add_service_full(
            rasa_model::Service::new(ServiceId(0), "v6b", 1, ResourceVec::cpu_mem(1.0, 1.0))
                .with_features(FeatureMask::bit(1)),
        );
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::bit(0));
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::bit(1));
        b.add_affinity(a0, a1, 1.0);
        b.add_affinity(b0, b1, 1.0);
        let p = b.build().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let out = multi_stage_partition(&p, None, &PartitionConfig::default(), &mut rng);
        assert_eq!(out.stats.compat_blocks, 2);
        assert_eq!(out.subproblems.len(), 2);
        // machines follow compatibility
        for sub in &out.subproblems {
            assert_eq!(sub.problem.num_machines(), 2);
            assert_eq!(sub.problem.num_services(), 2);
        }
        assert_eq!(out.affinity_loss, 0.0);
    }

    #[test]
    fn stage4_splits_oversized_blocks_with_bounded_loss() {
        // two 10-cliques bridged by one light edge; budget forces a split
        let mut b = ProblemBuilder::new();
        let svcs: Vec<_> = (0..20)
            .map(|i| b.add_service(format!("s{i}"), 1, ResourceVec::cpu_mem(1.0, 1.0)))
            .collect();
        b.add_machines(10, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        for c in 0..2 {
            let base = c * 10;
            for i in 0..10 {
                for j in (i + 1)..10 {
                    b.add_affinity(svcs[base + i], svcs[base + j], 10.0);
                }
            }
        }
        b.add_affinity(svcs[9], svcs[10], 0.1);
        let p = b.build().unwrap();
        let cfg = PartitionConfig {
            max_subproblem_services: 12,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let out = multi_stage_partition(&p, None, &cfg, &mut rng);
        assert!(out.subproblems.len() >= 2);
        // loss should be (near) the bridge only
        assert!(
            out.affinity_loss <= 0.02 * p.total_affinity(),
            "loss {} of {}",
            out.affinity_loss,
            p.total_affinity()
        );
    }

    #[test]
    fn machines_are_partitioned_without_overlap() {
        let p = skewed_problem();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = PartitionConfig {
            max_subproblem_services: 4,
            ..Default::default()
        };
        let out = multi_stage_partition(&p, None, &cfg, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for sub in &out.subproblems {
            for m in &sub.mapping.machine_to_parent {
                assert!(seen.insert(*m), "machine {m} assigned twice");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let p = skewed_problem();
        let cfg = PartitionConfig {
            max_subproblem_services: 3,
            ..Default::default()
        };
        let a = multi_stage_partition(&p, None, &cfg, &mut StdRng::seed_from_u64(5));
        let b = multi_stage_partition(&p, None, &cfg, &mut StdRng::seed_from_u64(5));
        assert_eq!(
            PartitionStats {
                elapsed_secs: 0.0,
                ..a.stats
            },
            PartitionStats {
                elapsed_secs: 0.0,
                ..b.stats
            }
        );
        assert_eq!(a.trivial_services, b.trivial_services);
        assert_eq!(a.affinity_loss, b.affinity_loss);
    }

    #[test]
    fn current_placement_shrinks_capacity_for_trivial_services() {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 1, ResourceVec::cpu_mem(1.0, 1.0));
        let s1 = b.add_service("b", 1, ResourceVec::cpu_mem(1.0, 1.0));
        let t = b.add_service("fat-trivial", 1, ResourceVec::cpu_mem(6.0, 6.0));
        b.add_machine(ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 1.0);
        let p = b.build().unwrap();
        let mut current = Placement::empty_for(&p);
        current.add(t, rasa_model::MachineId(0), 1);
        let mut rng = StdRng::seed_from_u64(1);
        let out = multi_stage_partition(&p, Some(&current), &PartitionConfig::default(), &mut rng);
        assert_eq!(out.subproblems.len(), 1);
        let cap = out.subproblems[0].problem.machines[0].capacity;
        assert_eq!(cap, ResourceVec::cpu_mem(2.0, 2.0));
    }
}
