//! A multilevel min-weight balanced graph partitioner.
//!
//! This is the repository's stand-in for **KaHIP** (the Fig 6 baseline):
//! the classic three-phase multilevel scheme that KaHIP, METIS and friends
//! share —
//!
//! 1. **Coarsening** by heavy-edge matching: repeatedly contract a maximal
//!    matching that prefers heavy edges, so high-affinity pairs merge early;
//! 2. **Initial partitioning** of the coarsest graph by greedy region
//!    growing;
//! 3. **Uncoarsening with refinement**: project the partition back level by
//!    level, running boundary Fiduccia–Mattheyses-style local search at each
//!    level to reduce the cut while keeping parts balanced.
//!
//! Quality is comparable in spirit (not in engineering) to KaHIP: it finds
//! near-min cuts on modular graphs and respects a hard balance constraint.

use crate::csr::AffinityGraph;
use crate::partition::Partition;
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration for [`multilevel_partition`].
#[derive(Clone, Debug)]
pub struct MultilevelConfig {
    /// Number of parts `k`.
    pub num_parts: usize,
    /// Allowed imbalance ε: every part's vertex weight must stay at or below
    /// `(1 + ε) · ceil(n / k)`. KaHIP's default is 0.03; the paper's
    /// balance notion (largest ≤ 2 × smallest) is looser, so we default to
    /// a compatible 0.5.
    pub epsilon: f64,
    /// Stop coarsening when at most this many vertices remain.
    pub coarsest_size: usize,
    /// Refinement passes per level.
    pub refine_passes: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            num_parts: 2,
            epsilon: 0.5,
            coarsest_size: 64,
            refine_passes: 4,
        }
    }
}

impl MultilevelConfig {
    /// Config for `k` parts with defaults otherwise.
    pub fn with_parts(k: usize) -> Self {
        MultilevelConfig {
            num_parts: k,
            ..Default::default()
        }
    }
}

/// One level of the coarsening hierarchy.
struct Level {
    graph: AffinityGraph,
    /// Weight (number of original vertices) of each coarse vertex.
    vweight: Vec<usize>,
    /// Map from this level's vertices to the coarser level's vertices
    /// (empty for the coarsest level).
    coarse_of: Vec<usize>,
}

/// Contract a heavy-edge maximal matching. Returns `(coarse_of, coarse_n)`
/// or `None` if the matching made no progress (graph cannot shrink further).
fn heavy_edge_matching<R: Rng>(graph: &AffinityGraph, rng: &mut R) -> Option<(Vec<usize>, usize)> {
    let n = graph.num_vertices();
    let mut matched = vec![usize::MAX; n];
    let mut visit: Vec<usize> = (0..n).collect();
    visit.shuffle(rng);
    for &v in &visit {
        if matched[v] != usize::MAX {
            continue;
        }
        // heaviest unmatched neighbor
        let mut best: Option<(usize, f64)> = None;
        for (u, w) in graph.neighbors(v) {
            if u != v && matched[u] == usize::MAX && best.map_or(true, |(_, bw)| w > bw) {
                best = Some((u, w));
            }
        }
        match best {
            Some((u, _)) => {
                matched[v] = u;
                matched[u] = v;
            }
            None => matched[v] = v, // stays single
        }
    }
    let mut coarse_of = vec![usize::MAX; n];
    let mut next = 0usize;
    for v in 0..n {
        if coarse_of[v] != usize::MAX {
            continue;
        }
        coarse_of[v] = next;
        let m = matched[v];
        if m != v && m != usize::MAX {
            coarse_of[m] = next;
        }
        next += 1;
    }
    if next == n {
        None // no contraction happened
    } else {
        Some((coarse_of, next))
    }
}

/// Build the coarse graph induced by `coarse_of`.
fn contract(
    graph: &AffinityGraph,
    vweight: &[usize],
    coarse_of: &[usize],
    coarse_n: usize,
) -> (AffinityGraph, Vec<usize>) {
    let mut cw = vec![0usize; coarse_n];
    for (v, &c) in coarse_of.iter().enumerate() {
        cw[c] += vweight[v];
    }
    let mut edge_acc: std::collections::HashMap<(usize, usize), f64> = Default::default();
    for (a, b, w) in graph.edge_list() {
        let (ca, cb) = (coarse_of[a], coarse_of[b]);
        if ca == cb {
            continue;
        }
        let key = if ca < cb { (ca, cb) } else { (cb, ca) };
        *edge_acc.entry(key).or_insert(0.0) += w;
    }
    let mut edges: Vec<(usize, usize, f64)> =
        edge_acc.into_iter().map(|((a, b), w)| (a, b, w)).collect();
    edges.sort_by_key(|&(a, b, _)| (a, b));
    (AffinityGraph::from_edges(coarse_n, &edges), cw)
}

/// Greedy region growing on the coarsest graph: seed each part with the
/// highest-affinity unassigned vertex, then repeatedly add the boundary
/// vertex most connected to the part until the part reaches its weight
/// budget.
fn initial_partition(
    graph: &AffinityGraph,
    vweight: &[usize],
    k: usize,
    max_part_weight: usize,
) -> Vec<usize> {
    let n = graph.num_vertices();
    let mut part = vec![usize::MAX; n];
    let order = graph.vertices_by_total_affinity();
    let mut part_weight = vec![0usize; k];
    // Grow toward the *even* target so later parts are not starved; the
    // looser `max_part_weight` cap only constrains refinement and spilling.
    let total_weight: usize = vweight.iter().sum();
    let target = total_weight.div_ceil(k).min(max_part_weight);
    #[allow(clippy::needless_range_loop)] // p is a part id, not just an index
    for p in 0..k {
        // seed: heaviest unassigned vertex
        let Some(&seed) = order.iter().find(|&&v| part[v] == usize::MAX) else {
            break;
        };
        part[seed] = p;
        part_weight[p] += vweight[seed];
        // grow
        loop {
            if part_weight[p] >= target {
                break;
            }
            let mut best: Option<(usize, f64)> = None;
            for v in 0..n {
                if part[v] != usize::MAX {
                    continue;
                }
                if part_weight[p] + vweight[v] > target {
                    continue;
                }
                let conn: f64 = graph
                    .neighbors(v)
                    .filter(|&(u, _)| part[u] == p)
                    .map(|(_, w)| w)
                    .sum();
                if conn > 0.0 && best.map_or(true, |(_, bc)| conn > bc) {
                    best = Some((v, conn));
                }
            }
            match best {
                Some((v, _)) => {
                    part[v] = p;
                    part_weight[p] += vweight[v];
                }
                None => break,
            }
        }
    }
    // spill leftovers to the lightest fitting part
    for v in 0..n {
        if part[v] == usize::MAX {
            let p = (0..k).min_by_key(|&p| part_weight[p]).expect("k >= 1");
            part[v] = p;
            part_weight[p] += vweight[v];
        }
    }
    part
}

/// Boundary FM-style refinement: greedily move boundary vertices to the
/// part that most reduces the cut, while respecting the weight cap.
fn refine(
    graph: &AffinityGraph,
    vweight: &[usize],
    part: &mut [usize],
    k: usize,
    max_part_weight: usize,
    passes: usize,
) {
    let n = graph.num_vertices();
    let mut part_weight = vec![0usize; k];
    for v in 0..n {
        part_weight[part[v]] += vweight[v];
    }
    let mut part_count = vec![0usize; k];
    for v in 0..n {
        part_count[part[v]] += 1;
    }
    for _ in 0..passes {
        let mut moved = false;
        for v in 0..n {
            let cur = part[v];
            // never empty a part: downstream callers expect exactly k parts
            if part_count[cur] == 1 {
                continue;
            }
            // connection weight to every part
            let mut conn = vec![0.0f64; k];
            for (u, w) in graph.neighbors(v) {
                conn[part[u]] += w;
            }
            let mut best_p = cur;
            let mut best_gain = 0.0f64;
            for p in 0..k {
                if p == cur {
                    continue;
                }
                if part_weight[p] + vweight[v] > max_part_weight {
                    continue;
                }
                let gain = conn[p] - conn[cur];
                if gain > best_gain + 1e-12 {
                    best_gain = gain;
                    best_p = p;
                }
            }
            if best_p != cur {
                part_weight[cur] -= vweight[v];
                part_weight[best_p] += vweight[v];
                part_count[cur] -= 1;
                part_count[best_p] += 1;
                part[v] = best_p;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

/// Partition `graph` into `config.num_parts` parts minimizing the cut
/// weight under the balance constraint.
pub fn multilevel_partition<R: Rng>(
    graph: &AffinityGraph,
    config: &MultilevelConfig,
    rng: &mut R,
) -> Partition {
    let n = graph.num_vertices();
    let k = config.num_parts;
    assert!(k >= 1, "need at least one part");
    if k == 1 || n <= k {
        // trivial cases: one part, or one vertex per part
        if k == 1 {
            return Partition::single(n);
        }
        return Partition::from_assignment((0..n).map(|v| v % k).collect());
    }
    let max_part_weight = (((n as f64 / k as f64).ceil()) * (1.0 + config.epsilon)).ceil() as usize;

    // 1. coarsen
    let mut levels: Vec<Level> = vec![Level {
        graph: graph.clone(),
        vweight: vec![1; n],
        coarse_of: Vec::new(),
    }];
    while levels.last().unwrap().graph.num_vertices() > config.coarsest_size.max(2 * k) {
        let (coarse_of, coarse_n) = {
            let top = levels.last().unwrap();
            match heavy_edge_matching(&top.graph, rng) {
                Some(x) => x,
                None => break,
            }
        };
        let (cg, cw) = {
            let top = levels.last().unwrap();
            contract(&top.graph, &top.vweight, &coarse_of, coarse_n)
        };
        levels.last_mut().unwrap().coarse_of = coarse_of;
        levels.push(Level {
            graph: cg,
            vweight: cw,
            coarse_of: Vec::new(),
        });
    }

    // 2. initial partition on the coarsest level
    let coarsest = levels.last().unwrap();
    let mut part = initial_partition(&coarsest.graph, &coarsest.vweight, k, max_part_weight);
    refine(
        &coarsest.graph,
        &coarsest.vweight,
        &mut part,
        k,
        max_part_weight,
        config.refine_passes,
    );

    // 3. uncoarsen + refine
    for li in (0..levels.len() - 1).rev() {
        let fine = &levels[li];
        let mut fine_part = vec![0usize; fine.graph.num_vertices()];
        for v in 0..fine.graph.num_vertices() {
            fine_part[v] = part[fine.coarse_of[v]];
        }
        part = fine_part;
        refine(
            &fine.graph,
            &fine.vweight,
            &mut part,
            k,
            max_part_weight,
            config.refine_passes,
        );
    }

    Partition::from_assignment(part)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::cut_weight;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `c` cliques of size `s` with heavy internal edges, chained by light
    /// bridges.
    fn clique_chain(c: usize, s: usize) -> AffinityGraph {
        let mut edges = Vec::new();
        for ci in 0..c {
            let base = ci * s;
            for i in 0..s {
                for j in (i + 1)..s {
                    edges.push((base + i, base + j, 10.0));
                }
            }
            if ci + 1 < c {
                edges.push((base + s - 1, base + s, 0.5));
            }
        }
        AffinityGraph::from_edges(c * s, &edges)
    }

    #[test]
    fn bisection_of_two_cliques_cuts_the_bridge() {
        let g = clique_chain(2, 8);
        let mut rng = StdRng::seed_from_u64(42);
        let p = multilevel_partition(&g, &MultilevelConfig::with_parts(2), &mut rng);
        assert_eq!(p.num_parts, 2);
        assert!(
            (cut_weight(&g, &p) - 0.5).abs() < 1e-9,
            "cut = {}",
            cut_weight(&g, &p)
        );
        assert_eq!(p.sizes(), vec![8, 8]);
    }

    #[test]
    fn four_way_partition_of_four_cliques() {
        let g = clique_chain(4, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let p = multilevel_partition(&g, &MultilevelConfig::with_parts(4), &mut rng);
        assert_eq!(p.num_parts, 4);
        // perfect cut = 3 bridges × 0.5
        assert!(
            cut_weight(&g, &p) <= 1.5 + 1e-9,
            "cut = {}",
            cut_weight(&g, &p)
        );
        for size in p.sizes() {
            assert!((3..=9).contains(&size), "balanced-ish sizes, got {size}");
        }
    }

    #[test]
    fn respects_balance_cap() {
        // star graph: min cut would put everything in one part, balance forbids it
        let mut edges = Vec::new();
        for v in 1..20 {
            edges.push((0, v, 1.0));
        }
        let g = AffinityGraph::from_edges(20, &edges);
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = MultilevelConfig {
            num_parts: 2,
            epsilon: 0.2,
            ..Default::default()
        };
        let p = multilevel_partition(&g, &cfg, &mut rng);
        let max_allowed = ((20.0f64 / 2.0).ceil() * 1.2).ceil() as usize;
        assert!(
            p.sizes().iter().all(|&s| s <= max_allowed),
            "{:?}",
            p.sizes()
        );
    }

    #[test]
    fn single_part_is_trivial() {
        let g = clique_chain(2, 4);
        let mut rng = StdRng::seed_from_u64(0);
        let p = multilevel_partition(&g, &MultilevelConfig::with_parts(1), &mut rng);
        assert_eq!(p.num_parts, 1);
        assert_eq!(cut_weight(&g, &p), 0.0);
    }

    #[test]
    fn more_parts_than_vertices_degenerates_gracefully() {
        let g = AffinityGraph::from_edges(3, &[(0, 1, 1.0)]);
        let mut rng = StdRng::seed_from_u64(0);
        let p = multilevel_partition(&g, &MultilevelConfig::with_parts(5), &mut rng);
        assert_eq!(p.part_of.len(), 3);
        assert!(p.num_parts <= 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = clique_chain(3, 5);
        let p1 = multilevel_partition(
            &g,
            &MultilevelConfig::with_parts(3),
            &mut StdRng::seed_from_u64(11),
        );
        let p2 = multilevel_partition(
            &g,
            &MultilevelConfig::with_parts(3),
            &mut StdRng::seed_from_u64(11),
        );
        assert_eq!(p1, p2);
    }

    #[test]
    fn handles_disconnected_graph() {
        let g = AffinityGraph::from_edges(10, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let mut rng = StdRng::seed_from_u64(5);
        let p = multilevel_partition(&g, &MultilevelConfig::with_parts(2), &mut rng);
        assert_eq!(p.part_of.len(), 10);
    }

    #[test]
    fn large_random_graph_is_partitioned_balanced() {
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(99);
        let n = 400;
        let mut edges = Vec::new();
        for _ in 0..1200 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                edges.push((a.min(b), a.max(b), rng.gen_range(0.1..5.0)));
            }
        }
        edges.sort_by_key(|&(a, b, _)| (a, b));
        edges.dedup_by_key(|e| (e.0, e.1));
        let g = AffinityGraph::from_edges(n, &edges);
        let cfg = MultilevelConfig::with_parts(8);
        let p = multilevel_partition(&g, &cfg, &mut rng);
        let max_allowed = ((n as f64 / 8.0).ceil() * (1.0 + cfg.epsilon)).ceil() as usize;
        assert!(
            p.sizes().iter().all(|&s| s <= max_allowed),
            "{:?}",
            p.sizes()
        );
        assert!(
            cut_weight(&g, &p) < g.total_weight(),
            "refinement must beat trivial cut"
        );
    }
}
