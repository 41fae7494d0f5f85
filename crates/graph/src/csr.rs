//! CSR-backed weighted undirected affinity graph.

use rasa_model::Problem;

/// Compressed sparse row view of an affinity graph `G = <V, E>`
/// (Section II-B). Vertices are dense `usize` indices matching
/// `ServiceId` indices of the originating problem (or any local index space
/// when built from raw edges).
#[derive(Clone, Debug)]
pub struct AffinityGraph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors`/`weights` for vertex `v`.
    offsets: Vec<usize>,
    /// Flattened neighbor lists (each undirected edge appears twice).
    neighbors: Vec<u32>,
    /// Weight parallel to `neighbors`.
    weights: Vec<f64>,
    /// Number of undirected edges.
    num_edges: usize,
}

impl AffinityGraph {
    /// Build from an explicit vertex count and undirected weighted edges.
    ///
    /// # Panics
    /// Panics if an edge endpoint is out of range.
    pub fn from_edges(num_vertices: usize, edges: &[(usize, usize, f64)]) -> Self {
        let mut degree = vec![0usize; num_vertices];
        for &(a, b, _) in edges {
            assert!(
                a < num_vertices && b < num_vertices,
                "edge endpoint out of range"
            );
            degree[a] += 1;
            degree[b] += 1;
        }
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        offsets.push(0usize);
        for d in &degree {
            offsets.push(offsets.last().unwrap() + d);
        }
        let mut cursor = offsets[..num_vertices].to_vec();
        let mut neighbors = vec![0u32; offsets[num_vertices]];
        let mut weights = vec![0.0; offsets[num_vertices]];
        for &(a, b, w) in edges {
            neighbors[cursor[a]] = b as u32;
            weights[cursor[a]] = w;
            cursor[a] += 1;
            neighbors[cursor[b]] = a as u32;
            weights[cursor[b]] = w;
            cursor[b] += 1;
        }
        AffinityGraph {
            offsets,
            neighbors,
            weights,
            num_edges: edges.len(),
        }
    }

    /// Build from a problem's affinity edge list; vertex `k` is `ServiceId(k)`.
    pub fn from_problem(problem: &Problem) -> Self {
        let edges: Vec<(usize, usize, f64)> = problem
            .affinity_edges
            .iter()
            .map(|e| (e.a.idx(), e.b.idx(), e.weight))
            .collect();
        Self::from_edges(problem.num_services(), &edges)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Neighbors of `v` with edge weights.
    #[inline]
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.offsets[v]..self.offsets[v + 1];
        self.neighbors[range.clone()]
            .iter()
            .zip(&self.weights[range])
            .map(|(&n, &w)| (n as usize, w))
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// `T(v) = Σ_{u ∈ N(v)} w_{v,u}` — the *total affinity* of a vertex
    /// (Section IV-B2).
    pub fn total_affinity_of(&self, v: usize) -> f64 {
        self.neighbors(v).map(|(_, w)| w).sum()
    }

    /// `T(v)` for every vertex.
    pub fn all_total_affinities(&self) -> Vec<f64> {
        (0..self.num_vertices())
            .map(|v| self.total_affinity_of(v))
            .collect()
    }

    /// Sum of all edge weights (the paper's *total affinity* of the graph,
    /// before normalization to 1.0).
    pub fn total_weight(&self) -> f64 {
        // each undirected edge is stored twice
        self.weights.iter().sum::<f64>() / 2.0
    }

    /// Vertices sorted by decreasing total affinity; ties broken by index
    /// for determinism. The prefix of this order defines the paper's
    /// *master services*.
    pub fn vertices_by_total_affinity(&self) -> Vec<usize> {
        let t = self.all_total_affinities();
        let mut order: Vec<usize> = (0..self.num_vertices()).collect();
        order.sort_by(|&a, &b| {
            t[b].partial_cmp(&t[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order
    }

    /// Vertices with at least one incident edge (the paper's *affinity set*;
    /// its complement is the non-affinity set of Section IV-B1).
    pub fn vertices_with_affinity(&self) -> Vec<usize> {
        (0..self.num_vertices())
            .filter(|&v| self.degree(v) > 0)
            .collect()
    }

    /// Weight of the edge `(a, b)` if present.
    pub fn edge_weight(&self, a: usize, b: usize) -> Option<f64> {
        self.neighbors(a).find(|&(n, _)| n == b).map(|(_, w)| w)
    }

    /// Undirected edge list `(a, b, w)` with `a < b`, in storage order.
    pub fn edge_list(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for v in 0..self.num_vertices() {
            for (u, w) in self.neighbors(v) {
                if v < u {
                    out.push((v, u, w));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> AffinityGraph {
        AffinityGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    }

    #[test]
    fn construction_and_degrees() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0, "isolated vertex has degree 0");
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = triangle();
        let n0: Vec<_> = g.neighbors(0).collect();
        assert!(n0.contains(&(1, 1.0)));
        assert!(n0.contains(&(2, 3.0)));
        let n1: Vec<_> = g.neighbors(1).collect();
        assert!(n1.contains(&(0, 1.0)));
    }

    #[test]
    fn total_affinity_per_vertex_and_graph() {
        let g = triangle();
        assert_eq!(g.total_affinity_of(0), 4.0);
        assert_eq!(g.total_affinity_of(1), 3.0);
        assert_eq!(g.total_affinity_of(2), 5.0);
        assert_eq!(g.total_affinity_of(3), 0.0);
        assert_eq!(g.total_weight(), 6.0);
    }

    #[test]
    fn ranking_by_total_affinity() {
        let g = triangle();
        assert_eq!(g.vertices_by_total_affinity(), vec![2, 0, 1, 3]);
    }

    #[test]
    fn affinity_set_excludes_isolated() {
        let g = triangle();
        assert_eq!(g.vertices_with_affinity(), vec![0, 1, 2]);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = triangle();
        assert_eq!(g.edge_weight(0, 2), Some(3.0));
        assert_eq!(g.edge_weight(2, 0), Some(3.0));
        assert_eq!(g.edge_weight(0, 3), None);
    }

    #[test]
    fn edge_list_normalizes_direction() {
        let g = triangle();
        let mut edges = g.edge_list();
        edges.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(edges, vec![(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0)]);
    }

    #[test]
    fn from_problem_matches_manual_graph() {
        use rasa_model::{FeatureMask, ProblemBuilder, ResourceVec};
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 1, ResourceVec::ZERO);
        let s1 = b.add_service("b", 1, ResourceVec::ZERO);
        b.add_machine(ResourceVec::cpu_mem(1.0, 1.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 4.5);
        let p = b.build().unwrap();
        let g = AffinityGraph::from_problem(&p);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(4.5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = AffinityGraph::from_edges(2, &[(0, 5, 1.0)]);
    }

    #[test]
    fn empty_graph() {
        let g = AffinityGraph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.total_weight(), 0.0);
        assert!(g.edge_list().is_empty());
    }
}
