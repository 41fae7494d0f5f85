//! Feature-graph construction (the paper's `Ĝ_k = <S_k, E_k, F_k>`).

use rasa_model::{Problem, ResourceVec};
use rasa_nn::{GraphInput, Matrix};

/// Build the GCN input for a subproblem: the affinity graph with an `N × 2`
/// feature matrix per service — normalized resource demand `r_s` and
/// container count `d_s` (Section IV-D1 defines `F_k`'s rows as
/// `[r_s, d_s]`).
///
/// Scaling: demand is expressed as the fraction of an average machine one
/// container consumes (dominant share), and `d_s` is log-compressed —
/// keeping features O(1) across cluster scales so one trained model
/// transfers between clusters, as the paper's deployment requires.
pub fn feature_graph(problem: &Problem) -> GraphInput {
    let avg_cap = average_machine_capacity(problem);
    let features = Matrix::from_fn(problem.num_services(), 2, |s, c| {
        let svc = &problem.services[s];
        match c {
            0 => svc.demand.dominant_share(&avg_cap).min(10.0),
            _ => (1.0 + f64::from(svc.replicas)).ln(),
        }
    });
    let edges: Vec<(usize, usize, f64)> = problem
        .affinity_edges
        .iter()
        .map(|e| (e.a.idx(), e.b.idx(), e.weight))
        .collect();
    GraphInput::new(features, &edges)
}

/// Dimension of the [`portfolio_features`] vector.
pub const PORTFOLIO_FEATURE_DIM: usize = 10;

/// Fixed-dimension subproblem descriptor recorded with every
/// [`SelectionSample`](crate::SelectionSample): everything the binary GCN
/// sees (scale, demand, replicas) plus the cut-quality / affinity-density
/// signals that separate POP-friendly subproblems (dense, evenly-spread
/// affinity the random split barely hurts... or hub-concentrated graphs it
/// destroys) from solver-friendly ones. All entries are O(1) across cluster
/// scales (log-compressed or normalized ratios).
///
/// Index glossary (documented for operators in `docs/STRATEGIES.md`):
/// 0 `ln(1+services)`, 1 `ln(1+machines)`, 2 `ln(1+edges)`,
/// 3 edge density (`2e/(n(n-1))`, clamped to \[0,1\]),
/// 4 affinity density (`ln(1+total_weight/services)`),
/// 5 mean dominant demand share, 6 mean `ln(1+replicas)`,
/// 7 weighted-degree coefficient of variation (hub-ness),
/// 8 top-quartile weighted-degree share (cut concentration),
/// 9 replica pressure (`ln(1+replicas_total/machines)`).
pub fn portfolio_features(problem: &Problem) -> Vec<f64> {
    let n = problem.num_services();
    let m = problem.num_machines();
    let e = problem.affinity_edges.len();
    let avg_cap = average_machine_capacity(problem);

    let total_weight: f64 = problem.affinity_edges.iter().map(|x| x.weight).sum();
    let mut degree = vec![0.0f64; n];
    for edge in &problem.affinity_edges {
        degree[edge.a.idx()] += edge.weight;
        degree[edge.b.idx()] += edge.weight;
    }
    let deg_mean = if n > 0 {
        degree.iter().sum::<f64>() / n as f64
    } else {
        0.0
    };
    let deg_cv = if deg_mean > 0.0 {
        let var = degree
            .iter()
            .map(|d| (d - deg_mean) * (d - deg_mean))
            .sum::<f64>()
            / n as f64;
        (var.sqrt() / deg_mean).min(10.0)
    } else {
        0.0
    };
    let top_share = if total_weight > 0.0 && n > 0 {
        let mut sorted = degree.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        let top = n.div_ceil(4);
        // each edge contributes its weight to two degrees, so the degree
        // sum is 2×total_weight; normalize by the degree sum
        sorted.iter().take(top).sum::<f64>() / (2.0 * total_weight)
    } else {
        0.0
    };

    let (mut share_sum, mut replica_log_sum, mut replicas_total) = (0.0f64, 0.0f64, 0.0f64);
    for svc in &problem.services {
        share_sum += svc.demand.dominant_share(&avg_cap).min(10.0);
        replica_log_sum += (1.0 + f64::from(svc.replicas)).ln();
        replicas_total += f64::from(svc.replicas);
    }
    let nf = n.max(1) as f64;

    vec![
        (1.0 + n as f64).ln(),
        (1.0 + m as f64).ln(),
        (1.0 + e as f64).ln(),
        if n > 1 {
            ((2.0 * e as f64) / (n as f64 * (n as f64 - 1.0))).min(1.0)
        } else {
            0.0
        },
        (1.0 + total_weight / nf).ln(),
        share_sum / nf,
        replica_log_sum / nf,
        deg_cv,
        top_share,
        (1.0 + replicas_total / m.max(1) as f64).ln(),
    ]
}

/// Component-wise mean capacity over machines (a neutral scale for demand
/// normalization). Falls back to all-ones when the problem has no machines.
pub fn average_machine_capacity(problem: &Problem) -> ResourceVec {
    if problem.machines.is_empty() {
        return ResourceVec::new(1.0, 1.0, 1.0, 1.0);
    }
    let mut total = ResourceVec::ZERO;
    for m in &problem.machines {
        total += m.capacity;
    }
    total * (1.0 / problem.machines.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{FeatureMask, ProblemBuilder};

    #[test]
    fn features_have_two_columns_and_edges_carry_weights() {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 4, ResourceVec::cpu_mem(2.0, 2.0));
        let s1 = b.add_service("b", 1, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machine(ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 3.0);
        let p = b.build().unwrap();
        let g = feature_graph(&p);
        assert_eq!(g.features.rows, 2);
        assert_eq!(g.features.cols, 2);
        // demand share: 2/8 = 0.25
        assert!((g.features.get(0, 0) - 0.25).abs() < 1e-12);
        // log(1 + 4)
        assert!((g.features.get(0, 1) - 5.0f64.ln()).abs() < 1e-12);
        // adjacency off-diagonal nonzero for the single edge
        assert!(g.adjacency.get(0, 1) > 0.0);
    }

    #[test]
    fn demand_share_is_capped() {
        let mut b = ProblemBuilder::new();
        b.add_service("huge", 1, ResourceVec::cpu_mem(1e9, 1.0));
        b.add_machine(ResourceVec::cpu_mem(1.0, 1.0), FeatureMask::EMPTY);
        let p = b.build().unwrap();
        let g = feature_graph(&p);
        assert_eq!(g.features.get(0, 0), 10.0);
    }

    #[test]
    fn no_machines_does_not_divide_by_zero() {
        let mut b = ProblemBuilder::new();
        b.add_service("a", 1, ResourceVec::cpu_mem(2.0, 2.0));
        let p = b.build().unwrap();
        let g = feature_graph(&p);
        assert!(g.features.get(0, 0).is_finite());
    }

    #[test]
    fn portfolio_features_have_fixed_dim_and_stay_finite() {
        // empty, machine-less, and regular problems all produce a finite
        // PORTFOLIO_FEATURE_DIM-length vector
        let empty = ProblemBuilder::new().build().unwrap();
        let mut b = ProblemBuilder::new();
        b.add_service("a", 3, ResourceVec::cpu_mem(1.0, 1.0));
        let no_machines = b.build().unwrap();
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 4, ResourceVec::cpu_mem(2.0, 2.0));
        let s1 = b.add_service("b", 1, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machine(ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 3.0);
        let regular = b.build().unwrap();
        for p in [&empty, &no_machines, &regular] {
            let f = portfolio_features(p);
            assert_eq!(f.len(), PORTFOLIO_FEATURE_DIM);
            assert!(f.iter().all(|v| v.is_finite()), "{f:?}");
        }
    }

    #[test]
    fn hub_concentration_separates_star_from_matching() {
        // a star graph concentrates weighted degree on the hub; a perfect
        // matching spreads it evenly — the cut-quality features must tell
        // these apart (POP hurts the matching far less than the star)
        let mut star = ProblemBuilder::new();
        let hub = star.add_service("hub", 1, ResourceVec::cpu_mem(1.0, 1.0));
        let leaves: Vec<_> = (0..7)
            .map(|i| star.add_service(format!("l{i}"), 1, ResourceVec::cpu_mem(1.0, 1.0)))
            .collect();
        star.add_machines(4, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        for &l in &leaves {
            star.add_affinity(hub, l, 1.0);
        }
        let star = star.build().unwrap();

        let mut matching = ProblemBuilder::new();
        let svcs: Vec<_> = (0..8)
            .map(|i| matching.add_service(format!("s{i}"), 1, ResourceVec::cpu_mem(1.0, 1.0)))
            .collect();
        matching.add_machines(4, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        for i in 0..4 {
            matching.add_affinity(svcs[2 * i], svcs[2 * i + 1], 1.0);
        }
        let matching = matching.build().unwrap();

        let fs = portfolio_features(&star);
        let fm = portfolio_features(&matching);
        assert!(
            fs[7] > fm[7],
            "degree CV: star {} vs matching {}",
            fs[7],
            fm[7]
        );
        assert!(
            fs[8] > fm[8],
            "top share: star {} vs matching {}",
            fs[8],
            fm[8]
        );
    }
}
