//! The gained-affinity objective (Definition 1 / Expression (2)).

use crate::placement::Placement;
use crate::problem::Problem;

/// Gained affinity contributed by one edge `(s, s')` under `placement`:
///
/// `Σ_m w_{s,s'} · min(x_{s,m}/d_s, x_{s',m}/d_{s'})`
///
/// This is the maximum fraction of the pair's traffic that can be localized
/// under traffic load balancing (Definition 1 in the paper).
pub fn gained_affinity_of_edge(problem: &Problem, placement: &Placement, edge_idx: usize) -> f64 {
    let e = &problem.affinity_edges[edge_idx];
    let da = f64::from(problem.services[e.a.idx()].replicas);
    let db = f64::from(problem.services[e.b.idx()].replicas);
    if da == 0.0 || db == 0.0 {
        return 0.0;
    }
    // Iterate the sparser endpoint's machine set; min() is zero on machines
    // hosting only one endpoint, so intersecting is sufficient.
    let (first, second, d_first, d_second) = {
        let ca = placement.machines_of(e.a).count();
        let cb = placement.machines_of(e.b).count();
        if ca <= cb {
            (e.a, e.b, da, db)
        } else {
            (e.b, e.a, db, da)
        }
    };
    let mut gained = 0.0;
    for (m, c_first) in placement.machines_of(first) {
        let c_second = placement.count(second, m);
        if c_second == 0 {
            continue;
        }
        let frac = (f64::from(c_first) / d_first).min(f64::from(c_second) / d_second);
        gained += e.weight * frac;
    }
    gained
}

/// The overall gained affinity `Σ_{(s,s') ∈ E} Σ_m a_{s,s',m}`
/// (Expression (2)) in *absolute* weight units.
pub fn gained_affinity(problem: &Problem, placement: &Placement) -> f64 {
    (0..problem.affinity_edges.len())
        .map(|i| gained_affinity_of_edge(problem, placement, i))
        .sum()
}

/// Gained affinity normalized by the total affinity, so `1.0` means *all*
/// traffic is localized (the paper normalizes total affinity to 1.0 and
/// reports this quantity in Figs 6–10). Returns `0.0` for edge-free problems.
pub fn normalized_gained_affinity(problem: &Problem, placement: &Placement) -> f64 {
    let total = problem.total_affinity();
    if total <= 0.0 {
        return 0.0;
    }
    gained_affinity(problem, placement) / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{MachineId, ServiceId};
    use crate::machine::FeatureMask;
    use crate::problem::ProblemBuilder;
    use crate::resources::ResourceVec;

    /// The paper's Fig 2(a) example: Service A (2 containers), Service B
    /// (4 containers); placing 1×A + 2×B on one machine localizes
    /// min(1/2, 2/4) = 50% of their traffic.
    fn fig2_problem() -> Problem {
        let mut b = ProblemBuilder::new();
        let a = b.add_service("A", 2, ResourceVec::cpu_mem(1.0, 1.0));
        let bb = b.add_service("B", 4, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(3, ResourceVec::cpu_mem(16.0, 16.0), FeatureMask::EMPTY);
        b.add_affinity(a, bb, 1.0);
        b.build().unwrap()
    }

    #[test]
    fn fig2_example_gains_half() {
        let p = fig2_problem();
        let mut x = Placement::empty_for(&p);
        x.add(ServiceId(0), MachineId(0), 1);
        x.add(ServiceId(1), MachineId(0), 2);
        x.add(ServiceId(0), MachineId(1), 1);
        x.add(ServiceId(1), MachineId(2), 2);
        assert!((gained_affinity(&p, &x) - 0.5).abs() < 1e-12);
        assert!((normalized_gained_affinity(&p, &x) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn full_collocation_gains_everything() {
        let p = fig2_problem();
        let mut x = Placement::empty_for(&p);
        x.add(ServiceId(0), MachineId(0), 2);
        x.add(ServiceId(1), MachineId(0), 4);
        assert!((normalized_gained_affinity(&p, &x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_placement_gains_nothing() {
        let p = fig2_problem();
        let mut x = Placement::empty_for(&p);
        x.add(ServiceId(0), MachineId(0), 2);
        x.add(ServiceId(1), MachineId(1), 4);
        assert_eq!(gained_affinity(&p, &x), 0.0);
    }

    #[test]
    fn min_is_taken_per_machine_not_globally() {
        // A on m0 with many B, A on m1 with no B: only m0 contributes.
        let p = fig2_problem();
        let mut x = Placement::empty_for(&p);
        x.add(ServiceId(0), MachineId(0), 1);
        x.add(ServiceId(0), MachineId(1), 1);
        x.add(ServiceId(1), MachineId(0), 4);
        // m0: min(1/2, 4/4) = 0.5; m1: min(1/2, 0) = 0
        assert!((gained_affinity(&p, &x) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weights_scale_contributions() {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("x", 1, ResourceVec::ZERO);
        let s1 = b.add_service("y", 1, ResourceVec::ZERO);
        let s2 = b.add_service("z", 1, ResourceVec::ZERO);
        b.add_machine(ResourceVec::cpu_mem(10.0, 10.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 3.0);
        b.add_affinity(s1, s2, 7.0);
        let p = b.build().unwrap();
        let mut x = Placement::empty_for(&p);
        x.add(s0, MachineId(0), 1);
        x.add(s1, MachineId(0), 1);
        // only edge (s0, s1) localized
        assert!((gained_affinity(&p, &x) - 3.0).abs() < 1e-12);
        assert!((normalized_gained_affinity(&p, &x) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_problem_normalizes_to_zero() {
        let mut b = ProblemBuilder::new();
        b.add_service("lonely", 1, ResourceVec::ZERO);
        let p = b.build().unwrap();
        let x = Placement::empty_for(&p);
        assert_eq!(normalized_gained_affinity(&p, &x), 0.0);
    }

    #[test]
    fn partial_placement_counts_fractionally() {
        // B only 3 of 4 placed with both A replicas: min(2/2, 3/4) = 0.75
        let p = fig2_problem();
        let mut x = Placement::empty_for(&p);
        x.add(ServiceId(0), MachineId(0), 2);
        x.add(ServiceId(1), MachineId(0), 3);
        assert!((gained_affinity(&p, &x) - 0.75).abs() < 1e-12);
    }
}
