//! Placement stabilization: exploit machine-group symmetry to minimize
//! container movement.
//!
//! Machines with identical capacity and features are interchangeable, so
//! any permutation of a candidate placement's per-machine contents *within
//! a machine group* realizes exactly the same gained affinity. A fresh
//! solver run names machines arbitrarily; matched against the running
//! cluster that arbitrariness shows up as pointless container moves. This
//! pass greedily re-assigns each group's candidate machine contents to the
//! member machines whose *current* contents overlap them most, which is
//! what keeps the paper's steady-state reallocations small (Section III-B:
//! "less than 5% of the total containers are relocated").

use rasa_model::{MachineId, Placement, Problem, ServiceId};

/// Permute `candidate`'s machine contents within each machine group to
/// maximize container overlap with `current`. The returned placement has
/// identical gained affinity and feasibility to `candidate` (only machine
/// *identities* within groups change) but typically needs far fewer moves
/// from `current`.
pub fn stabilize_placement(
    problem: &Problem,
    candidate: &Placement,
    current: &Placement,
) -> Placement {
    // contents per machine, as (service -> count) maps
    let contents = |placement: &Placement, m: MachineId| -> Vec<(ServiceId, u32)> {
        problem
            .services
            .iter()
            .filter_map(|s| {
                let c = placement.count(s.id, m);
                (c > 0).then_some((s.id, c))
            })
            .collect()
    };
    let overlap = |a: &[(ServiceId, u32)], b: &[(ServiceId, u32)]| -> u64 {
        let mut total = 0u64;
        for &(s, ca) in a {
            if let Some(&(_, cb)) = b.iter().find(|&&(t, _)| t == s) {
                total += u64::from(ca.min(cb));
            }
        }
        total
    };

    let mut out = Placement::empty_for(problem);
    for group in problem.machine_groups() {
        let members = &group.members;
        let cand: Vec<Vec<(ServiceId, u32)>> =
            members.iter().map(|&m| contents(candidate, m)).collect();
        let cur: Vec<Vec<(ServiceId, u32)>> =
            members.iter().map(|&m| contents(current, m)).collect();

        // greedy max-overlap matching: repeatedly take the best unmatched
        // (candidate content, member) pair
        let k = members.len();
        let mut pairs: Vec<(u64, usize, usize)> = Vec::with_capacity(k * k);
        for (ci, c) in cand.iter().enumerate() {
            if c.is_empty() {
                continue; // empty contents can go anywhere; matched last
            }
            for (mi, m) in cur.iter().enumerate() {
                pairs.push((overlap(c, m), ci, mi));
            }
        }
        pairs.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut cand_taken = vec![false; k];
        let mut member_taken = vec![false; k];
        let mut assignment: Vec<Option<usize>> = vec![None; k]; // cand -> member
        for (_, ci, mi) in pairs {
            if !cand_taken[ci] && !member_taken[mi] {
                cand_taken[ci] = true;
                member_taken[mi] = true;
                assignment[ci] = Some(mi);
            }
        }
        // leftovers (empty candidate contents or unmatched): first free member
        let mut free_members: Vec<usize> = (0..k).filter(|&mi| !member_taken[mi]).collect();
        for slot in assignment.iter_mut() {
            if slot.is_none() {
                *slot = free_members.pop();
            }
        }
        for (ci, slot) in assignment.iter().enumerate() {
            let mi = slot.expect("every candidate machine is assigned");
            for &(s, c) in &cand[ci] {
                out.add(s, members[mi], c);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{gained_affinity, FeatureMask, ProblemBuilder, ResourceVec};

    fn problem() -> Problem {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 2, ResourceVec::cpu_mem(1.0, 1.0));
        let s1 = b.add_service("b", 2, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(3, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 5.0);
        b.build().expect("problem builds")
    }

    #[test]
    fn renaming_within_a_group_eliminates_moves() {
        let p = problem();
        // current: pair collocated on m0 and m1
        let mut current = Placement::empty_for(&p);
        current.add(ServiceId(0), MachineId(0), 1);
        current.add(ServiceId(1), MachineId(0), 1);
        current.add(ServiceId(0), MachineId(1), 1);
        current.add(ServiceId(1), MachineId(1), 1);
        // candidate: same structure but the solver named the machines m1/m2
        let mut candidate = Placement::empty_for(&p);
        candidate.add(ServiceId(0), MachineId(1), 1);
        candidate.add(ServiceId(1), MachineId(1), 1);
        candidate.add(ServiceId(0), MachineId(2), 1);
        candidate.add(ServiceId(1), MachineId(2), 1);
        assert_eq!(current.moves_to(&candidate), 2, "naive diff wants 2 moves");
        let stable = stabilize_placement(&p, &candidate, &current);
        assert_eq!(current.moves_to(&stable), 0, "renaming removes all moves");
        assert_eq!(
            gained_affinity(&p, &stable),
            gained_affinity(&p, &candidate),
            "affinity unchanged"
        );
    }

    #[test]
    fn partial_overlap_is_maximized() {
        let p = problem();
        let mut current = Placement::empty_for(&p);
        current.add(ServiceId(0), MachineId(0), 2); // both a's on m0
        current.add(ServiceId(1), MachineId(2), 2); // both b's on m2
                                                    // candidate collocates the pair on one machine (named m1)
        let mut candidate = Placement::empty_for(&p);
        candidate.add(ServiceId(0), MachineId(1), 2);
        candidate.add(ServiceId(1), MachineId(1), 2);
        let stable = stabilize_placement(&p, &candidate, &current);
        // the collocated block lands either on m0 (overlap 2 with a's) or
        // m2 (overlap 2 with b's) — never on the empty m1
        let home = stable
            .machines_of(ServiceId(0))
            .next()
            .map(|(m, _)| m)
            .expect("service 0 is placed");
        assert_ne!(home, MachineId(1));
        assert!(current.moves_to(&stable) <= current.moves_to(&candidate));
    }

    #[test]
    fn groups_are_respected() {
        // two different SKUs: contents must not hop across groups
        let mut b = ProblemBuilder::new();
        let s = b.add_service("a", 2, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machine(ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY); // group 1
        b.add_machine(ResourceVec::cpu_mem(4.0, 4.0), FeatureMask::EMPTY); // group 2
        let p = b.build().expect("problem builds");
        let mut candidate = Placement::empty_for(&p);
        candidate.add(s, MachineId(0), 2);
        let mut current = Placement::empty_for(&p);
        current.add(s, MachineId(1), 2);
        let stable = stabilize_placement(&p, &candidate, &current);
        // cannot rename across SKUs even though overlap would like to
        assert_eq!(stable.count(s, MachineId(0)), 2);
    }

    #[test]
    fn identity_when_current_equals_candidate() {
        let p = problem();
        let mut placement = Placement::empty_for(&p);
        placement.add(ServiceId(0), MachineId(0), 2);
        placement.add(ServiceId(1), MachineId(0), 2);
        let stable = stabilize_placement(&p, &placement, &placement);
        assert_eq!(stable, placement);
    }
}
