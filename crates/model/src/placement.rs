//! Placements: the decision matrix `x_{s,m}` and concrete per-container
//! assignments.
//!
//! Two granularities coexist:
//!
//! * [`Placement`] is the *count* matrix the optimizer reasons about
//!   (`x_{s,m}` = number of service-`s` containers on machine `m`), stored
//!   sparsely per service.
//! * [`ContainerAssignment`] names *which* replica sits where; the migration
//!   planner (Algorithm 2 of the paper) needs this to emit concrete
//!   delete/create commands.

use crate::ids::{ContainerId, MachineId, ServiceId};
use crate::problem::Problem;
use crate::resources::ResourceVec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Sparse `x_{s,m}` matrix: for each service, the machines hosting at least
/// one of its containers and the counts.
///
/// `BTreeMap` keeps iteration deterministic, which in turn makes every
/// experiment in the repository reproducible bit-for-bit.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    per_service: Vec<BTreeMap<MachineId, u32>>,
}

impl Placement {
    /// An empty placement for `num_services` services.
    pub fn empty(num_services: usize) -> Self {
        Placement {
            per_service: vec![BTreeMap::new(); num_services],
        }
    }

    /// An empty placement shaped for `problem`.
    pub fn empty_for(problem: &Problem) -> Self {
        Self::empty(problem.num_services())
    }

    /// Number of services this placement is shaped for.
    pub fn num_services(&self) -> usize {
        self.per_service.len()
    }

    /// `x_{s,m}`.
    #[inline]
    pub fn count(&self, s: ServiceId, m: MachineId) -> u32 {
        self.per_service[s.idx()].get(&m).copied().unwrap_or(0)
    }

    /// Add `delta` containers of `s` on `m`.
    pub fn add(&mut self, s: ServiceId, m: MachineId, delta: u32) {
        if delta == 0 {
            return;
        }
        *self.per_service[s.idx()].entry(m).or_insert(0) += delta;
    }

    /// Remove `delta` containers of `s` from `m`.
    ///
    /// # Panics
    /// Panics if fewer than `delta` containers are present — callers track
    /// exact counts, so underflow is a logic error.
    pub fn remove(&mut self, s: ServiceId, m: MachineId, delta: u32) {
        if delta == 0 {
            return;
        }
        let entry = self.per_service[s.idx()].get_mut(&m).unwrap_or_else(|| {
            panic!("removing {delta} containers of {s} from {m}, but none are placed")
        });
        assert!(
            *entry >= delta,
            "removing {delta} containers of {s} from {m}, but only {entry} are placed"
        );
        *entry -= delta;
        if *entry == 0 {
            self.per_service[s.idx()].remove(&m);
        }
    }

    /// Machines hosting service `s`, with counts, in machine-id order.
    pub fn machines_of(&self, s: ServiceId) -> impl Iterator<Item = (MachineId, u32)> + '_ {
        self.per_service[s.idx()].iter().map(|(&m, &c)| (m, c))
    }

    /// Total containers placed for service `s` (`Σ_m x_{s,m}`).
    pub fn placed_count(&self, s: ServiceId) -> u32 {
        self.per_service[s.idx()].values().sum()
    }

    /// Total containers placed across all services.
    pub fn total_placed(&self) -> u64 {
        self.per_service
            .iter()
            .map(|m| m.values().map(|&c| u64::from(c)).sum::<u64>())
            .sum()
    }

    /// Iterate all `(service, machine, count)` triples with positive count.
    pub fn iter(&self) -> impl Iterator<Item = (ServiceId, MachineId, u32)> + '_ {
        self.per_service.iter().enumerate().flat_map(|(si, per_m)| {
            per_m
                .iter()
                .map(move |(&m, &c)| (ServiceId(si as u32), m, c))
        })
    }

    /// Per-machine resource usage under this placement for `problem`.
    pub fn machine_usage(&self, problem: &Problem) -> Vec<ResourceVec> {
        let mut usage = vec![ResourceVec::ZERO; problem.num_machines()];
        for (s, m, c) in self.iter() {
            usage[m.idx()] += problem.services[s.idx()].demand * f64::from(c);
        }
        usage
    }

    /// Merge a sub-problem solution back into a parent-shaped placement
    /// using id translation tables (`sub -> parent`).
    pub fn merge_subplacement(
        &mut self,
        sub: &Placement,
        service_to_parent: &[ServiceId],
        machine_to_parent: &[MachineId],
    ) {
        for (s, m, c) in sub.iter() {
            self.add(service_to_parent[s.idx()], machine_to_parent[m.idx()], c);
        }
    }

    /// Number of container moves (per-service, per-machine positive count
    /// differences) needed to turn `self` into `target`. A standard churn
    /// metric: each moved container counts once.
    pub fn moves_to(&self, target: &Placement) -> u64 {
        assert_eq!(self.num_services(), target.num_services());
        let mut moves = 0u64;
        for si in 0..self.per_service.len() {
            let s = ServiceId(si as u32);
            // containers that must be created on machines where target > current
            for (m, &tc) in target.per_service[si].iter() {
                let cur = self.count(s, *m);
                if tc > cur {
                    moves += u64::from(tc - cur);
                }
            }
        }
        moves
    }
}

/// Concrete assignment of each replica of each service to a machine (or
/// `None` while it is deleted mid-migration).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ContainerAssignment {
    /// `slots[s][r]` is the machine currently hosting replica `r` of
    /// service `s`, if any.
    slots: Vec<Vec<Option<MachineId>>>,
}

impl ContainerAssignment {
    /// All replicas unassigned, shaped for `problem`.
    pub fn empty_for(problem: &Problem) -> Self {
        ContainerAssignment {
            slots: problem
                .services
                .iter()
                .map(|s| vec![None; s.replicas as usize])
                .collect(),
        }
    }

    /// Materialize a count-level [`Placement`] into concrete replicas,
    /// assigning replica indices in machine-id order (deterministic).
    pub fn materialize(problem: &Problem, placement: &Placement) -> Self {
        let mut out = Self::empty_for(problem);
        for (si, svc) in problem.services.iter().enumerate() {
            let s = ServiceId(si as u32);
            let mut next = 0usize;
            for (m, c) in placement.machines_of(s) {
                for _ in 0..c {
                    assert!(
                        next < svc.replicas as usize,
                        "placement assigns more than d_s containers for {s}"
                    );
                    out.slots[si][next] = Some(m);
                    next += 1;
                }
            }
        }
        out
    }

    /// Where replica `c` currently runs.
    pub fn machine_of(&self, c: ContainerId) -> Option<MachineId> {
        self.slots[c.service.idx()][c.replica as usize]
    }

    /// Assign replica `c` to `m`.
    pub fn assign(&mut self, c: ContainerId, m: MachineId) {
        self.slots[c.service.idx()][c.replica as usize] = Some(m);
    }

    /// Unassign replica `c` (delete its container).
    pub fn unassign(&mut self, c: ContainerId) {
        self.slots[c.service.idx()][c.replica as usize] = None;
    }

    /// Number of currently-assigned replicas of service `s`.
    pub fn alive_count(&self, s: ServiceId) -> u32 {
        self.slots[s.idx()].iter().filter(|m| m.is_some()).count() as u32
    }

    /// Collapse back to a count-level [`Placement`].
    pub fn to_placement(&self) -> Placement {
        let mut p = Placement::empty(self.slots.len());
        for (si, replicas) in self.slots.iter().enumerate() {
            for m in replicas.iter().flatten() {
                p.add(ServiceId(si as u32), *m, 1);
            }
        }
        p
    }

    /// Iterate `(container, machine)` pairs for assigned replicas.
    pub fn iter_assigned(&self) -> impl Iterator<Item = (ContainerId, MachineId)> + '_ {
        self.slots.iter().enumerate().flat_map(|(si, replicas)| {
            replicas.iter().enumerate().filter_map(move |(r, m)| {
                m.map(|m| (ContainerId::new(ServiceId(si as u32), r as u32), m))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::FeatureMask;
    use crate::problem::ProblemBuilder;

    fn problem() -> Problem {
        let mut b = ProblemBuilder::new();
        b.add_service("a", 3, ResourceVec::cpu_mem(2.0, 4.0));
        b.add_service("b", 2, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(16.0, 32.0), FeatureMask::EMPTY);
        b.build().unwrap()
    }

    #[test]
    fn add_remove_round_trip() {
        let mut p = Placement::empty(2);
        let (s, m) = (ServiceId(0), MachineId(1));
        p.add(s, m, 3);
        assert_eq!(p.count(s, m), 3);
        p.remove(s, m, 2);
        assert_eq!(p.count(s, m), 1);
        p.remove(s, m, 1);
        assert_eq!(p.count(s, m), 0);
        assert_eq!(p.machines_of(s).count(), 0, "zero entries are pruned");
    }

    #[test]
    #[should_panic(expected = "only 1 are placed")]
    fn remove_underflow_panics() {
        let mut p = Placement::empty(1);
        p.add(ServiceId(0), MachineId(0), 1);
        p.remove(ServiceId(0), MachineId(0), 2);
    }

    #[test]
    fn machine_usage_accumulates_demand() {
        let prob = problem();
        let mut p = Placement::empty_for(&prob);
        p.add(ServiceId(0), MachineId(0), 2); // 2 × (2, 4)
        p.add(ServiceId(1), MachineId(0), 1); // 1 × (1, 1)
        p.add(ServiceId(0), MachineId(1), 1);
        let usage = p.machine_usage(&prob);
        assert_eq!(usage[0], ResourceVec::cpu_mem(5.0, 9.0));
        assert_eq!(usage[1], ResourceVec::cpu_mem(2.0, 4.0));
    }

    #[test]
    fn totals_and_counts() {
        let prob = problem();
        let mut p = Placement::empty_for(&prob);
        p.add(ServiceId(0), MachineId(0), 2);
        p.add(ServiceId(1), MachineId(1), 2);
        assert_eq!(p.placed_count(ServiceId(0)), 2);
        assert_eq!(p.total_placed(), 4);
    }

    #[test]
    fn merge_subplacement_translates_ids() {
        let mut parent = Placement::empty(4);
        let mut sub = Placement::empty(2);
        sub.add(ServiceId(0), MachineId(0), 1);
        sub.add(ServiceId(1), MachineId(1), 2);
        parent.merge_subplacement(
            &sub,
            &[ServiceId(3), ServiceId(1)],
            &[MachineId(7), MachineId(2)],
        );
        assert_eq!(parent.count(ServiceId(3), MachineId(7)), 1);
        assert_eq!(parent.count(ServiceId(1), MachineId(2)), 2);
    }

    #[test]
    fn moves_to_counts_created_containers() {
        let mut from = Placement::empty(1);
        from.add(ServiceId(0), MachineId(0), 3);
        let mut to = Placement::empty(1);
        to.add(ServiceId(0), MachineId(0), 1);
        to.add(ServiceId(0), MachineId(1), 2);
        assert_eq!(from.moves_to(&to), 2);
        assert_eq!(from.moves_to(&from), 0);
    }

    #[test]
    fn materialize_round_trips_to_placement() {
        let prob = problem();
        let mut p = Placement::empty_for(&prob);
        p.add(ServiceId(0), MachineId(0), 2);
        p.add(ServiceId(0), MachineId(1), 1);
        p.add(ServiceId(1), MachineId(1), 2);
        let assign = ContainerAssignment::materialize(&prob, &p);
        assert_eq!(assign.alive_count(ServiceId(0)), 3);
        assert_eq!(assign.to_placement(), p);
    }

    #[test]
    #[should_panic(expected = "more than d_s")]
    fn materialize_rejects_overfull_placement() {
        let prob = problem();
        let mut p = Placement::empty_for(&prob);
        p.add(ServiceId(1), MachineId(0), 3); // d_s = 2
        let _ = ContainerAssignment::materialize(&prob, &p);
    }

    #[test]
    fn assignment_mutation() {
        let prob = problem();
        let mut a = ContainerAssignment::empty_for(&prob);
        let c = ContainerId::new(ServiceId(0), 1);
        assert_eq!(a.machine_of(c), None);
        a.assign(c, MachineId(1));
        assert_eq!(a.machine_of(c), Some(MachineId(1)));
        assert_eq!(a.alive_count(ServiceId(0)), 1);
        assert_eq!(a.iter_assigned().count(), 1);
        a.unassign(c);
        assert_eq!(a.alive_count(ServiceId(0)), 0);
    }
}
