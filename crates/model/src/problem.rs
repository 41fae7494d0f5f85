//! The full RASA problem instance: services, machines, affinity graph and
//! scheduling constraints (Section II-C, Expressions (2)–(9)).

use crate::affinity::{AffinityEdge, EdgeId};
use crate::error::ModelError;
use crate::ids::{MachineId, ServiceId};
use crate::machine::{FeatureMask, Machine, MachineGroup};
use crate::resources::ResourceVec;
use crate::service::Service;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An anti-affinity constraint (Expression (5)): across the service set
/// `services` (`A_k`), any single machine may host at most
/// `max_per_machine` (`h_k`) containers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AntiAffinityRule {
    /// `A_k`: the constrained service set.
    pub services: Vec<ServiceId>,
    /// `h_k`: per-machine cap for containers drawn from `services`.
    pub max_per_machine: u32,
}

/// An immutable RASA problem instance.
///
/// Construct with [`ProblemBuilder`], which validates referential integrity
/// (edge endpoints, anti-affinity members) and normalizes edges.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Problem {
    /// All services; `services[k].id == ServiceId(k)`.
    pub services: Vec<Service>,
    /// All machines; `machines[k].id == MachineId(k)`.
    pub machines: Vec<Machine>,
    /// Affinity edges, deduplicated, endpoints normalized (`a < b`).
    pub affinity_edges: Vec<AffinityEdge>,
    /// Anti-affinity rules.
    pub anti_affinity: Vec<AntiAffinityRule>,
}

/// Summary statistics of a problem, used by reports and Table II.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProblemStats {
    /// `N`: number of services.
    pub services: usize,
    /// Total containers `Σ d_s`.
    pub containers: u64,
    /// `M`: number of machines.
    pub machines: usize,
    /// `|E|`: number of affinity edges.
    pub edges: usize,
    /// `Σ w_e`: total affinity before normalization.
    pub total_affinity: f64,
    /// Number of distinct machine groups (identical capacity + features).
    pub machine_groups: usize,
}

impl Problem {
    /// `N`, the number of services.
    pub fn num_services(&self) -> usize {
        self.services.len()
    }

    /// `M`, the number of machines.
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// Total affinity `Σ_{(s,s') ∈ E} w_{s,s'}` (before the paper's
    /// normalization to 1.0). Zero for problems with no edges.
    pub fn total_affinity(&self) -> f64 {
        self.affinity_edges.iter().map(|e| e.weight).sum()
    }

    /// Total affinity of every service,
    /// `T(s) = Σ_{s' ∈ N(s)} w_{s,s'}` (Section IV-B2), in one pass.
    pub fn all_service_total_affinities(&self) -> Vec<f64> {
        let mut t = vec![0.0; self.services.len()];
        for e in &self.affinity_edges {
            t[e.a.idx()] += e.weight;
            t[e.b.idx()] += e.weight;
        }
        t
    }

    /// `b_{s,m}`: can machine `m` host containers of service `s`?
    #[inline]
    pub fn schedulable(&self, s: ServiceId, m: MachineId) -> bool {
        self.machines[m.idx()].can_host(self.services[s.idx()].required_features)
    }

    /// Group machines with identical `(capacity, features)` into
    /// [`MachineGroup`]s, ordered by first occurrence. This realizes the
    /// paper's machine-group index `g` (Table I).
    pub fn machine_groups(&self) -> Vec<MachineGroup> {
        // f64 capacities come from generators/traces and compare exactly for
        // machines of the same SKU; keying on bit patterns is safe here.
        let mut index: HashMap<([u64; crate::NUM_RESOURCES], FeatureMask), usize> = HashMap::new();
        let mut groups: Vec<MachineGroup> = Vec::new();
        for m in &self.machines {
            let key = (m.capacity.0.map(f64::to_bits), m.features);
            let gi = *index.entry(key).or_insert_with(|| {
                groups.push(MachineGroup {
                    capacity: m.capacity,
                    features: m.features,
                    members: Vec::new(),
                });
                groups.len() - 1
            });
            groups[gi].members.push(m.id);
        }
        groups
    }

    /// Edges incident to each service: `adjacency()[s]` lists `EdgeId`s.
    pub fn edge_adjacency(&self) -> Vec<Vec<EdgeId>> {
        let mut adj = vec![Vec::new(); self.services.len()];
        for (i, e) in self.affinity_edges.iter().enumerate() {
            adj[e.a.idx()].push(EdgeId(i as u32));
            adj[e.b.idx()].push(EdgeId(i as u32));
        }
        adj
    }

    /// Summary statistics.
    pub fn stats(&self) -> ProblemStats {
        ProblemStats {
            services: self.services.len(),
            containers: self.services.iter().map(|s| u64::from(s.replicas)).sum(),
            machines: self.machines.len(),
            edges: self.affinity_edges.len(),
            total_affinity: self.total_affinity(),
            machine_groups: self.machine_groups().len(),
        }
    }

    /// Extract the sub-problem induced by `service_ids` and `machine_ids`.
    ///
    /// Ids are re-densified: the `k`-th entry of `service_ids` becomes
    /// `ServiceId(k)` in the sub-problem. The returned maps translate
    /// sub-problem ids back to the parent's (`sub -> parent`).
    /// Affinity edges with exactly one endpoint inside are dropped (their
    /// weight is the partition's affinity loss); anti-affinity rules are
    /// restricted to the surviving services.
    pub fn induced_subproblem(
        &self,
        service_ids: &[ServiceId],
        machine_ids: &[MachineId],
    ) -> (Problem, SubproblemMapping) {
        let mut svc_old_to_new: HashMap<ServiceId, ServiceId> = HashMap::new();
        let services: Vec<Service> = service_ids
            .iter()
            .enumerate()
            .map(|(k, &sid)| {
                let mut s = self.services[sid.idx()].clone();
                svc_old_to_new.insert(sid, ServiceId(k as u32));
                s.id = ServiceId(k as u32);
                s
            })
            .collect();
        let machines: Vec<Machine> = machine_ids
            .iter()
            .enumerate()
            .map(|(k, &mid)| {
                let mut m = self.machines[mid.idx()].clone();
                m.id = MachineId(k as u32);
                m
            })
            .collect();
        let affinity_edges: Vec<AffinityEdge> = self
            .affinity_edges
            .iter()
            .filter_map(
                |e| match (svc_old_to_new.get(&e.a), svc_old_to_new.get(&e.b)) {
                    (Some(&a), Some(&b)) => Some(AffinityEdge::new(a, b, e.weight)),
                    _ => None,
                },
            )
            .collect();
        let anti_affinity: Vec<AntiAffinityRule> = self
            .anti_affinity
            .iter()
            .filter_map(|rule| {
                let services: Vec<ServiceId> = rule
                    .services
                    .iter()
                    .filter_map(|s| svc_old_to_new.get(s).copied())
                    .collect();
                (!services.is_empty()).then_some(AntiAffinityRule {
                    services,
                    max_per_machine: rule.max_per_machine,
                })
            })
            .collect();
        (
            Problem {
                services,
                machines,
                affinity_edges,
                anti_affinity,
            },
            SubproblemMapping {
                service_to_parent: service_ids.to_vec(),
                machine_to_parent: machine_ids.to_vec(),
            },
        )
    }
}

/// Translation from a sub-problem's dense ids back to the parent problem's.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SubproblemMapping {
    /// `service_to_parent[k]` is the parent id of the sub-problem's `ServiceId(k)`.
    pub service_to_parent: Vec<ServiceId>,
    /// `machine_to_parent[k]` is the parent id of the sub-problem's `MachineId(k)`.
    pub machine_to_parent: Vec<MachineId>,
}

/// Validating builder for [`Problem`].
#[derive(Default)]
pub struct ProblemBuilder {
    services: Vec<Service>,
    machines: Vec<Machine>,
    edges: Vec<AffinityEdge>,
    anti_affinity: Vec<AntiAffinityRule>,
}

impl ProblemBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a service; its id is assigned densely and returned.
    pub fn add_service(
        &mut self,
        name: impl Into<String>,
        replicas: u32,
        demand: ResourceVec,
    ) -> ServiceId {
        let id = ServiceId(self.services.len() as u32);
        self.services.push(Service::new(id, name, replicas, demand));
        id
    }

    /// Add a fully-specified service (overrides the auto-assigned id).
    pub fn add_service_full(&mut self, mut service: Service) -> ServiceId {
        let id = ServiceId(self.services.len() as u32);
        service.id = id;
        self.services.push(service);
        id
    }

    /// Add a machine; its id is assigned densely and returned.
    pub fn add_machine(&mut self, capacity: ResourceVec, features: FeatureMask) -> MachineId {
        let id = MachineId(self.machines.len() as u32);
        self.machines.push(Machine::new(id, capacity, features));
        id
    }

    /// Add `count` identical machines.
    pub fn add_machines(
        &mut self,
        count: usize,
        capacity: ResourceVec,
        features: FeatureMask,
    ) -> Vec<MachineId> {
        (0..count)
            .map(|_| self.add_machine(capacity, features))
            .collect()
    }

    /// Add an affinity edge.
    pub fn add_affinity(&mut self, a: ServiceId, b: ServiceId, weight: f64) -> &mut Self {
        self.edges.push(AffinityEdge::new(a, b, weight));
        self
    }

    /// Add an anti-affinity rule.
    pub fn add_anti_affinity(
        &mut self,
        services: Vec<ServiceId>,
        max_per_machine: u32,
    ) -> &mut Self {
        self.anti_affinity.push(AntiAffinityRule {
            services,
            max_per_machine,
        });
        self
    }

    /// Validate and freeze into a [`Problem`].
    ///
    /// Checks: all ids in range, no duplicate edges, non-empty anti-affinity
    /// rules. Edge weights are multiplied by the geometric mean of the two
    /// endpoint services' priority weights (Section II-B's priority tuning);
    /// neutral priorities (1.0) leave weights untouched.
    pub fn build(self) -> Result<Problem, ModelError> {
        let n = self.services.len();
        let mut seen = std::collections::HashSet::new();
        let mut edges = Vec::with_capacity(self.edges.len());
        for e in self.edges {
            if e.a.idx() >= n {
                return Err(ModelError::UnknownService(e.a));
            }
            if e.b.idx() >= n {
                return Err(ModelError::UnknownService(e.b));
            }
            if !seen.insert((e.a, e.b)) {
                return Err(ModelError::DuplicateEdge(e.a, e.b));
            }
            let pw = (self.services[e.a.idx()].priority_weight
                * self.services[e.b.idx()].priority_weight)
                .sqrt();
            edges.push(AffinityEdge::new(e.a, e.b, e.weight * pw));
        }
        for rule in &self.anti_affinity {
            if rule.services.is_empty() {
                return Err(ModelError::EmptyAntiAffinityRule);
            }
            for s in &rule.services {
                if s.idx() >= n {
                    return Err(ModelError::UnknownService(*s));
                }
            }
        }
        Ok(Problem {
            services: self.services,
            machines: self.machines,
            affinity_edges: edges,
            anti_affinity: self.anti_affinity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_service_problem() -> Problem {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 2, ResourceVec::cpu_mem(1.0, 1.0));
        let s1 = b.add_service("b", 4, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(3, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 10.0);
        b.build().unwrap()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let p = two_service_problem();
        assert_eq!(p.services[0].id, ServiceId(0));
        assert_eq!(p.services[1].id, ServiceId(1));
        assert_eq!(p.machines[2].id, MachineId(2));
    }

    #[test]
    fn total_affinity_sums_weights() {
        let p = two_service_problem();
        assert_eq!(p.total_affinity(), 10.0);
        assert_eq!(p.all_service_total_affinities(), vec![10.0, 10.0]);
    }

    #[test]
    fn duplicate_edge_detected_regardless_of_order() {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 1, ResourceVec::ZERO);
        let s1 = b.add_service("b", 1, ResourceVec::ZERO);
        b.add_affinity(s0, s1, 1.0);
        b.add_affinity(s1, s0, 2.0);
        assert_eq!(
            b.build().unwrap_err(),
            ModelError::DuplicateEdge(ServiceId(0), ServiceId(1))
        );
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 1, ResourceVec::ZERO);
        b.add_affinity(s0, ServiceId(9), 1.0);
        assert_eq!(
            b.build().unwrap_err(),
            ModelError::UnknownService(ServiceId(9))
        );
    }

    #[test]
    fn empty_anti_affinity_rejected() {
        let mut b = ProblemBuilder::new();
        b.add_anti_affinity(vec![], 1);
        assert_eq!(b.build().unwrap_err(), ModelError::EmptyAntiAffinityRule);
    }

    #[test]
    fn priority_weights_scale_edges() {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service_full(
            Service::new(ServiceId(0), "hi", 1, ResourceVec::ZERO).with_priority(4.0),
        );
        let s1 = b.add_service("lo", 1, ResourceVec::ZERO);
        b.add_affinity(s0, s1, 3.0);
        let p = b.build().unwrap();
        // geometric mean of (4.0, 1.0) = 2.0
        assert!((p.affinity_edges[0].weight - 6.0).abs() < 1e-12);
    }

    #[test]
    fn machine_groups_cluster_identical_machines() {
        let mut b = ProblemBuilder::new();
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_machine(ResourceVec::cpu_mem(16.0, 8.0), FeatureMask::EMPTY);
        b.add_machine(ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::bit(0));
        b.add_machine(ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        let p = b.build().unwrap();
        let groups = p.machine_groups();
        assert_eq!(groups.len(), 3);
        assert_eq!(
            groups[0].members,
            vec![MachineId(0), MachineId(1), MachineId(4)]
        );
        assert_eq!(groups[1].members, vec![MachineId(2)]);
        assert_eq!(groups[2].members, vec![MachineId(3)]);
    }

    #[test]
    fn induced_subproblem_redensifies_and_drops_cut_edges() {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 1, ResourceVec::ZERO);
        let s1 = b.add_service("b", 1, ResourceVec::ZERO);
        let s2 = b.add_service("c", 1, ResourceVec::ZERO);
        b.add_machines(2, ResourceVec::cpu_mem(1.0, 1.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 1.0);
        b.add_affinity(s1, s2, 2.0);
        b.add_anti_affinity(vec![s0, s2], 1);
        let p = b.build().unwrap();
        let (sub, map) = p.induced_subproblem(&[s1, s2], &[MachineId(1)]);
        assert_eq!(sub.num_services(), 2);
        assert_eq!(sub.num_machines(), 1);
        // only the (s1, s2) edge survives, renamed to (0, 1)
        assert_eq!(sub.affinity_edges.len(), 1);
        assert_eq!(sub.affinity_edges[0].a, ServiceId(0));
        assert_eq!(sub.affinity_edges[0].b, ServiceId(1));
        assert_eq!(sub.affinity_edges[0].weight, 2.0);
        // anti-affinity restricted to s2 (renamed ServiceId(1))
        assert_eq!(sub.anti_affinity.len(), 1);
        assert_eq!(sub.anti_affinity[0].services, vec![ServiceId(1)]);
        assert_eq!(map.service_to_parent, vec![s1, s2]);
        assert_eq!(map.machine_to_parent, vec![MachineId(1)]);
    }

    #[test]
    fn edge_adjacency_indexes_both_endpoints() {
        let p = two_service_problem();
        let adj = p.edge_adjacency();
        assert_eq!(adj[0], vec![EdgeId(0)]);
        assert_eq!(adj[1], vec![EdgeId(0)]);
    }

    #[test]
    fn stats_reports_scale() {
        let p = two_service_problem();
        let st = p.stats();
        assert_eq!(st.services, 2);
        assert_eq!(st.containers, 6);
        assert_eq!(st.machines, 3);
        assert_eq!(st.edges, 1);
        assert_eq!(st.machine_groups, 1);
    }
}
