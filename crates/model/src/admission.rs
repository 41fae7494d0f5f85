//! Gate 1 of the pipeline's trust boundary: admission control for
//! [`Problem`] instances.
//!
//! `Problem`'s fields are public and serde-deserializable, so cluster
//! snapshots loaded from JSON bypass every invariant
//! [`ProblemBuilder`](crate::problem::ProblemBuilder)
//! enforces: NaN demands, negative capacities, duplicate or misnumbered
//! ids, dangling affinity edges and `h_k = 0` anti-affinity rules all flow
//! straight into the solvers, where they surface as panics or silently
//! wrong objectives. The [`ProblemValidator`] audits every instance
//! *before* partitioning and applies a **quarantine-and-repair** policy:
//! offending entries are dropped, clamped or neutralized so the healthy
//! remainder of the cluster still gets solved, and every intervention is
//! surfaced in a typed [`AdmissionReport`] instead of aborting the round.
//!
//! Repairs are *shape-preserving*: the repaired problem has the same
//! service and machine counts as the input (quarantined services keep
//! their slot with `replicas = 0`; quarantined machines keep theirs with
//! zero capacity), so [`Placement`](crate::Placement) indexing and
//! subproblem merging are unaffected.

use crate::affinity::AffinityEdge;
use crate::ids::{MachineId, ServiceId};
use crate::problem::{AntiAffinityRule, Problem};
use crate::resources::{ResourceKind, ResourceVec, NUM_RESOURCES};
use crate::validate::RESOURCE_EPS;
use serde::Serialize;
use std::collections::HashSet;
use std::fmt;

/// How the validator handled an offending entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum RepairAction {
    /// The entry was neutralized in place (service demand zeroed and
    /// replicas set to 0, or machine capacity zeroed) so the rest of the
    /// problem solves without it.
    Quarantined,
    /// The offending value was clamped or reset into its valid range.
    Clamped,
    /// A dense id was rewritten to match the entry's index.
    Renumbered,
    /// The entry was removed from the problem.
    Dropped,
    /// Advisory only; nothing was changed.
    Flagged,
}

/// Why an affinity edge was repaired or dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum EdgeDefect {
    /// An endpoint references a service index outside the service list.
    DanglingEndpoint,
    /// Both endpoints are the same service.
    SelfLoop,
    /// The weight is NaN or infinite.
    NonFiniteWeight,
    /// The weight is zero or negative.
    NonPositiveWeight,
    /// An endpoint service was quarantined, so localizing the edge is
    /// meaningless this round.
    QuarantinedEndpoint,
    /// The same unordered service pair appeared earlier in the edge list.
    Duplicate,
    /// Endpoints were stored as `a > b`; the edge was kept with the
    /// canonical `a < b` orientation.
    Unnormalized,
}

/// Why an anti-affinity rule was repaired or dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum RuleDefect {
    /// The rule referenced service indices outside the service list; the
    /// unknown members were removed.
    UnknownMembers,
    /// The rule constrains no (known) services.
    Empty,
    /// `h_k = 0` while a member service must place containers — no
    /// placement can satisfy it, so the *constraint* is quarantined
    /// rather than the services.
    Unsatisfiable,
}

/// One defect found (and repaired) during admission.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum AdmissionIssue {
    /// A service's per-container demand had a NaN, infinite or negative
    /// component; the service was quarantined (`replicas = 0`, zero
    /// demand).
    CorruptServiceDemand {
        /// The quarantined service (by index in the service list).
        service: ServiceId,
        /// Always [`RepairAction::Quarantined`].
        action: RepairAction,
    },
    /// `services[index].id != index` (duplicate or out-of-range id, which
    /// would make placement indexing panic); the id was renumbered.
    MisnumberedService {
        /// Index in the service list.
        index: usize,
        /// The id found there.
        found: u32,
        /// Always [`RepairAction::Renumbered`].
        action: RepairAction,
    },
    /// `machines[index].id != index`; the id was renumbered.
    MisnumberedMachine {
        /// Index in the machine list.
        index: usize,
        /// The id found there.
        found: u32,
        /// Always [`RepairAction::Renumbered`].
        action: RepairAction,
    },
    /// A machine's capacity vector had a NaN/infinite component
    /// ([`RepairAction::Quarantined`]: capacity zeroed, machine unusable)
    /// or a negative component ([`RepairAction::Clamped`] to zero).
    CorruptMachineCapacity {
        /// The affected machine.
        machine: MachineId,
        /// `Quarantined` for non-finite, `Clamped` for negative values.
        action: RepairAction,
    },
    /// A service's priority weight was NaN, infinite, zero or negative;
    /// it was reset to the neutral `1.0`.
    CorruptPriorityWeight {
        /// The affected service.
        service: ServiceId,
        /// Always [`RepairAction::Clamped`].
        action: RepairAction,
    },
    /// An affinity edge was defective.
    CorruptAffinityEdge {
        /// Index in the edge list.
        index: usize,
        /// What was wrong with it.
        defect: EdgeDefect,
        /// `Clamped` for [`EdgeDefect::Unnormalized`], `Dropped` otherwise.
        action: RepairAction,
    },
    /// An anti-affinity rule was defective.
    CorruptAntiAffinityRule {
        /// Index in the rule list.
        index: usize,
        /// What was wrong with it.
        defect: RuleDefect,
        /// `Clamped` when unknown members were filtered out, `Dropped`
        /// when the whole rule was removed.
        action: RepairAction,
    },
    /// Aggregate healthy demand exceeds aggregate capacity in a resource
    /// dimension. Advisory: the pipeline still solves the round (partial
    /// placements are allowed), but full SLA satisfaction is impossible.
    CapacityShortfall {
        /// The over-subscribed resource dimension.
        kind: ResourceKind,
        /// Total demand across non-quarantined services.
        demand: f64,
        /// Total capacity across repaired machines.
        capacity: f64,
        /// Always [`RepairAction::Flagged`].
        action: RepairAction,
    },
}

impl AdmissionIssue {
    /// The repair action taken for this issue.
    pub fn action(&self) -> RepairAction {
        match self {
            AdmissionIssue::CorruptServiceDemand { action, .. }
            | AdmissionIssue::MisnumberedService { action, .. }
            | AdmissionIssue::MisnumberedMachine { action, .. }
            | AdmissionIssue::CorruptMachineCapacity { action, .. }
            | AdmissionIssue::CorruptPriorityWeight { action, .. }
            | AdmissionIssue::CorruptAffinityEdge { action, .. }
            | AdmissionIssue::CorruptAntiAffinityRule { action, .. }
            | AdmissionIssue::CapacityShortfall { action, .. } => *action,
        }
    }
}

impl fmt::Display for AdmissionIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionIssue::CorruptServiceDemand { service, .. } => {
                write!(
                    f,
                    "service {service} has a corrupt demand vector (quarantined)"
                )
            }
            AdmissionIssue::MisnumberedService { index, found, .. } => {
                write!(f, "services[{index}] carries id s{found} (renumbered)")
            }
            AdmissionIssue::MisnumberedMachine { index, found, .. } => {
                write!(f, "machines[{index}] carries id m{found} (renumbered)")
            }
            AdmissionIssue::CorruptMachineCapacity { machine, action } => {
                write!(
                    f,
                    "machine {machine} has a corrupt capacity vector ({action:?})"
                )
            }
            AdmissionIssue::CorruptPriorityWeight { service, .. } => {
                write!(
                    f,
                    "service {service} has a corrupt priority weight (reset to 1)"
                )
            }
            AdmissionIssue::CorruptAffinityEdge {
                index,
                defect,
                action,
            } => {
                write!(
                    f,
                    "affinity edge #{index} is defective ({defect:?}, {action:?})"
                )
            }
            AdmissionIssue::CorruptAntiAffinityRule {
                index,
                defect,
                action,
            } => {
                write!(
                    f,
                    "anti-affinity rule #{index} is defective ({defect:?}, {action:?})"
                )
            }
            AdmissionIssue::CapacityShortfall {
                kind,
                demand,
                capacity,
                ..
            } => write!(
                f,
                "aggregate {} demand {demand:.3} exceeds capacity {capacity:.3}",
                kind.label()
            ),
        }
    }
}

/// The outcome of auditing one [`Problem`]: every defect found, plus the
/// quarantine sets a caller needs to interpret a partial solution.
///
/// Serializes to JSON so chaos campaigns and CI can archive it as an
/// artifact.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct AdmissionReport {
    /// Every defect found, in detection order.
    pub issues: Vec<AdmissionIssue>,
    /// Services neutralized this round (no containers will be placed).
    pub quarantined_services: Vec<ServiceId>,
    /// Machines neutralized this round (zero usable capacity).
    pub quarantined_machines: Vec<MachineId>,
    /// Affinity edges removed from the repaired problem.
    pub dropped_edges: usize,
    /// Anti-affinity rules removed from the repaired problem.
    pub dropped_rules: usize,
}

impl AdmissionReport {
    /// `true` when no defect of any kind was found.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// `true` when at least one issue required mutating the problem
    /// (anything beyond [`RepairAction::Flagged`] advisories).
    pub fn needs_repair(&self) -> bool {
        self.issues
            .iter()
            .any(|i| i.action() != RepairAction::Flagged)
    }

    /// Ids of services that were quarantined.
    pub fn quarantined_services(&self) -> &[ServiceId] {
        &self.quarantined_services
    }
}

/// Gate 1: structural and semantic auditor for [`Problem`]s.
///
/// [`audit`](ProblemValidator::audit) reports defects without touching
/// the problem; [`admit`](ProblemValidator::admit) additionally builds a
/// repaired copy when (and only when) one is needed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProblemValidator;

impl ProblemValidator {
    /// A validator with default tolerances.
    pub fn new() -> Self {
        ProblemValidator
    }

    /// Audit `problem` and report every defect, without repairing.
    pub fn audit(&self, problem: &Problem) -> AdmissionReport {
        self.run(problem, None)
    }

    /// Audit `problem`; when repairs are needed, return the repaired copy.
    ///
    /// `None` means the input was admissible as-is (advisory
    /// [`RepairAction::Flagged`] issues may still be present in the
    /// report) — the healthy fast path performs no clone.
    pub fn admit(&self, problem: &Problem) -> (Option<Problem>, AdmissionReport) {
        let report = self.audit(problem);
        if !report.needs_repair() {
            return (None, report);
        }
        let mut repaired = problem.clone();
        let report = self.run(problem, Some(&mut repaired));
        (Some(repaired), report)
    }

    /// Single detection/repair pass. With `repair = None` only the report
    /// is produced; with `Some(out)` the defects are fixed in `out`
    /// (which must start as a clone of `problem`).
    fn run(&self, problem: &Problem, mut repair: Option<&mut Problem>) -> AdmissionReport {
        let mut report = AdmissionReport::default();
        let n = problem.services.len();

        // Services: dense ids, finite non-negative demand, sane priority.
        let mut quarantined = vec![false; n];
        for (i, svc) in problem.services.iter().enumerate() {
            if svc.id.idx() != i {
                report.issues.push(AdmissionIssue::MisnumberedService {
                    index: i,
                    found: svc.id.0,
                    action: RepairAction::Renumbered,
                });
                if let Some(out) = repair.as_deref_mut() {
                    out.services[i].id = ServiceId(i as u32);
                }
            }
            let demand_ok = svc.demand.0.iter().all(|v| v.is_finite() && *v >= 0.0);
            if !demand_ok {
                quarantined[i] = true;
                report.issues.push(AdmissionIssue::CorruptServiceDemand {
                    service: ServiceId(i as u32),
                    action: RepairAction::Quarantined,
                });
                report.quarantined_services.push(ServiceId(i as u32));
                if let Some(out) = repair.as_deref_mut() {
                    out.services[i].demand = ResourceVec::ZERO;
                    out.services[i].replicas = 0;
                }
            }
            if !(svc.priority_weight.is_finite() && svc.priority_weight > 0.0) {
                report.issues.push(AdmissionIssue::CorruptPriorityWeight {
                    service: ServiceId(i as u32),
                    action: RepairAction::Clamped,
                });
                if let Some(out) = repair.as_deref_mut() {
                    out.services[i].priority_weight = 1.0;
                }
            }
        }

        // Machines: dense ids, finite non-negative capacity.
        for (i, m) in problem.machines.iter().enumerate() {
            if m.id.idx() != i {
                report.issues.push(AdmissionIssue::MisnumberedMachine {
                    index: i,
                    found: m.id.0,
                    action: RepairAction::Renumbered,
                });
                if let Some(out) = repair.as_deref_mut() {
                    out.machines[i].id = MachineId(i as u32);
                }
            }
            if m.capacity.0.iter().any(|v| !v.is_finite()) {
                report.issues.push(AdmissionIssue::CorruptMachineCapacity {
                    machine: MachineId(i as u32),
                    action: RepairAction::Quarantined,
                });
                report.quarantined_machines.push(MachineId(i as u32));
                if let Some(out) = repair.as_deref_mut() {
                    out.machines[i].capacity = ResourceVec::ZERO;
                }
            } else if m.capacity.0.iter().any(|v| *v < 0.0) {
                report.issues.push(AdmissionIssue::CorruptMachineCapacity {
                    machine: MachineId(i as u32),
                    action: RepairAction::Clamped,
                });
                if let Some(out) = repair.as_deref_mut() {
                    for v in out.machines[i].capacity.0.iter_mut() {
                        if *v < 0.0 {
                            *v = 0.0;
                        }
                    }
                }
            }
        }

        // Affinity edges: in-range, no self-loops, positive finite
        // weights, canonical a < b order, no duplicates, no quarantined
        // endpoints. Dropped edges are removed from the repaired copy in
        // one retain pass at the end.
        let mut drop_edge = vec![false; problem.affinity_edges.len()];
        let mut seen: HashSet<(ServiceId, ServiceId)> = HashSet::new();
        for (i, e) in problem.affinity_edges.iter().enumerate() {
            let defect = if e.a.idx() >= n || e.b.idx() >= n {
                Some(EdgeDefect::DanglingEndpoint)
            } else if e.a == e.b {
                Some(EdgeDefect::SelfLoop)
            } else if !e.weight.is_finite() {
                Some(EdgeDefect::NonFiniteWeight)
            } else if e.weight <= 0.0 {
                Some(EdgeDefect::NonPositiveWeight)
            } else if quarantined[e.a.idx()] || quarantined[e.b.idx()] {
                Some(EdgeDefect::QuarantinedEndpoint)
            } else {
                let key = if e.a < e.b { (e.a, e.b) } else { (e.b, e.a) };
                if !seen.insert(key) {
                    Some(EdgeDefect::Duplicate)
                } else if e.a > e.b {
                    report.issues.push(AdmissionIssue::CorruptAffinityEdge {
                        index: i,
                        defect: EdgeDefect::Unnormalized,
                        action: RepairAction::Clamped,
                    });
                    if let Some(out) = repair.as_deref_mut() {
                        out.affinity_edges[i] = AffinityEdge::new(e.b, e.a, e.weight);
                    }
                    None
                } else {
                    None
                }
            };
            if let Some(defect) = defect {
                drop_edge[i] = true;
                report.dropped_edges += 1;
                report.issues.push(AdmissionIssue::CorruptAffinityEdge {
                    index: i,
                    defect,
                    action: RepairAction::Dropped,
                });
            }
        }
        if let Some(out) = repair.as_deref_mut() {
            if report.dropped_edges > 0 {
                let mut i = 0;
                out.affinity_edges.retain(|_| {
                    let keep = !drop_edge[i];
                    i += 1;
                    keep
                });
            }
        }

        // Anti-affinity rules: known members, non-empty, satisfiable.
        let mut drop_rule = vec![false; problem.anti_affinity.len()];
        let mut filtered_members: Vec<(usize, Vec<ServiceId>)> = Vec::new();
        for (i, rule) in problem.anti_affinity.iter().enumerate() {
            let known: Vec<ServiceId> = rule
                .services
                .iter()
                .copied()
                .filter(|s| s.idx() < n)
                .collect();
            if known.len() < rule.services.len() {
                report.issues.push(AdmissionIssue::CorruptAntiAffinityRule {
                    index: i,
                    defect: RuleDefect::UnknownMembers,
                    action: RepairAction::Clamped,
                });
                filtered_members.push((i, known.clone()));
            }
            if known.is_empty() {
                drop_rule[i] = true;
                report.dropped_rules += 1;
                report.issues.push(AdmissionIssue::CorruptAntiAffinityRule {
                    index: i,
                    defect: RuleDefect::Empty,
                    action: RepairAction::Dropped,
                });
                continue;
            }
            let demands_placement = known
                .iter()
                .any(|s| !quarantined[s.idx()] && problem.services[s.idx()].replicas > 0);
            if rule.max_per_machine == 0 && demands_placement {
                drop_rule[i] = true;
                report.dropped_rules += 1;
                report.issues.push(AdmissionIssue::CorruptAntiAffinityRule {
                    index: i,
                    defect: RuleDefect::Unsatisfiable,
                    action: RepairAction::Dropped,
                });
            }
        }
        if let Some(out) = repair {
            for (i, members) in &filtered_members {
                out.anti_affinity[*i] = AntiAffinityRule {
                    services: members.clone(),
                    max_per_machine: out.anti_affinity[*i].max_per_machine,
                };
            }
            if report.dropped_rules > 0 {
                let mut i = 0;
                out.anti_affinity.retain(|_| {
                    let keep = !drop_rule[i];
                    i += 1;
                    keep
                });
            }
        }

        // Aggregate feasibility advisory: healthy demand vs repaired
        // capacity, per resource dimension.
        let mut demand = [0.0f64; NUM_RESOURCES];
        for (i, svc) in problem.services.iter().enumerate() {
            if quarantined[i] {
                continue;
            }
            let total = svc.total_demand();
            for (d, v) in demand.iter_mut().zip(total.0.iter()) {
                *d += v;
            }
        }
        let mut capacity = [0.0f64; NUM_RESOURCES];
        for m in &problem.machines {
            for (c, v) in capacity.iter_mut().zip(m.capacity.0.iter()) {
                // Use the post-repair view of capacity: non-finite and
                // negative components contribute nothing.
                if v.is_finite() && *v > 0.0 {
                    *c += v;
                }
            }
        }
        for kind in ResourceKind::ALL {
            let r = kind.idx();
            if demand[r] > capacity[r] + RESOURCE_EPS {
                report.issues.push(AdmissionIssue::CapacityShortfall {
                    kind,
                    demand: demand[r],
                    capacity: capacity[r],
                    action: RepairAction::Flagged,
                });
            }
        }

        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::FeatureMask;
    use crate::problem::ProblemBuilder;

    fn healthy_problem() -> Problem {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 2, ResourceVec::cpu_mem(1.0, 1.0));
        let s1 = b.add_service("b", 2, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(3, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 5.0);
        b.add_anti_affinity(vec![s0, s1], 2);
        b.build().expect("healthy problem builds")
    }

    #[test]
    fn healthy_problem_is_clean_and_not_cloned() {
        let p = healthy_problem();
        let v = ProblemValidator::new();
        assert!(v.audit(&p).is_clean());
        let (repaired, report) = v.admit(&p);
        assert!(repaired.is_none());
        assert!(report.is_clean());
    }

    #[test]
    fn nan_demand_quarantines_service_and_incident_edges() {
        let mut p = healthy_problem();
        p.services[0].demand = ResourceVec::new(f64::NAN, 1.0, 0.0, 0.0);
        let (repaired, report) = ProblemValidator::new().admit(&p);
        let r = repaired.expect("repair required");
        assert_eq!(report.quarantined_services, vec![ServiceId(0)]);
        assert_eq!(r.services[0].replicas, 0);
        assert_eq!(r.services[0].demand, ResourceVec::ZERO);
        // the s0–s1 edge touched the quarantined service and is gone
        assert!(r.affinity_edges.is_empty());
        assert_eq!(report.dropped_edges, 1);
        // the healthy service is untouched
        assert_eq!(r.services[1], p.services[1]);
    }

    #[test]
    fn negative_demand_quarantines() {
        let mut p = healthy_problem();
        p.services[1].demand = ResourceVec::new(-2.0, 1.0, 0.0, 0.0);
        let (repaired, report) = ProblemValidator::new().admit(&p);
        assert_eq!(report.quarantined_services, vec![ServiceId(1)]);
        assert_eq!(repaired.expect("repaired").services[1].replicas, 0);
    }

    #[test]
    fn infinite_capacity_quarantines_machine() {
        let mut p = healthy_problem();
        p.machines[2].capacity = ResourceVec::new(f64::INFINITY, 8.0, 0.0, 0.0);
        let (repaired, report) = ProblemValidator::new().admit(&p);
        assert_eq!(report.quarantined_machines, vec![MachineId(2)]);
        assert_eq!(
            repaired.expect("repaired").machines[2].capacity,
            ResourceVec::ZERO
        );
    }

    #[test]
    fn negative_capacity_component_is_clamped_not_quarantined() {
        let mut p = healthy_problem();
        p.machines[0].capacity = ResourceVec::new(-4.0, 8.0, 0.0, 0.0);
        let (repaired, report) = ProblemValidator::new().admit(&p);
        assert!(report.quarantined_machines.is_empty());
        let r = repaired.expect("repaired");
        assert_eq!(r.machines[0].capacity, ResourceVec::new(0.0, 8.0, 0.0, 0.0));
    }

    #[test]
    fn misnumbered_ids_are_renumbered() {
        let mut p = healthy_problem();
        p.services[1].id = ServiceId(0); // duplicate of services[0]
        p.machines[0].id = MachineId(9); // out of range
        let (repaired, report) = ProblemValidator::new().admit(&p);
        let r = repaired.expect("repaired");
        assert_eq!(r.services[1].id, ServiceId(1));
        assert_eq!(r.machines[0].id, MachineId(0));
        assert!(report.issues.iter().any(|i| matches!(
            i,
            AdmissionIssue::MisnumberedService {
                index: 1,
                found: 0,
                ..
            }
        )));
        assert!(report.issues.iter().any(|i| matches!(
            i,
            AdmissionIssue::MisnumberedMachine {
                index: 0,
                found: 9,
                ..
            }
        )));
    }

    #[test]
    fn corrupt_priority_weight_reset_to_neutral() {
        let mut p = healthy_problem();
        p.services[0].priority_weight = f64::NAN;
        let (repaired, _) = ProblemValidator::new().admit(&p);
        assert_eq!(repaired.expect("repaired").services[0].priority_weight, 1.0);
    }

    #[test]
    fn defective_edges_are_dropped() {
        let mut p = healthy_problem();
        p.affinity_edges.push(AffinityEdge {
            a: ServiceId(0),
            b: ServiceId(7), // dangling
            weight: 1.0,
        });
        p.affinity_edges.push(AffinityEdge {
            a: ServiceId(1),
            b: ServiceId(1), // self-loop
            weight: 1.0,
        });
        p.affinity_edges.push(AffinityEdge {
            a: ServiceId(0),
            b: ServiceId(1), // duplicate of the healthy edge
            weight: f64::NAN,
        });
        let (repaired, report) = ProblemValidator::new().admit(&p);
        let r = repaired.expect("repaired");
        assert_eq!(r.affinity_edges.len(), 1);
        assert_eq!(r.affinity_edges[0].weight, 5.0);
        assert_eq!(report.dropped_edges, 3);
    }

    #[test]
    fn duplicate_edge_detected_in_either_orientation() {
        let mut p = healthy_problem();
        p.affinity_edges.push(AffinityEdge {
            a: ServiceId(1),
            b: ServiceId(0),
            weight: 2.0,
        });
        let (repaired, report) = ProblemValidator::new().admit(&p);
        assert_eq!(repaired.expect("repaired").affinity_edges.len(), 1);
        assert!(report.issues.iter().any(|i| matches!(
            i,
            AdmissionIssue::CorruptAffinityEdge {
                defect: EdgeDefect::Duplicate,
                ..
            }
        )));
    }

    #[test]
    fn unnormalized_edge_is_reoriented_in_place() {
        let mut p = healthy_problem();
        p.affinity_edges[0] = AffinityEdge {
            a: ServiceId(1),
            b: ServiceId(0),
            weight: 5.0,
        };
        let (repaired, report) = ProblemValidator::new().admit(&p);
        let r = repaired.expect("repaired");
        assert_eq!(r.affinity_edges.len(), 1);
        assert_eq!(r.affinity_edges[0].a, ServiceId(0));
        assert_eq!(r.affinity_edges[0].b, ServiceId(1));
        assert_eq!(report.dropped_edges, 0);
    }

    #[test]
    fn zero_cap_anti_affinity_rule_is_dropped() {
        let mut p = healthy_problem();
        p.anti_affinity[0].max_per_machine = 0;
        let (repaired, report) = ProblemValidator::new().admit(&p);
        assert!(repaired.expect("repaired").anti_affinity.is_empty());
        assert!(report.issues.iter().any(|i| matches!(
            i,
            AdmissionIssue::CorruptAntiAffinityRule {
                defect: RuleDefect::Unsatisfiable,
                ..
            }
        )));
    }

    #[test]
    fn rule_with_unknown_members_is_filtered_then_kept() {
        let mut p = healthy_problem();
        p.anti_affinity[0].services.push(ServiceId(42));
        let (repaired, report) = ProblemValidator::new().admit(&p);
        let r = repaired.expect("repaired");
        assert_eq!(r.anti_affinity.len(), 1);
        assert_eq!(
            r.anti_affinity[0].services,
            vec![ServiceId(0), ServiceId(1)]
        );
        assert_eq!(report.dropped_rules, 0);
    }

    #[test]
    fn rule_with_only_unknown_members_is_dropped() {
        let mut p = healthy_problem();
        p.anti_affinity[0].services = vec![ServiceId(40), ServiceId(41)];
        let (repaired, report) = ProblemValidator::new().admit(&p);
        assert!(repaired.expect("repaired").anti_affinity.is_empty());
        assert_eq!(report.dropped_rules, 1);
    }

    #[test]
    fn capacity_shortfall_is_advisory_only() {
        let mut p = healthy_problem();
        for m in &mut p.machines {
            m.capacity = ResourceVec::cpu_mem(0.5, 0.5);
        }
        let (repaired, report) = ProblemValidator::new().admit(&p);
        assert!(
            repaired.is_none(),
            "advisories never trigger a repair clone"
        );
        assert!(!report.is_clean());
        assert!(!report.needs_repair());
        assert!(report.issues.iter().any(|i| matches!(
            i,
            AdmissionIssue::CapacityShortfall {
                kind: ResourceKind::Cpu,
                ..
            }
        )));
    }

    #[test]
    fn report_serializes_to_json() {
        let mut p = healthy_problem();
        p.services[0].demand = ResourceVec::new(f64::NAN, 1.0, 0.0, 0.0);
        let (_, report) = ProblemValidator::new().admit(&p);
        let json = serde_json::to_string(&report).expect("report serializes");
        assert!(
            json.contains(r#"{"CorruptServiceDemand":{"service":0,"action":"Quarantined"}}"#),
            "{json}"
        );
        assert!(json.contains("quarantined_services"));
    }

    #[test]
    fn repaired_problem_is_admissible() {
        let mut p = healthy_problem();
        p.services[0].demand = ResourceVec::new(f64::NAN, 1.0, 0.0, 0.0);
        p.machines[1].capacity = ResourceVec::new(-1.0, 4.0, 0.0, 0.0);
        p.anti_affinity[0].max_per_machine = 0;
        p.affinity_edges.push(AffinityEdge {
            a: ServiceId(0),
            b: ServiceId(0),
            weight: 1.0,
        });
        let v = ProblemValidator::new();
        let (repaired, _) = v.admit(&p);
        let r = repaired.expect("repaired");
        let (again, second) = v.admit(&r);
        assert!(again.is_none(), "repair is idempotent: {second:?}");
        assert!(!second.needs_repair());
    }
}
