//! Constraint validation for placements (Expressions (3)–(6)).

use crate::ids::{MachineId, ServiceId};
use crate::placement::Placement;
use crate::problem::Problem;
use crate::resources::ResourceKind;
use std::fmt;

/// Default slack used when comparing accumulated float resource usage
/// against capacities.
pub const RESOURCE_EPS: f64 = 1e-6;

/// What a placement violates.
#[derive(Clone, Debug, PartialEq)]
pub enum ViolationKind {
    /// Expression (3): `Σ_m x_{s,m} != d_s`.
    Sla {
        /// The under- or over-provisioned service.
        service: ServiceId,
        /// Containers the placement provides.
        placed: u32,
        /// Containers the SLA requires (`d_s`).
        required: u32,
    },
    /// Expression (4): machine capacity exceeded in some resource.
    Resource {
        /// The overloaded machine.
        machine: MachineId,
        /// The violated resource dimension.
        kind: ResourceKind,
        /// Accumulated demand.
        used: f64,
        /// Machine capacity.
        capacity: f64,
    },
    /// Expression (5): anti-affinity rule `rule_idx` exceeded on a machine.
    AntiAffinity {
        /// Index of the rule in [`Problem::anti_affinity`].
        rule_idx: usize,
        /// The machine hosting too many constrained containers.
        machine: MachineId,
        /// Containers from the rule's service set on the machine.
        count: u32,
        /// `h_k`.
        max: u32,
    },
    /// Expression (6): containers placed on an incompatible machine.
    Schedulable {
        /// The service whose containers are misplaced.
        service: ServiceId,
        /// The incompatible machine.
        machine: MachineId,
    },
}

/// A single constraint violation.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Which constraint is violated and by how much.
    pub kind: ViolationKind,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ViolationKind::Sla {
                service,
                placed,
                required,
            } => write!(
                f,
                "SLA: {service} has {placed}/{required} containers placed"
            ),
            ViolationKind::Resource {
                machine,
                kind,
                used,
                capacity,
            } => write!(
                f,
                "resource: {machine} {} used {used:.3} > capacity {capacity:.3}",
                kind.label()
            ),
            ViolationKind::AntiAffinity {
                rule_idx,
                machine,
                count,
                max,
            } => write!(
                f,
                "anti-affinity rule #{rule_idx}: {machine} hosts {count} > h_k = {max}"
            ),
            ViolationKind::Schedulable { service, machine } => {
                write!(f, "schedulable: {service} cannot run on {machine}")
            }
        }
    }
}

/// Validate `placement` against every constraint of `problem`.
///
/// Returns all violations (empty means feasible). `check_sla = false`
/// permits partial placements — used mid-migration, where the paper relaxes
/// SLAs to 75% alive, and for subproblem solutions where a small number of
/// failed deployments is acceptable (Section IV-B5).
pub fn validate(problem: &Problem, placement: &Placement, check_sla: bool) -> Vec<Violation> {
    let mut violations = Vec::new();

    if check_sla {
        for svc in &problem.services {
            let placed = placement.placed_count(svc.id);
            if placed != svc.replicas {
                violations.push(Violation {
                    kind: ViolationKind::Sla {
                        service: svc.id,
                        placed,
                        required: svc.replicas,
                    },
                });
            }
        }
    }

    // Resources (4).
    let usage = placement.machine_usage(problem);
    for (mi, used) in usage.iter().enumerate() {
        let cap = &problem.machines[mi].capacity;
        for kind in ResourceKind::ALL {
            if used[kind] > cap[kind] + RESOURCE_EPS {
                violations.push(Violation {
                    kind: ViolationKind::Resource {
                        machine: MachineId(mi as u32),
                        kind,
                        used: used[kind],
                        capacity: cap[kind],
                    },
                });
            }
        }
    }

    // Anti-affinity (5).
    for (rule_idx, rule) in problem.anti_affinity.iter().enumerate() {
        let mut per_machine: std::collections::BTreeMap<MachineId, u32> = Default::default();
        for &s in &rule.services {
            for (m, c) in placement.machines_of(s) {
                *per_machine.entry(m).or_insert(0) += c;
            }
        }
        for (m, count) in per_machine {
            if count > rule.max_per_machine {
                violations.push(Violation {
                    kind: ViolationKind::AntiAffinity {
                        rule_idx,
                        machine: m,
                        count,
                        max: rule.max_per_machine,
                    },
                });
            }
        }
    }

    // Schedulable (6).
    for (s, m, _c) in placement.iter() {
        if !problem.schedulable(s, m) {
            violations.push(Violation {
                kind: ViolationKind::Schedulable {
                    service: s,
                    machine: m,
                },
            });
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::FeatureMask;
    use crate::problem::ProblemBuilder;
    use crate::resources::ResourceVec;

    fn problem() -> Problem {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 2, ResourceVec::cpu_mem(4.0, 4.0));
        let s1 = b.add_service_full(
            crate::Service::new(ServiceId(0), "b", 2, ResourceVec::cpu_mem(1.0, 1.0))
                .with_features(FeatureMask::bit(1)),
        );
        b.add_machine(ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::bit(1)); // m0
        b.add_machine(ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY); // m1
        b.add_anti_affinity(vec![s0, s1], 2);
        b.build().unwrap()
    }

    #[test]
    fn feasible_placement_passes() {
        let p = problem();
        let mut x = Placement::empty_for(&p);
        x.add(ServiceId(0), MachineId(1), 1);
        x.add(ServiceId(0), MachineId(0), 1);
        x.add(ServiceId(1), MachineId(0), 1);
        // anti-affinity: m0 hosts 2 == h_k OK. Need s1 second replica elsewhere
        // but m1 lacks feature bit 1, so place it on m0 -> would hit anti-affinity.
        // Keep SLA check off to test the rest first.
        let v = validate(&p, &x, false);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn sla_violation_detected() {
        let p = problem();
        let x = Placement::empty_for(&p);
        let v = validate(&p, &x, true);
        assert_eq!(v.len(), 2);
        assert!(matches!(
            v[0].kind,
            ViolationKind::Sla {
                placed: 0,
                required: 2,
                ..
            }
        ));
    }

    #[test]
    fn resource_violation_detected_per_dimension() {
        let p = problem();
        let mut x = Placement::empty_for(&p);
        x.add(ServiceId(0), MachineId(1), 2); // 8 cpu OK, 8 mem OK (exact fit)
        assert!(validate(&p, &x, false).is_empty());
        x.add(ServiceId(1), MachineId(1), 1); // pushes to 9 — but also schedulable violation
        let v = validate(&p, &x, false);
        let kinds: Vec<_> = v.iter().map(|v| &v.kind).collect();
        assert!(kinds.iter().any(|k| matches!(
            k,
            ViolationKind::Resource {
                kind: ResourceKind::Cpu,
                ..
            }
        )));
        assert!(kinds.iter().any(|k| matches!(
            k,
            ViolationKind::Resource {
                kind: ResourceKind::Memory,
                ..
            }
        )));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, ViolationKind::Schedulable { .. })));
    }

    #[test]
    fn anti_affinity_violation_detected() {
        let p = problem();
        let mut x = Placement::empty_for(&p);
        x.add(ServiceId(0), MachineId(0), 1);
        x.add(ServiceId(1), MachineId(0), 2); // total 3 > h_k = 2
        let v = validate(&p, &x, false);
        assert!(v.iter().any(|v| matches!(
            v.kind,
            ViolationKind::AntiAffinity {
                count: 3,
                max: 2,
                ..
            }
        )));
    }

    #[test]
    fn schedulable_violation_detected() {
        let p = problem();
        let mut x = Placement::empty_for(&p);
        x.add(ServiceId(1), MachineId(1), 1); // s1 requires bit 1; m1 lacks it
        let v = validate(&p, &x, false);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0].kind, ViolationKind::Schedulable { .. }));
        assert!(v[0].to_string().contains("cannot run"));
    }

    #[test]
    fn exact_capacity_fit_is_feasible() {
        let p = problem();
        let mut x = Placement::empty_for(&p);
        x.add(ServiceId(0), MachineId(0), 2); // exactly 8/8 — and anti-affinity count 2 == max
        let v = validate(&p, &x, false);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn violation_display() {
        let v = Violation {
            kind: ViolationKind::Sla {
                service: ServiceId(1),
                placed: 1,
                required: 3,
            },
        };
        assert_eq!(v.to_string(), "SLA: s1 has 1/3 containers placed");
    }
}
