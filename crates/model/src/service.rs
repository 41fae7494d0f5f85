//! Services and their SLA/resource requirements.

use crate::ids::ServiceId;
use crate::machine::FeatureMask;
use crate::resources::ResourceVec;
use serde::{Deserialize, Serialize};

/// A microservice that must run `replicas` homogeneous containers in the
/// cluster (the paper's `d_s`), each requesting `demand` resources
/// (`R^S_{r,s}`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Service {
    /// Dense id; equals this service's index in [`Problem::services`](crate::Problem::services).
    pub id: ServiceId,
    /// Human-readable name (used only in reports and traces).
    pub name: String,
    /// `d_s`: number of containers the SLA requires (Expression (3)).
    pub replicas: u32,
    /// Per-container resource request (Expression (4)).
    pub demand: ResourceVec,
    /// Features this service's containers require from a hosting machine.
    /// Machine `m` can host this service iff
    /// `required_features ⊆ m.features` — this encodes the paper's
    /// schedulable matrix `b_{s,m}` (Expression (6)) compactly.
    pub required_features: FeatureMask,
    /// `true` if the service keeps no local state, so its containers can be
    /// migrated at negligible cost (Section III-B focuses optimization on
    /// stateless services).
    pub stateless: bool,
    /// Network-performance priority multiplier applied to this service's
    /// affinity edges (Section II-B: "the cluster manager can set up multiple
    /// priority levels"). `1.0` is neutral.
    pub priority_weight: f64,
}

impl Service {
    /// A stateless service with neutral priority and no feature requirements.
    pub fn new(id: ServiceId, name: impl Into<String>, replicas: u32, demand: ResourceVec) -> Self {
        Service {
            id,
            name: name.into(),
            replicas,
            demand,
            required_features: FeatureMask::EMPTY,
            stateless: true,
            priority_weight: 1.0,
        }
    }

    /// Builder-style setter for the required feature mask.
    pub fn with_features(mut self, mask: FeatureMask) -> Self {
        self.required_features = mask;
        self
    }

    /// Builder-style setter for the priority weight.
    pub fn with_priority(mut self, weight: f64) -> Self {
        self.priority_weight = weight;
        self
    }

    /// Total resources requested by all `d_s` containers of this service.
    pub fn total_demand(&self) -> ResourceVec {
        self.demand * f64::from(self.replicas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_demand_scales_by_replicas() {
        let s = Service::new(ServiceId(0), "web", 4, ResourceVec::cpu_mem(500.0, 1024.0));
        assert_eq!(s.total_demand(), ResourceVec::cpu_mem(2000.0, 4096.0));
    }

    #[test]
    fn builder_setters() {
        let s = Service::new(ServiceId(1), "db", 2, ResourceVec::cpu_mem(1.0, 1.0))
            .with_features(FeatureMask(0b101))
            .with_priority(2.5);
        assert_eq!(s.required_features, FeatureMask(0b101));
        assert_eq!(s.priority_weight, 2.5);
    }
}
