//! Affinity edges: the weighted service-to-service relation RASA maximizes.

use crate::ids::ServiceId;
use serde::{Deserialize, Serialize};

/// Index of an edge within [`Problem::affinity_edges`](crate::Problem::affinity_edges).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The dense index as `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One undirected edge `(s, s')` of the affinity graph with weight
/// `w_{s,s'}` (Section II-B).
///
/// In this reproduction, as in the paper's production deployment, the weight
/// is the volume of traffic between the two services as observed by the
/// metrics monitoring system, optionally scaled by per-service priority
/// weights.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AffinityEdge {
    /// One endpoint.
    pub a: ServiceId,
    /// The other endpoint; invariant `a != b` (self-affinity has no meaning:
    /// a service's containers always share a machine with themselves).
    pub b: ServiceId,
    /// `w_{s,s'} > 0`: traffic volume (or priority-scaled traffic).
    pub weight: f64,
}

impl AffinityEdge {
    /// Build an edge, normalizing the endpoint order so `a < b`.
    ///
    /// # Panics
    /// Panics on self-loops or non-positive weights — both indicate a bug in
    /// the data collector rather than a recoverable condition.
    pub fn new(a: ServiceId, b: ServiceId, weight: f64) -> Self {
        assert!(a != b, "affinity self-loop on {a}");
        assert!(
            weight > 0.0 && weight.is_finite(),
            "affinity weight must be positive and finite, got {weight}"
        );
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        AffinityEdge { a, b, weight }
    }

    /// The endpoint that is not `s`.
    ///
    /// # Panics
    /// Panics if `s` is not an endpoint of the edge.
    pub fn other(&self, s: ServiceId) -> ServiceId {
        if s == self.a {
            self.b
        } else if s == self.b {
            self.a
        } else {
            panic!("{s} is not an endpoint of edge ({}, {})", self.a, self.b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_are_normalized() {
        let e = AffinityEdge::new(ServiceId(5), ServiceId(2), 1.5);
        assert_eq!(e.a, ServiceId(2));
        assert_eq!(e.b, ServiceId(5));
        assert_eq!(e.weight, 1.5);
    }

    #[test]
    fn other_returns_opposite_endpoint() {
        let e = AffinityEdge::new(ServiceId(0), ServiceId(1), 1.0);
        assert_eq!(e.other(ServiceId(0)), ServiceId(1));
        assert_eq!(e.other(ServiceId(1)), ServiceId(0));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let _ = AffinityEdge::new(ServiceId(3), ServiceId(3), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let _ = AffinityEdge::new(ServiceId(0), ServiceId(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nan_weight_rejected() {
        let _ = AffinityEdge::new(ServiceId(0), ServiceId(1), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_panics_for_non_endpoint() {
        let e = AffinityEdge::new(ServiceId(0), ServiceId(1), 1.0);
        let _ = e.other(ServiceId(9));
    }
}
