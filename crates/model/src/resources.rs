//! Multi-dimensional resource vectors.
//!
//! The paper's resource constraints (Expression (4)) range over a set of
//! resource types `R`; in practice ByteDance consider CPU, memory, network
//! and disk (Section II-C). We model exactly those four dimensions with a
//! fixed-size vector, which keeps capacity arithmetic allocation-free on the
//! scheduler hot path.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub, SubAssign};

/// Number of resource dimensions tracked per container / machine.
pub const NUM_RESOURCES: usize = 4;

/// The resource dimensions the scheduler accounts for.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ResourceKind {
    /// CPU, in millicores.
    Cpu,
    /// Memory, in MiB.
    Memory,
    /// Network bandwidth, in Mbit/s.
    Network,
    /// Disk, in GiB.
    Disk,
}

impl ResourceKind {
    /// All resource kinds, in index order.
    pub const ALL: [ResourceKind; NUM_RESOURCES] = [
        ResourceKind::Cpu,
        ResourceKind::Memory,
        ResourceKind::Network,
        ResourceKind::Disk,
    ];

    /// The dense index of this kind within a [`ResourceVec`].
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            ResourceKind::Cpu => 0,
            ResourceKind::Memory => 1,
            ResourceKind::Network => 2,
            ResourceKind::Disk => 3,
        }
    }

    /// Short lowercase label, used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Memory => "mem",
            ResourceKind::Network => "net",
            ResourceKind::Disk => "disk",
        }
    }
}

/// A point in resource space: either a container's request `R^S_{r,s}` or a
/// machine's capacity `R^M_{r,m}`.
#[derive(Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourceVec(pub [f64; NUM_RESOURCES]);

impl ResourceVec {
    /// The zero vector.
    pub const ZERO: ResourceVec = ResourceVec([0.0; NUM_RESOURCES]);

    /// Build from explicit dimensions.
    pub fn new(cpu: f64, memory: f64, network: f64, disk: f64) -> Self {
        ResourceVec([cpu, memory, network, disk])
    }

    /// Convenience constructor for CPU/memory-only workloads (network and
    /// disk requests of zero).
    pub fn cpu_mem(cpu: f64, memory: f64) -> Self {
        ResourceVec([cpu, memory, 0.0, 0.0])
    }

    /// CPU millicores.
    #[inline]
    pub fn cpu(&self) -> f64 {
        self.0[0]
    }

    /// Memory MiB.
    #[inline]
    pub fn memory(&self) -> f64 {
        self.0[1]
    }

    /// Network Mbit/s.
    #[inline]
    pub fn network(&self) -> f64 {
        self.0[2]
    }

    /// Disk GiB.
    #[inline]
    pub fn disk(&self) -> f64 {
        self.0[3]
    }

    /// `true` if every dimension of `self` is `<=` the corresponding
    /// dimension of `cap` (within `eps` slack to absorb float accumulation).
    #[inline]
    pub fn fits_within(&self, cap: &ResourceVec, eps: f64) -> bool {
        self.0
            .iter()
            .zip(cap.0.iter())
            .all(|(need, have)| *need <= *have + eps)
    }

    /// Component-wise maximum.
    pub fn max(&self, other: &ResourceVec) -> ResourceVec {
        let mut out = [0.0; NUM_RESOURCES];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            *o = a.max(*b);
        }
        ResourceVec(out)
    }

    /// The largest utilization fraction `self[r] / cap[r]` over dimensions
    /// where `cap[r] > 0`. Dimensions with zero capacity but positive demand
    /// yield `f64::INFINITY`.
    pub fn dominant_share(&self, cap: &ResourceVec) -> f64 {
        let mut worst: f64 = 0.0;
        for r in 0..NUM_RESOURCES {
            let need = self.0[r];
            let have = cap.0[r];
            if need <= 0.0 {
                continue;
            }
            worst = worst.max(if have > 0.0 {
                need / have
            } else {
                f64::INFINITY
            });
        }
        worst
    }

    /// Sum of all dimensions after normalizing each by `scale`'s
    /// corresponding dimension; a scalar "size" used by packing heuristics.
    pub fn normalized_magnitude(&self, scale: &ResourceVec) -> f64 {
        let mut total = 0.0;
        for r in 0..NUM_RESOURCES {
            if scale.0[r] > 0.0 {
                total += self.0[r] / scale.0[r];
            }
        }
        total
    }
}

impl Index<ResourceKind> for ResourceVec {
    type Output = f64;
    #[inline]
    fn index(&self, kind: ResourceKind) -> &f64 {
        &self.0[kind.idx()]
    }
}

impl IndexMut<ResourceKind> for ResourceVec {
    #[inline]
    fn index_mut(&mut self, kind: ResourceKind) -> &mut f64 {
        &mut self.0[kind.idx()]
    }
}

impl Add for ResourceVec {
    type Output = ResourceVec;
    fn add(self, rhs: ResourceVec) -> ResourceVec {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for ResourceVec {
    fn add_assign(&mut self, rhs: ResourceVec) {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a += *b;
        }
    }
}

impl Sub for ResourceVec {
    type Output = ResourceVec;
    fn sub(self, rhs: ResourceVec) -> ResourceVec {
        let mut out = self;
        out -= rhs;
        out
    }
}

impl SubAssign for ResourceVec {
    fn sub_assign(&mut self, rhs: ResourceVec) {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a -= *b;
        }
    }
}

impl Mul<f64> for ResourceVec {
    type Output = ResourceVec;
    fn mul(self, k: f64) -> ResourceVec {
        let mut out = self;
        for a in out.0.iter_mut() {
            *a *= k;
        }
        out
    }
}

impl fmt::Debug for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[cpu={} mem={} net={} disk={}]",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_component_wise() {
        let a = ResourceVec::new(1.0, 2.0, 3.0, 4.0);
        let b = ResourceVec::new(0.5, 0.5, 0.5, 0.5);
        assert_eq!(a + b, ResourceVec::new(1.5, 2.5, 3.5, 4.5));
        assert_eq!(a - b, ResourceVec::new(0.5, 1.5, 2.5, 3.5));
        assert_eq!(a * 2.0, ResourceVec::new(2.0, 4.0, 6.0, 8.0));
    }

    #[test]
    fn fits_within_respects_every_dimension() {
        let cap = ResourceVec::new(10.0, 10.0, 10.0, 10.0);
        assert!(ResourceVec::new(10.0, 1.0, 0.0, 0.0).fits_within(&cap, 1e-9));
        assert!(!ResourceVec::new(10.1, 1.0, 0.0, 0.0).fits_within(&cap, 1e-9));
        // Violation in a later dimension is still a violation.
        assert!(!ResourceVec::new(1.0, 1.0, 1.0, 11.0).fits_within(&cap, 1e-9));
    }

    #[test]
    fn fits_within_eps_tolerates_float_noise() {
        let cap = ResourceVec::new(1.0, 1.0, 1.0, 1.0);
        let need = ResourceVec::new(1.0 + 1e-12, 1.0, 1.0, 1.0);
        assert!(need.fits_within(&cap, 1e-9));
    }

    #[test]
    fn dominant_share_finds_bottleneck() {
        let cap = ResourceVec::new(100.0, 200.0, 50.0, 10.0);
        let need = ResourceVec::new(50.0, 20.0, 40.0, 1.0);
        // network: 40/50 = 0.8 is the bottleneck
        assert!((need.dominant_share(&cap) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn dominant_share_zero_capacity_is_infinite() {
        let cap = ResourceVec::new(100.0, 0.0, 0.0, 0.0);
        let need = ResourceVec::new(1.0, 1.0, 0.0, 0.0);
        assert_eq!(need.dominant_share(&cap), f64::INFINITY);
    }

    #[test]
    fn dominant_share_of_zero_demand_is_zero() {
        let cap = ResourceVec::new(1.0, 1.0, 1.0, 1.0);
        assert_eq!(ResourceVec::ZERO.dominant_share(&cap), 0.0);
    }

    #[test]
    fn kind_indexing() {
        let mut v = ResourceVec::ZERO;
        v[ResourceKind::Network] = 7.0;
        assert_eq!(v.network(), 7.0);
        assert_eq!(v[ResourceKind::Network], 7.0);
        assert_eq!(ResourceKind::Disk.label(), "disk");
    }

    #[test]
    fn normalized_magnitude_skips_zero_scale_dims() {
        let scale = ResourceVec::new(10.0, 0.0, 0.0, 0.0);
        let v = ResourceVec::new(5.0, 100.0, 3.0, 3.0);
        assert!((v.normalized_magnitude(&scale) - 0.5).abs() < 1e-12);
    }
}
