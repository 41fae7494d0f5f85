#![warn(missing_docs)]

//! # rasa-trace
//!
//! Synthetic cluster/trace generation — the repository's substitute for the
//! ByteDance production traces of Table II (M1–M4), which are not publicly
//! available at full fidelity.
//!
//! The generator controls exactly the properties the paper's algorithms
//! depend on:
//!
//! * **affinity skew** — per-service total affinity follows a power law
//!   `T(s) ∝ s^{-β}` with configurable `β > 1` (Assumption 4.1, validated
//!   by the paper's Fig 5 and by our reproduction of it);
//! * **scale ratios** — services : containers : machines follow the paper's
//!   Table II (scaled down per DESIGN.md §6, since our simplex is slower
//!   than Gurobi);
//! * **machine heterogeneity** — several SKUs with distinct capacities
//!   (the property that breaks APPLSCI19's packing, Section V-D);
//! * **compatibility classes** — a fraction of services require features
//!   (IPv6-style), exercising schedulable constraints and compatibility
//!   partitioning;
//! * **anti-affinity rules** — singleton spread rules plus multi-service
//!   disaster-control rules.
//!
//! [`s_clusters`] returns the S1–S4 analogues of M1–M4; [`t_clusters`]
//! returns the smaller T1–T4-style training clusters used to label and
//! train the algorithm-selection classifiers (Section IV-D).

pub mod generator;
pub mod persist;
pub mod specs;

pub use generator::{generate, ClusterSpec};
pub use persist::{load_problem, save_problem, PersistError};
pub use specs::{
    large_clusters, medium_clusters, s_clusters, t_clusters, tiny_cluster, xl_clusters,
};
