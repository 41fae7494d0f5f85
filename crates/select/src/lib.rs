#![warn(missing_docs)]

//! # rasa-select
//!
//! Algorithm selection for the RASA scheduling pool (Section IV-D of the
//! paper): given a subproblem, decide which pool arm — **column
//! generation**, **MIP**, the **POP** shard rung, or the **greedy** floor —
//! should solve it.
//!
//! Components:
//!
//! * [`feature_graph`] — builds the paper's *feature graph*
//!   `Ĝ = <S, E, F>` for a subproblem, with an `N × 2` feature matrix of
//!   per-service resource demand and container count (`[r_s, d_s]`);
//! * [`portfolio_features`] — a fixed 10-dim descriptor (scale, demand,
//!   affinity density, cut-quality signals) recorded with every fresh
//!   solve;
//! * [`label_subproblem`] — the paper's binary labelling procedure;
//! * [`AlgorithmSelector`] implementations: [`HeuristicSelector`] (the
//!   paper's empirical rule), [`MlpSelector`] (topology-blind) and
//!   [`GcnSelector`] (the paper's proposal) — with the CG-only / MIP-only
//!   fixed arms, the bars of Fig 8;
//! * [`online`] — the [`SampleLog`] stream of
//!   `(features, choice, quality, latency)` tuples the pipeline logs;
//! * [`training`] — dataset assembly and training loops for the learned
//!   selectors, plus weight persistence.

pub mod features;
pub mod labeling;
pub mod online;
pub mod selectors;
pub mod training;

pub use features::{feature_graph, portfolio_features, PORTFOLIO_FEATURE_DIM};
pub use labeling::{label_subproblem, LabeledSubproblem};
pub use online::{SampleLog, SelectionSample, DEFAULT_SAMPLE_CAPACITY};
pub use selectors::{
    AlgorithmSelector, GcnSelector, HeuristicSelector, MlpSelector, PoolAlgorithm,
};
pub use training::{train_gcn, train_mlp, TrainReport};
