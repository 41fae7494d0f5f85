//! Training loops for the learned selectors, plus weight persistence.

use crate::features::feature_graph;
use crate::labeling::LabeledSubproblem;
use crate::selectors::{GcnSelector, MlpSelector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rasa_nn::{Gcn, GcnConfig, GraphInput, Mlp, MlpConfig};

/// Summary of a training run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainReport {
    /// Mean loss after the final epoch.
    pub final_loss: f64,
    /// Training-set accuracy of the final model.
    pub train_accuracy: f64,
    /// Number of examples trained on.
    pub examples: usize,
}

fn to_dataset(data: &[LabeledSubproblem]) -> Vec<(GraphInput, usize)> {
    data.iter()
        .map(|ex| (feature_graph(&ex.problem), ex.label.class_index()))
        .collect()
}

/// Train the GCN-BASED selector on labelled subproblems.
pub fn train_gcn(
    data: &[LabeledSubproblem],
    epochs: usize,
    lr: f64,
    seed: u64,
) -> (GcnSelector, TrainReport) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Gcn::new(GcnConfig::default(), &mut rng);
    let dataset = to_dataset(data);
    let history = model.train(&dataset, epochs, lr);
    let report = TrainReport {
        final_loss: history.last().copied().unwrap_or(f64::NAN),
        train_accuracy: model.accuracy(&dataset),
        examples: dataset.len(),
    };
    (GcnSelector { model }, report)
}

/// Train the MLP-BASED ablation on the same data.
pub fn train_mlp(
    data: &[LabeledSubproblem],
    epochs: usize,
    lr: f64,
    seed: u64,
) -> (MlpSelector, TrainReport) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Mlp::new(MlpConfig::default(), &mut rng);
    let dataset = to_dataset(data);
    let history = model.train(&dataset, epochs, lr);
    let report = TrainReport {
        final_loss: history.last().copied().unwrap_or(f64::NAN),
        train_accuracy: model.accuracy(&dataset),
        examples: dataset.len(),
    };
    (MlpSelector { model }, report)
}

/// Persist a trained GCN selector as JSON.
pub fn save_gcn(selector: &GcnSelector, path: &std::path::Path) -> std::io::Result<()> {
    let json = serde_json::to_string(selector).expect("GCN serializes");
    std::fs::write(path, json)
}

/// Load a GCN selector saved with [`save_gcn`]. A file whose weights do
/// not match its config, or whose model is not the CG-vs-MIP classifier
/// over [`feature_graph`]'s two node features, is `InvalidData`: loaded, it
/// would panic mid-round in a matmul or in
/// [`PoolAlgorithm::from_class_index`](crate::PoolAlgorithm::from_class_index).
pub fn load_gcn(path: &std::path::Path) -> std::io::Result<GcnSelector> {
    let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let json = std::fs::read_to_string(path)?;
    let selector: GcnSelector = serde_json::from_str(&json).map_err(|e| invalid(e.to_string()))?;
    let config = selector.model.config;
    if config.input_dim != 2 || config.num_classes != 2 {
        return Err(invalid(format!(
            "GCN takes {} features to {} classes, the selector needs 2 to 2",
            config.input_dim, config.num_classes
        )));
    }
    selector.model.check_shapes().map_err(invalid)?;
    Ok(selector)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selectors::{AlgorithmSelector, PoolAlgorithm};
    use rasa_model::{FeatureMask, Problem, ProblemBuilder, ResourceVec};

    /// Synthetic labelled set where the winning algorithm correlates with
    /// replica count (a signal both learned selectors can pick up).
    fn synthetic_data(n: usize) -> Vec<LabeledSubproblem> {
        (0..n)
            .map(|i| {
                let cg_ish = i % 2 == 0;
                let replicas = if cg_ish { 40 } else { 2 };
                let mut b = ProblemBuilder::new();
                let s0 = b.add_service("a", replicas, ResourceVec::cpu_mem(1.0, 1.0));
                let s1 = b.add_service("b", replicas, ResourceVec::cpu_mem(1.0, 1.0));
                b.add_machines(4, ResourceVec::cpu_mem(16.0, 16.0), FeatureMask::EMPTY);
                b.add_affinity(s0, s1, 1.0);
                let problem: Problem = b.build().unwrap();
                LabeledSubproblem {
                    problem,
                    label: if cg_ish {
                        PoolAlgorithm::Cg
                    } else {
                        PoolAlgorithm::Mip
                    },
                    cg_objective: 0.0,
                    mip_objective: 0.0,
                }
            })
            .collect()
    }

    #[test]
    fn gcn_learns_synthetic_labels() {
        let data = synthetic_data(16);
        let (selector, report) = train_gcn(&data, 300, 0.02, 42);
        assert!(
            report.train_accuracy >= 0.9,
            "acc {}",
            report.train_accuracy
        );
        assert_eq!(report.examples, 16);
        assert_eq!(selector.select(&data[0].problem), data[0].label);
    }

    #[test]
    fn mlp_learns_feature_signal() {
        let data = synthetic_data(16);
        let (_selector, report) = train_mlp(&data, 400, 0.02, 42);
        // replica count is visible in pooled features, so MLP should learn it
        assert!(
            report.train_accuracy >= 0.9,
            "acc {}",
            report.train_accuracy
        );
    }

    #[test]
    fn save_and_load_round_trip() {
        let data = synthetic_data(4);
        let (selector, _) = train_gcn(&data, 10, 0.02, 1);
        let dir = std::env::temp_dir().join("rasa_select_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gcn.json");
        save_gcn(&selector, &path).unwrap();
        let loaded = load_gcn(&path).unwrap();
        assert_eq!(
            loaded.select(&data[0].problem),
            selector.select(&data[0].problem)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_a_hand_edited_five_class_file() {
        let data = synthetic_data(4);
        let (selector, _) = train_gcn(&data, 1, 0.02, 1);
        let dir = std::env::temp_dir().join("rasa_select_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gcn_five_class.json");
        save_gcn(&selector, &path).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"num_classes\":2"));
        std::fs::write(
            &path,
            json.replace("\"num_classes\":2", "\"num_classes\":5"),
        )
        .unwrap();
        let err = load_gcn(&path).expect_err("a 5-class GCN must not load");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // a consistent 5-class model is still not a CG-vs-MIP selector
        let mut rng = StdRng::seed_from_u64(2);
        let config = GcnConfig {
            num_classes: 5,
            ..GcnConfig::default()
        };
        let five = GcnSelector {
            model: Gcn::new(config, &mut rng),
        };
        save_gcn(&five, &path).unwrap();
        let err = load_gcn(&path).expect_err("a 5-class GCN must not load");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
