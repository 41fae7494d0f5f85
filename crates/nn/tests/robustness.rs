//! Robustness tests: the classifiers must handle degenerate graphs
//! (single node, no edges, identical features) without NaNs or panics —
//! the partitioner does produce one- and two-service subproblems.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rasa_nn::{Gcn, GcnConfig, GraphInput, Matrix, Mlp, MlpConfig};

fn gcn() -> Gcn {
    let mut rng = StdRng::seed_from_u64(0);
    Gcn::new(GcnConfig::default(), &mut rng)
}

fn mlp() -> Mlp {
    let mut rng = StdRng::seed_from_u64(0);
    Mlp::new(MlpConfig::default(), &mut rng)
}

#[test]
fn single_node_graph() {
    let g = GraphInput::new(Matrix::from_rows(&[vec![1.0, 2.0]]), &[]);
    let logits = gcn().logits(&g);
    assert!(logits.iter().all(|l| l.is_finite()));
    let pred = gcn().predict(&g);
    assert!(pred < 2);
    assert!(mlp().logits(&g).iter().all(|l| l.is_finite()));
}

#[test]
fn edgeless_graph() {
    let feats = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 3.0], vec![0.5, 9.0]]);
    let g = GraphInput::new(feats, &[]);
    assert!(gcn().logits(&g).iter().all(|l| l.is_finite()));
}

#[test]
fn zero_features() {
    let feats = Matrix::zeros(4, 2);
    let g = GraphInput::new(feats, &[(0, 1, 1.0), (2, 3, 2.0)]);
    let logits = gcn().logits(&g);
    assert!(logits.iter().all(|l| l.is_finite()));
}

#[test]
fn huge_edge_weights_stay_finite() {
    let feats = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
    let g = GraphInput::new(feats, &[(0, 1, 1e12)]);
    // symmetric normalization divides by degree, so weights cancel
    assert!(gcn().logits(&g).iter().all(|l| l.is_finite()));
}

#[test]
fn training_on_degenerate_graphs_stays_finite() {
    let data = vec![
        (
            GraphInput::new(Matrix::from_rows(&[vec![1.0, 1.0]]), &[]),
            0,
        ),
        (
            GraphInput::new(Matrix::from_rows(&[vec![5.0, 5.0]]), &[]),
            1,
        ),
    ];
    let mut model = gcn();
    let history = model.train(&data, 50, 0.05);
    assert!(history.iter().all(|l| l.is_finite()));
    // tiny but learnable: features differ
    assert!(history.last().unwrap() <= &history[0]);
}

#[test]
fn predictions_are_deterministic() {
    let feats = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
    let g = GraphInput::new(feats, &[(0, 1, 1.5)]);
    let model = gcn();
    let first = model.predict_proba(&g);
    for _ in 0..3 {
        assert_eq!(model.predict_proba(&g), first);
    }
}
