//! The paper's GCN classifier (Section IV-D): two graph-convolution layers
//! with ReLU, a mean‖max graph readout, and a linear softmax head.
//! Backpropagation is hand-derived for this fixed architecture and verified
//! against finite differences in the test suite.

use crate::adam::Adam;
use crate::graph_input::GraphInput;
use crate::matrix::Matrix;
use crate::{cross_entropy, softmax};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GcnConfig {
    /// Node feature dimension (the paper uses 2: resource demand, d_s).
    pub input_dim: usize,
    /// Hidden width of both GCN layers.
    pub hidden_dim: usize,
    /// Number of output classes (2: CG vs MIP).
    pub num_classes: usize,
}

impl Default for GcnConfig {
    fn default() -> Self {
        GcnConfig {
            input_dim: 2,
            hidden_dim: 16,
            num_classes: 2,
        }
    }
}

/// A two-layer GCN graph classifier.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Gcn {
    /// Architecture.
    pub config: GcnConfig,
    w1: Matrix,
    b1: Vec<f64>,
    w2: Matrix,
    b2: Vec<f64>,
    w3: Matrix,
    b3: Vec<f64>,
}

struct Cache {
    m1: Matrix,
    z1: Matrix,
    m2: Matrix,
    z2: Matrix,
    h2: Matrix,
    readout: Vec<f64>,
    max_arg: Vec<usize>,
    logits: Vec<f64>,
}

/// Flat gradients, same layout as [`Gcn::pack`].
struct Grads {
    w1: Matrix,
    b1: Vec<f64>,
    w2: Matrix,
    b2: Vec<f64>,
    w3: Matrix,
    b3: Vec<f64>,
}

impl Gcn {
    /// Random (Xavier) initialization.
    pub fn new<R: Rng>(config: GcnConfig, rng: &mut R) -> Self {
        Gcn {
            config,
            w1: Matrix::xavier(config.input_dim, config.hidden_dim, rng),
            b1: vec![0.0; config.hidden_dim],
            w2: Matrix::xavier(config.hidden_dim, config.hidden_dim, rng),
            b2: vec![0.0; config.hidden_dim],
            w3: Matrix::xavier(2 * config.hidden_dim, config.num_classes, rng),
            b3: vec![0.0; config.num_classes],
        }
    }

    fn forward_cached(&self, g: &GraphInput) -> Cache {
        let m1 = g.adjacency.matmul(&g.features);
        let z1 = m1.matmul(&self.w1).add_row_bias(&self.b1);
        let h1 = z1.map(|v| v.max(0.0));
        let m2 = g.adjacency.matmul(&h1);
        let z2 = m2.matmul(&self.w2).add_row_bias(&self.b2);
        let h2 = z2.map(|v| v.max(0.0));
        let mean = h2.col_means();
        let (maxv, max_arg) = h2.col_max_argmax();
        let readout: Vec<f64> = mean.into_iter().chain(maxv).collect();
        let r = Matrix {
            rows: 1,
            cols: readout.len(),
            data: readout.clone(),
        };
        let logits_m = r.matmul(&self.w3).add_row_bias(&self.b3);
        Cache {
            m1,
            z1,
            m2,
            z2,
            h2,
            readout,
            max_arg,
            logits: logits_m.data,
        }
    }

    /// Class logits for a graph.
    pub fn logits(&self, g: &GraphInput) -> Vec<f64> {
        self.forward_cached(g).logits
    }

    /// Class probabilities.
    pub fn predict_proba(&self, g: &GraphInput) -> Vec<f64> {
        softmax(&self.logits(g))
    }

    /// Most likely class index.
    pub fn predict(&self, g: &GraphInput) -> usize {
        let p = self.logits(g);
        p.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap()
    }

    /// Cross-entropy loss on one example.
    pub fn loss(&self, g: &GraphInput, label: usize) -> f64 {
        cross_entropy(&softmax(&self.logits(g)), label)
    }

    fn backward(&self, g: &GraphInput, cache: &Cache, label: usize) -> Grads {
        let h = self.config.hidden_dim;
        let n = g.num_nodes().max(1);
        let probs = softmax(&cache.logits);
        let mut dlogits = probs;
        dlogits[label] -= 1.0;

        // head
        let r = Matrix {
            rows: 1,
            cols: cache.readout.len(),
            data: cache.readout.clone(),
        };
        let dlog_m = Matrix {
            rows: 1,
            cols: dlogits.len(),
            data: dlogits.clone(),
        };
        let dw3 = r.transpose().matmul(&dlog_m);
        let db3 = dlogits.clone();
        let dr = dlog_m.matmul(&self.w3.transpose()); // 1 × 2H

        // readout → dH2
        let mut dh2 = Matrix::zeros(cache.h2.rows, h);
        for c in 0..h {
            let dmean = dr.get(0, c) / n as f64;
            for rr in 0..cache.h2.rows {
                *dh2.get_mut(rr, c) += dmean;
            }
            let dmax = dr.get(0, h + c);
            if cache.h2.rows > 0 {
                *dh2.get_mut(cache.max_arg[c], c) += dmax;
            }
        }

        // layer 2
        let relu2 = cache.z2.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        let dz2 = dh2.hadamard(&relu2);
        let dw2 = cache.m2.transpose().matmul(&dz2);
        let db2 = dz2.col_sums();
        let dm2 = dz2.matmul(&self.w2.transpose());
        let dh1 = g.adjacency.matmul(&dm2); // Â symmetric

        // layer 1
        let relu1 = cache.z1.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        let dz1 = dh1.hadamard(&relu1);
        let dw1 = cache.m1.transpose().matmul(&dz1);
        let db1 = dz1.col_sums();

        Grads {
            w1: dw1,
            b1: db1,
            w2: dw2,
            b2: db2,
            w3: dw3,
            b3: db3,
        }
    }

    /// Check that every weight matrix and bias has the shape
    /// [`config`](Self::config) implies, as [`new`](Self::new) builds it.
    /// A model deserialized from a file may not, and would then panic in a
    /// matmul; `Err` names the first mismatch.
    pub fn check_shapes(&self) -> Result<(), String> {
        let GcnConfig {
            input_dim,
            hidden_dim: h,
            num_classes,
        } = self.config;
        let readout = h.checked_mul(2).ok_or("hidden_dim overflows")?;
        for (name, m, rows, cols) in [
            ("w1", &self.w1, input_dim, h),
            ("w2", &self.w2, h, h),
            ("w3", &self.w3, readout, num_classes),
        ] {
            if m.rows != rows || m.cols != cols || rows.checked_mul(cols) != Some(m.data.len()) {
                return Err(format!(
                    "{name} is {}×{} with {} values, config implies {rows}×{cols}",
                    m.rows,
                    m.cols,
                    m.data.len()
                ));
            }
        }
        for (name, b, len) in [
            ("b1", &self.b1, h),
            ("b2", &self.b2, h),
            ("b3", &self.b3, num_classes),
        ] {
            if b.len() != len {
                return Err(format!(
                    "{name} has {} values, config implies {len}",
                    b.len()
                ));
            }
        }
        Ok(())
    }

    /// Total number of parameters.
    pub fn num_params(&self) -> usize {
        self.w1.data.len()
            + self.b1.len()
            + self.w2.data.len()
            + self.b2.len()
            + self.w3.data.len()
            + self.b3.len()
    }

    /// Flatten parameters (layout: w1, b1, w2, b2, w3, b3).
    pub fn pack(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        out.extend(&self.w1.data);
        out.extend(&self.b1);
        out.extend(&self.w2.data);
        out.extend(&self.b2);
        out.extend(&self.w3.data);
        out.extend(&self.b3);
        out
    }

    /// Load parameters from a flat vector (inverse of [`pack`](Self::pack)).
    ///
    /// # Panics
    /// Panics if the length disagrees.
    pub fn unpack(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.num_params());
        let mut off = 0;
        let mut take = |dst: &mut [f64]| {
            dst.copy_from_slice(&flat[off..off + dst.len()]);
            off += dst.len();
        };
        take(&mut self.w1.data);
        take(&mut self.b1);
        take(&mut self.w2.data);
        take(&mut self.b2);
        take(&mut self.w3.data);
        take(&mut self.b3);
    }

    fn pack_grads(&self, g: &Grads) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        out.extend(&g.w1.data);
        out.extend(&g.b1);
        out.extend(&g.w2.data);
        out.extend(&g.b2);
        out.extend(&g.w3.data);
        out.extend(&g.b3);
        out
    }

    /// Train full-batch with Adam for `epochs`; returns the loss per epoch.
    pub fn train(&mut self, data: &[(GraphInput, usize)], epochs: usize, lr: f64) -> Vec<f64> {
        assert!(!data.is_empty(), "empty training set");
        let mut opt = Adam::new(self.num_params(), lr);
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut total_loss = 0.0;
            let mut grad_acc = vec![0.0; self.num_params()];
            for (g, label) in data {
                let cache = self.forward_cached(g);
                total_loss += cross_entropy(&softmax(&cache.logits), *label);
                let grads = self.backward(g, &cache, *label);
                for (acc, gv) in grad_acc.iter_mut().zip(self.pack_grads(&grads)) {
                    *acc += gv / data.len() as f64;
                }
            }
            let mut params = self.pack();
            opt.step(&mut params, &grad_acc);
            self.unpack(&params);
            history.push(total_loss / data.len() as f64);
        }
        history
    }

    /// Fraction of examples classified correctly.
    pub fn accuracy(&self, data: &[(GraphInput, usize)]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data
            .iter()
            .filter(|(g, label)| self.predict(g) == *label)
            .count();
        correct as f64 / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn star_graph(center_weighty: bool) -> GraphInput {
        // 5-node star; features distinguish the two classes
        let base = if center_weighty { 10.0 } else { 1.0 };
        let feats = Matrix::from_rows(&[
            vec![base, 4.0],
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![1.0, 2.0],
        ]);
        GraphInput::new(feats, &[(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)])
    }

    #[test]
    fn forward_produces_finite_logits() {
        let mut rng = StdRng::seed_from_u64(0);
        let gcn = Gcn::new(GcnConfig::default(), &mut rng);
        let logits = gcn.logits(&star_graph(true));
        assert_eq!(logits.len(), 2);
        assert!(logits.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn pack_unpack_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let gcn = Gcn::new(GcnConfig::default(), &mut rng);
        let flat = gcn.pack();
        let mut other = Gcn::new(GcnConfig::default(), &mut rng);
        other.unpack(&flat);
        assert_eq!(other.pack(), flat);
        assert_eq!(flat.len(), gcn.num_params());
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = GcnConfig {
            input_dim: 2,
            hidden_dim: 4,
            num_classes: 2,
        };
        let mut gcn = Gcn::new(cfg, &mut rng);
        let g = star_graph(true);
        let label = 1usize;

        let cache = gcn.forward_cached(&g);
        let grads = gcn.backward(&g, &cache, label);
        let analytic = gcn.pack_grads(&grads);

        let eps = 1e-6;
        let params = gcn.pack();
        let mut worst = 0.0f64;
        for i in (0..params.len()).step_by(3) {
            let mut plus = params.clone();
            plus[i] += eps;
            gcn.unpack(&plus);
            let lp = gcn.loss(&g, label);
            let mut minus = params.clone();
            minus[i] -= eps;
            gcn.unpack(&minus);
            let lm = gcn.loss(&g, label);
            let numeric = (lp - lm) / (2.0 * eps);
            let diff = (numeric - analytic[i]).abs();
            let scale = numeric.abs().max(analytic[i].abs()).max(1e-6);
            worst = worst.max(diff / scale);
        }
        gcn.unpack(&params);
        // max-readout kinks can make isolated coords off; overall must be tight
        assert!(worst < 1e-4, "worst relative gradient error {worst}");
    }

    #[test]
    fn learns_a_separable_graph_task() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut gcn = Gcn::new(
            GcnConfig {
                input_dim: 2,
                hidden_dim: 8,
                num_classes: 2,
            },
            &mut rng,
        );
        let data: Vec<(GraphInput, usize)> = (0..20)
            .map(|i| {
                let heavy = i % 2 == 0;
                (star_graph(heavy), usize::from(heavy))
            })
            .collect();
        gcn.train(&data, 300, 0.02);
        assert!(
            gcn.accuracy(&data) >= 0.95,
            "accuracy {}",
            gcn.accuracy(&data)
        );
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut gcn = Gcn::new(GcnConfig::default(), &mut rng);
        let data = vec![(star_graph(true), 1), (star_graph(false), 0)];
        let history = gcn.train(&data, 100, 0.05);
        assert!(history.last().unwrap() < &history[0]);
    }

    #[test]
    fn check_shapes_rejects_a_config_the_weights_do_not_match() {
        let mut rng = StdRng::seed_from_u64(13);
        let gcn = Gcn::new(GcnConfig::default(), &mut rng);
        assert_eq!(gcn.check_shapes(), Ok(()));
        let mut five = gcn.clone();
        five.config.num_classes = 5;
        assert!(five.check_shapes().unwrap_err().contains("w3"));
        let mut short = gcn;
        short.w2.data.pop();
        assert!(short.check_shapes().unwrap_err().contains("w2"));
    }

    #[test]
    fn serde_round_trip() {
        let mut rng = StdRng::seed_from_u64(11);
        let gcn = Gcn::new(GcnConfig::default(), &mut rng);
        let json = serde_json::to_string(&gcn).unwrap();
        let back: Gcn = serde_json::from_str(&json).unwrap();
        for (a, b) in back.pack().iter().zip(gcn.pack()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }
}
