//! Whole-solve kernel cost probe: sparse LU path vs the dense reference
//! on the two LP shapes the pipeline actually solves in bulk (tiny
//! knapsack-relaxation pricing LPs and CG master LPs), cold and
//! warm-started. The per-layer timings of `benchmark/` cover the LP layer
//! inside whole solves; this probe isolates the LU path.
//!
//! Ignored by default — it prints timings rather than asserting. Run on a
//! quiet machine with:
//!
//! ```sh
//! cargo test --release -p rasa-lp --test perf_probe -- --ignored --nocapture
//! ```

use rasa_lp::time::Deadline;
use rasa_lp::{LpModel, SimplexOptions};
use std::time::Instant;

fn cg_master_like(n_patterns: usize, rows: usize, seed: u64) -> LpModel {
    let mut m = LpModel::new();
    let mut s = seed;
    let mut rnd = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f64) / (u32::MAX as f64)
    };
    let vars: Vec<_> = (0..n_patterns)
        .map(|_| m.add_var(0.0, 1.0, 1.0 + rnd() * 4.0))
        .collect();
    for r in 0..rows {
        let mut entries = Vec::new();
        for (j, &v) in vars.iter().enumerate() {
            let p = rnd();
            if (j + r) % (rows / 2 + 1) == 0 || p < 0.08 {
                entries.push((v, 0.5 + rnd()));
            }
        }
        m.add_row_le(entries, 2.0 + rnd() * 6.0);
    }
    m
}

fn knapsack_like(n: usize, seed: u64) -> LpModel {
    let mut m = LpModel::new();
    let mut s = seed;
    let mut rnd = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f64) / (u32::MAX as f64)
    };
    let vars: Vec<_> = (0..n)
        .map(|_| m.add_var(0.0, 1.0, 10.0 + rnd() * 80.0))
        .collect();
    m.add_row_le(
        vars.iter()
            .map(|&v| (v, 10.0 + rnd() * 70.0))
            .collect::<Vec<_>>(),
        (n as f64) * 15.0,
    );
    m
}

#[test]
#[ignore]
fn probe() {
    let opts = SimplexOptions::default();
    for (name, model) in [
        ("knapsack_16x1", knapsack_like(16, 7)),
        ("master_200x12", cg_master_like(200, 12, 9)),
        ("master_800x24", cg_master_like(800, 24, 11)),
    ] {
        // cold
        let reps = 300;
        let t0 = Instant::now();
        let mut sparse_obj = 0.0;
        for _ in 0..reps {
            let sol = model.solve_with(&opts, Deadline::none());
            sparse_obj = sol.objective;
        }
        let sparse_cold = t0.elapsed().as_secs_f64() / reps as f64;
        let t0 = Instant::now();
        let mut dense_obj = 0.0;
        for _ in 0..reps {
            let sol = rasa_lp::dense::solve_dense(&model, &opts, Deadline::none(), None);
            dense_obj = sol.objective;
        }
        let dense_cold = t0.elapsed().as_secs_f64() / reps as f64;

        // warm re-solve from own basis
        let sb = model.solve_with(&opts, Deadline::none()).basis.unwrap();
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = model.solve_warm(&opts, Deadline::none(), Some(&sb));
        }
        let sparse_warm = t0.elapsed().as_secs_f64() / reps as f64;
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = rasa_lp::dense::solve_dense(&model, &opts, Deadline::none(), Some(&sb));
        }
        let dense_warm = t0.elapsed().as_secs_f64() / reps as f64;
        let s1 = model.solve_with(&opts, Deadline::none());
        println!(
            "{name:15} cold sparse {:8.1}us dense {:8.1}us ({:.2}x) | warm sparse {:8.1}us dense {:8.1}us ({:.2}x) | iters {} obj d {:.2e}",
            sparse_cold * 1e6,
            dense_cold * 1e6,
            sparse_cold / dense_cold,
            sparse_warm * 1e6,
            dense_warm * 1e6,
            sparse_warm / dense_warm,
            s1.stats.phase2_iterations + s1.stats.phase1_iterations,
            (sparse_obj - dense_obj).abs()
        );
    }
}
