//! # rasa-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (Section V) and the `pipeline` runtime-vs-quality
//! experiment over the M-ratio ladder. See DESIGN.md §5 for the full
//! experiment index and EXPERIMENTS.md for recorded paper-vs-measured
//! outcomes. The repository's benchmark, per-layer timings included, lives
//! in `benchmark/`, not here.
//!
//! All binaries honor two environment variables:
//!
//! * `RASA_SCALE` — `small` (default: quick, minutes-total runs on reduced
//!   clusters), the bench ladder `medium` / `large` / `xl` (rungs that
//!   grow toward the paper's M1–M4 container:machine ratios, see
//!   `rasa_trace` ladder specs), or `full` (the S1–S4 clusters of
//!   DESIGN.md §6);
//! * `RASA_TIMEOUT_SECS` — per-algorithm time-out (default 10, the scaled
//!   analogue of the paper's one minute).

use rasa_model::Problem;
use rasa_trace::{generate, s_clusters, ClusterSpec};
use std::time::Duration;

/// Experiment scale selected via `RASA_SCALE`. Ordered smallest to
/// largest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Scale {
    /// Reduced clusters; minutes-total runtime. The CI smoke scale.
    Small,
    /// First ladder rung: half-scale S1/S3 analogues (M1/20, M3/2).
    Medium,
    /// Second ladder rung: the S1 + S3 pair (M1/10, M3 at full size).
    Large,
    /// Top ladder rung: the S2 + S4 pair (M2/10, M4/10), approaching the
    /// paper's M-clusters.
    Xl,
    /// The complete S1–S4 analogues of Table II (DESIGN.md §6).
    Full,
}

impl Scale {
    /// Parse a scale name as used by `RASA_SCALE` (case-insensitive).
    /// Unknown names return `None` so callers can distinguish "unset" from
    /// "typo".
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "large" => Some(Scale::Large),
            "xl" => Some(Scale::Xl),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The canonical lowercase name, used for per-scale cache and
    /// artifact file names.
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
            Scale::Xl => "xl",
            Scale::Full => "full",
        }
    }
}

/// Read `RASA_SCALE` (default `small`; unknown values also fall back to
/// `small`, matching the historical behavior).
pub fn scale() -> Scale {
    std::env::var("RASA_SCALE")
        .ok()
        .and_then(|s| Scale::parse(&s))
        .unwrap_or(Scale::Small)
}

/// Read `RASA_TIMEOUT_SECS` (default 10).
pub fn timeout() -> Duration {
    timeout_for(Scale::Small)
}

/// Per-run solver budget: `RASA_TIMEOUT_SECS` when set, else a
/// scale-aware default. The paper gives its M-clusters a one-minute
/// budget; the historical 10 s default is the 1/10-scale analogue, and
/// the ladder rungs step the default back up toward the paper's as the
/// clusters grow. `full` keeps 10 s (the S-clusters are 1/10 scale).
pub fn timeout_for(sc: Scale) -> Duration {
    let default_secs = match sc {
        Scale::Small | Scale::Full => 10,
        Scale::Medium => 20,
        Scale::Large => 30,
        Scale::Xl => 60,
    };
    let secs = std::env::var("RASA_TIMEOUT_SECS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(default_secs);
    Duration::from_secs(secs)
}

/// The evaluation clusters for the selected scale, generated and named.
///
/// `Small` and `Medium` shrink every S-cluster by a common divisor (4 and
/// 2 respectively), preserving the container:machine ratios; `Large`,
/// `Xl`, and `Full` use the S-clusters as committed.
pub fn evaluation_clusters() -> Vec<(String, Problem)> {
    let divisor = match scale() {
        Scale::Small => 4,
        Scale::Medium => 2,
        Scale::Large | Scale::Xl | Scale::Full => 1,
    };
    let specs: Vec<ClusterSpec> = s_clusters()
        .into_iter()
        .map(|spec| ClusterSpec {
            services: spec.services / divisor as usize,
            target_containers: spec.target_containers / divisor,
            machines: spec.machines / divisor as usize,
            ..spec
        })
        .collect();
    specs
        .into_iter()
        .map(|spec| (spec.name.clone(), generate(&spec)))
        .collect()
}

/// Print a fixed-width table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line = |cells: Vec<String>| {
        let parts: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", parts.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Write a JSON artifact under `target/experiments/` for plotting.
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(value) {
        if std::fs::write(&path, json).is_ok() {
            eprintln!("[artifact] {}", path.display());
        }
    }
}

/// Print one line per paper-shape check — `shape check: <claim> →
/// REPRODUCED` or `→ NOT reproduced` — and exit 1 when any failed. Each
/// claim spells out its tolerance, which the calling bin names as a
/// constant. Call it last, after the artifacts are saved.
pub fn report_shape_checks(checks: &[(String, bool)]) {
    println!();
    for (claim, ok) in checks {
        let verdict = if *ok { "REPRODUCED" } else { "NOT reproduced" };
        println!("shape check: {claim} → {verdict}");
    }
    if checks.iter().any(|(_, ok)| !ok) {
        eprintln!("FAIL: a paper-shape check was not reproduced");
        std::process::exit(1);
    }
}

/// Format a normalized value as a percentage string.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

/// Format seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_small() {
        // (can't mutate the environment safely in parallel tests; just
        // check the default path parses)
        if std::env::var("RASA_SCALE").is_err() {
            assert_eq!(scale(), Scale::Small);
        }
    }

    #[test]
    fn small_clusters_generate_quickly() {
        let clusters = evaluation_clusters();
        assert_eq!(clusters.len(), 4);
        for (name, p) in &clusters {
            assert!(p.num_services() > 0, "{name}");
            assert!(!p.affinity_edges.is_empty(), "{name}");
        }
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.3%");
    }

    #[test]
    fn scale_names_round_trip() {
        for s in [
            Scale::Small,
            Scale::Medium,
            Scale::Large,
            Scale::Xl,
            Scale::Full,
        ] {
            assert_eq!(Scale::parse(s.as_str()), Some(s));
        }
        assert_eq!(Scale::parse("XL"), Some(Scale::Xl));
        assert_eq!(Scale::parse("FULL"), Some(Scale::Full));
        assert_eq!(Scale::parse("gigantic"), None);
    }

    #[test]
    fn ladder_is_ordered_by_size() {
        assert!(Scale::Small < Scale::Medium);
        assert!(Scale::Medium < Scale::Large);
        assert!(Scale::Large < Scale::Xl);
        assert!(Scale::Xl < Scale::Full);
    }
}

pub mod production;

/// How many T-cluster subproblems to label (and the per-label race
/// budget) when training the learned selectors at the current scale.
/// Ladder rungs interpolate between the `small` and `full` settings.
pub fn labelling_budget() -> (usize, Duration) {
    match scale() {
        Scale::Small => (40, Duration::from_millis(800)),
        Scale::Medium => (60, Duration::from_secs(1)),
        Scale::Large => (90, Duration::from_millis(1_500)),
        Scale::Xl | Scale::Full => (120, Duration::from_secs(2)),
    }
}

/// Train (or load from the `target/experiments` cache) the GCN selector
/// used by the RASA pipeline in the experiment binaries — the paper's
/// deployed configuration (Section IV-D). Training follows Fig 8's
/// pipeline: label T-cluster subproblems by racing CG vs MIP, then fit the
/// classifier. The cache keys on scale so `small` and `full` runs don't
/// share a model.
pub fn trained_gcn_selector() -> rasa_select::GcnSelector {
    let cache = std::path::PathBuf::from(format!(
        "target/experiments/gcn_selector_{}.json",
        scale().as_str()
    ));
    if let Ok(cached) = rasa_select::training::load_gcn(&cache) {
        eprintln!(
            "[train] loaded cached GCN selector from {}",
            cache.display()
        );
        return cached;
    }
    let (label_limit, label_budget) = labelling_budget();
    eprintln!("[train] labelling ≤{label_limit} T-cluster subproblems for the GCN selector…");
    let train_problems: Vec<Problem> = rasa_trace::t_clusters(900)
        .iter()
        .map(rasa_trace::generate)
        .collect();
    let data = rasa_core::generate_training_set(&train_problems, label_limit, label_budget, 7);
    let (gcn, report) = rasa_select::train_gcn(&data, 300, 0.02, 42);
    eprintln!(
        "[train] {} examples, GCN train accuracy {:.0}%",
        data.len(),
        100.0 * report.train_accuracy
    );
    let _ = std::fs::create_dir_all("target/experiments");
    let _ = rasa_select::training::save_gcn(&gcn, &cache);
    gcn
}
