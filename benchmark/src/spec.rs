//! The benchmark's contract: workloads, metric names, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root states the
//! same contract for the driver; a test keeps the two identical.

use serde::{Deserialize, Serialize};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may get worse; per-layer metrics have none.
#[derive(Clone, Copy, Debug)]
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// The four workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "cold-solve",
        "Time to a certified all-ok solution from an empty cache; lp, mip and solver do nearly all the work, run to optimality.",
    ),
    (
        "budget-bound",
        "The anytime regime: one subproblem cannot finish inside the deadline, so incumbents and bounds under truncation decide quality; the warm round re-burns the miss.",
    ),
    (
        "churn",
        "Incremental re-solve in a library session: one delta dirties one subproblem; fingerprints, cache replay and column-pool seeding do the work.",
    ),
    (
        "serve-warm",
        "The daemon's request path over real sockets on all-hit rounds: http, queue, accept loop, wal, admission and certify; the solver does nearly nothing.",
    ),
];

use Better::{Higher, Lower};

/// What a caller of the system sees, reported by every workload.
pub const END_TO_END: &[MetricDecl] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("round_s_p50", "s", Lower, 0.25),
    e2e("warm_round_s", "s", Lower, 0.25),
    e2e("rounds_per_s", "1/s", Higher, 0.25),
    e2e("gained_affinity", "ratio", Higher, 0.01),
    e2e("placed_share", "ratio", Higher, 0.01),
    e2e("ok_share", "ratio", Higher, 0.01),
    e2e("peak_rss_mb", "MiB", Lower, 0.20),
];

/// Single layers (layer = crate, the name's prefix), measured from outside
/// by timing calls into public functions, plus the traced pass's own
/// numbers (`counts.*`, `tail.*`, `process.*`, `trace.*`).
pub const PER_LAYER: &[MetricDecl] = &[
    layer("trace.generate_s", "s", Lower),
    layer("model.admit_s", "s", Lower),
    layer("model.validate_s", "s", Lower),
    layer("model.objective_s", "s", Lower),
    layer("graph.build_s", "s", Lower),
    layer("graph.multilevel_s", "s", Lower),
    layer("partition.multi_stage_s", "s", Lower),
    layer("partition.subproblems", "count", Lower),
    layer("partition.loss_share", "ratio", Lower),
    layer("partition.fingerprint_s", "s", Lower),
    layer("partition.compute_delta_s", "s", Lower),
    layer("select.features_s", "s", Lower),
    layer("select.predict_s", "s", Lower),
    layer("select.cg_share", "ratio", Higher),
    layer("lp.solve_s", "s", Lower),
    layer("lp.pivots", "count", Lower),
    layer("lp.pivots_per_s", "1/s", Higher),
    layer("lp.warm_solve_s", "s", Lower),
    layer("lp.warm_pivots", "count", Lower),
    layer("lp.factorize_s", "s", Lower),
    layer("lp.lu_nnz", "count", Lower),
    layer("lp.ftran_s", "s", Lower),
    layer("lp.btran_s", "s", Lower),
    layer("lp.eta_push_s", "s", Lower),
    layer("lp.pricing_select_s", "s", Lower),
    layer("mip.solve_s", "s", Lower),
    layer("mip.nodes", "count", Lower),
    layer("mip.nodes_per_s", "1/s", Higher),
    layer("mip.pivots_per_node", "count", Lower),
    layer("mip.gap_at_cap", "ratio", Lower),
    layer("solver.formulation_s", "s", Lower),
    layer("solver.mip_based_s", "s", Lower),
    layer("solver.cg_s", "s", Lower),
    layer("solver.cg_rounds", "count", Lower),
    layer("solver.cg_patterns", "count", Lower),
    layer("solver.cg_warm_s", "s", Lower),
    layer("solver.pop_s", "s", Lower),
    layer("solver.greedy_s", "s", Lower),
    layer("solver.complete_s", "s", Lower),
    layer("solver.mip_based_affinity", "ratio", Higher),
    layer("solver.cg_affinity", "ratio", Higher),
    layer("solver.pop_affinity", "ratio", Higher),
    layer("solver.greedy_affinity", "ratio", Higher),
    layer("core.guarded_s", "s", Lower),
    layer("core.certify_s", "s", Lower),
    layer("core.replay_round_s", "s", Lower),
    layer("core.cache_hit_share", "ratio", Higher),
    layer("core.delta_plan_s", "s", Lower),
    layer("core.apply_delta_s", "s", Lower),
    layer("core.restore_s", "s", Lower),
    layer("migrate.plan_s", "s", Lower),
    layer("migrate.steps", "count", Lower),
    layer("migrate.replay_s", "s", Lower),
    layer("serve.json_decode_s", "s", Lower),
    layer("serve.json_encode_s", "s", Lower),
    layer("serve.connect_s", "s", Lower),
    layer("serve.healthz_s", "s", Lower),
    layer("serve.delta_s", "s", Lower),
    layer("serve.read_s", "s", Lower),
    layer("serve.queue_push_pop_s", "s", Lower),
    layer("serve.wal_append_nosync_s", "s", Lower),
    layer("serve.wal_append_sync_s", "s", Lower),
    layer("serve.wal_record_bytes", "bytes", Lower),
    layer("serve.wal_checkpoint_s", "s", Lower),
    layer("serve.wal_recover_s", "s", Lower),
    layer("serve.wal_records_replayed", "count", Lower),
    layer("serve.rejected_429_share", "ratio", Lower),
    layer("obs.span_s", "s", Lower),
    layer("obs.counter_inc_s", "s", Lower),
    layer("obs.snapshot_s", "s", Lower),
    layer("counts.simplex.pivots", "count", Lower),
    layer("counts.simplex.solves", "count", Lower),
    layer("counts.simplex.warm_accepted", "count", Higher),
    layer("counts.bnb.nodes", "count", Lower),
    layer("counts.cg.rounds", "count", Lower),
    layer("counts.cg.pricing_solves", "count", Lower),
    layer("counts.cache.sub_hits", "count", Higher),
    layer("counts.cache.sub_misses", "count", Lower),
    layer("counts.work_repeat", "bool", Higher),
    layer("tail.round_s", "s", Lower),
    layer("tail.percentile", "count", Higher),
    layer("tail.samples", "count", Higher),
    layer("process.cpu_s_per_round", "s", Lower),
    layer("trace.coverage_share", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// The obs counters read around every round, reported as `counts.<name>`.
pub const BOUNDARY_COUNTERS: &[&str] = &[
    "simplex.pivots",
    "simplex.solves",
    "simplex.warm_accepted",
    "bnb.nodes",
    "cg.rounds",
    "cg.pricing_solves",
    "cache.sub_hits",
    "cache.sub_misses",
];

pub fn find_decl(name: &str) -> Option<&'static MetricDecl> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// `BENCHMARK.json`, as far as the benchmark itself reads it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchmarkFile {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadEntry>,
    pub end_to_end: Vec<BoundedEntry>,
    pub per_layer: Vec<LayerEntry>,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadEntry {
    pub name: String,
    pub why: String,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BoundedEntry {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LayerEntry {
    pub name: String,
    pub unit: String,
    pub better: String,
}

impl BenchmarkFile {
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Metric and workload names: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a
    /// letter or a digit.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name));
        for name in names {
            assert!(valid_name(name), "invalid name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
    }

    #[test]
    fn name_validity_rules() {
        assert!(valid_name("round_s_p50"));
        assert!(valid_name("counts.simplex.pivots"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/y"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn contract_limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for d in END_TO_END {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        }
        let setup = find_decl("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    /// `BENCHMARK.json` and the names this binary prints must agree.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let file = BenchmarkFile::load(&path).expect("BENCHMARK.json parses");
        assert_eq!(file.run_seconds, RUN_SECONDS);
        assert_eq!(file.paths, vec!["benchmark".to_string()]);
        let workloads: Vec<(&str, &str)> = file
            .workloads
            .iter()
            .map(|w| (w.name.as_str(), w.why.as_str()))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(file.end_to_end.len(), END_TO_END.len());
        for (entry, decl) in file.end_to_end.iter().zip(END_TO_END) {
            assert_eq!(entry.name, decl.name);
            assert_eq!(entry.unit, decl.unit, "{}", decl.name);
            assert_eq!(entry.better, decl.better.label(), "{}", decl.name);
            assert_eq!(Some(entry.bound), decl.bound, "{}", decl.name);
        }
        assert_eq!(file.per_layer.len(), PER_LAYER.len());
        for (entry, decl) in file.per_layer.iter().zip(PER_LAYER) {
            assert_eq!(entry.name, decl.name);
            assert_eq!(entry.unit, decl.unit, "{}", decl.name);
            assert_eq!(entry.better, decl.better.label(), "{}", decl.name);
        }
    }
}
