//! Data-corruption chaos: seeded injectors that mangle problem data the
//! way real operational accidents do — NaN/Inf flips from broken metric
//! exporters, sign flips from unit bugs, dangling references from racy
//! snapshots, truncated JSON from interrupted writes, and cache entries
//! mutated after being stored — then drive the full pipeline and assert
//! the two-gate trust boundary holds:
//!
//! 1. **no panic** anywhere in partition/solve/combine (Gate 1 quarantines
//!    the poison before it reaches a solver);
//! 2. **no uncertified placement** is emitted (Gate 2 re-validates every
//!    output, including cache replays, against constraints (3)–(6) and the
//!    recomputed objective).
//!
//! A campaign is fully deterministic from its seed: same seed + same round
//! count → the identical corruption sequence, so any failure is replayable
//! with `chaos corruption <seed> <rounds>`.

use crate::chaos::SOLVE_BUDGET;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rasa_core::{certify_placement, Deadline, RasaPipeline, SolveCache};
use rasa_model::{
    AffinityEdge, AntiAffinityRule, MachineId, Problem, ProblemValidator, ResourceVec, ServiceId,
};
use rasa_trace::persist::{load_problem, save_problem, PersistError};
use rasa_trace::{generate, ClusterSpec};
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One family of data corruption the campaign can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptionKind {
    /// A service demand component becomes NaN.
    NanDemand,
    /// A service demand component becomes +Inf.
    InfDemand,
    /// A machine capacity component's sign is flipped.
    CapacitySignFlip,
    /// A machine capacity component becomes NaN.
    NonFiniteCapacity,
    /// An affinity edge points at a service id past the service table.
    DanglingEdge,
    /// An affinity edge weight becomes NaN.
    NonFiniteEdgeWeight,
    /// An anti-affinity rule's `h_k` drops to 0 while its members still
    /// demand placement (unsatisfiable).
    ZeroAntiAffinity,
    /// A priority weight becomes NaN.
    CorruptPriority,
    /// The problem artifact on disk is truncated mid-JSON.
    TruncatedArtifact,
    /// A [`SolveCache`] entry's claimed objective is mutated between
    /// rounds (the entry itself still holds a feasible placement).
    PoisonedCacheObjective,
    /// A [`SolveCache`] entry's placement is mutated between rounds to
    /// reference a machine outside the subproblem.
    PoisonedCachePlacement,
}

impl CorruptionKind {
    /// Every injector, in the order the campaign cycles through them.
    pub const ALL: [CorruptionKind; 11] = [
        CorruptionKind::NanDemand,
        CorruptionKind::InfDemand,
        CorruptionKind::CapacitySignFlip,
        CorruptionKind::NonFiniteCapacity,
        CorruptionKind::DanglingEdge,
        CorruptionKind::NonFiniteEdgeWeight,
        CorruptionKind::ZeroAntiAffinity,
        CorruptionKind::CorruptPriority,
        CorruptionKind::TruncatedArtifact,
        CorruptionKind::PoisonedCacheObjective,
        CorruptionKind::PoisonedCachePlacement,
    ];

    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            CorruptionKind::NanDemand => "nan_demand",
            CorruptionKind::InfDemand => "inf_demand",
            CorruptionKind::CapacitySignFlip => "capacity_sign_flip",
            CorruptionKind::NonFiniteCapacity => "non_finite_capacity",
            CorruptionKind::DanglingEdge => "dangling_edge",
            CorruptionKind::NonFiniteEdgeWeight => "non_finite_edge_weight",
            CorruptionKind::ZeroAntiAffinity => "zero_anti_affinity",
            CorruptionKind::CorruptPriority => "corrupt_priority",
            CorruptionKind::TruncatedArtifact => "truncated_artifact",
            CorruptionKind::PoisonedCacheObjective => "poisoned_cache_objective",
            CorruptionKind::PoisonedCachePlacement => "poisoned_cache_placement",
        }
    }
}

/// Mutate `problem` in place with one instance of `kind`, choosing the
/// target with `rng`. Only the in-memory corruption kinds apply here;
/// [`CorruptionKind::TruncatedArtifact`] and the cache poisonings are
/// staged by the campaign itself.
pub fn inject(problem: &mut Problem, kind: CorruptionKind, rng: &mut StdRng) {
    let ns = problem.num_services();
    let nm = problem.num_machines();
    match kind {
        CorruptionKind::NanDemand | CorruptionKind::InfDemand => {
            if ns == 0 {
                return;
            }
            let v = if kind == CorruptionKind::NanDemand {
                f64::NAN
            } else {
                f64::INFINITY
            };
            let s = rng.gen_range(0..ns);
            problem.services[s].demand = ResourceVec::new(v, 1.0, 0.0, 0.0);
        }
        CorruptionKind::CapacitySignFlip => {
            if nm == 0 {
                return;
            }
            let m = rng.gen_range(0..nm);
            let c = problem.machines[m].capacity;
            problem.machines[m].capacity =
                ResourceVec::new(-c.cpu(), c.memory(), c.network(), c.disk());
        }
        CorruptionKind::NonFiniteCapacity => {
            if nm == 0 {
                return;
            }
            let m = rng.gen_range(0..nm);
            let c = problem.machines[m].capacity;
            problem.machines[m].capacity =
                ResourceVec::new(f64::NAN, c.memory(), c.network(), c.disk());
        }
        CorruptionKind::DanglingEdge => {
            problem.affinity_edges.push(AffinityEdge {
                a: ServiceId(0),
                b: ServiceId(ns as u32 + 7),
                weight: 5.0,
            });
        }
        CorruptionKind::NonFiniteEdgeWeight => {
            if let Some(e) = problem.affinity_edges.first_mut() {
                e.weight = f64::NAN;
            } else if ns >= 2 {
                problem.affinity_edges.push(AffinityEdge {
                    a: ServiceId(0),
                    b: ServiceId(1),
                    weight: f64::NAN,
                });
            }
        }
        CorruptionKind::ZeroAntiAffinity => {
            if let Some(rule) = problem.anti_affinity.first_mut() {
                rule.max_per_machine = 0;
            } else if ns > 0 {
                problem.anti_affinity.push(AntiAffinityRule {
                    services: vec![ServiceId(0)],
                    max_per_machine: 0,
                });
            }
        }
        CorruptionKind::CorruptPriority => {
            if ns == 0 {
                return;
            }
            let s = rng.gen_range(0..ns);
            problem.services[s].priority_weight = f64::NAN;
        }
        CorruptionKind::TruncatedArtifact
        | CorruptionKind::PoisonedCacheObjective
        | CorruptionKind::PoisonedCachePlacement => {}
    }
}

/// What one campaign round observed.
#[derive(Clone, Debug, Serialize)]
pub struct CorruptionRound {
    /// Which injector ran.
    pub kind: &'static str,
    /// `true` when the pipeline (or loader) panicked — always a failure.
    pub panicked: bool,
    /// `true` when every placement the round emitted passed independent
    /// certification (vacuously true for rounds that emit none, e.g. a
    /// truncated artifact correctly rejected at load).
    pub certified: bool,
    /// Services + machines the admission gate quarantined this round.
    pub quarantined: usize,
    /// Free-form failure detail when the round was not clean.
    pub detail: Option<String>,
}

/// Aggregate result of [`run_corruption_campaign`].
#[derive(Clone, Debug, Serialize)]
pub struct CorruptionReport {
    /// One entry per round, in order.
    pub rounds: Vec<CorruptionRound>,
    /// Rounds that panicked (must be 0).
    pub panics: usize,
    /// Rounds that emitted a placement failing certification (must be 0).
    pub uncertified: usize,
}

impl CorruptionReport {
    /// `true` when no round panicked and every emitted placement certified.
    pub fn is_clean(&self) -> bool {
        self.panics == 0 && self.uncertified == 0
    }
}

/// Small, fast cluster spec for campaign rounds; all randomness still
/// derives from `seed`.
fn campaign_spec(seed: u64) -> ClusterSpec {
    ClusterSpec {
        name: "corruption".into(),
        services: 12,
        target_containers: 48,
        machines: 6,
        community_size: 4,
        group_rules: 1,
        seed,
        ..ClusterSpec::default()
    }
}

/// Certify `run`'s merged placement against the problem the pipeline
/// actually solved (post-admission). Returns an error string on failure.
fn certify_run(problem: &Problem, run: &rasa_core::RasaRun) -> Result<(), String> {
    let (repaired, _) = ProblemValidator::new().admit(problem);
    let effective = repaired.as_ref().unwrap_or(problem);
    certify_placement(
        effective,
        &run.outcome.placement,
        run.outcome.gained_affinity,
        false,
        "campaign",
    )
    .map(|_| ())
    .map_err(|e| e.to_string())
}

/// Run one corruption round; returns `(certified, quarantined, detail)`.
fn run_round(kind: CorruptionKind, seed: u64) -> (bool, usize, Option<String>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let problem = generate(&campaign_spec(seed));
    let pipeline = RasaPipeline::default();
    match kind {
        CorruptionKind::TruncatedArtifact => {
            // interrupted write: save, truncate at a random byte, reload —
            // the loader must fail with a typed, positioned error
            let dir = std::env::temp_dir().join("rasa_corruption_campaign");
            if let Err(e) = std::fs::create_dir_all(&dir) {
                return (false, 0, Some(format!("temp dir: {e}")));
            }
            let path = dir.join(format!("artifact_{seed}.json"));
            if let Err(e) = save_problem(&problem, &path) {
                return (false, 0, Some(format!("save: {e}")));
            }
            let json = match std::fs::read_to_string(&path) {
                Ok(j) => j,
                Err(e) => return (false, 0, Some(format!("read back: {e}"))),
            };
            let cut = rng.gen_range(1..json.len());
            if let Err(e) = std::fs::write(&path, &json[..cut]) {
                return (false, 0, Some(format!("truncate: {e}")));
            }
            let result = load_problem(&path);
            std::fs::remove_file(&path).ok();
            match result {
                Err(PersistError::Parse { .. }) => (true, 0, None),
                Err(other) => (false, 0, Some(format!("wrong error class: {other}"))),
                // a lucky cut can land exactly on a JSON boundary; the
                // loaded prefix must then still pass admission + certify
                Ok(p) => {
                    let run = pipeline.optimize(&p, None, Deadline::after(SOLVE_BUDGET));
                    match certify_run(&p, &run) {
                        Ok(()) => (true, 0, None),
                        Err(e) => (false, 0, Some(e)),
                    }
                }
            }
        }
        CorruptionKind::PoisonedCacheObjective | CorruptionKind::PoisonedCachePlacement => {
            // cold round populates the cache, then the entries are mutated
            // in place — Gate 2 must reject every poisoned replay
            let cache = SolveCache::new();
            let cold = pipeline.optimize_with_cache(
                &problem,
                None,
                Deadline::after(SOLVE_BUDGET),
                Some(&cache),
            );
            if let Err(e) = certify_run(&problem, &cold) {
                return (false, 0, Some(format!("cold round: {e}")));
            }
            for fp in cache.fingerprints() {
                let mut entry = match cache.lookup(fp) {
                    Some(e) => e,
                    None => continue,
                };
                if kind == CorruptionKind::PoisonedCacheObjective {
                    entry.gained_affinity += 10.0 + rng.gen_range(0.0..90.0);
                } else {
                    entry.placement.add(ServiceId(0), MachineId(9999), 1);
                }
                cache.store(fp, entry);
            }
            let warm = pipeline.optimize_with_cache(
                &problem,
                None,
                Deadline::after(SOLVE_BUDGET),
                Some(&cache),
            );
            if let Some(stats) = &warm.cache {
                if !cache.is_empty() && stats.hits > 0 && stats.misses == 0 {
                    // with every entry poisoned, at least one rejection
                    // (counted as a miss) must have happened
                    return (
                        false,
                        0,
                        Some("poisoned entries replayed as hits".to_string()),
                    );
                }
            }
            match certify_run(&problem, &warm) {
                Ok(()) => (true, 0, None),
                Err(e) => (false, 0, Some(format!("warm round: {e}"))),
            }
        }
        _ => {
            let mut corrupted = problem;
            inject(&mut corrupted, kind, &mut rng);
            let run = pipeline.optimize(&corrupted, None, Deadline::after(SOLVE_BUDGET));
            let quarantined = run
                .admission
                .as_ref()
                .map(|r| r.quarantined_services.len() + r.quarantined_machines.len())
                .unwrap_or(0);
            match certify_run(&corrupted, &run) {
                Ok(()) => (true, quarantined, None),
                Err(e) => (false, quarantined, Some(e)),
            }
        }
    }
}

/// Run `rounds` corruption rounds seeded from `seed`, cycling through
/// every [`CorruptionKind`]. Each round is wrapped in `catch_unwind`, so
/// a panic anywhere inside the trust boundary is recorded (and fails the
/// campaign) instead of aborting it.
pub fn run_corruption_campaign(seed: u64, rounds: usize) -> CorruptionReport {
    let mut out = Vec::with_capacity(rounds);
    let mut panics = 0usize;
    let mut uncertified = 0usize;
    for round in 0..rounds {
        let kind = CorruptionKind::ALL[round % CorruptionKind::ALL.len()];
        let round_seed = seed.wrapping_mul(1_000_003).wrapping_add(round as u64);
        let result = catch_unwind(AssertUnwindSafe(|| run_round(kind, round_seed)));
        let r = match result {
            Ok((certified, quarantined, detail)) => {
                if !certified {
                    uncertified += 1;
                }
                CorruptionRound {
                    kind: kind.label(),
                    panicked: false,
                    certified,
                    quarantined,
                    detail,
                }
            }
            Err(payload) => {
                panics += 1;
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                CorruptionRound {
                    kind: kind.label(),
                    panicked: true,
                    certified: false,
                    quarantined: 0,
                    detail: Some(format!("panicked: {msg}")),
                }
            }
        };
        out.push(r);
    }
    CorruptionReport {
        rounds: out,
        panics,
        uncertified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_injector_produces_an_inadmissible_problem() {
        // the in-memory kinds must actually corrupt: the validator sees a
        // dirty problem after injection
        let mut rng = StdRng::seed_from_u64(3);
        for kind in CorruptionKind::ALL {
            if matches!(
                kind,
                CorruptionKind::TruncatedArtifact
                    | CorruptionKind::PoisonedCacheObjective
                    | CorruptionKind::PoisonedCachePlacement
            ) {
                continue;
            }
            let mut p = generate(&campaign_spec(11));
            inject(&mut p, kind, &mut rng);
            let report = ProblemValidator::new().audit(&p);
            assert!(
                !report.is_clean(),
                "{}: injector left the problem admissible",
                kind.label()
            );
        }
    }

    #[test]
    fn short_campaign_is_clean() {
        // one full cycle through every injector
        let report = run_corruption_campaign(17, CorruptionKind::ALL.len());
        assert_eq!(report.rounds.len(), CorruptionKind::ALL.len());
        assert!(
            report.is_clean(),
            "dirty rounds: {:?}",
            report
                .rounds
                .iter()
                .filter(|r| r.panicked || !r.certified)
                .collect::<Vec<_>>()
        );
        // the demand/capacity injectors must have exercised quarantine
        assert!(
            report.rounds.iter().any(|r| r.quarantined > 0),
            "no round quarantined anything"
        );
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run_corruption_campaign(5, 4);
        let b = run_corruption_campaign(5, 4);
        for (x, y) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.certified, y.certified);
            assert_eq!(x.quarantined, y.quarantined);
        }
    }
}
