//! Delta-driven re-solve sessions: the reusable library entry points the
//! long-running allocation daemon (`rasa-serve`) is built on.
//!
//! A [`AllocationSession`] owns one tenant's view of the world: the current
//! (admitted) [`Problem`], a cross-round [`SolveCache`] for warm re-solves,
//! and the last *certified* placement. Clients feed it full snapshots
//! ([`AllocationSession::apply_snapshot`]) or incremental deltas
//! ([`AllocationSession::apply_delta`]), then ask for a re-solve
//! ([`AllocationSession::resolve`]). Every inbound problem passes the
//! `ProblemValidator` admission gate (Gate 1), and nothing is ever published
//! without passing [`certify_placement`] (Gate 2): a round whose merged
//! placement fails certification leaves the previously published placement
//! untouched and returns [`SessionError::Uncertified`].

use crate::certify::{certify_placement, CertificationFailure};
use crate::pipeline::{RasaConfig, RasaPipeline, RasaRun};
use crate::solve_cache::SolveCache;
use rand::{rngs::StdRng, SeedableRng};
use rasa_lp::Deadline;
use rasa_model::{AdmissionReport, AffinityEdge, Placement, Problem, ProblemValidator, ServiceId};
use rasa_partition::{compute_delta, partition_with_strategy};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// One affinity-edge weight change: upsert the `a`–`b` edge to `weight`,
/// or remove it when `weight <= 0` (the paper's telemetry loop re-measures
/// pairwise traffic each round; weights dropping to zero mean the pair
/// stopped talking).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EdgeUpdate {
    /// One endpoint (dense service index).
    pub a: u32,
    /// The other endpoint (dense service index).
    pub b: u32,
    /// New traffic weight; `<= 0` removes the edge.
    pub weight: f64,
}

/// Replica-count change for one service (SLA scaling event).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ReplicaUpdate {
    /// Dense service index.
    pub service: u32,
    /// New required replica count `d_s`.
    pub replicas: u32,
}

/// An incremental change to a tenant's cluster snapshot. Deltas are the
/// normal steady-state input: re-measured affinity weights and replica
/// scaling, small against a large standing problem, which is exactly the
/// regime where fingerprint-based cache replay makes re-solves warm.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SnapshotDelta {
    /// Affinity-edge upserts/removals.
    pub edge_updates: Vec<EdgeUpdate>,
    /// Replica-count changes.
    pub replica_updates: Vec<ReplicaUpdate>,
}

impl SnapshotDelta {
    /// `true` when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.edge_updates.is_empty() && self.replica_updates.is_empty()
    }
}

/// Why a session operation was refused. Structural refusals
/// ([`SessionError::UnknownService`], …) are client errors — the session's
/// state is unchanged; [`SessionError::Uncertified`] means the solve ran
/// but its result was blocked at the publish gate.
#[derive(Debug)]
pub enum SessionError {
    /// No snapshot has been applied yet; deltas and re-solves need one.
    NoSnapshot,
    /// A delta referenced a service index outside the current snapshot.
    UnknownService {
        /// The out-of-range index.
        service: u32,
    },
    /// A delta tried to create a self-affinity edge (`a == b`).
    SelfEdge {
        /// The offending service index.
        service: u32,
    },
    /// A delta carried a NaN/infinite edge weight.
    NonFiniteWeight {
        /// One endpoint of the offending edge.
        a: u32,
        /// The other endpoint.
        b: u32,
    },
    /// The round's merged placement failed certification and was not
    /// published; the last certified placement is still in effect.
    Uncertified(CertificationFailure),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::NoSnapshot => write!(f, "no snapshot applied yet"),
            SessionError::UnknownService { service } => {
                write!(f, "delta references unknown service index {service}")
            }
            SessionError::SelfEdge { service } => {
                write!(f, "delta creates a self-affinity edge on service {service}")
            }
            SessionError::NonFiniteWeight { a, b } => {
                write!(f, "delta carries a non-finite weight on edge {a}-{b}")
            }
            SessionError::Uncertified(failure) => {
                write!(f, "round blocked at publish gate: {failure}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// What an incoming delta implies for the next re-solve, computed by
/// partitioning the updated problem and diffing subproblem fingerprints
/// against the warm cache ([`compute_delta`]).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct DeltaPlan {
    /// Subproblems whose fingerprint matches a cached solve: replayed.
    pub unchanged: usize,
    /// Subproblems with no cached counterpart: must be re-solved.
    pub dirty: usize,
    /// Cached entries no current subproblem references: stale.
    pub invalidated: usize,
}

/// Apply `delta` to `base` and re-admit the result, without touching any
/// session state: the one delta path shared by
/// [`AllocationSession::apply_delta`] and journal replay (`rasa-serve`'s
/// write-ahead log re-applies journaled deltas through exactly this
/// function on recovery). Structural errors reject the whole delta
/// atomically; an accepted delta returns the admission gate's repaired
/// problem and its report.
pub fn apply_delta_to_problem(
    base: &Problem,
    delta: &SnapshotDelta,
) -> Result<(Problem, AdmissionReport), SessionError> {
    let num_services = base.num_services() as u32;
    for up in &delta.edge_updates {
        if up.a == up.b {
            return Err(SessionError::SelfEdge { service: up.a });
        }
        if !up.weight.is_finite() {
            return Err(SessionError::NonFiniteWeight { a: up.a, b: up.b });
        }
        for id in [up.a, up.b] {
            if id >= num_services {
                return Err(SessionError::UnknownService { service: id });
            }
        }
    }
    for up in &delta.replica_updates {
        if up.service >= num_services {
            return Err(SessionError::UnknownService {
                service: up.service,
            });
        }
    }

    let mut next = base.clone();
    for up in &delta.edge_updates {
        let (a, b) = (ServiceId(up.a), ServiceId(up.b));
        let existing = next
            .affinity_edges
            .iter()
            .position(|e| (e.a == a && e.b == b) || (e.a == b && e.b == a));
        match (existing, up.weight > 0.0) {
            (Some(i), true) => next.affinity_edges[i].weight = up.weight,
            (Some(i), false) => {
                next.affinity_edges.swap_remove(i);
            }
            (None, true) => next.affinity_edges.push(AffinityEdge {
                a,
                b,
                weight: up.weight,
            }),
            (None, false) => {}
        }
    }
    for up in &delta.replica_updates {
        next.services[up.service as usize].replicas = up.replicas;
    }
    let (repaired, report) = ProblemValidator::new().admit(&next);
    Ok((repaired.unwrap_or(next), report))
}

/// The last placement this session published, with provenance. Only
/// certified placements ever land here.
#[derive(Clone, Debug)]
pub struct PublishedPlacement {
    /// The certified container-to-machine mapping.
    pub placement: Placement,
    /// Independently recomputed gained affinity (Gate 2's value, not the
    /// solver's claim).
    pub objective: f64,
    /// Gained affinity normalized by the problem's total affinity.
    pub normalized: f64,
    /// 1-based publish sequence number within this session.
    pub round: u64,
    /// The snapshot generation this placement was solved against (see
    /// [`AllocationSession::generation`]); lagging behind the current
    /// generation means the placement is *stale*.
    pub generation: u64,
}

/// The outcome of one successful [`AllocationSession::resolve`] round.
#[derive(Debug)]
pub struct SessionRound {
    /// 1-based publish sequence number.
    pub round: u64,
    /// Certified (recomputed) gained affinity of the published placement.
    pub objective: f64,
    /// Normalized gained affinity.
    pub normalized: f64,
    /// `true` if any subproblem fell down the fallback ladder — the
    /// placement is still certified, but the primary algorithm did not
    /// finish everywhere.
    pub degraded: bool,
    /// The full pipeline run report (cache tallies, admission report,
    /// per-subproblem status).
    pub run: RasaRun,
    /// Request id ambient when the round was solved (`None` outside any
    /// request context — e.g. batch or bench callers).
    pub request_id: Option<String>,
}

/// Session state reloaded from a durability journal, about to be pushed
/// back through both trust gates by [`AllocationSession::restore`].
/// Everything here is *untrusted* until restore succeeds — the journal
/// bytes survived a crash and possibly corruption.
#[derive(Clone, Debug)]
pub struct RestoredState {
    /// The admitted problem as of the last journaled snapshot/delta.
    pub problem: Problem,
    /// The last certified placement the journal recorded, if any.
    pub published: Option<RestoredPlacement>,
    /// Publish rounds completed before the crash.
    pub rounds: u64,
    /// Snapshot generation as of the last journaled mutation.
    pub generation: u64,
}

/// A journaled placement with the provenance needed to re-certify it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RestoredPlacement {
    /// The placement as journaled.
    pub placement: Placement,
    /// The objective the journal claims Gate 2 recomputed at publish time
    /// (re-checked against a fresh recomputation on restore).
    pub claimed_objective: f64,
    /// Normalized gained affinity as journaled.
    pub normalized: f64,
    /// Publish round number as journaled.
    pub round: u64,
    /// Snapshot generation this placement was solved against.
    pub generation: u64,
}

impl From<&PublishedPlacement> for RestoredPlacement {
    fn from(p: &PublishedPlacement) -> Self {
        RestoredPlacement {
            placement: p.placement.clone(),
            claimed_objective: p.objective,
            normalized: p.normalized,
            round: p.round,
            generation: p.generation,
        }
    }
}

/// Why [`AllocationSession::restore`] refused journaled state. Every
/// variant means the journal cannot be trusted for this tenant — callers
/// quarantine instead of serving the state.
#[derive(Debug)]
pub enum RestoreError {
    /// The journaled problem did not pass the admission gate cleanly.
    /// Journaled problems were admitted (and repaired) before being
    /// written, so any dirt found on re-admission is corruption.
    AdmissionDirty {
        /// Human-readable summary of what admission flagged.
        detail: String,
    },
    /// The journaled placement failed independent re-certification
    /// against the problem generation it claims to have been solved for.
    Uncertified(CertificationFailure),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::AdmissionDirty { detail } => {
                write!(f, "journaled problem failed re-admission: {detail}")
            }
            RestoreError::Uncertified(failure) => {
                write!(f, "journaled placement failed re-certification: {failure}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// The result of a successful [`AllocationSession::restore`].
pub struct Restored {
    /// The rebuilt session (cold cache — warm subsolves are not
    /// journaled; the first post-restart round re-solves and re-warms).
    pub session: AllocationSession,
    /// The independently recomputed objective of the re-certified
    /// placement (`None` when the journal carried no placement or a stale
    /// one was dropped).
    pub recertified_objective: Option<f64>,
    /// `true` when a journaled placement that *predates* the journal's
    /// final problem generation failed re-certification against that
    /// newer problem and was dropped. Not corruption — the placement was
    /// already stale when the process died; the session restores without
    /// a published placement and the next round re-solves.
    pub stale_placement_dropped: bool,
}

/// One tenant's delta-driven re-solve state: admitted problem, warm-solve
/// cache, and last certified placement. See the module docs for the
/// trust-gate contract.
pub struct AllocationSession {
    pipeline: RasaPipeline,
    cache: SolveCache,
    problem: Option<Problem>,
    published: Option<PublishedPlacement>,
    rounds: u64,
    generation: u64,
}

impl AllocationSession {
    /// A fresh session (no snapshot, cold cache) for the given pipeline
    /// configuration.
    pub fn new(config: RasaConfig) -> Self {
        AllocationSession {
            pipeline: RasaPipeline::new(config),
            cache: SolveCache::new(),
            problem: None,
            published: None,
            rounds: 0,
            generation: 0,
        }
    }

    /// Rebuild a session from journaled state, re-running both trust
    /// gates: the problem re-passes Gate 1 admission (any dirt is
    /// corruption — journaled problems were admitted before being
    /// written) and the placement re-passes Gate 2
    /// [`certify_placement`] with its claimed objective cross-checked
    /// against a fresh recomputation. A placement older than the
    /// journal's final generation that no longer certifies is dropped as
    /// stale rather than treated as corruption (see
    /// [`Restored::stale_placement_dropped`]); a same-generation
    /// certification failure is corruption and refuses the whole restore.
    pub fn restore(config: RasaConfig, state: RestoredState) -> Result<Restored, RestoreError> {
        let (_, report) = ProblemValidator::new().admit(&state.problem);
        if !report.is_clean() {
            return Err(RestoreError::AdmissionDirty {
                detail: format!(
                    "{} issues, {} quarantined services, {} quarantined machines",
                    report.issues.len(),
                    report.quarantined_services.len(),
                    report.quarantined_machines.len(),
                ),
            });
        }

        let mut session = AllocationSession::new(config);
        session.rounds = state.rounds;
        session.generation = state.generation;
        let mut recertified_objective = None;
        let mut stale_placement_dropped = false;
        if let Some(restored) = state.published {
            match certify_placement(
                &state.problem,
                &restored.placement,
                restored.claimed_objective,
                false,
                "service.restore",
            ) {
                Ok(objective) => {
                    recertified_objective = Some(objective);
                    session.published = Some(PublishedPlacement {
                        placement: restored.placement,
                        objective,
                        normalized: restored.normalized,
                        round: restored.round,
                        generation: restored.generation,
                    });
                }
                Err(failure) if restored.generation < state.generation => {
                    // The placement predates the final journaled problem;
                    // deltas applied after the last publish may have
                    // legitimately invalidated it (replica scaling, edge
                    // churn). Losing a stale placement over a crash is
                    // the documented cost — losing *certified currency*
                    // never is.
                    let _ = failure;
                    stale_placement_dropped = true;
                }
                Err(failure) => return Err(RestoreError::Uncertified(failure)),
            }
        }
        session.problem = Some(state.problem);
        Ok(Restored {
            session,
            recertified_objective,
            stale_placement_dropped,
        })
    }

    /// The pipeline configuration this session solves with.
    pub fn config(&self) -> &RasaConfig {
        &self.pipeline.config
    }

    /// The current admitted problem, if a snapshot has been applied.
    pub fn problem(&self) -> Option<&Problem> {
        self.problem.as_ref()
    }

    /// The last certified placement published by this session.
    pub fn published(&self) -> Option<&PublishedPlacement> {
        self.published.as_ref()
    }

    /// Completed publish rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Monotone snapshot generation: bumped by every accepted snapshot or
    /// delta. A published placement whose `generation` lags this value was
    /// solved against an older world and should be marked stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Replace the session's world with a full snapshot. The problem runs
    /// through the admission gate here, at the trust boundary: the session
    /// stores the repaired copy, and the report says what was quarantined.
    pub fn apply_snapshot(&mut self, problem: &Problem) -> AdmissionReport {
        let (repaired, report) = ProblemValidator::new().admit(problem);
        self.problem = Some(repaired.unwrap_or_else(|| problem.clone()));
        self.generation += 1;
        report
    }

    /// Apply an incremental delta to the current snapshot. Structural
    /// errors (unknown service, self-edge, non-finite weight) reject the
    /// whole delta atomically — the session's problem is unchanged. An
    /// accepted delta re-runs the admission gate on the mutated problem.
    pub fn apply_delta(&mut self, delta: &SnapshotDelta) -> Result<AdmissionReport, SessionError> {
        let base = self.problem.as_ref().ok_or(SessionError::NoSnapshot)?;
        let (next, report) = apply_delta_to_problem(base, delta)?;
        self.problem = Some(next);
        self.generation += 1;
        Ok(report)
    }

    /// What the next re-solve will cost: partition the current problem and
    /// diff subproblem fingerprints against the warm cache. Pure planning —
    /// no solver runs and no session state changes.
    pub fn delta_plan(&self) -> Result<DeltaPlan, SessionError> {
        let problem = self.problem.as_ref().ok_or(SessionError::NoSnapshot)?;
        let config = &self.pipeline.config;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let outcome = partition_with_strategy(
            problem,
            // No incumbent, to mirror `resolve`: see the comment there.
            None,
            config.strategy,
            &config.partition,
            &mut rng,
        );
        let cached: HashSet<u64> = self.cache.fingerprints().into_iter().collect();
        let delta = compute_delta(&outcome.subproblems, &cached);
        Ok(DeltaPlan {
            unchanged: delta.unchanged.len(),
            dirty: delta.dirty.len(),
            invalidated: delta.invalidated.len(),
        })
    }

    /// Re-solve the current problem under `deadline` and publish the result
    /// if — and only if — it certifies. Warm-starts from the session
    /// [`SolveCache`], and on certification failure returns
    /// [`SessionError::Uncertified`] with the previously published placement
    /// left in effect.
    ///
    /// The round deliberately runs with *no* incumbent placement. Subproblem
    /// fingerprints hash the incumbent-shrunk capacities, so partitioning
    /// around the last publish would change every fingerprint on every
    /// round and defeat the delta-driven cache — and an incumbent surviving
    /// a full snapshot replacement could be indexed out of bounds against
    /// the new service/machine tables. Cross-round continuity comes from
    /// the cache, not the incumbent.
    pub fn resolve(&mut self, deadline: Deadline) -> Result<SessionRound, SessionError> {
        let (run, objective) = {
            let problem = self.problem.as_ref().ok_or(SessionError::NoSnapshot)?;
            let run = self
                .pipeline
                .optimize_with_cache(problem, None, deadline, Some(&self.cache));
            // Gate 2 at the publish boundary: the merged, completed
            // placement is re-certified as a whole before anyone sees it.
            let objective = certify_placement(
                problem,
                &run.outcome.placement,
                run.outcome.gained_affinity,
                false,
                "service.publish",
            )
            .map_err(SessionError::Uncertified)?;
            (run, objective)
        };
        self.rounds += 1;
        let round = SessionRound {
            round: self.rounds,
            objective,
            normalized: run.outcome.normalized_gained_affinity,
            degraded: run.is_degraded(),
            run,
            request_id: rasa_obs::flight::current_request_context().map(|c| c.request_id),
        };
        self.published = Some(PublishedPlacement {
            placement: round.run.outcome.placement.clone(),
            objective,
            normalized: round.normalized,
            round: self.rounds,
            generation: self.generation,
        });
        Ok(round)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use rasa_trace::{generate, specs::tiny_cluster};
    use std::time::Duration;

    fn session() -> AllocationSession {
        AllocationSession::new(RasaConfig {
            parallel: false,
            ..RasaConfig::default()
        })
    }

    #[test]
    fn snapshot_then_resolve_publishes_certified() {
        let mut s = session();
        assert!(matches!(
            s.resolve(Deadline::none()),
            Err(SessionError::NoSnapshot)
        ));
        let p = generate(&tiny_cluster(7));
        let report = s.apply_snapshot(&p);
        assert!(report.is_clean());
        let round = s.resolve(Deadline::after(Duration::from_secs(5))).unwrap();
        assert_eq!(round.round, 1);
        assert!(round.objective >= 0.0);
        assert!(s.published().is_some());
        assert_eq!(
            s.published().unwrap().generation,
            s.generation(),
            "fresh publish matches the generation"
        );
    }

    #[test]
    fn delta_mutates_edges_and_marks_stale() {
        let mut s = session();
        let p = generate(&tiny_cluster(7));
        s.apply_snapshot(&p);
        s.resolve(Deadline::after(Duration::from_secs(5))).unwrap();
        let before = s.problem().unwrap().affinity_edges.len();

        // remove one existing edge, upsert a fresh pair
        let existing = s.problem().unwrap().affinity_edges[0];
        let delta = SnapshotDelta {
            edge_updates: vec![
                EdgeUpdate {
                    a: existing.a.0,
                    b: existing.b.0,
                    weight: 0.0,
                },
                EdgeUpdate {
                    a: 0,
                    b: (s.problem().unwrap().num_services() - 1) as u32,
                    weight: 3.5,
                },
            ],
            replica_updates: vec![],
        };
        s.apply_delta(&delta).unwrap();
        assert!(
            s.published().unwrap().generation < s.generation(),
            "delta bumped the generation past the publish"
        );
        let edges = &s.problem().unwrap().affinity_edges;
        assert!(edges.len() <= before + 1);
        assert!(edges
            .iter()
            .any(|e| (e.weight - 3.5).abs() < 1e-12 || e.weight == 3.5));
        s.resolve(Deadline::after(Duration::from_secs(5))).unwrap();
        assert_eq!(s.published().unwrap().generation, s.generation());
    }

    #[test]
    fn snapshot_replacement_with_smaller_tables_resolves_cold_not_oob() {
        // Regression: the published incumbent is indexed by the *old*
        // problem's service/machine tables. Re-snapshotting with a smaller
        // cluster must drop it (cold re-solve), not read out of bounds.
        let mut s = session();
        let mut big = tiny_cluster(11);
        big.services = 12;
        big.target_containers = 48;
        big.machines = 6;
        s.apply_snapshot(&generate(&big));
        s.resolve(Deadline::after(Duration::from_secs(5))).unwrap();

        let mut small = tiny_cluster(13);
        small.services = 8;
        small.target_containers = 32;
        small.machines = 4;
        s.apply_snapshot(&generate(&small));
        let round = s.resolve(Deadline::after(Duration::from_secs(5))).unwrap();
        assert_eq!(round.round, 2);
        assert_eq!(
            s.published().unwrap().placement.num_services(),
            8,
            "publish reflects the replacement snapshot"
        );
    }

    #[test]
    fn structural_delta_errors_leave_state_untouched() {
        let mut s = session();
        let p = generate(&tiny_cluster(5));
        s.apply_snapshot(&p);
        let edges_before = s.problem().unwrap().affinity_edges.len();
        let gen_before = s.generation();

        let bad = SnapshotDelta {
            edge_updates: vec![EdgeUpdate {
                a: 0,
                b: 10_000,
                weight: 1.0,
            }],
            replica_updates: vec![],
        };
        assert!(matches!(
            s.apply_delta(&bad),
            Err(SessionError::UnknownService { service: 10_000 })
        ));
        let self_edge = SnapshotDelta {
            edge_updates: vec![EdgeUpdate {
                a: 2,
                b: 2,
                weight: 1.0,
            }],
            replica_updates: vec![],
        };
        assert!(matches!(
            s.apply_delta(&self_edge),
            Err(SessionError::SelfEdge { service: 2 })
        ));
        let nan = SnapshotDelta {
            edge_updates: vec![EdgeUpdate {
                a: 0,
                b: 1,
                weight: f64::NAN,
            }],
            replica_updates: vec![],
        };
        assert!(matches!(
            s.apply_delta(&nan),
            Err(SessionError::NonFiniteWeight { .. })
        ));
        assert_eq!(s.problem().unwrap().affinity_edges.len(), edges_before);
        assert_eq!(s.generation(), gen_before);
    }

    #[test]
    fn unchanged_world_replays_from_cache() {
        let mut s = session();
        let p = generate(&tiny_cluster(7));
        s.apply_snapshot(&p);
        let cold = s.resolve(Deadline::after(Duration::from_secs(5))).unwrap();
        let cold_stats = cold.run.cache.unwrap();
        assert_eq!(cold_stats.hits, 0);

        let plan = s.delta_plan().unwrap();
        assert_eq!(plan.dirty, 0, "identical world has no dirty subproblems");

        let warm = s.resolve(Deadline::after(Duration::from_secs(5))).unwrap();
        let warm_stats = warm.run.cache.unwrap();
        assert!(warm_stats.hits > 0, "identical re-solve replays the cache");
        assert_eq!(warm_stats.misses, 0);
    }

    #[test]
    fn corrupt_snapshot_is_repaired_at_the_gate() {
        let mut s = session();
        let mut p = generate(&tiny_cluster(6));
        p.affinity_edges[0].weight = f64::NAN;
        let report = s.apply_snapshot(&p);
        assert!(!report.is_clean());
        assert!(s
            .problem()
            .unwrap()
            .affinity_edges
            .iter()
            .all(|e| e.weight.is_finite()));
        s.resolve(Deadline::after(Duration::from_secs(5))).unwrap();
    }

    #[test]
    fn delta_plan_flags_dirty_after_mutation() {
        let mut s = session();
        let p = generate(&tiny_cluster(7));
        s.apply_snapshot(&p);
        s.resolve(Deadline::after(Duration::from_secs(5))).unwrap();
        let delta = SnapshotDelta {
            edge_updates: vec![EdgeUpdate {
                a: 0,
                b: 1,
                weight: 99.0,
            }],
            replica_updates: vec![],
        };
        s.apply_delta(&delta).unwrap();
        let plan = s.delta_plan().unwrap();
        assert!(
            plan.dirty > 0 || plan.invalidated > 0,
            "mutating an edge must dirty at least one subproblem: {plan:?}"
        );
    }
}
