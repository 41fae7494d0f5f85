//! `churn`: incremental re-solve in a library `AllocationSession`. Every
//! round applies one `SnapshotDelta` that dirties exactly one subproblem
//! and re-solves; the other subproblems replay from the session's cache.
//!
//! The world after each round is the base snapshot plus *one* change — a
//! ±10 % weight on one affinity edge, or one more replica of one service,
//! inside the largest subproblem — so a delta reverts the previous change
//! and applies the next. The changes form a cycle fixed by the pinned
//! instance, and a timed unit is one whole turn of it.
//!
//! Column generation seeds a re-solve from the column pool the solve before
//! it left behind, and that decides the work: the same delta costs 4,600 to
//! 77,000 pivots depending on its predecessor. A shuffled order would
//! measure the shuffle (and a seeded starting point still moved the median
//! round by 16 % between seeds), so the cycle is pinned, order and start,
//! and `--seed` draws the background load of the snapshot, as it does for
//! `cold-solve`: every run makes the same re-solves after the same
//! predecessors, on a different snapshot.

use super::{timed_round, LibWorkload, Mode, RunCfg, Tally};
use crate::inputs::{apply_to_copy, churn_spec, perturb_background};
use crate::probes::ProbeInput;
use crate::replay::staged_round;
use crate::spans::SpanLog;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rasa_core::{
    AllocationSession, Deadline, EdgeUpdate, ProblemValidator, RasaConfig, ReplicaUpdate,
    SnapshotDelta, SolveCache,
};
use rasa_model::{Placement, Problem};
use rasa_partition::{compute_delta, partition_with_strategy, Subproblem};
use rasa_trace::{generate, ClusterSpec};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Deadline of a round; rounds end far inside it.
const DEADLINE: Duration = Duration::from_secs(5);

/// Warm rounds (re-solve with nothing changed: every subproblem replays)
/// after each cycle.
const WARM_ROUNDS: usize = 10;

/// Seed of the pinned order of the cycle.
const CYCLE_ORDER_SEED: u64 = 2_024;

/// One change against the base snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Change {
    Edge {
        a: u32,
        b: u32,
        base: f64,
        weight: f64,
    },
    Replicas {
        service: u32,
        base: u32,
        replicas: u32,
    },
}

impl Change {
    fn push_onto(&self, delta: &mut SnapshotDelta, revert: bool) {
        match *self {
            Change::Edge { a, b, base, weight } => delta.edge_updates.push(EdgeUpdate {
                a,
                b,
                weight: if revert { base } else { weight },
            }),
            Change::Replicas {
                service,
                base,
                replicas,
            } => delta.replica_updates.push(ReplicaUpdate {
                service,
                replicas: if revert { base } else { replicas },
            }),
        }
    }
}

/// The delta that takes the world from base+`from` to base+`to`.
fn step(from: Option<&Change>, to: &Change) -> SnapshotDelta {
    let mut delta = SnapshotDelta::default();
    if let Some(previous) = from {
        previous.push_onto(&mut delta, true);
    }
    to.push_onto(&mut delta, false);
    delta
}

fn partition(config: &RasaConfig, problem: &Problem) -> Vec<Subproblem> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    partition_with_strategy(problem, None, config.strategy, &config.partition, &mut rng).subproblems
}

/// Every single change inside the largest subproblem that dirties exactly
/// that subproblem and nothing else.
fn single_dirty_changes(config: &RasaConfig, base: &Problem) -> Vec<Change> {
    let subs = partition(config, base);
    let fingerprints: HashSet<u64> = subs.iter().map(|s| s.fingerprint()).collect();
    let Some(target) = subs.iter().max_by_key(|s| s.problem.num_services()) else {
        return Vec::new();
    };
    let members: HashSet<u32> = target
        .mapping
        .service_to_parent
        .iter()
        .map(|s| s.0)
        .collect();
    let mut candidates = Vec::new();
    for e in &base.affinity_edges {
        if members.contains(&e.a.0) && members.contains(&e.b.0) {
            for factor in [0.9, 1.1] {
                candidates.push(Change::Edge {
                    a: e.a.0,
                    b: e.b.0,
                    base: e.weight,
                    weight: e.weight * factor,
                });
            }
        }
    }
    let mut services: Vec<u32> = members.into_iter().collect();
    services.sort_unstable();
    for service in services {
        let replicas = base.services[service as usize].replicas;
        candidates.push(Change::Replicas {
            service,
            base: replicas,
            replicas: replicas + 1,
        });
    }
    candidates.retain(|change| {
        let mut changed = base.clone();
        apply_to_copy(&mut changed, &step(None, change));
        let delta = compute_delta(&partition(config, &changed), &fingerprints);
        delta.dirty.len() == 1 && delta.invalidated.len() == 1
    });
    // mix edge and replica changes; the order is part of the pinned input
    candidates.shuffle(&mut StdRng::seed_from_u64(CYCLE_ORDER_SEED));
    candidates
}

/// One timed round awaiting its check (checks run after the cycle, so
/// their cost stays out of the round times).
struct Pending {
    delta: SnapshotDelta,
    /// The placement and its claimed objective; `None` for a round that
    /// already counted as failed, where only the world moves on.
    published: Option<(Placement, f64)>,
}

/// A copy of the world held by the benchmark, and the change standing in it.
struct World {
    problem: Problem,
    standing: Option<Change>,
}

pub struct Churn {
    spec: ClusterSpec,
    /// The cycle of changes, in the pinned order.
    changes: Vec<Change>,
    session: AllocationSession,
    /// Kept in step with the session's world, to check its placements.
    mirror: World,
    /// The staged replay does not go through the session: it has a world
    /// and a cache of its own, so real and replayed cycles can take turns.
    replay: World,
    replay_cache: SolveCache,
    subproblems: usize,
    round_id: u64,
}

impl Churn {
    /// One cycle of changes, continuing after the standing one.
    fn next_cycle(&self, standing: Option<Change>) -> Vec<Change> {
        let mut cycle = self.changes.clone();
        let resume = standing
            .and_then(|standing| cycle.iter().position(|c| *c == standing))
            .map_or(0, |i| i + 1);
        let len = cycle.len();
        cycle.rotate_left(resume % len);
        cycle
    }

    /// One cycle through the session: `apply_delta` + `resolve` per change.
    fn real_cycle(&mut self, tally: &mut Tally) {
        let mut pending = Vec::with_capacity(self.changes.len());
        for change in self.next_cycle(self.mirror.standing) {
            let delta = step(self.mirror.standing.as_ref(), &change);
            self.mirror.standing = Some(change);
            let outcome = timed_round(tally, || {
                self.session
                    .apply_delta(&delta)
                    .map_err(|e| e.to_string())
                    .and_then(|_| {
                        self.session
                            .resolve(Deadline::after(DEADLINE))
                            .map_err(|e| e.to_string())
                    })
            });
            let published = outcome.and_then(|round| {
                let cache = round.run.cache.unwrap_or_default();
                if cache.misses != 1 || cache.hits + 1 != self.subproblems {
                    return Err(format!(
                        "delta dirtied {} subproblems and replayed {} of {}",
                        cache.misses, cache.hits, self.subproblems
                    ));
                }
                let fresh = round.run.subproblems.iter().filter(|r| !r.cache_hit);
                tally.solve_statuses(fresh.map(|r| r.status));
                Ok((round.run.outcome.placement, round.objective))
            });
            if let Err(why) = &published {
                tally.attempted += 1;
                tally.fail(why.clone());
            }
            pending.push(Pending {
                delta,
                published: published.ok(),
            });
        }
        for p in pending {
            apply_to_copy(&mut self.mirror.problem, &p.delta);
            if let Some((placement, objective)) = p.published {
                tally.check(&self.mirror.problem, &placement, objective);
            }
        }
        for _ in 0..WARM_ROUNDS {
            let started = Instant::now();
            let round = self.session.resolve(Deadline::after(DEADLINE));
            tally.warm_s.push(started.elapsed().as_secs_f64());
            match round {
                Ok(round) => tally.check(
                    &self.mirror.problem,
                    &round.run.outcome.placement,
                    round.objective,
                ),
                Err(e) => {
                    tally.attempted += 1;
                    tally.fail(e.to_string());
                }
            }
        }
    }

    /// One cycle through the staged replay, on the replay's own world.
    fn replay_cycle(&mut self, log: &SpanLog, tally: &mut Tally) {
        let config = self.session.config().clone();
        let deadline = || Deadline::after(DEADLINE);
        if self.replay_cache.is_empty() {
            // the replay's cold snapshot round, untimed
            staged_round(
                &config,
                &self.replay.problem,
                deadline(),
                Some(&self.replay_cache),
                &SpanLog::new(false),
                0,
            );
        }
        for change in self.next_cycle(self.replay.standing) {
            let delta = step(self.replay.standing.as_ref(), &change);
            self.replay.standing = Some(change);
            self.round_id += 1;
            let round_id = self.round_id;
            let world = &mut self.replay.problem;
            let round = timed_round(tally, || {
                log.scope("apply_delta", None, round_id, || {
                    apply_to_copy(world, &delta);
                    // the session re-admits the changed problem
                    ProblemValidator::new().admit(world)
                });
                staged_round(
                    &config,
                    world,
                    deadline(),
                    Some(&self.replay_cache),
                    log,
                    round_id,
                )
            });
            if round.misses != 1 {
                tally.attempted += 1;
                tally.fail(format!(
                    "replayed delta dirtied {} subproblems",
                    round.misses
                ));
                continue;
            }
            tally.solve_statuses(round.solves.iter().copied());
            tally.check(&self.replay.problem, &round.placement, round.objective);
        }
    }
}

impl LibWorkload for Churn {
    fn setup(cfg: &RunCfg) -> Result<Self, String> {
        let spec = churn_spec(cfg.quick);
        let mut base = generate(&spec);
        perturb_background(&mut base, &mut StdRng::seed_from_u64(cfg.seed));
        let config = RasaConfig::default();
        let mut changes = single_dirty_changes(&config, &base);
        if cfg.quick {
            changes.truncate(6);
        }
        if changes.len() < 2 {
            return Err("churn: fewer than two single-dirty changes: resize the workload".into());
        }
        let mut session = AllocationSession::new(config);
        session.apply_snapshot(&base);
        let cold = session
            .resolve(Deadline::after(DEADLINE))
            .map_err(|e| format!("churn: cold snapshot round failed: {e}"))?;
        if cold.degraded {
            return Err("churn: cold snapshot round was degraded: resize the workload".into());
        }
        let world = || World {
            problem: base.clone(),
            standing: None,
        };
        let mut state = Churn {
            spec,
            changes,
            session,
            mirror: world(),
            replay: world(),
            replay_cache: SolveCache::new(),
            subproblems: cold.run.subproblems.len(),
            round_id: 0,
        };
        // the discarded warm-up cycle
        let mut warmup = Tally::default();
        state.real_cycle(&mut warmup);
        if warmup.failed > 0 {
            return Err(format!(
                "churn: warm-up cycle failed: {:?}",
                warmup.failures
            ));
        }
        Ok(state)
    }

    fn unit(&mut self, mode: Mode<'_>, tally: &mut Tally) {
        match mode {
            Mode::Real => self.real_cycle(tally),
            Mode::Replay(log) => self.replay_cycle(log, tally),
        }
    }

    fn probe_input(&self) -> ProbeInput {
        ProbeInput {
            spec: self.spec.clone(),
            problem: self.mirror.problem.clone(),
            deadline: DEADLINE,
        }
    }
}
