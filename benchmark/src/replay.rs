//! A staged replay of one pipeline round through the program's public
//! functions, with a span around every stage:
//!
//! `admit → partition → select → cache_lookup → solve [one span per
//! subproblem] → cache_store → merge → complete → evaluate → certify`
//!
//! It mirrors `RasaPipeline::optimize_with_cache` step by step (same
//! selector, same fallback rungs, same worker-pull loop and deadline
//! slices), so its wall time can be held against the real call on the same
//! input (`trace.coverage_share`) and its self times say where a round's
//! seconds go. The spans live in the benchmark; the program is not touched.

use crate::spans::SpanLog;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rasa_core::{
    certify_placement, guarded_schedule, CachedSubSolve, Deadline, GuardedOutcome, PoolAlgorithm,
    ProblemValidator, RasaConfig, ScheduleOutcome, Scheduler, SelectionSample, SolveCache,
    SolveStatus,
};
use rasa_model::{Placement, Problem};
use rasa_partition::{partition_with_strategy, Subproblem};
use rasa_select::portfolio_features;
use rasa_solver::{
    complete_placement, CgWarmStart, ColumnGeneration, GreedyScheduler, MipBased, PopStrategy,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What one replayed round produced.
pub struct ReplayRound {
    pub placement: Placement,
    /// Gained affinity the round claims for `placement`.
    pub objective: f64,
    /// Status of every fresh (non-replayed) subproblem solve.
    pub solves: Vec<SolveStatus>,
    pub misses: usize,
}

struct Job<'a> {
    index: usize,
    sub: &'a Subproblem,
    alg: PoolAlgorithm,
    warm: Option<CgWarmStart>,
}

fn solve_one(config: &RasaConfig, job: &Job<'_>, deadline: Deadline) -> GuardedOutcome {
    let mip = MipBased {
        options: config.mip.clone(),
    };
    let cg = ColumnGeneration {
        options: config.cg.clone(),
        warm: job.warm.clone(),
    };
    let pop = PopStrategy {
        options: config.pop.clone(),
    };
    let greedy = GreedyScheduler;
    let arm = |alg: PoolAlgorithm| -> &dyn Scheduler {
        match alg {
            PoolAlgorithm::Mip => &mip,
            PoolAlgorithm::Cg => &cg,
            PoolAlgorithm::Pop => &pop,
            PoolAlgorithm::Greedy => &greedy,
        }
    };
    let fallback_algs: &[PoolAlgorithm] = match job.alg {
        PoolAlgorithm::Mip => &[PoolAlgorithm::Cg],
        PoolAlgorithm::Cg => &[PoolAlgorithm::Mip],
        PoolAlgorithm::Pop => &[PoolAlgorithm::Mip, PoolAlgorithm::Cg],
        PoolAlgorithm::Greedy => &[],
    };
    let fallbacks: Vec<(PoolAlgorithm, &dyn Scheduler)> =
        fallback_algs.iter().map(|&a| (a, arm(a))).collect();
    guarded_schedule(
        job.index,
        (job.alg, arm(job.alg)),
        &fallbacks,
        &job.sub.problem,
        deadline,
    )
}

/// The live remaining budget divided by the waves still to run, as the
/// pipeline slices it.
fn wave_slice(deadline: Deadline, pos: usize, total: usize, threads: usize) -> Deadline {
    let waves = total.saturating_sub(pos).div_ceil(threads.max(1)).max(1);
    match deadline.remaining() {
        Some(rem) => deadline.min_with(rem / waves as u32),
        None => Deadline::none(),
    }
}

fn solve_jobs(
    config: &RasaConfig,
    jobs: &[Job<'_>],
    deadline: Deadline,
    log: &SpanLog,
    parent: Option<u64>,
    round_id: u64,
) -> Vec<GuardedOutcome> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(jobs.len());
    let run = |pos: usize, threads: usize| {
        let slice = wave_slice(deadline, pos, jobs.len(), threads);
        log.scope("solve_subproblem", parent, round_id, || {
            solve_one(config, &jobs[pos], slice)
        })
    };
    if threads <= 1 || !config.parallel {
        return (0..jobs.len()).map(|pos| run(pos, 1)).collect();
    }
    let slots: Vec<Mutex<Option<GuardedOutcome>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let pos = next.fetch_add(1, Ordering::Relaxed);
                if pos >= jobs.len() {
                    break;
                }
                let outcome = run(pos, threads);
                *slots[pos]
                    .lock()
                    .expect("slot lock is never held across a panic") = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock is never held across a panic")
                .expect("every queue position was solved before the scope ended")
        })
        .collect()
}

/// Replay one round on `problem`. `cache` plays the role it has in
/// `optimize_with_cache`: hits are replayed, misses solved and stored.
pub fn staged_round(
    config: &RasaConfig,
    problem: &Problem,
    deadline: Deadline,
    cache: Option<&SolveCache>,
    log: &SpanLog,
    round_id: u64,
) -> ReplayRound {
    let round = log.start("round", None, round_id);
    let parent = round.as_parent();
    let stage = |name: &str| log.start(name, parent, round_id);

    let s = stage("admit");
    let repaired = if config.admission {
        ProblemValidator::new().admit(problem).0
    } else {
        None
    };
    let problem = repaired.as_ref().unwrap_or(problem);
    log.end(s);

    let s = stage("partition");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let partition =
        partition_with_strategy(problem, None, config.strategy, &config.partition, &mut rng);
    log.end(s);
    let subs = &partition.subproblems;

    let s = stage("select");
    let choices: Vec<PoolAlgorithm> = subs
        .iter()
        .map(|sub| config.selector.select(&sub.problem))
        .collect();
    log.end(s);

    let s = stage("cache_lookup");
    let fingerprints: Option<Vec<u64>> =
        cache.map(|_| subs.iter().map(|sub| sub.fingerprint()).collect());
    let mut replayed: Vec<Option<(GuardedOutcome, PoolAlgorithm)>> = vec![None; subs.len()];
    if let (Some(c), Some(fps)) = (cache, &fingerprints) {
        for (i, sub) in subs.iter().enumerate() {
            let Some(hit) = c.lookup(fps[i]) else {
                continue;
            };
            // a cached placement is re-certified before it is trusted
            if certify_placement(
                &sub.problem,
                &hit.placement,
                hit.gained_affinity,
                false,
                "solve_cache",
            )
            .is_ok()
            {
                let outcome = ScheduleOutcome::evaluate(
                    &sub.problem,
                    hit.placement,
                    Duration::ZERO,
                    hit.completed,
                );
                let guarded = GuardedOutcome {
                    outcome,
                    status: SolveStatus::Ok,
                    error: None,
                };
                replayed[i] = Some((guarded, hit.algorithm));
            }
        }
    }
    log.end(s);

    let jobs: Vec<Job<'_>> = subs
        .iter()
        .zip(&choices)
        .enumerate()
        .filter(|(i, _)| replayed[*i].is_none())
        .map(|(i, (sub, &alg))| Job {
            index: i,
            sub,
            alg,
            warm: cache.map(|c| CgWarmStart {
                cache: c.columns(),
                key: sub.service_set_fingerprint(),
            }),
        })
        .collect();

    let s = stage("solve");
    let solved = solve_jobs(config, &jobs, deadline, log, s.as_parent(), round_id);
    log.end(s);

    let s = stage("cache_store");
    if let (Some(c), Some(fps)) = (cache, &fingerprints) {
        for (job, guarded) in jobs.iter().zip(&solved) {
            if guarded.status == SolveStatus::Ok {
                c.store(
                    fps[job.index],
                    CachedSubSolve {
                        placement: guarded.outcome.placement.clone(),
                        algorithm: job.alg,
                        completed: guarded.outcome.completed,
                        gained_affinity: guarded.outcome.gained_affinity,
                    },
                );
            }
        }
        let live_subs: HashSet<u64> = fps.iter().copied().collect();
        let live_columns: HashSet<u64> = subs
            .iter()
            .map(|sub| sub.service_set_fingerprint())
            .collect();
        c.retain(&live_subs, &live_columns);
    }
    log.end(s);

    let s = stage("merge");
    let solves: Vec<SolveStatus> = solved.iter().map(|g| g.status).collect();
    let mut fresh = solved.into_iter();
    let mut placement = Placement::empty_for(problem);
    for (i, (sub, slot)) in subs.iter().zip(replayed).enumerate() {
        let guarded = match slot {
            Some((hit, _)) => hit,
            None => {
                let guarded = fresh.next().expect("one solved outcome per pending job");
                // the pipeline feeds its online-learning stream here
                config.sample_log.record(SelectionSample {
                    features: portfolio_features(&sub.problem),
                    choice: choices[i],
                    quality: guarded.outcome.normalized_gained_affinity,
                    latency_secs: guarded.outcome.elapsed.as_secs_f64(),
                    degraded: guarded.status.is_degraded(),
                });
                guarded
            }
        };
        placement.merge_subplacement(
            &guarded.outcome.placement,
            &sub.mapping.service_to_parent,
            &sub.mapping.machine_to_parent,
        );
    }
    log.end(s);

    let s = stage("complete");
    if config.complete {
        complete_placement(problem, &mut placement);
    }
    log.end(s);

    let s = stage("evaluate");
    let outcome = ScheduleOutcome::evaluate(problem, placement, Duration::ZERO, true);
    log.end(s);

    let s = stage("certify");
    // the verdict is the benchmark's own check's business; this stage only
    // costs what the publish gate costs
    let _ = certify_placement(
        problem,
        &outcome.placement,
        outcome.gained_affinity,
        false,
        "benchmark.replay",
    );
    log.end(s);

    log.end(round);
    ReplayRound {
        placement: outcome.placement,
        objective: outcome.gained_affinity,
        solves,
        misses: jobs.len(),
    }
}
