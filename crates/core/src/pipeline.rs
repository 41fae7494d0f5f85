//! The RASA pipeline: partition → select → solve (in parallel) → combine →
//! complete → (optionally) plan the migration.
//!
//! Every per-subproblem solve goes through the fault-isolated layer in
//! [`crate::solve_guard`]: a panicking, infeasible-result-producing, or
//! deadline-starved pool member degrades its own subproblem (recorded in
//! [`SubproblemReport::status`]) and the run still completes with a
//! feasible merged placement.

use crate::certify::certify_placement;
use crate::selector_choice::SelectorChoice;
use crate::solve_cache::{CacheRoundStats, CachedSubSolve, SolveCache};
use crate::solve_guard::{
    guarded_schedule, FaultInjection, GuardedOutcome, PanickingScheduler, SolveStatus,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rasa_lp::Deadline;
use rasa_migrate::{plan_migration, MigrateConfig, MigrateError, MigrationPlan};
use rasa_model::{
    AdmissionReport, ContainerAssignment, Placement, Problem, ProblemValidator, RasaError,
};
use rasa_obs::flight::{self, TraceEvent};
use rasa_partition::{
    partition_with_strategy, PartitionConfig, PartitionOutcome, PartitionStrategy, Subproblem,
};
use rasa_select::{portfolio_features, PoolAlgorithm, SampleLog, SelectionSample};
use rasa_solver::{
    complete_placement, fan_out, lend_idle_cores, solver_threads, wave_slice, CgOptions,
    CgWarmStart, ColumnGeneration, GreedyScheduler, MipBased, MipBasedOptions, PopOptions,
    PopStrategy, ScheduleOutcome, Scheduler,
};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Full pipeline configuration.
#[derive(Clone, Debug)]
pub struct RasaConfig {
    /// Partitioning strategy (the paper's multi-stage by default; the
    /// others exist for the Fig 6 ablation).
    pub strategy: PartitionStrategy,
    /// Partitioning knobs.
    pub partition: PartitionConfig,
    /// Algorithm-selection strategy (Fig 8).
    pub selector: SelectorChoice,
    /// Options for the MIP-based pool member.
    pub mip: MipBasedOptions,
    /// Options for the column-generation pool member.
    pub cg: CgOptions,
    /// Options for the POP shard-rung pool member (parts, split seed).
    pub pop: PopOptions,
    /// Selection sample stream: every fresh (non-cached) subproblem solve
    /// appends a `(features, choice, quality, latency)` tuple here.
    /// Bounded (drop-oldest); `Clone` shares the underlying buffer, so a
    /// session's clones of this config all feed one stream.
    pub sample_log: SampleLog,
    /// Solve subproblems on parallel threads (the paper solves each
    /// subproblem independently, which is embarrassingly parallel), and let
    /// column generation price a round's machine groups on idle cores.
    pub parallel: bool,
    /// Place trivial/leftover containers with the completion pass so the
    /// final mapping satisfies the SLA.
    pub complete: bool,
    /// Seed for the partitioner's randomized stage.
    pub seed: u64,
    /// Deterministic fault injection (tests and chaos drills only; the
    /// default injects nothing).
    pub fault_injection: FaultInjection,
    /// Run the admission gate ([`ProblemValidator`]) before partitioning:
    /// corrupt inputs are quarantined/repaired and the healthy remainder
    /// solved, instead of panicking deep inside a solver. On by default;
    /// disable only when the input is known-validated (e.g. fresh from
    /// `ProblemBuilder::build`) and the audit pass must be skipped.
    pub admission: bool,
}

impl Default for RasaConfig {
    fn default() -> Self {
        // pool members skip their own completion pass; the pipeline runs
        // one global pass at the end
        let mip = MipBasedOptions {
            complete: false,
            ..Default::default()
        };
        let cg = CgOptions { complete: false };
        let pop = PopOptions {
            complete: false,
            sub_mip: MipBasedOptions {
                complete: false,
                ..Default::default()
            },
            ..Default::default()
        };
        RasaConfig {
            strategy: PartitionStrategy::MultiStage,
            partition: PartitionConfig::default(),
            selector: SelectorChoice::default(),
            mip,
            cg,
            pop,
            sample_log: SampleLog::default(),
            parallel: true,
            complete: true,
            seed: 0,
            fault_injection: FaultInjection::None,
            admission: true,
        }
    }
}

/// Per-subproblem report.
#[derive(Clone, Debug)]
pub struct SubproblemReport {
    /// Services in the subproblem.
    pub services: usize,
    /// Machines assigned to it.
    pub machines: usize,
    /// Which pool algorithm the selector chose.
    pub algorithm: PoolAlgorithm,
    /// Gained affinity achieved inside the subproblem (absolute units).
    pub gained_affinity: f64,
    /// Whether the algorithm ran to completion within its deadline.
    pub completed: bool,
    /// How the guarded solve ended ([`SolveStatus::Ok`] on the happy path;
    /// otherwise which fallback rung produced the result).
    pub status: SolveStatus,
    /// The primary failure that degraded this subproblem, if any.
    pub error: Option<RasaError>,
    /// `true` when the result was replayed from a [`SolveCache`] instead
    /// of being solved this round.
    pub cache_hit: bool,
}

/// Result of one pipeline run.
#[derive(Clone, Debug)]
pub struct RasaRun {
    /// The merged, completed schedule with objective values.
    pub outcome: ScheduleOutcome,
    /// Partitioning statistics (loss, stage counts, timing).
    pub partition: rasa_partition::stages::PartitionStats,
    /// Affinity weight lost to the partition boundaries.
    pub partition_loss: f64,
    /// One report per subproblem.
    pub subproblems: Vec<SubproblemReport>,
    /// Warm-start tallies for this round; `None` when the run was made
    /// without a [`SolveCache`].
    pub cache: Option<CacheRoundStats>,
    /// What the admission gate found (and repaired) in the input problem;
    /// `None` when [`RasaConfig::admission`] is off. Check
    /// [`AdmissionReport::is_clean`] and the quarantine lists to learn
    /// which services/machines were excluded from this round.
    pub admission: Option<AdmissionReport>,
}

impl RasaRun {
    /// Errors from degraded subproblems, in subproblem order. Empty on a
    /// fully healthy run, and for a subproblem that stopped
    /// [`SolveStatus::Unproved`]: nothing failed there.
    pub fn errors(&self) -> Vec<RasaError> {
        self.subproblems
            .iter()
            .filter_map(|r| r.error.clone())
            .collect()
    }

    /// `true` when any subproblem needed the fallback ladder, ran out of
    /// deadline budget or stopped unproved.
    pub fn is_degraded(&self) -> bool {
        self.subproblems.iter().any(|r| r.status.is_degraded())
    }
}

/// The RASA optimizer.
#[derive(Clone, Debug, Default)]
pub struct RasaPipeline {
    /// Configuration.
    pub config: RasaConfig,
}

impl RasaPipeline {
    /// A pipeline with the given configuration.
    pub fn new(config: RasaConfig) -> Self {
        RasaPipeline { config }
    }

    /// Run partition → select → solve → combine. `current` is the running
    /// placement (used to shrink machine capacities under trivial
    /// services); pass `None` when planning a cluster from scratch.
    pub fn optimize(
        &self,
        problem: &Problem,
        current: Option<&Placement>,
        deadline: Deadline,
    ) -> RasaRun {
        self.optimize_with_cache(problem, current, deadline, None)
    }

    /// [`Self::optimize`] with a cross-round [`SolveCache`]. On each call:
    ///
    /// 1. subproblems whose full fingerprint matches a cached solve are
    ///    replayed verbatim (a *hit* — no solver runs);
    /// 2. the remaining *misses* are solved with the whole deadline budget
    ///    sliced over misses only, and column generation seeds its master
    ///    from the cache's column pool for the subproblem's service set;
    /// 3. healthy results are stored back, and entries no current
    ///    subproblem references are evicted (*invalidations*).
    ///
    /// Tallies land in [`RasaRun::cache`] and the `cache.*` obs counters.
    /// Passing `None` is exactly [`Self::optimize`].
    pub fn optimize_with_cache(
        &self,
        problem: &Problem,
        current: Option<&Placement>,
        deadline: Deadline,
        cache: Option<&SolveCache>,
    ) -> RasaRun {
        self.run_round(problem, current, deadline, cache, |job, slice| {
            self.solve_one(job, slice)
        })
    }

    /// [`Self::optimize_with_cache`] with the per-job solve passed in, so a
    /// test can fail a job outside the guard `solve_one` wraps around it.
    fn run_round(
        &self,
        problem: &Problem,
        current: Option<&Placement>,
        deadline: Deadline,
        cache: Option<&SolveCache>,
        solve_one: impl Fn(&PendingJob<'_>, Deadline) -> GuardedOutcome + Sync,
    ) -> RasaRun {
        let start = Instant::now();
        let obs = rasa_obs::global();
        obs.inc("pipeline.runs");
        let mut fscope = flight::begin_solve(
            "pipeline.run",
            &[
                ("services", problem.num_services().to_string()),
                ("machines", problem.num_machines().to_string()),
            ],
        );
        // Gate 1: admission control. Audit the input, quarantine/repair
        // corrupt entries, and solve the healthy remainder. `repaired`
        // owns the cleaned clone (only allocated when a repair was
        // needed); `problem` is rebound to whichever copy is admissible.
        let mut admission_report: Option<AdmissionReport> = None;
        let repaired: Option<Problem> = if self.config.admission {
            let _fs = flight::span("pipeline.admission");
            obs.inc("admission.audits");
            let (fixed, report) = ProblemValidator::new().admit(problem);
            if !report.is_clean() {
                obs.inc("admission.dirty");
                let services = report.quarantined_services.len() as u64;
                let machines = report.quarantined_machines.len() as u64;
                let edges = report.dropped_edges as u64;
                let rules = report.dropped_rules as u64;
                obs.add("admission.quarantined_services", services);
                obs.add("admission.quarantined_machines", machines);
                obs.add("admission.dropped_edges", edges);
                obs.add("admission.dropped_rules", rules);
                flight::emit(|| TraceEvent::AdmissionQuarantine {
                    services,
                    machines,
                    edges,
                    rules,
                });
            }
            admission_report = Some(report);
            fixed
        } else {
            None
        };
        let problem: &Problem = repaired.as_ref().unwrap_or(problem);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let partition: PartitionOutcome = {
            let _t = obs.span("pipeline.partition_seconds");
            let _fs = flight::span("pipeline.partition");
            partition_with_strategy(
                problem,
                current,
                self.config.strategy,
                &self.config.partition,
                &mut rng,
            )
        };
        obs.add("pipeline.subproblems", partition.subproblems.len() as u64);
        obs.record("pipeline.partition_loss", partition.affinity_loss);

        // decide the algorithm per subproblem up front (cheap)
        let choices: Vec<PoolAlgorithm> = partition
            .subproblems
            .iter()
            .map(|sub| self.config.selector.select(&sub.problem))
            .collect();
        for (i, &alg) in choices.iter().enumerate() {
            obs.inc(match alg {
                PoolAlgorithm::Mip => "pipeline.alg.mip",
                PoolAlgorithm::Cg => "pipeline.alg.cg",
                PoolAlgorithm::Pop => "pipeline.alg.pop",
                PoolAlgorithm::Greedy => "pipeline.alg.greedy",
            });
            flight::emit(|| TraceEvent::RungSelected {
                subproblem: i as u64,
                algorithm: alg.label().to_string(),
            });
        }

        // replay cache hits, queue the misses
        let fingerprints: Option<Vec<u64>> = cache.map(|_| {
            partition
                .subproblems
                .iter()
                .map(|sub| sub.fingerprint())
                .collect()
        });
        let mut replayed: Vec<Option<GuardedOutcome>> = vec![None; partition.subproblems.len()];
        let mut hit_algorithms: Vec<Option<PoolAlgorithm>> =
            vec![None; partition.subproblems.len()];
        let mut cache_stats = cache.map(|_| CacheRoundStats::default());
        let mut cache_poisoned = false;
        if let (Some(c), Some(fps), Some(stats)) = (cache, &fingerprints, &mut cache_stats) {
            for (i, sub) in partition.subproblems.iter().enumerate() {
                if let Some(hit) = c.lookup(fps[i]) {
                    // Gate 2 on the replay path: a cached placement is
                    // re-certified before it is trusted, so an entry
                    // mutated after being stored is re-solved instead of
                    // replayed.
                    match certify_placement(
                        &sub.problem,
                        &hit.placement,
                        hit.gained_affinity,
                        false,
                        "solve_cache",
                    ) {
                        Ok(_) => {
                            let outcome = ScheduleOutcome::evaluate(
                                &sub.problem,
                                hit.placement,
                                Duration::ZERO,
                                hit.completed,
                            );
                            replayed[i] = Some(GuardedOutcome {
                                outcome,
                                status: SolveStatus::Ok,
                                error: None,
                            });
                            hit_algorithms[i] = Some(hit.algorithm);
                        }
                        Err(_) => {
                            // Poisoned entry: treat as a miss and
                            // re-solve; the healthy result overwrites it.
                            obs.inc("certify.cache_rejections");
                            cache_poisoned = true;
                        }
                    }
                }
                if replayed[i].is_some() {
                    stats.hits += 1;
                    obs.inc("cache.sub_hits");
                    flight::emit(|| TraceEvent::CacheHit {
                        cache: "solve_cache".into(),
                        key: fps[i],
                    });
                } else {
                    stats.misses += 1;
                    obs.inc("cache.sub_misses");
                    flight::emit(|| TraceEvent::CacheMiss {
                        cache: "solve_cache".into(),
                        key: fps[i],
                    });
                }
            }
        }
        let jobs: Vec<PendingJob<'_>> = partition
            .subproblems
            .iter()
            .zip(&choices)
            .enumerate()
            .filter(|(i, _)| replayed[*i].is_none())
            .map(|(i, (sub, &alg))| PendingJob {
                index: i,
                sub,
                alg,
                warm: cache.map(|c| CgWarmStart {
                    cache: c.columns(),
                    key: sub.service_set_fingerprint(),
                }),
            })
            .collect();

        // solve the misses (each behind the fault-isolation guard), with
        // the deadline budget sliced over misses only — replayed hits are
        // free and must not hold a share of the budget
        let solved: Vec<GuardedOutcome> = {
            let _t = obs.span("pipeline.solve_seconds");
            let _fs = flight::span_with("pipeline.solve", &[("jobs", jobs.len().to_string())]);
            self.solve_jobs(&jobs, deadline, solve_one)
        };

        // store healthy fresh solves back into the cache, then evict
        // whatever this round's partition no longer references
        if let (Some(c), Some(fps), Some(stats)) = (cache, &fingerprints, &mut cache_stats) {
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
            let live_columns: HashSet<u64> = partition
                .subproblems
                .iter()
                .map(|sub| sub.service_set_fingerprint())
                .collect();
            stats.invalidations = c.retain(&live_subs, &live_columns);
            obs.add("cache.invalidations", stats.invalidations as u64);
            if stats.invalidations > 0 {
                flight::emit(|| TraceEvent::CacheEvict {
                    cache: "solve_cache".into(),
                    count: stats.invalidations as u64,
                });
            }
        }

        // combine (merging hits and fresh solves back in subproblem order)
        let _t_combine = obs.span("pipeline.combine_seconds");
        let _fs_combine = flight::span("pipeline.combine");
        let mut fresh = solved.into_iter();
        let merged: Vec<(GuardedOutcome, bool)> = replayed
            .into_iter()
            .map(|slot| match slot {
                Some(hit) => (hit, true),
                None => (
                    fresh.next().expect("one solved outcome per pending job"),
                    false,
                ),
            })
            .collect();
        let mut placement = Placement::empty_for(problem);
        let mut reports = Vec::with_capacity(merged.len());
        for (i, (sub, (guarded, was_hit))) in partition.subproblems.iter().zip(&merged).enumerate()
        {
            placement.merge_subplacement(
                &guarded.outcome.placement,
                &sub.mapping.service_to_parent,
                &sub.mapping.machine_to_parent,
            );
            if !*was_hit {
                // record the realized quality/latency of the selector's
                // decision on this subproblem (replayed cache hits cost
                // nothing and would bias latency records)
                obs.inc("select.samples");
                let dropped = self.config.sample_log.record(SelectionSample {
                    features: portfolio_features(&sub.problem),
                    choice: choices[i],
                    quality: guarded.outcome.normalized_gained_affinity,
                    latency_secs: guarded.outcome.elapsed.as_secs_f64(),
                    degraded: guarded.status.is_degraded(),
                });
                if dropped {
                    obs.inc("select.samples_dropped");
                }
            }
            reports.push(SubproblemReport {
                services: sub.problem.num_services(),
                machines: sub.problem.num_machines(),
                algorithm: hit_algorithms[i].unwrap_or(choices[i]),
                gained_affinity: guarded.outcome.gained_affinity,
                completed: guarded.outcome.completed,
                status: guarded.status,
                error: guarded.error.clone(),
                cache_hit: *was_hit,
            });
        }
        drop(_fs_combine);
        drop(_t_combine);

        if self.config.complete {
            let _t = obs.span("pipeline.complete_seconds");
            let _fs = flight::span("pipeline.complete");
            complete_placement(problem, &mut placement);
        }
        let degraded = reports.iter().any(|r| r.status.is_degraded());
        // A poisoned-cache round still produces a certified placement,
        // but the verdict is marked degraded so the flight recorder dumps
        // a black box for forensics.
        let verdict = if degraded {
            "degraded"
        } else if cache_poisoned {
            "certify_failed"
        } else {
            "ok"
        };
        fscope.set_verdict(verdict, degraded || cache_poisoned);
        drop(fscope);
        let completed = reports.iter().all(|r| r.completed);
        let outcome = ScheduleOutcome::evaluate(problem, placement, start.elapsed(), completed);
        RasaRun {
            outcome,
            partition: partition.stats,
            partition_loss: partition.affinity_loss,
            subproblems: reports,
            cache: cache_stats,
            admission: admission_report,
        }
    }

    /// The full Fig 3 workflow: optimize, then compute the executable
    /// migration path from the running assignment to the new mapping.
    pub fn optimize_and_plan(
        &self,
        problem: &Problem,
        current: &ContainerAssignment,
        deadline: Deadline,
        migrate: &MigrateConfig,
    ) -> Result<(RasaRun, MigrationPlan), MigrateError> {
        let run = self.optimize(problem, Some(&current.to_placement()), deadline);
        let plan = plan_migration(problem, current, &run.outcome.placement, migrate)?;
        Ok((run, plan))
    }

    /// Solve one pending subproblem behind the fault-isolation guard: the
    /// selector's choice is the primary, the exact pool members are the
    /// fallback rungs, greedy completion is the floor. POP never appears
    /// as a *rescue* rung — a failed exact solve should fall back to the
    /// other exact solver, not to a lossy shard split — and the GREEDY arm
    /// needs no rungs at all because the guard's floor *is* the greedy
    /// completion pass. Fault injection keys off the subproblem's
    /// *original* partition index, not its queue position, so chaos drills
    /// stay deterministic whether or not a cache filtered the job list.
    fn solve_one(&self, job: &PendingJob<'_>, deadline: Deadline) -> GuardedOutcome {
        let deadline = if self.config.fault_injection.starves(job.index) {
            Deadline::after(Duration::ZERO)
        } else {
            deadline
        };
        let mip = MipBased {
            options: self.config.mip.clone(),
        };
        let cg = ColumnGeneration {
            options: self.config.cg.clone(),
            warm: job.warm.clone(),
        };
        let pop = PopStrategy {
            options: self.config.pop.clone(),
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
        let panicking = PanickingScheduler;
        let primary: &dyn Scheduler = if self.config.fault_injection.panics() {
            &panicking
        } else {
            arm(job.alg)
        };
        guarded_schedule(
            job.index,
            (job.alg, primary),
            &fallbacks,
            &job.sub.problem,
            deadline,
        )
    }

    /// Solve every pending job through the one fan-out: this thread plus a
    /// helper per further job, up to the cores the process may use. In a
    /// `parallel` round each job may also borrow idle cores for its
    /// column-generation pricing ([`lend_idle_cores`]).
    /// `solve_one` catches panics inside the guard, so one escaping it is
    /// already a second-order failure; it costs that job its slot (an empty
    /// placement the global completion pass repairs) and no other.
    fn solve_jobs(
        &self,
        jobs: &[PendingJob<'_>],
        deadline: Deadline,
        solve_one: impl Fn(&PendingJob<'_>, Deadline) -> GuardedOutcome + Sync,
    ) -> Vec<GuardedOutcome> {
        let workers = if self.config.parallel {
            solver_threads().min(jobs.len()).max(1)
        } else {
            1
        };
        fan_out(jobs.len(), workers - 1, |pos| {
            let job = &jobs[pos];
            // slice the global budget by queue position: it is split over
            // the jobs actually being solved, not the full partition, and
            // no worker may starve the queue entries behind it
            let slice = wave_slice(deadline, pos, jobs.len(), workers);
            let _lease = self.config.parallel.then(lend_idle_cores);
            catch_unwind(AssertUnwindSafe(|| solve_one(job, slice))).unwrap_or_else(|_| {
                rasa_obs::global().inc("pipeline.lost_slots");
                GuardedOutcome::lost_slot(job.index, &job.sub.problem)
            })
        })
    }
}

/// A subproblem still waiting to be solved this round (i.e. not replayed
/// from the [`SolveCache`]), with everything `solve_one` needs.
struct PendingJob<'a> {
    /// Index in the partition's subproblem list (drives fault injection
    /// and the merge-back order).
    index: usize,
    /// The subproblem itself.
    sub: &'a Subproblem,
    /// The selector's algorithm choice.
    alg: PoolAlgorithm,
    /// Cross-round column-pool handle for column generation, when a
    /// [`SolveCache`] is in play.
    warm: Option<CgWarmStart>,
}

impl Scheduler for RasaPipeline {
    fn name(&self) -> &'static str {
        "RASA"
    }

    fn schedule(&self, problem: &Problem, deadline: Deadline) -> ScheduleOutcome {
        self.optimize(problem, None, deadline).outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{validate, FeatureMask, ProblemBuilder, ResourceVec};

    fn pair_problem() -> Problem {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 2, ResourceVec::cpu_mem(1.0, 1.0));
        let s1 = b.add_service("b", 2, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 4.0);
        b.build().unwrap()
    }

    #[test]
    fn optimize_reports_one_subproblem_for_a_pair() {
        let p = pair_problem();
        let run = RasaPipeline::default().optimize(&p, None, Deadline::none());
        assert_eq!(run.subproblems.len(), 1);
        assert_eq!(run.subproblems[0].services, 2);
        assert!(run.subproblems[0].completed);
        assert!((run.outcome.normalized_gained_affinity - 1.0).abs() < 1e-6);
        assert!(validate(&p, &run.outcome.placement, true).is_empty());
    }

    #[test]
    fn empty_problem_is_handled() {
        let p = ProblemBuilder::new().build().unwrap();
        let run = RasaPipeline::default().optimize(&p, None, Deadline::none());
        assert!(run.subproblems.is_empty());
        assert_eq!(run.outcome.gained_affinity, 0.0);
    }

    #[test]
    fn problem_without_edges_goes_entirely_to_completion() {
        let mut b = ProblemBuilder::new();
        b.add_service("solo", 3, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        let p = b.build().unwrap();
        let run = RasaPipeline::default().optimize(&p, None, Deadline::none());
        assert!(
            run.subproblems.is_empty(),
            "no affinity → no crucial subproblems"
        );
        assert!(
            validate(&p, &run.outcome.placement, true).is_empty(),
            "SLA via completion"
        );
    }

    #[test]
    fn scheduler_trait_matches_optimize() {
        let p = pair_problem();
        let pipeline = RasaPipeline::default();
        let via_trait = pipeline.schedule(&p, Deadline::none());
        let via_optimize = pipeline.optimize(&p, None, Deadline::none()).outcome;
        assert!((via_trait.gained_affinity - via_optimize.gained_affinity).abs() < 1e-9);
        assert_eq!(pipeline.name(), "RASA");
    }

    #[test]
    fn panicking_pool_member_degrades_without_aborting() {
        // the acceptance scenario: every primary solve panics, yet the run
        // completes, reports the fallback, and the merged placement is valid
        let p = pair_problem();
        for parallel in [false, true] {
            let run = RasaPipeline::new(RasaConfig {
                fault_injection: FaultInjection::PanicAlways,
                parallel,
                ..Default::default()
            })
            .optimize(&p, None, Deadline::none());
            assert_eq!(run.subproblems.len(), 1);
            let report = &run.subproblems[0];
            assert!(
                matches!(report.status, SolveStatus::FellBackTo(_)),
                "parallel={parallel}: status {:?}",
                report.status
            );
            assert!(!report.completed);
            assert!(matches!(
                report.error,
                Some(RasaError::SolvePanicked { subproblem: 0, .. })
            ));
            assert!(run.is_degraded());
            assert_eq!(run.errors().len(), 1);
            assert!(
                validate(&p, &run.outcome.placement, true).is_empty(),
                "parallel={parallel}: merged placement must stay feasible and complete"
            );
            assert!(!run.outcome.completed);
        }
    }

    #[test]
    fn starved_subproblem_reports_deadline_expired() {
        let p = pair_problem();
        let run = RasaPipeline::new(RasaConfig {
            fault_injection: FaultInjection::StarveSubproblems(vec![0]),
            ..Default::default()
        })
        .optimize(&p, None, Deadline::none());
        assert_eq!(run.subproblems[0].status, SolveStatus::DeadlineExpired);
        assert!(run.is_degraded());
        assert!(validate(&p, &run.outcome.placement, true).is_empty());
    }

    #[test]
    fn healthy_run_reports_no_errors() {
        let p = pair_problem();
        let run = RasaPipeline::default().optimize(&p, None, Deadline::none());
        assert!(!run.is_degraded());
        assert!(run.errors().is_empty());
        assert_eq!(run.subproblems[0].status, SolveStatus::Ok);
    }

    #[test]
    fn job_panicking_outside_the_guard_loses_only_its_own_slot() {
        // two feature-fenced rings → two pending jobs; the second one's
        // solve panics before it ever reaches `guarded_schedule`
        let mut b = ProblemBuilder::new();
        for zone in 0..2u32 {
            let feature = FeatureMask::bit(zone);
            let ring: Vec<_> = (0..4u32)
                .map(|i| {
                    b.add_service_full(
                        rasa_model::Service::new(
                            rasa_model::ServiceId(zone * 4 + i),
                            format!("z{zone}-s{i}"),
                            2,
                            ResourceVec::cpu_mem(1.0, 1.0),
                        )
                        .with_features(feature),
                    )
                })
                .collect();
            for i in 0..4 {
                b.add_affinity(ring[i], ring[(i + 1) % 4], 1.0 + i as f64);
            }
            b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), feature);
        }
        let p = b.build().unwrap();
        let lost_slots = || rasa_obs::global().snapshot().counter("pipeline.lost_slots");
        for parallel in [false, true] {
            let pipeline = RasaPipeline::new(RasaConfig {
                parallel,
                ..Default::default()
            });
            let lost_before = lost_slots();
            let run = pipeline.run_round(&p, None, Deadline::none(), None, |job, slice| {
                assert!(job.index != 1, "injected fault outside the guard");
                pipeline.solve_one(job, slice)
            });
            assert_eq!(lost_slots(), lost_before + 1, "parallel={parallel}");
            assert_eq!(run.subproblems.len(), 2);
            assert_eq!(run.subproblems[0].status, SolveStatus::Ok);
            assert_eq!(run.subproblems[1].status, SolveStatus::Panicked);
            assert!(matches!(
                run.subproblems[1].error,
                Some(RasaError::SolvePanicked { subproblem: 1, .. })
            ));
            assert!(run.is_degraded());
            assert!(
                validate(&p, &run.outcome.placement, true).is_empty(),
                "parallel={parallel}: the completion pass repairs the lost slot"
            );
        }
    }

    #[test]
    fn expired_global_deadline_degrades_all_subproblems_on_both_paths() {
        use std::time::Duration;
        // two disjoint affinity pairs → two subproblems; with the budget
        // already gone, BOTH paths must report every subproblem starved
        // (before the fix the parallel path handed workers the unexpired
        // remainder of whatever deadline state they observed)
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 1, ResourceVec::cpu_mem(1.0, 1.0));
        let s1 = b.add_service("b", 1, ResourceVec::cpu_mem(1.0, 1.0));
        let s2 = b.add_service("c", 1, ResourceVec::cpu_mem(1.0, 1.0));
        let s3 = b.add_service("d", 1, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(4, ResourceVec::cpu_mem(4.0, 4.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 2.0);
        b.add_affinity(s2, s3, 2.0);
        let p = b.build().unwrap();
        for parallel in [false, true] {
            let run = RasaPipeline::new(RasaConfig {
                parallel,
                ..Default::default()
            })
            .optimize(&p, None, Deadline::after(Duration::ZERO));
            assert!(!run.subproblems.is_empty());
            for (i, r) in run.subproblems.iter().enumerate() {
                assert_eq!(
                    r.status,
                    SolveStatus::DeadlineExpired,
                    "parallel={parallel} subproblem={i}"
                );
            }
            assert!(validate(&p, &run.outcome.placement, true).is_empty());
        }
    }

    #[test]
    fn identical_round_replays_entirely_from_cache() {
        let p = pair_problem();
        let pipeline = RasaPipeline::default();
        let cache = SolveCache::new();
        let samples = &pipeline.config.sample_log;
        let before = samples.len();
        let cold = pipeline.optimize_with_cache(&p, None, Deadline::none(), Some(&cache));
        let cold_stats = cold.cache.expect("stats with cache");
        assert_eq!(cold_stats.hits, 0);
        assert_eq!(cold_stats.misses, 1);
        assert!(!cold.subproblems[0].cache_hit);
        assert_eq!(cache.len(), 1);
        assert_eq!(
            samples.len(),
            before + 1,
            "a fresh solve records one sample"
        );

        let warm = pipeline.optimize_with_cache(&p, None, Deadline::none(), Some(&cache));
        assert_eq!(samples.len(), before + 1, "an all-hit replay records none");
        let warm_stats = warm.cache.expect("stats with cache");
        assert_eq!(warm_stats.hits, 1);
        assert_eq!(warm_stats.misses, 0);
        assert_eq!(warm_stats.invalidations, 0);
        assert!(warm.subproblems[0].cache_hit);
        assert_eq!(warm.subproblems[0].algorithm, cold.subproblems[0].algorithm);
        assert!(
            (warm.outcome.gained_affinity - cold.outcome.gained_affinity).abs() < 1e-12,
            "replayed round must reproduce the cold objective"
        );
        assert!(validate(&p, &warm.outcome.placement, true).is_empty());
    }

    #[test]
    fn cacheless_runs_report_no_cache_stats() {
        let p = pair_problem();
        let run = RasaPipeline::default().optimize(&p, None, Deadline::none());
        assert!(run.cache.is_none());
        assert!(run.subproblems.iter().all(|r| !r.cache_hit));
    }

    #[test]
    fn degraded_solves_are_not_cached() {
        // a starved subproblem must not poison the cache with its fallback
        // placement: the next round should re-solve it for real
        let p = pair_problem();
        let cache = SolveCache::new();
        let starved = RasaPipeline::new(RasaConfig {
            fault_injection: FaultInjection::StarveSubproblems(vec![0]),
            ..Default::default()
        });
        let run = starved.optimize_with_cache(&p, None, Deadline::none(), Some(&cache));
        assert!(run.is_degraded());
        assert!(cache.is_empty(), "degraded result must not be stored");

        let healthy = RasaPipeline::default();
        let rerun = healthy.optimize_with_cache(&p, None, Deadline::none(), Some(&cache));
        let stats = rerun.cache.expect("stats with cache");
        assert_eq!(stats.hits, 0, "nothing cached → nothing replayed");
        assert!(!rerun.is_degraded());
    }

    #[test]
    fn changed_problem_invalidates_stale_entries() {
        // doubling an affinity weight changes every subproblem fingerprint,
        // so round two must miss and evict the round-one entry
        let p = pair_problem();
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 2, ResourceVec::cpu_mem(1.0, 1.0));
        let s1 = b.add_service("b", 2, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 8.0);
        let p2 = b.build().unwrap();

        let pipeline = RasaPipeline::default();
        let cache = SolveCache::new();
        pipeline.optimize_with_cache(&p, None, Deadline::none(), Some(&cache));
        let run2 = pipeline.optimize_with_cache(&p2, None, Deadline::none(), Some(&cache));
        let stats = run2.cache.expect("stats with cache");
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 1);
        assert!(
            stats.invalidations >= 1,
            "round-one entry keyed by the old fingerprint must be evicted"
        );
    }

    #[test]
    fn disabled_completion_leaves_trivial_services_out() {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 1, ResourceVec::cpu_mem(1.0, 1.0));
        let s1 = b.add_service("b", 1, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_service("trivial", 2, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 1.0);
        let p = b.build().unwrap();
        let run = RasaPipeline::new(RasaConfig {
            complete: false,
            ..Default::default()
        })
        .optimize(&p, None, Deadline::none());
        assert_eq!(
            run.outcome.placement.placed_count(rasa_model::ServiceId(2)),
            0,
            "trivial service untouched without completion"
        );
    }

    #[test]
    fn admission_gate_quarantines_poisoned_service_and_solves_the_rest() {
        // one poisoned service must not take the round down: the gate
        // quarantines it, the healthy remainder is solved, and the report
        // names the quarantined id (satellite: quarantine semantics)
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 2, ResourceVec::cpu_mem(1.0, 1.0));
        let s1 = b.add_service("b", 2, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_service("poisoned", 2, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 4.0);
        let mut p = b.build().unwrap();
        // corruption that bypasses the builder (e.g. a deserialized file)
        p.services[2].demand = rasa_model::ResourceVec::new(f64::NAN, 1.0, 0.0, 0.0);

        let run = RasaPipeline::default().optimize(&p, None, Deadline::none());
        let report = run.admission.as_ref().expect("admission on by default");
        assert!(!report.is_clean());
        assert_eq!(
            report.quarantined_services,
            vec![rasa_model::ServiceId(2)],
            "the poisoned service is named in the report"
        );
        assert!(!run.is_degraded(), "healthy remainder solves normally");
        assert_eq!(
            run.outcome.placement.placed_count(rasa_model::ServiceId(2)),
            0,
            "quarantined service gets no replicas"
        );
        assert!(
            run.outcome.gained_affinity > 0.0,
            "healthy pair still gains affinity"
        );
        // the merged placement certifies against the repaired problem
        let (repaired, _) = ProblemValidator::new().admit(&p);
        let repaired = repaired.expect("repair happened");
        assert!(validate(&repaired, &run.outcome.placement, true).is_empty());
    }

    #[test]
    fn admission_gate_can_be_disabled() {
        let p = pair_problem();
        let run = RasaPipeline::new(RasaConfig {
            admission: false,
            ..Default::default()
        })
        .optimize(&p, None, Deadline::none());
        assert!(run.admission.is_none());
        let on = RasaPipeline::default().optimize(&p, None, Deadline::none());
        assert!(on.admission.expect("report").is_clean());
    }

    #[test]
    fn poisoned_cache_entry_is_rejected_and_resolved() {
        // Gate 2 on the replay path: mutate the cached entry between
        // rounds; the warm round must re-solve instead of replaying it
        let p = pair_problem();
        let pipeline = RasaPipeline::default();
        let cache = SolveCache::new();
        let cold = pipeline.optimize_with_cache(&p, None, Deadline::none(), Some(&cache));
        let fps = cache.fingerprints();
        assert_eq!(fps.len(), 1);
        let mut entry = cache.lookup(fps[0]).expect("cached");
        entry.gained_affinity += 100.0; // claimed objective no longer matches
        cache.store(fps[0], entry);

        let warm = pipeline.optimize_with_cache(&p, None, Deadline::none(), Some(&cache));
        let stats = warm.cache.expect("stats with cache");
        assert_eq!(stats.hits, 0, "poisoned entry must not replay");
        assert_eq!(stats.misses, 1);
        assert!(!warm.subproblems[0].cache_hit);
        assert!(
            (warm.outcome.gained_affinity - cold.outcome.gained_affinity).abs() < 1e-9,
            "re-solve reproduces the honest objective"
        );
        // the fresh solve overwrote the poisoned entry, so round 3 replays
        let round3 = pipeline.optimize_with_cache(&p, None, Deadline::none(), Some(&cache));
        assert_eq!(round3.cache.expect("stats").hits, 1);
    }
}
