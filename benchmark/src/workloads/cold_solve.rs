//! `cold-solve`: `RasaPipeline::optimize` from an empty cache, default
//! configuration, every subproblem solved to optimality.

use super::{timed_round, LibWorkload, Mode, RunCfg, Tally};
use crate::inputs::{cold_solve_spec, perturb_background};
use crate::probes::ProbeInput;
use crate::replay::staged_round;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rasa_core::{Deadline, RasaConfig, RasaPipeline, SolveCache};
use rasa_model::Problem;
use rasa_trace::{generate, ClusterSpec};
use std::time::{Duration, Instant};

/// Deadline of a round. Rounds end far inside it; a round that does not
/// (`ok_share` < 1) invalidates the run and the workload must be resized.
const DEADLINE: Duration = Duration::from_secs(20);

/// Warm rounds (identical snapshot against the warmed cache) per round.
const WARM_ROUNDS: usize = 20;

pub struct ColdSolve {
    spec: ClusterSpec,
    problem: Problem,
    pipeline: RasaPipeline,
    /// Filled by the warm-up repetition; every later lookup is a hit.
    warm_cache: SolveCache,
    round_id: u64,
}

impl LibWorkload for ColdSolve {
    fn setup(cfg: &RunCfg) -> Result<Self, String> {
        let spec = cold_solve_spec(cfg.quick);
        let mut problem = generate(&spec);
        perturb_background(&mut problem, &mut StdRng::seed_from_u64(cfg.seed));
        let pipeline = RasaPipeline::new(RasaConfig::default());
        let warm_cache = SolveCache::new();
        // the discarded warm-up repetition, which also warms the cache the
        // warm rounds replay from
        let run = pipeline.optimize_with_cache(
            &problem,
            None,
            Deadline::after(DEADLINE),
            Some(&warm_cache),
        );
        if run.is_degraded() {
            return Err("cold-solve warm-up round was degraded: resize the workload".into());
        }
        Ok(ColdSolve {
            spec,
            problem,
            pipeline,
            warm_cache,
            round_id: 0,
        })
    }

    fn unit(&mut self, mode: Mode<'_>, tally: &mut Tally) {
        self.round_id += 1;
        let deadline = || Deadline::after(DEADLINE);
        match mode {
            Mode::Real => {
                let run = timed_round(tally, || {
                    self.pipeline.optimize(&self.problem, None, deadline())
                });
                tally.solve_statuses(run.subproblems.iter().map(|r| r.status));
                tally.check(
                    &self.problem,
                    &run.outcome.placement,
                    run.outcome.gained_affinity,
                );
                for _ in 0..WARM_ROUNDS {
                    let started = Instant::now();
                    let warm = self.pipeline.optimize_with_cache(
                        &self.problem,
                        None,
                        deadline(),
                        Some(&self.warm_cache),
                    );
                    tally.warm_s.push(started.elapsed().as_secs_f64());
                    tally.check(
                        &self.problem,
                        &warm.outcome.placement,
                        warm.outcome.gained_affinity,
                    );
                }
            }
            Mode::Replay(log) => {
                let round = timed_round(tally, || {
                    staged_round(
                        &self.pipeline.config,
                        &self.problem,
                        deadline(),
                        None,
                        log,
                        self.round_id,
                    )
                });
                tally.solve_statuses(round.solves.iter().copied());
                tally.check(&self.problem, &round.placement, round.objective);
            }
        }
    }

    fn probe_input(&self) -> ProbeInput {
        ProbeInput {
            spec: self.spec.clone(),
            problem: self.problem.clone(),
            deadline: DEADLINE,
        }
    }
}
