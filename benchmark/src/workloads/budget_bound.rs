//! `budget-bound`: the anytime regime. Two rounds share one `SolveCache`:
//! a cold one, then the identical snapshot again. One subproblem cannot
//! finish inside the deadline, so the cold round is cut off and the warm
//! round replays the finished subproblems and re-burns the unfinished one.

use super::{timed_round, LibWorkload, Mode, RunCfg, Tally};
use crate::inputs::{budget_bound_spec, perturb_background};
use crate::probes::ProbeInput;
use crate::replay::staged_round;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rasa_core::{Deadline, RasaConfig, RasaPipeline, RasaRun, SolveCache};
use rasa_model::Problem;
use rasa_trace::{generate, ClusterSpec};
use std::time::{Duration, Instant};

/// The budget of one round. The pinned instance's hardest subproblem is
/// still unfinished at four times this, and the others finish inside half
/// of it.
const DEADLINE: Duration = Duration::from_secs(1);

pub struct BudgetBound {
    spec: ClusterSpec,
    problem: Problem,
    pipeline: RasaPipeline,
    round_id: u64,
}

impl BudgetBound {
    fn solve(&self, cache: &SolveCache) -> RasaRun {
        self.pipeline.optimize_with_cache(
            &self.problem,
            None,
            Deadline::after(DEADLINE),
            Some(cache),
        )
    }
}

fn fresh_solves(tally: &mut Tally, run: &RasaRun) {
    tally.solve_statuses(
        run.subproblems
            .iter()
            .filter(|r| !r.cache_hit)
            .map(|r| r.status),
    );
}

impl LibWorkload for BudgetBound {
    fn setup(cfg: &RunCfg) -> Result<Self, String> {
        let spec = budget_bound_spec(cfg.quick);
        let mut problem = generate(&spec);
        perturb_background(&mut problem, &mut StdRng::seed_from_u64(cfg.seed));
        let state = BudgetBound {
            spec,
            problem,
            pipeline: RasaPipeline::new(RasaConfig::default()),
            round_id: 0,
        };
        // the discarded warm-up pair
        let cache = SolveCache::new();
        state.solve(&cache);
        state.solve(&cache);
        Ok(state)
    }

    fn unit(&mut self, mode: Mode<'_>, tally: &mut Tally) {
        let cache = SolveCache::new();
        match mode {
            Mode::Real => {
                let cold = timed_round(tally, || self.solve(&cache));
                fresh_solves(tally, &cold);
                tally.check(
                    &self.problem,
                    &cold.outcome.placement,
                    cold.outcome.gained_affinity,
                );
                let started = Instant::now();
                let warm = self.solve(&cache);
                tally.warm_s.push(started.elapsed().as_secs_f64());
                fresh_solves(tally, &warm);
                tally.check(
                    &self.problem,
                    &warm.outcome.placement,
                    warm.outcome.gained_affinity,
                );
            }
            Mode::Replay(log) => {
                let replay = |id: u64| {
                    staged_round(
                        &self.pipeline.config,
                        &self.problem,
                        Deadline::after(DEADLINE),
                        Some(&cache),
                        log,
                        id,
                    )
                };
                self.round_id += 2;
                let cold = timed_round(tally, || replay(self.round_id - 1));
                tally.solve_statuses(cold.solves.iter().copied());
                tally.check(&self.problem, &cold.placement, cold.objective);
                let started = Instant::now();
                let warm = replay(self.round_id);
                tally.warm_s.push(started.elapsed().as_secs_f64());
                tally.solve_statuses(warm.solves.iter().copied());
                tally.check(&self.problem, &warm.placement, warm.objective);
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
