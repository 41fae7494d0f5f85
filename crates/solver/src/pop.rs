//! POP as a first-class strategy rung (Narayanan et al., SOSP'21 \[23\]):
//! randomly sub-sample the subproblem into `k` shards, solve the shards
//! through [`fan_out`] (the caller plus up to `solver_threads() - 1`
//! helpers) under wave-sliced deadlines, and union the results. The random
//! split deliberately ignores the affinity graph, so it is cheap and
//! embarrassingly parallel — and loses exactly the cross-shard affinity
//! Fig 9 shows. It suits subproblems where that loss is small: dense,
//! poorly-cut subproblems where whole-problem solvers drown.
//!
//! This is the only POP in the repository: the `Pop` baseline in
//! `rasa-baselines` constructs a [`PopStrategy`] (eight parts, completion
//! on) and calls it, so rung and baseline cannot drift — same seed, same
//! split, same placement (cross-check test in `rasa-baselines`).

use crate::completion::complete_placement;
use crate::mip_algorithm::{MipBased, MipBasedOptions};
use crate::scheduler::{fan_out, solver_threads, wave_slice, ScheduleOutcome, Scheduler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rasa_lp::Deadline;
use rasa_model::{Placement, Problem, ServiceId, SubproblemMapping};
use rasa_obs::flight;
use std::time::Instant;

/// POP's random service split (client granularity): deal every service
/// into one of `parts` buckets with a seeded RNG, then drop empty buckets.
/// `parts` is clamped to `[1, num_services]`.
///
/// Identical `(parts, seed)` always produces identical splits.
pub fn split_services(problem: &Problem, parts: usize, seed: u64) -> Vec<Vec<ServiceId>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = parts.max(1).min(problem.num_services().max(1));
    let mut service_sets: Vec<Vec<ServiceId>> = vec![Vec::new(); k];
    for svc in &problem.services {
        service_sets[rng.gen_range(0..k)].push(svc.id);
    }
    service_sets.retain(|s| !s.is_empty());
    service_sets
}

/// Total affinity weight on edges whose endpoints land in different shards
/// of `service_sets` — an upper bound on what the split forfeits (the
/// shards can never recover a cross-shard edge).
pub fn split_affinity_loss(problem: &Problem, service_sets: &[Vec<ServiceId>]) -> f64 {
    let mut part = vec![usize::MAX; problem.num_services()];
    for (pi, set) in service_sets.iter().enumerate() {
        for s in set {
            part[s.idx()] = pi;
        }
    }
    problem
        .affinity_edges
        .iter()
        .filter(|e| part[e.a.idx()] != part[e.b.idx()])
        .map(|e| e.weight)
        .sum()
}

/// Knobs for the [`PopStrategy`] rung.
#[derive(Clone, Debug)]
pub struct PopOptions {
    /// Number of random shards `k`. The pipeline applies POP to
    /// already-partitioned subproblems, so the default is smaller than the
    /// whole-problem baseline's 8.
    pub parts: usize,
    /// RNG seed for the shard split. Fixed per config, so a re-solve of
    /// the same subproblem shards identically (determinism the solve cache
    /// and the bench gates rely on).
    pub seed: u64,
    /// Run the completion pass on the union (off when the pipeline runs
    /// its own global pass, mirroring the MIP/CG pool members).
    pub complete: bool,
    /// Options for the per-shard MIP sub-solver.
    pub sub_mip: MipBasedOptions,
}

impl Default for PopOptions {
    fn default() -> Self {
        PopOptions {
            parts: 4,
            seed: 0,
            complete: false,
            sub_mip: MipBasedOptions::default(),
        }
    }
}

/// The POP strategy rung: split → solve shards in parallel under
/// wave-sliced deadlines → union. As a [`Scheduler`] it slots into
/// `guarded_schedule` like every other rung, so panic isolation, Gate 2
/// certification, and `solve.rung` flight recording come from the ladder,
/// not from this type.
#[derive(Clone, Debug, Default)]
pub struct PopStrategy {
    /// Configuration.
    pub options: PopOptions,
}

impl PopStrategy {
    /// A rung with the given options.
    pub fn new(options: PopOptions) -> Self {
        PopStrategy { options }
    }
}

impl Scheduler for PopStrategy {
    fn name(&self) -> &'static str {
        "POP"
    }

    fn schedule(&self, problem: &Problem, deadline: Deadline) -> ScheduleOutcome {
        let start = Instant::now();
        let obs = rasa_obs::global();
        obs.inc("strategy.pop.runs");
        let service_sets = split_services(problem, self.options.parts, self.options.seed);
        let machine_sets = rasa_partition::assign_machines(problem, &service_sets);
        obs.add("strategy.pop.shards", service_sets.len() as u64);
        obs.record(
            "strategy.pop.split_loss",
            split_affinity_loss(problem, &service_sets),
        );
        let _fs = flight::span_with(
            "strategy.pop",
            &[("shards", service_sets.len().to_string())],
        );

        let shards: Vec<(Problem, SubproblemMapping)> = service_sets
            .iter()
            .zip(&machine_sets)
            .map(|(svcs, machines)| problem.induced_subproblem(svcs, machines))
            .collect();
        let total = shards.len();
        let threads = solver_threads().min(total).max(1);
        let solver = MipBased {
            options: self.options.sub_mip.clone(),
        };
        // A shard panic propagates out of the fan-out's join and up through
        // this call — the fallback ladder's catch_unwind owns recovery.
        let solved = fan_out(total, threads - 1, |pos| {
            solver.schedule(&shards[pos].0, wave_slice(deadline, pos, total, threads))
        });

        let mut placement = Placement::empty_for(problem);
        let mut all_done = true;
        for ((_, mapping), out) in shards.iter().zip(&solved) {
            placement.merge_subplacement(
                &out.placement,
                &mapping.service_to_parent,
                &mapping.machine_to_parent,
            );
            if !out.completed {
                obs.inc("strategy.pop.shard_incomplete");
                all_done = false;
            }
        }
        if self.options.complete {
            complete_placement(problem, &mut placement);
        }
        ScheduleOutcome::evaluate(problem, placement, start.elapsed(), all_done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{validate, FeatureMask, ProblemBuilder, ResourceVec};

    fn coupled_problem() -> Problem {
        let mut b = ProblemBuilder::new();
        let svcs: Vec<_> = (0..12)
            .map(|i| b.add_service(format!("s{i}"), 2, ResourceVec::cpu_mem(1.0, 1.0)))
            .collect();
        b.add_machines(8, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        for i in 0..6 {
            b.add_affinity(svcs[2 * i], svcs[2 * i + 1], 10.0);
        }
        b.build().expect("problem builds")
    }

    #[test]
    fn split_is_deterministic_and_covers_every_service() {
        let p = coupled_problem();
        for seed in 0..4 {
            let a = split_services(&p, 4, seed);
            let b = split_services(&p, 4, seed);
            assert_eq!(a, b, "same seed must produce the same split");
            let mut seen: Vec<ServiceId> = a.iter().flatten().copied().collect();
            seen.sort();
            assert_eq!(seen.len(), p.num_services(), "every service in one shard");
            assert!(a.iter().all(|s| !s.is_empty()));
        }
        assert_ne!(
            split_services(&p, 4, 0),
            split_services(&p, 4, 1),
            "different seeds should shuffle (12 services, 4 parts)"
        );
    }

    #[test]
    fn split_loss_counts_only_cross_shard_weight() {
        let p = coupled_problem();
        // one shard → nothing crosses
        assert_eq!(split_affinity_loss(&p, &split_services(&p, 1, 0)), 0.0);
        // per-service shards → everything crosses
        let singleton = split_services(&p, p.num_services(), 0);
        let total: f64 = p.affinity_edges.iter().map(|e| e.weight).sum();
        let loss = split_affinity_loss(&p, &singleton);
        assert!(loss <= total + 1e-9);
        assert!(loss > 0.0);
    }

    #[test]
    fn rung_produces_feasible_placements() {
        let p = coupled_problem();
        for parts in [1, 3, 4] {
            let out = PopStrategy::new(PopOptions {
                parts,
                complete: true,
                ..Default::default()
            })
            .schedule(&p, Deadline::none());
            assert!(
                validate(&p, &out.placement, true).is_empty(),
                "parts={parts}"
            );
            assert!(out.completed);
        }
    }

    #[test]
    fn shard_fan_out_leaves_the_callers_request_context_as_it_found_it() {
        let p = coupled_problem();
        let ctx = flight::RequestContext::new("req-pop", "acme");
        {
            let _ctx = flight::with_request_context(ctx.clone());
            let out = PopStrategy::default().schedule(&p, Deadline::none());
            assert!(out.completed);
            assert_eq!(flight::current_request_context(), Some(ctx));
        }
        assert!(flight::current_request_context().is_none());
    }

    #[test]
    fn single_shard_equals_plain_mip() {
        let p = coupled_problem();
        let pop = PopStrategy::new(PopOptions {
            parts: 1,
            complete: true,
            ..Default::default()
        })
        .schedule(&p, Deadline::none());
        let mip = MipBased::new().schedule(&p, Deadline::none());
        assert!(
            (pop.gained_affinity - mip.gained_affinity).abs() < 1e-6,
            "pop {} vs mip {}",
            pop.gained_affinity,
            mip.gained_affinity
        );
    }
}
