//! POP (Narayanan et al., SOSP'21 \[23\]): partition a large allocation
//! problem into `k` random subproblems, solve each with a solver, and union
//! the results. Designed for *granular* problems; RASA's affinity couples
//! services, so the random split loses cross-part affinity — exactly the
//! failure mode Fig 9 shows.
//!
//! The baseline is the solver-layer rung ([`PopStrategy`]) applied to the
//! whole problem at eight parts: one split, one shard fan-out, one merge.

use rasa_lp::Deadline;
use rasa_model::Problem;
use rasa_solver::{PopOptions, PopStrategy, ScheduleOutcome, Scheduler};

/// The POP baseline.
#[derive(Clone, Debug)]
pub struct Pop {
    /// Number of random subproblems.
    pub parts: usize,
    /// RNG seed for the random split.
    pub seed: u64,
}

impl Default for Pop {
    fn default() -> Self {
        Pop { parts: 8, seed: 0 }
    }
}

impl Pop {
    /// POP with `parts` subproblems.
    pub fn with_parts(parts: usize, seed: u64) -> Self {
        Pop {
            parts: parts.max(1),
            seed,
        }
    }
}

impl Scheduler for Pop {
    fn name(&self) -> &'static str {
        "POP"
    }

    fn schedule(&self, problem: &Problem, deadline: Deadline) -> ScheduleOutcome {
        PopStrategy::new(PopOptions {
            parts: self.parts,
            seed: self.seed,
            complete: true,
            ..Default::default()
        })
        .schedule(problem, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{validate, FeatureMask, ProblemBuilder, ResourceVec};
    use rasa_solver::MipBased;

    fn coupled_problem() -> Problem {
        // heavy pairs that POP's random split will often separate
        let mut b = ProblemBuilder::new();
        let svcs: Vec<_> = (0..12)
            .map(|i| b.add_service(format!("s{i}"), 2, ResourceVec::cpu_mem(1.0, 1.0)))
            .collect();
        b.add_machines(8, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        for i in 0..6 {
            b.add_affinity(svcs[2 * i], svcs[2 * i + 1], 10.0);
        }
        b.build().unwrap()
    }

    #[test]
    fn produces_feasible_complete_placements() {
        let p = coupled_problem();
        let out = Pop::default().schedule(&p, Deadline::none());
        assert!(validate(&p, &out.placement, true).is_empty());
    }

    #[test]
    fn single_part_equals_plain_mip_quality() {
        let p = coupled_problem();
        let pop = Pop::with_parts(1, 0).schedule(&p, Deadline::none());
        let mip = MipBased::new().schedule(&p, Deadline::none());
        assert!(
            (pop.gained_affinity - mip.gained_affinity).abs() < 1e-6,
            "pop {} vs mip {}",
            pop.gained_affinity,
            mip.gained_affinity
        );
    }

    #[test]
    fn baseline_and_strategy_rung_share_the_split() {
        // the baseline is the solver-layer POP rung under another name:
        // mirrored configuration → the same placement, not just the same
        // objective (split, shard order, merge order and completion agree)
        let p = coupled_problem();
        for seed in [0u64, 7, 42] {
            let base = Pop { parts: 4, seed }.schedule(&p, Deadline::none());
            let rung = PopStrategy::new(PopOptions {
                parts: 4,
                seed,
                complete: true,
                ..Default::default()
            })
            .schedule(&p, Deadline::none());
            assert_eq!(base.placement, rung.placement, "seed {seed}");
            assert!(validate(&p, &base.placement, true).is_empty());
        }
    }

    #[test]
    fn random_split_loses_affinity_versus_single_part() {
        let p = coupled_problem();
        let whole = Pop::with_parts(1, 0).schedule(&p, Deadline::none());
        // average over seeds: splitting must not beat the unsplit solve,
        // and usually loses strictly
        let mut worse = 0;
        for seed in 0..5 {
            let split = Pop::with_parts(4, seed).schedule(&p, Deadline::none());
            assert!(split.gained_affinity <= whole.gained_affinity + 1e-6);
            if split.gained_affinity < whole.gained_affinity - 1e-6 {
                worse += 1;
            }
        }
        assert!(
            worse >= 1,
            "random splits should lose affinity at least sometimes"
        );
    }
}
