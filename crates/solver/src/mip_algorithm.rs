//! The MIP-based scheduling algorithm (Section IV-C1): build the RASA
//! formulation and hand it to branch-and-bound.

use crate::completion::complete_placement;
use crate::formulation::{FormulationKind, RasaFormulation};
use crate::scheduler::{ScheduleOutcome, Scheduler};
use rasa_lp::Deadline;
use rasa_mip::{MipOptions, MipStatus};
use rasa_model::{Placement, Problem};
use std::time::Instant;

/// Row budget for choosing the exact formulation: [`MipBasedOptions::kind_for`]
/// picks the *exact* per-machine formulation while the estimated row count
/// stays within it, otherwise the machine-group aggregation (the paper's
/// `a_{s,s',g}` indexing). Exactness matters: the aggregated model's bound
/// is not always realizable per machine, and the paper aims the MIP
/// algorithm at small subproblems where exact solving is affordable.
pub const MAX_EXACT_ROWS: usize = 2_600;

/// Options for [`MipBased`].
#[derive(Clone, Debug)]
pub struct MipBasedOptions {
    /// Branch-and-bound knobs.
    pub mip: MipOptions,
    /// Run the default-scheduler completion pass on the result so trivial
    /// services and failed deployments are placed too.
    pub complete: bool,
    /// Also create variables for services without affinity edges.
    pub include_non_affinity: bool,
}

impl Default for MipBasedOptions {
    fn default() -> Self {
        MipBasedOptions {
            mip: MipOptions::default(),
            complete: true,
            include_non_affinity: false,
        }
    }
}

impl MipBasedOptions {
    /// Resolve the formulation kind for `problem` against [`MAX_EXACT_ROWS`].
    pub fn kind_for(&self, problem: &Problem) -> FormulationKind {
        // estimated dominant row count of the exact model: 2 affinity rows
        // per edge per machine plus resources
        let m = problem.num_machines();
        let est = problem.num_services() + 4 * m + 2 * problem.affinity_edges.len() * m;
        if est <= MAX_EXACT_ROWS {
            FormulationKind::PerMachine
        } else {
            FormulationKind::MachineGroup
        }
    }
}

/// The MIP-based member of the scheduling algorithm pool.
///
/// *Characteristics* (paper): optimal within tolerance, exponential runtime
/// — right for small subproblems with significant total affinity.
#[derive(Clone, Debug, Default)]
pub struct MipBased {
    /// Options for this run.
    pub options: MipBasedOptions,
}

impl MipBased {
    /// MIP-based algorithm with default options.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for MipBased {
    fn name(&self) -> &'static str {
        "MIP"
    }

    fn schedule(&self, problem: &Problem, deadline: Deadline) -> ScheduleOutcome {
        let start = Instant::now();
        let kind = self.options.kind_for(problem);
        let _fs = rasa_obs::flight::span_with("solve.mip", &[("formulation", format!("{kind:?}"))]);
        let formulation = RasaFormulation::build(problem, kind, self.options.include_non_affinity);

        // Anytime floor: the LP relaxation's fractional solution, repaired
        // by `extract_placement`'s exact per-machine de-aggregation, is a
        // strong feasible schedule available after a single LP solve —
        // branch-and-bound then only has to beat it within the deadline.
        let lp_sol = formulation
            .mip()
            .lp()
            .solve_with(&self.options.mip.lp, deadline);
        let mut placement = if lp_sol.feasible {
            formulation.extract_placement(problem, &lp_sol.x)
        } else {
            Placement::empty_for(problem)
        };

        let sol = formulation.mip().solve_with(&self.options.mip, deadline);
        if sol.has_incumbent() {
            let bb_placement = formulation.extract_placement(problem, &sol.x);
            if rasa_model::gained_affinity(problem, &bb_placement)
                > rasa_model::gained_affinity(problem, &placement)
            {
                placement = bb_placement;
            }
        }
        if self.options.complete {
            complete_placement(problem, &mut placement);
        }
        ScheduleOutcome::evaluate(
            problem,
            placement,
            start.elapsed(),
            sol.status == MipStatus::Optimal,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{validate, FeatureMask, ProblemBuilder, ResourceVec};
    use std::time::Duration;

    fn chain_problem() -> Problem {
        // four services in a weighted chain; machines fit two services' worth
        let mut b = ProblemBuilder::new();
        let s: Vec<_> = (0..4)
            .map(|i| b.add_service(format!("s{i}"), 2, ResourceVec::cpu_mem(2.0, 2.0)))
            .collect();
        b.add_machines(4, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(s[0], s[1], 10.0);
        b.add_affinity(s[1], s[2], 1.0);
        b.add_affinity(s[2], s[3], 10.0);
        b.build().expect("problem builds")
    }

    #[test]
    fn solves_chain_optimally() {
        let p = chain_problem();
        let out = MipBased::new().schedule(&p, Deadline::none());
        assert!(out.completed);
        // Collocate (s0,s1) and (s2,s3) fully: 10 + 10 gained; middle edge
        // worth 1 at most partially. Optimal keeps the heavy edges whole.
        assert!(
            out.gained_affinity >= 20.0 - 1e-6,
            "gained {}",
            out.gained_affinity
        );
        assert!(
            validate(&p, &out.placement, true).is_empty(),
            "SLA complete"
        );
    }

    #[test]
    fn exact_and_aggregated_agree_on_objective() {
        let p = chain_problem();
        let realized = |kind| {
            let f = RasaFormulation::build(&p, kind, false);
            let sol = f.mip().solve();
            assert_eq!(sol.status, MipStatus::Optimal, "{kind:?}");
            rasa_model::gained_affinity(&p, &f.extract_placement(&p, &sol.x))
        };
        let exact = realized(FormulationKind::PerMachine);
        let agg = realized(FormulationKind::MachineGroup);
        assert!(
            (exact - agg).abs() < 1e-6,
            "exact {exact} vs aggregated {agg}"
        );
    }

    #[test]
    fn kind_for_switches_above_max_exact_rows() {
        // 10 machines and 127 edges among 20 services estimate
        // 20 + 4·10 + 2·127·10 = 2,600 rows; one more service tips it over.
        let problem = |services: usize| {
            let mut b = ProblemBuilder::new();
            let s: Vec<_> = (0..services)
                .map(|i| b.add_service(format!("s{i}"), 1, ResourceVec::cpu_mem(1.0, 1.0)))
                .collect();
            b.add_machines(10, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
            let pairs = (0..20).flat_map(|i| (i + 1..20).map(move |j| (i, j)));
            for (i, j) in pairs.take(127) {
                b.add_affinity(s[i], s[j], 1.0);
            }
            b.build().expect("problem builds")
        };
        let options = MipBasedOptions::default();
        assert_eq!(MAX_EXACT_ROWS, 2_600);
        assert_eq!(options.kind_for(&problem(20)), FormulationKind::PerMachine);
        assert_eq!(
            options.kind_for(&problem(21)),
            FormulationKind::MachineGroup
        );
    }

    #[test]
    fn completion_places_trivial_services() {
        let mut b = ProblemBuilder::new();
        let a = b.add_service("a", 1, ResourceVec::cpu_mem(1.0, 1.0));
        let c = b.add_service("b", 1, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_service("trivial", 3, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        b.add_affinity(a, c, 1.0);
        let p = b.build().expect("problem builds");
        let out = MipBased::new().schedule(&p, Deadline::none());
        assert!(validate(&p, &out.placement, true).is_empty());
        assert_eq!(out.placement.total_placed(), 5);
    }

    #[test]
    fn deadline_zero_still_returns_valid_outcome() {
        let p = chain_problem();
        let out = MipBased::new().schedule(&p, Deadline::after(Duration::ZERO));
        // nothing from the MIP, but completion still yields a feasible placement
        assert!(validate(&p, &out.placement, false).is_empty());
        assert!(!out.completed);
    }
}
