//! The production experiment (Section V-F, Figs 11–13): run a churning
//! cluster twice — WITH RASA (a scheduler drives the CronJob) and WITHOUT
//! RASA (containers stay where churn puts them) — and record per-pair
//! latency/error time series plus the ONLY-COLLOCATED bound.

use crate::cronjob::{apply_churn, CronJob, CronJobConfig};
use crate::network::NetworkModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rasa_model::{gained_affinity_of_edge, Placement, Problem, ServiceId};
use rasa_solver::Scheduler;
use serde::Serialize;

/// Experiment knobs.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Number of CronJob ticks to simulate (the paper's cadence is one per
    /// half hour; 48 ticks ≈ one day).
    pub ticks: usize,
    /// Fraction of services churned (redeployed affinity-blind) per tick.
    pub churn_fraction: f64,
    /// How many top-weight service pairs to track individually (the paper
    /// shows four critical pairs).
    pub tracked_pairs: usize,
    /// Network parameters.
    pub network: NetworkModel,
    /// CronJob configuration (threshold, optimizer budget, collector noise).
    pub cron: CronJobConfig,
    /// Seed for churn/noise.
    pub seed: u64,
    /// Amplitude of the diurnal traffic cycle in [0, 1): edge weights (and
    /// hence QPS weighting) swing sinusoidally over a 48-tick day. 0
    /// disables. Production traffic is strongly diurnal, and the CronJob
    /// must keep the placement good across the whole cycle.
    pub diurnal_amplitude: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            ticks: 48,
            churn_fraction: 0.03,
            tracked_pairs: 4,
            network: NetworkModel::default(),
            cron: CronJobConfig::default(),
            seed: 0,
            diurnal_amplitude: 0.25,
        }
    }
}

/// Time series for one tracked service pair.
#[derive(Clone, Debug, Serialize)]
pub struct PairSeries {
    /// The pair.
    pub pair: (ServiceId, ServiceId),
    /// Traffic weight (∝ QPS share).
    pub weight: f64,
    /// Per-tick latency WITH RASA (ms).
    pub latency_with: Vec<f64>,
    /// Per-tick latency WITHOUT RASA (ms).
    pub latency_without: Vec<f64>,
    /// Per-tick latency of the ONLY-COLLOCATED bound (ms).
    pub latency_collocated: Vec<f64>,
    /// Per-tick error rate WITH RASA.
    pub error_with: Vec<f64>,
    /// Per-tick error rate WITHOUT RASA.
    pub error_without: Vec<f64>,
    /// Per-tick error rate of the ONLY-COLLOCATED bound.
    pub error_collocated: Vec<f64>,
}

/// Full experiment output.
#[derive(Clone, Debug, Serialize)]
pub struct ExperimentReport {
    /// Tracked pairs' series (Figs 11–12).
    pub pairs: Vec<PairSeries>,
    /// QPS-weighted mean latency per tick, WITH RASA (Fig 13 left).
    pub weighted_latency_with: Vec<f64>,
    /// QPS-weighted mean latency per tick, WITHOUT RASA.
    pub weighted_latency_without: Vec<f64>,
    /// QPS-weighted mean latency per tick at full collocation.
    pub weighted_latency_collocated: Vec<f64>,
    /// QPS-weighted error per tick, WITH RASA (Fig 13 right).
    pub weighted_error_with: Vec<f64>,
    /// QPS-weighted error per tick, WITHOUT RASA.
    pub weighted_error_without: Vec<f64>,
    /// QPS-weighted error per tick at full collocation.
    pub weighted_error_collocated: Vec<f64>,
    /// Total containers moved across all RASA migrations.
    pub total_moves: usize,
    /// Ticks on which the CronJob actually migrated (vs dry-run).
    pub migrations: usize,
    /// Fraction of total containers relocated per executed migration
    /// (Section III-B claims < 5%).
    pub moves_per_migration_fraction: Vec<f64>,
}

impl ExperimentReport {
    /// Mean relative improvement of WITH over WITHOUT for weighted latency
    /// (the paper's headline 23.75%).
    pub fn latency_improvement(&self) -> f64 {
        mean_improvement(&self.weighted_latency_with, &self.weighted_latency_without)
    }

    /// Mean relative improvement of WITH over WITHOUT for weighted error
    /// rate (the paper's 24.09%).
    pub fn error_improvement(&self) -> f64 {
        mean_improvement(&self.weighted_error_with, &self.weighted_error_without)
    }
}

fn mean_improvement(with: &[f64], without: &[f64]) -> f64 {
    let w: f64 = with.iter().sum::<f64>() / with.len().max(1) as f64;
    let wo: f64 = without.iter().sum::<f64>() / without.len().max(1) as f64;
    if wo <= 0.0 {
        0.0
    } else {
        (wo - w) / wo
    }
}

/// Run the experiment. `initial` is the starting placement (typically the
/// ORIGINAL baseline's output); `scheduler` drives the WITH-RASA arm.
pub fn run_production_experiment(
    problem: &Problem,
    initial: &Placement,
    scheduler: &dyn Scheduler,
    config: &ExperimentConfig,
) -> ExperimentReport {
    // tracked pairs: heaviest edges
    let mut edge_order: Vec<usize> = (0..problem.affinity_edges.len()).collect();
    edge_order.sort_by(|&a, &b| {
        // total_cmp: admission repairs non-finite weights, but a total
        // order keeps the sort panic-free even on un-admitted input
        problem.affinity_edges[b]
            .weight
            .total_cmp(&problem.affinity_edges[a].weight)
    });
    let tracked: Vec<usize> = edge_order
        .iter()
        .copied()
        .take(config.tracked_pairs)
        .collect();

    let mut pairs: Vec<PairSeries> = tracked
        .iter()
        .map(|&ei| {
            let e = &problem.affinity_edges[ei];
            PairSeries {
                pair: (e.a, e.b),
                weight: e.weight,
                latency_with: Vec::with_capacity(config.ticks),
                latency_without: Vec::with_capacity(config.ticks),
                latency_collocated: Vec::with_capacity(config.ticks),
                error_with: Vec::with_capacity(config.ticks),
                error_without: Vec::with_capacity(config.ticks),
                error_collocated: Vec::with_capacity(config.ticks),
            }
        })
        .collect();

    let cron = CronJob::new(config.cron.clone());
    // Both arms share churn randomness so the comparison is paired.
    let mut rng_with = StdRng::seed_from_u64(config.seed);
    let mut rng_without = StdRng::seed_from_u64(config.seed);
    let mut rng_obs = StdRng::seed_from_u64(config.seed.wrapping_add(1));

    let mut with_placement = initial.clone();
    let mut without_placement = initial.clone();
    let total_containers: f64 = problem
        .services
        .iter()
        .map(|s| f64::from(s.replicas))
        .sum::<f64>()
        .max(1.0);

    let report_weighted = |placement: &Placement, rng: &mut StdRng| -> (f64, f64) {
        // all edges weighted by traffic (∝ QPS)
        let mut total_w = 0.0;
        let mut lat = 0.0;
        let mut err = 0.0;
        for (ei, e) in problem.affinity_edges.iter().enumerate() {
            let localized = gained_affinity_of_edge(problem, placement, ei) / e.weight;
            lat += e.weight * config.network.observe_latency(localized, rng);
            err += e.weight * config.network.observe_error_rate(localized, rng);
            total_w += e.weight;
        }
        if total_w > 0.0 {
            (lat / total_w, err / total_w)
        } else {
            (0.0, 0.0)
        }
    };

    let mut weighted_latency_with = Vec::with_capacity(config.ticks);
    let mut weighted_latency_without = Vec::with_capacity(config.ticks);
    let mut weighted_latency_collocated = Vec::with_capacity(config.ticks);
    let mut weighted_error_with = Vec::with_capacity(config.ticks);
    let mut weighted_error_without = Vec::with_capacity(config.ticks);
    let mut weighted_error_collocated = Vec::with_capacity(config.ticks);
    let mut total_moves = 0usize;
    let mut migrations = 0usize;
    let mut moves_per_migration_fraction = Vec::new();

    for tick in 0..config.ticks {
        // diurnal cycle: all traffic swings together over a 48-tick day
        let phase = 2.0 * std::f64::consts::PI * (tick as f64) / 48.0;
        let diurnal = 1.0 + config.diurnal_amplitude * phase.sin();
        let mut problem_now = problem.clone();
        if config.diurnal_amplitude > 0.0 {
            for e in problem_now.affinity_edges.iter_mut() {
                e.weight *= diurnal;
            }
        }
        let problem = &problem_now;
        // churn hits both arms identically
        apply_churn(
            problem,
            &mut with_placement,
            config.churn_fraction,
            &mut rng_with,
        );
        apply_churn(
            problem,
            &mut without_placement,
            config.churn_fraction,
            &mut rng_without,
        );

        // WITH arm: the CronJob may re-optimize
        if let crate::cronjob::TickOutcome::Migrated { moves, .. } =
            cron.tick(problem, &mut with_placement, scheduler, &mut rng_with)
        {
            total_moves += moves;
            migrations += 1;
            moves_per_migration_fraction.push(moves as f64 / total_containers);
        }

        // observe tracked pairs
        for (k, &ei) in tracked.iter().enumerate() {
            let e = &problem.affinity_edges[ei];
            let f_with = gained_affinity_of_edge(problem, &with_placement, ei) / e.weight;
            let f_without = gained_affinity_of_edge(problem, &without_placement, ei) / e.weight;
            pairs[k]
                .latency_with
                .push(config.network.observe_latency(f_with, &mut rng_obs));
            pairs[k]
                .latency_without
                .push(config.network.observe_latency(f_without, &mut rng_obs));
            pairs[k]
                .latency_collocated
                .push(config.network.observe_latency(1.0, &mut rng_obs));
            pairs[k]
                .error_with
                .push(config.network.observe_error_rate(f_with, &mut rng_obs));
            pairs[k]
                .error_without
                .push(config.network.observe_error_rate(f_without, &mut rng_obs));
            pairs[k]
                .error_collocated
                .push(config.network.observe_error_rate(1.0, &mut rng_obs));
        }

        // weighted cluster-wide metrics
        let (lw, ew) = report_weighted(&with_placement, &mut rng_obs);
        let (lo, eo) = report_weighted(&without_placement, &mut rng_obs);
        weighted_latency_with.push(lw);
        weighted_error_with.push(ew);
        weighted_latency_without.push(lo);
        weighted_error_without.push(eo);
        weighted_latency_collocated.push(config.network.observe_latency(1.0, &mut rng_obs));
        weighted_error_collocated.push(config.network.observe_error_rate(1.0, &mut rng_obs));
    }

    ExperimentReport {
        pairs,
        weighted_latency_with,
        weighted_latency_without,
        weighted_latency_collocated,
        weighted_error_with,
        weighted_error_without,
        weighted_error_collocated,
        total_moves,
        migrations,
        moves_per_migration_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{FeatureMask, ProblemBuilder, ResourceVec};
    use rasa_solver::MipBased;

    fn problem() -> Problem {
        let mut b = ProblemBuilder::new();
        let svcs: Vec<_> = (0..8)
            .map(|i| b.add_service(format!("s{i}"), 2, ResourceVec::cpu_mem(1.0, 1.0)))
            .collect();
        b.add_machines(6, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
        for i in 0..4 {
            b.add_affinity(svcs[2 * i], svcs[2 * i + 1], 10.0 - i as f64);
        }
        b.build().expect("well-formed test cluster")
    }

    #[test]
    fn with_rasa_beats_without_on_both_metrics() {
        let p = problem();
        let initial = crate::cronjob::tests_support::scattered_placement(&p);
        let cfg = ExperimentConfig {
            ticks: 12,
            churn_fraction: 0.1,
            cron: CronJobConfig {
                collector: crate::collector::DataCollector {
                    measurement_noise: 0.0,
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let report = run_production_experiment(&p, &initial, &MipBased::new(), &cfg);
        assert!(
            report.latency_improvement() > 0.05,
            "latency improvement {}",
            report.latency_improvement()
        );
        assert!(
            report.error_improvement() > 0.05,
            "error improvement {}",
            report.error_improvement()
        );
        assert!(report.migrations >= 1);
        assert_eq!(report.pairs.len(), 4);
        assert_eq!(report.weighted_latency_with.len(), 12);
    }

    #[test]
    fn collocated_bound_dominates_both_arms() {
        let p = problem();
        let initial = MipBased::new()
            .schedule(&p, rasa_lp::Deadline::none())
            .placement;
        let cfg = ExperimentConfig {
            ticks: 6,
            ..Default::default()
        };
        let report = run_production_experiment(&p, &initial, &MipBased::new(), &cfg);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&report.weighted_latency_collocated) <= mean(&report.weighted_latency_with) + 0.05,
            "collocated bound must be (near) the best"
        );
    }

    #[test]
    fn churn_fraction_zero_keeps_without_arm_static() {
        let p = problem();
        let initial = MipBased::new()
            .schedule(&p, rasa_lp::Deadline::none())
            .placement;
        let cfg = ExperimentConfig {
            ticks: 4,
            churn_fraction: 0.0,
            ..Default::default()
        };
        let report = run_production_experiment(&p, &initial, &MipBased::new(), &cfg);
        // starting from the optimum with no churn: both arms equal up to noise
        let w = report.latency_improvement().abs();
        assert!(w < 0.1, "improvement should be ~0, got {w}");
    }
}
