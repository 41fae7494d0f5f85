//! Warm-start regression: a seeded cluster perturbed by one machine death
//! must re-solve through the [`SolveCache`] to the same quality as a cold
//! solve of the perturbed problem, while replaying every subproblem the
//! death did not touch.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rasa_core::{Deadline, RasaConfig, RasaPipeline, SelectorChoice, SolveCache};
use rasa_model::{validate, FeatureMask, Problem, ProblemBuilder, ResourceVec, Service, ServiceId};

/// A seeded two-zone cluster. Each zone's services require that zone's
/// feature and have affinity only among themselves, so the partitioner
/// yields (at least) one subproblem per zone and a machine death in one
/// zone cannot reshape the other zone's subproblems.
fn seeded_two_zone_cluster(seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ProblemBuilder::new();
    let mut id = 0u32;
    for zone in 0..2u8 {
        let feature = FeatureMask::bit(zone as u32);
        let mut zone_services = Vec::new();
        for i in 0..4 {
            let replicas = rng.gen_range(2..=4);
            let svc = Service::new(
                ServiceId(id),
                format!("z{zone}-s{i}"),
                replicas,
                ResourceVec::cpu_mem(1.0, 1.0),
            )
            .with_features(feature);
            zone_services.push(b.add_service_full(svc));
            id += 1;
        }
        // a chain plus one chord keeps the zone one connected community
        for w in zone_services.windows(2) {
            b.add_affinity(w[0], w[1], rng.gen_range(1.0..5.0));
        }
        b.add_affinity(zone_services[0], zone_services[3], rng.gen_range(1.0..5.0));
        b.add_machines(4, ResourceVec::cpu_mem(16.0, 16.0), feature);
    }
    b.build().unwrap()
}

/// The perturbation: the last zone-1 machine dies. Zeroing its capacity
/// (rather than removing it) keeps every machine id stable, the way a real
/// cluster keeps a dead node's identity on the books until it is drained.
fn kill_machine(problem: &Problem, index: usize) -> Problem {
    let mut dead = problem.clone();
    dead.machines[index].capacity = ResourceVec::ZERO;
    dead
}

#[test]
fn machine_death_resolve_matches_cold_solve_with_cache_hits() {
    let problem = seeded_two_zone_cluster(42);
    let pipeline = RasaPipeline::new(RasaConfig {
        // the MIP pool member solves these subproblems to optimality, so
        // warm and cold runs must agree bit-for-bit on the objective
        selector: SelectorChoice::AlwaysMip,
        ..Default::default()
    });

    // round 1: populate the cache on the healthy cluster
    let cache = SolveCache::new();
    let healthy = pipeline.optimize_with_cache(&problem, None, Deadline::none(), Some(&cache));
    assert!(!healthy.is_degraded());
    let healthy_stats = healthy.cache.expect("cache stats");
    assert_eq!(healthy_stats.hits, 0);
    assert!(healthy_stats.misses >= 2, "two zones → at least two solves");

    // round 2: one machine in zone 1 dies
    let dead = kill_machine(&problem, problem.machines.len() - 1);
    let cold = pipeline.optimize(&dead, None, Deadline::none());
    let warm = pipeline.optimize_with_cache(&dead, None, Deadline::none(), Some(&cache));

    // the death invalidated zone 1's subproblem but zone 0's replayed
    let stats = warm.cache.expect("cache stats");
    assert!(stats.hits >= 1, "untouched zone must replay: {stats:?}");
    assert!(stats.misses >= 1, "dead zone must re-solve: {stats:?}");
    assert!(
        stats.invalidations >= 1,
        "stale zone-1 entry must be evicted: {stats:?}"
    );
    assert!(warm.subproblems.iter().any(|r| r.cache_hit));
    assert!(warm.subproblems.iter().any(|r| !r.cache_hit));

    // warm-started quality equals the cold solve of the same problem
    assert!(
        (warm.outcome.normalized_gained_affinity - cold.outcome.normalized_gained_affinity).abs()
            < 1e-9,
        "warm {} vs cold {}",
        warm.outcome.normalized_gained_affinity,
        cold.outcome.normalized_gained_affinity
    );
    assert!(validate(&dead, &warm.outcome.placement, true).is_empty());
    assert!(validate(&dead, &cold.outcome.placement, true).is_empty());

    // and the dead machine hosts nothing
    let dead_id = dead.machines.last().unwrap().id;
    for svc in &dead.services {
        assert_eq!(
            warm.outcome.placement.count(svc.id, dead_id),
            0,
            "container placed on the dead machine"
        );
    }
}

#[test]
fn steady_state_rounds_replay_everything() {
    let problem = seeded_two_zone_cluster(7);
    let pipeline = RasaPipeline::default();
    let cache = SolveCache::new();
    let first = pipeline.optimize_with_cache(&problem, None, Deadline::none(), Some(&cache));
    let second = pipeline.optimize_with_cache(&problem, None, Deadline::none(), Some(&cache));
    let stats = second.cache.expect("cache stats");
    assert_eq!(stats.misses, 0, "identical round must be all hits");
    assert!(stats.hits >= 2);
    assert_eq!(stats.invalidations, 0);
    assert!(second.subproblems.iter().all(|r| r.cache_hit));
    assert!(
        (second.outcome.normalized_gained_affinity - first.outcome.normalized_gained_affinity)
            .abs()
            < 1e-12
    );
}
