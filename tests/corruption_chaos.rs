//! Corruption-chaos acceptance drill: a deliberately poisoned
//! [`SolveCache`] entry must be caught by the certification gate, black-
//! boxed by the flight recorder, and re-solved through the fallback
//! ladder — and a long seeded corruption campaign must finish with zero
//! panics and zero uncertified placements.

#![allow(clippy::unwrap_used)]

use rasa_core::{Deadline, RasaConfig, RasaPipeline, SolveCache};
use rasa_model::{MachineId, ServiceId};
use rasa_obs::{FlightConfig, FlightRecording, TraceEvent, BLACKBOX_SCHEMA_VERSION};
use rasa_sim::corruption::run_corruption_campaign;
use rasa_trace::{generate, tiny_cluster};
use std::sync::Mutex;

/// The flight recorder is process-global; serialize the tests so the
/// campaign's own degraded rounds cannot dump into the poisoned-cache
/// test's directory mid-assertion.
static SERIAL: Mutex<()> = Mutex::new(());

/// Gate 2 on the replay path, end to end: poison every cached entry —
/// one structurally (an out-of-range machine that would index out of
/// bounds inside validation), the rest by objective — then assert the
/// warm round replays nothing, reproduces the honest objective, and
/// leaves a `certify_failed` black box naming the cache as the source.
#[test]
fn poisoned_cache_entry_is_certify_rejected_and_black_boxed() {
    let _serial = SERIAL.lock().unwrap();
    let dump_dir = std::env::temp_dir().join(format!(
        "rasa_corruption_chaos_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dump_dir);
    rasa_obs::recorder().configure(FlightConfig {
        dump_dir: Some(dump_dir.clone()),
        max_dumps: 64,
        ..FlightConfig::default()
    });

    // sequential so each round nests into a single recording
    let pipeline = RasaPipeline::new(RasaConfig {
        parallel: false,
        ..Default::default()
    });
    let problem = generate(&tiny_cluster(11));
    let cache = SolveCache::new();
    let cold = pipeline.optimize_with_cache(&problem, None, Deadline::none(), Some(&cache));

    let fps = cache.fingerprints();
    assert!(!fps.is_empty(), "cold round populated the cache");
    for (i, fp) in fps.iter().enumerate() {
        let mut entry = cache.lookup(*fp).expect("cached entry");
        if i == 0 {
            // structural poison: a machine id far past the fleet
            entry.placement.add(ServiceId(0), MachineId(9_999), 1);
        } else {
            // objective poison: claimed affinity no longer matches
            entry.gained_affinity += 100.0;
        }
        cache.store(*fp, entry);
    }

    let warm = pipeline.optimize_with_cache(&problem, None, Deadline::none(), Some(&cache));
    rasa_obs::recorder().set_enabled(false);

    let stats = warm.cache.expect("stats with cache");
    assert_eq!(stats.hits, 0, "no poisoned entry may replay");
    assert_eq!(stats.misses, fps.len(), "every poisoned entry re-solved");
    assert!(
        (warm.outcome.gained_affinity - cold.outcome.gained_affinity).abs() < 1e-9,
        "re-solve reproduces the honest objective: cold {} vs warm {}",
        cold.outcome.gained_affinity,
        warm.outcome.gained_affinity
    );

    // the fresh solves overwrote the poison, so a third round replays
    let round3 = pipeline.optimize_with_cache(&problem, None, Deadline::none(), Some(&cache));
    assert_eq!(round3.cache.expect("stats").hits, fps.len());

    // the warm round left a black box: verdict `certify_failed`, with a
    // certification-failure event per poisoned entry naming the cache
    let dumps: Vec<FlightRecording> = std::fs::read_dir(&dump_dir)
        .expect("dump dir exists")
        .map(|e| std::fs::read_to_string(e.unwrap().path()).unwrap())
        .map(|text| FlightRecording::from_json(&text).expect("dump parses"))
        .collect();
    let round = dumps
        .iter()
        .find(|d| d.verdict == "certify_failed")
        .expect("poisoned round was dumped");
    assert_eq!(round.schema_version, BLACKBOX_SCHEMA_VERSION);
    assert!(round.degraded, "cache poisoning degrades the round");
    assert_eq!(round.root.name, "pipeline.run");
    let mut failures = 0;
    for e in &round.events {
        if let TraceEvent::CertifyFailure {
            claimed_objective,
            recomputed_objective,
            source,
            ..
        } = &e.event
        {
            failures += 1;
            assert_eq!(source, "solve_cache", "the replay path is the source");
            assert_ne!(
                claimed_objective, recomputed_objective,
                "a poisoned entry's claim disagrees with the recomputation"
            );
        }
    }
    assert_eq!(failures, fps.len(), "one event per poisoned entry");

    let _ = std::fs::remove_dir_all(&dump_dir);
}

/// The acceptance bar from the issue: at least 50 seeded corruption
/// rounds — cycling every injector — with zero panics and zero
/// uncertified placements. The CI chaos job runs the same campaign via
/// the `chaos corruption` binary with the same seed.
#[test]
fn fifty_five_round_corruption_campaign_is_clean() {
    let _serial = SERIAL.lock().unwrap();
    let report = run_corruption_campaign(42, 55);
    assert_eq!(report.rounds.len(), 55);
    assert!(
        report.is_clean(),
        "panics: {}, uncertified: {}, dirty rounds: {:?}",
        report.panics,
        report.uncertified,
        report
            .rounds
            .iter()
            .filter(|r| r.panicked || !r.certified)
            .collect::<Vec<_>>()
    );
    assert!(
        report.rounds.iter().any(|r| r.quarantined > 0),
        "campaign exercised the admission gate"
    );
}
