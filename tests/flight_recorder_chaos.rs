//! End-to-end flight-recorder drill: a chaos run with a mid-solve machine
//! death *and* an injected solver panic must leave a black-box dump on
//! disk whose span tree reaches the solver layer and whose event log
//! records the fallback-ladder transition — the exact artifact an on-call
//! engineer would open after a degraded production solve.

#![allow(clippy::unwrap_used)]

use rasa_core::{FaultInjection, RasaConfig, RasaPipeline};
use rasa_migrate::MigrateConfig;
use rasa_model::MachineId;
use rasa_obs::{FlightConfig, FlightRecording, TraceEvent, BLACKBOX_SCHEMA_VERSION};
use rasa_sim::chaos::{run_chaos, ChaosEvent, ChaosSchedule};
use rasa_trace::{generate, tiny_cluster};

#[test]
fn chaos_machine_death_black_boxes_the_solve() {
    let dump_dir = std::env::temp_dir().join(format!(
        "rasa_flight_chaos_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dump_dir);
    rasa_obs::recorder().configure(FlightConfig {
        dump_dir: Some(dump_dir.clone()),
        max_dumps: 64,
        ..FlightConfig::default()
    });

    // the optimizer under test: the full pipeline, sequential so the whole
    // solve nests into one recording, with every primary solve panicking —
    // each subproblem must descend the fallback ladder
    let pipeline = RasaPipeline::new(RasaConfig {
        parallel: false,
        fault_injection: FaultInjection::PanicAlways,
        ..Default::default()
    });
    let problem = generate(&tiny_cluster(3));
    let schedule = ChaosSchedule {
        seed: 3,
        events: vec![ChaosEvent::MidSolveFailure {
            machines: vec![MachineId(0)],
        }],
    };
    let report = run_chaos(&problem, &pipeline, &schedule, &MigrateConfig::default());
    rasa_obs::recorder().set_enabled(false);
    assert!(report.is_clean(), "violations: {:?}", report.violations);

    // the fault round must have produced a parseable black box
    let dumps: Vec<FlightRecording> = std::fs::read_dir(&dump_dir)
        .expect("dump dir exists")
        .map(|e| std::fs::read_to_string(e.unwrap().path()).unwrap())
        .map(|text| FlightRecording::from_json(&text).expect("dump parses"))
        .collect();
    assert!(!dumps.is_empty(), "no black-box dumps written");
    let round = dumps
        .iter()
        .find(|d| d.verdict == "mid_solve_failure")
        .expect("fault round was dumped");
    assert_eq!(round.schema_version, BLACKBOX_SCHEMA_VERSION);
    assert!(round.degraded);
    assert!(!round.sampled, "degraded dumps are unconditional");

    // span tree reaches the solver layer: chaos round → pipeline →
    // subproblem guard → ladder rung → an actual solver span
    assert_eq!(round.root.name, "chaos.round");
    for span in [
        "pipeline.run",
        "pipeline.solve",
        "solve.subproblem",
        "solve.rung",
    ] {
        assert!(round.root.find(span).is_some(), "span {span} missing");
    }
    let solver_depth = ["mip.bnb", "lp.simplex", "cg.solve"]
        .iter()
        .filter_map(|s| round.root.depth_of(s))
        .max()
        .expect("no solver-layer span in the dump");
    assert!(
        solver_depth >= 5,
        "solver span too shallow: depth {solver_depth}"
    );

    // the injected panic forced the ladder: every transition walks down
    // to a fallback algorithm or to the completion floor, and one leaves
    // the panicking primary
    let transitions: Vec<(u64, u64, &str)> = round
        .events
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::FallbackTransition {
                from_rung,
                to_rung,
                to,
                ..
            } => Some((*from_rung, *to_rung, to.as_str())),
            _ => None,
        })
        .collect();
    assert!(
        !transitions.is_empty(),
        "no fallback-ladder transition recorded"
    );
    for &(from_rung, to_rung, to) in &transitions {
        assert!(to_rung > from_rung, "{from_rung} -> {to_rung} is not down");
        assert!(
            ["MIP", "CG", "POP", "GREEDY", "completion"].contains(&to),
            "transition to {to:?} names no fallback"
        );
    }
    assert!(
        transitions.iter().any(|&(from_rung, _, _)| from_rung == 0),
        "no transition leaves the primary rung"
    );

    let _ = std::fs::remove_dir_all(&dump_dir);
}
