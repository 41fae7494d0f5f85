//! End-to-end soak: the seeded churn campaign against a live in-process
//! `rasa-serve` daemon must finish with zero panics, zero uncertified
//! publishes, bounded tenant state, and a clean drain — the acceptance
//! test for the service layer's robustness contract.

#![allow(clippy::unwrap_used)]

use rasa_sim::soak::{run_soak, SoakConfig};

#[test]
fn churn_campaign_holds_the_robustness_contract() {
    let config = SoakConfig {
        seed: 20260808,
        rounds: 90,
        ..SoakConfig::default()
    };
    let report = run_soak(&config);

    assert!(
        report.is_clean(),
        "soak violations: {:#?}\nfull report: {}",
        report.violations,
        serde_json::to_string_pretty(&report).unwrap()
    );
    assert_eq!(report.rounds_executed, 90, "wall cap must not truncate");
    assert_eq!(report.accepted_uncertified, 0);
    assert_eq!(report.counter("serve.solve_panics"), 0);
    assert_eq!(report.counter("serve.connection_panics"), 0);

    // the campaign must actually exercise the interesting paths
    assert!(
        report.responses.ok > 10,
        "healthy traffic: {:?}",
        report.responses
    );
    assert!(
        report.actions.starved_deltas > 0 && report.actions.slow_loris > 0,
        "schedule must include hostile actions: {:?}",
        report.actions
    );
    assert!(
        report.counter("serve.requests") > 50,
        "daemon saw the traffic: {:?}",
        report.serve_counters
    );

    // starved deadlines tripped at least one breaker, and while open the
    // daemon served stale-but-certified placements
    assert!(
        report.counter("serve.breaker_trips") >= 1,
        "starved tenant must trip its breaker: {:?}",
        report.serve_counters
    );
    assert!(
        report.stale_served >= 1,
        "open breaker must serve stale placements: {:?}",
        report.serve_counters
    );

    // hostile label churn stayed bounded: at most `max_tenants` resident
    // labels, evictions fired, and the conservation check (drain-vs-fold
    // accounting over the `serve.requests` family) raised no violation —
    // run_soak pushes one if any churn increment went missing
    assert!(
        report.label_count_after_churn <= config.serve.max_tenants as u64,
        "label cardinality must stay at or under the cap: {} > {}",
        report.label_count_after_churn,
        config.serve.max_tenants
    );
    assert!(
        report.label_evictions > 0,
        "churning 10x the cap of tenants must evict into `other`"
    );

    // the pre-drain observability capture succeeded
    assert!(
        report.tenants_json.contains("\"tenant\":\"starved\""),
        "tenant roster: {}",
        report.tenants_json
    );
    assert!(
        report.tenants_json.contains("\"slo\":"),
        "roster rows carry SLO burn: {}",
        report.tenants_json
    );
    assert!(
        report.log_tail_json.contains("\"entries\":"),
        "structured log tail: {}",
        report.log_tail_json
    );

    // drain completed and was measured
    assert!(report.drain.drain_seconds >= 0.0);
    assert!(report.wall_seconds > 0.0);
}
