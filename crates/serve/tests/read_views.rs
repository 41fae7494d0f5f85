//! The three read views — `GET /tenants`, `GET /placement` and
//! `GET /healthz` — agree about one tenant at every step of its life:
//! healthy publish, breaker tripped by injected faults, stale-served
//! delta. Every subproblem is starved, so the rounds that have one are
//! degraded whatever the box's speed; the first snapshot has no affinity
//! edge, hence no subproblem, and publishes healthy.

#![allow(clippy::unwrap_used)]

use rasa_core::{FaultInjection, RasaConfig};
use rasa_model::{FeatureMask, ProblemBuilder, ResourceVec};
use rasa_serve::{http, ServeConfig, Server};
use serde::Deserialize;
use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

#[derive(Deserialize)]
struct Roster {
    tenants: Vec<Row>,
}

/// The `/tenants` fields under test (the rest are ignored).
#[derive(Deserialize)]
struct Row {
    tenant: String,
    breaker: String,
    last_verdict: String,
    last_request_id: String,
    published_round: Option<u64>,
    stale: bool,
    quarantined: bool,
}

/// The `/placement` fields under test.
#[derive(Deserialize)]
struct PlacementView {
    round: u64,
    request_id: String,
    breaker: String,
    stale: bool,
}

/// One HTTP/1.1 exchange with an optional `X-Rasa-Request-Id`: the status
/// and the body.
fn call(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
    id: Option<&str>,
) -> (u16, String) {
    let headers: Vec<_> = id.map(|id| ("X-Rasa-Request-Id", id)).into_iter().collect();
    let reply = http::call(addr, method, target, &headers, body, None).expect("http exchange");
    (reply.status, reply.body)
}

/// The tenant's `/tenants` row, its `/placement`, and the `/healthz` reply.
fn views(addr: SocketAddr) -> (Row, PlacementView, (u16, String)) {
    let (status, body) = call(addr, "GET", "/tenants", "", None);
    assert_eq!(status, 200, "{body}");
    let roster: Roster = serde_json::from_str(&body).unwrap();
    let row = roster
        .tenants
        .into_iter()
        .find(|r| r.tenant == "views")
        .expect("tenant row");
    let (status, body) = call(addr, "GET", "/placement?tenant=views", "", None);
    assert_eq!(status, 200, "{body}");
    let placement = serde_json::from_str(&body).unwrap();
    (row, placement, call(addr, "GET", "/healthz", "", None))
}

fn edge_delta(weight: f64) -> String {
    format!("{{\"edge_updates\":[{{\"a\":0,\"b\":1,\"weight\":{weight}}}],\"replica_updates\":[]}}")
}

#[test]
fn tenants_placement_and_healthz_agree_at_every_step() {
    let server = Server::bind(ServeConfig {
        breaker_cooldown: Duration::from_secs(3600), // stays open for the test
        rasa: RasaConfig {
            fault_injection: FaultInjection::StarveSubproblems((0..64).collect()),
            ..RasaConfig::default()
        },
        drain_grace: Duration::from_secs(10),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.run());

    // 1. a healthy snapshot under a caller request id
    let mut b = ProblemBuilder::new();
    b.add_service("a", 2, ResourceVec::cpu_mem(1.0, 1.0));
    b.add_service("b", 2, ResourceVec::cpu_mem(1.0, 1.0));
    b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), FeatureMask::EMPTY);
    let body = serde_json::to_string(&b.build().unwrap()).unwrap();
    let (status, reply) = call(
        addr,
        "POST",
        "/snapshot?tenant=views",
        &body,
        Some("views-1"),
    );
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"degraded\":false"), "{reply}");
    let (row, placement, (health, healthz)) = views(addr);
    assert_eq!(row.breaker, "closed");
    assert_eq!(row.last_verdict, "ok");
    assert_eq!(row.published_round, Some(1));
    assert!(!row.stale);
    assert!(!row.quarantined);
    assert_eq!(row.last_request_id, "views-1");
    assert_eq!(Some(placement.round), row.published_round);
    assert_eq!(placement.request_id, row.last_request_id);
    assert_eq!(placement.breaker, row.breaker);
    assert_eq!(placement.stale, row.stale);
    assert_eq!(health, 200, "{healthz}");

    // 2. three starved (degraded, still certified) rounds open the breaker
    for i in 0..3 {
        let (status, reply) = call(
            addr,
            "POST",
            "/delta?tenant=views",
            &edge_delta(5.0 + i as f64),
            None,
        );
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("\"degraded\":true"), "{reply}");
    }

    // 3. every view reports the open breaker
    let (row, placement, (health, healthz)) = views(addr);
    assert_eq!(row.breaker, "open");
    assert_eq!(placement.breaker, "open");
    assert_eq!(row.last_verdict, "degraded");
    assert_eq!(row.published_round, Some(4));
    assert_eq!(Some(placement.round), row.published_round);
    assert_eq!(placement.stale, row.stale);
    assert_eq!(health, 503, "{healthz}");
    assert!(healthz.contains("\"breaker_open:views\""), "{healthz}");

    // 4. a delta against the open breaker is served stale, not applied
    let (status, reply) = call(
        addr,
        "POST",
        "/delta?tenant=views",
        &edge_delta(9.0),
        Some("views-5"),
    );
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"stale\":true"), "{reply}");
    let (row, placement, (health, healthz)) = views(addr);
    assert_eq!(row.last_verdict, "breaker_open");
    assert_eq!(row.published_round, Some(4));
    assert_eq!(row.last_request_id, "views-5");
    assert_eq!(row.breaker, "open");
    assert_eq!(placement.round, 4);
    assert_eq!(placement.breaker, "open");
    assert_eq!(placement.stale, row.stale);
    assert_eq!(health, 503, "{healthz}");

    handle.shutdown();
    join.join().unwrap();
}
