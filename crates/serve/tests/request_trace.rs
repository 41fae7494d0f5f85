//! Acceptance: one request id joins every observability surface.
//!
//! A caller-supplied `X-Rasa-Request-Id` driven through a chaos-injected
//! failing round must be findable in the HTTP response header, the
//! black-box dump (filename and JSON header), the structured log tail
//! (`GET /debug/log`), and the tenant roster (`GET /tenants`); a healthy
//! round's id must come back from `GET /placement`. This is the joining
//! property the whole tracing layer exists for — runs as its own test
//! binary because it configures the process-global flight recorder.

#![allow(clippy::unwrap_used)]

use rasa_obs::flight::{recorder, FlightConfig, FlightRecording};
use rasa_serve::http::call;
use rasa_serve::{ServeConfig, Server};
use rasa_trace::{generate, tiny_cluster, ClusterSpec};
use std::thread;
use std::time::Duration;

const ID: &str = "X-Rasa-Request-Id";

fn spec(services: usize, seed: u64) -> ClusterSpec {
    let mut s = tiny_cluster(seed);
    s.services = services;
    s.target_containers = services as u64 * 4;
    s.machines = (services / 3).max(4);
    s
}

#[test]
fn request_id_joins_response_blackbox_log_and_tenants() {
    // black boxes for this process land in a private temp directory
    let dump_dir = std::env::temp_dir().join(format!("rasa_request_trace_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dump_dir);
    recorder().configure(FlightConfig {
        dump_dir: Some(dump_dir.clone()),
        max_dumps: 64,
        ..FlightConfig::default()
    });

    let server = Server::bind(ServeConfig {
        drain_grace: Duration::from_secs(10),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.run());

    // healthy round under a caller-supplied id: echoed on the response and
    // pinned to the published placement
    let body = serde_json::to_string(&generate(&spec(40, 13))).unwrap();
    let target = "/snapshot?tenant=acme";
    let ok = call(addr, "POST", target, &[(ID, "trace-ok-1")], &body, None).unwrap();
    assert_eq!(ok.status, 200, "body: {}", ok.body);
    assert_eq!(
        ok.headers.get("x-rasa-request-id").map(String::as_str),
        Some("trace-ok-1")
    );
    let placement = call(addr, "GET", "/placement?tenant=acme", &[], "", None).unwrap();
    assert_eq!(placement.status, 200);
    assert!(
        placement.body.contains("\"request_id\":\"trace-ok-1\""),
        "placement must name the round that produced it: {}",
        placement.body
    );

    // an invalid caller id is replaced by a daemon-minted one
    let hostile = call(
        addr,
        "GET",
        "/healthz",
        &[(ID, "not a valid id!!")],
        "",
        None,
    );
    let hostile = hostile.unwrap();
    let minted = hostile
        .headers
        .get("x-rasa-request-id")
        .expect("every response carries an id");
    assert_ne!(minted, "not a valid id!!");
    assert!(
        minted.starts_with('r'),
        "minted ids look like r00002a: {minted}"
    );

    // chaos-injected failing round: a 1ms deadline over 40 services
    // exhausts the fallback ladder — certified but degraded, black-boxed
    let delta = "{\"edge_updates\":[{\"a\":0,\"b\":1,\"weight\":9.0}],\"replica_updates\":[]}";
    let failing = call(
        addr,
        "POST",
        "/delta?tenant=acme&deadline_ms=1",
        &[(ID, "trace-fail-7")],
        delta,
        None,
    )
    .unwrap();
    assert_eq!(failing.status, 200, "body: {}", failing.body);
    assert!(
        failing.body.contains("\"degraded\":true"),
        "1ms over 40 services must degrade: {}",
        failing.body
    );
    assert_eq!(
        failing.headers.get("x-rasa-request-id").map(String::as_str),
        Some("trace-fail-7")
    );

    // the same id names the black-box dump file and sits in its header
    let dump = std::fs::read_dir(&dump_dir)
        .expect("dump dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains("trace_fail_7"))
        })
        .expect("a dump named after the failing request");
    let dump_name = dump.file_name().unwrap().to_str().unwrap().to_string();
    assert!(
        dump_name.contains("acme"),
        "filename carries the tenant: {dump_name}"
    );
    let text = std::fs::read_to_string(&dump).unwrap();
    let rec: FlightRecording =
        serde_json::from_str(&text).expect("dump parses as the current schema");
    assert_eq!(rec.request_id, "trace-fail-7");
    assert_eq!(rec.tenant, "acme");

    // the same id appears in the structured log tail...
    let log_tail = call(addr, "GET", "/debug/log?tail=256", &[], "", None).unwrap();
    assert_eq!(log_tail.status, 200);
    assert!(
        log_tail.body.contains("trace-fail-7"),
        "the degraded-publish warning carries the request id: {}",
        log_tail.body
    );

    // ...and in the tenant roster, alongside the round's verdict
    let tenants = call(addr, "GET", "/tenants", &[], "", None).unwrap();
    assert_eq!(tenants.status, 200);
    assert!(
        tenants.body.contains("\"tenant\":\"acme\""),
        "{}",
        tenants.body
    );
    assert!(
        tenants
            .body
            .contains("\"last_request_id\":\"trace-fail-7\""),
        "{}",
        tenants.body
    );
    assert!(
        tenants.body.contains("\"last_verdict\":\"degraded\""),
        "{}",
        tenants.body
    );
    // the failing round burned SLO latency budget (1ms deadline, 1s target:
    // available but possibly slow) — at minimum the events are counted
    assert!(tenants.body.contains("\"events_5m\":"), "{}", tenants.body);

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dump_dir);
}
