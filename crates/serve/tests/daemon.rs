//! End-to-end daemon tests over real sockets: request lifecycle, typed
//! rejection of hostile bodies, backpressure under burst load, breaker
//! trip → stale-but-certified serving, and graceful drain completing
//! in-flight rounds.

#![allow(clippy::unwrap_used)]

use rasa_serve::http::{call, Reply};
use rasa_serve::{ServeConfig, Server, ServerHandle};
use rasa_trace::{generate, tiny_cluster, ClusterSpec};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> Reply {
    call(addr, method, target, &[], body, None).expect("http exchange")
}

fn spec(services: usize, seed: u64) -> ClusterSpec {
    let mut s = tiny_cluster(seed);
    s.services = services;
    s.target_containers = services as u64 * 4;
    s.machines = (services / 3).max(4);
    s
}

fn boot(
    config: ServeConfig,
) -> (
    SocketAddr,
    ServerHandle,
    thread::JoinHandle<rasa_serve::DrainReport>,
) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    (addr, handle, join)
}

fn quick_config() -> ServeConfig {
    ServeConfig {
        drain_grace: Duration::from_secs(10),
        ..ServeConfig::default()
    }
}

#[test]
fn snapshot_delta_placement_lifecycle() {
    let (addr, handle, join) = boot(quick_config());
    let problem = generate(&spec(7, 1));
    let body = serde_json::to_string(&problem).unwrap();

    // cold snapshot round
    let reply = http(addr, "POST", "/snapshot?tenant=acme", &body);
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert!(reply.body.contains("\"accepted\":true"));
    assert!(reply.body.contains("\"certified\":true"));
    assert!(reply.body.contains("\"stale\":false"));

    // published placement is retrievable and fresh
    let placement = http(addr, "GET", "/placement?tenant=acme", "");
    assert_eq!(placement.status, 200);
    assert!(placement.body.contains("\"stale\":false"));
    assert!(placement.body.contains("\"placement\":"));

    // a small delta re-solves warm (cache hits > 0)
    let delta = "{\"edge_updates\":[{\"a\":0,\"b\":1,\"weight\":42.5}],\"replica_updates\":[]}";
    let warm = http(addr, "POST", "/delta?tenant=acme", delta);
    assert_eq!(warm.status, 200, "body: {}", warm.body);
    assert!(warm.body.contains("\"accepted\":true"));

    // unknown tenants 404, health answers, metrics expose serve counters
    assert_eq!(http(addr, "GET", "/placement?tenant=ghost", "").status, 404);
    assert_eq!(http(addr, "GET", "/healthz", "").status, 200);
    let metrics = http(addr, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200, "metrics: {}", metrics.body);
    assert!(metrics.body.contains("rasa_serve_requests"));
    assert!(metrics.body.contains("rasa_serve_rounds_published"));

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn hostile_bodies_get_typed_rejections() {
    let (addr, handle, join) = boot(quick_config());

    // truncated JSON: 400 with the line/column where parsing stopped
    let problem = generate(&spec(6, 2));
    let json = serde_json::to_string(&problem).unwrap();
    let truncated = &json[..json.len() / 2];
    let reply = http(addr, "POST", "/snapshot?tenant=acme", truncated);
    assert_eq!(reply.status, 400);
    assert!(
        reply.body.contains("\"line\":"),
        "syntax errors carry a position: {}",
        reply.body
    );

    // valid JSON, wrong shape: 400 without position
    let reply = http(addr, "POST", "/snapshot?tenant=acme", "[1,2,3]");
    assert_eq!(reply.status, 400);

    // parser messages that quote a backslash still answer parseable JSON
    #[derive(serde::Deserialize)]
    struct Rejection {
        error: String,
        detail: String,
    }
    for body in ["\"\\u12", "\u{1}{}"] {
        let reply = http(addr, "POST", "/snapshot?tenant=acme", body);
        assert_eq!(reply.status, 400);
        let rejection: Rejection = serde_json::from_str(&reply.body)
            .unwrap_or_else(|e| panic!("400 body is not JSON ({e}): {}", reply.body));
        assert_eq!(rejection.error, "malformed json");
        assert!(rejection.detail.contains('\\'), "{}", rejection.detail);
    }

    // oversized declared body: 413
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /snapshot?tenant=acme HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 413"), "got: {raw}");

    // missing tenant: 400; invalid tenant chars: 400
    assert_eq!(http(addr, "POST", "/snapshot", "{}").status, 400);
    assert_eq!(
        http(addr, "POST", "/snapshot?tenant=../etc", "{}").status,
        400
    );

    // wrong method / unknown route
    assert_eq!(http(addr, "PUT", "/snapshot?tenant=a", "{}").status, 405);
    assert_eq!(http(addr, "GET", "/nope", "").status, 404);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn burst_overload_sheds_with_429_and_retry_after() {
    let (addr, handle, join) = boot(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..quick_config()
    });
    // distinct problems so no round replays another's cache
    let bodies: Vec<String> = (0..16)
        .map(|i| serde_json::to_string(&generate(&spec(12, 100 + i))).unwrap())
        .collect();

    let barrier = Arc::new(Barrier::new(bodies.len()));
    let mut clients = Vec::new();
    for (i, body) in bodies.into_iter().enumerate() {
        let barrier = Arc::clone(&barrier);
        clients.push(thread::spawn(move || {
            barrier.wait();
            let reply = http(addr, "POST", "/snapshot?tenant=burst", &body);
            (i, reply)
        }));
    }
    let replies: Vec<(usize, Reply)> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    let accepted = replies.iter().filter(|(_, r)| r.status == 200).count();
    let shed: Vec<&Reply> = replies
        .iter()
        .filter(|(_, r)| r.status == 429)
        .map(|(_, r)| r)
        .collect();
    assert!(accepted >= 1, "at least one burst request must solve");
    assert!(
        !shed.is_empty(),
        "16 simultaneous requests against a 1-deep queue must shed load"
    );
    for r in &shed {
        assert!(
            r.headers.contains_key("retry-after"),
            "429 must carry Retry-After"
        );
        assert!(r.body.contains("queue full"));
    }
    assert_eq!(accepted + shed.len(), replies.len());

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn breaker_trips_to_stale_serving_under_starved_deadlines() {
    let (addr, handle, join) = boot(ServeConfig {
        breaker_cooldown: Duration::from_secs(3600), // stays open for the test
        // every subproblem sees an expired deadline, whatever the box's speed
        rasa: rasa_core::RasaConfig {
            fault_injection: rasa_core::FaultInjection::StarveSubproblems((0..40).collect()),
            ..rasa_core::RasaConfig::default()
        },
        ..quick_config()
    });
    // a healthy round first, so there is a certified placement to serve
    // stale: with no affinity edge there is no subproblem to starve
    let mut problem = generate(&spec(40, 7));
    problem.affinity_edges.clear();
    let body = serde_json::to_string(&problem).unwrap();
    let healthy = http(addr, "POST", "/snapshot?tenant=starved", &body);
    assert_eq!(healthy.status, 200, "body: {}", healthy.body);
    assert!(healthy.body.contains("\"degraded\":false"));

    // each delta adds an edge, hence a subproblem, which starves: the
    // completion floor keeps the round certified but degraded, and each
    // one counts against the breaker
    let mut degraded_seen = 0;
    for i in 0..3 {
        let delta = format!(
            "{{\"edge_updates\":[{{\"a\":0,\"b\":{},\"weight\":{}}}],\"replica_updates\":[]}}",
            i + 1,
            50.0 + i as f64
        );
        let reply = http(addr, "POST", "/delta?tenant=starved", &delta);
        assert_eq!(reply.status, 200, "body: {}", reply.body);
        if reply.body.contains("\"degraded\":true") {
            degraded_seen += 1;
        }
    }
    assert_eq!(
        degraded_seen, 3,
        "starved subproblems must degrade every round"
    );

    // breaker is now open: the next request is served stale, not solved
    let delta = "{\"edge_updates\":[{\"a\":0,\"b\":5,\"weight\":9.0}],\"replica_updates\":[]}";
    let stale = http(addr, "POST", "/delta?tenant=starved", delta);
    assert_eq!(stale.status, 200, "body: {}", stale.body);
    assert!(
        stale.body.contains("\"stale\":true"),
        "body: {}",
        stale.body
    );
    assert!(stale.body.contains("\"certified\":true"));
    assert!(stale.body.contains("breaker_open"));
    assert!(stale.headers.contains_key("retry-after"));

    // /placement names the breaker state
    let placement = http(addr, "GET", "/placement?tenant=starved", "");
    assert!(placement.body.contains("\"breaker\":\"open\""));

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn healthz_degrades_on_open_breaker_and_drain() {
    let (addr, handle, join) = boot(ServeConfig {
        breaker_cooldown: Duration::from_secs(3600), // stays open for the test
        // every subproblem a 40-service problem can have sees an expired
        // deadline: degraded rounds are never cached, so every round
        // starves and the breaker opens whatever the box's speed
        rasa: rasa_core::RasaConfig {
            fault_injection: rasa_core::FaultInjection::StarveSubproblems((0..40).collect()),
            ..rasa_core::RasaConfig::default()
        },
        ..quick_config()
    });
    // healthy daemon: 200 ok
    let healthy = http(addr, "GET", "/healthz", "");
    assert_eq!(healthy.status, 200);
    assert!(healthy.body.contains("\"status\":\"ok\""));

    // trip the breaker: starved rounds still certify and publish, and each
    // one counts against the breaker
    let body = serde_json::to_string(&generate(&spec(40, 11))).unwrap();
    assert_eq!(
        http(addr, "POST", "/snapshot?tenant=starved", &body).status,
        200
    );
    for i in 0..3 {
        let delta = format!(
            "{{\"edge_updates\":[{{\"a\":0,\"b\":{},\"weight\":1.0}}],\"replica_updates\":[]}}",
            i + 1
        );
        let reply = http(addr, "POST", "/delta?tenant=starved", &delta);
        assert_eq!(reply.status, 200, "body: {}", reply.body);
    }

    // breaker open → /healthz degrades and names the tenant
    let degraded = http(addr, "GET", "/healthz", "");
    assert_eq!(degraded.status, 503, "body: {}", degraded.body);
    assert!(
        degraded.body.contains("\"breaker_open:starved\""),
        "body: {}",
        degraded.body
    );

    // pre-open a connection so its handler thread is already waiting when
    // drain begins (the accept loop stops at drain), then ask it for
    // /healthz mid-drain: "draining" must appear as a reason
    let mut early = TcpStream::connect(addr).expect("pre-drain connect");
    thread::sleep(Duration::from_millis(50)); // let the accept loop take it
    handle.shutdown();
    assert!(handle.is_draining());
    early
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
        .expect("write on pre-drain connection");
    let mut raw = String::new();
    early
        .read_to_string(&mut raw)
        .expect("read healthz mid-drain");
    assert!(raw.starts_with("HTTP/1.1 503"), "got: {raw}");
    assert!(raw.contains("\"draining\""), "got: {raw}");

    join.join().unwrap();
}

#[test]
fn graceful_drain_completes_in_flight_rounds() {
    let (addr, handle, join) = boot(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        drain_grace: Duration::from_secs(30),
        ..ServeConfig::default()
    });
    // three rounds enqueued back-to-back against one worker
    let mut clients = Vec::new();
    for i in 0..3u64 {
        let body = serde_json::to_string(&generate(&spec(10, 500 + i))).unwrap();
        clients.push(thread::spawn(move || {
            http(addr, "POST", &format!("/snapshot?tenant=t{i}"), &body)
        }));
    }
    // let the requests land, then drain while they are in flight
    thread::sleep(Duration::from_millis(30));
    handle.shutdown();
    assert!(handle.is_draining());

    for client in clients {
        let reply = client.join().unwrap();
        assert_eq!(
            reply.status, 200,
            "a round accepted before drain must complete: {}",
            reply.body
        );
        assert!(reply.body.contains("\"accepted\":true"));
    }

    let report = join.join().unwrap();
    assert_eq!(report.abandoned_jobs, 0, "grace window fits 3 tiny rounds");

    // post-drain the listener is closed: connections fail or are reset —
    // either way no new work is admitted
    if let Ok(reply) = call(addr, "POST", "/snapshot?tenant=late", &[], "{}", None) {
        assert!(
            !reply.body.contains("\"accepted\":true"),
            "a drained daemon must not accept new work: {}",
            reply.body
        );
    }
}
