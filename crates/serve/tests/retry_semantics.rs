//! Retry semantics under overload: the `Retry-After` hints the daemon
//! sends with 429s must match their documented values — the queue-full
//! hint tracks the tenant's deadline budget, the tenant-capacity hint is a
//! flat 30 seconds. The daemon itself never retries a round; clients do,
//! guided by these hints.

#![allow(clippy::unwrap_used)]

use rasa_serve::http::{call, Reply};
use rasa_serve::{ServeConfig, Server};
use rasa_trace::{generate, tiny_cluster};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> Reply {
    call(addr, method, target, &[], body, None).expect("http exchange")
}

#[test]
fn queue_full_retry_after_tracks_the_deadline_budget() {
    // with a 3s default deadline, shed requests should be told to come
    // back in 3s — one deadline's worth of breathing room
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        default_deadline: Duration::from_millis(3000),
        drain_grace: Duration::from_secs(10),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.run());

    let bodies: Vec<String> = (0..16)
        .map(|i| {
            let mut s = tiny_cluster(300 + i);
            s.services = 12;
            s.target_containers = 48;
            s.machines = 4;
            serde_json::to_string(&generate(&s)).unwrap()
        })
        .collect();
    let barrier = Arc::new(Barrier::new(bodies.len()));
    let clients: Vec<_> = bodies
        .into_iter()
        .map(|body| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                http(addr, "POST", "/snapshot?tenant=burst", &body)
            })
        })
        .collect();
    let replies: Vec<Reply> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    let shed: Vec<&Reply> = replies
        .iter()
        .filter(|r| r.status == 429 && r.body.contains("queue full"))
        .collect();
    assert!(
        !shed.is_empty(),
        "16 simultaneous requests against a 1-deep queue must shed load"
    );
    for r in &shed {
        assert_eq!(
            r.headers.get("retry-after").map(String::as_str),
            Some("3"),
            "queue-full Retry-After must equal the default deadline in seconds"
        );
    }

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn tenant_capacity_retry_after_is_thirty_seconds() {
    let server = Server::bind(ServeConfig {
        max_tenants: 0,
        drain_grace: Duration::from_secs(10),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.run());

    let body = serde_json::to_string(&generate(&tiny_cluster(9))).unwrap();
    let reply = http(addr, "POST", "/snapshot?tenant=overflow", &body);
    assert_eq!(reply.status, 429, "{}", reply.body);
    assert!(reply.body.contains("tenant capacity"), "{}", reply.body);
    assert_eq!(
        reply.headers.get("retry-after").map(String::as_str),
        Some("30"),
        "tenant-capacity Retry-After is a flat 30s"
    );

    handle.shutdown();
    join.join().unwrap();
}
