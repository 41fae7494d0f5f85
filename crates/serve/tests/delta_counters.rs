//! `serve.delta_dirty` / `serve.delta_unchanged` are the published delta
//! round's own cache misses / hits — the daemon no longer partitions a
//! delta a second time to count them. The obs registry is process-wide,
//! so this file holds one test and is its own test binary.

#![allow(clippy::unwrap_used)]

use rasa_model::{FeatureMask, Problem, ProblemBuilder, ResourceVec, Service, ServiceId};
use rasa_serve::http::call;
use rasa_serve::{ServeConfig, Server};
use std::net::SocketAddr;
use std::thread;

fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    let reply = call(addr, "POST", target, &[], body, None).expect("http exchange");
    (reply.status, reply.body)
}

/// Three feature-fenced rings of four services: three subproblems, and an
/// edge update inside the first ring leaves the other two untouched.
fn three_zone_cluster() -> Problem {
    let mut b = ProblemBuilder::new();
    for zone in 0..3u32 {
        let feature = FeatureMask::bit(zone);
        let ring: Vec<ServiceId> = (0..4u32)
            .map(|i| {
                let svc = Service::new(
                    ServiceId(zone * 4 + i),
                    format!("z{zone}-s{i}"),
                    2,
                    ResourceVec::cpu_mem(1.0, 1.0),
                )
                .with_features(feature);
                b.add_service_full(svc)
            })
            .collect();
        for i in 0..4 {
            b.add_affinity(ring[i], ring[(i + 1) % 4], 1.0 + i as f64);
        }
        b.add_machines(2, ResourceVec::cpu_mem(8.0, 8.0), feature);
    }
    b.build().expect("well-formed cluster")
}

/// The unsigned integer after `"name":` in a response body.
fn json_u64(body: &str, name: &str) -> u64 {
    let (_, rest) = body.split_once(&format!("\"{name}\":")).expect(name);
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect(name)
}

fn delta_counters() -> (u64, u64) {
    let snap = rasa_obs::global().snapshot();
    (
        snap.counter("serve.delta_dirty"),
        snap.counter("serve.delta_unchanged"),
    )
}

#[test]
fn delta_counters_move_by_exactly_the_published_rounds_misses_and_hits() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.run());

    let body = serde_json::to_string(&three_zone_cluster()).unwrap();
    let (status, reply) = post(addr, "/snapshot?tenant=acme", &body);
    assert_eq!(status, 200, "body: {reply}");
    assert_eq!(delta_counters(), (0, 0), "a snapshot round is not a delta");

    // a rejected delta publishes no round and counts nothing
    let unknown = "{\"edge_updates\":[{\"a\":0,\"b\":9999,\"weight\":1.0}],\"replica_updates\":[]}";
    let (status, reply) = post(addr, "/delta?tenant=acme", unknown);
    assert_eq!(status, 422, "body: {reply}");
    assert_eq!(delta_counters(), (0, 0));

    let mut expected = (0u64, 0u64);
    for weight in [42.5, 7.25] {
        let delta = format!(
            "{{\"edge_updates\":[{{\"a\":0,\"b\":1,\"weight\":{weight}}}],\"replica_updates\":[]}}"
        );
        let (status, reply) = post(addr, "/delta?tenant=acme", &delta);
        assert_eq!(status, 200, "body: {reply}");
        let (hits, misses) = (json_u64(&reply, "hits"), json_u64(&reply, "misses"));
        assert!(misses >= 1, "the delta dirtied a subproblem: {reply}");
        expected = (expected.0 + misses, expected.1 + hits);
        assert_eq!(delta_counters(), expected, "after {reply}");
    }
    assert!(expected.1 >= 1, "nothing was replayed: {expected:?}");

    handle.shutdown();
    join.join().unwrap();
}
