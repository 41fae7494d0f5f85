//! Restart-recovery tests over real sockets: a drained daemon re-bound on
//! the same write-ahead journal root must republish the byte-identical
//! certified placement, and a damaged journal must quarantine the tenant
//! (503) without taking the daemon down.

#![allow(clippy::unwrap_used)]

use rasa_serve::http::{call, Reply};
use rasa_serve::{ServeConfig, Server, ServerHandle, TenantJournal, WalConfig, WalRecord};
use rasa_trace::{generate, tiny_cluster, ClusterSpec};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
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

fn scratch(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rasa_recovery_test_{name}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn wal_config(root: PathBuf) -> ServeConfig {
    ServeConfig {
        wal: Some(WalConfig::new(root)),
        drain_grace: Duration::from_secs(10),
        ..ServeConfig::default()
    }
}

/// Round + placement JSON out of a `/placement` body — the identity key
/// across a restart (request-scoped fields excluded).
fn placement_key(body: &str) -> (u64, String) {
    let round = body
        .split("\"round\":")
        .nth(1)
        .unwrap()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap();
    let placement = body.split("\"placement\":").nth(1).unwrap();
    (round, placement.trim_end_matches('}').to_string())
}

#[test]
fn restart_republishes_the_byte_identical_certified_placement() {
    let root = scratch("restart");
    let (addr, handle, join) = boot(wal_config(root.clone()));

    // six tenants journaled side by side, each a snapshot and three deltas
    let tenants: Vec<String> = (0..6).map(|i| format!("t{i}")).collect();
    let mut keys_before = Vec::new();
    for (i, tenant) in tenants.iter().enumerate() {
        let problem = generate(&spec(7, 3 + i as u64));
        let body = serde_json::to_string(&problem).unwrap();
        let snapshot = format!("/snapshot?tenant={tenant}");
        assert_eq!(http(addr, "POST", &snapshot, &body).status, 200);
        for step in 0..3 {
            let delta = format!(
                "{{\"edge_updates\":[{{\"a\":0,\"b\":{},\"weight\":{}.5}}],\"replica_updates\":[]}}",
                step + 1,
                20 + step
            );
            let target = format!("/delta?tenant={tenant}");
            assert_eq!(http(addr, "POST", &target, &delta).status, 200);
        }
        let before = http(addr, "GET", &format!("/placement?tenant={tenant}"), "");
        assert_eq!(before.status, 200);
        keys_before.push(placement_key(&before.body));
    }

    handle.shutdown();
    let _ = join.join().unwrap();

    // same journal root, fresh process state: recovery replays every
    // journal through both trust gates and republishes
    let (addr2, handle2, join2) = boot(wal_config(root));
    for (tenant, key_before) in tenants.iter().zip(&keys_before) {
        let after = http(addr2, "GET", &format!("/placement?tenant={tenant}"), "");
        assert_eq!(
            after.status, 200,
            "recovered {tenant} must serve: {}",
            after.body
        );
        assert_eq!(
            key_before,
            &placement_key(&after.body),
            "{tenant}'s recovered placement must be byte-identical to its last certified one"
        );
    }
    // the recovered tenants are live, not quarantined: new rounds still work
    let delta = "{\"edge_updates\":[{\"a\":1,\"b\":2,\"weight\":33.0}],\"replica_updates\":[]}";
    assert_eq!(http(addr2, "POST", "/delta?tenant=t0", delta).status, 200);
    handle2.shutdown();
    let _ = join2.join().unwrap();
}

#[test]
fn damaged_journal_quarantines_the_tenant_but_the_daemon_serves() {
    let root = scratch("quarantine");
    // hand-craft an unusable journal: a delta with no snapshot before it
    // (valid frames, invalid history — recovery must refuse to guess)
    {
        let mut journal = TenantJournal::open(&WalConfig::new(root.clone()), "ghost").unwrap();
        let delta = rasa_core::SnapshotDelta {
            edge_updates: vec![rasa_core::EdgeUpdate {
                a: 0,
                b: 1,
                weight: 10.0,
            }],
            replica_updates: vec![],
        };
        journal.append(&WalRecord::delta(1, delta)).unwrap();
    }

    let (addr, handle, join) = boot(wal_config(root));

    // the poisoned tenant answers 503 + Retry-After, never a panic
    let problem = generate(&spec(6, 4));
    let body = serde_json::to_string(&problem).unwrap();
    let reply = http(addr, "POST", "/snapshot?tenant=ghost", &body);
    assert_eq!(reply.status, 503, "{}", reply.body);
    assert!(reply.body.contains("quarantined"), "{}", reply.body);
    assert_eq!(
        reply.headers.get("retry-after").map(String::as_str),
        Some("30")
    );
    let view = http(addr, "GET", "/placement?tenant=ghost", "");
    assert_eq!(view.status, 503);

    // health is degraded and names the quarantined tenant…
    let health = http(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 503);
    assert!(health.body.contains("quarantined:ghost"), "{}", health.body);
    assert!(
        http(addr, "GET", "/tenants", "")
            .body
            .contains("\"quarantined\":true"),
        "tenants listing must flag the quarantine"
    );

    // …but the daemon is up and other tenants are unaffected
    assert_eq!(
        http(addr, "POST", "/snapshot?tenant=fine", &body).status,
        200
    );

    // the operator escape hatch: DELETE discards the tenant and its
    // journal; re-admitting it from scratch then works
    assert_eq!(http(addr, "DELETE", "/tenant?tenant=ghost", "").status, 200);
    assert_eq!(
        http(addr, "POST", "/snapshot?tenant=ghost", &body).status,
        200
    );
    assert_eq!(http(addr, "GET", "/healthz", "").status, 200);

    handle.shutdown();
    let _ = join.join().unwrap();
}
