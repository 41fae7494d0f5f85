//! Exhaustive recovery check over a small two-tenant journal. Every
//! byte-prefix of each tenant's newest segment, every newest-first partial
//! clean-up of the segments a checkpoint superseded (with and without a
//! checkpoint temp file left behind), and every single-bit flip of every
//! journal file is recovered. A prefix, and a flip in the newest segment,
//! must recover exactly the state the writer held after the last record
//! that ends before the damage. Every other case must come back as the
//! state the writer held, or as a quarantine. None may panic, come back
//! `Empty` once a snapshot was written, restore a placement that fails
//! certification, or change the other tenant's result.

#![allow(clippy::unwrap_used)]

use rasa_core::{
    certify_placement, AllocationSession, Deadline, EdgeUpdate, RasaConfig, RestoredPlacement,
    SnapshotDelta,
};
use rasa_model::{FeatureMask, Problem, ProblemBuilder, ResourceVec};
use rasa_serve::wal::{CheckpointState, MAGIC};
use rasa_serve::{
    recover_all, RecoveredTenant, RecoveryOutcome, TenantJournal, WalConfig, WalRecord,
};
use std::fs;
use std::os::unix::fs::FileExt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

const TENANTS: [&str; 2] = ["a", "b"];

/// One journal file: its name and bytes.
type JournalFile = (String, Vec<u8>);

/// The state recovery should rebuild, as comparable text.
fn state_key(
    problem: &Problem,
    published: Option<&RestoredPlacement>,
    rounds: u64,
    generation: u64,
) -> String {
    format!(
        "{} {} {rounds} {generation}",
        serde_json::to_string(problem).unwrap(),
        serde_json::to_string(&published.cloned()).unwrap()
    )
}

fn session_key(session: &AllocationSession) -> String {
    state_key(
        session.problem().unwrap(),
        session.published().map(RestoredPlacement::from).as_ref(),
        session.rounds(),
        session.generation(),
    )
}

/// Two services on two machines with one affinity edge: small enough that
/// each tenant's journal stays near 1.3 KB.
fn problem(weight: f64) -> Problem {
    let mut b = ProblemBuilder::new();
    let unit = ResourceVec::new(1.0, 1.0, 1.0, 1.0);
    let a = b.add_service("s0", 2, unit);
    let c = b.add_service("s1", 1, unit);
    b.add_machines(2, ResourceVec::new(4.0, 4.0, 4.0, 4.0), FeatureMask::EMPTY);
    b.add_affinity(a, c, weight);
    b.build().unwrap()
}

fn session() -> AllocationSession {
    AllocationSession::new(RasaConfig {
        parallel: false,
        ..RasaConfig::default()
    })
}

/// The journal files in `dir`, oldest first.
fn read_journal(dir: &Path) -> Vec<JournalFile> {
    let mut files: Vec<JournalFile> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, fs::read(entry.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Replace everything in `dir` with `files`.
fn lay_out(dir: &Path, files: &[JournalFile]) {
    for (name, _) in read_journal(dir) {
        fs::remove_file(dir.join(name)).unwrap();
    }
    for (name, bytes) in files {
        fs::write(dir.join(name), bytes).unwrap();
    }
}

/// One tenant's journal as the writer left it.
struct Written {
    /// The final journal: the compacted segment and the newest one.
    files: Vec<JournalFile>,
    /// The segments the checkpoint superseded, oldest first.
    superseded: Vec<JournalFile>,
    /// The state the checkpoint compacted.
    compacted: String,
    /// Per record of the newest segment: its end offset and the state
    /// the writer held after it.
    newest: Vec<(usize, String)>,
}

/// Drive a session the way the daemon does (snapshot, deltas, certified
/// placements, a restart, one checkpoint, more deltas), journaling each
/// accepted step.
fn write_tenant(config: &WalConfig, tenant: &str, weight: f64) -> Written {
    let mut session = session();
    let mut journal = TenantJournal::open(config, tenant).unwrap();
    let dir = journal.dir().to_path_buf();
    let mut step = 0.0;
    let mut delta = |session: &mut AllocationSession, journal: &mut TenantJournal| {
        step += 1.0;
        let delta = SnapshotDelta {
            edge_updates: vec![EdgeUpdate {
                a: 0,
                b: 1,
                weight: 10.0 + step,
            }],
            replica_updates: vec![],
        };
        session.apply_delta(&delta).unwrap();
        journal
            .append(&WalRecord::delta(session.generation(), delta))
            .unwrap();
    };
    let publish = |session: &mut AllocationSession, journal: &mut TenantJournal| {
        session
            .resolve(Deadline::after(Duration::from_secs(30)))
            .unwrap();
        let placement = RestoredPlacement::from(session.published().unwrap());
        journal.append(&WalRecord::placement(placement)).unwrap();
    };

    session.apply_snapshot(&problem(weight));
    let admitted = session.problem().unwrap().clone();
    journal
        .append(&WalRecord::snapshot(session.generation(), admitted))
        .unwrap();
    publish(&mut session, &mut journal);
    // a restart: the journal reopens on a fresh segment
    journal = TenantJournal::open(config, tenant).unwrap();
    delta(&mut session, &mut journal);
    publish(&mut session, &mut journal);
    delta(&mut session, &mut journal);

    let superseded = read_journal(&dir);
    journal
        .checkpoint(&CheckpointState {
            problem: session.problem().unwrap(),
            published: session.published().map(RestoredPlacement::from),
            rounds: session.rounds(),
            generation: session.generation(),
        })
        .unwrap();
    let compacted = session_key(&session);

    let mut newest = Vec::new();
    let newest_len = |dir: &Path| read_journal(dir).last().unwrap().1.len();
    delta(&mut session, &mut journal);
    newest.push((newest_len(&dir), session_key(&session)));
    publish(&mut session, &mut journal);
    newest.push((newest_len(&dir), session_key(&session)));
    delta(&mut session, &mut journal);
    newest.push((newest_len(&dir), session_key(&session)));

    let files = read_journal(&dir);
    assert_eq!(files.len(), 2, "a compacted segment and the newest one");
    assert_eq!(
        superseded.len(),
        2,
        "one segment per open before the checkpoint"
    );
    Written {
        files,
        superseded,
        compacted,
        newest,
    }
}

/// A tenant's recovery result as comparable text.
fn result_key(tenant: &RecoveredTenant) -> String {
    let outcome = match &tenant.outcome {
        RecoveryOutcome::Recovered(state) => state_key(
            &state.problem,
            state.published.as_ref(),
            state.rounds,
            state.generation,
        ),
        RecoveryOutcome::Quarantined { reason } => format!("quarantined: {reason}"),
        RecoveryOutcome::Empty => "empty".to_string(),
    };
    format!("{outcome} {:?}", tenant.stats)
}

/// Recover both tenants after damage to tenant `damaged` and check the
/// contract. `expected` is the exact state the damaged tenant must
/// recover, when the case determines one.
fn check(config: &WalConfig, case: &str, damaged: usize, expected: Option<&str>, other: &str) {
    let results = catch_unwind(AssertUnwindSafe(|| recover_all(config)))
        .unwrap_or_else(|_| panic!("{case}: recovery panicked"));
    assert_eq!(results.len(), 2, "{case}");
    assert_eq!(
        result_key(&results[1 - damaged]),
        other,
        "{case}: damage to one tenant changed the other's result"
    );
    match &results[damaged].outcome {
        RecoveryOutcome::Empty => panic!("{case}: a journal that held a snapshot came back empty"),
        RecoveryOutcome::Quarantined { reason } => {
            assert!(expected.is_none(), "{case}: quarantined ({reason})");
        }
        RecoveryOutcome::Recovered(state) => {
            if let Some(expected) = expected {
                let got = state_key(
                    &state.problem,
                    state.published.as_ref(),
                    state.rounds,
                    state.generation,
                );
                assert!(got == expected, "{case}: recovered a different state");
            }
            let restored = catch_unwind(AssertUnwindSafe(|| {
                AllocationSession::restore(RasaConfig::default(), (**state).clone())
            }))
            .unwrap_or_else(|_| panic!("{case}: restore panicked"));
            if let Ok(restored) = restored {
                if let Some(published) = restored.session.published() {
                    let problem = restored.session.problem().unwrap();
                    assert!(
                        certify_placement(
                            problem,
                            &published.placement,
                            published.objective,
                            false,
                            "test.exhaustive"
                        )
                        .is_ok(),
                        "{case}: a restored placement failed certification"
                    );
                }
            }
        }
    }
}

/// Run every case that damages tenant `d` under `config.root`, where
/// `other` is the other tenant's undamaged result. Returns the journal
/// bytes flipped and the number of cases.
fn damage_tenant(config: &WalConfig, d: usize, w: &Written, other: &str) -> (usize, usize) {
    let dir = config.root.join(TENANTS[d]);
    let (compacted_seg, newest_seg) = (&w.files[0], &w.files[1]);
    let (mut cases, mut bytes) = (0usize, 0usize);

    // the state after the last record of the newest segment that ends at
    // or before byte `at`
    let intact_before = |at: usize| {
        w.newest
            .iter()
            .rev()
            .find(|(end, _)| *end <= at)
            .map_or(w.compacted.as_str(), |(_, state)| state.as_str())
    };

    // every byte-prefix of the newest segment recovers the state after
    // its last complete record
    for len in 0..=newest_seg.1.len() {
        fs::write(dir.join(&newest_seg.0), &newest_seg.1[..len]).unwrap();
        let case = format!("{} prefix {len}", TENANTS[d]);
        check(config, &case, d, Some(intact_before(len)), other);
        cases += 1;
    }

    // a crash during the clean-up: the newest superseded segments are
    // gone, the older ones survive, the next segment is still empty; also
    // with a later checkpoint's temp file left behind
    let fresh = (newest_seg.0.clone(), MAGIC.to_vec());
    let stray_tmp = (
        newest_seg.0.replace(".wal", ".tmp"),
        compacted_seg.1[..compacted_seg.1.len() / 2].to_vec(),
    );
    for kept in 0..=w.superseded.len() {
        for with_tmp in [false, true] {
            let mut files = w.superseded[..kept].to_vec();
            files.extend([compacted_seg.clone(), fresh.clone()]);
            if with_tmp {
                files.push(stray_tmp.clone());
            }
            lay_out(&dir, &files);
            let case = format!("{} clean-up kept {kept} tmp {with_tmp}", TENANTS[d]);
            check(config, &case, d, Some(&w.compacted), other);
            cases += 1;
        }
    }
    // a crash before the rename: the old segments and the temp file
    let mut files = w.superseded.clone();
    files.push((
        compacted_seg.0.replace(".wal", ".tmp"),
        compacted_seg.1.clone(),
    ));
    lay_out(&dir, &files);
    check(
        config,
        &format!("{} before rename", TENANTS[d]),
        d,
        Some(&w.compacted),
        other,
    );
    cases += 1;
    lay_out(&dir, &w.files);

    // every single-bit flip of every file: a flip in the newest segment
    // ends its replay at the damaged frame, exactly like a torn tail there
    for (name, original) in &w.files {
        let file = fs::OpenOptions::new()
            .write(true)
            .open(dir.join(name))
            .unwrap();
        for (i, byte) in original.iter().enumerate() {
            let expected = (name == &newest_seg.0).then(|| intact_before(i));
            for bit in 0..8 {
                file.write_at(&[byte ^ (1 << bit)], i as u64).unwrap();
                let case = format!("{} flip {name} byte {i} bit {bit}", TENANTS[d]);
                check(config, &case, d, expected, other);
                cases += 1;
            }
            file.write_at(&[*byte], i as u64).unwrap();
        }
        bytes += original.len();
    }
    (bytes, cases)
}

#[test]
fn every_prefix_cleanup_and_bit_flip_recovers_or_quarantines() {
    let started = Instant::now();
    let base = std::env::temp_dir().join(format!("rasa_journal_exhaustive_{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    // one copy of both journals per damaged tenant, so the two tenants'
    // cases run side by side
    let configs: Vec<WalConfig> = TENANTS
        .iter()
        .map(|t| WalConfig::new(base.join(format!("damage_{t}"))))
        .collect();
    let written: Vec<Written> = TENANTS
        .iter()
        .zip([5.0, 7.0])
        .map(|(tenant, weight)| write_tenant(&configs[0], tenant, weight))
        .collect();
    for (tenant, w) in TENANTS.iter().zip(&written) {
        let copy = configs[1].root.join(tenant);
        fs::create_dir_all(&copy).unwrap();
        lay_out(&copy, &w.files);
    }

    // undamaged, both tenants recover exactly what their writers held
    let baseline: Vec<String> = recover_all(&configs[0]).iter().map(result_key).collect();
    for (w, key) in written.iter().zip(&baseline) {
        let (_, last) = w.newest.last().unwrap();
        assert!(
            key.starts_with(last.as_str()),
            "undamaged journal must recover exactly"
        );
    }

    let tallies: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..TENANTS.len())
            .map(|d| {
                let (config, w, other) = (&configs[d], &written[d], &baseline[1 - d]);
                scope.spawn(move || damage_tenant(config, d, w, other))
            })
            .collect();
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let _ = fs::remove_dir_all(&base);
    let (bytes, cases) = tallies
        .iter()
        .fold((0, 0), |(b, c), (tb, tc)| (b + tb, c + tc));
    println!(
        "exhaustive recovery: {bytes} journal bytes, {cases} cases, {:.1} s",
        started.elapsed().as_secs_f64()
    );
}
