//! Per-tenant write-ahead journal: the durability layer under the daemon.
//!
//! Every state transition a tenant acks — an admitted snapshot, an applied
//! delta, a certified placement — is appended to an on-disk journal
//! *before* the client sees the 200, so a `kill -9` never loses
//! acknowledged state. On restart [`recover_all`] replays each tenant's
//! journal back into a [`RestoredState`] that the server feeds through
//! `AllocationSession::restore` — which re-runs **both trust gates**
//! (admission and `certify_placement`) on the recovered bytes. A corrupt
//! or torn journal can therefore only quarantine its tenant; it can never
//! panic the daemon or publish uncertified state.
//!
//! ## On-disk format
//!
//! A tenant's journal is a directory `<root>/<tenant>/` holding one
//! ordered run of segment files `seg-<seq>.wal`. Every segment starts
//! with the 8-byte magic `RASAWAL3`, followed by framed records:
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32 of payload][payload bytes]
//! ```
//!
//! The payload is the JSON encoding of one [`WalRecord`], externally
//! tagged by its variant and carrying only that variant's fields:
//! `{"Snapshot":{"generation":..,"rounds":..,"problem":{..}}}`,
//! `{"Delta":{"generation":..,"delta":{..}}}` or
//! `{"Placement":{..}}`. CRC-32
//! (IEEE polynomial, the zlib/PNG one) is implemented here — the
//! workspace vendors no checksum crate. A segment with any other magic
//! (a journal written by an older format) replays as torn, so its tenant
//! is quarantined rather than misread.
//!
//! ## Segments and compaction
//!
//! A segment rolls over only when a journal opens (recovery has already
//! read what is there, so appends never resume a possibly-torn file) and
//! when it checkpoints. Every [`WalConfig::compact_every`] appended
//! records the daemon checkpoints: the tenant's whole state becomes one
//! compacted segment — a `Snapshot` record carrying the publish-round
//! count, plus a `Placement` record when one was published — written to a
//! temp file, fsynced, renamed into place, and made durable with a
//! directory fsync. The journal then opens the next segment and deletes
//! the superseded ones newest first, stopping at the first failure. A
//! crash at any step therefore leaves a prefix of the old history,
//! possibly followed by the compacted segment, whose `Snapshot` replaces
//! whatever that prefix rebuilt, damage included. Recovery is one
//! in-order pass over the segments.
//!
//! ## Torn tails and corruption
//!
//! Damage follows one rule. The first frame of a segment that fails its
//! length, CRC or decode check (a CRC-valid record naming no known variant
//! included) ends that segment's replay, exactly as a tail torn by a crash
//! mid-write does: the records before it are kept, the bytes from it on
//! are counted lost (`recovery.torn_tails`, and a `WalTornTail` flight
//! event with the lost bytes), and replay continues with the next
//! segment. A flipped record therefore rolls the tenant back to the state
//! before it, never to a state that skips it. Whether that state is still
//! *servable* is not decided here — the trust gates decide on restore.
//!
//! ## Crash failpoints
//!
//! The seeded kill-9 campaign (`rasa-sim`'s crash harness) needs crashes
//! at byte-deterministic points. `RASA_WAL_CRASH_AT=append:<n>` aborts
//! the process halfway through the `n`-th journal append;
//! `RASA_WAL_CRASH_AT=compact:<n>` aborts halfway through writing the
//! `n`-th compacted segment (before the rename). Both leave a genuinely
//! torn file behind, exactly like a power cut.

use rasa_core::{apply_delta_to_problem, RestoredPlacement, RestoredState, SnapshotDelta};
use rasa_model::Problem;
use rasa_obs::flight::{self, TraceEvent};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Magic bytes opening every segment file.
pub const MAGIC: [u8; 8] = *b"RASAWAL3";

/// Upper bound on one record's payload, as a sanity check on the length
/// prefix of a possibly-corrupt frame (64 MiB).
pub const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

const SEGMENT_PREFIX: &str = "seg-";
const WAL_SUFFIX: &str = ".wal";

// ---------------------------------------------------------------------------
// CRC-32 (IEEE / zlib polynomial), table-driven, const-built.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `data` — the polynomial zlib and PNG use.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Configuration.

/// When the journal fsyncs after an append.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every append — an acked request is durable. The
    /// daemon default.
    Always,
    /// Never fsync explicitly; durability is whenever the OS writes
    /// back. For benches and tests only.
    Never,
}

impl SyncPolicy {
    /// Parse `"always"` or `"never"`.
    pub fn parse(s: &str) -> Result<SyncPolicy, String> {
        match s {
            "always" => Ok(SyncPolicy::Always),
            "never" => Ok(SyncPolicy::Never),
            other => Err(format!(
                "sync policy must be always or never — got {other:?}"
            )),
        }
    }
}

/// Journal tuning: where the journals live and how they sync and compact.
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Directory holding one subdirectory per tenant.
    pub root: PathBuf,
    /// fsync discipline on append.
    pub sync: SyncPolicy,
    /// Fold state into a checkpoint every this many appended records.
    pub compact_every: u64,
}

impl WalConfig {
    /// Defaults rooted at `root`: fsync always, a checkpoint every 64
    /// records.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        WalConfig {
            root: root.into(),
            sync: SyncPolicy::Always,
            compact_every: 64,
        }
    }
}

// ---------------------------------------------------------------------------
// Records.

/// One journal record. `Snapshot` and `Delta` are appended after the
/// mutation passed the admission gate (the journaled problem is the
/// *post-admission* repaired one, so replay re-admits clean);
/// `Placement` after the round passed the certification gate.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum WalRecord {
    /// A full admitted snapshot replaced the tenant's world.
    Snapshot {
        /// Session generation after this record applied.
        generation: u64,
        /// Publish rounds completed (set when a checkpoint wrote the
        /// record; 0 for a client snapshot).
        rounds: u64,
        /// The admitted problem.
        problem: Problem,
    },
    /// An incremental delta applied cleanly.
    Delta {
        /// Session generation after this record applied.
        generation: u64,
        /// The applied delta.
        delta: SnapshotDelta,
    },
    /// A placement passed certification and was published.
    Placement(RestoredPlacement),
}

impl WalRecord {
    /// An admitted-snapshot record.
    pub fn snapshot(generation: u64, problem: Problem) -> WalRecord {
        WalRecord::Snapshot {
            generation,
            rounds: 0,
            problem,
        }
    }

    /// An applied-delta record.
    pub fn delta(generation: u64, delta: SnapshotDelta) -> WalRecord {
        WalRecord::Delta { generation, delta }
    }

    /// A certified-placement record.
    pub fn placement(placement: RestoredPlacement) -> WalRecord {
        WalRecord::Placement(placement)
    }
}

/// Why a journal write failed.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem trouble (create, write, fsync, rename).
    Io {
        /// The journal path involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The record could not be serialized (should be unreachable for the
    /// types journaled here).
    Serialize {
        /// The underlying JSON error.
        source: serde_json::Error,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            WalError::Serialize { source } => write!(f, "wal record serialize: {source}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io { source, .. } => Some(source),
            WalError::Serialize { source } => Some(source),
        }
    }
}

fn io_err(path: &Path) -> impl Fn(io::Error) -> WalError + '_ {
    move |source| WalError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Serialize and frame one record: length, CRC, JSON payload.
fn frame(record: &WalRecord) -> Result<Vec<u8>, WalError> {
    let payload = serde_json::to_string(record).map_err(|source| WalError::Serialize { source })?;
    let payload = payload.as_bytes();
    let mut buf = Vec::with_capacity(payload.len() + 8);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(buf)
}

// ---------------------------------------------------------------------------
// Crash failpoints (see module docs).

/// `true` exactly when this call is the configured `RASA_WAL_CRASH_AT`
/// point for `op` (`"append"` or `"compact"`).
fn crash_point(op: &str) -> bool {
    static SPEC: OnceLock<Option<(String, u64)>> = OnceLock::new();
    static COUNT: AtomicU64 = AtomicU64::new(0);
    let spec = SPEC.get_or_init(|| {
        let raw = std::env::var("RASA_WAL_CRASH_AT").ok()?;
        let (o, n) = raw.split_once(':')?;
        Some((o.to_string(), n.parse().ok()?))
    });
    let Some((o, n)) = spec else { return false };
    if o != op {
        return false;
    }
    COUNT.fetch_add(1, Ordering::SeqCst) + 1 == *n
}

/// Tear `framed` in half into `file` and die like a power cut: the
/// partial bytes are synced (so the torn state is really on disk), then
/// the process aborts without unwinding.
fn tear_and_abort(file: &mut File, framed: &[u8]) -> ! {
    let half = framed.len() / 2;
    let _ = file.write_all(&framed[..half.max(1)]);
    let _ = file.sync_data();
    std::process::abort();
}

// ---------------------------------------------------------------------------
// The writer.

/// One tenant's open journal: the append/compact side. Reading happens
/// through [`recover_all`] / [`recover_tenant`].
pub struct TenantJournal {
    dir: PathBuf,
    sync: SyncPolicy,
    compact_every: u64,
    seg_seq: u64,
    file: File,
    records_since_checkpoint: u64,
}

fn seg_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{seq:016}{WAL_SUFFIX}"))
}

/// Sequence numbers of the segment files in `dir`, oldest first.
fn list_segments(dir: &Path) -> Vec<u64> {
    let mut segs: Vec<u64> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name();
            name.to_str()?
                .strip_prefix(SEGMENT_PREFIX)?
                .strip_suffix(WAL_SUFFIX)?
                .parse()
                .ok()
        })
        .collect();
    segs.sort_unstable();
    segs
}

/// The state a checkpoint folds in (borrowed from the live session at
/// compaction time).
pub struct CheckpointState<'a> {
    /// The admitted problem.
    pub problem: &'a Problem,
    /// The last certified placement, if any.
    pub published: Option<RestoredPlacement>,
    /// Publish rounds completed.
    pub rounds: u64,
    /// Snapshot generation.
    pub generation: u64,
}

impl TenantJournal {
    /// Open (creating if needed) the journal for `tenant` under
    /// `config.root` and start a fresh segment after whatever is already
    /// there. Existing files are never appended to — recovery has
    /// already read them, and a fresh segment sidesteps re-validating a
    /// possibly-torn tail on the write path.
    pub fn open(config: &WalConfig, tenant: &str) -> Result<TenantJournal, WalError> {
        let dir = config.root.join(tenant);
        fs::create_dir_all(&dir).map_err(io_err(&dir))?;
        let seg_seq = list_segments(&dir).last().map_or(1, |last| last + 1);
        let file = new_segment(&dir, seg_seq, config.sync)?;
        Ok(TenantJournal {
            dir,
            sync: config.sync,
            compact_every: config.compact_every.max(1),
            seg_seq,
            file,
            records_since_checkpoint: 0,
        })
    }

    /// The tenant's journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append one record to the current segment, honoring the sync
    /// policy. On `Ok`, under [`SyncPolicy::Always`], the record is
    /// durable.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        let obs = rasa_obs::global();
        let framed = frame(record)?;
        if crash_point("append") {
            tear_and_abort(&mut self.file, &framed);
        }
        let path = seg_path(&self.dir, self.seg_seq);
        self.file.write_all(&framed).map_err(io_err(&path))?;
        obs.inc("wal.appends");
        obs.add("wal.bytes_written", framed.len() as u64);
        if self.sync == SyncPolicy::Always {
            self.file.sync_data().map_err(io_err(&path))?;
            obs.inc("wal.fsyncs");
        }
        self.records_since_checkpoint += 1;
        Ok(())
    }

    /// `true` once enough records accumulated that the caller should
    /// [`checkpoint`](Self::checkpoint).
    pub fn needs_checkpoint(&self) -> bool {
        self.records_since_checkpoint >= self.compact_every
    }

    /// Write `state` as a compacted segment after the current one, open
    /// the next segment, and delete the superseded segments newest first.
    /// Crash-safe at every step: the compacted segment is complete and
    /// renamed before anything is deleted, and deleting newest first
    /// leaves a prefix of the old history, which replay then overwrites
    /// with the compacted `Snapshot`.
    pub fn checkpoint(&mut self, state: &CheckpointState<'_>) -> Result<(), WalError> {
        let compacted = self.seg_seq + 1;
        let mut bytes = MAGIC.to_vec();
        bytes.extend(frame(&WalRecord::Snapshot {
            generation: state.generation,
            rounds: state.rounds,
            problem: state.problem.clone(),
        })?);
        if let Some(placement) = &state.published {
            bytes.extend(frame(&WalRecord::placement(placement.clone()))?);
        }
        let final_path = seg_path(&self.dir, compacted);
        let tmp_path = final_path.with_extension("tmp");
        {
            let mut tmp = File::create(&tmp_path).map_err(io_err(&tmp_path))?;
            if crash_point("compact") {
                tear_and_abort(&mut tmp, &bytes);
            }
            tmp.write_all(&bytes).map_err(io_err(&tmp_path))?;
            tmp.sync_all().map_err(io_err(&tmp_path))?;
        }
        fs::rename(&tmp_path, &final_path).map_err(io_err(&final_path))?;
        sync_dir(&self.dir);
        rasa_obs::global().inc("wal.checkpoints");

        // the compacted segment is durable; everything below is rollover
        // and clean-up
        self.seg_seq = compacted + 1;
        self.file = new_segment(&self.dir, self.seg_seq, self.sync)?;
        self.records_since_checkpoint = 0;
        let superseded = list_segments(&self.dir)
            .into_iter()
            .filter(|s| *s < compacted);
        for seq in superseded.rev() {
            if fs::remove_file(seg_path(&self.dir, seq)).is_err() {
                break;
            }
        }
        Ok(())
    }
}

fn new_segment(dir: &Path, seq: u64, sync: SyncPolicy) -> Result<File, WalError> {
    let path = seg_path(dir, seq);
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&path)
        .map_err(io_err(&path))?;
    file.write_all(&MAGIC).map_err(io_err(&path))?;
    if sync == SyncPolicy::Always {
        file.sync_data().map_err(io_err(&path))?;
    }
    sync_dir(dir);
    Ok(file)
}

/// fsync a directory so renames/creates inside it are durable. Best
/// effort — not every filesystem supports it, and the record-level CRCs
/// catch what slips through.
fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// Delete a tenant's journal directory outright (serving `DELETE
/// /tenant`, or operator cleanup of a quarantined journal).
pub fn remove_tenant_journal(root: &Path, tenant: &str) -> io::Result<()> {
    let dir = root.join(tenant);
    if dir.is_dir() {
        fs::remove_dir_all(&dir)
    } else {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Replay / recovery.

/// Tallies from replaying one tenant's journal.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayStats {
    /// Segment files read.
    pub segments: u64,
    /// Records applied to the rebuilt state.
    pub records_replayed: u64,
    /// Segments whose replay ended early: a torn tail, or a frame that
    /// failed its length, CRC or decode check.
    pub torn_tails: u64,
}

/// What replay produced for one tenant. `Recovered` still has to pass
/// the trust gates (`AllocationSession::restore`) before it is served.
#[derive(Debug)]
pub enum RecoveryOutcome {
    /// A consistent state was rebuilt from the journal.
    Recovered(Box<RestoredState>),
    /// The journal is damaged beyond safe use; the tenant must be
    /// quarantined (503), never served from these bytes.
    Quarantined {
        /// What replay found.
        reason: String,
    },
    /// The journal holds no state (created but never snapshotted, and
    /// nothing was lost getting here) — no tenant to rebuild.
    Empty,
}

/// One tenant's replay result.
#[derive(Debug)]
pub struct RecoveredTenant {
    /// Tenant name (the journal subdirectory name).
    pub tenant: String,
    /// Replay tallies.
    pub stats: ReplayStats,
    /// The rebuilt state, a quarantine, or nothing.
    pub outcome: RecoveryOutcome,
}

/// The record framed at byte `pos` and the offset just past it, or `None`
/// when the frame there fails its length, CRC or decode check.
fn frame_at(bytes: &[u8], pos: usize) -> Option<(WalRecord, usize)> {
    let header = bytes.get(pos..pos + 8)?;
    let rec_len = u32::from_le_bytes(header[..4].try_into().ok()?);
    let want_crc = u32::from_le_bytes(header[4..].try_into().ok()?);
    if rec_len == 0 || rec_len > MAX_RECORD_BYTES {
        return None;
    }
    let end = pos + 8 + rec_len as usize;
    let payload = bytes.get(pos + 8..end)?;
    if crc32(payload) != want_crc {
        return None;
    }
    let record = serde_json::from_str(std::str::from_utf8(payload).ok()?).ok()?;
    Some((record, end))
}

/// Parse the framed records of one journal file: every record before the
/// first frame that fails its check. A segment that ends early (or is
/// unreadable, or lacks the magic) counts into `stats.torn_tails` and
/// emits a `WalTornTail` flight event with the bytes lost.
fn read_frames(path: &Path, seq: u64, stats: &mut ReplayStats) -> Vec<WalRecord> {
    let bytes = fs::read(path).unwrap_or_default();
    let mut records = Vec::new();
    let mut pos = 0;
    if bytes.starts_with(&MAGIC) {
        pos = MAGIC.len();
        while let Some((record, end)) = frame_at(&bytes, pos) {
            records.push(record);
            pos = end;
        }
    }
    if pos == 0 || pos < bytes.len() {
        stats.torn_tails += 1;
        rasa_obs::global().inc("recovery.torn_tails");
        flight::emit(|| TraceEvent::WalTornTail {
            segment: seq,
            valid_bytes: pos as u64,
            lost_bytes: (bytes.len() - pos) as u64,
        });
    }
    records
}

/// Replay one tenant's journal into a [`RecoveredTenant`]: one in-order
/// pass over its segments. Never panics on any byte content; damage ends
/// its segment's replay (counted) or quarantines the tenant. A delta that
/// cannot re-apply quarantines unless a later `Snapshot` replaces the
/// world it damaged.
pub fn recover_tenant(config: &WalConfig, tenant: &str) -> RecoveredTenant {
    let obs = rasa_obs::global();
    let dir = config.root.join(tenant);
    let mut stats = ReplayStats::default();
    let mut problem: Option<Problem> = None;
    let mut published: Option<RestoredPlacement> = None;
    let mut rounds = 0u64;
    let mut generation = 0u64;
    let mut quarantine: Option<String> = None;
    for seq in list_segments(&dir) {
        stats.segments += 1;
        for record in read_frames(&seg_path(&dir, seq), seq, &mut stats) {
            match record {
                WalRecord::Snapshot {
                    generation: g,
                    rounds: r,
                    problem: p,
                } => {
                    problem = Some(p);
                    generation = g;
                    rounds = rounds.max(r);
                    quarantine = None;
                }
                WalRecord::Delta {
                    generation: g,
                    delta,
                } => {
                    let Some(base) = problem.as_ref() else {
                        quarantine.get_or_insert_with(|| {
                            "journaled delta precedes any snapshot".to_string()
                        });
                        continue;
                    };
                    match apply_delta_to_problem(base, &delta) {
                        Ok((next, _report)) => {
                            problem = Some(next);
                            generation = g;
                        }
                        Err(e) => {
                            quarantine.get_or_insert_with(|| {
                                format!("journaled delta failed to re-apply: {e}")
                            });
                            continue;
                        }
                    }
                }
                WalRecord::Placement(placement) => {
                    rounds = rounds.max(placement.round);
                    published = Some(placement);
                }
            }
            stats.records_replayed += 1;
            obs.inc("recovery.records_replayed");
        }
    }

    let outcome = match (quarantine, problem) {
        (Some(reason), _) => RecoveryOutcome::Quarantined { reason },
        (None, Some(problem)) => RecoveryOutcome::Recovered(Box::new(RestoredState {
            problem,
            published,
            rounds,
            generation,
        })),
        (None, None) => {
            if stats.torn_tails > 0 {
                // records were lost and nothing usable remains — we cannot
                // tell "never had state" from "lost the snapshot"
                RecoveryOutcome::Quarantined {
                    reason: "no usable snapshot survived in the journal".to_string(),
                }
            } else {
                RecoveryOutcome::Empty
            }
        }
    };
    RecoveredTenant {
        tenant: tenant.to_string(),
        stats,
        outcome,
    }
}

/// Discover every tenant journal under `config.root` and replay each.
/// Subdirectory names that are not valid tenant names are ignored.
pub fn recover_all(config: &WalConfig) -> Vec<RecoveredTenant> {
    let mut tenants: Vec<String> = Vec::new();
    if let Ok(entries) = fs::read_dir(&config.root) {
        for entry in entries.flatten() {
            if !entry.path().is_dir() {
                continue;
            }
            if let Some(name) = entry.file_name().to_str() {
                tenants.push(name.to_string());
            }
        }
    }
    tenants.sort_unstable();
    tenants.iter().map(|t| recover_tenant(config, t)).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use rasa_core::{EdgeUpdate, SnapshotDelta};
    use rasa_model::{Placement, ProblemValidator};
    use rasa_trace::{generate, tiny_cluster};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_root(name: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rasa_wal_test_{name}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn admitted_problem(seed: u64) -> Problem {
        let raw = generate(&tiny_cluster(seed));
        let (repaired, _) = ProblemValidator::new().admit(&raw);
        repaired.unwrap_or(raw)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // standard IEEE CRC-32 check values
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sync_policy_parses() {
        assert_eq!(SyncPolicy::parse("always").unwrap(), SyncPolicy::Always);
        assert_eq!(SyncPolicy::parse("never").unwrap(), SyncPolicy::Never);
        assert!(SyncPolicy::parse("every:8").is_err());
        assert!(SyncPolicy::parse("sometimes").is_err());
    }

    #[test]
    fn append_and_replay_round_trips() {
        let root = temp_root("roundtrip");
        let config = WalConfig::new(&root);
        let problem = admitted_problem(3);
        let mut journal = TenantJournal::open(&config, "acme").unwrap();
        journal
            .append(&WalRecord::snapshot(1, problem.clone()))
            .unwrap();
        journal
            .append(&WalRecord::delta(
                2,
                SnapshotDelta {
                    edge_updates: vec![EdgeUpdate {
                        a: 0,
                        b: 1,
                        weight: 77.0,
                    }],
                    replica_updates: vec![],
                },
            ))
            .unwrap();

        let rec = recover_tenant(&config, "acme");
        let RecoveryOutcome::Recovered(state) = rec.outcome else {
            panic!("expected recovery, got {:?}", rec.outcome);
        };
        assert_eq!(state.generation, 2);
        assert_eq!(rec.stats.records_replayed, 2);
        assert_eq!(rec.stats.torn_tails, 0);
        let edge = state
            .problem
            .affinity_edges
            .iter()
            .find(|e| (e.a.0, e.b.0) == (0, 1) || (e.a.0, e.b.0) == (1, 0));
        assert!(edge.is_some_and(|e| (e.weight - 77.0).abs() < 1e-9));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_tail_truncates_at_last_valid_record() {
        let root = temp_root("torn");
        let config = WalConfig::new(&root);
        let problem = admitted_problem(4);
        let mut journal = TenantJournal::open(&config, "t");
        let journal = journal.as_mut().unwrap();
        journal.append(&WalRecord::snapshot(1, problem)).unwrap();
        journal
            .append(&WalRecord::placement(RestoredPlacement {
                round: 1,
                generation: 1,
                claimed_objective: 10.0,
                normalized: 0.9,
                placement: Placement::default(),
            }))
            .unwrap();
        // tear the tail: chop 7 bytes off the last record
        let path = seg_path(&config.root.join("t"), journal.seg_seq);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let rec = recover_tenant(&config, "t");
        assert_eq!(rec.stats.torn_tails, 1);
        let RecoveryOutcome::Recovered(state) = rec.outcome else {
            panic!("snapshot before the tear must survive");
        };
        // the torn placement record is gone; the snapshot survived
        assert!(state.published.is_none());
        assert_eq!(state.generation, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn bit_flip_ends_the_segment_like_a_torn_tail() {
        let root = temp_root("bitflip");
        let config = WalConfig::new(&root);
        let problem = admitted_problem(5);
        let mut journal = TenantJournal::open(&config, "t").unwrap();
        journal.append(&WalRecord::snapshot(1, problem)).unwrap();
        let flip_at = fs::read(seg_path(&config.root.join("t"), journal.seg_seq))
            .unwrap()
            .len();
        journal
            .append(&WalRecord::placement(RestoredPlacement {
                round: 1,
                generation: 1,
                claimed_objective: 10.0,
                normalized: 0.9,
                placement: Placement::default(),
            }))
            .unwrap();
        journal
            .append(&WalRecord::delta(2, SnapshotDelta::default()))
            .unwrap();
        // flip one byte inside the placement record's payload
        let path = seg_path(&config.root.join("t"), journal.seg_seq);
        let mut bytes = fs::read(&path).unwrap();
        bytes[flip_at + 20] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let rec = recover_tenant(&config, "t");
        assert_eq!(rec.stats.torn_tails, 1, "{:?}", rec.stats);
        assert_eq!(rec.stats.records_replayed, 1, "{:?}", rec.stats);
        let RecoveryOutcome::Recovered(state) = rec.outcome else {
            panic!("the snapshot before the flip must survive");
        };
        assert!(
            state.published.is_none(),
            "flipped placement must not be restored"
        );
        assert_eq!(
            state.generation, 1,
            "the delta after the flip is lost with it: the tenant rolls back"
        );
        let _ = fs::remove_dir_all(&root);
    }

    fn placement(round: u64, generation: u64) -> RestoredPlacement {
        RestoredPlacement {
            round,
            generation,
            claimed_objective: 12.5,
            normalized: 0.95,
            placement: Placement::default(),
        }
    }

    #[test]
    fn checkpoint_truncates_and_recovery_prefers_it() {
        let root = temp_root("ckpt");
        let config = WalConfig::new(&root);
        let problem = admitted_problem(6);
        let mut journal = TenantJournal::open(&config, "t").unwrap();
        journal
            .append(&WalRecord::snapshot(1, problem.clone()))
            .unwrap();
        for g in 2..6 {
            journal
                .append(&WalRecord::delta(g, SnapshotDelta::default()))
                .unwrap();
        }
        journal
            .checkpoint(&CheckpointState {
                problem: &problem,
                published: Some(placement(3, 5)),
                rounds: 3,
                generation: 5,
            })
            .unwrap();

        // the superseded segment is gone: the compacted segment and the
        // fresh one after it remain, and no temp file is left
        let dir = config.root.join("t");
        assert_eq!(list_segments(&dir), vec![2, 3]);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 2);

        let rec = recover_tenant(&config, "t");
        let RecoveryOutcome::Recovered(state) = rec.outcome else {
            panic!("checkpoint must recover");
        };
        assert_eq!(state.generation, 5);
        assert_eq!(state.rounds, 3);
        assert!(state.published.is_some());
        // the compacted Snapshot and Placement are all that replays
        assert_eq!(rec.stats.records_replayed, 2);
        assert_eq!(rec.stats.segments, 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_checkpoint_falls_back_to_segments() {
        let root = temp_root("badckpt");
        let config = WalConfig::new(&root);
        let problem = admitted_problem(7);
        let mut journal = TenantJournal::open(&config, "t").unwrap();
        journal
            .append(&WalRecord::snapshot(1, problem.clone()))
            .unwrap();
        journal
            .checkpoint(&CheckpointState {
                problem: &problem,
                published: None,
                rounds: 0,
                generation: 1,
            })
            .unwrap();
        journal
            .append(&WalRecord::snapshot(2, problem.clone()))
            .unwrap();
        // truncate the compacted segment to half: replay counts the torn
        // tail and the later segment's snapshot is what is left
        let dir = config.root.join("t");
        let compacted = seg_path(&dir, list_segments(&dir)[0]);
        let bytes = fs::read(&compacted).unwrap();
        fs::write(&compacted, &bytes[..bytes.len() / 2]).unwrap();

        let rec = recover_tenant(&config, "t");
        assert_eq!(rec.stats.torn_tails, 1);
        let RecoveryOutcome::Recovered(state) = rec.outcome else {
            panic!(
                "the later segment must still recover, got {:?}",
                rec.outcome
            );
        };
        assert_eq!(state.generation, 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn partial_cleanup_recovers_the_compacted_state() {
        let root = temp_root("cleanup");
        let config = WalConfig::new(&root);
        let problem = admitted_problem(9);
        // three superseded segments, one per open
        for g in 1..4 {
            let mut journal = TenantJournal::open(&config, "t").unwrap();
            journal
                .append(&WalRecord::snapshot(g, problem.clone()))
                .unwrap();
            journal
                .append(&WalRecord::placement(placement(g, g)))
                .unwrap();
        }
        let dir = config.root.join("t");
        let old: Vec<(PathBuf, Vec<u8>)> = list_segments(&dir)
            .into_iter()
            .map(|seq| (seg_path(&dir, seq), fs::read(seg_path(&dir, seq)).unwrap()))
            .collect();
        assert_eq!(old.len(), 3);
        let mut journal = TenantJournal::open(&config, "t").unwrap();
        journal
            .checkpoint(&CheckpointState {
                problem: &problem,
                published: Some(placement(7, 9)),
                rounds: 7,
                generation: 9,
            })
            .unwrap();
        // a crash after deleting only the newest superseded segment
        for (path, bytes) in &old[..2] {
            fs::write(path, bytes).unwrap();
        }

        let rec = recover_tenant(&config, "t");
        let RecoveryOutcome::Recovered(state) = rec.outcome else {
            panic!("a partial clean-up must recover, got {:?}", rec.outcome);
        };
        assert_eq!((state.generation, state.rounds), (9, 7));
        let published = state.published.unwrap();
        assert_eq!((published.round, published.generation), (7, 9));
        assert_eq!(rec.stats.torn_tails, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_snapshot_replaces_the_damage_before_it() {
        let root = temp_root("reset");
        let config = WalConfig::new(&root);
        let mut journal = TenantJournal::open(&config, "t").unwrap();
        // a delta with no snapshot before it cannot re-apply, but the
        // snapshot after it replaces that world
        journal
            .append(&WalRecord::delta(1, SnapshotDelta::default()))
            .unwrap();
        journal
            .append(&WalRecord::snapshot(2, admitted_problem(11)))
            .unwrap();
        let rec = recover_tenant(&config, "t");
        let RecoveryOutcome::Recovered(state) = rec.outcome else {
            panic!("the snapshot must recover, got {:?}", rec.outcome);
        };
        assert_eq!(state.generation, 2);
        let _ = fs::remove_dir_all(&root);
    }

    /// The JSON payload of `record`'s frame.
    fn payload(record: &WalRecord) -> String {
        let framed = frame(record).unwrap();
        String::from_utf8(framed[8..].to_vec()).unwrap()
    }

    #[test]
    fn every_record_variant_round_trips() {
        let delta = SnapshotDelta {
            edge_updates: vec![EdgeUpdate {
                a: 0,
                b: 1,
                weight: 3.5,
            }],
            replica_updates: vec![],
        };
        let records = [
            WalRecord::Snapshot {
                generation: 4,
                rounds: 9,
                problem: admitted_problem(12),
            },
            WalRecord::delta(5, delta),
            WalRecord::placement(placement(9, 5)),
        ];
        for (record, tag) in records.iter().zip(["Snapshot", "Delta", "Placement"]) {
            let json = payload(record);
            assert!(json.starts_with(&format!(r#"{{"{tag}":{{"#)), "{json}");
            let back: WalRecord = serde_json::from_str(&json).unwrap();
            assert_eq!(payload(&back), json);
        }
    }

    #[test]
    fn a_delta_frame_carries_only_its_own_fields() {
        let json = payload(&WalRecord::delta(2, SnapshotDelta::default()));
        assert_eq!(
            json,
            r#"{"Delta":{"generation":2,"delta":{"edge_updates":[],"replica_updates":[]}}}"#
        );
        for absent in ["null", "\"rounds\"", "\"problem\"", "\"placement\""] {
            assert!(!json.contains(absent), "{absent} in {json}");
        }
    }

    #[test]
    fn a_crc_valid_record_of_unknown_variant_ends_the_segment() {
        let root = temp_root("unknown");
        let config = WalConfig::new(&root);
        let mut journal = TenantJournal::open(&config, "t").unwrap();
        journal
            .append(&WalRecord::snapshot(1, admitted_problem(13)))
            .unwrap();
        // well framed, CRC valid, but no variant of that name
        let bogus = br#"{"Rollback":{"generation":2}}"#;
        let mut framed = (bogus.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&crc32(bogus).to_le_bytes());
        framed.extend_from_slice(bogus);
        journal.file.write_all(&framed).unwrap();
        journal
            .append(&WalRecord::delta(3, SnapshotDelta::default()))
            .unwrap();

        let rec = recover_tenant(&config, "t");
        assert_eq!(rec.stats.torn_tails, 1, "{:?}", rec.stats);
        assert_eq!(rec.stats.records_replayed, 1);
        let RecoveryOutcome::Recovered(state) = rec.outcome else {
            panic!("the snapshot before the unknown record must recover");
        };
        assert_eq!(state.generation, 1, "replay stops at the unknown record");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn old_format_journal_is_quarantined_not_empty() {
        let root = temp_root("oldmagic");
        let config = WalConfig::new(&root);
        let dir = config.root.join("t");
        fs::create_dir_all(&dir).unwrap();
        // a well-framed snapshot behind the previous format's magic, and
        // an empty segment of that format
        let mut bytes = b"RASAWAL2".to_vec();
        bytes.extend(frame(&WalRecord::snapshot(1, admitted_problem(10))).unwrap());
        fs::write(seg_path(&dir, 1), &bytes).unwrap();
        fs::write(seg_path(&dir, 2), b"RASAWAL2").unwrap();
        let rec = recover_tenant(&config, "t");
        assert!(
            matches!(rec.outcome, RecoveryOutcome::Quarantined { .. }),
            "{:?}",
            rec.outcome
        );
        assert_eq!(rec.stats.torn_tails, 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_journal_is_empty_not_quarantined() {
        let root = temp_root("empty");
        let config = WalConfig::new(&root);
        let _journal = TenantJournal::open(&config, "t").unwrap();
        let rec = recover_tenant(&config, "t");
        assert!(
            matches!(rec.outcome, RecoveryOutcome::Empty),
            "{:?}",
            rec.outcome
        );

        // but an all-garbage journal quarantines
        let dir = config.root.join("t");
        let mut garbage = MAGIC.to_vec();
        garbage.extend_from_slice(b"\xff\xff\xff\xff garbage");
        fs::write(seg_path(&dir, list_segments(&dir)[0]), garbage).unwrap();
        let rec = recover_tenant(&config, "t");
        assert!(
            matches!(rec.outcome, RecoveryOutcome::Quarantined { .. }),
            "{:?}",
            rec.outcome
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn segment_rotation_keeps_every_record() {
        let root = temp_root("rotate");
        let config = WalConfig::new(&root);
        let problem = admitted_problem(8);
        // every open starts a new segment; replay reads them in order
        let mut journal = TenantJournal::open(&config, "t").unwrap();
        journal.append(&WalRecord::snapshot(1, problem)).unwrap();
        for g in 2..8 {
            journal = TenantJournal::open(&config, "t").unwrap();
            journal
                .append(&WalRecord::delta(g, SnapshotDelta::default()))
                .unwrap();
        }
        drop(journal);
        assert_eq!(
            list_segments(&config.root.join("t")),
            (1..8).collect::<Vec<_>>()
        );
        let rec = recover_tenant(&config, "t");
        let RecoveryOutcome::Recovered(state) = rec.outcome else {
            panic!("a journal of several segments must recover");
        };
        assert_eq!(state.generation, 7);
        assert_eq!(rec.stats.records_replayed, 7);
        assert_eq!(rec.stats.segments, 7);
        let _ = fs::remove_dir_all(&root);
    }
}
