//! Kill-9 crash campaign against the real `rasa-serve` binary (the one
//! this package builds), one full cycle through the crash modes: SIGKILL
//! at quiesce, abort mid-append, abort mid-compaction, and kill followed
//! by torn-tail / bit-flip / truncated-segment journal damage.
//!
//! The full-size seeded campaign (≥50 crash points) runs in CI via
//! `chaos crash`; this test keeps one representative cycle in the
//! ordinary test suite so a recovery regression fails `cargo test`, not
//! just the nightly chaos job.

#![allow(clippy::unwrap_used)]

use rasa_sim::crash::{run_crash_campaign, CrashConfig};

#[test]
fn one_full_crash_mode_cycle_recovers_cleanly() {
    let work_dir =
        std::env::temp_dir().join(format!("rasa_crash_chaos_test_{}", std::process::id()));
    let config = CrashConfig {
        seed: 0xC4A5,
        crash_points: 6, // one of each mode
        serve_bin: env!("CARGO_BIN_EXE_rasa-serve").into(),
        work_dir: work_dir.clone(),
    };
    let report = run_crash_campaign(&config);

    let mut problems: Vec<String> = report.violations.clone();
    for r in &report.rounds {
        problems.extend(r.violations.iter().cloned());
    }
    assert!(
        report.is_clean(),
        "crash campaign violated recovery invariants:\n{}",
        problems.join("\n")
    );
    assert_eq!(report.panics, 0);
    assert!(
        report.identical_recoveries >= 1,
        "at least the quiesced-kill round must recover byte-identical state"
    );
    assert!(report.max_recovery_seconds <= rasa_sim::crash::RECOVERY_BOUND_SECS);
    let _ = std::fs::remove_dir_all(&work_dir);
}
