//! What the benchmark reads from the operating system: process CPU time,
//! peak resident memory, and the provenance of a run.

use serde::{Deserialize, Serialize};
use std::process::Command;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    seconds: i64,
    nanoseconds: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const PROCESS_CPUTIME: i32 = 2;

extern "C" {
    // from the C library `std` already links
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// User + system CPU seconds this process has used, all threads, exited
/// ones included, to the nanosecond. `/proc/self/stat` counts the same time
/// in ticks of 10 ms, too coarse for a `churn` round that costs 35 ms of
/// CPU.
pub fn process_cpu_seconds() -> f64 {
    let mut now = Timespec {
        seconds: 0,
        nanoseconds: 0,
    };
    // SAFETY: `now` is a valid, writable `timespec`; the call writes nothing else.
    let status = unsafe { clock_gettime(PROCESS_CPUTIME, &mut now) };
    assert_eq!(status, 0, "the process CPU clock cannot be read");
    now.seconds as f64 + now.nanoseconds as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where a result file came from.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Provenance {
    pub seed: u64,
    pub git_commit: String,
    pub nproc: u64,
    /// Worker threads the solver uses (`available_parallelism`, its default).
    pub solver_threads: u64,
    /// Client threads of the load generator (`serve-warm`); at most `nproc`.
    pub client_threads: u64,
    pub rustc: String,
    pub quick: bool,
}

impl Provenance {
    pub fn collect(seed: u64, quick: bool, client_threads: usize) -> Self {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1);
        Provenance {
            seed,
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            nproc,
            solver_threads: nproc,
            client_threads: client_threads as u64,
            rustc: command_line("rustc", &["--version"]),
            quick,
        }
    }
}

/// Where the benchmark writes: `<target dir>/benchmark/`, next to the build
/// that produced this executable (`<target dir>/release/benchmark`), so
/// everything stays inside the checkout and under an ignored directory.
pub fn output_dir() -> std::path::PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.parent()
                .and_then(|p| p.parent())
                .map(|p| p.to_path_buf())
        })
        .unwrap_or_else(|| std::path::PathBuf::from("target"));
    target.join("benchmark")
}
