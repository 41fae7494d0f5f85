//! The daemon's structured event log: leveled JSON entries in a bounded
//! in-memory ring, replacing ad-hoc `eprintln!` lines so operational
//! events are queryable (`GET /debug/log?tail=N`) and joinable to
//! requests — every entry captures the ambient
//! [`RequestContext`](rasa_obs::RequestContext) when one is installed.
//!
//! The ring keeps the newest 512 entries; older ones are dropped and
//! counted, never silently lost. `warn` and `error` entries
//! are also echoed to stderr, so a crashing daemon still leaves a trail.

use rasa_obs::flight::current_request_context;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Entries the ring keeps before it drops the oldest.
const LOG_CAPACITY: usize = 512;

/// Entry severity, ordered `Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Routine lifecycle events (startup, drain phases, publishes).
    Info,
    /// Degraded-but-handled conditions (breaker trips, stale serves).
    Warn,
    /// Failures (flush errors, panics, bind failures).
    Error,
}

impl LogLevel {
    /// Stable lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }
}

impl Serialize for LogLevel {
    fn serialize(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

/// One structured log entry.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct LogEntry {
    /// Monotone per-process sequence number.
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Severity.
    pub level: LogLevel,
    /// Subsystem that emitted the entry (`"serve"`, `"drain"`, …).
    pub target: String,
    /// Human-readable message.
    pub message: String,
    /// Request id ambient when the entry was emitted (empty outside any
    /// request context).
    pub request_id: String,
    /// Tenant ambient when the entry was emitted (empty likewise).
    pub tenant: String,
}

impl LogEntry {
    /// Render as one JSON object (the `/debug/log` wire format), fields in
    /// declaration order.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("strings and integers always serialize")
    }
}

/// The bounded, process-wide event log behind [`event_log()`].
#[derive(Debug, Default)]
pub struct EventLog {
    seq: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<VecDeque<LogEntry>>,
}

impl EventLog {
    fn lock_ring(&self) -> std::sync::MutexGuard<'_, VecDeque<LogEntry>> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append one entry, stamped with the ambient request context if any.
    pub fn emit(&self, level: LogLevel, target: &str, message: impl Into<String>) {
        let message = message.into();
        let ctx = current_request_context().unwrap_or_default();
        if level >= LogLevel::Warn {
            eprintln!("rasa-serve [{}] {target}: {message}", level.as_str());
        }
        let entry = LogEntry {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            level,
            target: target.to_string(),
            message,
            request_id: ctx.request_id,
            tenant: ctx.tenant,
        };
        let mut ring = self.lock_ring();
        while ring.len() >= LOG_CAPACITY {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(entry);
    }

    /// The newest `n` entries, oldest first.
    pub fn tail(&self, n: usize) -> Vec<LogEntry> {
        let ring = self.lock_ring();
        ring.iter()
            .skip(ring.len().saturating_sub(n))
            .cloned()
            .collect()
    }

    /// Entries dropped by the bounded ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Render the newest `n` entries as the `/debug/log` JSON document.
    pub fn tail_json(&self, n: usize) -> String {
        let entries: Vec<String> = self.tail(n).iter().map(LogEntry::to_json).collect();
        format!(
            "{{\"dropped\":{},\"entries\":[{}]}}",
            self.dropped(),
            entries.join(",")
        )
    }
}

/// The process-wide event log.
pub fn event_log() -> &'static EventLog {
    static LOG: OnceLock<EventLog> = OnceLock::new();
    LOG.get_or_init(EventLog::default)
}

/// Emit an `info` entry to the process-wide log.
pub fn info(target: &str, message: impl Into<String>) {
    event_log().emit(LogLevel::Info, target, message);
}

/// Emit a `warn` entry to the process-wide log.
pub fn warn(target: &str, message: impl Into<String>) {
    event_log().emit(LogLevel::Warn, target, message);
}

/// Emit an `error` entry to the process-wide log.
pub fn error(target: &str, message: impl Into<String>) {
    event_log().emit(LogLevel::Error, target, message);
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let log = EventLog::default();
        for i in 0..LOG_CAPACITY + 4 {
            log.emit(LogLevel::Info, "test", format!("m{i}"));
        }
        let tail = log.tail(LOG_CAPACITY + 10);
        assert_eq!(tail.len(), LOG_CAPACITY);
        assert_eq!(tail[0].message, "m4");
        assert_eq!(
            tail[LOG_CAPACITY - 1].message,
            format!("m{}", LOG_CAPACITY + 3)
        );
        assert_eq!(log.dropped(), 4);
        assert!(tail.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn entries_capture_the_ambient_request_context() {
        let log = EventLog::default();
        {
            let _ctx =
                rasa_obs::with_request_context(rasa_obs::RequestContext::new("req-7", "acme"));
            log.emit(LogLevel::Info, "serve", "round published");
        }
        log.emit(LogLevel::Info, "serve", "outside");
        let tail = log.tail(10);
        assert_eq!(tail[0].request_id, "req-7");
        assert_eq!(tail[0].tenant, "acme");
        assert_eq!(tail[1].request_id, "");
        let json = tail[0].to_json();
        assert!(json.contains("\"request_id\":\"req-7\""));
        assert!(json.contains("\"level\":\"info\""));
    }

    #[test]
    fn json_escaping_survives_hostile_messages() {
        let log = EventLog::default();
        log.emit(LogLevel::Info, "t", "quote \" slash \\ newline \n end");
        let json = log.tail_json(1);
        assert!(json.contains("quote \\\" slash \\\\ newline \\n end"));
        assert!(json.starts_with("{\"dropped\":0,\"entries\":["));
    }
}
