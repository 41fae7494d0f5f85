//! The selection sample stream: every pipeline round logs one
//! `(features, choice, realized quality, latency)` tuple per freshly
//! solved subproblem.
//!
//! [`SampleLog`] is a bounded, thread-safe ring buffer the pipeline writes
//! into from its (possibly parallel) merge loop. Cloning shares the
//! underlying buffer, so every clone of a `RasaConfig` logs into the same
//! stream and a session's rounds accumulate in one place.

use crate::selectors::PoolAlgorithm;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One observed outcome of routing a subproblem to a pool arm.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SelectionSample {
    /// [`portfolio_features`](crate::features::portfolio_features) of the
    /// subproblem at choice time.
    pub features: Vec<f64>,
    /// The arm that solved it (after any fallback, the *primary* choice —
    /// realized quality is attributed to the decision, not the rescue).
    pub choice: PoolAlgorithm,
    /// Realized normalized gained affinity in `[0, 1]`.
    pub quality: f64,
    /// Wall-clock the solve consumed, seconds.
    pub latency_secs: f64,
    /// `true` when the solve degraded (fallback ladder or deadline) — the
    /// quality is then the rescue's.
    pub degraded: bool,
}

/// Default [`SampleLog`] capacity: enough for hundreds of serve rounds
/// without unbounded growth.
pub const DEFAULT_SAMPLE_CAPACITY: usize = 4096;

/// Bounded, thread-safe collector of [`SelectionSample`]s. Drop-oldest on
/// overflow (the caller counts drops via the returned flag). `Clone`
/// shares the buffer.
#[derive(Clone, Debug)]
pub struct SampleLog {
    inner: Arc<Mutex<VecDeque<SelectionSample>>>,
    capacity: usize,
}

impl Default for SampleLog {
    fn default() -> Self {
        SampleLog::with_capacity(DEFAULT_SAMPLE_CAPACITY)
    }
}

impl SampleLog {
    /// A log bounded at `capacity` samples (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        SampleLog {
            inner: Arc::new(Mutex::new(VecDeque::new())),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<SelectionSample>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append a sample; returns `true` when an oldest sample was dropped
    /// to make room (callers surface that as a `select.samples_dropped`
    /// counter).
    pub fn record(&self, sample: SelectionSample) -> bool {
        let mut q = self.lock();
        let dropped = q.len() >= self.capacity;
        if dropped {
            q.pop_front();
        }
        q.push_back(sample);
        dropped
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Copy out the current contents, oldest first, leaving the log
    /// intact.
    pub fn snapshot(&self) -> Vec<SelectionSample> {
        self.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(q: f64) -> SelectionSample {
        SelectionSample {
            features: vec![1.0, 2.0],
            choice: PoolAlgorithm::Mip,
            quality: q,
            latency_secs: 0.1,
            degraded: false,
        }
    }

    #[test]
    fn ring_drops_oldest_and_reports_it() {
        let log = SampleLog::with_capacity(2);
        assert!(!log.record(sample(0.1)));
        assert!(!log.record(sample(0.2)));
        assert!(log.record(sample(0.3)), "overflow drops the oldest");
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].quality, 0.2);
        assert_eq!(snap[1].quality, 0.3);
        assert_eq!(log.len(), 2, "snapshot leaves the log intact");
        assert!(!log.is_empty());
    }

    #[test]
    fn clones_share_the_buffer() {
        let log = SampleLog::default();
        let other = log.clone();
        other.record(sample(0.5));
        assert_eq!(log.len(), 1, "a cloned config logs into the same stream");
    }

    #[test]
    fn samples_round_trip_through_serde() {
        let s = sample(0.7);
        let json = serde_json::to_string(&s).unwrap();
        let back: SelectionSample = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
