//! Per-tenant SLO accounting with multi-window burn rates.
//!
//! Each tenant tracks two objectives over its allocation requests
//! (`POST /snapshot` / `POST /delta`):
//!
//! * **availability** — the request got a final `200` (fresh or stale);
//! * **latency** — the request was available *and* finished within
//!   [`LATENCY_TARGET`].
//!
//! Outcomes land in per-minute buckets (a bounded deque — one hour of
//! history), and burn rates are computed on read over a 5-minute and a
//! 60-minute sliding window, SRE-style:
//!
//! ```text
//! burn = observed_error_rate / error_budget        (budget = 1 − target)
//! ```
//!
//! `burn < 1` means the tenant is within budget at the current rate; a
//! 5-minute burn well above 1 with a calm 1-hour burn flags a fresh,
//! fast-moving incident. Both windows surface in `GET /tenants` and the
//! labeled `slo.*` counters feed Prometheus.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A request slower than this misses the latency objective even when it
/// succeeds.
pub const LATENCY_TARGET: Duration = Duration::from_secs(1);
/// Fraction of requests that must be available.
pub const AVAILABILITY_TARGET: f64 = 0.999;
/// Fraction of requests that must meet [`LATENCY_TARGET`].
pub const LATENCY_OBJECTIVE: f64 = 0.99;

/// One minute of outcomes.
#[derive(Clone, Copy, Debug)]
struct MinuteBucket {
    minute: u64,
    total: u64,
    latency_misses: u64,
    unavailable: u64,
}

/// Burn rates over one window (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct SloBurn {
    /// Requests observed in the window.
    pub events: u64,
    /// Latency-objective burn rate (`0` when the window is empty).
    pub latency: f64,
    /// Availability-objective burn rate (`0` when the window is empty).
    pub availability: f64,
}

/// `observed_error_rate / error_budget` (`0` for an empty window).
fn burn_rate(bad: u64, total: u64, target: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let error_rate = bad as f64 / total as f64;
    error_rate / (1.0 - target)
}

/// Per-tenant SLO state: one hour of minute buckets.
#[derive(Debug)]
pub struct SloTracker {
    origin: Instant,
    buckets: VecDeque<MinuteBucket>,
}

impl Default for SloTracker {
    fn default() -> Self {
        SloTracker {
            origin: Instant::now(),
            buckets: VecDeque::new(),
        }
    }
}

impl SloTracker {
    fn minute_now(&self) -> u64 {
        self.origin.elapsed().as_secs() / 60
    }

    /// Record one request outcome: its final status (`200` counts as
    /// available, anything else as unavailable) and wall duration.
    /// Returns the verdict as `(available, latency_ok)`.
    pub fn record(&mut self, status: u16, duration: Duration) -> (bool, bool) {
        let available = status == 200;
        let latency_ok = available && duration <= LATENCY_TARGET;
        let minute = self.minute_now();
        let need_new = !matches!(self.buckets.back(), Some(b) if b.minute == minute);
        if need_new {
            self.buckets.push_back(MinuteBucket {
                minute,
                total: 0,
                latency_misses: 0,
                unavailable: 0,
            });
            // one hour of history is all any window reads
            while self.buckets.len() > 61 {
                self.buckets.pop_front();
            }
        }
        if let Some(bucket) = self.buckets.back_mut() {
            bucket.total += 1;
            if !latency_ok {
                bucket.latency_misses += 1;
            }
            if !available {
                bucket.unavailable += 1;
            }
        }
        (available, latency_ok)
    }

    /// Burn rates over the trailing `minutes`-minute window (including the
    /// current minute).
    pub fn burn(&self, minutes: u64) -> SloBurn {
        let now = self.minute_now();
        let from = now.saturating_sub(minutes.max(1) - 1);
        let (mut total, mut lm, mut ua) = (0u64, 0u64, 0u64);
        for b in &self.buckets {
            if b.minute >= from {
                total += b.total;
                lm += b.latency_misses;
                ua += b.unavailable;
            }
        }
        SloBurn {
            events: total,
            latency: burn_rate(lm, total, LATENCY_OBJECTIVE),
            availability: burn_rate(ua, total, AVAILABILITY_TARGET),
        }
    }

    /// The fast window: 5-minute burn.
    pub fn burn_short(&self) -> SloBurn {
        self.burn(5)
    }

    /// The slow window: 60-minute burn.
    pub fn burn_long(&self) -> SloBurn {
        self.burn(60)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// `a` and `b` agree to nine significant digits.
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn clean_traffic_burns_nothing() {
        let mut t = SloTracker::default();
        for _ in 0..50 {
            assert_eq!(t.record(200, Duration::from_millis(10)), (true, true));
        }
        let burn = t.burn_short();
        assert_eq!(burn.events, 50);
        assert_eq!(burn.latency, 0.0);
        assert_eq!(burn.availability, 0.0);
    }

    #[test]
    fn failures_burn_proportionally_to_the_budget() {
        let mut t = SloTracker::default();
        // 10% unavailable: burn = 0.1 / (1 − target) on each objective
        for i in 0..100 {
            let status = if i % 10 == 0 { 504 } else { 200 };
            t.record(status, Duration::from_millis(10));
        }
        let burn = t.burn_short();
        let availability = 0.1 / (1.0 - AVAILABILITY_TARGET);
        assert!(close(burn.availability, availability), "{burn:?}");
        // unavailable requests also miss latency (never latency-good)
        let latency = 0.1 / (1.0 - LATENCY_OBJECTIVE);
        assert!(close(burn.latency, latency), "{burn:?}");
    }

    #[test]
    fn slow_successes_miss_latency_but_not_availability() {
        let mut t = SloTracker::default();
        let slow = LATENCY_TARGET + Duration::from_millis(1);
        for _ in 0..10 {
            assert_eq!(t.record(200, slow), (true, false));
        }
        let burn = t.burn_short();
        assert_eq!(burn.events, 10);
        assert_eq!(burn.availability, 0.0);
        assert!(burn.latency > 1.0, "every request misses: {burn:?}");
    }

    #[test]
    fn empty_windows_do_not_divide_by_zero() {
        let burn = SloTracker::default().burn_short();
        assert_eq!(burn.events, 0);
        assert_eq!(burn.latency, 0.0);
        assert_eq!(burn.availability, 0.0);
    }

    #[test]
    fn bucket_history_is_bounded() {
        let mut t = SloTracker::default();
        // force many synthetic minutes by manipulating origin is not
        // possible from here; instead verify the deque never exceeds its
        // cap under same-minute load
        for _ in 0..1000 {
            t.record(200, Duration::from_millis(1));
        }
        assert!(t.buckets.len() <= 61);
    }
}
