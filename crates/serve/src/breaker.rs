//! Per-tenant circuit breaker: repeated ladder exhaustion trips the tenant
//! into a degraded stale-serving mode instead of burning solver budget on
//! a world that keeps failing.
//!
//! The state machine is the classic three-state breaker:
//!
//! * **Closed** — normal operation; consecutive solve failures are
//!   counted, and reaching the threshold trips the breaker **Open**.
//! * **Open** — solve requests are answered from the last certified
//!   placement (`stale: true`) without touching the solver. After the
//!   cooldown elapses, the next request is admitted as a **probe**.
//! * **Half-open** — exactly one probe solve is in flight at a time; a
//!   successful probe closes the breaker, a failed one re-opens it and
//!   restarts the cooldown.
//!
//! All time-dependent transitions take `now: Instant` as an argument so
//! tests drive the clock explicitly (`base + cooldown`) instead of
//! sleeping.

use std::time::{Duration, Instant};

/// Consecutive failures that trip Closed → Open.
pub const FAILURE_THRESHOLD: u32 = 3;

/// The breaker's externally visible state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation.
    Closed,
    /// Tripped: serve stale, wait out the cooldown.
    Open,
    /// Cooldown elapsed: probing with a single solve.
    HalfOpen,
}

/// What the breaker decided for an incoming solve request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Run the solve normally.
    Solve,
    /// Run the solve as the half-open recovery probe (its outcome decides
    /// whether the breaker closes or re-opens).
    Probe,
    /// Do not solve; serve the last certified placement with `stale: true`.
    ServeStale,
}

/// Per-tenant circuit breaker. Not internally synchronized — the daemon
/// keeps one behind the tenant's control lock.
#[derive(Debug)]
pub struct CircuitBreaker {
    cooldown: Duration,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    probe_in_flight: bool,
    trips: u64,
    recoveries: u64,
}

impl CircuitBreaker {
    /// A closed breaker that stays Open for `cooldown` before admitting a
    /// probe.
    pub fn new(cooldown: Duration) -> Self {
        CircuitBreaker {
            cooldown,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: None,
            probe_in_flight: false,
            trips: 0,
            recoveries: 0,
        }
    }

    /// Current state, advancing Open → HalfOpen if the cooldown has
    /// elapsed by `now` (pure: does not start a probe).
    pub fn state(&self, now: Instant) -> BreakerState {
        match self.state {
            BreakerState::Open if self.cooldown_elapsed(now) => BreakerState::HalfOpen,
            s => s,
        }
    }

    /// Gate one incoming solve request at `now`.
    pub fn admit(&mut self, now: Instant) -> BreakerDecision {
        match self.state {
            BreakerState::Closed => BreakerDecision::Solve,
            BreakerState::Open => {
                if self.cooldown_elapsed(now) {
                    self.state = BreakerState::HalfOpen;
                    self.probe_in_flight = true;
                    BreakerDecision::Probe
                } else {
                    BreakerDecision::ServeStale
                }
            }
            BreakerState::HalfOpen => {
                if self.probe_in_flight {
                    BreakerDecision::ServeStale
                } else {
                    self.probe_in_flight = true;
                    BreakerDecision::Probe
                }
            }
        }
    }

    /// Report a successful (certified, non-degraded) solve round.
    pub fn on_success(&mut self) {
        match self.state {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Closed;
                self.probe_in_flight = false;
                self.consecutive_failures = 0;
                self.recoveries += 1;
            }
            _ => self.consecutive_failures = 0,
        }
    }

    /// Report a failed round (ladder exhaustion, certification failure, or
    /// a caught solve panic) observed at `now`.
    pub fn on_failure(&mut self, now: Instant) {
        match self.state {
            BreakerState::HalfOpen => {
                // failed probe: straight back to Open, cooldown restarts
                self.state = BreakerState::Open;
                self.probe_in_flight = false;
                self.opened_at = Some(now);
                self.trips += 1;
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= FAILURE_THRESHOLD {
                    self.state = BreakerState::Open;
                    self.opened_at = Some(now);
                    self.trips += 1;
                }
            }
            BreakerState::Open => {}
        }
    }

    /// A probe was admitted but abandoned before completing (e.g. drain);
    /// release the probe slot so the tenant is not stuck half-open forever.
    pub fn abandon_probe(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probe_in_flight = false;
        }
    }

    /// Closed → Open transitions so far.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Half-open probes that closed the breaker.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    fn cooldown_elapsed(&self, now: Instant) -> bool {
        self.opened_at
            .is_some_and(|t| now.duration_since(t) >= self.cooldown)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(Duration::from_secs(10))
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let mut b = breaker();
        let t0 = Instant::now();
        assert_eq!(b.admit(t0), BreakerDecision::Solve);
        b.on_failure(t0);
        b.on_failure(t0);
        assert_eq!(b.state(t0), BreakerState::Closed);
        // a success resets the streak
        b.on_success();
        b.on_failure(t0);
        b.on_failure(t0);
        assert_eq!(b.state(t0), BreakerState::Closed);
        b.on_failure(t0);
        assert_eq!(b.state(t0), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        assert_eq!(b.admit(t0), BreakerDecision::ServeStale);
    }

    #[test]
    fn cooldown_admits_exactly_one_probe() {
        let mut b = breaker();
        let t0 = Instant::now();
        for _ in 0..3 {
            b.on_failure(t0);
        }
        let before = t0 + Duration::from_secs(9);
        assert_eq!(b.admit(before), BreakerDecision::ServeStale);
        let after = t0 + Duration::from_secs(10);
        assert_eq!(b.state(after), BreakerState::HalfOpen);
        assert_eq!(b.admit(after), BreakerDecision::Probe);
        // concurrent request while the probe is out: stale
        assert_eq!(b.admit(after), BreakerDecision::ServeStale);
    }

    #[test]
    fn successful_probe_closes_failed_probe_reopens() {
        let mut b = breaker();
        let t0 = Instant::now();
        for _ in 0..3 {
            b.on_failure(t0);
        }
        let t1 = t0 + Duration::from_secs(10);
        assert_eq!(b.admit(t1), BreakerDecision::Probe);
        b.on_success();
        assert_eq!(b.state(t1), BreakerState::Closed);
        assert_eq!(b.recoveries(), 1);
        assert_eq!(b.admit(t1), BreakerDecision::Solve);

        // trip again, fail the probe this time
        for _ in 0..3 {
            b.on_failure(t1);
        }
        let t2 = t1 + Duration::from_secs(10);
        assert_eq!(b.admit(t2), BreakerDecision::Probe);
        b.on_failure(t2);
        assert_eq!(b.state(t2), BreakerState::Open);
        assert_eq!(b.trips(), 3, "initial trip + re-trip + failed probe");
        // cooldown restarted from the failed probe
        assert_eq!(
            b.admit(t2 + Duration::from_secs(9)),
            BreakerDecision::ServeStale
        );
        assert_eq!(
            b.admit(t2 + Duration::from_secs(10)),
            BreakerDecision::Probe
        );
    }

    #[test]
    fn abandoned_probe_releases_the_slot() {
        let mut b = breaker();
        let t0 = Instant::now();
        for _ in 0..3 {
            b.on_failure(t0);
        }
        let t1 = t0 + Duration::from_secs(10);
        assert_eq!(b.admit(t1), BreakerDecision::Probe);
        b.abandon_probe();
        assert_eq!(b.admit(t1), BreakerDecision::Probe);
    }
}
