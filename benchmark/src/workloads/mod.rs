//! The four workloads and what they share: the tally a measured pass
//! fills, and the pass drivers for the three library workloads.

pub mod budget_bound;
pub mod churn;
pub mod cold_solve;
pub mod serve_warm;

use crate::check::check_placement;
use crate::probes::{self, ProbeInput};
use crate::spans::{Span, SpanLog};
use crate::spec::BOUNDARY_COUNTERS;
use rasa_core::SolveStatus;
use rasa_model::{Placement, Problem};
use std::time::Instant;

/// What one run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Tiny clusters, one set-up; numbers are not comparable.
    pub quick: bool,
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// How a library workload executes its rounds.
#[derive(Clone, Copy)]
pub enum Mode<'a> {
    /// The program's own entry point (`optimize`, `apply_delta` + `resolve`).
    Real,
    /// The staged replay through public functions, recording into the log.
    Replay(&'a SpanLog),
}

/// Values of [`BOUNDARY_COUNTERS`] at one instant.
pub type Counters = [u64; BOUNDARY_COUNTERS.len()];

pub fn read_counters() -> Counters {
    let registry = rasa_obs::global();
    let mut out = [0u64; BOUNDARY_COUNTERS.len()];
    for (slot, name) in out.iter_mut().zip(BOUNDARY_COUNTERS) {
        *slot = registry.counter(name).get();
    }
    out
}

fn counters_since(before: &Counters) -> Counters {
    let mut now = read_counters();
    for (n, b) in now.iter_mut().zip(before) {
        *n -= b;
    }
    now
}

/// What the timed units of one pass produced.
#[derive(Default)]
pub struct Tally {
    /// Wall time of every round.
    pub round_s: Vec<f64>,
    /// Wall time of every warm round (identical snapshot, warmed cache).
    pub warm_s: Vec<f64>,
    /// Wall time of every read interleaved with the rounds (`serve-warm`).
    pub read_s: Vec<f64>,
    /// Process CPU seconds spent inside every round. Empty where rounds
    /// overlap (`serve-warm`'s two clients) and only totals exist.
    pub round_cpu_s: Vec<f64>,
    /// Process CPU seconds spent inside rounds, all together.
    pub cpu_s: f64,
    /// Seconds the rounds were spread over: their summed wall time for a
    /// single caller, the window for concurrent clients.
    pub window_s: f64,
    /// Rounds (warm ones included) attempted, and those without a placement
    /// that passed the benchmark's own check.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Fresh subproblem solves, and those that ended `SolveStatus::Ok`.
    pub solves: u64,
    pub solves_ok: u64,
    /// Normalized gained affinity and placed share of every checked
    /// placement.
    pub affinity: Vec<f64>,
    pub placed_share: Vec<f64>,
    /// Boundary-counter deltas of every round.
    pub counts: Vec<Counters>,
    /// Rounds timed so far at the end of every unit of a library workload.
    pub unit_ends: Vec<usize>,
}

impl Tally {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }

    pub fn checked(&mut self, checked: crate::check::Checked) {
        self.affinity.push(checked.affinity);
        self.placed_share.push(checked.placed_share);
    }

    pub fn solve_statuses(&mut self, statuses: impl IntoIterator<Item = SolveStatus>) {
        for status in statuses {
            self.solves += 1;
            self.solves_ok += u64::from(status == SolveStatus::Ok);
        }
    }

    /// Run the correctness gate on one round's placement.
    pub fn check(&mut self, problem: &Problem, placement: &Placement, claimed_objective: f64) {
        self.attempted += 1;
        match check_placement(problem, placement, claimed_objective) {
            Ok(checked) => self.checked(checked),
            Err(why) => self.fail(why),
        }
    }

    /// Mean wall time of a round. The ratios of the traced pass use means:
    /// passes that ran the same multiset of rounds in different orders have
    /// comparable means, but not comparable medians.
    pub fn mean_round_s(&self) -> f64 {
        self.round_s.iter().sum::<f64>() / self.round_s.len().max(1) as f64
    }

    /// `true` when every round did exactly the same counted work.
    pub fn work_repeats(&self) -> bool {
        self.counts.windows(2).all(|w| w[0] == w[1])
    }
}

/// Time one round: wall seconds, process CPU seconds, boundary counters.
pub fn timed_round<T>(tally: &mut Tally, f: impl FnOnce() -> T) -> T {
    let counters = read_counters();
    let cpu = crate::sys::process_cpu_seconds();
    let started = Instant::now();
    let out = f();
    let wall = started.elapsed().as_secs_f64();
    let cpu = crate::sys::process_cpu_seconds() - cpu;
    tally.round_cpu_s.push(cpu);
    tally.cpu_s += cpu;
    tally.counts.push(counters_since(&counters));
    tally.round_s.push(wall);
    tally.window_s += wall;
    out
}

/// A workload that runs in this thread against the library.
pub trait LibWorkload: Sized {
    /// Everything before timing starts: inputs, configuration, cold
    /// snapshot, warm-up repetition.
    fn setup(cfg: &RunCfg) -> Result<Self, String>;
    /// One timed unit (a round, a cold/warm pair, a delta cycle) and the
    /// untimed checks that go with it.
    fn unit(&mut self, mode: Mode<'_>, tally: &mut Tally);
    /// Inputs for the per-layer probes, cut from this workload's problem.
    fn probe_input(&self) -> ProbeInput;
}

/// Run one unit and mark where its rounds end in the tally.
fn run_unit<W: LibWorkload>(state: &mut W, mode: Mode<'_>, tally: &mut Tally) {
    state.unit(mode, tally);
    tally.unit_ends.push(tally.round_s.len());
}

fn run_window<W: LibWorkload>(state: &mut W, mode: Mode<'_>, seconds: f64) -> Tally {
    let mut tally = Tally::default();
    let started = Instant::now();
    loop {
        run_unit(state, mode, &mut tally);
        if started.elapsed().as_secs_f64() >= seconds {
            return tally;
        }
    }
}

/// Result of the untraced pass: the end-to-end numbers come from here.
pub struct Untraced {
    pub setup_s: Vec<f64>,
    pub tally: Tally,
}

/// Result of the traced pass.
pub struct Traced {
    /// The program's own entry point, no spans.
    pub real: Tally,
    /// The span-recording passes, kept for their failure counts.
    pub replays: Vec<Tally>,
    /// Wall time the recorded stages account for, as a share of the wall
    /// time of the program's own entry point on the same input.
    pub coverage_share: f64,
    /// Mean round with recording on over mean round with recording off.
    pub overhead_ratio: f64,
    pub spans: Vec<Span>,
    pub probes: Vec<(&'static str, f64)>,
}

/// Set up [`SETUP_REPS`] times (once with `--quick`), each from scratch,
/// and keep the last state. Returns the time every set-up took.
pub fn repeat_setup<S>(
    cfg: &RunCfg,
    setup: impl Fn(&RunCfg) -> Result<S, String>,
) -> Result<(Vec<f64>, S), String> {
    let reps = if cfg.quick { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        // the previous state goes first: two daemons, two journals or two
        // caches alive at once would not be the set-up a caller pays for
        drop(state.take());
        let started = Instant::now();
        state = Some(setup(cfg)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    Ok((setup_s, state.expect("at least one set-up ran")))
}

pub fn untraced<W: LibWorkload>(cfg: &RunCfg) -> Result<Untraced, String> {
    let (setup_s, mut state) = repeat_setup(cfg, W::setup)?;
    let tally = run_window(&mut state, Mode::Real, cfg.seconds);
    Ok(Untraced { setup_s, tally })
}

pub fn traced<W: LibWorkload>(cfg: &RunCfg) -> Result<Traced, String> {
    let mut state = W::setup(cfg)?;
    // the three ways of running a round take turns, unit by unit, so that
    // drift of the machine over the window falls on all three alike
    let (off, log) = (SpanLog::new(false), SpanLog::new(true));
    let (mut real, mut plain, mut traced) = (Tally::default(), Tally::default(), Tally::default());
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < cfg.seconds {
        run_unit(&mut state, Mode::Real, &mut real);
        run_unit(&mut state, Mode::Replay(&off), &mut plain);
        run_unit(&mut state, Mode::Replay(&log), &mut traced);
    }
    let probes = probes::run(&state.probe_input(), cfg.quick)?;
    Ok(Traced {
        coverage_share: plain.mean_round_s() / real.mean_round_s(),
        overhead_ratio: traced.mean_round_s() / plain.mean_round_s(),
        real,
        replays: vec![plain, traced],
        spans: log.snapshot(),
        probes,
    })
}
