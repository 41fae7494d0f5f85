//! The common interface every scheduling algorithm in this repository
//! implements — RASA's pool members and all baselines.

use rasa_lp::Deadline;
use rasa_model::{gained_affinity, normalized_gained_affinity, Placement, Problem};
use rasa_obs::flight;
use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Result of running a scheduling algorithm on a problem.
#[derive(Clone, Debug)]
pub struct ScheduleOutcome {
    /// The computed container-to-machine mapping. May be partial (SLA not
    /// fully met) when the deadline fired or capacity ran out; callers run
    /// [`complete_placement`](crate::complete_placement) or fall back to the
    /// cluster's default scheduler, as the paper does.
    pub placement: Placement,
    /// Absolute gained affinity of `placement` (Definition 1).
    pub gained_affinity: f64,
    /// Gained affinity normalized by the problem's total affinity.
    pub normalized_gained_affinity: f64,
    /// Wall-clock the algorithm consumed.
    pub elapsed: Duration,
    /// `true` if the algorithm ran to completion; `false` if it returned a
    /// best-so-far under the deadline (or, for all-or-nothing baselines,
    /// failed entirely — then `placement` is empty).
    pub completed: bool,
}

impl ScheduleOutcome {
    /// Evaluate a placement against `problem` and wrap it.
    pub fn evaluate(
        problem: &Problem,
        placement: Placement,
        elapsed: Duration,
        completed: bool,
    ) -> Self {
        let ga = gained_affinity(problem, &placement);
        let nga = normalized_gained_affinity(problem, &placement);
        ScheduleOutcome {
            placement,
            gained_affinity: ga,
            normalized_gained_affinity: nga,
            elapsed,
            completed,
        }
    }
}

/// A scheduling algorithm: computes a placement for a problem under a
/// deadline. Implemented by the MIP-based and column-generation algorithms
/// here and by POP / K8s+ / APPLSCI19 / ORIGINAL in `rasa-baselines`.
pub trait Scheduler {
    /// Human-readable algorithm name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Compute a placement. Implementations must respect `deadline`
    /// best-effort and never return an infeasible placement (partial is
    /// allowed; infeasible is not).
    fn schedule(&self, problem: &Problem, deadline: Deadline) -> ScheduleOutcome;
}

/// Threads a parallel solve may start: the cores this process may run on
/// (read once; 4 when the platform cannot say).
pub fn solver_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
}

/// The fairness slice of a worker-pull parallel solve: job `index` of
/// `total`, pulled from a shared queue by `threads` workers, gets the
/// *live* remaining budget divided by the waves still to run
/// (`ceil((total - index) / threads)`), so no job may consume budget that
/// later queue entries still need, and an overrunning early wave shrinks
/// the later slices instead of pushing the run past the global deadline.
/// With one thread this is the sequential `remaining / jobs_left` formula.
pub fn wave_slice(deadline: Deadline, index: usize, total: usize, threads: usize) -> Deadline {
    let waves = total.saturating_sub(index).div_ceil(threads.max(1)).max(1);
    match deadline.remaining() {
        Some(rem) => deadline.min_with(rem / waves as u32),
        None => Deadline::none(),
    }
}

/// The one worker-pull fan-out behind every parallel solve (pipeline jobs,
/// POP shards, column-generation pricing): run `work(pos)` for every
/// `pos < total` on the calling thread plus `min(helpers, total - 1)`
/// scoped threads pulling positions from one queue, and return the results
/// in queue order. Helpers carry the caller's request context, and a helper
/// panic is re-raised here once every thread has joined. With no helper to
/// start this is a plain in-order loop: no thread, no atomic.
pub fn fan_out<T: Send>(total: usize, helpers: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let helpers = helpers.min(total.saturating_sub(1));
    if helpers == 0 {
        return (0..total).map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let pull = || {
        let mut done = Vec::new();
        loop {
            // a queue ticket that publishes no other data
            let pos = next.fetch_add(1, Ordering::Relaxed);
            if pos >= total {
                return done;
            }
            done.push((pos, work(pos)));
        }
    };
    let request_ctx = flight::current_request_context();
    let mut done = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..helpers)
            .map(|_| {
                let (pull, request_ctx) = (&pull, request_ctx.clone());
                scope.spawn(move || {
                    let _ctx = request_ctx.map(flight::with_request_context);
                    pull()
                })
            })
            .collect();
        let mut done = pull();
        for join in joins {
            done.extend(join.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        done
    });
    // the queue hands every position out exactly once
    done.sort_unstable_by_key(|&(pos, _)| pos);
    done.into_iter().map(|(_, out)| out).collect()
}

// ---- solver-thread gauge -------------------------------------------------
//
// How many threads of this process are inside a solve right now (`BUSY`).
// `solver_threads() - BUSY` is the number of cores no solve is using: a
// running solve may borrow them, and the process never runs more solver
// threads than it has cores. `BUSY` is a count that publishes no other
// data, so every access is `Relaxed`; a reader racing an enter/exit sees a
// value that was true a moment ago, which only ever costs or grants one
// helper.

static BUSY: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether solves on this thread may borrow idle cores.
    static MAY_BORROW: Cell<bool> = const { Cell::new(false) };
}

/// RAII registration of the calling thread as a solver thread; held by
/// `rasa_core::guarded_schedule` for the length of one subproblem solve.
#[must_use = "the thread counts as solving until the guard drops — bind it with `let _solving = …`"]
#[derive(Debug)]
pub struct SolverThread(());

impl SolverThread {
    /// Count the calling thread as busy until the returned guard drops
    /// (unwinding included).
    pub fn enter() -> Self {
        BUSY.fetch_add(1, Ordering::Relaxed);
        SolverThread(())
    }
}

impl Drop for SolverThread {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Solver threads inside a solve right now (helpers included).
pub fn busy_solver_threads() -> usize {
    BUSY.load(Ordering::Relaxed)
}

/// Cores no solve is using right now: `solver_threads() − busy`.
pub fn idle_solver_threads() -> usize {
    solver_threads().saturating_sub(BUSY.load(Ordering::Relaxed))
}

/// Let solves on the calling thread borrow idle cores until the returned
/// guard drops, which restores what was there before. Thread-ambient, the
/// way a request context travels: `RasaPipeline` marks each job of a
/// `parallel` round, and a solve on an unmarked thread borrows nothing.
pub fn lend_idle_cores() -> IdleCoreLease {
    IdleCoreLease {
        prior: MAY_BORROW.with(|may| may.replace(true)),
    }
}

/// The guard [`lend_idle_cores`] returns.
#[must_use = "the thread may borrow only while the guard lives — bind it with `let _lease = …`"]
#[derive(Debug)]
pub struct IdleCoreLease {
    prior: bool,
}

impl Drop for IdleCoreLease {
    fn drop(&mut self) {
        MAY_BORROW.with(|may| may.set(self.prior));
    }
}

/// Idle solver threads borrowed for a stretch of helper work; they count
/// as busy until the guard drops, so two solves never borrow the same core.
#[derive(Debug)]
pub struct BorrowedThreads(usize);

impl BorrowedThreads {
    /// Borrow up to `want` of the idle solver threads; none on a thread
    /// [`lend_idle_cores`] has not marked.
    pub fn up_to(want: usize) -> Self {
        if !MAY_BORROW.with(Cell::get) {
            return BorrowedThreads(0);
        }
        let mut busy = BUSY.load(Ordering::Relaxed);
        loop {
            let take = solver_threads().saturating_sub(busy).min(want);
            if take == 0 {
                return BorrowedThreads(0);
            }
            match BUSY.compare_exchange_weak(
                busy,
                busy + take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return BorrowedThreads(take),
                Err(now) => busy = now,
            }
        }
    }

    /// How many threads were borrowed.
    pub fn count(&self) -> usize {
        self.0
    }
}

impl Drop for BorrowedThreads {
    fn drop(&mut self) {
        if self.0 > 0 {
            BUSY.fetch_sub(self.0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_model::{FeatureMask, MachineId, ProblemBuilder, ResourceVec, ServiceId};
    use std::sync::atomic::AtomicBool;

    #[test]
    fn evaluate_computes_both_objectives() {
        let mut b = ProblemBuilder::new();
        let s0 = b.add_service("a", 1, ResourceVec::cpu_mem(1.0, 1.0));
        let s1 = b.add_service("b", 1, ResourceVec::cpu_mem(1.0, 1.0));
        b.add_machine(ResourceVec::cpu_mem(4.0, 4.0), FeatureMask::EMPTY);
        b.add_affinity(s0, s1, 8.0);
        let p = b.build().expect("problem builds");
        let mut x = Placement::empty_for(&p);
        x.add(ServiceId(0), MachineId(0), 1);
        x.add(ServiceId(1), MachineId(0), 1);
        let out = ScheduleOutcome::evaluate(&p, x, Duration::from_millis(5), true);
        assert_eq!(out.gained_affinity, 8.0);
        assert_eq!(out.normalized_gained_affinity, 1.0);
        assert!(out.completed);
    }

    #[test]
    fn fan_out_runs_every_position_once_and_returns_queue_order() {
        for helpers in [0, 1, 3] {
            for total in [0, 1, 6] {
                let calls: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
                let out = fan_out(total, helpers, |pos| {
                    calls[pos].fetch_add(1, Ordering::SeqCst);
                    pos * 10
                });
                let expect: Vec<usize> = (0..total).map(|pos| pos * 10).collect();
                assert_eq!(out, expect, "helpers={helpers} total={total}");
                assert!(
                    calls.iter().all(|c| c.load(Ordering::SeqCst) == 1),
                    "helpers={helpers} total={total}: {calls:?}"
                );
            }
        }
    }

    #[test]
    fn fan_out_without_a_helper_to_start_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for (helpers, total) in [(3, 1), (0, 6)] {
            let ran_on = fan_out(total, helpers, |_| std::thread::current().id());
            assert_eq!(ran_on, vec![caller; total], "helpers={helpers}");
        }
    }

    /// `work` for a two-position fan-out with one helper: the caller waits
    /// inside its position until the helper has pulled the other one, then
    /// `on_helper` runs on the helper thread.
    fn with_one_helper<T: Send>(on_helper: impl Fn() -> T + Sync) -> Vec<Option<T>> {
        let caller = std::thread::current().id();
        let helper_arrived = AtomicBool::new(false);
        fan_out(2, 1, |_| {
            if std::thread::current().id() == caller {
                while !helper_arrived.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                None
            } else {
                helper_arrived.store(true, Ordering::SeqCst);
                Some(on_helper())
            }
        })
    }

    #[test]
    fn fan_out_helpers_carry_the_callers_request_context() {
        let ctx = flight::RequestContext::new("req-fan-out", "acme");
        let seen = {
            let _ctx = flight::with_request_context(ctx.clone());
            with_one_helper(flight::current_request_context)
        };
        assert!(flight::current_request_context().is_none());
        // the helper may pull both positions before the caller pulls one
        let on_helper: Vec<_> = seen.into_iter().flatten().collect();
        assert!(!on_helper.is_empty());
        assert!(on_helper.iter().all(|seen| seen.as_ref() == Some(&ctx)));
    }

    #[test]
    fn fan_out_reraises_a_helper_panic_on_the_caller() {
        // whichever position the helper pulls first panics, so it never
        // runs a second one, and the caller's wait ends when it arrives
        let result = std::panic::catch_unwind(|| {
            with_one_helper(|| panic!("injected helper fault"));
        });
        let panic = result.expect_err("the join re-raises the helper's panic");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"injected helper fault"));
    }

    #[test]
    fn wave_slice_divides_the_live_budget_by_the_waves_left() {
        let tol = Duration::from_millis(5);
        // unlimited budget stays unlimited
        assert!(wave_slice(Deadline::none(), 0, 8, 4).remaining().is_none());
        let budget = Duration::from_millis(400);
        // one worker is the sequential formula: job i of n gets
        // remaining / (n - i)
        for (i, n) in [(0usize, 4usize), (1, 4), (3, 4)] {
            let slice = wave_slice(Deadline::after(budget), i, n, 1)
                .remaining()
                .expect("finite");
            let fair = budget / (n - i) as u32;
            assert!(slice <= fair && fair - slice <= tol, "i={i}: {slice:?}");
        }
        // a first-wave slot must NOT receive the full global budget while
        // later waves still need it (the historical bug handed every worker
        // the whole deadline): 8 jobs on 2 threads = 4 waves → 1/4 each
        let first = wave_slice(Deadline::after(budget), 0, 8, 2)
            .remaining()
            .expect("finite");
        assert!(first <= budget / 4 + tol, "first-wave slice {first:?}");
        // the final wave gets the whole live remainder, not 1/8 of it
        let last = wave_slice(Deadline::after(budget), 7, 8, 2)
            .remaining()
            .expect("finite");
        assert!(last > budget / 2, "last-wave slice {last:?}");
        // consumed budget stays consumed for later slots instead of
        // re-granting the original share
        assert!(wave_slice(Deadline::after(Duration::ZERO), 0, 3, 2).expired());
        // a position past the end of the queue must not divide by zero
        assert!(!wave_slice(Deadline::none(), 4, 4, 1).expired());
    }
}
