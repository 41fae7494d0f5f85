//! The solver-thread gauge and the pricing helpers it feeds, through the
//! public API only. The gauge is process-wide, so everything that moves it
//! lives in this one test function of this one test binary.

use rasa_lp::Deadline;
use rasa_model::{validate, FeatureMask, Problem, ProblemBuilder, ResourceVec};
use rasa_solver::{
    busy_solver_threads, idle_solver_threads, lend_idle_cores, solver_threads, BorrowedThreads,
    ColumnGeneration, SolverThread,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Eight services on a ring of affinities, four machine shapes: four
/// pricing MIPs per column-generation round.
fn four_group_problem() -> Problem {
    let mut b = ProblemBuilder::new();
    let s: Vec<_> = (0..8)
        .map(|i| {
            let cpu = 1.0 + f64::from(i % 3);
            b.add_service(
                format!("s{i}"),
                3 + i % 3,
                ResourceVec::cpu_mem(cpu, 4.0 - cpu),
            )
        })
        .collect();
    for (cpu, mem) in [(8.0, 8.0), (12.0, 6.0), (6.0, 12.0), (16.0, 16.0)] {
        b.add_machines(2, ResourceVec::cpu_mem(cpu, mem), FeatureMask::EMPTY);
    }
    for i in 0..8 {
        b.add_affinity(s[i], s[(i + 1) % 8], 1.0 + (i * 7 % 5) as f64);
    }
    b.build().expect("well-formed problem")
}

fn helped() -> u64 {
    rasa_obs::global().snapshot().counter("cg.pricing_helped")
}

#[test]
fn idle_threads_are_cores_minus_busy_and_only_a_marked_thread_borrows_them() {
    let cores = solver_threads();
    assert_eq!((busy_solver_threads(), idle_solver_threads()), (0, cores));

    // idle is what the busy threads leave of the cores, never below zero
    let first = SolverThread::enter();
    assert_eq!(
        (busy_solver_threads(), idle_solver_threads()),
        (1, cores - 1)
    );
    let crowd: Vec<_> = (0..cores).map(|_| SolverThread::enter()).collect();
    assert_eq!(
        (busy_solver_threads(), idle_solver_threads()),
        (cores + 1, 0)
    );
    drop(crowd);
    assert_eq!(
        (busy_solver_threads(), idle_solver_threads()),
        (1, cores - 1)
    );

    // an unmarked thread borrows nothing; a marked one takes
    // min(want, idle), and what it holds counts as busy
    assert_eq!(BorrowedThreads::up_to(cores).count(), 0);
    {
        let _lease = lend_idle_cores();
        for want in [0, 1, cores] {
            let borrowed = BorrowedThreads::up_to(want);
            assert_eq!(borrowed.count(), want.min(cores - 1), "want={want}");
            assert_eq!(busy_solver_threads(), 1 + borrowed.count());
            assert_eq!(idle_solver_threads(), cores - 1 - borrowed.count());
        }
        assert_eq!(busy_solver_threads(), 1);
    }
    assert_eq!(
        BorrowedThreads::up_to(cores).count(),
        0,
        "the lease ends with its guard"
    );

    // column generation borrows only on a marked thread, gives the cores
    // back, and returns what it returned alone
    let p = four_group_problem();
    let cg = ColumnGeneration::new();
    let before = helped();
    let (alone, alone_stats) = cg.schedule_with_stats(&p, Deadline::none());
    assert_eq!(helped(), before, "an unmarked solve prices alone");
    assert!(validate(&p, &alone.placement, true).is_empty());
    let (with_help, help_stats) = {
        let _lease = lend_idle_cores();
        cg.schedule_with_stats(&p, Deadline::none())
    };
    assert_eq!(help_stats, alone_stats);
    assert_eq!(with_help.placement, alone.placement);
    assert_eq!(
        helped() > before,
        cores > 1,
        "helpers price groups exactly when an idle core exists"
    );
    assert_eq!(busy_solver_threads(), 1);

    // two borrowers racing for the idle cores never hold more than there
    // are: `held` rises after a borrow and falls before its release, so it
    // never exceeds what the gauge has handed out
    let held = AtomicUsize::new(busy_solver_threads());
    let most = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let _lease = lend_idle_cores();
                for _ in 0..5_000 {
                    let borrowed = BorrowedThreads::up_to(cores);
                    let now = held.fetch_add(borrowed.count(), Ordering::SeqCst);
                    most.fetch_max(now + borrowed.count(), Ordering::SeqCst);
                    held.fetch_sub(borrowed.count(), Ordering::SeqCst);
                }
            });
        }
    });
    let most = most.load(Ordering::SeqCst);
    assert!(most <= cores, "{most} solver threads on {cores} cores");
    assert_eq!(busy_solver_threads(), 1);

    drop(first);
    assert_eq!((busy_solver_threads(), idle_solver_threads()), (0, cores));

    // the guard leaves on unwind too
    let unwound = std::panic::catch_unwind(|| {
        let _solving = SolverThread::enter();
        panic!("injected solver fault");
    });
    assert!(unwound.is_err());
    assert_eq!(busy_solver_threads(), 0);
}
