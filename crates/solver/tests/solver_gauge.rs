//! The solver-thread gauge and the pricing helpers it feeds, through the
//! public API only. The gauge is process-wide, so everything that moves it
//! lives in this one test function of this one test binary.

use rasa_lp::Deadline;
use rasa_model::{validate, FeatureMask, Problem, ProblemBuilder, ResourceVec};
use rasa_solver::{
    busy_solver_threads, released_solver_threads, solver_threads, ColumnGeneration, SolverThread,
};

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
fn released_threads_are_what_the_burst_gave_back_and_cg_borrows_them() {
    let cap = solver_threads() - 1;
    assert_eq!((busy_solver_threads(), released_solver_threads()), (0, 0));

    // one solve at a time never has anything to borrow
    let first = SolverThread::enter();
    assert_eq!((busy_solver_threads(), released_solver_threads()), (1, 0));
    let p = four_group_problem();
    let cg = ColumnGeneration::new();
    let before = helped();
    let (alone, alone_stats) = cg.schedule_with_stats(&p, Deadline::none());
    assert_eq!(helped(), before, "no released thread, no helper");
    assert!(validate(&p, &alone.placement, true).is_empty());

    // three more workers start and finish: their threads are released
    let others: Vec<_> = (0..3).map(|_| SolverThread::enter()).collect();
    assert_eq!((busy_solver_threads(), released_solver_threads()), (4, 0));
    drop(others);
    assert_eq!(busy_solver_threads(), 1);
    assert_eq!(released_solver_threads(), 3.min(cap));

    // column generation borrows them for its pricing rounds, gives them
    // back, and returns what it returned alone
    let (with_help, help_stats) = cg.schedule_with_stats(&p, Deadline::none());
    assert_eq!(help_stats, alone_stats);
    assert_eq!(with_help.placement, alone.placement);
    assert_eq!(
        helped() > before,
        cap > 0,
        "helpers price groups exactly when a core was released and exists"
    );
    assert_eq!(busy_solver_threads(), 1);
    assert_eq!(released_solver_threads(), 3.min(cap));

    // the burst ends when the last solver thread leaves: nothing carries
    // over into the next one
    drop(first);
    assert_eq!((busy_solver_threads(), released_solver_threads()), (0, 0));
    let next = SolverThread::enter();
    assert_eq!(released_solver_threads(), 0);
    drop(next);

    // the guard leaves on unwind too
    let unwound = std::panic::catch_unwind(|| {
        let _solving = SolverThread::enter();
        panic!("injected solver fault");
    });
    assert!(unwound.is_err());
    assert_eq!(busy_solver_threads(), 0);
}
