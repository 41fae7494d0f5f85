//! Pricing helpers at the pipeline level: in a `parallel` round, column
//! generation may price a round's machine groups on idle cores, and must
//! produce exactly what it produces alone. Solves outside such a round
//! price alone.
//!
//! The solver-thread gauge and the obs registry are process-wide, so every
//! test here holds [`serial`] for its whole length.

use rasa_core::{
    guarded_schedule, AllocationSession, Deadline, EdgeUpdate, FaultInjection, PoolAlgorithm,
    RasaConfig, RasaPipeline, ScheduleOutcome, Scheduler, SelectorChoice, SnapshotDelta,
    SolveStatus,
};
use rasa_model::{validate, FeatureMask, Problem, ProblemBuilder, ResourceVec, Service, ServiceId};
use rasa_solver::{
    busy_solver_threads, idle_solver_threads, solver_threads, ColumnGeneration, MipBased,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Three feature-fenced zones of 10, 6 and 4 services, each a ring of
/// affinities over three machine shapes: three subproblems of unequal
/// size, each with three pricing MIPs per column-generation round, so on a
/// multi-core box the small ones finish while the big one is still pricing.
fn three_zone_cluster() -> Problem {
    let mut b = ProblemBuilder::new();
    let mut id = 0u32;
    for (zone, size) in [10usize, 6, 4].into_iter().enumerate() {
        let feature = FeatureMask::bit(zone as u32);
        let services: Vec<ServiceId> = (0..size)
            .map(|i| {
                let cpu = 1.0 + (i % 3) as f64;
                let svc = Service::new(
                    ServiceId(id),
                    format!("z{zone}-s{i}"),
                    2 + (i % 3) as u32,
                    ResourceVec::cpu_mem(cpu, 4.0 - cpu),
                )
                .with_features(feature);
                id += 1;
                b.add_service_full(svc)
            })
            .collect();
        for i in 0..size {
            b.add_affinity(
                services[i],
                services[(i + 1) % size],
                1.0 + (i * 7 % 5) as f64,
            );
        }
        for (cpu, mem) in [(8.0, 8.0), (12.0, 6.0), (6.0, 12.0)] {
            b.add_machines(size / 2, ResourceVec::cpu_mem(cpu, mem), feature);
        }
    }
    b.build().expect("well-formed cluster")
}

#[test]
fn parallel_and_sequential_rounds_do_the_same_work() {
    let _serial = serial();
    let p = three_zone_cluster();
    let counted = ["simplex.pivots", "bnb.nodes", "cg.pricing_solves"];
    let run = |parallel: bool| {
        let before = rasa_obs::global().snapshot();
        let run = RasaPipeline::new(RasaConfig {
            selector: SelectorChoice::AlwaysCg,
            parallel,
            ..Default::default()
        })
        .optimize(&p, None, Deadline::none());
        let after = rasa_obs::global().snapshot();
        assert!(validate(&p, &run.outcome.placement, true).is_empty());
        assert_eq!(busy_solver_threads(), 0, "parallel={parallel}");
        let work = counted.map(|name| after.counter(name) - before.counter(name));
        let subs: Vec<(f64, SolveStatus)> = run
            .subproblems
            .iter()
            .map(|r| (r.gained_affinity, r.status))
            .collect();
        (subs, work, run.outcome.placement)
    };
    let sequential = run(false);
    assert!(sequential.0.len() >= 3, "{:?}", sequential.0);
    assert!(sequential.0.iter().all(|&(_, s)| s == SolveStatus::Ok));
    assert!(sequential.1.iter().all(|&n| n > 0), "{:?}", sequential.1);
    for _ in 0..3 {
        assert_eq!(run(true), sequential);
    }
}

fn helped() -> u64 {
    rasa_obs::global().snapshot().counter("cg.pricing_helped")
}

/// Column generation, reporting the most solver threads the gauge counted
/// while it ran.
struct GaugeProbe {
    inner: ColumnGeneration,
    most_busy: AtomicUsize,
}

impl Scheduler for GaugeProbe {
    fn name(&self) -> &'static str {
        "CG"
    }

    fn schedule(&self, problem: &Problem, deadline: Deadline) -> ScheduleOutcome {
        let sample = || {
            self.most_busy
                .fetch_max(busy_solver_threads(), Ordering::Relaxed);
        };
        sample();
        let out = self.inner.schedule(problem, deadline);
        sample();
        out
    }
}

#[test]
fn a_lone_guarded_solve_has_nothing_to_borrow() {
    let _serial = serial();
    let p = three_zone_cluster();
    let probe = GaugeProbe {
        inner: ColumnGeneration::new(),
        most_busy: AtomicUsize::new(0),
    };
    let before = helped();
    // a guarded solve outside a `parallel` round: idle cores exist, but
    // its thread is not marked to borrow them
    for index in 0..2 {
        let g = guarded_schedule(
            index,
            (PoolAlgorithm::Cg, &probe),
            &[],
            &p,
            Deadline::none(),
        );
        assert_eq!(g.status, SolveStatus::Ok);
        assert_eq!(busy_solver_threads(), 0);
    }
    assert_eq!(probe.most_busy.load(Ordering::Relaxed), 1);
    assert_eq!(helped(), before);
    // nor does any solve of a `parallel: false` round (a one-job session
    // round at `parallel: false` is checked below)
    let run = RasaPipeline::new(RasaConfig {
        selector: SelectorChoice::AlwaysCg,
        parallel: false,
        ..Default::default()
    })
    .optimize(&p, None, Deadline::none());
    assert!(run.subproblems.len() >= 3, "{:?}", run.subproblems);
    assert_eq!(helped(), before);
}

/// A 50 % heavier weight on one affinity of the ten-service zone: the delta
/// dirties that zone's subproblem and no other.
fn zone0_delta(p: &Problem) -> SnapshotDelta {
    let edge = p
        .affinity_edges
        .iter()
        .find(|e| e.a.0 < 10 && e.b.0 < 10)
        .expect("zone 0 has affinities");
    SnapshotDelta {
        edge_updates: vec![EdgeUpdate {
            a: edge.a.0,
            b: edge.b.0,
            weight: edge.weight * 1.5,
        }],
        replica_updates: Vec::new(),
    }
}

#[test]
fn a_lone_dirty_subproblem_prices_on_idle_cores_and_does_the_same_work() {
    let _serial = serial();
    let p = three_zone_cluster();
    let delta = zone0_delta(&p);
    let counted = [
        "simplex.pivots",
        "bnb.nodes",
        "cg.pricing_solves",
        "cg.helper_rounds",
    ];
    let run = |parallel: bool| {
        let mut session = AllocationSession::new(RasaConfig {
            selector: SelectorChoice::AlwaysCg,
            parallel,
            ..Default::default()
        });
        session.apply_snapshot(&p);
        session.resolve(Deadline::none()).expect("snapshot round");
        session.apply_delta(&delta).expect("delta admits");
        let before = rasa_obs::global().snapshot();
        let round = session.resolve(Deadline::none()).expect("delta round");
        let after = rasa_obs::global().snapshot();
        assert_eq!(busy_solver_threads(), 0, "parallel={parallel}");
        let cache = round.run.cache.expect("a session round keeps a cache");
        assert_eq!(cache.misses, 1, "parallel={parallel}: {cache:?}");
        let [pivots, nodes, pricing, helper_rounds] =
            counted.map(|name| after.counter(name) - before.counter(name));
        let subs: Vec<(f64, SolveStatus, bool)> = round
            .run
            .subproblems
            .iter()
            .map(|r| (r.gained_affinity, r.status, r.cache_hit))
            .collect();
        let work = (subs, [pivots, nodes, pricing], round.run.outcome.placement);
        (work, helper_rounds)
    };
    let (sequential, none) = run(false);
    assert_eq!(none, 0, "a parallel: false round prices alone");
    assert!(sequential.1.iter().all(|&n| n > 0), "{:?}", sequential.1);
    assert!(sequential.0.iter().all(|&(_, s, _)| s == SolveStatus::Ok));
    let (parallel, helper_rounds) = run(true);
    assert_eq!(parallel, sequential);
    assert_eq!(
        helper_rounds > 0,
        solver_threads() > 1,
        "the lone job borrows the idle core exactly when one exists"
    );
}

/// A scheduler whose scoped helper thread panics, as a pricing helper
/// would: the scope re-raises the panic on the thread that owns the solve.
struct HelperPanics;

impl Scheduler for HelperPanics {
    fn name(&self) -> &'static str {
        "HELPER-PANIC"
    }

    fn schedule(&self, _problem: &Problem, _deadline: Deadline) -> ScheduleOutcome {
        std::thread::scope(|scope| {
            scope.spawn(|| panic!("injected helper fault"));
        });
        unreachable!("the scope re-raises its thread's panic");
    }
}

#[test]
fn panics_leave_the_gauge_empty_and_reach_the_ladder() {
    let _serial = serial();
    // two fenced pairs: small enough for the MIP fallback rung
    let mut b = ProblemBuilder::new();
    for zone in 0..2u32 {
        let feature = FeatureMask::bit(zone);
        let pair = [0, 1].map(|i| {
            let svc = Service::new(
                ServiceId(2 * zone + i),
                format!("z{zone}-s{i}"),
                2,
                ResourceVec::cpu_mem(1.0, 1.0),
            );
            b.add_service_full(svc.with_features(feature))
        });
        b.add_affinity(pair[0], pair[1], 3.0);
        b.add_machines(2, ResourceVec::cpu_mem(3.0, 3.0), feature);
    }
    let p = b.build().expect("well-formed cluster");
    for parallel in [false, true] {
        let run = RasaPipeline::new(RasaConfig {
            fault_injection: FaultInjection::PanicAlways,
            parallel,
            ..Default::default()
        })
        .optimize(&p, None, Deadline::none());
        assert!(run.is_degraded());
        assert!(validate(&p, &run.outcome.placement, true).is_empty());
        assert_eq!(busy_solver_threads(), 0, "parallel={parallel}");
        assert_eq!(
            idle_solver_threads(),
            solver_threads(),
            "parallel={parallel}"
        );
    }
    let mip = MipBased::new();
    let g = guarded_schedule(
        0,
        (PoolAlgorithm::Cg, &HelperPanics),
        &[(PoolAlgorithm::Mip, &mip)],
        &p,
        Deadline::none(),
    );
    assert_eq!(g.status, SolveStatus::FellBackTo(PoolAlgorithm::Mip));
    assert!(validate(&p, &g.outcome.placement, false).is_empty());
    assert_eq!(busy_solver_threads(), 0);
}
