//! Per-layer probes: every layer (crate) is measured from outside by timing
//! calls into its public functions, on inputs cut from the workload's own
//! problem — the whole problem for the layers that see it whole, its
//! largest subproblem (most services × machines, the widest formulation)
//! for the solver layers, and one daemon tenant for the serve layer. Each
//! timing is a median over repeated calls.

use crate::daemon::{fresh_wal_root, Daemon};
use crate::http::request;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rasa_core::{
    certify_placement, guarded_schedule, AllocationSession, Deadline, PoolAlgorithm,
    ProblemValidator, RasaConfig, RasaPipeline, ReplicaUpdate, RestoredPlacement, RestoredState,
    Scheduler, SnapshotDelta, SolveCache,
};
use rasa_graph::{multilevel_partition, AffinityGraph, MultilevelConfig};
use rasa_lp::factor::{EtaFile, LuFactors, LuWorkspace, SparseCol};
use rasa_lp::pricing::PartialPricing;
use rasa_lp::simplex::solve_simplex;
use rasa_lp::{solve_simplex_warm, Basis, LpModel, LpSolution, SimplexOptions, VarId};
use rasa_migrate::{plan_migration, replay_plan, MigrateConfig};
use rasa_mip::MipOptions;
use rasa_model::{gained_affinity, validate, ContainerAssignment, Placement, Problem};
use rasa_obs::MetricsRegistry;
use rasa_partition::{compute_delta, multi_stage_partition, PartitionConfig, Subproblem};
use rasa_select::{portfolio_features, AlgorithmSelector, HeuristicSelector};
use rasa_serve::wal::CheckpointState;
use rasa_serve::{recover_all, BoundedQueue, SyncPolicy, TenantJournal, WalConfig, WalRecord};
use rasa_solver::{
    complete_placement, CgWarmStart, ColumnCache, ColumnGeneration, GreedyScheduler, MipBased,
    PopStrategy, RasaFormulation,
};
use rasa_trace::{generate, ClusterSpec};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the probes are cut from.
pub struct ProbeInput {
    pub spec: ClusterSpec,
    pub problem: Problem,
    /// The workload's round deadline.
    pub deadline: Duration,
}

type Metrics = Vec<(&'static str, f64)>;

/// Budget of one solver-arm probe. An arm that is still running at the
/// budget reports the budget; its affinity says how far it got.
const ARM_BUDGET: Duration = Duration::from_secs(1);
/// Node cap of the fixed-work branch-and-bound probe.
const MIP_NODE_CAP: usize = 100;
/// Time spent repeating one cheap call.
const CALL_BUDGET: Duration = Duration::from_millis(100);

/// Median seconds per call: samples of `batch` calls each, at least five,
/// until `budget` has passed.
fn time_batched<T>(budget: Duration, batch: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 5 || (started.elapsed() < budget && samples.len() < 10_000) {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    crate::stats::median(&samples).expect("at least five samples")
}

fn time_calls<T>(f: impl FnMut() -> T) -> f64 {
    time_batched(CALL_BUDGET, 1, f)
}

/// One call, timed.
fn time_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

pub fn run(input: &ProbeInput, quick: bool) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let config = RasaConfig::default();
    let problem = &input.problem;

    m.push(("trace.generate_s", time_calls(|| generate(&input.spec))));

    // a complete placement of the whole problem for the layers that read one
    let greedy = GreedyScheduler.schedule(problem, Deadline::none());
    model(&mut m, problem, &greedy.placement);
    graph(&mut m, problem);
    let subs = partition(&mut m, problem, &config);
    let sub = subs
        .iter()
        .max_by_key(|s| s.problem.num_services() * s.problem.num_machines())
        .ok_or("the probe problem has no subproblem")?;
    select(&mut m, &subs, sub);
    let formulation = lp(&mut m, &sub.problem, &config)?;
    mip(&mut m, &formulation, &config);
    solver(&mut m, problem, sub, &config, quick);
    let optimized = core(&mut m, problem, sub, &config, input.deadline)?;
    migrate(&mut m, problem, &greedy.placement, &optimized)?;
    serve(&mut m)?;
    obs(&mut m);
    Ok(m)
}

fn model(m: &mut Metrics, problem: &Problem, placement: &Placement) {
    let validator = ProblemValidator::new();
    m.push(("model.admit_s", time_calls(|| validator.admit(problem))));
    m.push((
        "model.validate_s",
        time_calls(|| validate(problem, placement, true)),
    ));
    m.push((
        "model.objective_s",
        time_calls(|| gained_affinity(problem, placement)),
    ));
}

fn graph(m: &mut Metrics, problem: &Problem) {
    m.push((
        "graph.build_s",
        time_calls(|| AffinityGraph::from_problem(problem)),
    ));
    let graph = AffinityGraph::from_problem(problem);
    let config = MultilevelConfig::with_parts(4);
    m.push((
        "graph.multilevel_s",
        time_calls(|| multilevel_partition(&graph, &config, &mut StdRng::seed_from_u64(0))),
    ));
}

fn partition(m: &mut Metrics, problem: &Problem, config: &RasaConfig) -> Vec<Subproblem> {
    let run = |cfg: &PartitionConfig| {
        multi_stage_partition(problem, None, cfg, &mut StdRng::seed_from_u64(config.seed))
    };
    m.push((
        "partition.multi_stage_s",
        time_calls(|| run(&config.partition)),
    ));
    let outcome = run(&config.partition);
    m.push(("partition.subproblems", outcome.subproblems.len() as f64));
    m.push((
        "partition.loss_share",
        outcome.affinity_loss / problem.total_affinity().max(f64::MIN_POSITIVE),
    ));
    let subs = outcome.subproblems;
    m.push((
        "partition.fingerprint_s",
        time_calls(|| {
            subs.iter()
                .map(|s| s.fingerprint())
                .fold(0u64, |a, f| a ^ f)
        }),
    ));
    let previous: HashSet<u64> = subs.iter().map(|s| s.fingerprint()).collect();
    m.push((
        "partition.compute_delta_s",
        time_calls(|| compute_delta(&subs, &previous)),
    ));
    subs
}

fn select(m: &mut Metrics, subs: &[Subproblem], sub: &Subproblem) {
    m.push((
        "select.features_s",
        time_calls(|| portfolio_features(&sub.problem)),
    ));
    m.push((
        "select.predict_s",
        time_calls(|| HeuristicSelector.select(&sub.problem)),
    ));
    let cg = subs
        .iter()
        .filter(|s| HeuristicSelector.select(&s.problem) == PoolAlgorithm::Cg)
        .count();
    m.push(("select.cg_share", cg as f64 / subs.len().max(1) as f64));
}

/// The structural columns of `lp`, rebuilt through the public
/// `row_activity` (the model keeps its rows private): column `j` is the
/// activity of every row at the `j`-th unit vector.
fn structural_columns(lp: &LpModel) -> Vec<SparseCol> {
    let mut x = vec![0.0; lp.num_vars()];
    (0..lp.num_vars())
        .map(|j| {
            x[j] = 1.0;
            let col = (0..lp.num_rows())
                .filter_map(|i| {
                    let a = lp.row_activity(i, &x);
                    (a != 0.0).then_some((i, a))
                })
                .collect();
            x[j] = 0.0;
            col
        })
        .collect()
}

/// The basis matrix of `basis`: structural columns as they are, the slack
/// of row `i` as the unit column `e_i` (its sign does not change the cost
/// of factorizing or solving with it).
fn basis_columns(structural: &[SparseCol], basis: &Basis) -> Vec<SparseCol> {
    let n = structural.len();
    basis
        .basic
        .iter()
        .map(|&col| {
            if col < n {
                structural[col].clone()
            } else {
                vec![(col - n, 1.0)]
            }
        })
        .collect()
}

fn lp(m: &mut Metrics, sub: &Problem, config: &RasaConfig) -> Result<RasaFormulation, String> {
    let kind = config.mip.kind_for(sub);
    let formulation = RasaFormulation::build(sub, kind, config.mip.include_non_affinity);
    let model = formulation.mip().lp();
    let options = SimplexOptions::default();

    // the root relaxation, cold
    let solve = || solve_simplex(model, &options, Deadline::none());
    let root: LpSolution = solve();
    let solve_s = time_calls(solve);
    m.push(("lp.solve_s", solve_s));
    m.push(("lp.pivots", root.stats.pivots as f64));
    m.push((
        "lp.pivots_per_s",
        root.stats.pivots as f64 / solve_s.max(1e-12),
    ));
    let basis = root
        .basis
        .clone()
        .ok_or("the root relaxation of the probe subproblem exported no basis")?;

    // one branching bound change, re-solved from the optimal basis
    let branch = (0..model.num_vars())
        .filter(|&j| formulation.mip().is_integer(VarId(j)))
        .max_by(|&a, &b| {
            let frac = |j: usize| (root.x[j] - root.x[j].round()).abs();
            frac(a).total_cmp(&frac(b))
        })
        .unwrap_or(0);
    let mut branched = model.clone();
    let (lower, _) = branched.bounds(VarId(branch));
    branched.set_bounds(VarId(branch), lower, root.x[branch].floor().max(lower));
    let warm = || solve_simplex_warm(&branched, &options, Deadline::none(), Some(&basis));
    m.push(("lp.warm_pivots", warm().stats.pivots as f64));
    m.push(("lp.warm_solve_s", time_calls(warm)));

    // the factorization kernels, on the optimal basis
    let structural = structural_columns(model);
    let cols = basis_columns(&structural, &basis);
    let rows = model.num_rows();
    let mut ws = LuWorkspace::new(rows);
    let factorize = |ws: &mut LuWorkspace| LuFactors::factorize(rows, |i| &cols[i], 1e-12, ws);
    let factors =
        factorize(&mut ws).ok_or("the optimal basis of the probe subproblem is singular")?;
    m.push(("lp.factorize_s", time_calls(|| factorize(&mut ws))));
    m.push(("lp.lu_nnz", factors.nnz() as f64));

    let basic: HashSet<usize> = basis.basic.iter().copied().collect();
    let entering = (0..structural.len())
        .filter(|j| !basic.contains(j))
        .max_by_key(|&j| structural[j].len())
        .unwrap_or(0);
    let mut rhs = vec![0.0; rows];
    for &(i, a) in &structural[entering] {
        rhs[i] = a;
    }
    let mut image = vec![0.0; rows];
    m.push((
        "lp.ftran_s",
        time_batched(CALL_BUDGET, 16, || factors.ftran(&rhs, &mut image, &mut ws)),
    ));
    let costs: Vec<f64> = basis
        .basic
        .iter()
        .map(|&col| {
            if col < structural.len() {
                model.objective_of(VarId(col))
            } else {
                0.0
            }
        })
        .collect();
    let mut duals = vec![0.0; rows];
    m.push((
        "lp.btran_s",
        time_batched(CALL_BUDGET, 16, || {
            factors.btran(&costs, &mut duals, &mut ws)
        }),
    ));

    factors.ftran(&rhs, &mut image, &mut ws);
    let pivot_row = (0..rows)
        .max_by(|&a, &b| image[a].abs().total_cmp(&image[b].abs()))
        .unwrap_or(0);
    let mut etas = EtaFile::new();
    m.push((
        "lp.eta_push_s",
        time_batched(CALL_BUDGET, 16, || {
            // as between two refactorizations: the file grows, then resets
            if etas.len() >= options.refactor_every {
                etas.clear();
            }
            etas.push(pivot_row, &image)
        }),
    ));

    // one full pricing pass: at the optimum no column is eligible, so the
    // pricer computes every nonbasic structural column's reduced cost before
    // it gives up (slack columns price to their row's dual and are skipped)
    let total = structural.len() + rows;
    let reduced_cost = |j: usize| -> Option<f64> {
        if j >= structural.len() || basic.contains(&j) {
            return None;
        }
        let dot: f64 = structural[j].iter().map(|&(i, a)| root.duals[i] * a).sum();
        let d = model.objective_of(VarId(j)) - dot;
        let improving = if basis.at_upper[j] { -d } else { d };
        (improving > 1e-6).then_some(improving)
    };
    let mut pricer = PartialPricing::new(total);
    m.push((
        "lp.pricing_select_s",
        time_calls(|| pricer.select(total, reduced_cost)),
    ));
    Ok(formulation)
}

fn mip(m: &mut Metrics, formulation: &RasaFormulation, config: &RasaConfig) {
    let options = MipOptions {
        max_nodes: MIP_NODE_CAP,
        ..config.mip.mip.clone()
    };
    // fixed work: the node cap ends the search, the deadline never does
    let (solve_s, solution) = time_once(|| {
        formulation
            .mip()
            .solve_with(&options, Deadline::after(Duration::from_secs(60)))
    });
    let nodes = solution.nodes.max(1) as f64;
    m.push(("mip.solve_s", solve_s));
    m.push(("mip.nodes", solution.nodes as f64));
    m.push(("mip.nodes_per_s", nodes / solve_s.max(1e-12)));
    m.push(("mip.pivots_per_node", solution.lp_iterations as f64 / nodes));
    m.push((
        "mip.gap_at_cap",
        if solution.gap.is_finite() {
            solution.gap
        } else {
            1.0
        },
    ));
}

fn solver(m: &mut Metrics, problem: &Problem, sub: &Subproblem, config: &RasaConfig, quick: bool) {
    let budget = if quick {
        Duration::from_millis(300)
    } else {
        ARM_BUDGET
    };
    let kind = config.mip.kind_for(&sub.problem);
    m.push((
        "solver.formulation_s",
        time_calls(|| RasaFormulation::build(&sub.problem, kind, config.mip.include_non_affinity)),
    ));

    let mip_based = MipBased {
        options: config.mip.clone(),
    };
    let (s, outcome) = time_once(|| mip_based.schedule(&sub.problem, Deadline::after(budget)));
    m.push(("solver.mip_based_s", s));
    m.push((
        "solver.mip_based_affinity",
        outcome.normalized_gained_affinity,
    ));

    // column generation cold, then again seeded from the pool the cold run
    // left in a cross-round column cache
    let warm = CgWarmStart {
        cache: Arc::new(ColumnCache::new()),
        key: sub.service_set_fingerprint(),
    };
    let cg = ColumnGeneration {
        options: config.cg.clone(),
        warm: Some(warm),
    };
    let (s, (outcome, stats)) =
        time_once(|| cg.schedule_with_stats(&sub.problem, Deadline::after(budget)));
    m.push(("solver.cg_s", s));
    m.push(("solver.cg_rounds", stats.rounds as f64));
    m.push(("solver.cg_patterns", stats.patterns as f64));
    m.push(("solver.cg_affinity", outcome.normalized_gained_affinity));
    let (s, _) = time_once(|| cg.schedule_with_stats(&sub.problem, Deadline::after(budget)));
    m.push(("solver.cg_warm_s", s));

    let pop = PopStrategy::new(config.pop.clone());
    let (s, outcome) = time_once(|| pop.schedule(&sub.problem, Deadline::after(budget)));
    m.push(("solver.pop_s", s));
    m.push(("solver.pop_affinity", outcome.normalized_gained_affinity));

    let outcome = GreedyScheduler.schedule(&sub.problem, Deadline::none());
    m.push(("solver.greedy_affinity", outcome.normalized_gained_affinity));
    m.push((
        "solver.greedy_s",
        time_calls(|| GreedyScheduler.schedule(&sub.problem, Deadline::none())),
    ));
    m.push((
        "solver.complete_s",
        time_calls(|| {
            let mut placement = Placement::empty_for(problem);
            complete_placement(problem, &mut placement)
        }),
    ));
}

/// Returns the optimized placement of the whole problem.
fn core(
    m: &mut Metrics,
    problem: &Problem,
    sub: &Subproblem,
    config: &RasaConfig,
    deadline: Duration,
) -> Result<Placement, String> {
    let alg = config.selector.select(&sub.problem);
    let cg = ColumnGeneration {
        options: config.cg.clone(),
        warm: None,
    };
    let mip_based = MipBased {
        options: config.mip.clone(),
    };
    let primary: &dyn Scheduler = if alg == PoolAlgorithm::Mip {
        &mip_based
    } else {
        &cg
    };
    let (s, _) = time_once(|| {
        guarded_schedule(
            0,
            (alg, primary),
            &[],
            &sub.problem,
            Deadline::after(ARM_BUDGET),
        )
    });
    m.push(("core.guarded_s", s));

    // a session on the whole problem: one cold round, then the warm paths
    let mut session = AllocationSession::new(config.clone());
    session.apply_snapshot(problem);
    let cold = session
        .resolve(Deadline::after(deadline))
        .map_err(|e| format!("probe session round failed: {e}"))?;
    let placement = cold.run.outcome.placement.clone();
    m.push((
        "core.certify_s",
        time_calls(|| {
            certify_placement(
                problem,
                &placement,
                cold.objective,
                false,
                "benchmark.probe",
            )
        }),
    ));

    // a replay round: the identical snapshot against the cache the cold
    // round filled; a subproblem the deadline cut off misses again, so the
    // replay is bounded by a short deadline of its own
    let pipeline = RasaPipeline::new(config.clone());
    let cache = SolveCache::new();
    pipeline.optimize_with_cache(problem, None, Deadline::after(deadline), Some(&cache));
    let replay_deadline = Duration::from_millis(250);
    let replay = || {
        pipeline.optimize_with_cache(
            problem,
            None,
            Deadline::after(replay_deadline),
            Some(&cache),
        )
    };
    let stats = replay().cache.unwrap_or_default();
    m.push((
        "core.replay_round_s",
        time_batched(Duration::from_millis(500), 1, replay),
    ));
    m.push((
        "core.cache_hit_share",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    ));

    m.push(("core.delta_plan_s", time_calls(|| session.delta_plan())));
    let service = sub.mapping.service_to_parent[0];
    let base = problem.services[service.idx()].replicas;
    let mut bumped = false;
    m.push((
        "core.apply_delta_s",
        time_calls(|| {
            bumped = !bumped;
            session.apply_delta(&SnapshotDelta {
                edge_updates: Vec::new(),
                replica_updates: vec![ReplicaUpdate {
                    service: service.0,
                    replicas: base + u32::from(bumped),
                }],
            })
        }),
    ));
    let restored = || RestoredState {
        problem: problem.clone(),
        published: Some(RestoredPlacement {
            placement: placement.clone(),
            claimed_objective: cold.objective,
            normalized: cold.normalized,
            round: 1,
            generation: 1,
        }),
        rounds: 1,
        generation: 1,
    };
    m.push((
        "core.restore_s",
        time_calls(|| AllocationSession::restore(config.clone(), restored()).is_ok()),
    ));
    Ok(placement)
}

/// Drop containers from `a` until no service has more of them than in `b`.
fn trim_to(a: &mut Placement, b: &Placement, problem: &Problem) {
    for service in problem.services.iter().map(|s| s.id) {
        let mut surplus = a
            .placed_count(service)
            .saturating_sub(b.placed_count(service));
        let hosts: Vec<_> = a.machines_of(service).collect();
        for (machine, count) in hosts {
            let take = count.min(surplus);
            a.remove(service, machine, take);
            surplus -= take;
        }
    }
}

fn migrate(
    m: &mut Metrics,
    problem: &Problem,
    from: &Placement,
    to: &Placement,
) -> Result<(), String> {
    let config = MigrateConfig::default();
    // the planner moves containers, it does not create them: where the two
    // placements host different numbers of a service (clusters that cannot
    // host every replica), both are cut to the common count
    let (mut from, mut to) = (from.clone(), to.clone());
    trim_to(&mut from, &to, problem);
    trim_to(&mut to, &from, problem);
    let (from, to) = (&from, &to);
    let running = ContainerAssignment::materialize(problem, from);
    let plan = plan_migration(problem, &running, to, &config)
        .map_err(|e| format!("probe migration plan failed: {e}"))?;
    m.push((
        "migrate.plan_s",
        time_calls(|| plan_migration(problem, &running, to, &config)),
    ));
    m.push(("migrate.steps", plan.steps.len() as f64));
    replay_plan(problem, &running, to, &plan, config.min_alive_fraction)
        .map_err(|e| format!("probe migration plan does not replay: {e}"))?;
    m.push((
        "migrate.replay_s",
        time_calls(|| replay_plan(problem, &running, to, &plan, config.min_alive_fraction)),
    ));
    Ok(())
}

fn directory_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|meta| meta.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The serve layer, on one daemon tenant's problem whatever the workload:
/// what a request costs does not depend on which solver problem is served.
fn serve(m: &mut Metrics) -> Result<(), String> {
    let tenant = generate(&crate::inputs::tenant_spec(0));
    let body = serde_json::to_string(&tenant).map_err(|e| format!("encode: {e}"))?;
    m.push((
        "serve.json_decode_s",
        time_calls(|| serde_json::from_str::<Problem>(&body)),
    ));
    m.push((
        "serve.json_encode_s",
        time_calls(|| serde_json::to_string(&tenant)),
    ));

    let queue: BoundedQueue<u64> = BoundedQueue::new(64);
    m.push((
        "serve.queue_push_pop_s",
        time_batched(CALL_BUDGET, 256, || {
            let _ = queue.try_push(7);
            queue.pop()
        }),
    ));

    // the journal, without and with fsync
    let background = crate::inputs::background_services(&tenant);
    let service = background
        .first()
        .ok_or("the probe tenant has no background service")?;
    let delta = |replicas: u32| SnapshotDelta {
        edge_updates: Vec::new(),
        replica_updates: vec![ReplicaUpdate {
            service: service.0,
            replicas,
        }],
    };
    for (name, sync) in [
        ("serve.wal_append_nosync_s", SyncPolicy::Never),
        ("serve.wal_append_sync_s", SyncPolicy::Always),
    ] {
        let root = fresh_wal_root();
        let config = WalConfig {
            sync,
            ..WalConfig::new(root.clone())
        };
        let result = (|| -> Result<(), String> {
            let mut journal = TenantJournal::open(&config, "probe").map_err(|e| e.to_string())?;
            journal
                .append(&WalRecord::snapshot(1, tenant.clone()))
                .map_err(|e| e.to_string())?;
            let before = directory_bytes(journal.dir());
            let mut generation = 1u64;
            let mut failed = None;
            let s = time_batched(CALL_BUDGET, 1, || {
                generation += 1;
                if let Err(e) = journal.append(&WalRecord::delta(
                    generation,
                    delta(2 + (generation % 2) as u32),
                )) {
                    failed = Some(e.to_string());
                }
            });
            if let Some(why) = failed {
                return Err(why);
            }
            m.push((name, s));
            if sync == SyncPolicy::Never {
                let appended = (directory_bytes(journal.dir()) - before) as f64;
                m.push(("serve.wal_record_bytes", appended / (generation - 1) as f64));
                let state = || CheckpointState {
                    problem: &tenant,
                    published: None,
                    rounds: 0,
                    generation,
                };
                m.push((
                    "serve.wal_checkpoint_s",
                    time_batched(CALL_BUDGET, 1, || journal.checkpoint(&state()).is_ok()),
                ));
            }
            Ok(())
        })();
        let _ = std::fs::remove_dir_all(&root);
        result.map_err(|e| format!("journal probe failed: {e}"))?;
    }

    // a daemon with journaling on: connection set-up, the cheapest request,
    // a delta round and a read of one tenant, then recovery of what it wrote
    let daemon = Daemon::boot(4, Some(SyncPolicy::Never))?;
    let addr = daemon.addr;
    let reply = request(addr, "POST", "/snapshot?tenant=probe", &body, None)?;
    if reply.status != 200 {
        return Err(format!("probe snapshot answered {}", reply.status));
    }
    m.push((
        "serve.connect_s",
        time_calls(|| std::net::TcpStream::connect(addr).is_ok()),
    ));
    let exchanges = |method: &str,
                     target: &str,
                     body: &dyn Fn(usize) -> String,
                     first_byte: bool|
     -> Result<f64, String> {
        let mut samples = Vec::new();
        for n in 0..12 {
            let reply = request(addr, method, target, &body(n), None)?;
            if reply.status != 200 {
                return Err(format!("{method} {target} answered {}", reply.status));
            }
            samples.push(if first_byte {
                reply.first_byte_s
            } else {
                reply.wall_s
            });
        }
        Ok(crate::stats::median(&samples).expect("twelve samples"))
    };
    m.push((
        "serve.healthz_s",
        exchanges("GET", "/healthz", &|_| String::new(), true)?,
    ));
    let base = tenant.services[service.idx()].replicas;
    let delta_body =
        |n: usize| serde_json::to_string(&delta(base + (n % 2) as u32 + 1)).unwrap_or_default();
    m.push((
        "serve.delta_s",
        exchanges("POST", "/delta?tenant=probe", &delta_body, false)?,
    ));
    m.push((
        "serve.read_s",
        exchanges("GET", "/placement?tenant=probe", &|_| String::new(), false)?,
    ));
    let root = daemon
        .stop_keeping_journal()
        .ok_or("the probe daemon had no journal")?;
    let config = WalConfig {
        sync: SyncPolicy::Never,
        ..WalConfig::new(root.clone())
    };
    let recovered = recover_all(&config);
    m.push((
        "serve.wal_recover_s",
        time_batched(CALL_BUDGET, 1, || recover_all(&config).len()),
    ));
    m.push((
        "serve.wal_records_replayed",
        recovered
            .iter()
            .map(|t| t.stats.records_replayed)
            .sum::<u64>() as f64,
    ));
    let _ = std::fs::remove_dir_all(&root);

    // backpressure: a burst of eight concurrent snapshots of one tenant
    // against a queue of two
    let daemon = Daemon::boot(2, None)?;
    let addr = daemon.addr;
    let barrier = std::sync::Barrier::new(8);
    let statuses: Vec<Result<u16, String>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    request(addr, "POST", "/snapshot?tenant=burst", &body, None).map(|r| r.status)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| Err("burst client panicked".into()))
            })
            .collect()
    });
    let mut rejected = 0;
    for status in statuses {
        match status? {
            200 => {}
            429 => rejected += 1,
            other => return Err(format!("burst snapshot answered {other}")),
        }
    }
    m.push(("serve.rejected_429_share", rejected as f64 / 8.0));
    Ok(())
}

fn obs(m: &mut Metrics) {
    // a registry of the benchmark's own, so the probe leaves the program's
    // global counters alone; the flight recorder is off, as in every run
    let registry = MetricsRegistry::new();
    registry.inc("probe.counter");
    registry.record("probe.histogram", 1.0);
    m.push((
        "obs.span_s",
        time_batched(CALL_BUDGET, 1024, || drop(registry.span("probe.histogram"))),
    ));
    m.push((
        "obs.counter_inc_s",
        time_batched(CALL_BUDGET, 1024, || registry.inc("probe.counter")),
    ));
    m.push((
        "obs.snapshot_s",
        time_calls(|| rasa_obs::global().snapshot()),
    ));
}
