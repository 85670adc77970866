//! The traced run: per-layer numbers measured from outside, around
//! calls into each layer's public functions.
//!
//! * A staged replay of `optimize`'s MXR strategy (`initial_mpa`,
//!   `greedy_mpa_with`, then `TabuSearch` over `ReexecutionOnly` and
//!   `Mixed`, stepped one iteration at a time) records a span per
//!   phase and per tabu iteration, and must reproduce the untraced
//!   solve's best length and candidate count exactly.
//! * A layer-replay probe times each candidate-evaluation path on the
//!   same window's candidates at a few window bases of that
//!   trajectory, and checks that their costs agree.
//! * Pool wake-up latency, a 1-thread tabu replay for the pool's
//!   speed-up, and the serve / job / repair numbers of one driven
//!   pass complete the layer map.
//!
//! Spans (name, start, end, parent, run id) are kept in memory and
//! written to `out/trace-<workload>-<seed>.jsonl` at the end.

use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use ftdes_core::greedy::greedy_mpa_with;
use ftdes_core::initial::initial_mpa;
use ftdes_core::moves::MoveTable;
use ftdes_core::tabu::{TabuPause, TabuSearch};
use ftdes_core::{Evaluator, PolicySpace, Problem, SearchConfig, SearchStats, WorkerPool};
use ftdes_model::design::{Design, ProcessDesign};
use ftdes_model::ids::NodeId;
use ftdes_model::policy::FtPolicy;
use ftdes_sched::priority::Priorities;
use ftdes_sched::{
    CostOutcome, CostScratch, ExpandedDesign, PlacementCheckpoints, SchedScratch, ScheduleCost,
};
use serde::Value;

use crate::check::Tally;
use crate::workload::{self, Family, Kind, Spec};
use crate::{check_repeat, median, run_pass, verify_outputs, Metrics};

/// Window candidates each probe arm scores per base.
const PROBE_WINDOW: usize = 120;
/// Repetitions of each probe arm (the median is kept).
const PROBE_REPS: usize = 3;
/// Tiny-window submissions timed for the pool wake-up latency.
const WAKEUPS: usize = 2_000;

struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
    run: u32,
}

/// In-memory span recorder. `run` groups the spans of one solve.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    fn begin(&mut self, name: impl Into<String>) -> usize {
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.into(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (the innermost open one) and returns its
    /// duration in seconds.
    fn end(&mut self, id: usize) -> f64 {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end = self.epoch.elapsed().as_secs_f64();
        span.end - span.start
    }

    fn write(&self, path: &std::path::Path, provenance: &str) -> Result<(), String> {
        let file =
            std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let err = |e: std::io::Error| format!("writing {}: {e}", path.display());
        writeln!(out, "{provenance}").map_err(err)?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \
                 \"parent\": {parent}, \"run\": {}}}",
                s.name, s.start, s.end, s.run
            )
            .map_err(err)?;
        }
        out.flush().map_err(err)
    }
}

/// What one staged replay of a solve measured.
#[derive(Default)]
struct Replay {
    length_us: u64,
    stats: SearchStats,
    wall_s: f64,
    initial_s: f64,
    greedy_s: f64,
    greedy_candidates: usize,
    tabu_s: f64,
    iter_ms: Vec<f64>,
    /// Best designs sampled along the trajectory: the probe's window
    /// bases.
    bases: Vec<Design>,
}

/// One tabu stage stepped an iteration at a time; samples the best
/// design halfway through when `mid` is set.
fn run_stage(
    search: &mut TabuSearch<'_, '_>,
    stats: &mut SearchStats,
    tracer: &mut Tracer,
    replay: &mut Replay,
    mid: Option<usize>,
) -> Result<(), String> {
    loop {
        let before = stats.tabu_iterations;
        if mid == Some(before) {
            replay.bases.push(search.best().0);
        }
        let span = tracer.begin("tabu.iteration");
        let pause = search
            .run(stats, None, Some(1))
            .map_err(|e| format!("tabu step failed: {e}"))?;
        let took = tracer.end(span);
        if stats.tabu_iterations > before {
            replay.iter_ms.push(took * 1e3);
        }
        if pause == TabuPause::Finished {
            return Ok(());
        }
    }
}

/// Replays `optimize`'s MXR three-step strategy with public functions
/// over one shared `Evaluator` and `WorkerPool`.
fn replay(problem: &Problem, cfg: &SearchConfig, tracer: &mut Tracer) -> Result<Replay, String> {
    let mut r = Replay::default();
    let root = tracer.begin("solve");
    let evaluator = Evaluator::with_cache(problem, cfg.eval_cache);
    let pool = WorkerPool::new(cfg.threads);
    let mut stats = SearchStats::default();

    let span = tracer.begin("initial");
    let initial = initial_mpa(problem, PolicySpace::Mixed).map_err(|e| e.to_string())?;
    r.initial_s = tracer.end(span);

    let span = tracer.begin("greedy");
    let (design, schedule) = greedy_mpa_with(
        &evaluator,
        &pool,
        PolicySpace::Mixed,
        initial,
        cfg,
        None,
        &mut stats,
    )
    .map_err(|e| e.to_string())?;
    r.greedy_s = tracer.end(span);
    r.greedy_candidates = stats.candidates();
    r.bases.push(design.clone());

    let tabu = tracer.begin("tabu");
    let remaining = cfg
        .max_tabu_iterations
        .saturating_sub(stats.tabu_iterations);
    let stage1_cfg = SearchConfig {
        max_tabu_iterations: stats.tabu_iterations + remaining / 2,
        ..cfg.clone()
    };
    let span = tracer.begin("tabu.reexecution");
    let mut stage1 = TabuSearch::new(
        &evaluator,
        &pool,
        PolicySpace::ReexecutionOnly,
        (design, Arc::new(schedule)),
        &stage1_cfg,
    );
    run_stage(&mut stage1, &mut stats, tracer, &mut r, None)?;
    tracer.end(span);
    let (design, schedule) = stage1.into_best();
    r.bases.push(design.clone());

    let span = tracer.begin("tabu.mixed");
    let mid = stats.tabu_iterations + (cfg.max_tabu_iterations - stats.tabu_iterations) / 2;
    let mut stage2 = TabuSearch::new(
        &evaluator,
        &pool,
        PolicySpace::Mixed,
        (design, Arc::new(schedule)),
        cfg,
    );
    run_stage(&mut stage2, &mut stats, tracer, &mut r, Some(mid))?;
    tracer.end(span);
    r.tabu_s = tracer.end(tabu);
    let (design, schedule) = stage2.into_best();
    r.bases.push(design);
    r.length_us = schedule.length().as_us();
    r.stats = stats;
    r.wall_s = tracer.end(root);
    Ok(r)
}

/// Accumulated per-candidate time of one evaluation path.
#[derive(Default)]
struct Arm {
    seconds: f64,
    candidates: usize,
}

impl Arm {
    fn per_candidate_us(&self) -> f64 {
        self.seconds * 1e6 / self.candidates.max(1) as f64
    }
}

#[derive(Default)]
struct Probe {
    scratch: Arm,
    bounded: Arm,
    resumed: Arm,
    stack: Arm,
    expand_s: Vec<f64>,
    priority_s: Vec<f64>,
    materialize_s: Vec<f64>,
}

/// Runs `arm` over candidates `0..n` [`PROBE_REPS`] times and keeps
/// the median repetition's time and the last repetition's results.
fn time_arm<T>(n: usize, mut arm: impl FnMut(usize) -> T, into: &mut Arm) -> Vec<T> {
    let mut times = Vec::with_capacity(PROBE_REPS);
    let mut results = Vec::new();
    for _ in 0..PROBE_REPS {
        let started = Instant::now();
        results = (0..n).map(&mut arm).collect();
        times.push(started.elapsed().as_secs_f64());
    }
    into.seconds += median(&times);
    into.candidates += n;
    results
}

/// Checks one path's outcome against the exact cost: an exact result
/// must match it, a pruned one must be a lower bound of a candidate
/// that really is worse than the bound.
fn agrees(outcome: &Result<CostOutcome, String>, exact: ScheduleCost, bound: ScheduleCost) -> bool {
    match outcome {
        Ok(CostOutcome::Exact(c)) => *c == exact,
        Ok(CostOutcome::LowerBound(lb)) => *lb <= exact && exact > bound,
        Err(_) => false,
    }
}

/// Times every evaluation path on one window of `base`'s candidates.
fn probe(
    problem: &Problem,
    base: &Design,
    cfg: &SearchConfig,
    acc: &mut Probe,
    tally: &mut Tally,
) -> Result<(), String> {
    let err = |e: ftdes_sched::SchedError| e.to_string();
    let graph = problem.graph();
    let fm = problem.fault_model();

    // Each layer call runs twice and only the second, warm call is
    // timed: the search calls them with warm buffers.
    let mut sched_scratch = SchedScratch::default();
    let mut recorded = PlacementCheckpoints::new();
    let mut times = [0.0; 3];
    let mut schedule = None;
    for _ in 0..2 {
        let started = Instant::now();
        let expanded =
            ExpandedDesign::expand(graph, base, problem.dense_wcet(), fm).map_err(err)?;
        times[0] = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let priorities = Priorities::compute(
            graph,
            &expanded,
            problem.bus(),
            problem.schedule_options().priority,
        )
        .map_err(err)?;
        times[1] = started.elapsed().as_secs_f64();
        black_box((&expanded, &priorities));
        let started = Instant::now();
        schedule = Some(
            problem
                .evaluate_recording(base, &mut sched_scratch, Some(&mut recorded))
                .map_err(err)?,
        );
        times[2] = started.elapsed().as_secs_f64();
    }
    acc.expand_s.push(times[0]);
    acc.priority_s.push(times[1]);
    acc.materialize_s.push(times[2]);
    let schedule = schedule.expect("the loop runs twice");
    let bound = schedule.cost();

    let table = MoveTable::new(problem, PolicySpace::Mixed);
    let cp = schedule.move_candidates(graph, cfg.min_move_candidates);
    let mut window = Vec::new();
    table.window(base, &cp, &mut window);
    window.truncate(PROBE_WINDOW);
    let candidates: Vec<Design> = window
        .iter()
        .map(|mv| {
            let mut d = base.clone();
            d.set_decision(mv.process, table.decision(*mv).clone());
            d
        })
        .collect();
    let n = window.len();

    // The stack arm runs through an evaluator with memoization off, so
    // no candidate is a cache hit; its checkpoints also serve the
    // resumed arm.
    let uncached = Evaluator::with_cache(problem, false);
    let mut ckpts = PlacementCheckpoints::new();
    uncached.schedule_recording(base, &mut ckpts).map_err(err)?;

    let mut cs = CostScratch::default();
    let exact: Vec<Result<ScheduleCost, String>> = time_arm(
        n,
        |i| problem.evaluate_cost(&candidates[i], &mut cs).map_err(err),
        &mut acc.scratch,
    );
    let mut cs = CostScratch::default();
    let bounded = time_arm(
        n,
        |i| {
            problem
                .evaluate_cost_bounded(&candidates[i], &mut cs, Some(bound))
                .map_err(err)
        },
        &mut acc.bounded,
    );
    let mut cs = CostScratch::default();
    let resumed = time_arm(
        n,
        |i| {
            let moved = window[i].process;
            problem
                .evaluate_cost_resumed(&candidates[i], moved, &mut cs, &ckpts, Some(bound))
                .map_err(err)
        },
        &mut acc.resumed,
    );
    let facade = uncached.candidate_eval(base, Some(&ckpts), Some(bound));
    let mut working = base.clone();
    let stack = time_arm(
        n,
        |i| {
            let mv = window[i];
            facade
                .eval_move(&mut working, mv.process, table.decision(mv))
                .map(|(o, _)| o)
                .map_err(err)
        },
        &mut acc.stack,
    );

    for (i, exact) in exact.iter().enumerate() {
        let Ok(exact) = *exact else {
            tally.check(false, || "probe: from-scratch evaluation failed".into());
            continue;
        };
        for (path, outcome) in [
            ("bounded", &bounded[i]),
            ("resumed", &resumed[i]),
            ("stack", &stack[i]),
        ] {
            tally.check(agrees(outcome, exact, bound), || {
                format!("probe: {path} cost disagrees with from-scratch on candidate {i}")
            });
        }
    }
    Ok(())
}

/// Median latency of submitting a tiny window (the smallest one the
/// pool does not run inline at `threads` ≥ 2) to a `WorkerPool`.
fn pool_wakeup_us(threads: usize) -> f64 {
    let pool = WorkerPool::new(threads);
    let items: Vec<u64> = (0..(threads * 2).max(5) as u64).collect();
    let mut samples = Vec::with_capacity(WAKEUPS);
    for _ in 0..WAKEUPS {
        let started = Instant::now();
        let out = pool.try_map_init(
            &items,
            || 0u64,
            |acc, _, x| {
                *acc += black_box(*x);
                Ok::<_, ()>(Some(*acc))
            },
        );
        black_box(out.ok());
        samples.push(started.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// Nearest-rank percentile of sorted `v`.
fn percentile(v: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the usual percentiles with at least ten samples
/// beyond it: `(percentile, value)`.
fn tail(v: &[f64]) -> (f64, f64) {
    for p in [99.9, 99.0, 95.0, 90.0, 75.0, 50.0] {
        if v.len() as f64 * (1.0 - p / 100.0) >= 10.0 {
            return (p, percentile(v, p));
        }
    }
    (50.0, percentile(v, 50.0))
}

/// The intact problems of the repair sweep, as its `optimize` jobs
/// build them, with the family/seed part of their job names; also the
/// time spent generating and building them.
pub fn sweep_problems(spec: &Spec, seed: u64) -> (Vec<(Problem, String)>, f64, f64) {
    let (mut gen_s, mut problem_s) = (0.0, 0.0);
    let mut out = Vec::new();
    let Kind::Repair { comm_processes } = spec.kind else {
        return (out, gen_s, problem_s);
    };
    for s in spec.instance_seeds(seed) {
        for (family, name, processes) in [
            (Family::Paper, "paper", spec.processes),
            (Family::CommDense, "comm_heavy", comm_processes),
        ] {
            let t = Instant::now();
            let (arch, w) = workload::generate(spec, family, processes, s);
            gen_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let problem =
                workload::build_problem(spec, family, processes, arch, w).with_max_checkpoints(1);
            problem_s += t.elapsed().as_secs_f64();
            out.push((problem, format!("{name}/s{s}")));
        }
    }
    (out, gen_s, problem_s)
}

/// Decodes a design as the sweep's `optimize` jobs encode it:
/// `[replicas, checkpoints, [nodes]]` per process.
pub fn decode_design(value: &Value, problem: &Problem) -> Result<Design, String> {
    let Value::Array(rows) = value else {
        return Err("design is not an array".into());
    };
    let fm = problem.fault_model();
    let mut decisions = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let bad = || format!("design row {i} is malformed");
        let Value::Array(parts) = row else {
            return Err(bad());
        };
        let [replicas, checkpoints, Value::Array(nodes)] = parts.as_slice() else {
            return Err(bad());
        };
        let replicas = replicas.as_u64().ok_or_else(bad)? as u32;
        let checkpoints = checkpoints.as_u64().ok_or_else(bad)? as u32;
        let mapping = nodes
            .iter()
            .map(|n| n.as_u64().map(|v| NodeId::new(v as u32)).ok_or_else(bad))
            .collect::<Result<Vec<_>, _>>()?;
        let policy = FtPolicy::checkpointed((i as u32).into(), replicas, checkpoints, fm)
            .map_err(|e| format!("design row {i}: {e}"))?;
        decisions.push(ProcessDesign::new(policy, mapping).map_err(|e| format!("row {i}: {e}"))?);
    }
    Ok(Design::from_decisions(decisions))
}

/// A solve to replay and the untraced result it must reproduce.
struct Target {
    problem: Problem,
    length_us: u64,
    /// Candidate count of the untraced solve, where the job result
    /// reports it (the sweep's `optimize` jobs do not).
    candidates: Option<usize>,
}

pub fn traced_run(spec: &Spec, seed: u64, provenance: &str) -> Result<(Metrics, Tally), String> {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let cfg = spec.search_config();

    // One untraced pass: the reference results, the untraced solve
    // time and the serve / job numbers.
    let span = tracer.begin("pass");
    let pass = run_pass(spec, seed, "trace")?;
    tracer.end(span);
    check_repeat(spec, &pass, &pass, &mut tally);
    let faults = verify_outputs(spec, &pass, seed)?;
    tally.add(faults);

    let (targets, gen_s, problem_s) = match spec.kind {
        Kind::Search(_) => {
            let targets = pass
                .problems
                .iter()
                .zip(&pass.outcomes)
                .map(|(p, o)| Target {
                    problem: p.clone(),
                    length_us: o.length().as_us(),
                    candidates: Some(o.stats.candidates()),
                })
                .collect();
            (targets, pass.gen_s, pass.problem_s)
        }
        Kind::Repair { .. } => {
            let span = tracer.begin("setup");
            let (problems, gen_s, problem_s) = sweep_problems(spec, seed);
            tracer.end(span);
            let mut targets = Vec::new();
            for (problem, name) in problems {
                let fp = ftdes_core::cache::problem_fingerprint(&problem);
                let job_fp = pass
                    .driven
                    .result(&format!("gen/{name}"))
                    .and_then(|r| r.get("problem_fp"))
                    .and_then(Value::as_u64);
                tally.check(job_fp == Some(fp), || {
                    format!("{name}: rebuilt problem differs")
                });
                let length_us = pass
                    .driven
                    .result(&format!("opt/{name}"))
                    .and_then(|r| r.get("length_us"))
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("opt/{name} has no length"))?;
                targets.push(Target {
                    problem,
                    length_us,
                    candidates: None,
                });
            }
            (targets, gen_s, problem_s)
        }
    };

    // The traced replay at the workload's thread count.
    let mut replays = Vec::new();
    for (i, t) in targets.iter().enumerate() {
        tracer.run = i as u32 + 1;
        let r = replay(&t.problem, &cfg, &mut tracer)?;
        tally.check(r.length_us == t.length_us, || {
            format!("replay {i}: best length {} != {}", r.length_us, t.length_us)
        });
        if let Some(c) = t.candidates {
            tally.check(r.stats.candidates() == c, || {
                format!("replay {i}: {} candidates != {c}", r.stats.candidates())
            });
        }
        replays.push(r);
    }

    // The layer-replay probe at the sampled window bases.
    tracer.run = 0;
    let span = tracer.begin("probe");
    let mut probe_acc = Probe::default();
    for (t, r) in targets.iter().zip(&replays) {
        for base in &r.bases {
            probe(&t.problem, base, &cfg, &mut probe_acc, &mut tally)?;
        }
    }
    tracer.end(span);

    // Pool: wake-up latency and the 1-thread replay of the same
    // trajectories.
    let span = tracer.begin("pool.wakeup");
    let wakeup_us = pool_wakeup_us(spec.threads);
    tracer.end(span);
    let one_thread = SearchConfig {
        threads: 1,
        ..cfg.clone()
    };
    let mut tabu_1t = 0.0;
    for (i, t) in targets.iter().enumerate() {
        tracer.run = (targets.len() + i) as u32 + 1;
        let r = replay(&t.problem, &one_thread, &mut tracer)?;
        tally.check(r.length_us == t.length_us, || {
            format!(
                "1-thread replay {i}: best length {} != {}",
                r.length_us, t.length_us
            )
        });
        tabu_1t += r.tabu_s;
    }

    let path = crate::out_dir()?.join(format!("trace-{}-{seed}.jsonl", spec.name));
    tracer.write(&path, provenance)?;
    eprintln!("trace written to {}", path.display());

    let sum = |f: &dyn Fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>();
    let total = |f: &dyn Fn(&Replay) -> usize| replays.iter().map(f).sum::<usize>() as f64;
    let mut iter_ms: Vec<f64> = replays.iter().flat_map(|r| r.iter_ms.clone()).collect();
    iter_ms.sort_by(f64::total_cmp);
    if iter_ms.is_empty() {
        return Err("the replay ran no tabu iteration".into());
    }
    let (tail_pct, tail_ms) = tail(&iter_ms);
    let candidates = total(&|r| r.stats.candidates());
    let greedy_candidates = total(&|r| r.greedy_candidates);
    let hits = total(&|r| r.stats.cache_hits);
    let pruned = total(&|r| r.stats.pruned);
    let tabu_s = sum(&|r| r.tabu_s);
    let traced_solve_s = sum(&|r| r.wall_s);
    let untraced_solve_s = pass.driven.busy("optimize");
    let job_busy = pass.driven.sweep_s - pass.driven.overhead_s();
    let rung = |name: &str| {
        pass.driven
            .state()
            .jobs()
            .filter(|j| j.spec.kind == "repair")
            .filter(|j| {
                pass.driven
                    .state()
                    .result(j.spec.id)
                    .and_then(|r| r.get("rung"))
                    .and_then(Value::as_str)
                    .is_some_and(|r| r.contains(name))
            })
            .count() as f64
    };

    let metrics: Metrics = vec![
        ("gen.busy_s", gen_s, "s"),
        ("problem.busy_s", problem_s, "s"),
        ("initial.busy_s", sum(&|r| r.initial_s), "s"),
        ("greedy.busy_s", sum(&|r| r.greedy_s), "s"),
        ("greedy.steps", total(&|r| r.stats.greedy_steps), "count"),
        ("greedy.candidates", greedy_candidates, "count"),
        ("tabu.busy_s", tabu_s, "s"),
        (
            "tabu.iterations",
            total(&|r| r.stats.tabu_iterations),
            "count",
        ),
        ("tabu.candidates", candidates - greedy_candidates, "count"),
        ("tabu.iter_ms_p50", percentile(&iter_ms, 50.0), "ms"),
        ("tabu.iter_ms_tail", tail_ms, "ms"),
        ("tabu.iter_tail_pct", tail_pct, "%"),
        ("tabu.iter_samples", iter_ms.len() as f64, "count"),
        ("cache.lookups", candidates, "count"),
        ("cache.hits", hits, "count"),
        ("cache.hit_ratio", hits / candidates.max(1.0), "share"),
        ("bounded.pruned", pruned, "count"),
        ("bounded.prune_ratio", pruned / candidates.max(1.0), "share"),
        (
            "eval.scratch_us",
            probe_acc.scratch.per_candidate_us(),
            "us",
        ),
        (
            "eval.bounded_us",
            probe_acc.bounded.per_candidate_us(),
            "us",
        ),
        (
            "eval.resumed_us",
            probe_acc.resumed.per_candidate_us(),
            "us",
        ),
        ("eval.stack_us", probe_acc.stack.per_candidate_us(), "us"),
        (
            "eval.stack_speedup",
            probe_acc.scratch.per_candidate_us() / probe_acc.stack.per_candidate_us(),
            "x",
        ),
        ("expand_us", median(&probe_acc.expand_s) * 1e6, "us"),
        ("priority_us", median(&probe_acc.priority_s) * 1e6, "us"),
        (
            "materialize_us",
            median(&probe_acc.materialize_s) * 1e6,
            "us",
        ),
        ("pool.wakeup_us", wakeup_us, "us"),
        ("pool.speedup", tabu_1t / tabu_s, "x"),
        ("faultsim.scenarios", faults.scenarios as f64, "count"),
        (
            "faultsim.replay_us",
            faults.replay_s * 1e6 / faults.scenarios.max(1) as f64,
            "us",
        ),
        ("faultsim.violations", faults.violations as f64, "count"),
        (
            "serve.jobs",
            pass.driven.state().jobs().count() as f64,
            "count",
        ),
        ("serve.attempts", pass.driven.attempts() as f64, "count"),
        ("serve.overhead_s", pass.driven.overhead_s(), "s"),
        ("job.generate_s", pass.driven.busy("generate"), "s"),
        ("job.optimize_s", pass.driven.busy("optimize"), "s"),
        (
            "job.repair_share",
            pass.driven.busy("repair") / job_busy,
            "share",
        ),
        ("repair.rung_localized", rung("localized"), "count"),
        ("repair.rung_warm", rung("warm"), "count"),
        ("repair.rung_scratch", rung("scratch"), "count"),
        ("trace.overhead", traced_solve_s / untraced_solve_s, "x"),
        (
            "error_rate",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "share",
        ),
    ];
    Ok((metrics, tally))
}
