//! The performance gate: tracks the optimizer's evaluation throughput
//! from PR to PR.
//!
//! Runs the same fixed-seed MXR search **four** times under the
//! identical wall-clock budget (`FTDES_TIME_MS`, default 500 ms per
//! seed):
//!
//! 1. **baseline** — the frozen pre-optimization reference
//!    ([`ftdes_bench::legacy`]): sequential, uncached, one full
//!    schedule materialization and one design clone per candidate,
//! 2. **pr1** — the parallel + memoized cost-only path
//!    (`incremental: false, bounded: false`): scratch-reused
//!    from-scratch placement per candidate,
//! 3. **pr3** — the PR 2/3 default: checkpoint-resumed + bounded
//!    candidates with the communication-aware engine, suffix splicing
//!    disabled (`Problem::with_suffix_splice(false)`),
//! 4. **incremental** — the current default path (evaluation engine
//!    v3): candidates re-place only their certified affected cone and
//!    splice the base recording's per-node segments and per-slot bus
//!    timelines for everything outside it, falling back to the PR 2
//!    resume on ready-order divergence.
//!
//! Because the search is deterministic in everything except the
//! wall-clock cutoff, more candidates per second directly buy more
//! tabu iterations — the quantity that decides solution quality under
//! the paper's "shortest schedule within an imposed time limit"
//! protocol. Results are written to `BENCH_tabu.json`:
//!
//! ```json
//! {
//!   "workload": {...},
//!   "baseline":    {"tabu_iterations": N, "candidates_per_sec": X, ...},
//!   "pr1":         {...},
//!   "pr3":         {...},
//!   "incremental": {...},
//!   "speedup": {
//!     "tabu_iterations": incremental/baseline,
//!     "candidate_rate": incremental/baseline,
//!     "tabu_iterations_vs_pr1": incremental/pr1 (null if pr1 ran 0),
//!     "candidate_rate_vs_pr1": incremental/pr1,
//!     "tabu_iterations_vs_pr3": incremental/pr3 (null if pr3 ran 0),
//!     "candidate_rate_vs_pr3": incremental/pr3,
//!     "best_length_ratio": informational
//!   }
//! }
//! ```
//!
//! # One subprocess per section
//!
//! Every gated section runs in its **own child process** (the binary
//! re-invokes itself with `FTDES_PERFGATE_SECTION=<name>` and collects
//! the per-section JSON fragments): the full-placement arms of the
//! occupancy gate — and, to a lesser degree, every other ratio in the
//! file — are sensitive to allocator state, so letting one section
//! churn the heap before another measurably bends the next section's
//! ratio (historically ~0.10 absolute on the occupancy gate, which is
//! why it used to be pinned first). A fresh process per section makes
//! every floor independent of section order by construction.
//! `FTDES_PERFGATE_SECTION=all` runs everything in-process instead
//! (the automatic fallback when the binary cannot re-spawn itself).
//!
//! # The suffix-splice gate
//!
//! The fourth mode's own CI gate runs on a second **paper-family
//! workload** at a larger architecture
//! (96 processes / 12 nodes / k = 3, `splice_workload` in the JSON):
//! the certified affected cone of a move covers the moved process's
//! replica nodes plus everything node-chained behind them, so on the
//! legacy 4-node instance a k = 3 move dirties most of the machine
//! and splicing cannot beat the PR 2 replay it falls back to
//! (measured ≈ 1.0× there — kept as the informational
//! `candidate_rate_vs_pr3`). At 12 nodes the cone leaves most of the
//! machine untouched and the engine's reuse is structural:
//! `splice_candidate_rate_vs_pr3` carries the CI floor (1.2×).
//!
//! # The communication-heavy gate
//!
//! The paper-family workload above makes communication almost free
//! (1–4 byte messages against 10–100 ms WCETs), so it cannot see the
//! communication-aware engine at all. A **second gated workload**
//! ([`ftdes_bench::comm_heavy_problem_with`]: five edges per process,
//! 4–16 byte messages, a bus where an average transfer costs half an
//! average WCET — several hundred bookings per evaluation) is
//! therefore run two ways:
//!
//! 1. **pr2** — incremental + bounded exactly as PR 2 shipped it:
//!    the certified bus-wait lower bound disabled
//!    (`Problem::with_comm_lookahead(false)`) and bus messages booked
//!    through the legacy flat tail scan
//!    (`Problem::with_occupancy_backend(OccupancyBackend::Flat)`),
//!    whose whole-table rescan per overflowed round turns quadratic on
//!    congested buses,
//! 2. **incremental** — the current default: the per-(node, slot)
//!    occupancy index books in O(log occupied rounds), and the
//!    bus-wait floor folds into the abort bound.
//!
//! Both runs walk bit-identical trajectories (the bound is
//! admissible and both booking paths pick identical slot
//! occurrences — it changes *how fast* a candidate is scored, never
//! *which* candidate wins), so the candidate-rate ratio cleanly
//! measures the communication-aware additions. `BENCH_tabu.json`
//! gains `comm_workload` / `comm_pr2` / `comm` sections and a
//! `comm_candidate_rate_vs_pr2` ratio; CI enforces its floor (1.15×).
//!
//! # The occupancy gate
//!
//! A **third gated workload** pushes the communication family to the
//! regime where the booking structure itself dominates per-candidate
//! cost: [`CommHeavyParams::stress`] (twenty-four edges per process,
//! message/WCET ratio 3) at k = 2 piles thousands of replicated
//! messages onto contended TDMA rounds, so the PR 3 sorted-vec
//! occupancy index degenerates into long per-round walks over
//! partially-filled-but-unfitting rounds. Both arms run full
//! from-scratch placements (checkpoint resume and bounded early-exit
//! off — the cold-start / greedy / portfolio-prologue regime, where
//! every candidate exercises the full booking table). The arms differ
//! only in the backend: the round-sorted index (`occ_indexed`) vs the
//! default bit-packed saturation bitmap (`occ`), which skips saturated
//! words whole and walks partial words with a branch-light threshold
//! scan. Like the comm gate, the backend is a pure throughput knob
//! (bit-identical bookings), so
//! `occ_speedup.occ_candidate_rate_vs_indexed` cleanly isolates the
//! bitmap; CI enforces its floor (1.05×). The floor was re-calibrated
//! down from 1.15× in PR 10: an A/B with function placement
//! neutralized (`-C llvm-args=-align-all-functions=6`, both arms)
//! shows the structural bitmap advantage on the 1-CPU container is
//! ~1.07×, and the rest of the historical 1.2×+ readings was code
//! *layout* luck that rerolls on any unrelated edit — a floor above
//! the structural value keys the gate on the linker lottery, not on
//! the backend. The standalone `occbench`
//! binary sweeps all three backends (flat / indexed / bitmap) into
//! `BENCH_occ.json` for ablation.
//!
//! # The multi-core portfolio section
//!
//! A final sweep runs the portfolio engine
//! ([`ftdes_core::portfolio`]) at 1 / 2 / 4 workers over the paper
//! gate workload with a **fixed iteration budget per worker** and
//! single-threaded per-worker evaluation, recording the aggregate and
//! per-core candidate rates plus the scaling efficiencies
//! (`rate(w) / rate(1)`) into the `multicore` section of
//! `BENCH_tabu.json`. The 4-worker floor (1.3×) is **non-gating**: a
//! 1-CPU container measures ≈ 1.0× by construction, so the floor only
//! becomes meaningful (and, later, gateable) on a multi-core runner —
//! `environment.threads` / `multicore.available_parallelism` tell the
//! two apart.

use std::time::Duration;

use ftdes_bench::{comm_heavy_problem_with, synthetic_problem, time_budget};
use ftdes_core::{
    effective_threads, optimize, optimize_portfolio, Goal, OccupancyBackend, Outcome, PolicySpace,
    PortfolioConfig, Problem, SearchConfig, Strategy,
};
use ftdes_gen::CommHeavyParams;
use ftdes_model::time::Time;

/// Processes / nodes / k of the gate workload: large enough that a
/// budgeted run is evaluation-bound, small enough to finish quickly.
const PROCESSES: usize = 40;
const NODES: usize = 4;
const FAULTS: u32 = 3;
const SEEDS: u64 = 3;

/// The communication-heavy gate workload: a denser graph (five edges
/// per process — several hundred bus messages per evaluation), k = 2
/// so the fault dimension doesn't drown the bus dimension.
const COMM_PROCESSES: usize = 50;
const COMM_DENSITY: f64 = 5.0;
const COMM_FAULTS: u32 = 2;
const COMM_SEEDS: u64 = 3;

/// The suffix-splice gate workload (paper family, larger machine):
/// the affected cone of a move spans the moved process's replica
/// nodes plus everything node-chained behind them, so on the 4-node
/// legacy gate a k = 3 move dirties most of the machine and the
/// splice has no suffix locality to exploit (measured ~1.0× there —
/// recorded as the informational `candidate_rate_vs_pr3` of the
/// legacy gate). At 12 nodes a move leaves most nodes untouched and
/// the engine's reuse is structural, not incidental.
const SPLICE_PROCESSES: usize = 96;
const SPLICE_NODES: usize = 12;
const SPLICE_FAULTS: u32 = 3;
const SPLICE_SEEDS: u64 = 3;

/// The occupancy gate workload ([`CommHeavyParams::stress`]: twenty-four
/// edges per process, message/WCET ratio 3, k = 2 so replication
/// multiplies the sends — thousands of messages fighting over
/// contended TDMA rounds): the regime where the booking structure
/// dominates per-candidate cost. Both arms run **from-scratch
/// placements** ([`occ_gate_config`]: checkpoint resume off, the
/// cold-start / greedy / portfolio-prologue regime) so every
/// candidate exercises the full booking table; they differ only in
/// the backend — the PR 3 round-sorted index vs the default
/// bit-packed bitmap — and walk bit-identical trajectories, so the
/// candidate-rate ratio isolates exactly the booking structure. CI
/// enforces the floor (1.05×; see the module docs for the PR 10
/// layout-neutralized re-calibration) on
/// `occ_speedup.occ_candidate_rate_vs_indexed`.
const OCC_PROCESSES: usize = 48;
const OCC_FAULTS: u32 = 2;
const OCC_SEEDS: u64 = 3;

/// The multi-core portfolio gate: worker counts swept over the paper
/// gate workload at a **fixed iteration budget per worker** (no
/// wall-clock cutoff), so the aggregate candidate rate cleanly
/// measures how well extra workers turn into extra throughput.
/// Scaling efficiency at `w` workers is
/// `aggregate_rate(w) / aggregate_rate(1)`; the acceptance floor
/// (1.3× at 4 workers) is recorded **non-gating** — the numbers only
/// mean something on a multi-core runner (`available_parallelism` in
/// the environment section tells them apart; a 1-CPU container
/// measures ≈ 1.0× by construction).
const MULTICORE_WORKERS: [usize; 3] = [1, 2, 4];
const MULTICORE_ITERATIONS: usize = 120;
const MULTICORE_SEEDS: u64 = 2;
const MULTICORE_FLOOR_4W: f64 = 1.3;

/// Execution order of the per-section subprocesses. With one fresh
/// process per section the order no longer affects any ratio; the
/// occupancy gate simply keeps its historical first slot.
const SECTIONS: [&str; 5] = ["occ", "paper", "splice", "comm", "multicore"];

/// Key order of the assembled `BENCH_tabu.json` (environment first
/// for human readers; CI loads it as a dict and doesn't care).
const ASSEMBLY: [&str; 5] = ["paper", "splice", "comm", "occ", "multicore"];

#[derive(Debug, Default, Clone, Copy)]
struct ModeTotals {
    tabu_iterations: usize,
    evaluations: usize,
    cache_hits: usize,
    pruned: usize,
    elapsed: Duration,
    best_length_us: u64,
}

impl ModeTotals {
    fn add(&mut self, outcome: &Outcome) {
        self.tabu_iterations += outcome.stats.tabu_iterations;
        self.evaluations += outcome.stats.evaluations;
        self.cache_hits += outcome.stats.cache_hits;
        self.pruned += outcome.stats.pruned;
        self.elapsed += outcome.stats.elapsed;
        self.best_length_us += outcome.length().as_us();
    }

    fn evals_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.evaluations as f64 / secs
    }

    /// Candidates scored per second — schedules computed, cache hits,
    /// and bounded-pruned candidates (each pruned candidate was
    /// examined exactly far enough to prove it cannot win); the rate
    /// the search actually consumes its neighbourhood at.
    fn candidates_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        (self.evaluations + self.cache_hits + self.pruned) as f64 / secs
    }

    fn json(&self) -> String {
        format!(
            "{{\"tabu_iterations\": {}, \"evaluations\": {}, \"cache_hits\": {}, \
             \"pruned\": {}, \"elapsed_ms\": {}, \"evals_per_sec\": {:.1}, \
             \"candidates_per_sec\": {:.1}, \"best_length_us\": {}}}",
            self.tabu_iterations,
            self.evaluations,
            self.cache_hits,
            self.pruned,
            self.elapsed.as_millis(),
            self.evals_per_sec(),
            self.candidates_per_sec(),
            self.best_length_us
        )
    }
}

fn gate_config(budget: Duration) -> SearchConfig {
    SearchConfig {
        goal: Goal::MinimizeLength,
        time_limit: Some(budget),
        max_tabu_iterations: usize::MAX,
        ..SearchConfig::default()
    }
}

/// The current default path: incremental + bounded evaluation.
fn run_incremental(problem: &Problem, budget: Duration) -> Outcome {
    optimize(problem, Strategy::Mxr, &gate_config(budget))
        .unwrap_or_else(|e| panic!("perfgate incremental search: {e}"))
}

/// The PR 1 path: parallel + memoized cost-only evaluation, every
/// candidate placed from scratch, no bounds, no checkpoints.
fn run_pr1(problem: &Problem, budget: Duration) -> Outcome {
    let cfg = SearchConfig {
        incremental: false,
        bounded: false,
        ..gate_config(budget)
    };
    optimize(problem, Strategy::Mxr, &cfg).unwrap_or_else(|e| panic!("perfgate pr1 search: {e}"))
}

/// The PR 3 path: everything the previous default had — checkpoint
/// resume, bounded early-exit, the comm-aware engine — with suffix
/// splicing disabled. The candidate-rate ratio against this isolates
/// exactly the splice engine's contribution.
fn run_pr3(problem: &Problem, budget: Duration) -> Outcome {
    let problem = problem.clone().with_suffix_splice(false);
    optimize(&problem, Strategy::Mxr, &gate_config(budget))
        .unwrap_or_else(|e| panic!("perfgate pr3 search: {e}"))
}

/// The PR 2 path on the communication-heavy workload: incremental +
/// bounded exactly as PR 2 shipped it — the certified bus-wait lower
/// bound disabled (the abort bound falls back to the computation-only
/// per-node lookahead) and bus messages booked through the legacy
/// flat tail scan instead of the per-(node, slot) occupancy index.
/// Both knobs are bit-identical in results, so the candidate-rate
/// ratio isolates exactly this PR's communication-aware additions.
fn run_pr2(problem: &Problem, budget: Duration) -> Outcome {
    let problem = problem
        .clone()
        .with_comm_lookahead(false)
        .with_occupancy_backend(OccupancyBackend::Flat);
    optimize(&problem, Strategy::Mxr, &gate_config(budget))
        .unwrap_or_else(|e| panic!("perfgate pr2 search: {e}"))
}

/// The occupancy gate's search configuration: [`gate_config`] with
/// checkpoint resume *and* bounded early-exit off, so every candidate
/// re-places (and re-books) the whole instance from scratch. The
/// resume engine replays only a suffix of the bookings per candidate
/// and the abort bound truncates most placements before their
/// booking-heavy tail — both dilute the booking structure's share of
/// candidate cost with work identical across backends. Both knobs
/// are pure throughput knobs (bit-identical selections), so the
/// full-placement arms stay a clean ablation and measure the
/// structure at full exposure — the regime of every cold start,
/// greedy descent and portfolio prologue.
fn occ_gate_config(budget: Duration) -> SearchConfig {
    SearchConfig {
        incremental: false,
        bounded: false,
        ..gate_config(budget)
    }
}

/// The PR 3 booking structure on the occupancy gate: the from-scratch
/// engine with the occupancy backend rolled back to the round-sorted
/// index. Bit-identical trajectories with [`run_occ_bitmap`], so the
/// ratio isolates the booking structure alone.
fn run_occ_indexed(problem: &Problem, budget: Duration) -> Outcome {
    let problem = problem
        .clone()
        .with_occupancy_backend(OccupancyBackend::Indexed);
    optimize(&problem, Strategy::Mxr, &occ_gate_config(budget))
        .unwrap_or_else(|e| panic!("perfgate occ-indexed search: {e}"))
}

/// The default bit-packed bitmap backend on the occupancy gate, under
/// the same from-scratch configuration as [`run_occ_indexed`].
fn run_occ_bitmap(problem: &Problem, budget: Duration) -> Outcome {
    optimize(problem, Strategy::Mxr, &occ_gate_config(budget))
        .unwrap_or_else(|e| panic!("perfgate occ-bitmap search: {e}"))
}

/// The frozen pre-optimization reference ([`ftdes_bench::legacy`]).
fn run_baseline(problem: &Problem, budget: Duration) -> Outcome {
    let (design, schedule, stats) =
        ftdes_bench::legacy::optimize_mxr_reference(problem, &gate_config(budget))
            .unwrap_or_else(|e| panic!("perfgate baseline: {e}"));
    Outcome {
        design,
        schedule,
        stats,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    a / b.max(f64::MIN_POSITIVE)
}

/// An informational tabu-iteration ratio, `None` when the denominator
/// arm completed no iteration (a ratio against zero means nothing).
fn iter_ratio(num: usize, den: usize) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// An optional ratio to two decimals, or `none` when absent (`null`
/// in the JSON, `n/a` on the console).
fn show_ratio(r: Option<f64>, none: &str) -> String {
    r.map_or_else(|| none.to_owned(), |r| format!("{r:.2}"))
}

/// The occupancy-gate section: bit-packed bitmap vs round-sorted
/// index under full from-scratch placements.
fn section_occ() -> String {
    let budget = time_budget();
    let mut occ_indexed = ModeTotals::default();
    let mut occ_bitmap = ModeTotals::default();
    let occ_params = CommHeavyParams::stress(OCC_PROCESSES);
    println!(
        "perfgate (occupancy): {OCC_PROCESSES} processes / {NODES} nodes / k = {OCC_FAULTS}, \
         density {} / ratio {}, {OCC_SEEDS} seeds, {budget:?} per run per mode",
        occ_params.edge_density, occ_params.msg_wcet_ratio
    );
    for seed in 0..OCC_SEEDS {
        let problem =
            comm_heavy_problem_with(&occ_params, NODES, OCC_FAULTS, Time::from_ms(5), seed);
        let indexed = run_occ_indexed(&problem, budget);
        let bitmap = run_occ_bitmap(&problem, budget);
        println!(
            "  seed {seed}: indexed {} iters / {} evals (+{} hits, {} pruned) | \
             bitmap {} iters / {} evals (+{} hits, {} pruned)",
            indexed.stats.tabu_iterations,
            indexed.stats.evaluations,
            indexed.stats.cache_hits,
            indexed.stats.pruned,
            bitmap.stats.tabu_iterations,
            bitmap.stats.evaluations,
            bitmap.stats.cache_hits,
            bitmap.stats.pruned,
        );
        occ_indexed.add(&indexed);
        occ_bitmap.add(&bitmap);
    }
    let occ_cand_vs_indexed = ratio(
        occ_bitmap.candidates_per_sec(),
        occ_indexed.candidates_per_sec(),
    );
    let occ_iter_vs_indexed = iter_ratio(occ_bitmap.tabu_iterations, occ_indexed.tabu_iterations);
    println!(
        "occupancy (density {}), bitmap vs indexed: {}x tabu iterations, \
         {occ_cand_vs_indexed:.2}x candidate rate (floor 1.05x)",
        occ_params.edge_density,
        show_ratio(occ_iter_vs_indexed, "n/a"),
    );
    format!(
        "\"occ_workload\": {{\"family\": \"comm_heavy_stress\", \"processes\": {OCC_PROCESSES}, \
         \"edge_density\": {}, \"msg_wcet_ratio\": {}, \"nodes\": {NODES}, \
         \"k\": {OCC_FAULTS}, \"seeds\": {OCC_SEEDS}, \
         \"budget_ms\": {}}},\n  \"occ_indexed\": {},\n  \"occ\": {},\n  \
         \"occ_speedup\": {{\"tabu_iterations_vs_indexed\": {}, \
         \"occ_candidate_rate_vs_indexed\": {occ_cand_vs_indexed:.2}, \"floor\": 1.05}}",
        occ_params.edge_density,
        occ_params.msg_wcet_ratio,
        budget.as_millis(),
        occ_indexed.json(),
        occ_bitmap.json(),
        show_ratio(occ_iter_vs_indexed, "null"),
    )
}

/// The legacy paper-workload section: baseline / pr1 / pr3 /
/// incremental, plus the environment snapshot.
fn section_paper() -> String {
    let budget = time_budget();
    let mut baseline = ModeTotals::default();
    let mut pr1 = ModeTotals::default();
    let mut pr3 = ModeTotals::default();
    let mut incremental = ModeTotals::default();

    println!(
        "perfgate: {PROCESSES} processes / {NODES} nodes / k = {FAULTS}, \
         {SEEDS} seeds, {budget:?} per run per mode"
    );
    for seed in 0..SEEDS {
        let problem = synthetic_problem(PROCESSES, NODES, FAULTS, Time::from_ms(5), seed);
        let base = run_baseline(&problem, budget);
        let mid = run_pr1(&problem, budget);
        let resumed = run_pr3(&problem, budget);
        let incr = run_incremental(&problem, budget);
        println!(
            "  seed {seed}: baseline {} iters / {} evals | pr1 {} iters / {} evals (+{} hits) | \
             pr3 {} iters / {} evals (+{} hits, {} pruned) | \
             spliced {} iters / {} evals (+{} hits, {} pruned)",
            base.stats.tabu_iterations,
            base.stats.evaluations,
            mid.stats.tabu_iterations,
            mid.stats.evaluations,
            mid.stats.cache_hits,
            resumed.stats.tabu_iterations,
            resumed.stats.evaluations,
            resumed.stats.cache_hits,
            resumed.stats.pruned,
            incr.stats.tabu_iterations,
            incr.stats.evaluations,
            incr.stats.cache_hits,
            incr.stats.pruned,
        );
        baseline.add(&base);
        pr1.add(&mid);
        pr3.add(&resumed);
        incremental.add(&incr);
    }

    let iter_speedup = ratio(
        incremental.tabu_iterations as f64,
        baseline.tabu_iterations.max(1) as f64,
    );
    let cand_speedup = ratio(
        incremental.candidates_per_sec(),
        baseline.candidates_per_sec(),
    );
    let iter_vs_pr1 = iter_ratio(incremental.tabu_iterations, pr1.tabu_iterations);
    let cand_vs_pr1 = ratio(incremental.candidates_per_sec(), pr1.candidates_per_sec());
    let iter_vs_pr3 = iter_ratio(incremental.tabu_iterations, pr3.tabu_iterations);
    let cand_vs_pr3 = ratio(incremental.candidates_per_sec(), pr3.candidates_per_sec());
    // Informational only: under a wall-clock budget the modes
    // truncate the trajectory at different points (stage midpoints,
    // cutoffs), so per-seed best lengths can move either way.
    let length_ratio = ratio(
        incremental.best_length_us as f64,
        baseline.best_length_us.max(1) as f64,
    );
    println!(
        "vs legacy baseline: {iter_speedup:.2}x tabu iterations, {cand_speedup:.2}x candidate rate"
    );
    println!(
        "vs PR 1 path:       {}x tabu iterations, {cand_vs_pr1:.2}x candidate rate \
         (best-length ratio {length_ratio:.3})",
        show_ratio(iter_vs_pr1, "n/a"),
    );
    println!(
        "vs PR 3 path:       {}x tabu iterations, {cand_vs_pr3:.2}x candidate rate \
         (suffix splice on vs off; 4 nodes leave the cone no locality — informational)",
        show_ratio(iter_vs_pr3, "n/a"),
    );
    format!(
        "\"environment\": {},\n  \
         \"workload\": {{\"processes\": {PROCESSES}, \"nodes\": {NODES}, \"k\": {FAULTS}, \
         \"seeds\": {SEEDS}, \"budget_ms\": {}}},\n  \"baseline\": {},\n  \"pr1\": {},\n  \
         \"pr3\": {},\n  \
         \"incremental\": {},\n  \"speedup\": {{\"tabu_iterations\": {iter_speedup:.2}, \
         \"candidate_rate\": {cand_speedup:.2}, \"tabu_iterations_vs_pr1\": {}, \
         \"candidate_rate_vs_pr1\": {cand_vs_pr1:.2}, \
         \"tabu_iterations_vs_pr3\": {}, \
         \"candidate_rate_vs_pr3\": {cand_vs_pr3:.2}, \
         \"best_length_ratio\": {length_ratio:.3}}}",
        ftdes_bench::environment_json(),
        budget.as_millis(),
        baseline.json(),
        pr1.json(),
        pr3.json(),
        incremental.json(),
        show_ratio(iter_vs_pr1, "null"),
        show_ratio(iter_vs_pr3, "null"),
    )
}

/// The suffix-splice gate section (paper family, 12 nodes).
fn section_splice() -> String {
    let budget = time_budget();
    let mut splice_pr3 = ModeTotals::default();
    let mut splice_incr = ModeTotals::default();
    println!(
        "perfgate (splice gate): {SPLICE_PROCESSES} processes / {SPLICE_NODES} nodes / \
         k = {SPLICE_FAULTS}, {SPLICE_SEEDS} seeds, {budget:?} per run per mode"
    );
    for seed in 0..SPLICE_SEEDS {
        let problem = synthetic_problem(
            SPLICE_PROCESSES,
            SPLICE_NODES,
            SPLICE_FAULTS,
            Time::from_ms(5),
            seed,
        );
        let resumed = run_pr3(&problem, budget);
        let incr = run_incremental(&problem, budget);
        println!(
            "  seed {seed}: pr3 {} iters / {} evals (+{} hits, {} pruned) | \
             spliced {} iters / {} evals (+{} hits, {} pruned)",
            resumed.stats.tabu_iterations,
            resumed.stats.evaluations,
            resumed.stats.cache_hits,
            resumed.stats.pruned,
            incr.stats.tabu_iterations,
            incr.stats.evaluations,
            incr.stats.cache_hits,
            incr.stats.pruned,
        );
        splice_pr3.add(&resumed);
        splice_incr.add(&incr);
    }
    let splice_cand_vs_pr3 = ratio(
        splice_incr.candidates_per_sec(),
        splice_pr3.candidates_per_sec(),
    );
    let splice_iter_vs_pr3 = iter_ratio(splice_incr.tabu_iterations, splice_pr3.tabu_iterations);
    println!(
        "splice gate ({SPLICE_NODES} nodes), suffix splice vs PR 3 path: \
         {}x tabu iterations, {splice_cand_vs_pr3:.2}x candidate rate",
        show_ratio(splice_iter_vs_pr3, "n/a"),
    );
    format!(
        "\"splice_workload\": {{\"family\": \"paper\", \"processes\": {SPLICE_PROCESSES}, \
         \"nodes\": {SPLICE_NODES}, \"k\": {SPLICE_FAULTS}, \"seeds\": {SPLICE_SEEDS}, \
         \"budget_ms\": {}}},\n  \"splice_pr3\": {},\n  \"splice\": {},\n  \
         \"splice_speedup\": {{\"tabu_iterations_vs_pr3\": {}, \
         \"splice_candidate_rate_vs_pr3\": {splice_cand_vs_pr3:.2}}}",
        budget.as_millis(),
        splice_pr3.json(),
        splice_incr.json(),
        show_ratio(splice_iter_vs_pr3, "null"),
    )
}

/// The communication-heavy gate section.
fn section_comm() -> String {
    let budget = time_budget();
    let mut comm_pr2 = ModeTotals::default();
    let mut comm_incr = ModeTotals::default();
    println!(
        "perfgate (comm-heavy): {COMM_PROCESSES} processes / {NODES} nodes / k = {COMM_FAULTS}, \
         {COMM_SEEDS} seeds, {budget:?} per run per mode"
    );
    let comm_params = CommHeavyParams::dense(COMM_PROCESSES).with_density(COMM_DENSITY);
    for seed in 0..COMM_SEEDS {
        let problem =
            comm_heavy_problem_with(&comm_params, NODES, COMM_FAULTS, Time::from_ms(5), seed);
        let pr2 = run_pr2(&problem, budget);
        let incr = run_incremental(&problem, budget);
        println!(
            "  seed {seed}: pr2 {} iters / {} evals (+{} hits, {} pruned) | \
             comm-bound {} iters / {} evals (+{} hits, {} pruned)",
            pr2.stats.tabu_iterations,
            pr2.stats.evaluations,
            pr2.stats.cache_hits,
            pr2.stats.pruned,
            incr.stats.tabu_iterations,
            incr.stats.evaluations,
            incr.stats.cache_hits,
            incr.stats.pruned,
        );
        comm_pr2.add(&pr2);
        comm_incr.add(&incr);
    }
    let comm_cand_vs_pr2 = ratio(
        comm_incr.candidates_per_sec(),
        comm_pr2.candidates_per_sec(),
    );
    let comm_iter_vs_pr2 = iter_ratio(comm_incr.tabu_iterations, comm_pr2.tabu_iterations);
    println!(
        "comm-heavy, bus-wait bound vs PR 2 path: {}x tabu iterations, \
         {comm_cand_vs_pr2:.2}x candidate rate",
        show_ratio(comm_iter_vs_pr2, "n/a"),
    );
    format!(
        "\"comm_workload\": {{\"family\": \"comm_heavy\", \"processes\": {COMM_PROCESSES}, \
         \"edge_density\": {COMM_DENSITY}, \"msg_wcet_ratio\": {}, \"nodes\": {NODES}, \
         \"k\": {COMM_FAULTS}, \"seeds\": {COMM_SEEDS}, \
         \"budget_ms\": {}}},\n  \"comm_pr2\": {},\n  \"comm\": {},\n  \
         \"comm_speedup\": {{\"tabu_iterations_vs_pr2\": {}, \
         \"comm_candidate_rate_vs_pr2\": {comm_cand_vs_pr2:.2}}}",
        comm_params.msg_wcet_ratio,
        budget.as_millis(),
        comm_pr2.json(),
        comm_incr.json(),
        show_ratio(comm_iter_vs_pr2, "null"),
    )
}

/// The multi-core portfolio sweep: fixed work per worker, wall-clock
/// measured. `threads: 1` pins every worker's own evaluation to one
/// thread so the sweep isolates seed-level (portfolio) parallelism
/// from window parallelism.
fn section_multicore() -> String {
    println!(
        "perfgate (multicore): {PROCESSES} processes / {NODES} nodes / k = {FAULTS}, \
         {MULTICORE_SEEDS} seeds, {MULTICORE_ITERATIONS} iterations per worker, \
         workers {MULTICORE_WORKERS:?}"
    );
    let mut mc_elapsed_ms: Vec<u128> = Vec::new();
    let mut mc_candidates: Vec<usize> = Vec::new();
    let mut mc_rates: Vec<f64> = Vec::new();
    for &workers in &MULTICORE_WORKERS {
        let mut candidates = 0usize;
        let mut elapsed = Duration::ZERO;
        for seed in 0..MULTICORE_SEEDS {
            let problem = synthetic_problem(PROCESSES, NODES, FAULTS, Time::from_ms(5), seed);
            let cfg = SearchConfig {
                goal: Goal::MinimizeLength,
                time_limit: None,
                max_tabu_iterations: MULTICORE_ITERATIONS,
                threads: 1,
                ..SearchConfig::default()
            };
            let pcfg = PortfolioConfig {
                workers,
                epoch_candidates: 2_048,
                ..PortfolioConfig::default()
            };
            let out = optimize_portfolio(&problem, PolicySpace::Mixed, &cfg, &pcfg)
                .unwrap_or_else(|e| panic!("perfgate multicore portfolio: {e}"));
            candidates += out.outcome.stats.candidates();
            elapsed += out.outcome.stats.elapsed;
        }
        let rate = candidates as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        println!(
            "  {workers} workers: {candidates} candidates in {} ms -> {rate:.1}/s aggregate",
            elapsed.as_millis()
        );
        mc_elapsed_ms.push(elapsed.as_millis());
        mc_candidates.push(candidates);
        mc_rates.push(rate);
    }
    let mc_scaling_2w = ratio(mc_rates[1], mc_rates[0]);
    let mc_scaling_4w = ratio(mc_rates[2], mc_rates[0]);
    let cores = effective_threads(0);
    let mc_per_core: Vec<String> = MULTICORE_WORKERS
        .iter()
        .zip(&mc_rates)
        .map(|(&w, &r)| format!("{:.1}", r / w.min(cores).max(1) as f64))
        .collect();
    println!(
        "multicore portfolio ({cores} cores): {mc_scaling_2w:.2}x aggregate candidate rate at \
         2 workers, {mc_scaling_4w:.2}x at 4 workers \
         (floor {MULTICORE_FLOOR_4W}x at 4 workers, non-gating)"
    );
    format!(
        "\"multicore\": {{\"available_parallelism\": {cores}, \
         \"iterations_per_worker\": {MULTICORE_ITERATIONS}, \
         \"seeds\": {MULTICORE_SEEDS}, \"workers\": {MULTICORE_WORKERS:?}, \
         \"elapsed_ms\": {mc_elapsed_ms:?}, \"candidates\": {mc_candidates:?}, \
         \"aggregate_candidate_rate\": [{}], \"per_core_candidate_rate\": [{}], \
         \"scaling_efficiency_2w\": {mc_scaling_2w:.2}, \
         \"scaling_efficiency_4w\": {mc_scaling_4w:.2}, \
         \"floor_4w\": {MULTICORE_FLOOR_4W}, \"gating\": false}}",
        mc_rates
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(", "),
        mc_per_core.join(", "),
    )
}

fn run_section(name: &str) -> Option<String> {
    Some(match name {
        "occ" => section_occ(),
        "paper" => section_paper(),
        "splice" => section_splice(),
        "comm" => section_comm(),
        "multicore" => section_multicore(),
        _ => return None,
    })
}

/// Runs every section inside this process (the pre-subprocess
/// behaviour) — the fallback when the binary cannot re-spawn itself,
/// and the explicit `FTDES_PERFGATE_SECTION=all` escape hatch.
fn run_all_in_process() -> Vec<(String, String)> {
    SECTIONS
        .iter()
        .map(|&s| {
            (
                s.to_string(),
                run_section(s).expect("every listed section resolves"),
            )
        })
        .collect()
}

/// Spawns one child per section (fresh heap each — see the module
/// docs), falling back to in-process execution if spawning fails.
fn run_all_sections() -> Vec<(String, String)> {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfgate: cannot locate own binary ({e}); running sections in-process");
            return run_all_in_process();
        }
    };
    let mut fragments = Vec::new();
    for &section in &SECTIONS {
        let out_path = std::env::temp_dir().join(format!("perfgate_{section}.json"));
        let status = std::process::Command::new(&exe)
            .env("FTDES_PERFGATE_SECTION", section)
            .env("FTDES_PERFGATE_OUT", &out_path)
            .status();
        let ok = matches!(&status, Ok(s) if s.success());
        if !ok {
            match status {
                Ok(s) => panic!("perfgate: section '{section}' failed ({s})"),
                Err(e) => {
                    eprintln!(
                        "perfgate: cannot spawn section '{section}' ({e}); \
                         running all sections in-process"
                    );
                    return run_all_in_process();
                }
            }
        }
        let fragment = std::fs::read_to_string(&out_path)
            .unwrap_or_else(|e| panic!("perfgate: section '{section}' left no output: {e}"));
        let _ = std::fs::remove_file(&out_path);
        fragments.push((section.to_string(), fragment));
    }
    fragments
}

fn main() -> std::process::ExitCode {
    // Child mode: run one section, write its JSON fragment where the
    // parent asked, exit.
    if let Ok(section) = std::env::var("FTDES_PERFGATE_SECTION") {
        if section != "all" {
            // The parent-to-child plumbing is not a measurement
            // setting: keep it out of the recorded environment.
            let out = std::env::var("FTDES_PERFGATE_OUT");
            std::env::remove_var("FTDES_PERFGATE_SECTION");
            std::env::remove_var("FTDES_PERFGATE_OUT");
            let Some(fragment) = run_section(&section) else {
                eprintln!("perfgate: unknown section '{section}' (valid: {SECTIONS:?}, all)");
                return std::process::ExitCode::FAILURE;
            };
            if let Ok(out) = out {
                if let Err(e) = std::fs::write(&out, &fragment) {
                    eprintln!("perfgate: cannot write section output {out}: {e}");
                    return std::process::ExitCode::FAILURE;
                }
            } else {
                println!("{fragment}");
            }
            return std::process::ExitCode::SUCCESS;
        }
    }

    let fragments = if std::env::var("FTDES_PERFGATE_SECTION").as_deref() == Ok("all") {
        run_all_in_process()
    } else {
        run_all_sections()
    };

    let ordered: Vec<&str> = ASSEMBLY
        .iter()
        .map(|&key| {
            fragments
                .iter()
                .find(|(s, _)| s == key)
                .map(|(_, f)| f.as_str())
                .unwrap_or_else(|| panic!("perfgate: section '{key}' produced no fragment"))
        })
        .collect();
    let json = format!("{{\n  {}\n}}\n", ordered.join(",\n  "));
    if let Err(e) = std::fs::write("BENCH_tabu.json", &json) {
        eprintln!("perfgate: cannot write BENCH_tabu.json: {e}");
        return std::process::ExitCode::FAILURE;
    }
    println!("\n{json}");
    std::process::ExitCode::SUCCESS
}
