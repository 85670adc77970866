//! Occupancy-backend ablation: flat vs indexed vs bitmap candidate
//! rates on the high-density communication family.
//!
//! The search engine books every bus message into a per-(node, slot)
//! occupancy table; three interchangeable backends implement the
//! booking scan (see `ftdes_sched::occupancy`):
//!
//! 1. **flat** — the legacy whole-table tail scan (quadratic on
//!    congested buses),
//! 2. **indexed** — the PR 3 round-sorted vector (binary-searched
//!    insertion, linear probe over saturated rounds),
//! 3. **bitmap** — the bit-packed saturation bitmap (dense per-round
//!    byte counts + one saturation bit per round; booking skips
//!    fully-saturated words 64 rounds at a time and walks partial
//!    words with a branch-light threshold scan).
//!
//! All three book bit-identically (debug builds replay every booking
//! against the flat scan as an oracle), so the backend is a pure
//! throughput knob and the candidate-rate ratios below are clean
//! ablations. The workload is [`CommHeavyParams::stress`] — twenty-four
//! edges per process at a message/WCET cost ratio of 3, the regime
//! where whole runs of TDMA rounds saturate and the booking scan
//! dominates per-candidate cost. Like perfgate's occupancy gate, all
//! backends run full from-scratch placements (checkpoint resume and
//! bounded early-exit off), so every candidate exercises the full
//! booking table instead of a replayed suffix or a bound-truncated
//! placement.
//!
//! Results go to `BENCH_occ.json`:
//!
//! ```json
//! {
//!   "environment": {...},
//!   "workload": {...},
//!   "flat": {...}, "indexed": {...}, "bitmap": {...},
//!   "ratios": {
//!     "bitmap_vs_indexed": r, "bitmap_vs_flat": r, "indexed_vs_flat": r
//!   }
//! }
//! ```
//!
//! The CI floor on bitmap-vs-indexed (1.05×) is enforced through
//! perfgate's `occ_speedup` section (same workload family, same
//! modes); this binary exists for the full three-way ablation and is
//! informational. `FTDES_TIME_MS` / `FTDES_SEEDS` resize the run.

use std::time::Duration;

use ftdes_bench::{comm_heavy_problem_with, time_budget};
use ftdes_core::{optimize, Goal, OccupancyBackend, Outcome, Problem, SearchConfig, Strategy};
use ftdes_gen::CommHeavyParams;
use ftdes_model::time::Time;

/// Matches perfgate's occupancy gate (`OCC_*` consts there): the
/// stress preset at 48 processes with k = 2 keeps a budgeted run
/// evaluation-bound while piling replicated messages onto a
/// saturated bus.
const PROCESSES: usize = 48;
const NODES: usize = 4;
const FAULTS: u32 = 2;

fn seeds() -> u64 {
    std::env::var("FTDES_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(3)
}

#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    tabu_iterations: usize,
    evaluations: usize,
    cache_hits: usize,
    pruned: usize,
    elapsed: Duration,
    best_length_us: u64,
}

impl Totals {
    fn add(&mut self, outcome: &Outcome) {
        self.tabu_iterations += outcome.stats.tabu_iterations;
        self.evaluations += outcome.stats.evaluations;
        self.cache_hits += outcome.stats.cache_hits;
        self.pruned += outcome.stats.pruned;
        self.elapsed += outcome.stats.elapsed;
        self.best_length_us += outcome.length().as_us();
    }

    /// Candidates scored per second (evaluations + cache hits +
    /// bounded-pruned) — the rate the search consumes its
    /// neighbourhood at; the quantity the backends compete on.
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
             \"pruned\": {}, \"elapsed_ms\": {}, \"candidates_per_sec\": {:.1}, \
             \"best_length_us\": {}}}",
            self.tabu_iterations,
            self.evaluations,
            self.cache_hits,
            self.pruned,
            self.elapsed.as_millis(),
            self.candidates_per_sec(),
            self.best_length_us
        )
    }
}

fn run_backend(problem: &Problem, backend: OccupancyBackend, budget: Duration) -> Outcome {
    let problem = problem.clone().with_occupancy_backend(backend);
    let cfg = SearchConfig {
        goal: Goal::MinimizeLength,
        time_limit: Some(budget),
        max_tabu_iterations: usize::MAX,
        // Full from-scratch placements (no checkpoint resume, no
        // bounded early-exit), matching perfgate's occupancy gate:
        // the cold-start / greedy / portfolio-prologue regime, where
        // the booking table dominates per-candidate cost instead of
        // being diluted behind a replayed suffix or a bound-truncated
        // placement.
        incremental: false,
        bounded: false,
        ..SearchConfig::default()
    };
    optimize(&problem, Strategy::Mxr, &cfg)
        .unwrap_or_else(|e| panic!("occbench {backend} search: {e}"))
}

fn ratio(a: f64, b: f64) -> f64 {
    a / b.max(f64::MIN_POSITIVE)
}

fn main() -> std::process::ExitCode {
    let budget = time_budget();
    let seeds = seeds();
    let params = CommHeavyParams::stress(PROCESSES);
    const BACKENDS: [OccupancyBackend; 3] = [
        OccupancyBackend::Flat,
        OccupancyBackend::Indexed,
        OccupancyBackend::Bitmap,
    ];
    println!(
        "occbench: {PROCESSES} processes / {NODES} nodes / k = {FAULTS}, density {} / \
         ratio {}, {seeds} seeds, {budget:?} per run per backend",
        params.edge_density, params.msg_wcet_ratio
    );

    let mut totals = [Totals::default(); 3];
    for seed in 0..seeds {
        let problem = comm_heavy_problem_with(&params, NODES, FAULTS, Time::from_ms(5), seed);
        let mut lengths = [0u64; 3];
        for (i, &backend) in BACKENDS.iter().enumerate() {
            let out = run_backend(&problem, backend, budget);
            println!(
                "  seed {seed} {backend:>7}: {} iters / {} evals (+{} hits, {} pruned), \
                 best {} us",
                out.stats.tabu_iterations,
                out.stats.evaluations,
                out.stats.cache_hits,
                out.stats.pruned,
                out.length().as_us()
            );
            lengths[i] = out.length().as_us();
            totals[i].add(&out);
        }
        // Under a wall-clock budget the backends truncate the shared
        // trajectory at different points, so best lengths may differ —
        // but a faster backend reaching a *worse* design than flat at
        // the same budget would smell like a soundness bug worth a
        // look, so surface any divergence.
        if lengths[1] != lengths[0] || lengths[2] != lengths[0] {
            println!(
                "  seed {seed}: best lengths diverge (flat {} / indexed {} / bitmap {}) — \
                 budget cutoffs landed at different trajectory points",
                lengths[0], lengths[1], lengths[2]
            );
        }
    }

    let [flat, indexed, bitmap] = totals;
    let bitmap_vs_indexed = ratio(bitmap.candidates_per_sec(), indexed.candidates_per_sec());
    let bitmap_vs_flat = ratio(bitmap.candidates_per_sec(), flat.candidates_per_sec());
    let indexed_vs_flat = ratio(indexed.candidates_per_sec(), flat.candidates_per_sec());
    let json = format!(
        "{{\n  \"environment\": {},\n  \
         \"workload\": {{\"family\": \"comm_heavy_stress\", \"processes\": {PROCESSES}, \
         \"edge_density\": {}, \"msg_wcet_ratio\": {}, \"nodes\": {NODES}, \"k\": {FAULTS}, \
         \"seeds\": {seeds}, \"budget_ms\": {}}},\n  \
         \"flat\": {},\n  \"indexed\": {},\n  \"bitmap\": {},\n  \
         \"ratios\": {{\"bitmap_vs_indexed\": {bitmap_vs_indexed:.2}, \
         \"bitmap_vs_flat\": {bitmap_vs_flat:.2}, \
         \"indexed_vs_flat\": {indexed_vs_flat:.2}}}\n}}\n",
        ftdes_bench::environment_json(),
        params.edge_density,
        params.msg_wcet_ratio,
        budget.as_millis(),
        flat.json(),
        indexed.json(),
        bitmap.json(),
    );
    if let Err(e) = std::fs::write("BENCH_occ.json", &json) {
        eprintln!("occbench: cannot write BENCH_occ.json: {e}");
        return std::process::ExitCode::FAILURE;
    }
    println!("\n{json}");
    println!(
        "bitmap vs indexed: {bitmap_vs_indexed:.2}x candidate rate | bitmap vs flat: \
         {bitmap_vs_flat:.2}x | indexed vs flat: {indexed_vs_flat:.2}x"
    );
    std::process::ExitCode::SUCCESS
}
