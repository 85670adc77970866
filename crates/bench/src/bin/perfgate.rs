//! The performance gate: how much faster the current engine walks a
//! fixed search trajectory than the predecessors it replaced.
//!
//! # Method
//!
//! The paper scores designs by "the shortest schedule within an
//! imposed time limit", so engine speed matters only as the time to
//! walk a given trajectory. Every gate therefore compares the current
//! default engine (the **default arm**) with a slower predecessor (the
//! **denominator arm**) on the *same* trajectory:
//!
//! * each section builds its seeds' problems once, and every arm
//!   replays [`ftdes_bench::iteration_config`] at a fixed tabu
//!   iteration count with `threads: 1` — no wall-clock cutoff, and no
//!   thread scheduling in the timed path (at two threads the
//!   ratios swing with the host's scheduler, not the engine);
//! * a section replays all its arms [`REPEATS`] times, forward on even
//!   repeats and reversed on odd ones, so no arm always runs first.
//!   Within a repeat the arms take turns seed by seed, and each gated
//!   arm sits next to the default arm in that order: time on a shared
//!   VM drifts by tens of percent over seconds, so the two runs a ratio
//!   pairs must lie close together;
//! * a gate is the per-repeat ratio `time(denominator) / time(default)`,
//!   reported as its median with the quartiles. CI enforces a floor on
//!   the median.
//!
//! | section | workload | trajectory per arm | denominator arm | floor |
//! |---|---|---|---|---|
//! | `paper` | paper family, 40 processes / 4 nodes / k = 3 | 300 iterations × 3 seeds | `legacy`: the frozen pre-optimization reference ([`ftdes_bench::legacy`]) | 2.0× |
//! | `paper` | same | same | `pr1`: from-scratch memoized placement (`incremental: false, bounded: false`) | 1.25× |
//! | `paper` | same | same | `pr3`: suffix splicing off (`with_suffix_splice(false)`) | none |
//! | `splice` | paper family, 96 processes / 12 nodes / k = 3 | 40 iterations × 3 seeds | `pr3` | 1.2× |
//! | `comm` | comm-heavy, 50 processes / density 5 / k = 2 | 100 iterations × 3 seeds | `pr2`: flat occupancy scan, no bus-wait bound | 1.15× |
//! | `occ` | comm-heavy stress, 48 processes / density 24 / ratio 3 / k = 2 | greedy only × 2 seeds, from-scratch placements | `indexed`: the round-sorted occupancy index | 1.05× |
//!
//! * **Splice.** A move's certified affected cone covers the moved
//!   process's replica nodes plus everything node-chained behind them.
//!   On the 4-node paper machine a k = 3 move dirties most of it, so
//!   the `paper` section's `pr3` ratio is informational; at 12 nodes
//!   the cone leaves most of the machine untouched.
//! * **Comm.** The paper family makes communication almost free, so a
//!   denser family ([`ftdes_bench::comm_heavy_problem_with`]: five
//!   edges per process, a bus where an average transfer costs half an
//!   average WCET) carries the communication-aware engine's gate: the
//!   `pr2` arm books through the flat tail scan
//!   (`OccupancyBackend::Flat`) with the certified bus-wait lower bound
//!   off (`with_comm_lookahead(false)`).
//! * **Occupancy.** [`CommHeavyParams::stress`] piles thousands of
//!   replicated messages onto contended TDMA rounds. Both arms place
//!   every candidate from scratch (`incremental: false,
//!   bounded: false`, the cold-start / greedy / portfolio-prologue
//!   regime) and run the greedy descent only, so every candidate books
//!   the whole table; they differ only in the booking backend (default
//!   bit-packed bitmap vs round-sorted index). The 1.05× floor sits
//!   below the ~1.07× structural advantage a layout-neutralized A/B
//!   (`-C llvm-args=-align-all-functions=6`) measured; larger
//!   historical readings were function-placement luck.
//!
//! # Trajectory invariance
//!
//! Every arm differs from the default only in throughput knobs, so on
//! a fixed trajectory it must return the default arm's per-seed δ —
//! the legacy reference included — and every repeat of an arm must
//! return the δ and the candidate count of its first repeat. A
//! mismatch names the seed and arm and fails the run. The candidate
//! count of each arm is recorded as a deterministic work figure but
//! not compared across arms: the tabu resolution pass re-scores pruned
//! candidates whose lower bound ties the winner, so how many
//! candidates an arm scores depends on how tight its bound is.
//!
//! # The multi-core section
//!
//! `multicore` runs the portfolio engine ([`ftdes_core::portfolio`])
//! at 1 / 2 / 4 workers over the `paper` workload with a fixed
//! iteration count per worker and single-threaded per-worker
//! evaluation, and records the aggregate candidate rate and the
//! scaling efficiency `rate(w) / rate(1)`. Its 1.3× floor at 4 workers
//! is **non-gating**: a 1-CPU host measures ≈ 1.0× by construction, so
//! `available_parallelism` is recorded alongside.
//!
//! # One subprocess per section
//!
//! Every section runs in its **own child process**: the binary
//! re-invokes itself with `FTDES_PERFGATE_SECTION=<name>` and
//! `FTDES_PERFGATE_OUT=<file>` and collects the per-section JSON
//! fragments. The from-scratch arms of the occupancy gate — and, to a
//! lesser degree, every other ratio — are sensitive to allocator
//! state, so letting one section churn the heap before another bends
//! the next section's ratio (historically ~0.10 absolute on the
//! occupancy gate). If the binary cannot re-spawn itself the run
//! fails.
//!
//! # Output
//!
//! `BENCH_tabu.json` holds the `environment`, the `method` (repeats,
//! threads) and one object per section:
//!
//! ```json
//! "paper": {
//!   "workload": {...},
//!   "arms": {"default": {"elapsed_ms": [per repeat], "candidates": N, "lengths_us": [per seed]}, ...},
//!   "ratios": {"legacy": {"per_repeat": [...], "q1": x, "median": x, "q3": x, "floor": 2.0}, ...}
//! }
//! ```

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use ftdes_bench::{comm_heavy_problem_with, environment_json, iteration_config, synthetic_problem};
use ftdes_core::{
    effective_threads, optimize, optimize_portfolio, OccupancyBackend, Outcome, PolicySpace,
    PortfolioConfig, Problem, SearchConfig, Strategy,
};
use ftdes_gen::CommHeavyParams;
use ftdes_model::time::Time;

/// Replays of every arm per section.
const REPEATS: usize = 7;

/// Evaluation threads of every arm.
const THREADS: usize = 1;

/// Fault duration µ of every workload.
const MU: Time = Time::from_ms(5);

/// The paper gate workload (also the `multicore` workload).
const PROCESSES: usize = 40;
const NODES: usize = 4;
const FAULTS: u32 = 3;
const SEEDS: u64 = 3;
const ITERATIONS: usize = 300;

/// The suffix-splice gate workload: the paper family on a machine wide
/// enough that a move's cone leaves most nodes untouched.
const SPLICE_PROCESSES: usize = 96;
const SPLICE_NODES: usize = 12;
const SPLICE_ITERATIONS: usize = 40;

/// The communication-heavy gate workload: five edges per process
/// (several hundred bus messages per evaluation), k = 2 so the fault
/// dimension doesn't drown the bus dimension.
const COMM_PROCESSES: usize = 50;
const COMM_EDGE_DENSITY: f64 = 5.0;
const COMM_FAULTS: u32 = 2;
const COMM_ITERATIONS: usize = 100;

/// The occupancy gate workload ([`CommHeavyParams::stress`]), greedy
/// descent only.
const OCC_PROCESSES: usize = 48;
const OCC_FAULTS: u32 = 2;
const OCC_SEEDS: u64 = 2;

/// The non-gating multi-core portfolio sweep.
const MULTICORE_WORKERS: [usize; 3] = [1, 2, 4];
const MULTICORE_ITERATIONS: usize = 120;
const MULTICORE_SEEDS: u64 = 2;
const MULTICORE_FLOOR_4W: f64 = 1.3;

/// The sections, in execution and output order; each runs in its own
/// child process.
const SECTIONS: [&str; 5] = ["paper", "splice", "comm", "occ", "multicore"];

/// The fixed-trajectory configuration every gate arm starts from.
fn replay_config(iterations: usize) -> SearchConfig {
    SearchConfig {
        threads: THREADS,
        ..iteration_config(iterations)
    }
}

/// One seed's result in one replay of an arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SeedResult {
    length_us: u64,
    candidates: usize,
}

/// One replay of an arm over all of its section's seeds.
#[derive(Debug, Clone)]
struct Sample {
    elapsed: Duration,
    seeds: Vec<SeedResult>,
}

/// One engine configuration a section times: a search configuration
/// and one problem per seed, both derived once from the section's
/// workload, or the frozen legacy reference.
struct Arm {
    name: &'static str,
    problems: Vec<Problem>,
    cfg: SearchConfig,
    legacy: bool,
    /// The floor on `time(this arm) / time(default arm)`; `None` for
    /// the default arm and for informational ratios.
    floor: Option<f64>,
}

impl Arm {
    fn new(name: &'static str, problems: Vec<Problem>, cfg: SearchConfig) -> Self {
        Arm {
            name,
            problems,
            cfg,
            legacy: false,
            floor: None,
        }
    }

    fn gated(self, floor: f64) -> Self {
        Arm {
            floor: Some(floor),
            ..self
        }
    }

    /// Solves the problem of one seed, timed.
    fn run(&self, seed: usize) -> Result<(Duration, SeedResult), String> {
        let problem = &self.problems[seed];
        let started = Instant::now();
        let outcome = if self.legacy {
            ftdes_bench::legacy::optimize_mxr_reference(problem, &self.cfg).map(
                |(design, schedule, stats)| Outcome {
                    design,
                    schedule,
                    stats,
                },
            )
        } else {
            optimize(problem, Strategy::Mxr, &self.cfg)
        }
        .map_err(|e| format!("seed {seed}, arm '{}': {e}", self.name))?;
        let elapsed = started.elapsed();
        Ok((
            elapsed,
            SeedResult {
                length_us: outcome.length().as_us(),
                candidates: outcome.stats.candidates(),
            },
        ))
    }
}

/// A gated section: its workload as a JSON object, its seed count and
/// its arms, the default arm first and each gated arm next to it in
/// the replay order.
struct Section {
    workload: String,
    seeds: usize,
    arms: Vec<Arm>,
}

/// Derives one problem per seed from `problems`.
fn derive(problems: &[Problem], f: impl Fn(Problem) -> Problem) -> Vec<Problem> {
    problems.iter().cloned().map(f).collect()
}

fn paper_section() -> Section {
    let problems: Vec<Problem> = (0..SEEDS)
        .map(|seed| synthetic_problem(PROCESSES, NODES, FAULTS, MU, seed))
        .collect();
    let cfg = replay_config(ITERATIONS);
    let pr1 = SearchConfig {
        incremental: false,
        bounded: false,
        ..cfg.clone()
    };
    Section {
        workload: format!(
            "{{\"family\": \"paper\", \"processes\": {PROCESSES}, \"nodes\": {NODES}, \
             \"k\": {FAULTS}, \"seeds\": {SEEDS}, \"iterations\": {ITERATIONS}}}"
        ),
        seeds: problems.len(),
        arms: vec![
            Arm::new("default", problems.clone(), cfg.clone()),
            Arm::new("pr1", problems.clone(), pr1).gated(1.25),
            Arm::new(
                "pr3",
                derive(&problems, |p| p.with_suffix_splice(false)),
                cfg.clone(),
            ),
            Arm {
                legacy: true,
                ..Arm::new("legacy", problems, cfg).gated(2.0)
            },
        ],
    }
}

fn splice_section() -> Section {
    let problems: Vec<Problem> = (0..SEEDS)
        .map(|seed| synthetic_problem(SPLICE_PROCESSES, SPLICE_NODES, FAULTS, MU, seed))
        .collect();
    let cfg = replay_config(SPLICE_ITERATIONS);
    Section {
        workload: format!(
            "{{\"family\": \"paper\", \"processes\": {SPLICE_PROCESSES}, \
             \"nodes\": {SPLICE_NODES}, \"k\": {FAULTS}, \"seeds\": {SEEDS}, \
             \"iterations\": {SPLICE_ITERATIONS}}}"
        ),
        seeds: problems.len(),
        arms: vec![
            Arm::new("default", problems.clone(), cfg.clone()),
            Arm::new(
                "pr3",
                derive(&problems, |p| p.with_suffix_splice(false)),
                cfg,
            )
            .gated(1.2),
        ],
    }
}

fn comm_section() -> Section {
    let params = CommHeavyParams::dense(COMM_PROCESSES).with_density(COMM_EDGE_DENSITY);
    let problems: Vec<Problem> = (0..SEEDS)
        .map(|seed| comm_heavy_problem_with(&params, NODES, COMM_FAULTS, MU, seed))
        .collect();
    let cfg = replay_config(COMM_ITERATIONS);
    let pr2 = derive(&problems, |p| {
        p.with_comm_lookahead(false)
            .with_occupancy_backend(OccupancyBackend::Flat)
    });
    Section {
        workload: format!(
            "{{\"family\": \"comm_heavy\", \"processes\": {COMM_PROCESSES}, \
             \"edge_density\": {COMM_EDGE_DENSITY}, \"msg_wcet_ratio\": {}, \
             \"nodes\": {NODES}, \"k\": {COMM_FAULTS}, \"seeds\": {SEEDS}, \
             \"iterations\": {COMM_ITERATIONS}}}",
            params.msg_wcet_ratio
        ),
        seeds: problems.len(),
        arms: vec![
            Arm::new("default", problems, cfg.clone()),
            Arm::new("pr2", pr2, cfg).gated(1.15),
        ],
    }
}

fn occ_section() -> Section {
    let params = CommHeavyParams::stress(OCC_PROCESSES);
    let problems: Vec<Problem> = (0..OCC_SEEDS)
        .map(|seed| comm_heavy_problem_with(&params, NODES, OCC_FAULTS, MU, seed))
        .collect();
    let cfg = SearchConfig {
        incremental: false,
        bounded: false,
        ..replay_config(0)
    };
    let indexed = derive(&problems, |p| {
        p.with_occupancy_backend(OccupancyBackend::Indexed)
    });
    Section {
        workload: format!(
            "{{\"family\": \"comm_heavy_stress\", \"processes\": {OCC_PROCESSES}, \
             \"edge_density\": {}, \"msg_wcet_ratio\": {}, \"nodes\": {NODES}, \
             \"k\": {OCC_FAULTS}, \"seeds\": {OCC_SEEDS}, \"iterations\": 0, \
             \"from_scratch\": true}}",
            params.edge_density, params.msg_wcet_ratio
        ),
        seeds: problems.len(),
        arms: vec![
            Arm::new("default", problems, cfg.clone()),
            Arm::new("indexed", indexed, cfg).gated(1.05),
        ],
    }
}

/// Runs `run(arm, seed)` for every arm and seed, `repeats` times, and
/// returns the results indexed `[arm][repeat][seed]`. Within a repeat
/// the arms take turns seed by seed — in arm order on even repeats and
/// in reverse on odd ones — so the runs a ratio pairs lie seconds
/// apart, not a whole section.
fn replay<S>(
    arms: usize,
    repeats: usize,
    seeds: usize,
    mut run: impl FnMut(usize, usize) -> Result<S, String>,
) -> Result<Vec<Vec<Vec<S>>>, String> {
    let mut samples: Vec<Vec<Vec<S>>> = (0..arms).map(|_| Vec::with_capacity(repeats)).collect();
    for repeat in 0..repeats {
        let mut this_repeat: Vec<Vec<S>> = (0..arms).map(|_| Vec::with_capacity(seeds)).collect();
        for seed in 0..seeds {
            for i in 0..arms {
                let arm = if repeat % 2 == 0 { i } else { arms - 1 - i };
                this_repeat[arm].push(run(arm, seed)?);
            }
        }
        for (runs, results) in samples.iter_mut().zip(this_repeat) {
            runs.push(results);
        }
    }
    Ok(samples)
}

/// Checks that every arm reached the default arm's per-seed δ and
/// that every repeat of an arm reproduced its first repeat's δ and
/// candidate count. `samples` is indexed `[arm][repeat]`, the default
/// arm first.
fn check_invariance(names: &[&str], samples: &[Vec<Sample>]) -> Result<(), String> {
    let reference = &samples[0][0].seeds;
    for (name, runs) in names.iter().zip(samples) {
        let first = &runs[0].seeds;
        for (seed, (got, want)) in first.iter().zip(reference).enumerate() {
            if got.length_us != want.length_us {
                return Err(format!(
                    "seed {seed}, arm '{name}': δ = {} µs, the default arm reached {} µs",
                    got.length_us, want.length_us
                ));
            }
        }
        for (repeat, run) in runs.iter().enumerate().skip(1) {
            for (seed, (got, want)) in run.seeds.iter().zip(first).enumerate() {
                if got != want {
                    return Err(format!(
                        "seed {seed}, arm '{name}', repeat {repeat}: δ = {} µs over {} \
                         candidates, its first repeat {} µs over {}",
                        got.length_us, got.candidates, want.length_us, want.candidates
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The first quartile, median and third quartile of a non-empty
/// sample, interpolating linearly between order statistics.
fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// Per-repeat ratios `den[r] / num[r]`.
fn time_ratios(den: &[Duration], num: &[Duration]) -> Vec<f64> {
    den.iter()
        .zip(num)
        .map(|(d, n)| d.as_secs_f64() / n.as_secs_f64().max(f64::MIN_POSITIVE))
        .collect()
}

fn join(values: impl IntoIterator<Item = String>) -> String {
    values.into_iter().collect::<Vec<_>>().join(", ")
}

/// Replays a gated section and returns its JSON object.
fn measure(name: &str, section: &Section) -> Result<String, String> {
    let names: Vec<&str> = section.arms.iter().map(|a| a.name).collect();
    println!(
        "perfgate ({name}): {}, arms {names:?}, {REPEATS} repeats, {THREADS} thread",
        section.workload
    );
    let samples: Vec<Vec<Sample>> =
        replay(section.arms.len(), REPEATS, section.seeds, |arm, seed| {
            section.arms[arm].run(seed)
        })?
        .into_iter()
        .map(|repeats| {
            repeats
                .into_iter()
                .map(|runs| Sample {
                    elapsed: runs.iter().map(|(elapsed, _)| *elapsed).sum(),
                    seeds: runs.into_iter().map(|(_, result)| result).collect(),
                })
                .collect()
        })
        .collect();
    check_invariance(&names, &samples)?;

    let elapsed: Vec<Vec<Duration>> = samples
        .iter()
        .map(|runs| runs.iter().map(|s| s.elapsed).collect())
        .collect();
    let mut arms = Vec::new();
    for (arm, runs) in section.arms.iter().zip(&samples) {
        let candidates: usize = runs[0].seeds.iter().map(|s| s.candidates).sum();
        let ms: Vec<f64> = runs.iter().map(|s| s.elapsed.as_secs_f64() * 1e3).collect();
        println!(
            "  {:>8}: {candidates} candidates, median {:.1} ms",
            arm.name,
            quartiles(&ms)[1]
        );
        arms.push(format!(
            "\"{}\": {{\"elapsed_ms\": [{}], \"candidates\": {candidates}, \"lengths_us\": [{}]}}",
            arm.name,
            join(ms.iter().map(|m| format!("{m:.1}"))),
            join(runs[0].seeds.iter().map(|s| s.length_us.to_string())),
        ));
    }
    let mut ratios = Vec::new();
    for (arm, den) in section.arms.iter().zip(&elapsed).skip(1) {
        let per_repeat = time_ratios(den, &elapsed[0]);
        let [q1, median, q3] = quartiles(&per_repeat);
        let shown: Vec<String> = per_repeat.iter().map(|r| format!("{r:.2}")).collect();
        let floor = arm.floor.map_or("none".to_owned(), |f| format!("{f:.2}x"));
        println!(
            "  default vs {}: median {median:.2}x [q1 {q1:.2} – q3 {q3:.2}], floor {floor}; \
             per repeat {}",
            arm.name,
            shown.join(" ")
        );
        ratios.push(format!(
            "\"{}\": {{\"per_repeat\": [{}], \"q1\": {q1:.3}, \"median\": {median:.3}, \
             \"q3\": {q3:.3}, \"floor\": {}}}",
            arm.name,
            shown.join(", "),
            arm.floor.map_or("null".to_owned(), |f| format!("{f:.2}")),
        ));
    }
    Ok(format!(
        "{{\n    \"workload\": {},\n    \"arms\": {{\n      {}\n    }},\n    \
         \"ratios\": {{\n      {}\n    }}\n  }}",
        section.workload,
        arms.join(",\n      "),
        ratios.join(",\n      ")
    ))
}

/// The non-gating multi-core portfolio sweep: fixed work per worker,
/// wall-clock measured.
fn multicore() -> Result<String, String> {
    println!(
        "perfgate (multicore): {PROCESSES} processes / {NODES} nodes / k = {FAULTS}, \
         {MULTICORE_SEEDS} seeds, {MULTICORE_ITERATIONS} iterations per worker, \
         workers {MULTICORE_WORKERS:?}"
    );
    let problems: Vec<Problem> = (0..MULTICORE_SEEDS)
        .map(|seed| synthetic_problem(PROCESSES, NODES, FAULTS, MU, seed))
        .collect();
    let cfg = replay_config(MULTICORE_ITERATIONS);
    let mut elapsed_ms = Vec::new();
    let mut candidates = Vec::new();
    let mut rates = Vec::new();
    for workers in MULTICORE_WORKERS {
        let pcfg = PortfolioConfig {
            workers,
            epoch_candidates: 2_048,
            ..PortfolioConfig::default()
        };
        let started = Instant::now();
        let mut scored = 0usize;
        for problem in &problems {
            let out = optimize_portfolio(problem, PolicySpace::Mixed, &cfg, &pcfg)
                .map_err(|e| format!("multicore portfolio, {workers} workers: {e}"))?;
            scored += out.outcome.stats.candidates();
        }
        let elapsed = started.elapsed().as_secs_f64();
        let rate = scored as f64 / elapsed.max(f64::MIN_POSITIVE);
        println!("  {workers} workers: {scored} candidates in {elapsed:.2} s -> {rate:.1}/s");
        elapsed_ms.push(format!("{:.1}", elapsed * 1e3));
        candidates.push(scored.to_string());
        rates.push(rate);
    }
    let scaling_2w = rates[1] / rates[0];
    let scaling_4w = rates[2] / rates[0];
    let cores = effective_threads(0);
    println!(
        "  scaling ({cores} cores): {scaling_2w:.2}x at 2 workers, {scaling_4w:.2}x at 4 \
         (floor {MULTICORE_FLOOR_4W}x at 4 workers, non-gating)"
    );
    Ok(format!(
        "{{\"available_parallelism\": {cores}, \
         \"iterations_per_worker\": {MULTICORE_ITERATIONS}, \"seeds\": {MULTICORE_SEEDS}, \
         \"workers\": {MULTICORE_WORKERS:?}, \"elapsed_ms\": [{}], \"candidates\": [{}], \
         \"aggregate_candidate_rate\": [{}], \"scaling_efficiency_2w\": {scaling_2w:.2}, \
         \"scaling_efficiency_4w\": {scaling_4w:.2}, \"floor_4w\": {MULTICORE_FLOOR_4W}, \
         \"gating\": false}}",
        elapsed_ms.join(", "),
        candidates.join(", "),
        join(rates.iter().map(|r| format!("{r:.1}"))),
    ))
}

/// Runs one section in this process and returns its `"name": {...}`
/// JSON fragment.
fn run_section(name: &str) -> Result<String, String> {
    let body = match name {
        "paper" => measure(name, &paper_section())?,
        "splice" => measure(name, &splice_section())?,
        "comm" => measure(name, &comm_section())?,
        "occ" => measure(name, &occ_section())?,
        "multicore" => multicore()?,
        _ => return Err(format!("unknown section '{name}' (valid: {SECTIONS:?})")),
    };
    Ok(format!("\"{name}\": {body}"))
}

/// Runs every section in a child process of its own (see the module
/// docs) and writes `BENCH_tabu.json`.
fn run_all_sections() -> Result<(), String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate own binary to spawn the sections: {e}"))?;
    let mut fragments = Vec::new();
    for section in SECTIONS {
        let out_path =
            std::env::temp_dir().join(format!("perfgate_{}_{section}.json", std::process::id()));
        let status = Command::new(&exe)
            .env("FTDES_PERFGATE_SECTION", section)
            .env("FTDES_PERFGATE_OUT", &out_path)
            .status()
            .map_err(|e| format!("cannot spawn section '{section}': {e}"))?;
        if !status.success() {
            return Err(format!("section '{section}' failed ({status})"));
        }
        let fragment = std::fs::read_to_string(&out_path)
            .map_err(|e| format!("section '{section}' left no output: {e}"))?;
        let _ = std::fs::remove_file(&out_path);
        fragments.push(fragment);
    }
    let json = format!(
        "{{\n  \"environment\": {},\n  \"method\": {{\"repeats\": {REPEATS}, \
         \"threads\": {THREADS}, \"arm_order\": \"alternating\", \
         \"ratio\": \"time(arm) / time(default), per repeat\"}},\n  {}\n}}\n",
        environment_json(),
        fragments.join(",\n  ")
    );
    ftdes_bench::write_artifact("BENCH_tabu.json", &json)?;
    println!("\n{json}");
    Ok(())
}

fn main() -> ExitCode {
    let result = match std::env::var("FTDES_PERFGATE_SECTION") {
        // Child mode: run one section and write its JSON fragment where
        // the parent asked (stdout when run by hand).
        Ok(section) => {
            let out = std::env::var("FTDES_PERFGATE_OUT");
            run_section(&section).and_then(|fragment| match out {
                Ok(out) => std::fs::write(&out, fragment)
                    .map_err(|e| format!("cannot write section output {out}: {e}")),
                Err(_) => {
                    println!("{fragment}");
                    Ok(())
                }
            })
        }
        Err(_) => run_all_sections(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfgate: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_an_odd_count() {
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn quartiles_of_an_even_count_interpolate() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.75, 2.5, 3.25]);
    }

    #[test]
    fn replay_alternates_arm_order_and_pairs_ratios_by_repeat() {
        // Two arms, four repeats, one seed. The first arm of each
        // repeat pays a warm-up penalty of 5 on top of its true cost
        // (default 10, denominator 20).
        let mut order = Vec::new();
        let samples = replay(2, 4, 1, |arm, _| {
            let first = order.len() % 2 == 0;
            order.push(arm);
            let cost = [10, 20][arm] + if first { 5 } else { 0 };
            Ok(Duration::from_millis(cost))
        })
        .unwrap();
        assert_eq!(order, [0, 1, 1, 0, 0, 1, 1, 0]);
        let per_repeat =
            |arm: usize| -> Vec<Duration> { samples[arm].iter().map(|seeds| seeds[0]).collect() };
        let ratios = time_ratios(&per_repeat(1), &per_repeat(0));
        let expected = [20.0 / 15.0, 25.0 / 10.0, 20.0 / 15.0, 25.0 / 10.0];
        for (got, want) in ratios.iter().zip(expected) {
            assert!((got - want).abs() < 1e-12, "{ratios:?}");
        }
        // Alternation brackets the true ratio 2.0 between the quartiles.
        let [q1, _, q3] = quartiles(&ratios);
        assert!(q1 < 2.0 && 2.0 < q3, "[{q1}, {q3}]");
    }

    #[test]
    fn replay_interleaves_arms_seed_by_seed() {
        let mut order = Vec::new();
        let samples = replay(3, 2, 2, |arm, seed| {
            order.push((arm, seed));
            Ok(order.len())
        })
        .unwrap();
        assert_eq!(
            order,
            [
                (0, 0),
                (1, 0),
                (2, 0),
                (0, 1),
                (1, 1),
                (2, 1),
                (2, 0),
                (1, 0),
                (0, 0),
                (2, 1),
                (1, 1),
                (0, 1),
            ]
        );
        // Indexed [arm][repeat][seed]: arm 0 ran 1st and 4th, then 9th
        // and 12th.
        assert_eq!(samples[0], [[1, 4], [9, 12]]);
    }

    fn sample(seeds: &[(u64, usize)]) -> Sample {
        Sample {
            elapsed: Duration::from_millis(1),
            seeds: seeds
                .iter()
                .map(|&(length_us, candidates)| SeedResult {
                    length_us,
                    candidates,
                })
                .collect(),
        }
    }

    #[test]
    fn invariance_allows_candidate_counts_to_differ_across_arms() {
        let samples = vec![
            vec![sample(&[(100, 7), (200, 9)]); 2],
            vec![sample(&[(100, 8), (200, 9)]); 2],
        ];
        check_invariance(&["default", "pr1"], &samples).unwrap();
    }

    #[test]
    fn invariance_names_the_seed_and_arm_of_a_mismatch() {
        let across = vec![
            vec![sample(&[(100, 7), (200, 9)])],
            vec![sample(&[(100, 7), (201, 9)])],
        ];
        let err = check_invariance(&["default", "pr3"], &across).unwrap_err();
        assert!(err.starts_with("seed 1, arm 'pr3'"), "{err}");

        let repeats = vec![vec![sample(&[(100, 7)]), sample(&[(100, 6)])]];
        let err = check_invariance(&["default"], &repeats).unwrap_err();
        assert!(err.starts_with("seed 0, arm 'default', repeat 1"), "{err}");
    }
}
