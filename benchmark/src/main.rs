//! Fixed-trajectory benchmark of the ftdes design-optimization flow.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper4 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every solve is MXR with a fixed tabu iteration count, no
//! wall-clock limit and the default engine configuration, so a run
//! does identical work on every machine and thread count. A run
//! repeats whole passes (set-up, then the workload's job DAG driven
//! through `ftdes_serve::drive` on an on-disk store) for `--seconds`,
//! checks the outputs, and prints one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of a traced replay
//! with `--trace 1`. See README.md in this directory.

mod check;
mod exec;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use check::Tally;
use exec::{drive_store, Driven, SearchExec, Store};
use ftdes_core::{Outcome, Problem};
use workload::{Kind, Spec};

/// Passes a run always makes, whatever `--seconds` says, so every
/// reported time is a median of at least this many.
const MIN_PASSES: usize = 3;
/// Set-ups per pass; the pass reports their median.
const SETUP_REPS: usize = 15;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = Spec::by_name(&workload).ok_or_else(|| {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {workload:?} (known: {})",
            names.join(", ")
        )
    })?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The benchmark measures the default program: any `FTDES_*` engine
/// or harness knob in the environment (`FTDES_NO_SPLICE`,
/// `FTDES_RECONV`, `FTDES_OCC_BACKEND`, `FTDES_PRIORITY`,
/// `FTDES_MAX_CHECKPOINTS`, `FTDES_NO_PARALLEL`, `FTDES_THREADS`, ...)
/// is refused.
fn refuse_engine_knobs() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("FTDES_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with engine knobs set: {}",
            set.join(", ")
        ))
    }
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_owned(),
    }
}

/// Where stores and traces go: inside the benchmark's own directory.
pub(crate) fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Peak resident memory of this process (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The search results of one pass: per instance its winner and the
/// (candidate count, best length) pair that must repeat exactly.
pub(crate) struct Pass {
    pub setup_s: f64,
    pub gen_s: f64,
    pub problem_s: f64,
    pub driven: Driven,
    pub problems: Vec<Problem>,
    pub outcomes: Vec<Outcome>,
}

impl Pass {
    /// Busy time of the pass's searches.
    fn solve_s(&self) -> f64 {
        self.driven.busy("optimize") + self.driven.busy("repair")
    }

    /// Per instance `(candidates, best length µs)` of a search pass.
    fn fingerprint(&self) -> Vec<(usize, u64)> {
        self.outcomes
            .iter()
            .map(|o| (o.stats.candidates(), o.length().as_us()))
            .collect()
    }

    /// Mean best length over seeds (search) or mean repaired length
    /// over repair jobs (sweep), in µs.
    pub fn length_us(&self, spec: &Spec) -> Result<f64, String> {
        let lengths: Vec<u64> = match spec.kind {
            Kind::Search(_) => self.outcomes.iter().map(|o| o.length().as_us()).collect(),
            Kind::Repair { .. } => self
                .driven
                .state()
                .jobs()
                .filter(|j| j.spec.kind == "repair")
                .map(|j| {
                    self.driven
                        .state()
                        .result(j.spec.id)
                        .and_then(|r| r.get("repair_length_us"))
                        .and_then(serde::Value::as_u64)
                        .ok_or_else(|| format!("{} has no repaired length", j.spec.name))
                })
                .collect::<Result<_, _>>()?,
        };
        if lengths.is_empty() {
            return Err("no lengths".into());
        }
        Ok(lengths.iter().sum::<u64>() as f64 / lengths.len() as f64)
    }
}

/// A finished set-up: the inputs and the created store.
struct Setup {
    seconds: f64,
    gen_s: f64,
    problem_s: f64,
    problems: Vec<Problem>,
    store: Store,
}

/// Set-up: generate the inputs, build the problems, create the store
/// and its job DAG.
fn setup(spec: &Spec, seed: u64, tag: &str) -> Result<Setup, String> {
    let started = Instant::now();
    let (mut gen_s, mut problem_s) = (0.0, 0.0);
    let mut problems = Vec::new();
    let jobs = match spec.kind {
        Kind::Search(family) => {
            for s in spec.instance_seeds(seed) {
                let t = Instant::now();
                let (arch, w) = workload::generate(spec, family, spec.processes, s);
                gen_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                problems.push(workload::build_problem(
                    spec,
                    family,
                    spec.processes,
                    arch,
                    w,
                ));
                problem_s += t.elapsed().as_secs_f64();
            }
            workload::search_dag(problems.len())
        }
        Kind::Repair { .. } => spec.repair_dag(seed),
    };
    let path = out_dir()?.join(format!(
        "store-{}-{}-{tag}.jsonl",
        spec.name,
        std::process::id()
    ));
    let store = Store::create(&path, spec.name, &jobs)?;
    Ok(Setup {
        seconds: started.elapsed().as_secs_f64(),
        gen_s,
        problem_s,
        problems,
        store,
    })
}

/// One pass: [`SETUP_REPS`] set-ups (their times are medianed; the
/// last one is kept), then the job DAG driven to completion.
pub(crate) fn run_pass(spec: &Spec, seed: u64, tag: &str) -> Result<Pass, String> {
    let (mut seconds, mut gen_s, mut problem_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let s = setup(spec, seed, &format!("{tag}-{rep}"))?;
        seconds.push(s.seconds);
        gen_s.push(s.gen_s);
        problem_s.push(s.problem_s);
        kept = Some(s);
    }
    let Setup {
        problems, store, ..
    } = kept.expect("SETUP_REPS is positive");
    let (driven, outcomes) = match spec.kind {
        Kind::Search(_) => {
            let exec = SearchExec::new(&problems, spec.search_config());
            let driven = drive_store(store, &exec)?;
            let outcomes = exec.outcomes.into_inner().into_iter().flatten().collect();
            (driven, outcomes)
        }
        Kind::Repair { .. } => {
            let driven = drive_store(store, &ftdes_bench::jobs::SweepExec::new())?;
            (driven, Vec::new())
        }
    };
    Ok(Pass {
        setup_s: median(&seconds),
        gen_s: median(&gen_s),
        problem_s: median(&problem_s),
        driven,
        problems,
        outcomes,
    })
}

/// Checks one pass against the first: every job committed, and the
/// results identical (per-instance candidate counts and lengths for
/// searches, the result bytes for the sweep).
pub(crate) fn check_repeat(spec: &Spec, first: &Pass, pass: &Pass, tally: &mut Tally) {
    for job in pass.driven.state().jobs() {
        let done = matches!(job.status, ftdes_serve::JobStatus::Done { .. });
        tally.check(done, || format!("job {} did not commit", job.spec.name));
    }
    let report = pass.driven.report;
    tally.check(
        (report.executed + report.failed_attempts) as u64 == pass.driven.attempts()
            && report.quarantined == 0,
        || "drive report disagrees with the replayed sweep state".into(),
    );
    if std::ptr::eq(first, pass) {
        return;
    }
    match spec.kind {
        Kind::Search(_) => {
            let (a, b) = (first.fingerprint(), pass.fingerprint());
            tally.check(a.len() == b.len(), || {
                "instance count changed between passes".into()
            });
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                tally.check(x == y, || {
                    format!("instance {i}: (candidates, length) {x:?} then {y:?}")
                });
            }
        }
        Kind::Repair { .. } => tally.check(
            first.driven.results_bytes() == pass.driven.results_bytes(),
            || "sweep results differ between passes".into(),
        ),
    }
}

/// The output checks of the first pass's winners.
pub(crate) fn verify_outputs(spec: &Spec, pass: &Pass, seed: u64) -> Result<Tally, String> {
    let mut tally = Tally::default();
    match spec.kind {
        Kind::Search(_) => {
            tally.check(pass.outcomes.len() == pass.problems.len(), || {
                "a search produced no winner".into()
            });
            for (i, (problem, outcome)) in pass.problems.iter().zip(&pass.outcomes).enumerate() {
                tally.add(check::verify_winner(
                    problem,
                    &outcome.design,
                    outcome.length().as_us(),
                    seed.wrapping_add(i as u64),
                    &format!("instance {i}"),
                ));
            }
        }
        Kind::Repair { .. } => {
            for (i, (problem, name)) in trace::sweep_problems(spec, seed).0.into_iter().enumerate()
            {
                let Some(result) = pass.driven.result(&format!("opt/{name}")) else {
                    tally.check(false, || format!("opt/{name} has no result"));
                    continue;
                };
                let design = trace::decode_design(&result["design"], &problem)?;
                let length = result
                    .get("length_us")
                    .and_then(serde::Value::as_u64)
                    .unwrap_or(0);
                tally.add(check::verify_winner(
                    &problem,
                    &design,
                    length,
                    seed.wrapping_add(i as u64),
                    &format!("opt/{name}"),
                ));
            }
            for job in pass.driven.state().jobs() {
                if job.spec.kind != "repair" {
                    continue;
                }
                let r = pass.driven.state().result(job.spec.id);
                let ok = r.is_some_and(|r| {
                    r.get("repair_length_us").and_then(serde::Value::as_u64) > Some(0)
                        && r.get("scratch_length_us").and_then(serde::Value::as_u64) > Some(0)
                        && r.get("rung").and_then(serde::Value::as_str).is_some()
                });
                tally.check(ok, || {
                    format!("{}: incomplete repair result", job.spec.name)
                });
            }
        }
    }
    Ok(tally)
}

/// Metrics in output order, each with its unit.
pub(crate) type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Σ over jobs of `kinds` of each job's median busy time across
/// passes. Per-job medians discard a transient machine slowdown that
/// hits one job in one pass.
fn job_medians(passes: &[Driven], kinds: &[&str]) -> f64 {
    let Some(first) = passes.first() else {
        return 0.0;
    };
    first
        .busy
        .iter()
        .filter(|(_, (kind, _))| kinds.contains(&kind.as_str()))
        .map(|(id, _)| {
            let times: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.busy.get(id).map(|(_, s)| *s))
                .collect();
            median(&times)
        })
        .sum()
}

fn measure(args: &Args) -> Result<(Metrics, Tally, usize), String> {
    let spec = &args.spec;
    let started = Instant::now();
    let mut tally = Tally::default();
    let first = run_pass(spec, args.seed, "0")?;
    check_repeat(spec, &first, &first, &mut tally);
    let mut setup = vec![first.setup_s];
    let mut drives: Vec<Driven> = Vec::new();
    let mut slowest = started.elapsed().as_secs_f64();
    while setup.len() < MIN_PASSES || started.elapsed().as_secs_f64() + slowest <= args.seconds {
        let t = Instant::now();
        let pass = run_pass(spec, args.seed, &setup.len().to_string())?;
        check_repeat(spec, &first, &pass, &mut tally);
        eprintln!(
            "pass {}: setup {:.6} s, solve {:.6} s, sweep {:.6} s",
            setup.len(),
            pass.setup_s,
            pass.solve_s(),
            pass.driven.sweep_s
        );
        setup.push(pass.setup_s);
        drives.push(pass.driven);
        slowest = slowest.max(t.elapsed().as_secs_f64());
    }
    let passes = setup.len();
    tally.add(verify_outputs(spec, &first, args.seed)?);
    let length_us = first.length_us(spec)?;
    drives.insert(0, first.driven);
    let overhead: Vec<f64> = drives.iter().map(Driven::overhead_s).collect();
    let all_kinds: Vec<&str> = drives[0].busy.values().map(|(k, _)| k.as_str()).collect();
    let metrics = vec![
        ("setup_s", median(&setup), "s"),
        (
            "solve_s",
            job_medians(&drives, &["optimize", "repair"]),
            "s",
        ),
        (
            "sweep_s",
            job_medians(&drives, &all_kinds) + median(&overhead),
            "s",
        ),
        ("length_us", length_us, "us"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];
    Ok((metrics, tally, passes))
}

fn render(tally: &Tally, metrics: &Metrics) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for &(name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        fields.join(", ")
    ))
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    refuse_engine_knobs()?;
    if matches!(args.spec.kind, Kind::Repair { .. }) {
        // `SweepExec` resolves its evaluation threads from the
        // environment; pin the workload's count before any thread
        // exists.
        std::env::set_var("FTDES_THREADS", args.spec.threads.to_string());
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let provenance = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"threads\": {}, \"iterations\": {}, \"instances\": {}, \
         \"commit\": \"{}\"}}",
        args.spec.name,
        args.seed,
        args.seconds,
        args.trace,
        args.spec.threads,
        args.spec.iterations,
        args.spec.instances,
        commit()
    );
    eprintln!("provenance {provenance}");
    let (metrics, tally) = if args.trace {
        trace::traced_run(&args.spec, args.seed, &provenance)?
    } else {
        let (metrics, tally, passes) = measure(&args)?;
        eprintln!("passes {passes}");
        (metrics, tally)
    };
    let mut by_name = BTreeMap::new();
    for &(name, value, unit) in &metrics {
        by_name.insert(name, (value, unit));
    }
    for (name, (value, unit)) in &by_name {
        eprintln!("  {name:<24} {value:>14.6} {unit}");
    }
    render(&tally, &metrics)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
