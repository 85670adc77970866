//! Driving one pass of a workload through `ftdes_serve::drive` on an
//! on-disk store, with per-job-kind busy time taken from outside.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ftdes_core::{optimize, Outcome, Problem, SearchConfig, Strategy};
use ftdes_serve::{
    drive, DepResult, DriveReport, Injector, JobExec, JobSpec, JobStatus, SweepClock, SweepState,
    SweepStore, WorkerConfig,
};
use serde::Value;

/// A timing decorator: forwards every job to `inner` and records its
/// wall time per job id, with its kind.
pub struct Timed<'a> {
    inner: &'a dyn JobExec,
    busy: RefCell<BTreeMap<u64, (String, f64)>>,
}

impl<'a> Timed<'a> {
    pub fn new(inner: &'a dyn JobExec) -> Self {
        Timed {
            inner,
            busy: RefCell::new(BTreeMap::new()),
        }
    }
}

impl JobExec for Timed<'_> {
    fn execute(&self, spec: &JobSpec, deps: &[DepResult]) -> Result<Value, String> {
        let started = Instant::now();
        let result = self.inner.execute(spec, deps);
        let took = started.elapsed().as_secs_f64();
        let mut busy = self.busy.borrow_mut();
        let entry = busy
            .entry(spec.id)
            .or_insert_with(|| (spec.kind.clone(), 0.0));
        entry.1 += took;
        result
    }
}

/// Executes the search DAG of [`crate::workload::search_dag`] over
/// problems built during set-up, keeping each winner for the output
/// checks. Job results hold only deterministic fields.
pub struct SearchExec<'a> {
    pub problems: &'a [Problem],
    pub cfg: SearchConfig,
    pub outcomes: RefCell<Vec<Option<Outcome>>>,
}

impl<'a> SearchExec<'a> {
    pub fn new(problems: &'a [Problem], cfg: SearchConfig) -> Self {
        SearchExec {
            problems,
            cfg,
            outcomes: RefCell::new(vec![None; problems.len()]),
        }
    }
}

fn instance(spec: &JobSpec) -> Result<usize, String> {
    spec.params
        .get("instance")
        .and_then(Value::as_u64)
        .map(|i| i as usize)
        .ok_or_else(|| format!("job {} has no instance index", spec.name))
}

impl JobExec for SearchExec<'_> {
    fn execute(&self, spec: &JobSpec, _deps: &[DepResult]) -> Result<Value, String> {
        let i = instance(spec)?;
        let problem = self.problems.get(i).ok_or("instance out of range")?;
        match spec.kind.as_str() {
            "generate" => {
                problem
                    .graph()
                    .validate()
                    .map_err(|e| format!("generated workload invalid: {e}"))?;
                Ok(Value::Object(vec![
                    (
                        "problem_fp".into(),
                        Value::U64(ftdes_core::cache::problem_fingerprint(problem)),
                    ),
                    (
                        "edges".into(),
                        Value::U64(problem.graph().edges().len() as u64),
                    ),
                ]))
            }
            "optimize" => {
                let outcome = optimize(problem, Strategy::Mxr, &self.cfg)
                    .map_err(|e| format!("MXR search failed: {e}"))?;
                let s = outcome.stats;
                let result = Value::Object(vec![
                    ("length_us".into(), Value::U64(outcome.length().as_us())),
                    ("candidates".into(), Value::U64(s.candidates() as u64)),
                    ("evaluations".into(), Value::U64(s.evaluations as u64)),
                    ("cache_hits".into(), Value::U64(s.cache_hits as u64)),
                    ("pruned".into(), Value::U64(s.pruned as u64)),
                    ("greedy_steps".into(), Value::U64(s.greedy_steps as u64)),
                    (
                        "tabu_iterations".into(),
                        Value::U64(s.tabu_iterations as u64),
                    ),
                ]);
                self.outcomes.borrow_mut()[i] = Some(outcome);
                Ok(result)
            }
            other => Err(format!("unknown job kind {other:?}")),
        }
    }
}

/// A created store waiting to be driven; its file is removed when
/// the value is dropped.
pub struct Store {
    path: PathBuf,
    store: SweepStore,
    state: SweepState,
}

impl Store {
    pub fn create(path: &Path, sweep: &str, jobs: &[JobSpec]) -> Result<Store, String> {
        if path.exists() {
            std::fs::remove_file(path).map_err(|e| format!("clearing {}: {e}", path.display()))?;
        }
        let (store, state) = SweepStore::create(path, sweep, jobs).map_err(|e| e.to_string())?;
        Ok(Store {
            path: path.to_path_buf(),
            store,
            state,
        })
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// What one drive of a job DAG produced.
pub struct Driven {
    /// Wall time of `ftdes_serve::drive`.
    pub sweep_s: f64,
    /// Busy time per job id, with the job's kind.
    pub busy: BTreeMap<u64, (String, f64)>,
    pub report: DriveReport,
    store: Store,
}

impl Driven {
    /// Σ busy time of the jobs of `kind`.
    pub fn busy(&self, kind: &str) -> f64 {
        self.busy
            .values()
            .filter(|(k, _)| k == kind)
            .fold(0.0, |total, (_, s)| total + s)
    }

    /// Drive wall time not spent inside a job: log appends, syncs and
    /// state replay.
    pub fn overhead_s(&self) -> f64 {
        self.sweep_s - self.busy.values().fold(0.0, |total, (_, s)| total + s)
    }

    pub fn state(&self) -> &SweepState {
        &self.store.state
    }

    /// Σ attempts over every job, from the replayed `SweepState`: a
    /// committed job's failed attempts plus the one that succeeded.
    pub fn attempts(&self) -> u64 {
        self.state()
            .jobs()
            .map(|j| {
                let done = matches!(j.status, JobStatus::Done { .. });
                (j.failures.len() + usize::from(done)) as u64
            })
            .sum()
    }

    /// Every committed result in job order: the sweep's byte
    /// identity.
    pub fn results_bytes(&self) -> String {
        let mut out = String::new();
        let state = self.state();
        for job in state.jobs() {
            let rendered = state
                .result(job.spec.id)
                .and_then(|v| serde_json::to_string(v).ok())
                .unwrap_or_else(|| "<none>".into());
            out.push_str(&job.spec.name);
            out.push(' ');
            out.push_str(&rendered);
            out.push('\n');
        }
        out
    }

    /// The committed result of the job called `name`.
    pub fn result(&self, name: &str) -> Option<&Value> {
        let job = self.state().jobs().find(|j| j.spec.name == name)?;
        self.state().result(job.spec.id)
    }
}

/// Drives `store` to completion through `exec`, timing each job.
pub fn drive_store(mut store: Store, exec: &dyn JobExec) -> Result<Driven, String> {
    let timed = Timed::new(exec);
    let cfg = WorkerConfig {
        worker: "bench".into(),
        ..WorkerConfig::default()
    };
    let clock = SweepClock::virtual_at(0);
    let started = Instant::now();
    let report = drive(
        &mut store.store,
        &mut store.state,
        &timed,
        &clock,
        &mut Injector::none(),
        &cfg,
    )
    .map_err(|e| format!("drive failed: {e}"))?;
    let sweep_s = started.elapsed().as_secs_f64();
    Ok(Driven {
        sweep_s,
        busy: timed.busy.into_inner(),
        report,
        store,
    })
}
