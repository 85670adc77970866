//! The four workloads: their fixed parameters, their seeded inputs
//! and the job DAG each pass drives through `ftdes_serve`.

use ftdes_bench::jobs::{RepairSweep, SweepSpec};
use ftdes_bench::BYTE_TIME;
use ftdes_core::{Problem, SearchConfig};
use ftdes_gen::{comm_heavy, paper_workload, CommHeavyParams, Workload};
use ftdes_model::architecture::Architecture;
use ftdes_model::fault::FaultModel;
use ftdes_model::time::Time;
use ftdes_serve::JobSpec;
use ftdes_ttp::config::BusConfig;
use serde::Value;

/// Which generator family a search workload draws from.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// The paper's §6 family (random / tree / chain-group graphs).
    Paper,
    /// `CommHeavyParams::stress`: 24 edges per process, message/WCET
    /// cost ratio 3.
    CommStress,
    /// `CommHeavyParams::dense`, the repair sweep's second family.
    CommDense,
}

impl Family {
    fn comm_params(self, processes: usize) -> Option<CommHeavyParams> {
        match self {
            Family::Paper => None,
            Family::CommStress => Some(CommHeavyParams::stress(processes)),
            Family::CommDense => Some(CommHeavyParams::dense(processes)),
        }
    }
}

/// What one pass of a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Fixed-trajectory MXR solves, one per generated instance.
    Search(Family),
    /// The `RepairSweep` job DAG (intact solve → node kill → repair
    /// ladder + from-scratch re-solve), `seeds` instance seeds per
    /// family.
    Repair { comm_processes: usize },
}

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub processes: usize,
    pub nodes: usize,
    pub k: u32,
    pub mu_ms: u64,
    /// Evaluation threads, pinned so the work is the same on every
    /// machine.
    pub threads: usize,
    /// Generated instances (search) or seeds per family (repair) in
    /// one pass.
    pub instances: u64,
    /// Tabu iterations of every solve: the fixed trajectory.
    pub iterations: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    // Paper-family instance counts are multiples of six: six
    // consecutive seeds cover each of the generator's six
    // graph-structure × WCET-distribution classes once.
    Spec {
        name: "paper4",
        kind: Kind::Search(Family::Paper),
        processes: 40,
        nodes: 4,
        k: 3,
        mu_ms: 5,
        threads: 2,
        instances: 12,
        iterations: 300,
    },
    Spec {
        name: "splice12",
        kind: Kind::Search(Family::Paper),
        processes: 96,
        nodes: 12,
        k: 3,
        mu_ms: 5,
        threads: 2,
        instances: 6,
        iterations: 100,
    },
    // 32 rather than 48 processes: at 48 only four instances fit a
    // pass and some never leave the bus-saturated start region, so
    // both solve time and δ swung from seed to seed.
    Spec {
        name: "comm_stress",
        kind: Kind::Search(Family::CommStress),
        processes: 32,
        nodes: 4,
        k: 2,
        mu_ms: 5,
        threads: 1,
        instances: 8,
        iterations: 90,
    },
    Spec {
        name: "repair_sweep",
        kind: Kind::Repair { comm_processes: 30 },
        processes: 40,
        nodes: 4,
        k: 2,
        mu_ms: 5,
        threads: 1,
        instances: 12,
        iterations: 50,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The generator seeds of one run: `--seed n` owns the block
    /// `n·instances ..`, so distinct `--seed` values never share an
    /// instance.
    pub fn instance_seeds(&self, seed: u64) -> impl Iterator<Item = u64> {
        let base = seed * self.instances;
        base..base + self.instances
    }

    /// The fixed trajectory: MXR, minimize δ, a fixed tabu iteration
    /// count, no wall-clock limit, every engine knob at its default.
    pub fn search_config(&self) -> SearchConfig {
        SearchConfig {
            threads: self.threads,
            ..ftdes_bench::iteration_config(self.iterations)
        }
    }

    pub fn fault_model(&self) -> FaultModel {
        FaultModel::new(self.k, Time::from_ms(self.mu_ms))
    }

    /// The repair sweep with its seeds moved to this run's block.
    pub fn repair_dag(&self, seed: u64) -> Vec<JobSpec> {
        let Kind::Repair { comm_processes } = self.kind else {
            unreachable!("repair_dag on a search workload")
        };
        let spec = SweepSpec::Repair(RepairSweep {
            processes: self.processes as u64,
            comm_processes: comm_processes as u64,
            nodes: self.nodes as u64,
            faults: u64::from(self.k),
            mu_ms: self.mu_ms,
            seeds: self.instances,
            max_iterations: self.iterations as u64,
        });
        let base = seed * self.instances;
        let mut jobs = spec.jobs();
        for job in &mut jobs {
            let Value::Object(fields) = &mut job.params else {
                continue;
            };
            for (key, value) in fields.iter_mut() {
                if let ("seed", Value::U64(s)) = (key.as_str(), value) {
                    *s += base;
                    if let Some((prefix, _)) = job.name.rsplit_once("/s") {
                        job.name = format!("{prefix}/s{s}");
                    }
                }
            }
        }
        jobs
    }
}

/// Generates one instance's application (the `gen` layer).
pub fn generate(
    spec: &Spec,
    family: Family,
    processes: usize,
    seed: u64,
) -> (Architecture, Workload) {
    let arch = Architecture::with_node_count(spec.nodes);
    let workload = match family.comm_params(processes) {
        None => paper_workload(processes, &arch, seed),
        Some(params) => comm_heavy(&params, &arch, seed),
    };
    (arch, workload)
}

/// Builds the `Problem` of one generated instance (the `problem`
/// layer: dense WCET matrix, fingerprints), exactly as
/// `ftdes_bench::synthetic_problem` / `comm_heavy_problem_with` do.
pub fn build_problem(
    spec: &Spec,
    family: Family,
    processes: usize,
    arch: Architecture,
    w: Workload,
) -> Problem {
    let largest = w
        .graph
        .edges()
        .iter()
        .map(|e| e.message.size)
        .max()
        .unwrap_or(1)
        .max(1);
    let byte_time = family
        .comm_params(processes)
        .map_or(BYTE_TIME, |p| p.byte_time());
    let bus = BusConfig::initial(&arch, largest, byte_time).expect("architectures are non-empty");
    Problem::new(w.graph, arch, w.wcet, spec.fault_model(), bus)
}

/// The search DAG of one pass: per instance a `generate` job that
/// validates and fingerprints the instance, then an `optimize` job.
pub fn search_dag(problems: usize) -> Vec<JobSpec> {
    let mut jobs = Vec::with_capacity(2 * problems);
    for i in 0..problems as u64 {
        let params = Value::Object(vec![("instance".to_owned(), Value::U64(i))]);
        jobs.push(JobSpec {
            id: 2 * i + 1,
            name: format!("gen/{i}"),
            kind: "generate".into(),
            params: params.clone(),
            deps: vec![],
        });
        jobs.push(JobSpec {
            id: 2 * i + 2,
            name: format!("opt/{i}"),
            kind: "optimize".into(),
            params,
            deps: vec![2 * i + 1],
        });
    }
    jobs
}
