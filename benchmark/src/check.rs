//! Output checks: every winner is re-materialized and replayed under
//! concrete ≤ k fault scenarios; the realized schedule must stay
//! within the analytic worst case.

use std::time::Instant;

use ftdes_core::Problem;
use ftdes_faultsim::{adversarial_scenario, enumerate_scenarios, random_scenarios, simulate};
use ftdes_model::design::Design;
use ftdes_sched::Schedule;

/// Scenario sets up to this size are enumerated exhaustively.
const ENUMERATE_LIMIT: u64 = 2_000;
/// Seeded random scenarios replayed beside the adversarial one when
/// the exhaustive set is too large.
const RANDOM_SCENARIOS: usize = 300;

/// Failed and attempted checks, plus the fault-replay layer's work.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub scenarios: u64,
    pub violations: u64,
    pub replay_s: f64,
}

impl Tally {
    /// Records one attempted operation that failed when `ok` is false.
    /// `what` describes the failure; it is only built when `ok` is
    /// false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.scenarios += other.scenarios;
        self.violations += other.violations;
        self.replay_s += other.replay_s;
    }
}

/// Σ_{j ≤ k} C(m + j − 1, j): the number of fault multisets over `m`
/// injectable segments, an upper estimate of `enumerate_scenarios`.
fn scenario_estimate(m: u64, k: u32) -> u64 {
    let (mut total, mut term) = (1u64, 1u64);
    for j in 1..=u64::from(k) {
        term = term.saturating_mul(m + j - 1) / j;
        total = total.saturating_add(term);
    }
    total
}

/// Re-materializes `design` with `Problem::evaluate`, checks it
/// reproduces `expected_length_us`, and replays it under every ≤ k
/// scenario when they are few enough to enumerate, otherwise under
/// the adversarial scenario plus seeded random ones.
pub fn verify_winner(
    problem: &Problem,
    design: &Design,
    expected_length_us: u64,
    seed: u64,
    label: &str,
) -> Tally {
    let mut tally = Tally::default();
    let schedule = match problem.evaluate(design) {
        Ok(s) => s,
        Err(e) => {
            tally.check(false, || format!("{label}: re-materialization failed: {e}"));
            return tally;
        }
    };
    tally.check(schedule.length().as_us() == expected_length_us, || {
        format!(
            "{label}: re-materialized length {} != reported {expected_length_us}",
            schedule.length().as_us()
        )
    });
    replay(problem, &schedule, seed, label, &mut tally);
    tally
}

fn replay(problem: &Problem, schedule: &Schedule, seed: u64, label: &str, tally: &mut Tally) {
    let fm = problem.fault_model();
    let segments: u64 = schedule
        .expanded()
        .instances()
        .iter()
        .map(|i| u64::from(i.checkpoints.max(1)))
        .sum();
    let scenarios = if scenario_estimate(segments, fm.k()) <= ENUMERATE_LIMIT {
        enumerate_scenarios(schedule, fm)
    } else {
        let mut s = vec![adversarial_scenario(schedule, fm)];
        s.extend(random_scenarios(schedule, fm, RANDOM_SCENARIOS, seed));
        s
    };
    let bound = schedule.length();
    let started = Instant::now();
    for scenario in &scenarios {
        let report = simulate(schedule, problem.graph(), fm, scenario);
        let sound = report.all_processes_complete()
            && report.max_overrun().is_none()
            && report.lost_messages().is_empty()
            && report.realized_length() <= bound;
        if !sound {
            tally.violations += 1;
        }
        tally.check(sound, || {
            format!(
                "{label}: fault replay violated the analytic bound ({} faults)",
                scenario.fault_count()
            )
        });
    }
    tally.replay_s += started.elapsed().as_secs_f64();
    tally.scenarios += scenarios.len() as u64;
}
