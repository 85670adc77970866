//! Frozen pre-optimization reference implementation of the search
//! loops — the `perfgate` baseline.
//!
//! This module preserves, byte-for-byte in behaviour, the evaluation
//! strategy the optimizer used before the parallel + memoized
//! evaluation subsystem landed:
//!
//! * every candidate is evaluated through [`Problem::evaluate`] —
//!   a full schedule materialization with fresh allocations,
//! * every candidate clones the entire design (`Move::apply`),
//! * the neighbourhood is re-enumerated from scratch every iteration
//!   (`generate_moves`),
//! * evaluation is strictly sequential and nothing is memoized.
//!
//! `perfgate` replays the same fixed-iteration trajectory through this
//! reference and through the current default path; their time ratio
//! is the perf gate's pre/post comparison. Do not "optimize" this module
//! — its purpose is to stay slow the way the original was slow.

use std::time::Instant;

use ftdes_core::moves::generate_moves;
use ftdes_core::{Goal, OptError, PolicySpace, Problem, SearchConfig, SearchStats};
use ftdes_model::design::Design;
use ftdes_sched::Schedule;

/// The pre-optimization greedy loop (sequential, uncached).
///
/// # Errors
///
/// Propagates scheduling failures as [`OptError::Sched`].
pub fn greedy_reference(
    problem: &Problem,
    space: PolicySpace,
    start: Design,
    cfg: &SearchConfig,
    cutoff: Option<Instant>,
    stats: &mut SearchStats,
) -> Result<(Design, Schedule), OptError> {
    let mut design = start;
    let mut schedule = problem.evaluate(&design)?;
    stats.evaluations += 1;

    loop {
        if cfg.goal == Goal::MeetDeadline && schedule.is_schedulable() {
            return Ok((design, schedule));
        }
        if cutoff.is_some_and(|c| Instant::now() >= c) {
            return Ok((design, schedule));
        }
        let cp = schedule.move_candidates(problem.graph(), cfg.min_move_candidates);
        let moves = generate_moves(problem, space, &design, &cp);
        let mut best: Option<(Design, Schedule)> = None;
        for mv in moves {
            let cand = mv.apply(&design);
            let sched = problem.evaluate(&cand)?;
            stats.evaluations += 1;
            if best.as_ref().is_none_or(|(_, s)| sched.cost() < s.cost()) {
                best = Some((cand, sched));
            }
            if cutoff.is_some_and(|c| Instant::now() >= c) {
                break;
            }
        }
        match best {
            Some((cand, sched)) if sched.cost() < schedule.cost() => {
                design = cand;
                schedule = sched;
                stats.greedy_steps += 1;
            }
            _ => return Ok((design, schedule)),
        }
    }
}

/// The pre-optimization tabu loop (sequential, uncached, full
/// materialization and a design clone per candidate).
///
/// # Errors
///
/// Propagates scheduling failures as [`OptError::Sched`].
#[allow(clippy::too_many_lines)]
pub fn tabu_reference(
    problem: &Problem,
    space: PolicySpace,
    start: (Design, Schedule),
    cfg: &SearchConfig,
    cutoff: Option<Instant>,
    stats: &mut SearchStats,
) -> Result<(Design, Schedule), OptError> {
    struct Candidate {
        process: ftdes_model::ids::ProcessId,
        design: Design,
        schedule: Schedule,
    }

    let n = problem.process_count();
    let tenure = cfg.tenure_for(n);
    let mut tabu = vec![0usize; n];
    let mut wait = vec![0usize; n];

    let (mut best_design, mut best_schedule) = start;
    let mut now_design = best_design.clone();
    let mut now_schedule = best_schedule.clone();

    while !(cfg.goal == Goal::MeetDeadline && best_schedule.is_schedulable())
        && stats.tabu_iterations < cfg.max_tabu_iterations
        && cutoff.is_none_or(|c| Instant::now() < c)
    {
        stats.tabu_iterations += 1;

        let cp = now_schedule.move_candidates(problem.graph(), cfg.min_move_candidates);
        let mut moves = generate_moves(problem, space, &now_design, &cp);
        if moves.is_empty() {
            break;
        }
        let cap = cfg.max_moves_per_iteration.max(1);
        if moves.len() > cap {
            let offset = (stats.tabu_iterations.wrapping_sub(1) * cap) % moves.len();
            moves.rotate_left(offset);
            moves.truncate(cap);
        }

        let mut candidates = Vec::with_capacity(moves.len());
        for mv in moves {
            let design = mv.apply(&now_design);
            let schedule = problem.evaluate(&design)?;
            stats.evaluations += 1;
            candidates.push(Candidate {
                process: mv.process,
                design,
                schedule,
            });
            if cutoff.is_some_and(|c| Instant::now() >= c) {
                break;
            }
        }

        let best_cost = best_schedule.cost();
        let is_tabu = |c: &Candidate| tabu[c.process.index()] > 0;
        let aspirates = |c: &Candidate| cfg.aspiration && c.schedule.cost() < best_cost;
        let is_waiting = |c: &Candidate| cfg.diversification && wait[c.process.index()] > n;
        let admissible = |c: &Candidate| !is_tabu(c) || aspirates(c) || is_waiting(c);
        let best_of = |pred: &dyn Fn(&Candidate) -> bool| -> Option<usize> {
            candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| pred(c))
                .min_by_key(|(_, c)| c.schedule.cost())
                .map(|(i, _)| i)
        };

        let x_now = best_of(&admissible);
        let selected = match x_now {
            Some(i) if candidates[i].schedule.cost() < best_cost => Some(i),
            _ => best_of(&|c: &Candidate| is_waiting(c))
                .or_else(|| best_of(&|c: &Candidate| !is_tabu(c)))
                .or(x_now),
        };
        let Some(selected) = selected.or_else(|| best_of(&|_| true)) else {
            break;
        };

        let chosen = candidates.swap_remove(selected);
        now_design = chosen.design;
        now_schedule = chosen.schedule;

        if now_schedule.cost() < best_cost {
            best_design = now_design.clone();
            best_schedule = now_schedule.clone();
        }
        for t in &mut tabu {
            *t = t.saturating_sub(1);
        }
        for w in &mut wait {
            *w += 1;
        }
        tabu[chosen.process.index()] = tenure;
        wait[chosen.process.index()] = 0;
    }

    Ok((best_design, best_schedule))
}

/// The pre-optimization three-step strategy for the mixed space
/// (initial construction, greedy, staged tabu) — mirrors
/// `ftdes_core::strategy::optimize(Strategy::Mxr, ...)` with the
/// legacy loops above.
///
/// # Errors
///
/// Propagates [`OptError`] from placement or scheduling.
pub fn optimize_mxr_reference(
    problem: &Problem,
    cfg: &SearchConfig,
) -> Result<(Design, Schedule, SearchStats), OptError> {
    let started = Instant::now();
    let cutoff = cfg.time_limit.map(|l| started + l);
    let mut stats = SearchStats::default();
    let space = PolicySpace::Mixed;

    let initial = ftdes_core::initial::initial_mpa(problem, space)?;
    let (design, schedule) = greedy_reference(problem, space, initial, cfg, cutoff, &mut stats)?;

    let result = if cfg.staged_tabu && problem.fault_model().k() > 0 {
        let midpoint = cutoff.map(|c| {
            let now = Instant::now();
            if c <= now {
                c
            } else {
                now + (c - now) / 2
            }
        });
        let remaining = cfg
            .max_tabu_iterations
            .saturating_sub(stats.tabu_iterations);
        let stage1_cfg = SearchConfig {
            max_tabu_iterations: stats.tabu_iterations + remaining / 2,
            ..cfg.clone()
        };
        let staged = tabu_reference(
            problem,
            PolicySpace::ReexecutionOnly,
            (design, schedule),
            &stage1_cfg,
            midpoint,
            &mut stats,
        )?;
        tabu_reference(problem, space, staged, cfg, cutoff, &mut stats)?
    } else {
        tabu_reference(problem, space, (design, schedule), cfg, cutoff, &mut stats)?
    };

    stats.elapsed = started.elapsed();
    Ok((result.0, result.1, stats))
}
