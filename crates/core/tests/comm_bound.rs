//! Admissibility of the certified bus-wait lower bound on random
//! communication-heavy instances ([`ftdes_gen::comm_heavy`]).
//!
//! The bound's whole soundness story rests on one property: the
//! certified floor **never exceeds the true scheduled cost** — a
//! within-bound candidate always completes exactly, and an abort
//! certificate is a genuine lower bound. This test walks random
//! designs of random dense instances and checks both directions
//! against the exact cost, with the bus-wait bound on and off (the
//! classification — exact vs pruned — must not depend on the bound
//! being armed).

use ftdes_core::moves::MoveTable;
use ftdes_core::{initial, PolicySpace, Problem};
use ftdes_gen::{comm_heavy, CommHeavyParams};
use ftdes_model::architecture::Architecture;
use ftdes_model::fault::FaultModel;
use ftdes_model::time::Time;
use ftdes_sched::{CostOutcome, CostScratch, ScheduleCost};
use ftdes_ttp::config::BusConfig;

/// A tiny deterministic PRNG (splitmix64) for move choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn comm_problem(processes: usize, nodes: usize, k: u32, seed: u64) -> Problem {
    let arch = Architecture::with_node_count(nodes);
    let params = CommHeavyParams::dense(processes);
    let w = comm_heavy(&params, &arch, seed);
    let largest = w
        .graph
        .edges()
        .iter()
        .map(|e| e.message.size)
        .max()
        .unwrap_or(1)
        .max(1);
    let bus = BusConfig::initial(&arch, largest, params.byte_time()).unwrap();
    Problem::new(
        w.graph,
        arch,
        w.wcet,
        FaultModel::new(k, Time::from_ms(5)),
        bus,
    )
}

#[test]
fn bus_wait_bound_is_admissible_on_comm_heavy_instances() {
    for seed in 0..6u64 {
        let armed = comm_problem(13, 4, 2, seed);
        let disarmed = armed.clone().with_comm_lookahead(false);
        let table = MoveTable::new(&armed, PolicySpace::Mixed);
        let mut design = initial::initial_mpa(&armed, PolicySpace::Mixed).unwrap();
        let mut rng = Rng(seed ^ 0xc0ff_ee00);
        let mut scratch = CostScratch::default();
        let mut core = ftdes_sched::SchedScratch::default();
        let mut window = Vec::new();

        // A random walk of applied moves; at every step, every
        // candidate of the current window is checked for
        // admissibility under a spread of bounds.
        for _step in 0..5 {
            let schedule = armed.evaluate_recording(&design, &mut core, None);
            let schedule = schedule.unwrap();
            let cp = schedule.move_candidates(armed.graph(), 6);
            table.window(&design, &cp, &mut window);
            if window.is_empty() {
                break;
            }
            for mv in &window {
                let mut cand = design.clone();
                cand.set_decision(mv.process, table.decision(*mv).clone());
                let exact = armed.evaluate_cost(&cand, &mut scratch).unwrap();

                // Bounds from generous (the exact cost itself: the
                // run must complete) to tight (just below: the run
                // must abort with an admissible certificate) to
                // hopeless (half the length: the certified floor —
                // including the armed entry check — still may not
                // overshoot the exact cost).
                let mut bounds = vec![exact];
                if !exact.length.is_zero() {
                    bounds.push(ScheduleCost {
                        violation: exact.violation,
                        length: exact.length.saturating_sub(Time::from_us(1)),
                    });
                    bounds.push(ScheduleCost {
                        violation: exact.violation,
                        length: exact.length / 2,
                    });
                }
                for &bound in &bounds {
                    let with = armed
                        .evaluate_cost_bounded(&cand, &mut scratch, Some(bound))
                        .unwrap();
                    let without = disarmed
                        .evaluate_cost_bounded(&cand, &mut scratch, Some(bound))
                        .unwrap();
                    for (outcome, label) in [(with, "armed"), (without, "disarmed")] {
                        match outcome {
                            CostOutcome::Exact(c) => {
                                assert_eq!(c, exact, "{label}: wrong exact cost");
                                assert!(
                                    exact <= bound,
                                    "{label}: seed {seed}: the bus-wait bound pruned a \
                                     within-bound candidate (exact {exact:?}, bound {bound:?})"
                                );
                            }
                            CostOutcome::LowerBound(lb) => {
                                assert!(exact > bound, "{label}: aborted a within-bound run");
                                assert!(lb > bound, "{label}: certificate within bound");
                                assert!(
                                    lb <= exact,
                                    "{label}: seed {seed}: inadmissible certificate \
                                     {lb:?} > exact {exact:?}"
                                );
                            }
                        }
                    }
                    // The bound is a pure throughput knob: armed and
                    // disarmed runs classify identically.
                    assert_eq!(
                        matches!(with, CostOutcome::Exact(_)),
                        matches!(without, CostOutcome::Exact(_)),
                        "seed {seed}: classification changed with the bus-wait bound"
                    );
                }
            }
            let mv = window[rng.below(window.len())];
            design.set_decision(mv.process, table.decision(mv).clone());
        }
    }
}
