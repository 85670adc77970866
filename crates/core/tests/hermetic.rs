//! A `Problem` is a plain value: the engine reads no environment
//! except the `FTDES_THREADS` deployment setting.
//!
//! Sets every retired engine variable to a non-default value and
//! asserts that a freshly built problem still carries the default
//! scheduler options and the χ-derived checkpoint default. One test in
//! its own integration-test binary (its own process), so `set_var`
//! cannot race another test reading the environment.

use ftdes_core::{effective_threads, Problem};
use ftdes_model::prelude::*;
use ftdes_sched::ScheduleOptions;
use ftdes_ttp::BusConfig;

#[test]
fn engine_configuration_ignores_the_environment() {
    for (var, value) in [
        ("FTDES_PRIORITY", "mobility"),
        ("FTDES_NO_SPLICE", "1"),
        ("FTDES_OCC_BACKEND", "flat"),
        ("FTDES_MAX_CHECKPOINTS", "3"),
        ("FTDES_NO_PARALLEL", "1"),
        ("FTDES_THREADS", "3"),
    ] {
        std::env::set_var(var, value);
    }

    let mut graph = ProcessGraph::new(0.into());
    let a = graph.add_process();
    let wcet: WcetTable = [(a, NodeId::new(0), Time::from_ms(10))]
        .into_iter()
        .collect();
    let arch = Architecture::with_node_count(1);
    let fault_model = FaultModel::new(1, Time::from_ms(5));
    assert!(fault_model.chi().is_zero());
    let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
    let problem = Problem::new(graph, arch, wcet, fault_model, bus);

    assert_eq!(problem.schedule_options(), ScheduleOptions::default());
    assert_eq!(problem.max_checkpoints(), 1, "χ = 0 keeps the axis off");
    assert_eq!(effective_threads(0), 3, "FTDES_THREADS is the one setting");
}
