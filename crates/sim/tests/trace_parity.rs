//! The `stats == fold(trace)` parity contract on the simulator substrate:
//! both engines, driving the same schedulers as the runqueue parity tests,
//! must produce traces that fold back into exactly the tally the run
//! reported — and a traced run must be invisible to the schedule itself
//! (the tick-vs-event parity results are unchanged by an attached sink).

use std::sync::Arc;

use sched_core::policy::TopologyAwareChoice;
use sched_core::{LoadMetric, Policy};
use sched_sim::{Engine, EventEngine, OptimisticScheduler, SimConfig};
use sched_trace::{FoldedStats, SanityChecker, TraceEvent, TraceSink};
use sched_workloads::{ScientificWorkload, Workload};

fn scientific(nr_threads: usize) -> Workload {
    ScientificWorkload {
        nr_threads,
        iterations: 3,
        phase_ns: 2_000_000,
        jitter: 0.0,
        seed: 1,
        fork_on_core: Some(0),
    }
    .generate()
}

#[test]
fn tick_engine_stats_equal_the_folded_trace() {
    let workload = scientific(8);
    let sink = TraceSink::recording(8);
    let mut engine = Engine::new(
        SimConfig::with_cores(8),
        None,
        &workload,
        Box::new(OptimisticScheduler::new(Policy::simple())),
    );
    engine.set_trace_sink(sink.clone());
    let result = engine.run();
    assert!(result.finished);
    assert!(result.balance.successes > 0, "the trace has real content to fold");
    let trace = sink.drain();
    assert_eq!(trace.dropped, 0, "this run fits the default rings");
    assert_eq!(result.balance, FoldedStats::from_trace(&trace));
}

#[test]
fn event_engine_stats_equal_the_folded_trace() {
    let workload = scientific(8);
    let sink = TraceSink::recording(8);
    let mut engine = EventEngine::new(
        SimConfig::with_cores(8),
        None,
        &workload,
        Box::new(OptimisticScheduler::new(Policy::simple())),
    );
    engine.set_trace_sink(sink.clone());
    let result = engine.run();
    assert!(result.finished);
    let trace = sink.drain();
    assert_eq!(trace.dropped, 0);
    assert_eq!(result.balance, FoldedStats::from_trace(&trace));
}

#[test]
fn topology_aware_trace_keeps_level_attribution_on_both_engines() {
    let topo = sched_topology::TopologyBuilder::new().sockets(2).cores_per_socket(2).smt(2).build();
    let arc = Arc::new(topo.clone());
    let workload = scientific(topo.nr_cpus());
    for event_driven in [false, true] {
        let sink = TraceSink::recording(topo.nr_cpus());
        let choice = TopologyAwareChoice::new(Arc::clone(&arc), LoadMetric::NrThreads);
        let policy = Policy::simple().with_choice(Box::new(choice));
        let sched = Box::new(OptimisticScheduler::with_topology(policy, Arc::clone(&arc)));
        let result = if event_driven {
            let mut engine = EventEngine::new(SimConfig::default(), Some(&topo), &workload, sched);
            engine.set_trace_sink(sink.clone());
            engine.run()
        } else {
            let mut engine = Engine::new(SimConfig::default(), Some(&topo), &workload, sched);
            engine.set_trace_sink(sink.clone());
            engine.run()
        };
        assert!(result.finished);
        let fold = FoldedStats::from_trace(&sink.drain());
        assert_eq!(result.balance, fold);
        assert!(
            fold.level_migrations.iter().sum::<u64>() >= 1,
            "level attribution must survive the trace round-trip (event_driven={event_driven})"
        );
    }
}

#[test]
fn an_attached_sink_never_changes_the_schedule() {
    // Recording is write-only: a traced run and an untraced run of the same
    // workload must report identical results, on both engines.
    let workload = scientific(8);
    let untraced = Engine::new(
        SimConfig::with_cores(8),
        None,
        &workload,
        Box::new(OptimisticScheduler::new(Policy::simple())),
    )
    .run();
    let sink = TraceSink::recording(8);
    let mut engine = Engine::new(
        SimConfig::with_cores(8),
        None,
        &workload,
        Box::new(OptimisticScheduler::new(Policy::simple())),
    );
    engine.set_trace_sink(sink.clone());
    let traced = engine.run();
    assert_eq!(traced.makespan_ns, untraced.makespan_ns, "makespan");
    assert_eq!(traced.operations, untraced.operations, "operations");
    assert_eq!(traced.balance, untraced.balance, "balance counters");
}

#[test]
fn a_traced_sim_run_narrates_lifecycle_and_passes_the_checker() {
    let workload = scientific(8);
    let sink = TraceSink::recording(8);
    let mut engine = Engine::new(
        SimConfig::with_cores(8),
        None,
        &workload,
        Box::new(OptimisticScheduler::new(Policy::simple())),
    );
    engine.set_trace_sink(sink.clone());
    let result = engine.run();
    assert!(result.finished);
    let trace = sink.drain();
    let done =
        trace.events.iter().filter(|e| matches!(e.event, TraceEvent::TaskDone { .. })).count();
    assert_eq!(done, 8, "every thread's completion is narrated exactly once");
    assert!(
        trace.events.iter().any(|e| matches!(e.event, TraceEvent::BalanceRound { .. })),
        "balance rounds are narrated"
    );
    assert!(
        trace.events.iter().any(|e| matches!(e.event, TraceEvent::Unpark)),
        "cores narrate leaving idle"
    );
    // A finished run leaves every queue empty; derived occupancy must agree.
    let final_loads = vec![0u64; 8];
    let violations = SanityChecker::check_trace(&trace, false, Some(&final_loads));
    assert!(violations.is_empty(), "clean run flagged: {violations:?}");
}
