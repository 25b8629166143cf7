//! A tiny task's handoff from an outside producer to a worker: the worker
//! that runs dry searches before it parks, so a producer of bursts of
//! empty closures finds it still awake nearly every time and pays for
//! almost no wake.  Read off the decision trace's `Park` events.

use std::sync::Arc;

use sched_core::policy::TopologyAwareChoice;
use sched_core::{LoadMetric, Policy};
use sched_exec::{ExecConfig, Executor, JoinHandle};
use sched_topology::TopologyBuilder;
use sched_trace::{TraceEvent, TraceSink};

/// Closures per burst, as in the benchmark's `burst_tiny`.
const BURST: usize = 512;
const BURSTS: usize = 40;

#[test]
fn bursts_of_empty_closures_park_a_worker_at_most_once_per_fifty_tasks() {
    let topo = Arc::new(TopologyBuilder::new().sockets(1).cores_per_socket(2).build());
    let choice = TopologyAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads);
    let policy = Policy::simple().with_choice(Box::new(choice));
    // Wake, placement and completion: three events a task, all of them on
    // one ring if one worker runs everything.
    let sink = TraceSink::with_capacity(2, (4 * BURST * BURSTS).next_power_of_two());
    let exec = Executor::start(ExecConfig::new(topo, policy).with_trace(sink.clone()));
    for _ in 0..BURSTS {
        let handles: Vec<JoinHandle<()>> = (0..BURST).map(|_| exec.spawn(|| ())).collect();
        handles.into_iter().for_each(JoinHandle::join);
    }
    let report = exec.shutdown();
    let tasks = (BURST * BURSTS) as u64;
    assert_eq!(report.completed, tasks);

    let trace = sink.drain();
    assert_eq!(trace.dropped, 0);
    let parks = trace.events.iter().filter(|e| e.event == TraceEvent::Park).count() as u64;
    assert!(50 * parks <= tasks, "{parks} parks in {tasks} tasks");
}
