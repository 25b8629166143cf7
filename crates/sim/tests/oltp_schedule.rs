//! The schedule at the repo benchmark's shape, pinned: an OLTP run on 64
//! flat cores under `Policy::simple()` with `TopologyAwareChoice` on thread
//! counts, as `sim_oltp` runs it (a quarter of its workers, half of its
//! transactions).  The calendar and the wakeup placement are the simulator's
//! hottest code; a change to either that reorders one event moves these
//! counts.

use std::sync::Arc;

use sched_core::policy::TopologyAwareChoice;
use sched_core::{LoadMetric, Policy};
use sched_sim::{Engine, EventEngine, OptimisticScheduler, SimConfig, SimResult};
use sched_topology::{MachineTopology, TopologyBuilder};
use sched_workloads::{OltpWorkload, Workload};

/// Far beyond any finishing time, so only a stuck simulation is truncated.
const HORIZON_NS: u64 = 3_600_000_000_000;

/// What a schedule change would move.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    events_processed: u64,
    makespan_ns: u64,
    successes: u64,
    failures: u64,
    migrations: u64,
    latency_samples: u64,
    latency_max_ns: u64,
    latency_p99_ns: u64,
    busy_ns: u64,
    benign_idle_ns: u64,
    violating_idle_ns: u64,
}

impl Pinned {
    fn of(result: &SimResult) -> Self {
        assert!(result.finished);
        assert_eq!(result.operations, 256 * 40);
        Pinned {
            events_processed: result.events_processed,
            makespan_ns: result.makespan_ns,
            successes: result.balance.successes,
            failures: result.balance.failures(),
            migrations: result.balance.migrations,
            latency_samples: result.latency.count(),
            latency_max_ns: result.latency.max(),
            latency_p99_ns: result.latency.quantile(0.99),
            busy_ns: result.idle.total_busy(),
            benign_idle_ns: result.idle.total_idle_benign(),
            violating_idle_ns: result.idle.total_idle_violating(),
        }
    }
}

fn workload() -> Workload {
    OltpWorkload {
        nr_workers: 256,
        transactions: 40,
        service_ns: 500_000,
        think_ns: 250_000,
        jitter: 0.2,
        seed: 2017,
        initial_spread: 4,
    }
    .generate()
}

fn scheduler(topo: &Arc<MachineTopology>) -> Box<OptimisticScheduler> {
    let choice = TopologyAwareChoice::new(Arc::clone(topo), LoadMetric::NrThreads);
    let policy = Policy::simple().with_choice(Box::new(choice));
    Box::new(OptimisticScheduler::with_topology(policy, Arc::clone(topo)))
}

#[test]
fn the_benchmark_shaped_oltp_schedule_is_pinned_on_both_engines() {
    let topo = Arc::new(TopologyBuilder::new().sockets(1).cores_per_socket(64).build());
    let workload = workload();
    let config = SimConfig::default().horizon(HORIZON_NS);
    let tick = Engine::new(config.clone(), Some(&topo), &workload, scheduler(&topo)).run();
    let event = EventEngine::new(config, Some(&topo), &workload, scheduler(&topo)).run();
    // Recorded before the packed-key calendar and the counted placement
    // scan replaced the tuple-compared heap and the per-core struct walk;
    // the latency and idle totals, which the threads' ready and running
    // timestamps feed, before the machine borrowed its workload instead of
    // copying each thread's spec.  The engines agree on everything but the
    // event count: the event engine elides timers that could not preempt.
    // The three idle totals sum to 64 cores × the makespan.
    let pinned = |events_processed| Pinned {
        events_processed,
        makespan_ns: 89_328_818,
        successes: 204,
        failures: 93,
        migrations: 204,
        latency_samples: 14_858,
        latency_max_ns: 15_240_000,
        latency_p99_ns: 8_388_608,
        busy_ns: 5_103_314_882,
        benign_idle_ns: 355_746_688,
        violating_idle_ns: 257_982_782,
    };
    assert_eq!(Pinned::of(&tick), pinned(31_072), "tick engine");
    assert_eq!(Pinned::of(&event), pinned(30_148), "event engine");
}
