//! Hierarchical balancing across NUMA nodes (the §5 future work), and the
//! negative result when the hierarchy is pushed into the filter.

use std::sync::Arc;

use optimistic_sched::core::prelude::*;
use optimistic_sched::topology::TopologyBuilder;

fn hot_core_on_node0(
    topo: &optimistic_sched::topology::MachineTopology,
    threads: u64,
) -> SystemState {
    let mut system = SystemState::with_topology(topo);
    for t in 0..threads {
        system.core_mut(CoreId(0)).enqueue(Task::new(TaskId(t)));
    }
    system
}

#[test]
fn numa_aware_choice_preserves_work_conservation() {
    let topo = Arc::new(TopologyBuilder::new().sockets(2).cores_per_socket(4).build());
    let policy = Policy::simple()
        .with_choice(Box::new(NumaAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads)));
    let balancer = Balancer::new(policy);
    let mut system = hot_core_on_node0(&topo, 16);
    let result = converge(&mut system, &balancer, RoundSchedule::AllSelectThenSteal, 256);
    assert!(result.converged());
    assert!(system.is_work_conserving());
}

#[test]
fn group_aware_choice_preserves_work_conservation() {
    let topo = Arc::new(TopologyBuilder::eight_node_numa());
    let policy = Policy::simple()
        .with_choice(Box::new(GroupAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads)));
    let balancer = Balancer::new(policy);
    let mut system = hot_core_on_node0(&topo, 2 * topo.nr_cpus() as u64);
    let result =
        converge(&mut system, &balancer, RoundSchedule::AllSelectThenSteal, 16 * topo.nr_cpus());
    assert!(result.converged());
}

#[test]
fn node_restricted_filter_violates_work_conservation_across_nodes() {
    // Pushing the hierarchy into step 1 is wrong: an idle node next to an
    // overloaded one can never help, so the idle-while-overloaded state
    // persists forever.
    let topo = Arc::new(TopologyBuilder::new().sockets(2).cores_per_socket(4).build());
    let policy = Policy::new(
        LoadMetric::NrThreads,
        Box::new(NodeRestrictedFilter::new(DeltaFilter::listing1())),
        Box::new(MaxLoadChoice::new(LoadMetric::NrThreads)),
        StealRule::One,
    );
    let balancer = Balancer::new(policy);
    // All the work on node 1 (cores 4..8); node 0 is idle and stays idle.
    let mut system = SystemState::with_topology(&topo);
    for t in 0..12u64 {
        system.core_mut(CoreId(4)).enqueue(Task::new(TaskId(t)));
    }
    let result = converge(&mut system, &balancer, RoundSchedule::AllSelectThenSteal, 128);
    // Node-local stealing spreads work inside node 1, but node 0 never gets
    // any, so the system never becomes work-conserving.
    assert!(!result.converged(), "the node-restricted filter must starve node 0");
    assert!(system.core(CoreId(0)).is_idle());
    assert!(!system.is_work_conserving());
}

#[test]
fn numa_aware_choice_prefers_local_victims_when_available() {
    let topo = Arc::new(TopologyBuilder::new().sockets(2).cores_per_socket(4).build());
    let mut system = SystemState::with_topology(&topo);
    // One overloaded core on each node; the thief (core 1) is on node 0.
    for t in 0..3u64 {
        system.core_mut(CoreId(0)).enqueue(Task::new(TaskId(t)));
        system.core_mut(CoreId(4)).enqueue(Task::new(TaskId(100 + t)));
    }
    let policy = Policy::simple()
        .with_choice(Box::new(NumaAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads)));
    let balancer = Balancer::new(policy);
    let snapshot = SystemSnapshot::capture(&system);
    let selection = balancer.select(&snapshot, CoreId(1));
    assert_eq!(selection.chosen, Some(CoreId(0)), "the local overloaded core is preferred");
    // Both overloaded cores pass the filter, so the choice is genuinely a
    // step-2 decision.
    assert_eq!(selection.candidates.len(), 2);
}
