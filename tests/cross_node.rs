//! Hierarchical balancing across NUMA nodes (the §5 future work), and the
//! negative result when the hierarchy is pushed into the filter (e12).

use std::sync::Arc;

use optimistic_sched::core::prelude::*;
use optimistic_sched::topology::{MachineTopology, NodeId, TopologyBuilder};

fn hot_core_on_node0(topo: &MachineTopology, threads: u64) -> SystemState {
    let mut system = SystemState::with_topology(topo);
    for t in 0..threads {
        system.core_mut(CoreId(0)).enqueue(Task::new(TaskId(t)));
    }
    system
}

/// Listing 1's filter behind a step-1 node restriction: it never admits a
/// victim on another node.
fn node_restricted_filter() -> Policy {
    Policy::new(
        LoadMetric::NrThreads,
        Box::new(NodeRestrictedFilter::new(DeltaFilter::listing1())),
        Box::new(MaxLoadChoice::new(LoadMetric::NrThreads)),
        StealRule::One,
    )
}

/// The NUMA-aware choice converges from one hot core on node 0, on two
/// sockets and — e12's positive control — on eight nodes, in one round.
#[test]
fn numa_aware_choice_preserves_work_conservation() {
    let two_sockets = TopologyBuilder::new().sockets(2).cores_per_socket(4).build();
    for (topo, rounds) in [(two_sockets, 1), (TopologyBuilder::eight_node_numa(), 1)] {
        let topo = Arc::new(topo);
        let policy = Policy::simple()
            .with_choice(Box::new(NumaAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads)));
        let balancer = Balancer::new(policy);
        let mut system = hot_core_on_node0(&topo, 2 * topo.nr_cpus() as u64);
        let result =
            converge(&mut system, &balancer, RoundSchedule::AllSelectThenSteal, 8 * topo.nr_cpus());
        assert_eq!(result.rounds, Some(rounds), "{} cpus", topo.nr_cpus());
        assert!(system.is_work_conserving());
        assert_eq!(system.idle_cores().len(), 0);
    }
}

#[test]
fn group_aware_choice_preserves_work_conservation() {
    let topo = Arc::new(TopologyBuilder::eight_node_numa());
    let policy =
        Policy::simple().with_choice(Box::new(GroupAwareChoice::new(LoadMetric::NrThreads)));
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
    let balancer = Balancer::new(node_restricted_filter());
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

    // e12's negative result: all the work on node 0 of eight, and the other
    // seven nodes' 56 cores starve for the whole budget.
    let topo = Arc::new(TopologyBuilder::eight_node_numa());
    let mut system = hot_core_on_node0(&topo, 2 * topo.nr_cpus() as u64);
    let result =
        converge(&mut system, &balancer, RoundSchedule::AllSelectThenSteal, 8 * topo.nr_cpus());
    assert_eq!(result.rounds, None, "the node-restricted filter must starve nodes 1-7");
    assert_eq!(system.idle_cores().len(), 56);
}

/// e12: one hot core per node of an eight-node machine holds that node's
/// whole share, so every idle core has local and remote victims.  Every
/// policy converges; where the hierarchy lives decides the migrations.
/// The NUMA-aware choice keeps every steal node-local and converges in
/// one round; the flat and group-aware choices cross nodes.  The node
/// restriction matches the NUMA choice here only because no node needs
/// another's work.
#[test]
fn the_hierarchy_belongs_in_the_choice_one_hot_core_per_node() {
    let topo = Arc::new(TopologyBuilder::eight_node_numa());
    let metric = LoadMetric::NrThreads;
    // (policy, rounds N, cross-node migrations, same-node migrations)
    let pinned = [
        ("flat max-load choice", Policy::simple(), 42, 202, 85),
        (
            "NUMA-aware choice",
            Policy::simple().with_choice(Box::new(NumaAwareChoice::new(Arc::clone(&topo), metric))),
            1,
            0,
            56,
        ),
        (
            "group-aware choice",
            Policy::simple().with_choice(Box::new(GroupAwareChoice::new(metric))),
            31,
            202,
            64,
        ),
        ("node-restricted filter", node_restricted_filter(), 1, 0, 56),
    ];
    let nr_nodes = topo.nr_nodes();
    let per_node = 2 * topo.nr_cpus() as u64 / nr_nodes as u64;
    for (name, policy, rounds, cross, same) in pinned {
        let mut system = SystemState::with_topology(&topo);
        let mut next_task = 0u64;
        for node in 0..nr_nodes {
            let hot_core = topo.cpus_of_node(NodeId(node))[0];
            for _ in 0..per_node {
                system.core_mut(hot_core).enqueue(Task::new(TaskId(next_task)));
                next_task += 1;
            }
        }
        let balancer = Balancer::new(policy);
        let executor = ConcurrentRound::new(&balancer);
        let (mut cross_node, mut same_node) = (0, 0);
        let converged = (0..8 * topo.nr_cpus()).find(|_| {
            if system.is_work_conserving() {
                return true;
            }
            let report = executor.execute(&mut system, &RoundSchedule::AllSelectThenSteal);
            for attempt in report.successes() {
                let victim = attempt.outcome.victim().expect("successes have victims");
                if system.core(attempt.thief).node == system.core(victim).node {
                    same_node += attempt.outcome.nr_stolen();
                } else {
                    cross_node += attempt.outcome.nr_stolen();
                }
            }
            false
        });
        assert_eq!((converged, cross_node, same_node), (Some(rounds), cross, same), "{name}");
    }
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
