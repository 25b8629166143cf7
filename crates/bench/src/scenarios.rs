//! Scenario builders of the simulator experiments (E9, E10): the machines,
//! the workloads and the schedulers they compare.

use std::sync::Arc;

use sched_core::prelude::*;
use sched_sim::{
    CfsBugs, CfsLikeScheduler, EventEngine, OptimisticScheduler, SimConfig, SimResult, SimScheduler,
};
use sched_topology::{MachineTopology, TopologyBuilder};
use sched_workloads::{OltpWorkload, ScientificWorkload, Workload};

/// The machine used by the simulator experiments: a dual-socket server of
/// the kind the "wasted cores" study ran on.
pub fn dual_socket() -> MachineTopology {
    TopologyBuilder::new().sockets(2).cores_per_socket(8).build()
}

/// The larger machine used by the hierarchical experiment: eight NUMA nodes.
pub fn eight_node() -> MachineTopology {
    TopologyBuilder::eight_node_numa()
}

/// The fork-join workload of experiment E9, sized to the machine.
pub fn scientific_workload(nr_cores: usize) -> Workload {
    ScientificWorkload {
        nr_threads: nr_cores,
        iterations: 8,
        phase_ns: 4_000_000,
        jitter: 0.05,
        seed: 42,
        fork_on_core: Some(0),
    }
    .generate()
}

/// The OLTP workload of experiment E10, sized to the machine.
pub fn oltp_workload(nr_cores: usize) -> Workload {
    OltpWorkload {
        nr_workers: nr_cores * 2,
        transactions: 40,
        service_ns: 500_000,
        think_ns: 250_000,
        jitter: 0.2,
        seed: 7,
        initial_spread: 4,
    }
    .generate()
}

/// Runs `workload` on `topo` under the named scheduler.
pub fn run_sim(topo: &MachineTopology, workload: &Workload, scheduler: SchedulerKind) -> SimResult {
    let boxed: Box<dyn SimScheduler> = match scheduler {
        SchedulerKind::Optimistic => Box::new(OptimisticScheduler::new(Policy::simple())),
        SchedulerKind::OptimisticNuma => {
            let policy = Policy::simple().with_choice(Box::new(NumaAwareChoice::new(
                Arc::new(topo.clone()),
                LoadMetric::NrThreads,
            )));
            Box::new(OptimisticScheduler::new(policy))
        }
        SchedulerKind::CfsSane => Box::new(CfsLikeScheduler::new(CfsBugs::none())),
        SchedulerKind::CfsBuggy => Box::new(CfsLikeScheduler::new(CfsBugs::all())),
    };
    EventEngine::new(SimConfig::default(), Some(topo), workload, boxed).run()
}

/// The schedulers compared by the simulator experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The verified optimistic balancer (Listing 1 policy).
    Optimistic,
    /// The verified balancer with a NUMA-aware choice step.
    OptimisticNuma,
    /// The CFS-like baseline without injected bugs.
    CfsSane,
    /// The CFS-like baseline with both wasted-cores bugs.
    CfsBuggy,
}

impl SchedulerKind {
    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Optimistic => "optimistic (verified)",
            SchedulerKind::OptimisticNuma => "optimistic + NUMA choice",
            SchedulerKind::CfsSane => "cfs-like (no bugs)",
            SchedulerKind::CfsBuggy => "cfs-like (wasted-cores bugs)",
        }
    }
}

/// Builds the policy variants compared by the choice-irrelevance experiment.
pub fn choice_variants(topo: &Arc<MachineTopology>) -> Vec<(&'static str, Policy)> {
    vec![
        ("first", Policy::simple().with_choice(Box::new(FirstChoice))),
        ("max_load", Policy::simple()),
        ("random", Policy::simple().with_choice(Box::new(RandomChoice::new(7)))),
        (
            "numa_aware",
            Policy::simple().with_choice(Box::new(NumaAwareChoice::new(
                Arc::clone(topo),
                LoadMetric::NrThreads,
            ))),
        ),
        (
            "min_migration_cost",
            Policy::simple().with_choice(Box::new(MinMigrationCostChoice::new(
                Arc::clone(topo),
                LoadMetric::NrThreads,
            ))),
        ),
        (
            "group_aware",
            Policy::simple().with_choice(Box::new(GroupAwareChoice::new(
                Arc::clone(topo),
                LoadMetric::NrThreads,
            ))),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builders_produce_valid_workloads() {
        let topo = dual_socket();
        assert_eq!(topo.nr_cpus(), 16);
        assert!(scientific_workload(topo.nr_cpus()).validate().is_ok());
        assert!(oltp_workload(topo.nr_cpus()).validate().is_ok());
        assert_eq!(choice_variants(&Arc::new(topo)).len(), 6);
    }

    #[test]
    fn scheduler_kinds_have_distinct_names() {
        let names: std::collections::BTreeSet<_> = [
            SchedulerKind::Optimistic,
            SchedulerKind::OptimisticNuma,
            SchedulerKind::CfsSane,
            SchedulerKind::CfsBuggy,
        ]
        .iter()
        .map(|k| k.name())
        .collect();
        assert_eq!(names.len(), 4);
    }
}
