//! What the bespoke simulator and choice tables swap into a catalogued
//! scenario: the schedulers E9/E10 compare on their scenario's machine and
//! workload, and the choice variants E1 runs through the lemma suite.

use std::sync::Arc;

use sched_core::prelude::*;
use sched_dsl::Scenario;
use sched_sim::{CfsBugs, CfsLikeScheduler, SimResult};
use sched_topology::MachineTopology;

use crate::runner::{SimEngine, SimScenario};

/// Runs `spec` on the event engine under the named scheduler: the
/// optimistic one is exactly the `sim-event` backend's run, and a CFS-like
/// baseline replaces it on the same machine and workload.
pub fn run_sim(spec: &Scenario, scheduler: SchedulerKind) -> SimResult {
    let mut scenario =
        SimScenario::build(SimEngine::Event, spec).expect("the simulator executes the scenario");
    let bugs = match scheduler {
        SchedulerKind::Optimistic => None,
        SchedulerKind::CfsSane => Some(CfsBugs::none()),
        SchedulerKind::CfsBuggy => Some(CfsBugs::all()),
    };
    if let Some(bugs) = bugs {
        scenario.scheduler = Box::new(CfsLikeScheduler::new(bugs));
    }
    scenario.run(None)
}

/// The schedulers compared by the simulator experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The verified optimistic balancer the scenario declares.
    Optimistic,
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
    use crate::runner::build_topology;
    use crate::ExperimentId;

    #[test]
    fn scenario_builders_produce_valid_workloads() {
        for id in [ExperimentId::E9, ExperimentId::E10] {
            let spec = crate::catalog::spec(id);
            let result = run_sim(&spec, SchedulerKind::Optimistic);
            assert!(result.finished, "{}: the catalogued workload runs to completion", spec.name);
            assert!(result.operations > 0, "{}", spec.name);
        }
        let topo = build_topology(sched_dsl::Topology::DualSocket);
        assert_eq!(topo.nr_cpus(), 16);
        assert_eq!(choice_variants(&Arc::new(topo)).len(), 6);
    }

    #[test]
    fn scheduler_kinds_have_distinct_names() {
        let names: std::collections::BTreeSet<_> =
            [SchedulerKind::Optimistic, SchedulerKind::CfsSane, SchedulerKind::CfsBuggy]
                .iter()
                .map(|k| k.name())
                .collect();
        assert_eq!(names.len(), 3);
    }
}
