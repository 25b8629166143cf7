//! Hierarchical balancing: balance within domains before across them.
//!
//! §5 of the paper proposes "balancing load between groups of cores, and
//! then inside groups, instead of balancing load directly between individual
//! cores".  [`HierarchicalRound`] realises that as a stack of concurrent
//! balancing passes, one per [`StealLevel`], innermost first: the SMT pass
//! only admits sibling victims, the LLC pass cache-local ones, the node pass
//! NUMA-local ones, and the final pass is completely unrestricted.  A pass
//! is not a second round implementation: it is the flat round's own pass
//! ([`ConcurrentRound::execute_within`]) given the distance cap as its admit
//! predicate, and the selection inside it is [`crate::Policy::select`].
//!
//! Two facts make this safe and convergent *per level*:
//!
//! * **Work conservation is inherited from the last pass.**  The level cap
//!   narrows a pass's candidate list, never the policy's filter, and the
//!   outermost pass runs the plain machine-wide round — so any state the
//!   flat balancer would fix, the hierarchical one fixes too (the
//!   `NodeRestrictedFilter` starvation bug is impossible by construction).
//! * **Inner passes cannot disturb coarser balance.**  A steal admitted by
//!   the pass at `level` moves load within one region of every partition at
//!   `level` or coarser ([`MachineTopology::level_regions`]), so the
//!   per-level potential [`crate::potential::level_potential`] at those
//!   levels is unchanged; the §4.3 potential argument therefore applies
//!   independently at every level, which is what `sched-verify`'s
//!   hierarchy lemma checks exhaustively.

use std::sync::Arc;

use sched_topology::{MachineTopology, StealLevel};

use crate::balancer::Balancer;
use crate::outcome::RoundReport;
use crate::round::{ConcurrentRound, RoundSchedule};
use crate::system::SystemState;

/// One level-capped concurrent pass of a hierarchical round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelPass {
    /// The outermost steal level this pass admitted.
    pub level: Option<StealLevel>,
    /// What every core's balancing attempt did during the pass.
    pub report: RoundReport,
}

/// Everything that happened during one hierarchical round (up to one pass
/// per steal level; passes stop as soon as the system is work-conserving).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchicalReport {
    /// The executed passes, innermost first.
    pub passes: Vec<LevelPass>,
}

impl HierarchicalReport {
    /// Total threads migrated across all passes.
    pub fn nr_stolen(&self) -> usize {
        self.passes.iter().map(|p| p.report.nr_stolen()).sum()
    }

    /// Total successful attempts across all passes.
    pub fn nr_successes(&self) -> usize {
        self.passes.iter().map(|p| p.report.nr_successes()).sum()
    }

    /// Total failed attempts across all passes.
    pub fn nr_failures(&self) -> usize {
        self.passes.iter().map(|p| p.report.nr_failures()).sum()
    }

    /// Threads migrated by the pass capped at `level`, if it ran.
    pub fn stolen_at(&self, level: StealLevel) -> usize {
        self.passes.iter().filter(|p| p.level == Some(level)).map(|p| p.report.nr_stolen()).sum()
    }

    /// Returns `true` if no pass migrated anything.
    pub fn is_quiescent(&self) -> bool {
        self.nr_stolen() == 0
    }

    /// Folds another round's passes into this report.
    pub fn merge(&mut self, other: HierarchicalReport) {
        self.passes.extend(other.passes);
    }
}

/// Executes hierarchical rounds of a [`Balancer`] over a machine topology.
#[derive(Debug)]
pub struct HierarchicalRound<'a> {
    balancer: &'a Balancer,
    topo: Arc<MachineTopology>,
}

impl<'a> HierarchicalRound<'a> {
    /// Creates an executor for `balancer` on `topo`.
    pub fn new(balancer: &'a Balancer, topo: Arc<MachineTopology>) -> Self {
        HierarchicalRound { balancer, topo }
    }

    /// The topology the level caps are derived from.
    pub fn topology(&self) -> &Arc<MachineTopology> {
        &self.topo
    }

    /// Executes one hierarchical round: a level-capped concurrent pass per
    /// steal level, innermost first, stopping early once the system is
    /// work-conserving (escalate to a wider domain only while the narrower
    /// ones could not fix the violation).
    ///
    /// # Panics
    ///
    /// Panics if the materialised schedule is not a valid round, or if the
    /// topology does not match the system's core count.
    pub fn execute(
        &self,
        system: &mut SystemState,
        schedule: &RoundSchedule,
    ) -> HierarchicalReport {
        assert_eq!(
            self.topo.nr_cpus(),
            system.nr_cores(),
            "topology and system must describe the same machine"
        );
        let mut report = HierarchicalReport::default();
        for level in StealLevel::ALL {
            if system.is_work_conserving() {
                break;
            }
            // Derive a distinct interleaving per pass so seeded schedules
            // race differently at each level.
            let pass_schedule = schedule.for_round(level.index());
            let pass = ConcurrentRound::new(self.balancer).execute_within(
                system,
                &pass_schedule,
                |thief, victim| self.topo.steal_level(thief, victim) <= level,
            );
            report.passes.push(LevelPass { level: Some(level), report: pass });
        }
        report
    }

    /// Runs hierarchical rounds until the system is work-conserving or the
    /// budget is exhausted; returns the rounds used (if converged) and the
    /// merged report.
    pub fn converge(
        &self,
        system: &mut SystemState,
        schedule: &RoundSchedule,
        max_rounds: usize,
    ) -> (Option<usize>, HierarchicalReport) {
        let mut total = HierarchicalReport::default();
        for round in 0..=max_rounds {
            if system.is_work_conserving() {
                return (Some(round), total);
            }
            if round == max_rounds {
                break;
            }
            total.merge(self.execute(system, &schedule.for_round(round)));
        }
        (None, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LoadMetric;
    use crate::policy::{Policy, TopologyAwareChoice};
    use crate::potential::{level_potential, potential_of_loads};
    use crate::task::{Task, TaskId};
    use crate::CoreId;
    use sched_topology::TopologyBuilder;

    fn rich_topo() -> Arc<MachineTopology> {
        Arc::new(
            TopologyBuilder::new().sockets(2).cores_per_socket(2).llcs_per_socket(1).smt(2).build(),
        )
    }

    fn topo_policy(topo: &Arc<MachineTopology>) -> Policy {
        Policy::simple().with_choice(Box::new(TopologyAwareChoice::new(
            Arc::clone(topo),
            LoadMetric::NrThreads,
        )))
    }

    fn hot_core_system(topo: &Arc<MachineTopology>, core: usize, threads: u64) -> SystemState {
        let mut system = SystemState::with_topology(topo);
        for t in 0..threads {
            system.core_mut(CoreId(core)).enqueue(Task::new(TaskId(t)));
        }
        system
    }

    #[test]
    fn hierarchical_round_fixes_a_local_imbalance_locally() {
        let topo = rich_topo();
        // cpu0 holds 2 threads; its SMT sibling cpu1 is idle.  The SMT pass
        // alone must fix the violation — no outer pass should run.
        let mut system = hot_core_system(&topo, 0, 2);
        let balancer = Balancer::new(topo_policy(&topo));
        let hier = HierarchicalRound::new(&balancer, Arc::clone(&topo));
        let report = hier.execute(&mut system, &RoundSchedule::AllSelectThenSteal);
        assert!(system.is_work_conserving());
        assert!(report.stolen_at(StealLevel::SmtSibling) >= 1);
        assert_eq!(
            report.passes.last().unwrap().level,
            Some(StealLevel::SmtSibling),
            "balancing must not escalate past the level that fixed the violation"
        );
    }

    #[test]
    fn hierarchical_round_escalates_to_remote_when_needed() {
        let topo = rich_topo();
        // All work on node 0; node 1 is idle: only the Remote pass can make
        // node 1's cores non-idle.
        let mut system = hot_core_system(&topo, 0, 16);
        let balancer = Balancer::new(topo_policy(&topo));
        let hier = HierarchicalRound::new(&balancer, Arc::clone(&topo));
        let (rounds, report) = hier.converge(&mut system, &RoundSchedule::AllSelectThenSteal, 64);
        assert!(rounds.is_some(), "hierarchical balancing must still converge");
        assert!(system.is_work_conserving());
        assert!(report.stolen_at(StealLevel::Remote) >= 1, "cross-node steals were required");
    }

    #[test]
    fn inner_passes_preserve_the_node_level_potential() {
        let topo = rich_topo();
        // Node loads already equal (4 threads on cpu0, 4 on cpu4): every
        // remaining imbalance is intra-node, so no pass may change the
        // node-level potential.
        let mut system = hot_core_system(&topo, 0, 4);
        for t in 100..104 {
            system.core_mut(CoreId(4)).enqueue(Task::new(TaskId(t)));
        }
        let balancer = Balancer::new(topo_policy(&topo));
        let hier = HierarchicalRound::new(&balancer, Arc::clone(&topo));
        let node_d_before =
            level_potential(&system.loads(LoadMetric::NrThreads), &topo, StealLevel::SameNode);
        let core_d_before = potential_of_loads(&system.loads(LoadMetric::NrThreads));
        let (rounds, _) = hier.converge(&mut system, &RoundSchedule::AllSelectThenSteal, 64);
        assert!(rounds.is_some());
        let loads = system.loads(LoadMetric::NrThreads);
        assert_eq!(
            level_potential(&loads, &topo, StealLevel::SameNode),
            node_d_before,
            "intra-node balancing must not disturb node-level balance"
        );
        assert!(potential_of_loads(&loads) < core_d_before);
    }

    #[test]
    fn hierarchical_rounds_conserve_threads() {
        let topo = rich_topo();
        let mut system = hot_core_system(&topo, 2, 9);
        let before = system.total_threads();
        let balancer = Balancer::new(topo_policy(&topo));
        let hier = HierarchicalRound::new(&balancer, Arc::clone(&topo));
        let _ = hier.converge(&mut system, &RoundSchedule::Seeded(11), 64);
        assert_eq!(system.total_threads(), before);
        assert!(system.tasks_are_unique());
    }

    #[test]
    #[should_panic(expected = "same machine")]
    fn mismatched_topology_is_rejected() {
        let topo = rich_topo();
        let mut system = SystemState::from_loads(&[1, 1]);
        let balancer = Balancer::new(Policy::simple());
        let hier = HierarchicalRound::new(&balancer, topo);
        let _ = hier.execute(&mut system, &RoundSchedule::Sequential);
    }
}
