//! Hierarchical balancing lives in step 2: the one home of the §5 argument.
//!
//! §5: "We aim to extend these abstractions to include hierarchical load
//! balancing, for instance to allow balancing load between groups of cores,
//! and then inside groups, instead of balancing load directly between
//! individual cores."
//!
//! A choice policy only ever returns a member of the filtered candidate
//! list, so a hierarchy expressed as a choice leaves the filter — and with
//! it every work-conservation lemma and the §4.3 potential bound — exactly
//! as the flat balancer has them.  One flat round then balances inside
//! groups first simply because each thief prefers its nearest loaded group:
//! on experiment E16's input (one hot core per node) every node drains
//! locally, with no cross-node steal, in one round.  The step-2 designs are:
//!
//! * [`crate::policy::TopologyAwareChoice`]: victims searched in distance
//!   order (SMT sibling → LLC → node → remote) with per-level thresholds,
//!   and no memory between choices — the choice every substrate, the
//!   executor included, runs;
//! * [`crate::policy::NumaAwareChoice`]: same-node candidates first;
//! * [`GroupAwareChoice`]: the most loaded group (NUMA node) first, then
//!   the most loaded core inside it.
//!
//! [`NodeRestrictedFilter`] is the refuted control: it pushes the hierarchy
//! into the *filter* step by refusing to steal across NUMA nodes, and is
//! therefore **not** work-conserving (an idle node can starve next to an
//! overloaded one); `sched-verify` finds the violation, which is exactly
//! why the paper insists hierarchy should live in step 2.

use sched_topology::NodeId;

use crate::load::LoadMetric;
use crate::policy::{ChoicePolicy, FilterPolicy};
use crate::snapshot::CoreSnapshot;
use crate::CoreId;

/// Chooses the victim from the most loaded *group* (NUMA node) first, then
/// picks the most loaded core inside that group.
///
/// Because this is only a choice policy, it returns a member of the filtered
/// candidate list and therefore inherits the Listing 1 proof untouched.
/// The groups are the nodes the candidates' snapshots name, so the policy
/// needs no topology of its own.
#[derive(Debug, Clone)]
pub struct GroupAwareChoice {
    metric: LoadMetric,
}

impl GroupAwareChoice {
    /// Creates the policy, measuring loads in `metric`.
    pub fn new(metric: LoadMetric) -> Self {
        GroupAwareChoice { metric }
    }

    fn group_load(&self, node: NodeId, candidates: &[CoreSnapshot]) -> u64 {
        candidates.iter().filter(|c| c.node == node).map(|c| c.load(self.metric)).sum()
    }
}

impl ChoicePolicy for GroupAwareChoice {
    fn choose(&self, _thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId> {
        candidates
            .iter()
            .max_by(|a, b| {
                let ga = self.group_load(a.node, candidates);
                let gb = self.group_load(b.node, candidates);
                ga.cmp(&gb)
                    .then(a.load(self.metric).cmp(&b.load(self.metric)))
                    .then(b.id.cmp(&a.id))
            })
            .map(|c| c.id)
    }

    fn name(&self) -> &'static str {
        "group_aware"
    }
}

/// A filter that wraps another filter but refuses to steal across NUMA nodes.
///
/// **Deliberately unsound** with respect to work conservation: if every
/// overloaded core sits on a remote node, an idle core filters out all of
/// them and stays idle forever.  Used by experiment E12 and the verifier's
/// negative tests to show why hierarchy must not live in step 1.
#[derive(Debug, Clone)]
pub struct NodeRestrictedFilter<F> {
    inner: F,
}

impl<F: FilterPolicy> NodeRestrictedFilter<F> {
    /// Wraps `inner`, restricting it to same-node victims.
    pub fn new(inner: F) -> Self {
        NodeRestrictedFilter { inner }
    }
}

impl<F: FilterPolicy> FilterPolicy for NodeRestrictedFilter<F> {
    fn can_steal(&self, thief: &CoreSnapshot, victim: &CoreSnapshot) -> bool {
        thief.node == victim.node && self.inner.can_steal(thief, victim)
    }

    fn name(&self) -> &'static str {
        "node_restricted_filter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::simple::DeltaFilter;
    use crate::snapshot::SystemSnapshot;
    use crate::system::SystemState;
    use crate::task::{Task, TaskId};
    use sched_topology::TopologyBuilder;

    fn two_node_system() -> SystemState {
        SystemState::with_topology(&TopologyBuilder::new().sockets(2).cores_per_socket(2).build())
    }

    #[test]
    fn group_aware_prefers_the_most_loaded_node() {
        let mut system = two_node_system();
        // Node 0 (cores 0,1): thief plus a core with 2 threads.
        // Node 1 (cores 2,3): two cores with 2 and 3 threads — the heavier group.
        let mut next = 0u64;
        let mut add = |sys: &mut SystemState, core: usize, n: usize| {
            for _ in 0..n {
                sys.core_mut(CoreId(core)).enqueue(Task::new(TaskId(next)));
                next += 1;
            }
        };
        add(&mut system, 1, 2);
        add(&mut system, 2, 2);
        add(&mut system, 3, 3);
        let snap = SystemSnapshot::capture(&system);
        let choice = GroupAwareChoice::new(LoadMetric::NrThreads);
        let chosen = choice.choose(snap.core(CoreId(0)), &snap.others(CoreId(0))).unwrap();
        assert_eq!(chosen, CoreId(3), "heaviest core of the heaviest group");
    }

    #[test]
    fn group_aware_returns_none_for_no_candidates() {
        let system = two_node_system();
        let snap = SystemSnapshot::capture(&system);
        let choice = GroupAwareChoice::new(LoadMetric::NrThreads);
        assert_eq!(choice.choose(snap.core(CoreId(0)), &[]), None);
    }

    #[test]
    fn node_restricted_filter_blocks_cross_node_steals() {
        let mut system = two_node_system();
        for i in 0..3 {
            system.core_mut(CoreId(3)).enqueue(Task::new(TaskId(i)));
        }
        let snap = SystemSnapshot::capture(&system);
        let unrestricted = DeltaFilter::listing1();
        let restricted = NodeRestrictedFilter::new(DeltaFilter::listing1());
        // Core 0 is on node 0, core 3 on node 1: the plain filter allows the
        // steal, the node-restricted one forbids it — which is precisely the
        // work-conservation violation E12 demonstrates.
        assert!(unrestricted.can_steal(snap.core(CoreId(0)), snap.core(CoreId(3))));
        assert!(!restricted.can_steal(snap.core(CoreId(0)), snap.core(CoreId(3))));
        // Same-node stealing is still permitted.
        assert!(restricted.can_steal(snap.core(CoreId(2)), snap.core(CoreId(3))));
    }
}
