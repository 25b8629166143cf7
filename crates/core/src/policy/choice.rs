//! Step-2 choice policies.
//!
//! "The exact choice of the core does not matter for the correctness proof.
//! This provides a notable simplification of the proving effort as the
//! counterpart of the choice step in legacy OSes usually contains all the
//! complex heuristics used to perform smart thread placement (e.g., giving
//! priority to some core to improve cache locality, NUMA-aware decisions,
//! etc.)." (§3.1)
//!
//! Every policy here only promises to return a member of the candidate list;
//! experiment E1 verifies that swapping any of them in or out leaves every
//! lemma intact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sched_topology::MachineTopology;

use crate::load::LoadMetric;
use crate::policy::ChoicePolicy;
use crate::snapshot::CoreSnapshot;
use crate::CoreId;

/// Picks the first candidate (lowest core id).  The simplest valid choice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FirstChoice;

impl ChoicePolicy for FirstChoice {
    fn choose(&self, _thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId> {
        candidates.first().map(|c| c.id)
    }

    fn name(&self) -> &'static str {
        "first"
    }
}

/// Picks the most loaded candidate, breaking ties towards the lowest id.
///
/// This mirrors CFS's `find_busiest_queue` heuristic and is the default
/// choice step of [`crate::Policy::simple`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxLoadChoice {
    metric: LoadMetric,
}

impl MaxLoadChoice {
    /// Creates the choice policy for the given metric.
    pub fn new(metric: LoadMetric) -> Self {
        MaxLoadChoice { metric }
    }
}

impl ChoicePolicy for MaxLoadChoice {
    fn choose(&self, _thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId> {
        candidates
            .iter()
            .max_by(|a, b| a.load(self.metric).cmp(&b.load(self.metric)).then(b.id.cmp(&a.id)))
            .map(|c| c.id)
    }

    /// Over thread counts the ordering above is the claim itself.
    fn picks_most_threads(&self) -> bool {
        self.metric == LoadMetric::NrThreads
    }

    fn name(&self) -> &'static str {
        "max_load"
    }
}

/// Picks a pseudo-random candidate from a deterministic internal stream.
///
/// The stream is a [`crate::splitmix64`] generator seeded at construction, so
/// runs are reproducible; randomness models policies that deliberately spread
/// stealing pressure across victims.
#[derive(Debug)]
pub struct RandomChoice {
    state: AtomicU64,
}

impl RandomChoice {
    /// Creates the policy with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomChoice { state: AtomicU64::new(seed) }
    }

    fn next(&self) -> u64 {
        crate::splitmix64(self.state.fetch_add(crate::SPLITMIX64_GAMMA, Ordering::Relaxed))
    }
}

impl ChoicePolicy for RandomChoice {
    fn choose(&self, _thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId> {
        if candidates.is_empty() {
            return None;
        }
        let idx = (self.next() % candidates.len() as u64) as usize;
        Some(candidates[idx].id)
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Prefers candidates on the thief's own NUMA node, then nearer nodes, and
/// only then remote ones; within a distance class, prefers the most loaded.
///
/// This is the "NUMA-aware thread placement" heuristic the paper cites as a
/// requirement for realistic schedulers (§1) and as a free extension in
/// step 2 (§5).
#[derive(Debug, Clone)]
pub struct NumaAwareChoice {
    topo: Arc<MachineTopology>,
    metric: LoadMetric,
}

impl NumaAwareChoice {
    /// Creates the policy for the given machine topology.
    pub fn new(topo: Arc<MachineTopology>, metric: LoadMetric) -> Self {
        NumaAwareChoice { topo, metric }
    }
}

impl ChoicePolicy for NumaAwareChoice {
    fn choose(&self, thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId> {
        candidates
            .iter()
            .min_by(|a, b| {
                let da = self.topo.distances().distance(thief.node, a.node);
                let db = self.topo.distances().distance(thief.node, b.node);
                da.cmp(&db)
                    .then(b.load(self.metric).cmp(&a.load(self.metric)))
                    .then(a.id.cmp(&b.id))
            })
            .map(|c| c.id)
    }

    fn name(&self) -> &'static str {
        "numa_aware"
    }
}

/// Picks the candidate with the lowest thread-migration cost (same LLC before
/// same node before remote node), breaking ties towards the most loaded.
///
/// Models cache-locality-preserving stealing.
#[derive(Debug, Clone)]
pub struct MinMigrationCostChoice {
    topo: Arc<MachineTopology>,
    metric: LoadMetric,
}

impl MinMigrationCostChoice {
    /// Creates the policy for the given machine topology.
    pub fn new(topo: Arc<MachineTopology>, metric: LoadMetric) -> Self {
        MinMigrationCostChoice { topo, metric }
    }
}

impl ChoicePolicy for MinMigrationCostChoice {
    fn choose(&self, thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId> {
        candidates
            .iter()
            .min_by(|a, b| {
                let ca = self.topo.migration_cost(a.id, thief.id);
                let cb = self.topo.migration_cost(b.id, thief.id);
                ca.cmp(&cb)
                    .then(b.load(self.metric).cmp(&a.load(self.metric)))
                    .then(a.id.cmp(&b.id))
            })
            .map(|c| c.id)
    }

    fn name(&self) -> &'static str {
        "min_migration_cost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SystemSnapshot;
    use crate::system::SystemState;
    use sched_topology::TopologyBuilder;

    fn candidates(loads: &[usize], thief: usize) -> (CoreSnapshot, Vec<CoreSnapshot>) {
        let snap = SystemSnapshot::capture(&SystemState::from_loads(loads));
        (*snap.core(CoreId(thief)), snap.others(CoreId(thief)))
    }

    #[test]
    fn first_choice_picks_lowest_id() {
        let (thief, cands) = candidates(&[0, 2, 3], 0);
        assert_eq!(FirstChoice.choose(&thief, &cands), Some(CoreId(1)));
        assert_eq!(FirstChoice.choose(&thief, &[]), None);
    }

    #[test]
    fn max_load_picks_busiest_and_breaks_ties_low() {
        let (thief, cands) = candidates(&[0, 2, 5, 5], 0);
        assert_eq!(
            MaxLoadChoice::new(LoadMetric::NrThreads).choose(&thief, &cands),
            Some(CoreId(2))
        );
        assert!(MaxLoadChoice::new(LoadMetric::NrThreads).picks_most_threads());
        assert!(!MaxLoadChoice::new(LoadMetric::Weighted).picks_most_threads());
    }

    #[test]
    fn random_choice_is_deterministic_per_seed_and_stays_in_candidates() {
        let (thief, cands) = candidates(&[0, 2, 3, 4, 5], 0);
        let a = RandomChoice::new(42);
        let b = RandomChoice::new(42);
        let ids: Vec<_> = cands.iter().map(|c| c.id).collect();
        for _ in 0..32 {
            let ca = a.choose(&thief, &cands).unwrap();
            let cb = b.choose(&thief, &cands).unwrap();
            assert_eq!(ca, cb);
            assert!(ids.contains(&ca));
        }
    }

    #[test]
    fn numa_aware_prefers_local_node() {
        let topo = Arc::new(TopologyBuilder::new().sockets(2).cores_per_socket(2).build());
        let mut system = SystemState::with_topology(&topo);
        // Overload one core on each node; the thief is core 0 on node 0.
        for i in 0..2u64 {
            system.core_mut(CoreId(1)).enqueue(crate::Task::new(crate::TaskId(100 + i)));
            system.core_mut(CoreId(3)).enqueue(crate::Task::new(crate::TaskId(200 + i)));
        }
        let snap = SystemSnapshot::capture(&system);
        let policy = NumaAwareChoice::new(topo, LoadMetric::NrThreads);
        let chosen = policy.choose(snap.core(CoreId(0)), &snap.others(CoreId(0))).unwrap();
        assert_eq!(chosen, CoreId(1), "core 1 is on the thief's node");
    }

    #[test]
    fn min_migration_cost_prefers_same_llc() {
        let topo = Arc::new(
            TopologyBuilder::new().sockets(1).cores_per_socket(4).llcs_per_socket(2).build(),
        );
        let mut system = SystemState::with_topology(&topo);
        for core in [1usize, 2, 3] {
            for t in 0..2 {
                system
                    .core_mut(CoreId(core))
                    .enqueue(crate::Task::new(crate::TaskId((core * 10 + t) as u64)));
            }
        }
        let snap = SystemSnapshot::capture(&system);
        let policy = MinMigrationCostChoice::new(topo, LoadMetric::NrThreads);
        let chosen = policy.choose(snap.core(CoreId(0)), &snap.others(CoreId(0))).unwrap();
        assert_eq!(chosen, CoreId(1), "core 1 shares the LLC with core 0");
    }
}
