//! Distance-ordered victim search: the topology-aware step-2 choice.
//!
//! The "wasted cores" family of bugs is a family of *topology* bugs:
//! balancing logic that either ignores NUMA distance (shredding locality on
//! every steal) or hard-codes it into the filter (starving idle cores next
//! to overloaded remote nodes).  [`TopologyAwareChoice`] threads the needle
//! the way the paper prescribes (§3.1, §5): all topology awareness lives in
//! the **choice** step, so every work-conservation lemma carries over
//! unchanged, while victims are searched in distance order —
//! SMT sibling → same LLC → same node → remote node — with a per-level
//! steal threshold.
//!
//! The choice is a pure function of the thief and the candidate list: it
//! keeps no memory between calls, so the same snapshot always yields the
//! same victim on every substrate.  **Thresholds bias, they never block.**
//! A level's threshold demands a bigger imbalance before stealing across
//! that boundary, but if *no* level meets its threshold the search falls
//! back to the nearest candidate anyway: the choice returns `Some` whenever
//! the candidate list is non-empty, which is all the proofs require of
//! step 2.

use std::cmp::Reverse;
use std::sync::Arc;

use sched_topology::MachineTopology;

use crate::load::LoadMetric;
use crate::policy::ChoicePolicy;
use crate::snapshot::CoreSnapshot;
use crate::CoreId;

/// Minimum load surplus (`victim − thief`) demanded before stealing across
/// each boundary, indexed by [`sched_topology::StealLevel::index`]:
/// Listing 1's `delta >= 2` at every local level, and twice that before
/// paying a cross-node migration.
const LEVEL_DELTAS: [u64; 4] = [2, 2, 2, 4];

/// The distance-ordered, threshold-gated choice policy.
///
/// Shared by every substrate: the pure model and the simulator execute it
/// inside [`crate::round::ConcurrentRound`], the real-thread runqueues
/// inside `MultiQueue::balance_once` and the executor in its workers' steal
/// path — the identical policy object at every altitude.
#[derive(Debug)]
pub struct TopologyAwareChoice {
    topo: Arc<MachineTopology>,
    metric: LoadMetric,
    /// Every pair of distinct cores of `topo` shares one steal level, so
    /// the search has one level and its best is the answer.
    one_level: bool,
}

impl TopologyAwareChoice {
    /// Creates the policy for `topo`, measuring loads in `metric`.
    ///
    /// Checks once whether every pair of distinct cores shares one steal
    /// level (a flat machine): then there is one level to search, and over
    /// thread counts the choice makes the index claim
    /// ([`ChoicePolicy::picks_most_threads`]).
    pub fn new(topo: Arc<MachineTopology>, metric: LoadMetric) -> Self {
        let cpus = topo.cpus();
        let level = |a: usize, b: usize| topo.steal_level(cpus[a].id, cpus[b].id);
        let one_level = cpus.len() < 2 || {
            let first = level(0, 1);
            (0..cpus.len()).all(|a| (0..cpus.len()).all(|b| a == b || level(a, b) == first))
        };
        TopologyAwareChoice { topo, metric, one_level }
    }
}

impl ChoicePolicy for TopologyAwareChoice {
    /// One pass, no allocation: the best candidate of each distance level,
    /// then the nearest level whose best meets its threshold — or, if none
    /// does, the nearest level's best (thresholds never block a steal the
    /// proofs count on).
    ///
    /// A level's best is the deepest injector first, then the most loaded,
    /// ties to the lowest id.  The injector key makes the choice
    /// **injector-aware**: a victim whose waiting work sits in its shared
    /// overflow injector is the cheapest steal there is — a thief claims a
    /// whole batch under one uncontended lock round-trip — while a victim
    /// whose work sits in a hot ring makes every thief race CASes against
    /// the owner and each other.  On substrates without injectors every
    /// snapshot reports `injected == 0`, and the ordering degenerates to the
    /// most-loaded rule, so the model and the mutex backends are unaffected.
    /// Like every step-2 refinement, this is proof-preserving: the returned
    /// core is still a member of the filtered candidate list.
    fn choose(&self, thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId> {
        let rank = |c: &CoreSnapshot| (c.injected, c.load(self.metric), Reverse(c.id));
        let mut best: [Option<&CoreSnapshot>; 4] = [None; 4];
        for c in candidates {
            let slot = &mut best[self.topo.steal_level(thief.id, c.id).index()];
            if slot.is_none_or(|b| rank(c) > rank(b)) {
                *slot = Some(c);
            }
        }
        let thief_load = thief.load(self.metric);
        best.iter()
            .zip(LEVEL_DELTAS)
            .find_map(|(b, delta)| b.filter(|b| b.load(self.metric) >= thief_load + delta))
            .or_else(|| best.into_iter().flatten().next())
            .map(|b| b.id)
    }

    /// Topology-aware wakeup placement: the previous core while it is idle
    /// (cache warmth is worth more than any balance heuristic), then the
    /// *nearest* idle core in distance order — SMT sibling → LLC → node →
    /// remote — with idleness ties inside a level broken by the lowest
    /// **tracked** load, then the lowest id.  The tracked tie-break is the
    /// point: an instantaneously idle core that was busy a millisecond ago
    /// still carries decayed load, and a waking task placed there just
    /// collides with the next blip; the core whose tracked load is lowest
    /// has genuinely been idle.  With no idle core at all, fall back to the
    /// least-tracked-loaded candidate anywhere.
    ///
    /// One pass and no allocation: this runs once per submitted task.
    fn place_wakeup(&self, prev: CoreId, candidates: &[CoreSnapshot]) -> Option<CoreId> {
        let key = |c: &CoreSnapshot| (c.tracked_scaled, c.id.0);
        let keep_min = |best: &mut Option<(u64, usize)>, c: &CoreSnapshot| {
            if best.is_none_or(|b| key(c) < b) {
                *best = Some(key(c));
            }
        };
        // The quietest idle core of each distance class, and the quietest
        // core of all for the no-idle-core fallback (where distance is
        // moot, so a busy `prev` competes there too).
        let mut idle_at: [Option<(u64, usize)>; 4] = [None; 4];
        let mut quietest = None;
        for c in candidates {
            if c.is_idle() {
                if c.id == prev {
                    return Some(prev);
                }
                keep_min(&mut idle_at[self.topo.steal_level(prev, c.id).index()], c);
            }
            keep_min(&mut quietest, c);
        }
        idle_at.into_iter().flatten().next().or(quietest).map(|(_, id)| CoreId(id))
    }

    /// With one level the search above keeps a single best — deepest
    /// injector, then most loaded, then lowest id — and returns it whether
    /// or not it meets the level's threshold: on snapshots with
    /// `injected == 0`, the most threads, lowest id among equals.
    fn picks_most_threads(&self) -> bool {
        self.one_level && self.metric == LoadMetric::NrThreads
    }

    fn name(&self) -> &'static str {
        "topology_aware"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SystemSnapshot;
    use crate::system::SystemState;
    use crate::task::{Task, TaskId};
    use sched_topology::{StealLevel, TopologyBuilder};

    /// 2 sockets × 4 cores × 2 LLCs × SMT-2 = 16 CPUs; cpu0's sibling is
    /// cpu1, its LLC is cpus 0..4, its node cpus 0..8.
    fn rich_topo() -> Arc<MachineTopology> {
        Arc::new(
            TopologyBuilder::new().sockets(2).cores_per_socket(4).llcs_per_socket(2).smt(2).build(),
        )
    }

    fn loaded_system(topo: &Arc<MachineTopology>, loads: &[(usize, usize)]) -> SystemState {
        let mut system = SystemState::with_topology(topo);
        let mut next = 0u64;
        for &(core, n) in loads {
            for _ in 0..n {
                system.core_mut(CoreId(core)).enqueue(Task::new(TaskId(next)));
                next += 1;
            }
        }
        system
    }

    /// Mirrors the selection phase: filter with Listing 1, then choose.
    fn choose_for(choice: &TopologyAwareChoice, system: &SystemState, thief: usize) -> CoreId {
        use crate::policy::{DeltaFilter, FilterPolicy};
        let snap = SystemSnapshot::capture(system);
        let thief_snap = *snap.core(CoreId(thief));
        let filter = DeltaFilter::listing1();
        let candidates: Vec<_> = snap
            .others(CoreId(thief))
            .into_iter()
            .filter(|v| filter.can_steal(&thief_snap, v))
            .collect();
        choice.choose(&thief_snap, &candidates).unwrap()
    }

    #[test]
    fn prefers_the_closest_loaded_level() {
        let topo = rich_topo();
        // Equal overloads at every distance from cpu0: sibling (1), LLC (2),
        // node (4), remote (8) — the sibling must win.
        let system = loaded_system(&topo, &[(1, 3), (2, 3), (4, 3), (8, 3)]);
        let choice = TopologyAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads);
        assert_eq!(choose_for(&choice, &system, 0), CoreId(1));
    }

    #[test]
    fn remote_threshold_defers_to_a_local_victim() {
        let topo = rich_topo();
        // Remote cpu8 has 3 threads (below the remote threshold of 4),
        // node-local cpu4 has 2 (meets the local threshold): stay local even
        // though the remote victim is more loaded.
        let system = loaded_system(&topo, &[(4, 2), (8, 3)]);
        let choice = TopologyAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads);
        assert_eq!(choose_for(&choice, &system, 0), CoreId(4));
    }

    #[test]
    fn falls_back_rather_than_blocking() {
        let topo = rich_topo();
        // Only a remote victim exists and it is below the remote threshold:
        // the choice must still return it (thresholds bias, never block).
        let system = loaded_system(&topo, &[(8, 3)]);
        let choice = TopologyAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads);
        assert_eq!(choose_for(&choice, &system, 0), CoreId(8));
    }

    #[test]
    fn never_returns_none_for_nonempty_candidates() {
        let topo = rich_topo();
        let system = loaded_system(&topo, &[(5, 2)]);
        let snap = SystemSnapshot::capture(&system);
        let choice = TopologyAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads);
        let candidates = snap.others(CoreId(0));
        // Unfiltered candidate list, almost all idle: still Some.
        assert!(choice.choose(snap.core(CoreId(0)), &candidates).is_some());
        assert_eq!(choice.choose(snap.core(CoreId(0)), &[]), None);
    }

    /// The one-pass choice against the walk it replaced, written the
    /// obvious way: bucket the candidates by level, take each bucket's
    /// best, return the nearest best that meets its threshold, else the
    /// nearest best.  Seeded candidate lists over every thief of the
    /// 16-CPU machine, injector depths included.
    #[test]
    fn one_pass_matches_the_bucketed_walk() {
        let topo = rich_topo();
        let choice = TopologyAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads);
        let walk = |thief: &CoreSnapshot, candidates: &[CoreSnapshot]| {
            let by_level = StealLevel::ALL.map(|level| {
                candidates
                    .iter()
                    .filter(|c| topo.steal_level(thief.id, c.id) == level)
                    .max_by_key(|c| (c.injected, c.nr_threads, std::cmp::Reverse(c.id)))
            });
            let meeting = (0..4).find(|&i| {
                by_level[i].is_some_and(|b| b.nr_threads >= thief.nr_threads + LEVEL_DELTAS[i])
            });
            match meeting {
                Some(i) => by_level[i].map(|b| b.id),
                None => by_level.into_iter().flatten().next().map(|b| b.id),
            }
        };
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        let snap = |id: usize, nr_threads: u64, injected: u64| CoreSnapshot {
            id: CoreId(id),
            node: topo.cpus()[id].node,
            nr_threads,
            weighted_load: nr_threads * 1024,
            lightest_ready_weight: None,
            tracked_scaled: 0,
            injected,
        };
        for _ in 0..2_000 {
            let thief = snap(next(16) as usize, next(3), 0);
            let mut candidates = Vec::new();
            for id in (0..16).filter(|&id| id != thief.id.0) {
                if next(2) == 0 {
                    candidates.push(snap(id, next(8), next(3).saturating_sub(1)));
                }
            }
            assert_eq!(choice.choose(&thief, &candidates), walk(&thief, &candidates));
        }
    }

    #[test]
    fn a_deep_injector_outranks_a_hot_ring_within_a_level() {
        let topo = rich_topo();
        let choice = TopologyAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads);
        let snap = |id: usize, nr_threads: u64, injected: u64| CoreSnapshot {
            id: CoreId(id),
            node: topo.cpus()[id].node,
            nr_threads,
            weighted_load: nr_threads * 1024,
            lightest_ready_weight: (nr_threads > 1).then_some(1024),
            tracked_scaled: 0,
            injected,
        };
        let thief = snap(0, 0, 0);
        // Same LLC, both overloaded: cpu3 is *less* loaded but its waiting
        // work sits in its injector — one uncontended batched lock claim —
        // while cpu2's work is all in a hot ring.  The choice must route
        // the thief to the injector.
        let candidates = [snap(2, 6, 0), snap(3, 5, 4)];
        assert_eq!(choice.choose(&thief, &candidates), Some(CoreId(3)));
        // With injectors equal (here: both empty), the original
        // most-loaded rule decides — zero-injector substrates see no
        // behaviour change from injector awareness.
        let candidates = [snap(2, 6, 0), snap(3, 5, 0)];
        assert_eq!(choice.choose(&thief, &candidates), Some(CoreId(2)));
        // Distance still dominates: a remote deep injector does not beat a
        // local victim that meets its level threshold.
        let candidates = [snap(2, 6, 0), snap(8, 6, 8)];
        assert_eq!(choice.choose(&thief, &candidates), Some(CoreId(2)));
    }

    #[test]
    fn place_wakeup_breaks_idleness_ties_by_tracked_load() {
        let topo = rich_topo();
        let choice = TopologyAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads);
        let snap = |id: usize, nr_threads: u64, tracked_scaled: u64| CoreSnapshot {
            id: CoreId(id),
            node: topo.cpus()[id].node,
            nr_threads,
            weighted_load: nr_threads * 1024,
            lightest_ready_weight: None,
            tracked_scaled,
            injected: 0,
        };
        // cpu2 and cpu3 share cpu0's LLC and both look idle *right now*,
        // but cpu2 was busy a moment ago (high decayed load) while cpu3 has
        // genuinely been idle.  The instantaneous queue length cannot tell
        // them apart; the tracked load must.
        let candidates = [snap(2, 0, 900), snap(3, 0, 10)];
        assert_eq!(choice.place_wakeup(CoreId(0), &candidates), Some(CoreId(3)));
        // The previous core wins outright while idle, whatever its history.
        let candidates = [snap(0, 0, 900), snap(3, 0, 10)];
        assert_eq!(choice.place_wakeup(CoreId(0), &candidates), Some(CoreId(0)));
        // Distance outranks the tie-break: a same-LLC idle core beats a
        // remote one that is even quieter.
        let candidates = [snap(2, 0, 100), snap(8, 0, 0)];
        assert_eq!(choice.place_wakeup(CoreId(0), &candidates), Some(CoreId(2)));
        // No idle core at all: least tracked load anywhere.
        let candidates = [snap(2, 2, 500), snap(8, 1, 50)];
        assert_eq!(choice.place_wakeup(CoreId(0), &candidates), Some(CoreId(8)));
    }

    #[test]
    fn default_place_wakeup_also_prefers_tracked_idleness() {
        use crate::policy::FirstChoice;
        let mk = |id: usize, nr_threads: u64, tracked_scaled: u64| CoreSnapshot {
            id: CoreId(id),
            node: sched_topology::NodeId(0),
            nr_threads,
            weighted_load: nr_threads * 1024,
            lightest_ready_weight: None,
            tracked_scaled,
            injected: 0,
        };
        let candidates = [mk(1, 0, 700), mk(2, 0, 3)];
        assert_eq!(FirstChoice.place_wakeup(CoreId(0), &candidates), Some(CoreId(2)));
        assert_eq!(FirstChoice.place_wakeup(CoreId(0), &[]), None);
    }

    #[test]
    fn only_a_one_level_machine_claims_the_index() {
        let flat = |n| Arc::new(TopologyBuilder::new().sockets(1).cores_per_socket(n).build());
        for n in [1, 2, 64] {
            let choice = TopologyAwareChoice::new(flat(n), LoadMetric::NrThreads);
            assert!(choice.picks_most_threads(), "flat({n})");
        }
        assert!(!TopologyAwareChoice::new(flat(64), LoadMetric::Weighted).picks_most_threads());
        assert!(!TopologyAwareChoice::new(rich_topo(), LoadMetric::NrThreads).picks_most_threads());
        let two_nodes = Arc::new(TopologyBuilder::new().sockets(2).cores_per_socket(2).build());
        assert!(!TopologyAwareChoice::new(two_nodes, LoadMetric::NrThreads).picks_most_threads());
    }

    #[test]
    fn uniform_thresholds_match_numa_aware_preference() {
        let topo = rich_topo();
        let system = loaded_system(&topo, &[(4, 2), (8, 5)]);
        let choice = TopologyAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads);
        // The remote cpu8 meets even the remote threshold, as it would under
        // a uniform one, and the node-local victim still wins: the search is
        // distance-ordered, not load-ordered.
        assert_eq!(choose_for(&choice, &system, 0), CoreId(4));
    }
}
