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
//! steal threshold and a per-level failure backoff.
//!
//! Two properties keep the proofs intact:
//!
//! * **Thresholds bias, they never block.**  A level's threshold demands a
//!   bigger imbalance before stealing across that boundary, but if *no*
//!   level meets its threshold the search falls back to the nearest
//!   candidate anyway: the choice returns `Some` whenever the candidate
//!   list is non-empty, which is all the proofs require of step 2.
//! * **Backoff deprioritises, it never excludes.**  A level whose steals
//!   keep failing their re-check (contended victims) is pushed to the back
//!   of the search order for a few rounds, but its candidates remain
//!   eligible through the fallback.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use sched_topology::{MachineTopology, StealLevel};

use crate::load::LoadMetric;
use crate::policy::ChoicePolicy;
use crate::snapshot::CoreSnapshot;
use crate::CoreId;

/// Minimum load surplus (`victim − thief`) demanded before stealing across
/// each boundary, indexed by [`StealLevel`].
///
/// The defaults mirror Listing 1's `delta >= 2` for every local level and
/// demand twice that before paying a cross-node migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelThresholds {
    deltas: [u64; 4],
}

impl Default for LevelThresholds {
    fn default() -> Self {
        LevelThresholds { deltas: [2, 2, 2, 4] }
    }
}

impl LevelThresholds {
    /// Explicit per-level thresholds, innermost first.
    pub fn new(smt: u64, llc: u64, node: u64, remote: u64) -> Self {
        LevelThresholds { deltas: [smt, llc, node, remote] }
    }

    /// A uniform threshold: every level behaves like Listing 1.
    pub fn uniform(delta: u64) -> Self {
        LevelThresholds { deltas: [delta; 4] }
    }

    /// The surplus demanded at `level`.
    pub fn delta(&self, level: StealLevel) -> u64 {
        self.deltas[level.index()]
    }
}

/// How many consecutive failed steals at one level push that level to the
/// back of the search order.
const BACKOFF_AFTER: u32 = 3;

/// The distance-ordered, threshold-gated, backoff-aware choice policy.
///
/// Shared by all three backends: the pure model executes it inside
/// [`crate::round::ConcurrentRound`], the simulator inside its balance
/// rounds, and the real-thread runqueues inside `MultiQueue::balance_once` —
/// the identical policy object at every altitude.
#[derive(Debug)]
pub struct TopologyAwareChoice {
    topo: Arc<MachineTopology>,
    metric: LoadMetric,
    thresholds: LevelThresholds,
    /// Consecutive re-check failures per level, fed by
    /// [`ChoicePolicy::observe`]; reset on any success at that level.
    failure_streaks: [AtomicU32; 4],
}

impl TopologyAwareChoice {
    /// Creates the policy with default thresholds.
    pub fn new(topo: Arc<MachineTopology>, metric: LoadMetric) -> Self {
        Self::with_thresholds(topo, metric, LevelThresholds::default())
    }

    /// Creates the policy with explicit per-level thresholds.
    pub fn with_thresholds(
        topo: Arc<MachineTopology>,
        metric: LoadMetric,
        thresholds: LevelThresholds,
    ) -> Self {
        TopologyAwareChoice {
            topo,
            metric,
            thresholds,
            failure_streaks: [const { AtomicU32::new(0) }; 4],
        }
    }

    /// The machine this policy searches over.
    pub fn topology(&self) -> &Arc<MachineTopology> {
        &self.topo
    }

    /// Current consecutive-failure streak of `level` (for tests and stats).
    pub fn failure_streak(&self, level: StealLevel) -> u32 {
        self.failure_streaks[level.index()].load(Ordering::Relaxed)
    }

    /// Returns `true` if `level` is currently deprioritised.
    fn backed_off(&self, level: StealLevel) -> bool {
        self.failure_streak(level) >= BACKOFF_AFTER
    }

    /// The best candidate of one level: deepest injector first, then most
    /// loaded, ties to the lowest id.
    ///
    /// The injector key makes the choice **injector-aware**: a victim whose
    /// waiting work sits in its shared overflow injector is the cheapest
    /// steal there is — a thief claims a whole batch under one uncontended
    /// lock round-trip — while a victim whose work sits in a hot ring makes
    /// every thief race CASes against the owner and each other.  Preferring
    /// depth over raw load routes thieves away from those CAS storms.  On
    /// substrates without injectors every snapshot reports `injected == 0`,
    /// and the ordering degenerates to the original most-loaded rule, so
    /// the model and the mutex backends are unaffected.  Like every step-2
    /// refinement, this is proof-preserving: the returned core is still a
    /// member of the filtered candidate list.
    fn best_of<'c>(&self, group: &[&'c CoreSnapshot]) -> Option<&'c CoreSnapshot> {
        group
            .iter()
            .max_by(|a, b| {
                a.injected
                    .cmp(&b.injected)
                    .then(a.load(self.metric).cmp(&b.load(self.metric)))
                    .then(b.id.cmp(&a.id))
            })
            .copied()
    }
}

impl ChoicePolicy for TopologyAwareChoice {
    fn choose(&self, thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId> {
        if candidates.is_empty() {
            return None;
        }
        // Bucket the filtered candidates by distance class.
        let mut by_level: [Vec<&CoreSnapshot>; 4] = [vec![], vec![], vec![], vec![]];
        for c in candidates {
            by_level[self.topo.steal_level(thief.id, c.id).index()].push(c);
        }

        // Preferred walk: innermost level first, skipping levels that are
        // backed off; a skipped level's streak decays by one so it rejoins
        // the walk after a few rounds even without an intervening success.
        let thief_load = thief.load(self.metric);
        let mut deferred: Vec<StealLevel> = Vec::new();
        for level in StealLevel::ALL {
            let group = &by_level[level.index()];
            if group.is_empty() {
                continue;
            }
            if self.backed_off(level) {
                // Saturating decay: concurrent thieves may race this, and a
                // plain fetch_sub could underflow past zero, pinning the
                // level in back-off forever.
                let _ = self.failure_streaks[level.index()].fetch_update(
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                    |s| Some(s.saturating_sub(1)),
                );
                deferred.push(level);
                continue;
            }
            if let Some(best) = self.best_of(group) {
                if best.load(self.metric) >= thief_load + self.thresholds.delta(level) {
                    return Some(best.id);
                }
            }
        }
        // Second chance for the backed-off levels, still in distance order.
        for level in deferred {
            if let Some(best) = self.best_of(&by_level[level.index()]) {
                if best.load(self.metric) >= thief_load + self.thresholds.delta(level) {
                    return Some(best.id);
                }
            }
        }
        // Fallback: no level met its threshold, but the filter admitted the
        // candidates — pick the nearest one so the choice never blocks a
        // steal the proofs count on.
        for level in StealLevel::ALL {
            if let Some(best) = self.best_of(&by_level[level.index()]) {
                return Some(best.id);
            }
        }
        unreachable!("candidates is non-empty, so some level has a best candidate")
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

    fn observe(&self, thief: CoreId, victim: CoreId, success: bool) {
        if thief == victim {
            return;
        }
        let idx = self.topo.steal_level(thief, victim).index();
        if success {
            self.failure_streaks[idx].store(0, Ordering::Relaxed);
        } else {
            self.failure_streaks[idx].fetch_add(1, Ordering::Relaxed);
        }
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
    use sched_topology::TopologyBuilder;

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

    #[test]
    fn repeated_failures_back_a_level_off() {
        let topo = rich_topo();
        // Sibling cpu1 and LLC-mate cpu2 both overloaded.
        let system = loaded_system(&topo, &[(1, 3), (2, 3)]);
        let choice = TopologyAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads);
        assert_eq!(choose_for(&choice, &system, 0), CoreId(1), "sibling wins at first");
        for _ in 0..BACKOFF_AFTER {
            choice.observe(CoreId(0), CoreId(1), false);
        }
        assert!(choice.backed_off(StealLevel::SmtSibling));
        assert_eq!(
            choose_for(&choice, &system, 0),
            CoreId(2),
            "a backed-off SMT level yields to the LLC level"
        );
        // A success at the SMT level clears the streak immediately.
        choice.observe(CoreId(0), CoreId(1), true);
        assert_eq!(choice.failure_streak(StealLevel::SmtSibling), 0);
        assert_eq!(choose_for(&choice, &system, 0), CoreId(1));
    }

    #[test]
    fn backoff_decays_without_successes() {
        let topo = rich_topo();
        let system = loaded_system(&topo, &[(1, 3), (2, 3)]);
        let choice = TopologyAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads);
        for _ in 0..BACKOFF_AFTER {
            choice.observe(CoreId(0), CoreId(1), false);
        }
        // Each skipped walk decays the streak by one; after BACKOFF_AFTER
        // choices the level is eligible again.
        for _ in 0..BACKOFF_AFTER {
            let _ = choose_for(&choice, &system, 0);
        }
        assert_eq!(choose_for(&choice, &system, 0), CoreId(1));
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
    fn uniform_thresholds_match_numa_aware_preference() {
        let topo = rich_topo();
        let system = loaded_system(&topo, &[(4, 2), (8, 5)]);
        let choice = TopologyAwareChoice::with_thresholds(
            Arc::clone(&topo),
            LoadMetric::NrThreads,
            LevelThresholds::uniform(2),
        );
        // With a uniform threshold the node-local victim still wins: the
        // search is distance-ordered, not load-ordered.
        assert_eq!(choose_for(&choice, &system, 0), CoreId(4));
    }
}
