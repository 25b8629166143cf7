//! Read-only load snapshots used by the lock-less selection phase.
//!
//! "In our model, the selection phase may not modify runqueues, and all
//! accesses to shared variables must be read-only." (§3.1)  This module
//! enforces that constraint *by construction*: filter and choice policies
//! only ever see [`CoreSnapshot`] values, which carry no reference back to
//! the mutable [`crate::SystemState`], so they cannot modify any runqueue.
//!
//! Because the selection phase is optimistic, a snapshot may be stale by the
//! time the stealing phase runs; the balancer re-checks the filter against
//! the live state before migrating (Listing 1, line 12).

use sched_topology::NodeId;

use crate::core_state::CoreState;
use crate::load::LoadMetric;
use crate::round::RoundState;
use crate::tracker::round_scaled;
use crate::CoreId;

/// An immutable observation of one core, taken during the selection phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreSnapshot {
    /// Core the observation describes.
    pub id: CoreId,
    /// NUMA node of the core.
    pub node: NodeId,
    /// Number of threads observed (current plus runqueue).
    pub nr_threads: u64,
    /// Weighted load observed.
    pub weighted_load: u64,
    /// Weight of the lightest thread waiting in the runqueue, if any.
    ///
    /// Weighted filters need this to guarantee that stealing the lightest
    /// waiting thread still strictly reduces the weighted imbalance (the P2
    /// potential argument of §4.3).
    pub lightest_ready_weight: Option<u64>,
    /// The tracker-maintained load average observed, scaled by
    /// [`crate::tracker::TRACK_SCALE`] (see [`crate::tracker`]).
    pub tracked_scaled: u64,
    /// Number of the observed threads parked in the core's shared overflow
    /// injector (zero on substrates without one — the model, the simulator
    /// and the mutex runqueues).
    ///
    /// Injector residents are already counted in `nr_threads` /
    /// `weighted_load`; this field only exposes *where* they sit.  Deep
    /// injectors are the cheapest steal source there is — a thief claims a
    /// whole batch under one uncontended lock round-trip instead of racing
    /// CASes on a hot ring — so injector-aware choice policies prefer such
    /// victims at equal distance.
    pub injected: u64,
}

impl CoreSnapshot {
    /// Captures a snapshot of `core`.
    pub fn capture(core: &CoreState) -> Self {
        CoreSnapshot {
            id: core.id,
            node: core.node,
            nr_threads: core.nr_threads(),
            weighted_load: core.weighted_load(),
            lightest_ready_weight: core.lightest_ready_weight().map(|w| w.raw()),
            tracked_scaled: core.tracked.scaled,
            injected: 0,
        }
    }

    /// Load of the observed core under the given metric.
    pub fn load(&self, metric: LoadMetric) -> u64 {
        match metric {
            LoadMetric::NrThreads => self.nr_threads,
            LoadMetric::Weighted => self.weighted_load,
            LoadMetric::Tracked => round_scaled(self.tracked_scaled),
        }
    }

    /// Returns `true` if the observed core looked idle.
    pub fn is_idle(&self) -> bool {
        self.nr_threads == 0
    }

    /// Returns `true` if the observed core looked overloaded.
    pub fn is_overloaded(&self) -> bool {
        self.nr_threads >= 2
    }
}

/// An immutable observation of every core, taken during the selection phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemSnapshot {
    cores: Vec<CoreSnapshot>,
}

impl SystemSnapshot {
    /// Captures a snapshot of every core of `state`: the model's
    /// [`crate::SystemState`], or any other state a round balances.
    pub fn capture<S: RoundState>(state: &S) -> Self {
        SystemSnapshot { cores: (0..state.nr_cores()).map(|c| state.snapshot(CoreId(c))).collect() }
    }

    /// The observation of one core.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn core(&self, id: CoreId) -> &CoreSnapshot {
        &self.cores[id.0]
    }

    /// All observations, in id order.
    pub fn cores(&self) -> &[CoreSnapshot] {
        &self.cores
    }

    /// Number of observed cores.
    pub fn nr_cores(&self) -> usize {
        self.cores.len()
    }

    /// Observations of every core except `thief`, in id order.
    ///
    /// This is the "All cores" input of Figure 1's step 1.
    pub fn others(&self, thief: CoreId) -> Vec<CoreSnapshot> {
        self.cores.iter().filter(|c| c.id != thief).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemState;

    #[test]
    fn snapshot_reflects_loads_at_capture_time() {
        let mut system = SystemState::from_loads(&[0, 3]);
        let snap = SystemSnapshot::capture(&system);
        assert!(snap.core(CoreId(0)).is_idle());
        assert!(snap.core(CoreId(1)).is_overloaded());
        assert_eq!(snap.core(CoreId(1)).nr_threads, 3);

        // Mutating the system afterwards does not affect the snapshot:
        // the selection phase works on stale, optimistic data.
        let t = system.core(CoreId(1)).task_ids()[1];
        system.migrate(CoreId(1), CoreId(0), t);
        assert_eq!(snap.core(CoreId(1)).nr_threads, 3);
        assert_eq!(system.core(CoreId(1)).nr_threads(), 2);
    }

    #[test]
    fn others_excludes_the_thief() {
        let system = SystemState::from_loads(&[1, 1, 1]);
        let snap = SystemSnapshot::capture(&system);
        let others = snap.others(CoreId(1));
        assert_eq!(others.len(), 2);
        assert!(others.iter().all(|c| c.id != CoreId(1)));
    }

    #[test]
    fn snapshot_load_respects_metric() {
        let system = SystemState::from_loads(&[2]);
        let snap = SystemSnapshot::capture(&system);
        assert_eq!(snap.core(CoreId(0)).load(LoadMetric::NrThreads), 2);
        assert_eq!(snap.core(CoreId(0)).load(LoadMetric::Weighted), 2048);
        assert_eq!(snap.nr_cores(), 1);
    }
}
