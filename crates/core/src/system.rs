//! Whole-system scheduler state.

use sched_topology::MachineTopology;

use crate::core_state::CoreState;
use crate::load::LoadMetric;
use crate::task::{Task, TaskId};
use crate::tracker::LoadTracker;
use crate::CoreId;

/// The scheduling state of every core of the machine.
///
/// This is the `(c₁, …, cₙ)` tuple of the paper's work-conservation
/// definition (§3.2).  The model's balancing operations and the model
/// checker manipulate values of this type; it is the model's
/// [`crate::RoundState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemState {
    cores: Vec<CoreState>,
}

impl SystemState {
    /// Creates a system of `nr_cores` idle cores, all on node 0.
    pub fn new(nr_cores: usize) -> Self {
        let cores = (0..nr_cores).map(|i| CoreState::new(CoreId(i))).collect();
        SystemState { cores }
    }

    /// Creates a system of idle cores whose node assignment follows the
    /// given machine topology.
    pub fn with_topology(topo: &MachineTopology) -> Self {
        let cores = topo.cpus().iter().map(|c| CoreState::on_node(c.id, c.node)).collect();
        SystemState { cores }
    }

    /// Creates a system where core `i` holds `loads[i]` freshly numbered
    /// `nice 0` threads (the first one running, the rest waiting).
    ///
    /// # Examples
    ///
    /// ```
    /// use sched_core::SystemState;
    ///
    /// let s = SystemState::from_loads(&[0, 3, 1]);
    /// assert!(s.core(sched_core::CoreId(0)).is_idle());
    /// assert!(s.core(sched_core::CoreId(1)).is_overloaded());
    /// assert_eq!(s.total_threads(), 4);
    /// ```
    pub fn from_loads(loads: &[usize]) -> Self {
        let mut system = SystemState::new(loads.len());
        let mut next_id = 0u64;
        for (i, &n) in loads.iter().enumerate() {
            for _ in 0..n {
                system.cores[i].enqueue(Task::new(TaskId(next_id)));
                next_id += 1;
            }
        }
        system
    }

    /// Number of cores in the system.
    pub fn nr_cores(&self) -> usize {
        self.cores.len()
    }

    /// Immutable access to one core.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn core(&self, id: CoreId) -> &CoreState {
        &self.cores[id.0]
    }

    /// Mutable access to one core.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn core_mut(&mut self, id: CoreId) -> &mut CoreState {
        &mut self.cores[id.0]
    }

    /// All cores, in id order.
    pub fn cores(&self) -> &[CoreState] {
        &self.cores
    }

    /// Ids of all cores.
    pub fn core_ids(&self) -> Vec<CoreId> {
        self.cores.iter().map(|c| c.id).collect()
    }

    /// Total number of threads in the system.
    pub fn total_threads(&self) -> u64 {
        self.cores.iter().map(CoreState::nr_threads).sum()
    }

    /// Per-core loads under the given metric, in id order.
    pub fn loads(&self, metric: LoadMetric) -> Vec<u64> {
        self.cores.iter().map(|c| c.load(metric)).collect()
    }

    /// Ids of all idle cores.
    pub fn idle_cores(&self) -> Vec<CoreId> {
        self.cores.iter().filter(|c| c.is_idle()).map(|c| c.id).collect()
    }

    /// Ids of all overloaded cores.
    pub fn overloaded_cores(&self) -> Vec<CoreId> {
        self.cores.iter().filter(|c| c.is_overloaded()).map(|c| c.id).collect()
    }

    /// Returns `true` if the system is in a work-conserving state
    /// ([`crate::is_work_conserving`] over the per-core thread counts).
    pub fn is_work_conserving(&self) -> bool {
        crate::is_work_conserving(self.cores.iter().map(CoreState::nr_threads))
    }

    /// Atomically migrates the waiting thread `task` from `from` to `to`.
    ///
    /// Returns `true` if the thread was present (and therefore moved).  The
    /// current thread of `from` is never migrated.  This is the only
    /// operation that modifies runqueues during a balancing round, which is
    /// what makes the failure analysis of §4.3 tractable.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`, which would be a scheduler bug.
    pub fn migrate(&mut self, from: CoreId, to: CoreId, task: TaskId) -> bool {
        assert_ne!(from, to, "a core cannot steal from itself");
        match self.cores[from.0].remove_ready(task) {
            Some(t) => {
                self.cores[to.0].push_ready(t);
                true
            }
            None => false,
        }
    }

    /// Advances every core's tracked load average to `now_ns` under
    /// `tracker` — the pure model's analogue of a scheduler tick.
    ///
    /// The model itself is timeless; drivers that balance on a decayed
    /// criterion ([`LoadMetric::Tracked`]) call this between balancing
    /// rounds with whatever logical clock they maintain.  For instantaneous
    /// trackers this simply mirrors the current loads into the tracked
    /// accumulators.
    pub fn tick(&mut self, now_ns: u64, tracker: &dyn LoadTracker) {
        for core in &mut self.cores {
            core.track(now_ns, tracker);
        }
    }

    /// Checks that every task id appears at most once in the whole system.
    ///
    /// The stealing phase is required to be atomic precisely so that "no two
    /// cores should be able to steal the same thread" (§3.1); this invariant
    /// is asserted throughout the test-suite and the model checker.
    pub fn tasks_are_unique(&self) -> bool {
        let mut ids: Vec<TaskId> = self.cores.iter().flat_map(|c| c.task_ids()).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        ids.len() == before
    }

    /// A compact `[load₀, load₁, …]` description used in traces and
    /// counterexample reports.
    pub fn load_vector_string(&self, metric: LoadMetric) -> String {
        let loads: Vec<String> = self.loads(metric).iter().map(u64::to_string).collect();
        format!("[{}]", loads.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_loads_assigns_unique_task_ids() {
        let s = SystemState::from_loads(&[2, 3, 0, 1]);
        assert_eq!(s.total_threads(), 6);
        assert!(s.tasks_are_unique());
        assert_eq!(s.loads(LoadMetric::NrThreads), vec![2, 3, 0, 1]);
    }

    #[test]
    fn work_conservation_predicate() {
        assert!(SystemState::from_loads(&[1, 1, 1]).is_work_conserving());
        assert!(SystemState::from_loads(&[0, 0, 0]).is_work_conserving());
        assert!(SystemState::from_loads(&[0, 1, 1]).is_work_conserving());
        assert!(!SystemState::from_loads(&[0, 2, 1]).is_work_conserving());
        // Overloaded but nobody idle: still work-conserving.
        assert!(SystemState::from_loads(&[1, 5, 1]).is_work_conserving());
    }

    #[test]
    fn idle_and_overloaded_sets() {
        let s = SystemState::from_loads(&[0, 2, 1, 3]);
        assert_eq!(s.idle_cores(), vec![CoreId(0)]);
        assert_eq!(s.overloaded_cores(), vec![CoreId(1), CoreId(3)]);
    }

    #[test]
    fn migrate_moves_a_waiting_thread() {
        let mut s = SystemState::from_loads(&[0, 3]);
        let victim_tasks = s.core(CoreId(1)).task_ids();
        let stolen = victim_tasks[2];
        assert!(s.migrate(CoreId(1), CoreId(0), stolen));
        assert_eq!(s.core(CoreId(0)).nr_threads(), 1);
        assert_eq!(s.core(CoreId(1)).nr_threads(), 2);
        assert!(s.tasks_are_unique());
        // A second migration of the same task must fail: it is gone.
        assert!(!s.migrate(CoreId(1), CoreId(0), stolen));
    }

    #[test]
    fn migrate_never_moves_the_current_thread() {
        let mut s = SystemState::from_loads(&[0, 1]);
        let running = s.core(CoreId(1)).current.as_ref().unwrap().id;
        assert!(!s.migrate(CoreId(1), CoreId(0), running));
        assert_eq!(s.core(CoreId(1)).nr_threads(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot steal from itself")]
    fn migrate_to_self_is_a_bug() {
        let mut s = SystemState::from_loads(&[2]);
        let t = s.core(CoreId(0)).task_ids()[1];
        let _ = s.migrate(CoreId(0), CoreId(0), t);
    }

    #[test]
    fn topology_constructor_assigns_nodes() {
        let topo = sched_topology::TopologyBuilder::new().sockets(2).cores_per_socket(2).build();
        let s = SystemState::with_topology(&topo);
        assert_eq!(s.nr_cores(), 4);
        assert_ne!(s.core(CoreId(0)).node, s.core(CoreId(3)).node);
    }

    #[test]
    fn load_vector_string_formats_compactly() {
        let s = SystemState::from_loads(&[0, 2]);
        assert_eq!(s.load_vector_string(LoadMetric::NrThreads), "[0, 2]");
    }
}
