//! A per-core runqueue with a lock for mutation and atomics for observation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use sched_core::tracker::{LoadTracker, NrThreadsTracker, TrackedLoad};
use sched_core::{CoreId, CoreSnapshot, TaskId};
use sched_topology::NodeId;

use crate::backend::RqBackend;
use crate::entity::RqTask;
use crate::fifo::FifoQueue;
use crate::published::PublishedLoad;
use crate::TaskQueue;

/// The lock-protected part of a runqueue: the running task and the queue of
/// waiting tasks.
#[derive(Debug, Default)]
pub struct RqInner<Q: TaskQueue> {
    /// The task currently running on the core, if any.
    pub current: Option<RqTask>,
    /// Tasks waiting to run.
    pub queue: Q,
    /// The tracker-maintained load average of the core, folded on every
    /// enqueue/dequeue/tick while the runqueue lock is held.
    pub tracked: TrackedLoad,
}

impl<Q: TaskQueue> RqInner<Q> {
    /// Number of threads on the core, counting the running one.
    pub fn nr_threads(&self) -> u64 {
        self.queue.len() as u64 + u64::from(self.current.is_some())
    }

    /// Weighted load of the core, counting the running task.
    pub fn weighted_load(&self) -> u64 {
        self.current.as_ref().map_or(0, |t| t.weight().raw()) + self.queue.total_weight()
    }

    /// Returns `true` if the core has no work at all.
    pub fn is_idle(&self) -> bool {
        self.current.is_none() && self.queue.is_empty()
    }
}

/// One core's runqueue: a mutex-protected [`RqInner`] plus the lock-free
/// [`PublishedLoad`] the selection phase reads.
#[derive(Debug)]
pub struct PerCoreRq<Q: TaskQueue = FifoQueue> {
    id: CoreId,
    node: NodeId,
    inner: Mutex<RqInner<Q>>,
    published: PublishedLoad,
    tracker: Arc<dyn LoadTracker>,
    /// The machine's logical clock (shared with every sibling runqueue);
    /// decayed sums fold the elapsed time read from it.
    clock: Arc<AtomicU64>,
}

impl<Q: TaskQueue + 'static> PerCoreRq<Q> {
    /// Creates an empty runqueue for core `id` on `node`, tracking
    /// instantaneous thread counts.
    pub fn new(id: CoreId, node: NodeId) -> Self {
        Self::with_tracker(id, node, Arc::new(NrThreadsTracker), Arc::new(AtomicU64::new(0)))
    }

    /// Takes the runqueue lock.  Callers that mutate the state through the
    /// guard must call [`PerCoreRq::republish`] with the guard before
    /// releasing it so the lock-less observers see the change.
    pub fn lock(&self) -> MutexGuard<'_, RqInner<Q>> {
        self.inner.lock()
    }

    /// Folds the current instantaneous load into the tracked average (at
    /// the clock's current time) and refreshes the published loads from the
    /// locked state.
    ///
    /// This is the single choke-point through which every mutation —
    /// enqueue, dequeue, steal, tick — becomes visible to the lock-less
    /// selection phase, so the decayed sum can never drift from the queue
    /// contents it summarises.
    pub fn republish(&self, inner: &mut RqInner<Q>) {
        let inst = match self.tracker.base() {
            sched_core::LoadMetric::Weighted => inner.weighted_load(),
            _ => inner.nr_threads(),
        };
        self.tracker.update(&mut inner.tracked, self.clock.load(Ordering::Acquire), inst);
        self.published.publish(
            inner.nr_threads(),
            inner.weighted_load(),
            inner.queue.lightest_weight(),
            inner.tracked.scaled,
        );
    }
}

/// The mutex discipline, as a [`RqBackend`]: every mutation under the
/// per-core lock, stealing via the ordered double-lock of
/// [`crate::steal::try_steal_recorded`].
impl<Q: TaskQueue + 'static> RqBackend for PerCoreRq<Q> {
    fn with_tracker(
        id: CoreId,
        node: NodeId,
        tracker: Arc<dyn LoadTracker>,
        clock: Arc<AtomicU64>,
    ) -> Self {
        PerCoreRq {
            id,
            node,
            inner: Mutex::new(RqInner::default()),
            published: PublishedLoad::new(),
            tracker,
            clock,
        }
    }

    fn backend_name() -> &'static str {
        "mutex"
    }

    fn id(&self) -> CoreId {
        self.id
    }

    fn node(&self) -> NodeId {
        self.node
    }

    fn tracker(&self) -> &Arc<dyn LoadTracker> {
        &self.tracker
    }

    fn snapshot(&self) -> CoreSnapshot {
        self.published.snapshot(self.id, self.node)
    }

    fn enqueue(&self, task: RqTask) {
        let mut inner = self.lock();
        if inner.current.is_none() {
            inner.current = Some(task);
        } else {
            inner.queue.push(task);
        }
        self.republish(&mut inner);
    }

    fn pick_next(&self) -> Option<TaskId> {
        let mut inner = self.lock();
        if inner.current.is_none() {
            if let Some(next) = inner.queue.pop_next() {
                let id = next.id;
                inner.current = Some(next);
                self.republish(&mut inner);
                return Some(id);
            }
        }
        None
    }

    fn complete_current(&self) -> Option<RqTask> {
        let mut inner = self.lock();
        let done = inner.current.take();
        if let Some(next) = inner.queue.pop_next() {
            inner.current = Some(next);
        }
        self.republish(&mut inner);
        done
    }

    /// Taken under the lock: exact.
    fn nr_threads_exact(&self) -> u64 {
        self.lock().nr_threads()
    }

    fn refresh(&self) {
        let mut inner = self.lock();
        inner.queue.refresh();
        self.republish(&mut inner);
    }

    fn try_steal_recorded(
        thief: &Self,
        victim: &Self,
        filter: &dyn sched_core::FilterPolicy,
        max_tasks: usize,
        recorder: Option<crate::steal::StealRecorder<'_>>,
    ) -> sched_core::StealOutcome {
        crate::steal::try_steal_recorded(thief, victim, filter, max_tasks, recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::Nice;

    fn rq() -> PerCoreRq<FifoQueue> {
        PerCoreRq::new(CoreId(0), NodeId(0))
    }

    #[test]
    fn enqueue_runs_immediately_on_an_idle_core() {
        let q = rq();
        assert!(q.snapshot().is_idle());
        q.enqueue(RqTask::new(TaskId(1)));
        let snap = q.snapshot();
        assert_eq!(snap.nr_threads, 1);
        assert!(!snap.is_overloaded());
        assert_eq!(q.lock().current.as_ref().unwrap().id, TaskId(1));
    }

    #[test]
    fn published_load_tracks_the_locked_state() {
        let q = rq();
        q.enqueue(RqTask::new(TaskId(1)));
        q.enqueue(RqTask::with_nice(TaskId(2), Nice::new(19)));
        let snap = q.snapshot();
        assert_eq!(snap.nr_threads, 2);
        assert_eq!(snap.weighted_load, 1024 + 15);
        assert_eq!(snap.lightest_ready_weight, Some(15));
        assert!(snap.is_overloaded());
    }

    #[test]
    fn complete_current_elects_a_successor() {
        let q = rq();
        q.enqueue(RqTask::new(TaskId(1)));
        q.enqueue(RqTask::new(TaskId(2)));
        let done = q.complete_current().unwrap();
        assert_eq!(done.id, TaskId(1));
        assert_eq!(q.lock().current.as_ref().unwrap().id, TaskId(2));
        assert_eq!(q.snapshot().nr_threads, 1);
        assert!(q.complete_current().is_some());
        assert!(q.complete_current().is_none());
        assert!(q.snapshot().is_idle());
    }

    #[test]
    fn pick_next_is_a_no_op_while_something_runs() {
        let q = rq();
        q.enqueue(RqTask::new(TaskId(1)));
        q.enqueue(RqTask::new(TaskId(2)));
        assert_eq!(q.pick_next(), None);
        q.complete_current();
        // The successor was already elected by complete_current.
        assert_eq!(q.pick_next(), None);
        assert_eq!(q.nr_threads_exact(), 1);
    }
}
