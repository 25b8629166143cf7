//! Overflow on tiny rings: the work-conserving [`TinyDequeRq`] and its
//! negative control, the [`SpillQueue`] fixture.
//!
//! A Chase–Lev ring is fixed-capacity; what happens to the element a full
//! ring rejects decides whether a runqueue stays **work-conserving**.
//! [`DequeRq`] has one answer: overflow goes to a shared MPMC
//! [`sched_deque::Injector`] that thieves check whenever the victim's ring
//! CAS finds it empty, so overflowed work is stealable from the instant
//! the push returns and `refresh()` has no correctness role.
//! [`TinyDequeRq`] binds a deliberately tiny ring
//! ([`TINY_RING_CAPACITY`]) to it behind the plain [`RqBackend`]
//! constructor, so the generic `MultiQueue` machinery, the experiment
//! runner and the proptests can drive overflow storms without growing a
//! capacity parameter through every layer.
//!
//! [`SpillQueue`] reproduces the lock-free backend's original (buggy)
//! discipline as a [`TaskQueue`] for the mutex backend: the first
//! [`TINY_RING_CAPACITY`] waiting tasks form the window thieves can reach,
//! and later ones wait in a private spill that only the owner and
//! [`TaskQueue::refresh`] can reach.  Load observers count the spilled
//! tasks, thieves cannot claim them — the exact "runnable work invisible
//! to idle cores" hole the paper's work-conservation criterion forbids.
//! It is kept *only* as the measurable baseline: `PerCoreRq<SpillQueue>` is
//! the `rq-deque-spill` backend of experiments E22, E23 and E25, and the
//! regression tests demonstrate the hole instead of specifying it.

use std::collections::VecDeque;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use sched_core::tracker::LoadTracker;
use sched_core::{CoreId, CoreSnapshot, FilterPolicy, StealOutcome, TaskId};
use sched_topology::NodeId;

use crate::backend::RqBackend;
use crate::deque_rq::DequeRq;
use crate::entity::RqTask;
use crate::steal::StealRecorder;
use crate::TaskQueue;

/// Ring capacity of the tiny flavours: small enough that a single fan-out
/// burst overflows it, large enough that the ring path still participates.
pub const TINY_RING_CAPACITY: usize = 8;

/// A [`DequeRq`] with a tiny ring: every fan-out burst overflows into the
/// shared injector, and every overflowed task stays stealable.  The
/// overflow-storm experiment (E22) and the work-conservation proptests run
/// on this flavour.
#[derive(Debug)]
pub struct TinyDequeRq(DequeRq);

impl TinyDequeRq {
    /// The wrapped runqueue.
    pub fn inner(&self) -> &DequeRq {
        &self.0
    }
}

impl RqBackend for TinyDequeRq {
    fn with_tracker(
        id: CoreId,
        node: NodeId,
        tracker: Arc<dyn LoadTracker>,
        clock: Arc<AtomicU64>,
    ) -> Self {
        TinyDequeRq(DequeRq::with_queue_capacity(id, node, tracker, clock, TINY_RING_CAPACITY))
    }

    fn backend_name() -> &'static str {
        "deque-tiny"
    }

    fn id(&self) -> CoreId {
        self.0.id()
    }

    fn node(&self) -> NodeId {
        self.0.node()
    }

    fn tracker(&self) -> &Arc<dyn LoadTracker> {
        self.0.tracker()
    }

    fn snapshot(&self) -> CoreSnapshot {
        self.0.snapshot()
    }

    fn enqueue(&self, task: RqTask) {
        self.0.enqueue(task);
    }

    fn pick_next(&self) -> Option<TaskId> {
        self.0.pick_next()
    }

    fn complete_current(&self) -> Option<RqTask> {
        self.0.complete_current()
    }

    fn nr_threads_exact(&self) -> u64 {
        self.0.nr_threads_exact()
    }

    fn refresh(&self) {
        self.0.refresh();
    }

    fn attach_trace(&mut self, sink: sched_trace::TraceSink) {
        self.0.attach_trace(sink);
    }

    fn try_steal_recorded(
        thief: &Self,
        victim: &Self,
        filter: &dyn FilterPolicy,
        max_tasks: usize,
        recorder: Option<StealRecorder<'_>>,
    ) -> StealOutcome {
        DequeRq::try_steal_recorded(&thief.0, &victim.0, filter, max_tasks, recorder)
    }
}

/// The private-spill negative control (see the module docs): a window of
/// [`TINY_RING_CAPACITY`] stealable tasks in front of a spill only the
/// owner and [`TaskQueue::refresh`] reach.  Do not use in new code.
#[derive(Debug, Clone, Default)]
pub struct SpillQueue {
    /// What thieves can reach: the owner runs the newest, thieves take the
    /// oldest — the ring's work-stealing order.
    window: VecDeque<RqTask>,
    /// Counted, but reachable only by the owner once the window is empty,
    /// or by a refresh that moves it into the window (oldest first).
    spill: VecDeque<RqTask>,
}

impl SpillQueue {
    fn tasks(&self) -> impl Iterator<Item = &RqTask> {
        self.window.iter().chain(&self.spill)
    }
}

impl TaskQueue for SpillQueue {
    fn push(&mut self, task: RqTask) {
        if self.window.len() < TINY_RING_CAPACITY {
            self.window.push_back(task);
        } else {
            self.spill.push_back(task);
        }
    }

    fn pop_next(&mut self) -> Option<RqTask> {
        self.window.pop_back().or_else(|| self.spill.pop_front())
    }

    fn pop_steal_candidate(&mut self) -> Option<RqTask> {
        self.window.pop_front()
    }

    fn len(&self) -> usize {
        self.window.len() + self.spill.len()
    }

    fn total_weight(&self) -> u64 {
        self.tasks().map(|t| t.weight().raw()).sum()
    }

    fn lightest_weight(&self) -> Option<u64> {
        self.tasks().map(|t| t.weight().raw()).min()
    }

    fn refresh(&mut self) {
        while self.window.len() < TINY_RING_CAPACITY {
            let Some(task) = self.spill.pop_front() else { break };
            self.window.push_back(task);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PerCoreRq;
    use sched_core::policy::DeltaFilter;
    use sched_core::tracker::NrThreadsTracker;
    use sched_core::{LoadMetric, Nice};

    fn tiny<B: RqBackend>(id: usize) -> B {
        B::with_tracker(
            CoreId(id),
            NodeId(0),
            Arc::new(NrThreadsTracker),
            Arc::new(AtomicU64::new(0)),
        )
    }

    #[test]
    fn tiny_flavours_report_their_disciplines() {
        assert_eq!(TinyDequeRq::backend_name(), "deque-tiny");
        assert_eq!(PerCoreRq::<SpillQueue>::backend_name(), "mutex");
        let q: TinyDequeRq = tiny(3);
        assert_eq!(q.id(), CoreId(3));
        assert_eq!(q.node(), NodeId(0));
        assert_eq!(q.tracker().name(), "nr_threads");
    }

    #[test]
    fn the_two_disciplines_differ_exactly_on_overflow_visibility() {
        // Same storm on both: 1 running + TINY_RING_CAPACITY in the ring
        // (or window) + 4 overflowed.  A wall of fresh thieves must drain
        // *everything* from the injector flavour without any refresh; the
        // spill fixture strands the overflow — the hole E22 measures.
        let filter = DeltaFilter::new(LoadMetric::NrThreads, 1);
        let storm = 1 + TINY_RING_CAPACITY + 4;

        fn steal_until_refused<B: RqBackend>(victim: &B, filter: &DeltaFilter) -> usize {
            let mut stolen = 0;
            loop {
                let thief: B = tiny(1 + stolen);
                if !B::try_steal_recorded(&thief, victim, filter, 1, None).is_success() {
                    return stolen;
                }
                stolen += 1;
            }
        }

        let victim: TinyDequeRq = tiny(0);
        for i in 0..storm {
            victim.enqueue(RqTask::new(TaskId(i as u64)));
        }
        let stolen = steal_until_refused(&victim, &filter);
        assert_eq!(stolen, storm - 1, "all waiting tasks stealable, only the running one is not");

        let victim: PerCoreRq<SpillQueue> = tiny(0);
        for i in 0..storm {
            victim.enqueue(RqTask::new(TaskId(i as u64)));
        }
        let stolen = steal_until_refused(&victim, &filter);
        assert_eq!(stolen, TINY_RING_CAPACITY, "the private spill strands overflow until refresh");
        assert_eq!(
            victim.nr_threads_exact(),
            1 + 4,
            "the stranded tasks are still counted — the imbalance observers see them"
        );
    }

    #[test]
    fn the_spill_is_counted_but_only_a_refresh_lets_thieves_reach_it() {
        let mut q = SpillQueue::default();
        for i in 0..TINY_RING_CAPACITY + 3 {
            let nice = if i == TINY_RING_CAPACITY + 2 { 19 } else { 0 };
            q.push(RqTask::with_nice(TaskId(i as u64), Nice::new(nice)));
        }
        // The window holds exactly the first TINY_RING_CAPACITY tasks; the
        // three beyond it (one of them light) wait in the spill, yet every
        // load observer counts them.
        assert_eq!(q.window.len(), TINY_RING_CAPACITY);
        assert_eq!(q.len(), TINY_RING_CAPACITY + 3);
        assert_eq!(q.total_weight(), (TINY_RING_CAPACITY as u64 + 2) * 1024 + 15);
        assert_eq!(q.lightest_weight(), Some(15), "the spilled light task bounds the minimum");
        // Thieves see the window only, oldest first.
        let stolen: Vec<u64> =
            std::iter::from_fn(|| q.pop_steal_candidate()).map(|t| t.id.0).collect();
        assert_eq!(stolen, (0..TINY_RING_CAPACITY as u64).collect::<Vec<_>>());
        assert_eq!(q.len(), 3, "the spill is blind to thieves");
        assert_eq!(q.pop_steal_candidate(), None);
        // The owner reaches the spill once the window is empty…
        assert_eq!(q.pop_next().map(|t| t.id.0), Some(TINY_RING_CAPACITY as u64));
        // …and the tick's refresh moves the rest into the window, oldest
        // first, where thieves reach it again.
        q.refresh();
        assert_eq!((q.window.len(), q.len()), (2, 2));
        assert_eq!(q.pop_steal_candidate().map(|t| t.id.0), Some(TINY_RING_CAPACITY as u64 + 1));
        assert_eq!(q.pop_next().map(|t| t.id.0), Some(TINY_RING_CAPACITY as u64 + 2));
        assert!(q.is_empty());
    }

    #[test]
    fn tiny_flavour_round_trips_the_owner_api() {
        let q: TinyDequeRq = tiny(0);
        q.enqueue(RqTask::with_nice(TaskId(1), Nice::new(5)));
        assert_eq!(q.pick_next(), None, "already running");
        assert_eq!(q.snapshot().nr_threads, 1);
        q.refresh();
        let done = q.complete_current().expect("the task was running");
        assert_eq!(done.id, TaskId(1));
        assert!(q.snapshot().is_idle());
    }
}
