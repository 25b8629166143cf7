//! The runqueue-backend abstraction: one API, two concurrency disciplines.
//!
//! [`crate::MultiQueue`] is generic over how a single core's runqueue is
//! implemented.  Everything above this trait — tracker republish, flat and
//! topology-aware balancing, [`crate::BalanceStats`] recording — is
//! written once against it and behaves identically on every
//! backend; only the synchronization of the stealing phase differs:
//!
//! * [`crate::PerCoreRq`] — the **mutex backend**: every mutation takes the
//!   per-core lock, the stealing phase double-locks thief and victim in
//!   global order and re-checks the filter under the locks.
//! * [`crate::DequeRq`] — the **lock-free backend**: waiting tasks live in
//!   a Chase–Lev deque ([`sched_deque`]); the owner pushes/pops at the
//!   bottom without contending with thieves, thieves claim with a CAS at
//!   the top, and the double-check steal guard runs *inside* the CAS loop.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use sched_core::tracker::LoadTracker;
use sched_core::{CoreId, CoreSnapshot, FilterPolicy, StealOutcome, TaskId};
use sched_topology::NodeId;

use crate::entity::RqTask;
use crate::steal::StealRecorder;

/// One core's runqueue, as the generic [`crate::MultiQueue`] machinery sees
/// it.
///
/// Implementations must uphold the steal-atomicity contract regardless of
/// their synchronization discipline: a task removed by
/// [`RqBackend::try_steal_recorded`] is claimed by **exactly one** thief
/// (no duplication), every claimed task is delivered to the thief's queue
/// (no loss), and outcome counters move with the claim.
pub trait RqBackend: Send + Sync + 'static {
    /// Creates an empty runqueue for core `id` on `node`, maintaining its
    /// load under `tracker`, reading elapsed time from the shared `clock`.
    fn with_tracker(
        id: CoreId,
        node: NodeId,
        tracker: Arc<dyn LoadTracker>,
        clock: Arc<AtomicU64>,
    ) -> Self
    where
        Self: Sized;

    /// Short name of the backend discipline (`"mutex"`, `"deque"`), used by
    /// experiment records.
    fn backend_name() -> &'static str
    where
        Self: Sized;

    /// The core this runqueue belongs to.
    fn id(&self) -> CoreId;

    /// The NUMA node of the core.
    fn node(&self) -> NodeId;

    /// The load criterion this runqueue is maintained under.
    fn tracker(&self) -> &Arc<dyn LoadTracker>;

    /// Lock-less, possibly stale observation of this runqueue: the only
    /// thing the selection phase is allowed to read.
    fn snapshot(&self) -> CoreSnapshot;

    /// Makes `task` runnable on this core: it starts running immediately if
    /// the core was idle, otherwise it queues.
    fn enqueue(&self, task: RqTask);

    /// Elects the next task to run if the core has none, returning its id.
    fn pick_next(&self) -> Option<TaskId>;

    /// Removes the running task (e.g. it exited or blocked), electing a
    /// successor from the queue if one is waiting.  Returns the removed
    /// task.
    fn complete_current(&self) -> Option<RqTask>;

    /// Number of threads currently on the core.  Exact when the queue is
    /// quiescent; concurrent in-flight migrations may be momentarily
    /// attributed to neither core.
    fn nr_threads_exact(&self) -> u64;

    /// Folds the current instantaneous load into the tracked average at the
    /// clock's current time and refreshes whatever the lock-less observers
    /// read — the runqueue substrate's per-core scheduler tick.
    fn refresh(&self);

    /// Attaches a trace sink for backend-internal decisions (injector
    /// pushes and drains, batch trims).  The default keeps the
    /// backend silent: the generic balancing machinery still traces steal
    /// attempts through the [`StealRecorder`], so backends only override
    /// this when they have private structure worth narrating.
    fn attach_trace(&mut self, sink: sched_trace::TraceSink) {
        let _ = sink;
    }

    /// Attempts to steal up to `max_tasks` waiting tasks from `victim` into
    /// `thief`, re-checking `filter` against live state before committing,
    /// and recording the outcome into `recorder` (if any) atomically with
    /// the claim.
    ///
    /// Returns the same [`StealOutcome`] vocabulary as the pure model, so
    /// the P1/P2 reasoning applies verbatim to every backend.
    fn try_steal_recorded(
        thief: &Self,
        victim: &Self,
        filter: &dyn FilterPolicy,
        max_tasks: usize,
        recorder: Option<StealRecorder<'_>>,
    ) -> StealOutcome
    where
        Self: Sized;
}
