//! Concurrent runqueue substrate.
//!
//! `sched-core` models the scheduler as a pure state machine; this crate
//! mounts the same three-step abstraction on *real* shared-memory runqueues
//! so the concurrency claims of §3.1 can be exercised with actual threads:
//!
//! * [`MultiQueue`] assembles a machine's worth of runqueues, runs optimistic
//!   balancing rounds from many OS threads concurrently (via std's scoped
//!   threads) and counts successes/failures.  It is generic over the
//!   [`RqBackend`] discipline of its per-core queues:
//! * the **mutex backend** ([`PerCoreRq`]) protects each core with a mutex
//!   (the paper's runqueue lock) and publishes its load through atomics so
//!   that the **selection phase reads no lock at all**
//!   ([`published::PublishedLoad`]); its **stealing phase** takes the two
//!   runqueue locks in a global order (lowest core id first) and re-checks
//!   the filter on the live state under the locks before migrating, exactly
//!   like Figure 1's step 3 ([`steal`]),
//! * the **lock-free backend** ([`DequeRq`]) keeps each core's waiting
//!   tasks in a Chase–Lev owner/stealer deque (`sched-deque`): the owner
//!   pushes and pops at the bottom without contending with thieves, thieves
//!   claim at the top with a CAS, and the double-check steal guard runs
//!   inside the CAS loop ([`deque_rq`]); ring overflow goes to a shared
//!   MPMC injector that thieves check when the ring is empty, so
//!   overflowed work is never invisible to idle cores ([`overflow`]),
//! * a deliberately pessimistic variant that holds *every* runqueue lock
//!   during selection is provided (mutex backend only) as the baseline the
//!   tests hold optimistic balancing to — it is what the paper refuses to do
//!   ("locking the runqueue of the third core prevents that core from
//!   scheduling work").
//!
//! The mutex backend is generic over its queue discipline ([`TaskQueue`]):
//! the workspace runs FIFO ([`fifo::FifoQueue`]), and the overflow
//! experiments' negative control runs [`SpillQueue`], whose tasks past a
//! small window are counted but hidden from thieves until a tick.  The
//! lock-free backend fixes the work-stealing order (owner LIFO, thieves
//! FIFO) and has one overflow home, the shared injector.

pub mod backend;
pub mod deque_rq;
pub mod entity;
pub mod fifo;
pub mod multiqueue;
pub mod overflow;
pub mod percore;
pub mod published;
pub mod stats;
pub mod steal;

pub use backend::RqBackend;
pub use deque_rq::DequeRq;
pub use entity::RqTask;
pub use fifo::FifoQueue;
pub use multiqueue::MultiQueue;
pub use overflow::{SpillQueue, TinyDequeRq, TINY_RING_CAPACITY};
pub use percore::PerCoreRq;
pub use published::PublishedLoad;
pub use stats::BalanceStats;

/// Step 3 of Listing 1 — [`sched_core::StealRule`] itself, under the name
/// the frozen repo benchmark imports (`benchmark/src/probes.rs` hands
/// `StealBatch::HalfImbalance` to [`MultiQueue::concurrent_round_batched`]).
/// It exists for that benchmark only; everything else names the core type.
pub use sched_core::StealRule as StealBatch;

/// A machine of lock-free (Chase–Lev) runqueues.
pub type DequeMultiQueue = MultiQueue<DequeRq>;

/// A machine of lock-free runqueues with deliberately tiny rings — every
/// burst overflows into the shared injector (overflow-storm experiments
/// and proptests).
pub type TinyDequeMultiQueue = MultiQueue<TinyDequeRq>;

/// Queue discipline used by a per-core runqueue.
pub trait TaskQueue: Default + Send {
    /// Adds a task to the queue.
    fn push(&mut self, task: RqTask);
    /// Removes and returns the next task to run, if any.
    fn pop_next(&mut self) -> Option<RqTask>;
    /// Removes and returns the task the balancer should migrate, if any.
    ///
    /// Migration candidates and execution candidates may differ (a
    /// discipline may steal from the opposite end of the one it runs from).
    fn pop_steal_candidate(&mut self) -> Option<RqTask>;
    /// Number of queued tasks.
    fn len(&self) -> usize;
    /// Returns `true` if no task is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Sum of the weights of the queued tasks.
    fn total_weight(&self) -> u64;
    /// Weight of the lightest queued task, if any.
    fn lightest_weight(&self) -> Option<u64>;
    /// The scheduler tick, under the runqueue lock: a discipline with
    /// internal structure may rearrange it here.  A no-op by default.
    fn refresh(&mut self) {}
}
