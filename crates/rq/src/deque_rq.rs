//! The lock-free runqueue backend: a Chase–Lev owner/stealer deque per
//! core, with the steal guard folded into the CAS loop.
//!
//! ## Shape
//!
//! * **Waiting tasks** live in a [`sched_deque`] ring and the core's
//!   injector.  The core's owner operations (wakeup enqueue, `pick_next`,
//!   `complete_current`) push and pop at the ring's *bottom*; thieves claim
//!   at the *top* with a CAS and never take any lock.  A submission from
//!   another core's thread goes through [`DequeRq::inject`] into the
//!   injector instead, and the owner moves it into the ring before its next
//!   pop (see "The injector" below).
//! * **The running task** is a single atomic word ([`DequeRq`] encodes the
//!   task id and niceness into a `u64`): wakeups claim an idle core with a
//!   CAS, completion swaps it out.  Thieves never touch it — the running
//!   task is unstealable *by construction*, where the mutex backend
//!   enforces the same rule by convention inside the lock.
//! * **Published load** is not a separate copy: where [`crate::PerCoreRq`]
//!   re-publishes a consistent snapshot after every locked mutation, the
//!   deque backend's counters *are* the live atomics, so the owner's hot
//!   path has no publication step at all — and it writes only the counters
//!   some reader needs.  The waiting tasks are counted in two places: the
//!   ring's residents by `queued`, the injector's by the injector itself,
//!   and [`DequeRq::snapshot`] adds the two.  A `nice 0` task is counted by
//!   those lengths alone: weight sum and lightest-weight watermark cover
//!   the other niceness values, next to a count of them, and the snapshot
//!   derives the weighted load and the lightest waiting weight from them.
//!   The tracked average is folded only for a tracker that decays; an
//!   instantaneous tracker's value is the instantaneous load times
//!   [`TRACK_SCALE`], which the snapshot derives from the same counters.
//!   A queue of `nice 0` tasks under an instantaneous tracker therefore
//!   pays one counter update per enqueue and one per departure.
//!
//! ## Where the double-check went
//!
//! The mutex backend re-checks the filter under both runqueue locks
//! (Listing 1, line 12).  Here the same guard runs **inside the CAS
//! loop**: before every claim attempt the thief re-evaluates the filter
//! against the victim's live counters, and a failed CAS (another claim got
//! there first) loops back through the filter before retrying.  The
//! exclusivity argument narrows from "holds both locks" to "wins the CAS":
//! no task can be claimed twice and none is lost (see `sched-verify`'s CAS
//! lemmas and `sched-deque`'s probed race tests).  What is *weaker* than
//! the mutex backend is the freshness of the guard: the filter may become
//! false in the instruction window between its evaluation and the CAS.
//! That window is exactly the staleness the paper's optimism already
//! embraces — shrunk from a lock hold to a single CAS — and it affects
//! only steal *quality* (a marginally late steal), never conservation.
//!
//! ## Owner serialisation
//!
//! A Chase–Lev bottom end has a single owner.  `MultiQueue` exposes
//! `&self` APIs callable from any thread (a wakeup may enqueue onto a
//! remote core), so the owner end sits behind a small mutex that
//! serialises *co-located producers only*: thieves never acquire it, which
//! is the whole point — the owner's enqueue/dequeue path no longer
//! contends with concurrent stealers (E19/E20 measure exactly this).  A
//! caller that can tell its own core from a foreign one does better:
//! submitting to a foreign core through [`DequeRq::inject`] leaves the
//! ring's bottom, the owner mutex and `queued` with one writer, the core's
//! own thread, so a producer on another thread costs the owner no
//! coherence miss on any of them.  The executor submits that way.
//!
//! ## The injector: overflow and foreign submissions
//!
//! The ring is fixed-capacity, so overflow needs a second home — and where
//! that home is decides whether the backend stays **work-conserving**.
//! The backend originally spilled overflow to an owner-private list that
//! only [`DequeRq::refresh`] drained: those tasks were *counted* by every
//! load observer ([`DequeRq::snapshot`], [`DequeRq::nr_threads_exact`],
//! the balancer's imbalance arithmetic) yet *unstealable* until the next
//! tick — idle cores starved against visibly waiting work, which is
//! exactly the bug class the paper targets.  Worse, the half-visibility
//! self-oscillates: balancing keeps selecting the victim whose load it can
//! see, and thieves keep coming back empty-handed from a victim that
//! genuinely had work to give.
//!
//! Overflow now goes to a **shared MPMC injector**
//! ([`sched_deque::Injector`], one per core), which is also the inbox of
//! foreign submissions: the owner overflows into it, [`DequeRq::inject`]
//! pushes into it, and it is claimable by *anyone* from the instant the
//! push returns.  Before every owner pop the owner moves the injector's
//! residents into the ring's free slots, oldest first, in one batch claim:
//! the newest waiting task then sits at the bottom, where the owner pops,
//! and the oldest at the top, where thieves claim — the order a ring fed
//! by the owner alone would have.  Thieves check the victim's injector
//! whenever the ring CAS finds the ring empty — an injector loss
//! ([`Steal::Retry`]) loops back through the filter exactly like a lost
//! ring CAS.  Every load the snapshot reports (the thread count, the
//! weighted counters, the lightest-weight watermark, the tracked average)
//! includes injector residents, so what balancing *sees* and what thieves
//! *can take* are the same set again.  A move from the injector into the
//! ring is counted in `queued` before it leaves the injector, and the
//! snapshot reads the injector before `queued`, so a snapshot taken during
//! a move may over-state the queue but never under-states it.
//! [`DequeRq::refresh`] performs **no correctness-critical drain**:
//! conservation and convergence hold with no tick at all, because the
//! injector is as stealable as the ring.  What the tick still does is the
//! same move as an owner pop, for a core whose owner does not pop.
//!
//! The pre-injector discipline is now a mutex-backend queue fixture,
//! [`crate::overflow::SpillQueue`], kept as E22/E25's negative control.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sched_core::tracker::{LoadTracker, TrackedLoad, TRACK_SCALE};
use sched_core::{
    CoreId, CoreSnapshot, FilterPolicy, LoadMetric, Nice, StealOutcome, TaskId, Weight,
};
use sched_deque::{deque, Injector, Steal, Stealer, Worker};
use sched_topology::NodeId;
use sched_trace::{TraceEvent, TraceSink};

use crate::backend::RqBackend;
use crate::entity::RqTask;
use crate::steal::StealRecorder;

/// Default ring capacity per core; large enough for every catalogued
/// scenario, small enough to keep a 64-core machine's rings in cache.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Sentinel for "no running task" in the `current` word.
const EMPTY: u64 = 0;

/// Sentinel for "no lightest-weight watermark recorded".
const NO_MARK: u64 = u64::MAX;

/// Packs a task into one atomic word: `(id + 1) << 8 | nice as u8`.
/// Zero is reserved for [`EMPTY`].
fn encode(task: &RqTask) -> u64 {
    let id = task.id.0;
    assert!(id < (1 << 55), "task ids beyond 2^55 - 1 do not fit the packed word");
    ((id + 1) << 8) | u64::from(task.nice.value() as u8)
}

/// Unpacks [`encode`]'s word: the task's id and niceness, all an
/// [`RqTask`] carries.
fn decode(word: u64) -> RqTask {
    RqTask::with_nice(TaskId((word >> 8) - 1), Nice::new(word as u8 as i8))
}

/// Weight (in [`sched_core::Weight`] raw units) of an encoded word.
fn weight_of(word: u64) -> u64 {
    Nice::new(word as u8 as i8).weight().raw()
}

/// Whether an encoded word is a `nice 0` task: its niceness byte is zero.
fn is_nice_0(word: u64) -> bool {
    word as u8 == 0
}

/// What a run of words adds to (or takes from) the weighted counters: how
/// many of them are not `nice 0`, their total weight and the lightest one
/// ([`NO_MARK`] when all are `nice 0`).
fn weigh_others(words: &[u64]) -> (u64, u64, u64) {
    let (mut count, mut weight, mut lightest) = (0, 0, NO_MARK);
    for &word in words.iter().filter(|&&word| !is_nice_0(word)) {
        count += 1;
        weight += weight_of(word);
        lightest = lightest.min(weight_of(word));
    }
    (count, weight, lightest)
}

thread_local! {
    /// The words the last batch claim on this thread took, kept for their
    /// allocation: a steal decision's batch, split into the thief's share
    /// and the losers, or an owner's move from its injector into its ring.
    /// The buffer goes back when the claim is done with.
    static CLAIMED: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

/// Gives `T` a cache-line pair of its own, so that one thread writing it
/// never invalidates what another thread keeps next to it.
#[derive(Debug)]
#[repr(align(128))]
struct Padded<T>(T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// One core's lock-free runqueue (see the module docs).
#[derive(Debug)]
pub struct DequeRq {
    id: CoreId,
    node: NodeId,
    tracker: Arc<dyn LoadTracker>,
    /// The tracker's base metric, read once: what the tracked load folds
    /// or, for an instantaneous tracker, what it is derived from.
    base: LoadMetric,
    /// Whether the tracker decays.  Only then is `tracked_scaled` folded
    /// (and the clock read); an instantaneous tracker's value is derived
    /// in [`DequeRq::snapshot`].
    decayed: bool,
    /// The machine's logical clock (shared with every sibling runqueue).
    clock: Arc<AtomicU64>,
    /// The owner end of the deque, behind the producer-serialising mutex
    /// (never taken by thieves).
    owner: Mutex<Worker>,
    stealer: Stealer,
    /// Shared MPMC home for ring overflow and foreign submissions: pushed
    /// by the owner when the ring is full and by [`DequeRq::inject`],
    /// moved into the ring by the owner before each pop, and claimed by
    /// thieves whenever the ring CAS finds the ring empty.  It counts its
    /// own residents.  Its lines are its own: a foreign producer's push
    /// must not invalidate the owner mutex or the counters next to it.
    injector: Padded<Injector>,
    /// Encoded running task, or [`EMPTY`].
    current: AtomicU64,
    /// Number of tasks waiting in the ring, `nice 0` or not; the
    /// injector's residents are counted by the injector.  Written by the
    /// owner's pushes and pops and by thieves' ring claims, never by
    /// [`DequeRq::inject`].
    queued: AtomicU64,
    /// How many of the waiting tasks (ring and injector) are not `nice 0`:
    /// the tasks the two fields below cover.  The rest weigh
    /// [`Weight::NICE_0`] each.
    others: AtomicU64,
    /// Total weight of the waiting tasks that are not `nice 0`.
    queued_weight: AtomicU64,
    /// Low watermark of the weights of waiting tasks that are not `nice 0`
    /// ([`NO_MARK`] = unknown).  Lowered by enqueues, retired (back to
    /// unknown) when a departing task's weight matches it or the last such
    /// task leaves.  This is an advisory bound, not an exact order
    /// statistic: after one of several equal-weight waiters departs, later
    /// enqueues can re-bound the mark *above* the true minimum.
    /// Over-statement is the safe direction — a too-large `lightest_ready`
    /// makes weighted filters demand a larger margin (more conservative
    /// steals, P2 preserved) — whereas the dangerous stale-low direction
    /// is what retirement eliminates.  The snapshot's lightest weight is
    /// exact whenever only `nice 0` tasks wait, since those never touch
    /// the mark; the mutex backend remains the exact-values discipline for
    /// mixed niceness.
    lightest_mark: AtomicU64,
    /// Tracked (decayed) load, scaled — the lock-free twin of
    /// [`TrackedLoad::scaled`].  Folded only when the tracker decays.
    tracked_scaled: AtomicU64,
    /// Timestamp of the last tracked fold.
    tracked_ns: AtomicU64,
    /// Single-folder flag: a contended fold is skipped, not waited for
    /// (decayed loads are advisory; the next mutation folds again).
    tracked_busy: AtomicBool,
    /// Trace sink for backend-internal decisions (overflow placement,
    /// injector drains, batch trims).  Disabled by default: every record
    /// site is gated on [`TraceSink::is_enabled`], so the owner's hot path
    /// pays one branch and **zero** atomic operations when not tracing
    /// (pinned by the `write_ops` tier-1 test).
    trace: TraceSink,
}

impl DequeRq {
    /// Creates an empty lock-free runqueue with a custom ring capacity
    /// (rounded up to a power of two); ring overflow goes to the shared
    /// injector.
    pub fn with_queue_capacity(
        id: CoreId,
        node: NodeId,
        tracker: Arc<dyn LoadTracker>,
        clock: Arc<AtomicU64>,
        capacity: usize,
    ) -> Self {
        let (worker, stealer) = deque(capacity);
        DequeRq {
            id,
            node,
            base: tracker.base(),
            decayed: tracker.is_decayed(),
            tracker,
            clock,
            owner: Mutex::new(worker),
            stealer,
            injector: Padded(Injector::new()),
            current: AtomicU64::new(EMPTY),
            queued: AtomicU64::new(0),
            others: AtomicU64::new(0),
            queued_weight: AtomicU64::new(0),
            lightest_mark: AtomicU64::new(NO_MARK),
            tracked_scaled: AtomicU64::new(0),
            tracked_ns: AtomicU64::new(0),
            tracked_busy: AtomicBool::new(false),
            trace: TraceSink::disabled(),
        }
    }

    /// Records `event` on this core's ring at the machine clock's current
    /// time.  One branch (and no clock load) when tracing is disabled.
    fn trace_event(&self, event: &TraceEvent) {
        if self.trace.is_enabled() {
            self.trace.record(self.id, self.clock.load(Ordering::Acquire), event);
        }
    }

    /// Number of tasks currently parked in the shared injector.  Exact
    /// between operations; callers that need "is any overflow pending" get
    /// a race-free answer the same way thieves do — by trying to claim.
    pub fn injected_len(&self) -> usize {
        self.injector.len()
    }

    /// The task currently occupying the core, if any.
    ///
    /// This is the owner-side read the executor's worker loop needs: a
    /// wakeup can seat a task on an idle core directly (the enqueue CAS on
    /// `current`), in which case the owner never saw it go by —
    /// `pick_next` returns `None` precisely *because* the core is busy, and
    /// `complete_current` would reveal the id only by removing the task.
    /// Reading `current` is safe from any thread (it is one atomic load of
    /// a possibly-stale word), but only the owner's read is stable: once
    /// `current` is non-`EMPTY`, the sole transition back to `EMPTY` is
    /// `complete_current`, which the owner alone calls.
    pub fn current_task(&self) -> Option<TaskId> {
        let word = self.current.load(Ordering::Acquire);
        (word != EMPTY).then(|| decode(word).id)
    }

    /// Pops one waiting task at the owner end, keeping the counters in
    /// step: the injector's residents move into the ring first, so the
    /// pop takes the newest waiting task.  Caller holds the owner mutex.
    fn pop_queued(&self, owner: &mut Worker) -> Option<u64> {
        self.absorb(owner);
        let word = owner.pop()?;
        self.queued.fetch_sub(1, Ordering::AcqRel);
        self.weigh_out(&[word]);
        Some(word)
    }

    /// Moves the injector's residents into the ring's free slots, oldest
    /// first, in one batch claim: the newest then sits at the bottom, where
    /// the owner pops, and the oldest at the top, where thieves claim.
    /// Caller holds the owner mutex.
    fn absorb(&self, owner: &mut Worker) {
        self.absorb_by(owner, |want, into| self.injector.steal_batch_into(want, into));
    }

    /// [`DequeRq::absorb`] with the batch claim passed in: `claim(want,
    /// into)` claims up to `want` injector residents into `into`, oldest
    /// first, and returns how many it claimed.  Tests pass the injector's
    /// probed claim here to look at the queue in the middle of a move.
    ///
    /// The move is counted in `queued` before it leaves the injector, and
    /// [`DequeRq::snapshot`] reads the injector first, so a concurrent
    /// snapshot may count a moving task twice but never misses it; what a
    /// rival claimed from the injector meanwhile is taken back out of
    /// `queued` after the move.  Thieves only shrink the ring, so whatever
    /// fit it when the move was sized fits it at the push.
    fn absorb_by(&self, owner: &mut Worker, claim: impl FnOnce(usize, &mut Vec<u64>) -> usize) {
        let waiting = self.injector.len();
        if waiting == 0 {
            return;
        }
        let want = waiting.min(owner.capacity() - owner.len());
        if want == 0 {
            return;
        }
        self.queued.fetch_add(want as u64, Ordering::AcqRel);
        let mut moving = CLAIMED.take();
        moving.clear();
        let moved = claim(want, &mut moving);
        for &word in &moving {
            owner.push(word).expect("the move was sized to the ring's free slots");
        }
        CLAIMED.set(moving);
        if moved < want {
            self.queued.fetch_sub((want - moved) as u64, Ordering::AcqRel);
        }
        if moved > 0 {
            // Every injector exit is narrated: the trace-derived injector
            // population (pushes + trim loop-backs − drains) must match
            // the live resident count.
            self.trace_event(&TraceEvent::InjectorDrain { moved: moved as u64 });
        }
    }

    /// Counts `words` out of the weighted counters, once per batch, for
    /// every path that removes waiting tasks (owner pop and thief claim):
    /// for the departing tasks that are not `nice 0`, if any, their count
    /// and weight, and retires the lightest-weight watermark when it can no
    /// longer be trusted: a departing task's weight *was* the recorded
    /// minimum, or the last task that is not `nice 0` left.  `NO_MARK`
    /// reads as "unknown" until the next such enqueue re-establishes a
    /// bound.  Retirement eliminates the dangerous stale-*low* case (a
    /// departed light task haunting later generations); the residual
    /// imprecision is stale-*high* with equal-weight duplicates, which only
    /// makes weighted filters more conservative (see the field doc).  The
    /// lengths are the caller's: `queued` for the ring, the injector's own.
    fn weigh_out(&self, words: &[u64]) {
        let (count, weight, _) = weigh_others(words);
        if count == 0 {
            return;
        }
        let left = self.others.fetch_sub(count, Ordering::AcqRel) - count;
        self.queued_weight.fetch_sub(weight, Ordering::AcqRel);
        if left == 0 {
            self.lightest_mark.store(NO_MARK, Ordering::Release);
            return;
        }
        let mark = self.lightest_mark.load(Ordering::Acquire);
        if words.iter().any(|&word| !is_nice_0(word) && weight_of(word) == mark) {
            // Ignore the result: if the mark moved concurrently it no
            // longer equals a departing weight and keeps its own story.
            let _ = self.lightest_mark.compare_exchange(
                mark,
                NO_MARK,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
        }
    }

    /// Counts `words` into the weighted counters, one update per counter
    /// for the whole run and only if some of them are not `nice 0`: their
    /// count, weight and watermark.  The lengths are the caller's.
    fn weigh_in(&self, words: &[u64]) {
        let (count, weight, lightest) = weigh_others(words);
        if count > 0 {
            self.others.fetch_add(count, Ordering::AcqRel);
            self.queued_weight.fetch_add(weight, Ordering::AcqRel);
            self.lightest_mark.fetch_min(lightest, Ordering::AcqRel);
        }
    }

    /// Pushes `words` at the owner end, keeping the counters in step: what
    /// fits the ring's free slots goes there, the rest overflows to the
    /// injector.  Caller holds the owner mutex.
    ///
    /// The counters move *before* the words become claimable, so an
    /// overflowed task is counted and watermarked identically to a ring
    /// resident, and a thief that claims a word finds it counted.  The
    /// counted set and the claimable set therefore agree up to the
    /// instruction-scale window of a push in flight: a thief probing
    /// between the counter bump and the placement can see the tasks counted
    /// but not yet claimable, which costs that thief one failed round — the
    /// same transient as a mid-migration task — and heals on its next
    /// attempt.  What the injector eliminates is the *persistent*
    /// divergence of a private spill, where counted work stays unclaimable
    /// until the next tick (E22's negative control,
    /// [`crate::overflow::SpillQueue`]).
    fn push_queued(&self, owner: &mut Worker, words: &[u64]) {
        if words.is_empty() {
            return;
        }
        self.weigh_in(words);
        // Thieves only shrink the ring: what fits now fits at the push.
        let fits = words.len().min(owner.capacity() - owner.len());
        let (ring, overflow) = words.split_at(fits);
        self.queued.fetch_add(ring.len() as u64, Ordering::AcqRel);
        for &word in ring {
            owner.push(word).expect("the ring had room for these");
        }
        if !overflow.is_empty() {
            self.injector.push_many(overflow);
            for &word in overflow {
                self.trace_event(&TraceEvent::InjectorPush { task: decode(word).id });
            }
        }
    }

    /// Installs `word` as the running task if the core is idle.  A busy
    /// core is told apart by a load, not by a failed CAS: a spawn from the
    /// running task finds its own core busy every time.
    fn claim_idle(&self, word: u64) -> bool {
        self.current.load(Ordering::Acquire) == EMPTY
            && self
                .current
                .compare_exchange(EMPTY, word, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
    }

    /// Makes `words` runnable here, oldest first: the first one starts
    /// running if the core is idle, the rest queue — under one owner-lock
    /// acquisition and one counter update, however many there are.
    fn seat(&self, words: &[u64]) {
        let Some((&first, rest)) = words.split_first() else {
            return;
        };
        // An idle core is claimed directly — the common wakeup fast path
        // is one CAS, no lock, no publication step.
        if self.claim_idle(first) {
            if !rest.is_empty() {
                self.push_queued(&mut self.owner.lock(), rest);
            }
        } else {
            let mut owner = self.owner.lock();
            // Re-try under the owner mutex: the running task may have
            // completed between the load and the lock acquisition.  Its
            // completion emptied the core under this mutex, so the load
            // here sees that.
            let waiting = if self.claim_idle(first) { rest } else { words };
            self.push_queued(&mut owner, waiting);
        }
        self.fold_tracked();
    }

    /// Makes `task` runnable here from a thread that is not this core's
    /// owner: it starts running if the core is idle (the one CAS an
    /// [`RqBackend::enqueue`] makes too), else it waits in the injector,
    /// claimable by thieves at once and moved into the ring by the owner
    /// before its next pop.  It writes nothing the owner writes on its own
    /// path: not the ring's bottom, not the owner mutex and not `queued`
    /// (CI's "A core's ring has one writer" lint holds it to that).
    ///
    /// The owner may complete its running task and look for the next one
    /// between the load that found the core busy and the push: this queue
    /// then holds a task with nothing running.  Whoever calls `inject`
    /// makes sure the owner looks again — the executor's worker re-reads
    /// the injector before it parks.
    pub fn inject(&self, task: RqTask) {
        let word = encode(&task);
        if !self.claim_idle(word) {
            self.weigh_in(&[word]);
            self.injector.push(word);
            self.trace_event(&TraceEvent::InjectorPush { task: task.id });
        }
        self.fold_tracked();
    }

    /// Installs a waiting task as the running one if the core is idle.
    /// Caller holds the owner mutex (so promotions cannot race each
    /// other); the CAS protects against a concurrent wakeup claiming the
    /// core directly.
    fn promote(&self, owner: &mut Worker) -> Option<TaskId> {
        let word = self.pop_queued(owner)?;
        match self.current.compare_exchange(EMPTY, word, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => Some(decode(word).id),
            Err(_) => {
                // A wakeup beat us to the core; the task goes back to wait.
                self.push_queued(owner, &[word]);
                None
            }
        }
    }

    /// Folds the instantaneous load into the tracked average at the
    /// clock's current time — for a decayed tracker; an instantaneous one
    /// has nothing to fold (see [`DequeRq::snapshot`]).  Lock-free: a
    /// concurrent fold makes this one a no-op rather than a wait.
    fn fold_tracked(&self) {
        if !self.decayed || self.tracked_busy.swap(true, Ordering::Acquire) {
            return;
        }
        let now = self.clock.load(Ordering::Acquire);
        let snap = self.snapshot();
        let inst = self.base_load(snap.nr_threads, snap.weighted_load);
        let mut state = TrackedLoad {
            scaled: self.tracked_scaled.load(Ordering::Relaxed),
            last_update_ns: self.tracked_ns.load(Ordering::Relaxed),
        };
        self.tracker.update(&mut state, now, inst);
        self.tracked_scaled.store(state.scaled, Ordering::Release);
        self.tracked_ns.store(state.last_update_ns, Ordering::Relaxed);
        self.tracked_busy.store(false, Ordering::Release);
    }

    /// The instantaneous load in the tracker's base metric.
    fn base_load(&self, nr_threads: u64, weighted_load: u64) -> u64 {
        match self.base {
            LoadMetric::Weighted => weighted_load,
            _ => nr_threads,
        }
    }

    /// The waiting tasks, ring and injector: the injector is read first,
    /// so a task moving from it into the ring may be counted twice but is
    /// never missed (see [`DequeRq::absorb_by`]).
    fn waiting(&self) -> (u64, u64) {
        let injected = self.injector.len() as u64;
        (injected + self.queued.load(Ordering::Acquire), injected)
    }

    fn nr_threads(&self) -> u64 {
        self.waiting().0 + u64::from(self.current.load(Ordering::Acquire) != EMPTY)
    }

    /// One *batch* claim at the victim — ring first (a multi-claim CAS that
    /// moves `top` by up to `want` in one acquisition), injector second (a
    /// [`Injector::steal_batch_into`] that serves the whole decision under
    /// **one lock round-trip** instead of one per element) — appended to
    /// `share`, which holds what this decision has claimed for the thief so
    /// far and not seated yet.  The filter is re-checked against live state
    /// **inside the loop**: every retry (a lost batch CAS that fell back to
    /// the single path and lost again) re-evaluates the guard before the
    /// next attempt, so a claim never commits on a condition older than its
    /// own race.  The thief it is shown is the thief as it will be with its
    /// share seated.
    ///
    /// The same live observation sizes the claim.  The decision was sized
    /// in the selection phase, from snapshots that may be stale by now; a
    /// thief that claims more than half of what the live counters show
    /// apart claims words [`DequeRq::trim`] can only hand back, so the
    /// claim is capped there.  The trim stays: the counters move on between
    /// this read and its own.
    ///
    /// The injector check runs exactly when the ring claim finds the ring
    /// empty: a victim whose waiting work has overflowed is *still* a
    /// victim, and the work-conservation argument needs thieves to reach
    /// that work without waiting for any owner-side drain.  The batch claim
    /// absorbs lost injector races internally (its `0` is a genuine empty,
    /// pinned claim-free by the injector's own tests), so the failure this
    /// returns only reaches the balancer when nothing was claimable at all.
    ///
    /// The departing words leave the victim's counters once per claim, not
    /// once per word.
    fn claim_checked_many(
        &self,
        thief: &DequeRq,
        filter: &dyn FilterPolicy,
        want: usize,
        share: &mut Vec<u64>,
    ) -> Result<(), StealOutcome> {
        let held = share.len();
        loop {
            let mut thief_snap = thief.snapshot();
            thief_snap.nr_threads += held as u64;
            thief_snap.weighted_load += share.iter().map(|&word| weight_of(word)).sum::<u64>();
            let victim_snap = self.snapshot();
            if !filter.can_steal(&thief_snap, &victim_snap) {
                return Err(StealOutcome::RecheckFailed { victim: self.id });
            }
            let apart = victim_snap.nr_threads.saturating_sub(thief_snap.nr_threads);
            let want = want.min(usize::try_from(apart / 2).unwrap_or(usize::MAX)).max(1);
            match self.stealer.steal_many_into(want, share) {
                Steal::Stolen(claimed) => {
                    self.queued.fetch_sub(claimed as u64, Ordering::AcqRel);
                    break;
                }
                Steal::Empty => {
                    // Ring empty is not queue empty: overflow lives in the
                    // shared injector, claimable right now — and claimed as
                    // a batch, one lock acquisition per steal decision.
                    let moved = self.injector.steal_batch_into(want, share);
                    if moved == 0 {
                        return Err(StealOutcome::NothingToSteal { victim: self.id });
                    }
                    // Narrated on the victim's ring like every other
                    // injector exit, so a trace-derived resident count
                    // stays exact under thief batch claims.
                    self.trace_event(&TraceEvent::InjectorDrain { moved: moved as u64 });
                    break;
                }
                // Lost the claim race: loop back through the filter — the
                // double-check guard, now in the loop.
                Steal::Retry => {}
            }
        }
        self.weigh_out(&share[held..]);
        self.fold_tracked();
        Ok(())
    }

    /// Re-checks a fresh claim — `share[held..]`, on top of the `held`
    /// words the decision already holds for the thief — against *live*
    /// counters, and hands what the thief must not keep back to this
    /// (victim) queue's injector.  Returns whether it handed anything back.
    ///
    /// A decision's first word is always kept — the filter approved it at
    /// claim time.  Beyond it the thief keeps what still evens the pair
    /// out: delivery stops where one more task would leave the thief more
    /// loaded than the victim would be with the rest returned — the batch
    /// must never *invert* the imbalance it was sized against (the P2
    /// direction), however stale the sizing snapshot was.  Keeping `d` of
    /// `n` fresh words leaves `thief + held + d` against `victim + n − d`,
    /// so the largest split that does not invert is
    /// `(victim + n − thief − held) / 2`.  Only the two thread counters are
    /// consulted (the inversion test needs nothing else), once per claim.
    fn trim(&self, thief: &DequeRq, share: &mut Vec<u64>, held: usize) -> bool {
        let fresh = (share.len() - held) as u64;
        let even = (self.nr_threads() + fresh).saturating_sub(thief.nr_threads() + held as u64) / 2;
        let keep = usize::try_from(even.min(fresh))
            .expect("at most the claim")
            .max(usize::from(held == 0));
        let losers = &share[held + keep..];
        if losers.is_empty() {
            return false;
        }
        // Re-counted exactly like an injection and parked in the shared
        // injector, where the owner and any claimant reach them without
        // the owner mutex (which thieves never take, by design).  The trim
        // is the victim's story: its tasks came back, on its ring.
        self.weigh_in(losers);
        self.injector.push_many(losers);
        self.fold_tracked();
        self.trace_event(&TraceEvent::BatchTrim { returned: losers.len() as u64 });
        share.truncate(held + keep);
        true
    }
}

impl RqBackend for DequeRq {
    fn with_tracker(
        id: CoreId,
        node: NodeId,
        tracker: Arc<dyn LoadTracker>,
        clock: Arc<AtomicU64>,
    ) -> Self {
        Self::with_queue_capacity(id, node, tracker, clock, DEFAULT_QUEUE_CAPACITY)
    }

    fn backend_name() -> &'static str {
        "deque"
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

    /// Derives what the counters leave implicit: the waiting tasks are the
    /// ring's and the injector's, the waiting `nice 0` tasks weigh [`Weight::NICE_0`] each and are the lightest waiting
    /// weight unless the watermark of the others is lower, and an
    /// instantaneous tracker's value is the load times [`TRACK_SCALE`].
    fn snapshot(&self) -> CoreSnapshot {
        let (waiting, injected) = self.waiting();
        // A concurrent update can be half seen; it never makes a count
        // negative.
        let others = self.others.load(Ordering::Acquire).min(waiting);
        let current = self.current.load(Ordering::Acquire);
        let nice_0 = Weight::NICE_0.raw();
        let (others_weight, mark) = if others == 0 {
            (0, NO_MARK)
        } else {
            (self.queued_weight.load(Ordering::Acquire), self.lightest_mark.load(Ordering::Acquire))
        };
        let nr_threads = waiting + u64::from(current != EMPTY);
        let current_weight = if current == EMPTY { 0 } else { weight_of(current) };
        let weighted_load = (waiting - others) * nice_0 + others_weight + current_weight;
        let lightest = if waiting > others { mark.min(nice_0) } else { mark };
        let tracked_scaled = if self.decayed {
            self.tracked_scaled.load(Ordering::Acquire)
        } else {
            self.base_load(nr_threads, weighted_load) * TRACK_SCALE
        };
        CoreSnapshot {
            id: self.id,
            node: self.node,
            nr_threads,
            weighted_load,
            lightest_ready_weight: (lightest != NO_MARK).then_some(lightest),
            tracked_scaled,
            injected,
        }
    }

    fn enqueue(&self, task: RqTask) {
        self.seat(&[encode(&task)]);
    }

    fn pick_next(&self) -> Option<TaskId> {
        if self.current.load(Ordering::Acquire) != EMPTY {
            return None;
        }
        let mut owner = self.owner.lock();
        let picked = self.promote(&mut owner);
        drop(owner);
        if picked.is_some() {
            self.fold_tracked();
        }
        picked
    }

    fn complete_current(&self) -> Option<RqTask> {
        let mut owner = self.owner.lock();
        let prev = self.current.swap(EMPTY, Ordering::AcqRel);
        let _ = self.promote(&mut owner);
        drop(owner);
        self.fold_tracked();
        (prev != EMPTY).then(|| decode(prev))
    }

    fn nr_threads_exact(&self) -> u64 {
        // Exact when quiescent; under concurrency a task mid-migration
        // (claimed from this victim, not yet delivered to its thief) is
        // momentarily attributed to neither side.  Injector residents are
        // included — and everything included is also stealable, so the
        // count balancing acts on and the set thieves can claim from are
        // the same.
        self.nr_threads()
    }

    fn refresh(&self) {
        // Deliberately not correctness-critical: injector residents are
        // stealable the whole time, and every conservation property holds
        // with no tick at all (the storm tests converge without one).  The
        // tick makes the owner pop's move for a core whose owner is not
        // popping, so an overflowed or injected task does not wait in the
        // injector behind a ring that never empties.
        self.absorb(&mut self.owner.lock());
        self.fold_tracked();
    }

    fn try_steal_recorded(
        thief: &Self,
        victim: &Self,
        filter: &dyn FilterPolicy,
        max_tasks: usize,
        recorder: Option<StealRecorder<'_>>,
    ) -> StealOutcome {
        assert_ne!(thief.id(), victim.id(), "a core cannot steal from itself");
        let want = max_tasks.max(1);
        let mut share = CLAIMED.take();
        share.clear();
        // Claim until the decision's size is met, the victim has nothing
        // (more) to give, or a claim had to hand losers back.
        let failure = loop {
            let held = share.len();
            if let Err(outcome) = victim.claim_checked_many(thief, filter, want - held, &mut share)
            {
                break Some(outcome);
            }
            if victim.trim(thief, &mut share, held) || share.len() >= want {
                break None;
            }
        };
        // A partial batch is still a success.
        let outcome = match failure {
            Some(failure) if share.is_empty() => failure,
            _ => StealOutcome::Stole {
                victim: victim.id(),
                tasks: share.iter().map(|&word| decode(word).id).collect(),
            },
        };
        // The CAS claim is the linearization point; the counters move
        // right after it — and before the thief's queue shows the tasks:
        // whoever steals one of them on from there records that after this,
        // so the trace has every task arrive before it leaves again.
        if let Some(rec) = recorder {
            rec.record_attempt(&outcome, want);
        }
        // Deliver to the thief's own queue: an owner-side push (the thief
        // owns its bottom end), never a lock shared with other thieves —
        // and one push for the whole decision.
        thief.seat(&share);
        CLAIMED.set(share);
        outcome
    }

    fn attach_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sched_core::policy::DeltaFilter;
    use sched_core::tracker::NrThreadsTracker;

    fn rq(id: usize) -> DequeRq {
        DequeRq::with_tracker(
            CoreId(id),
            NodeId(0),
            Arc::new(NrThreadsTracker),
            Arc::new(AtomicU64::new(0)),
        )
    }

    #[test]
    fn encode_decode_round_trips_id_and_nice() {
        for (id, nice) in [(0u64, 0i8), (1, -20), (42, 19), ((1 << 55) - 2, 5)] {
            let task = RqTask::with_nice(TaskId(id), Nice::new(nice));
            let decoded = decode(encode(&task));
            assert_eq!(decoded.id, task.id);
            assert_eq!(decoded.nice, task.nice);
            assert_eq!(decoded.weight(), task.weight());
        }
        assert_ne!(encode(&RqTask::new(TaskId(0))), EMPTY, "id 0 must not collide with EMPTY");
    }

    #[test]
    fn enqueue_runs_immediately_on_an_idle_core() {
        let q = rq(0);
        assert!(q.snapshot().is_idle());
        q.enqueue(RqTask::new(TaskId(1)));
        let snap = q.snapshot();
        assert_eq!(snap.nr_threads, 1);
        assert!(!snap.is_overloaded());
        assert_eq!(q.complete_current().unwrap().id, TaskId(1));
        assert!(q.snapshot().is_idle());
    }

    #[test]
    fn snapshot_counts_weights_like_the_mutex_backend() {
        let q = rq(0);
        q.enqueue(RqTask::new(TaskId(1)));
        q.enqueue(RqTask::with_nice(TaskId(2), Nice::new(19)));
        let snap = q.snapshot();
        assert_eq!(snap.nr_threads, 2);
        assert_eq!(snap.weighted_load, 1024 + 15);
        assert_eq!(snap.lightest_ready_weight, Some(15));
        assert!(snap.is_overloaded());
    }

    #[test]
    fn the_lightest_watermark_retires_when_its_task_departs() {
        // The recorded minimum leaving — by steal or by owner pop — must
        // not haunt later queue generations: the mark drops back to
        // "unknown" (snapshot None) until the next enqueue re-bounds it.
        let victim = rq(1);
        victim.enqueue(RqTask::new(TaskId(0))); // becomes current
        victim.enqueue(RqTask::new(TaskId(1))); // weight 1024, queued first
        victim.enqueue(RqTask::with_nice(TaskId(2), Nice::new(19))); // weight 15
        assert_eq!(victim.snapshot().lightest_ready_weight, Some(15));
        // The thief claims from the top of the deque: the *oldest* waiter
        // (1024) first, which is not the minimum — the mark survives.
        let thief = rq(0);
        let filter = sched_core::policy::DeltaFilter::new(sched_core::LoadMetric::NrThreads, 1);
        assert!(DequeRq::try_steal_recorded(&thief, &victim, &filter, 1, None).is_success());
        assert_eq!(victim.snapshot().lightest_ready_weight, Some(15));
        // The second claim takes the recorded minimum itself: unknown now.
        assert!(DequeRq::try_steal_recorded(&thief, &victim, &filter, 1, None).is_success());
        assert_eq!(victim.snapshot().lightest_ready_weight, None, "queue empty");
        // A fresh generation of heavy tasks must not inherit the old 15.
        victim.enqueue(RqTask::new(TaskId(3)));
        assert_eq!(victim.snapshot().lightest_ready_weight, Some(1024));
    }

    #[test]
    fn a_nice_0_queue_stays_stealable_by_weight_after_a_departure() {
        // Five `nice 0` tasks, one completion: three wait.  A departure
        // must not leave the lightest waiting weight "unknown" while tasks
        // wait, or the weighted filter refuses an idle thief — a
        // work-conservation hole.  `nice 0` tasks never touch the
        // watermark, so their lightest weight stays exact.
        let victim = rq(1);
        for i in 0..5 {
            victim.enqueue(RqTask::new(TaskId(i)));
        }
        assert_eq!(victim.complete_current().map(|task| task.id), Some(TaskId(0)));
        let snap = victim.snapshot();
        assert_eq!((snap.nr_threads, snap.weighted_load), (4, 4 * 1024));
        assert_eq!(snap.lightest_ready_weight, Some(1024));
        let filter = sched_core::policy::WeightedDeltaFilter::new();
        assert!(DequeRq::try_steal_recorded(&rq(0), &victim, &filter, 1, None).is_success());
    }

    #[test]
    fn complete_current_elects_a_successor() {
        let q = rq(0);
        q.enqueue(RqTask::new(TaskId(1)));
        q.enqueue(RqTask::new(TaskId(2)));
        let done = q.complete_current().unwrap();
        assert_eq!(done.id, TaskId(1));
        assert_eq!(q.snapshot().nr_threads, 1);
        assert!(q.complete_current().is_some());
        assert!(q.complete_current().is_none());
        assert!(q.snapshot().is_idle());
    }

    #[test]
    fn steal_claims_exclusively_and_delivers_to_the_thief() {
        let thief = rq(0);
        let victim = rq(1);
        for i in 0..3 {
            victim.enqueue(RqTask::new(TaskId(i)));
        }
        let outcome =
            DequeRq::try_steal_recorded(&thief, &victim, &DeltaFilter::listing1(), 1, None);
        assert!(outcome.is_success());
        assert_eq!(thief.snapshot().nr_threads, 1);
        assert_eq!(victim.snapshot().nr_threads, 2);
    }

    #[test]
    fn recheck_fails_when_the_victim_is_not_worth_stealing_from() {
        let thief = rq(0);
        let victim = rq(1);
        victim.enqueue(RqTask::new(TaskId(0)));
        let outcome =
            DequeRq::try_steal_recorded(&thief, &victim, &DeltaFilter::listing1(), 1, None);
        assert_eq!(outcome, StealOutcome::RecheckFailed { victim: CoreId(1) });
        assert_eq!(victim.snapshot().nr_threads, 1);
    }

    #[test]
    fn the_running_task_is_unstealable_by_construction() {
        let thief = rq(0);
        let victim = rq(1);
        victim.enqueue(RqTask::new(TaskId(0)));
        victim.enqueue(RqTask::new(TaskId(1)));
        let outcome =
            DequeRq::try_steal_recorded(&thief, &victim, &DeltaFilter::listing1(), 8, None);
        match outcome {
            StealOutcome::Stole { tasks, .. } => assert_eq!(tasks, vec![TaskId(1)]),
            other => panic!("expected a steal, got {other:?}"),
        }
        assert_eq!(victim.complete_current().unwrap().id, TaskId(0));
    }

    #[test]
    fn a_batch_is_claimed_at_the_balanced_split_of_the_live_counters() {
        // A greedy decision (ask for everything) against a victim with 1
        // running + 5 waiting: the claim is sized from the live counters
        // the filter was re-checked on, so it takes the three tasks an idle
        // thief can be given and nothing has to be handed back.
        let thief = rq(0);
        let victim = rq(1);
        for i in 0..6 {
            victim.enqueue(RqTask::new(TaskId(i)));
        }
        let filter = DeltaFilter::listing1();
        let outcome = DequeRq::try_steal_recorded(&thief, &victim, &filter, 8, None);
        match outcome {
            StealOutcome::Stole { ref tasks, .. } => {
                assert_eq!(tasks.len(), 3, "the claim stops at the balanced split")
            }
            ref other => panic!("expected a batch steal, got {other:?}"),
        }
        assert_eq!(thief.nr_threads_exact(), 3);
        assert_eq!(thief.snapshot().lightest_ready_weight, Some(1024), "two of them wait");
        assert_eq!(victim.nr_threads_exact(), 3);
        assert_eq!(victim.injected_len(), 0, "no over-claim, no loop-back");
    }

    #[test]
    fn batch_steal_trims_to_the_balanced_split_and_loops_losers_back() {
        // The counters move on between a claim and its delivery: here two
        // wakeups land on the thief while it holds three claimed tasks.
        // The delivery's own re-check hands over what still evens the pair
        // out and loops the loser back to the victim's injector — where it
        // is immediately stealable again.
        let thief = rq(0);
        let victim = rq(1);
        for i in 0..6 {
            victim.enqueue(RqTask::new(TaskId(i)));
        }
        let filter = DeltaFilter::listing1();
        let mut share = Vec::new();
        victim.claim_checked_many(&thief, &filter, 8, &mut share).expect("the filter holds");
        assert_eq!(share.len(), 3);
        assert_eq!(victim.nr_threads_exact(), 3, "claimed words belong to neither side");
        for i in 6..8 {
            thief.enqueue(RqTask::new(TaskId(i)));
        }
        assert!(victim.trim(&thief, &mut share, 0), "3 + 3 against 2: two even it out");
        thief.seat(&share);
        assert_eq!(thief.nr_threads_exact(), 4);
        assert_eq!(victim.nr_threads_exact(), 4, "the loser is the victim's again");
        assert_eq!(victim.injected_len(), 1, "looped back through the injector");
        assert_eq!(victim.snapshot().injected, 1, "…and visible to injector-aware choices");
        // Nothing lost, nothing duplicated, and the loop-backed task is
        // claimable without any refresh.
        let mut drained = Vec::new();
        while let Some(task) = victim.complete_current() {
            drained.push(task.id);
        }
        assert_eq!(drained.len(), 4);
        assert_eq!(victim.injected_len(), 0);

        // However stale the claim, the decision's first task is kept: the
        // filter approved that one.
        let (thief, victim) = (rq(2), rq(3));
        for i in 8..12 {
            victim.enqueue(RqTask::new(TaskId(i)));
        }
        share.clear();
        victim.claim_checked_many(&thief, &filter, 8, &mut share).expect("the filter holds");
        assert_eq!(share.len(), 2);
        for i in 12..16 {
            thief.enqueue(RqTask::new(TaskId(i)));
        }
        assert!(victim.trim(&thief, &mut share, 0));
        assert_eq!(share.len(), 1, "2 + 2 against 4: one, never none");
        assert_eq!(victim.injected_len(), 1);
    }

    #[test]
    fn a_decision_s_later_claims_see_the_thief_with_its_share() {
        // A decision holds its share back until the outcome is on record.
        // What it asks the filter for a second claim, it asks for the thief
        // as it will be: two held words even an idle thief out with a
        // victim of two, although its queue still reads empty.
        let (thief, victim) = (rq(0), rq(1));
        for i in 0..4 {
            victim.enqueue(RqTask::new(TaskId(i)));
        }
        let filter = DeltaFilter::listing1();
        let mut share = Vec::new();
        victim.claim_checked_many(&thief, &filter, 8, &mut share).expect("the filter holds");
        assert_eq!((share.len(), thief.nr_threads_exact(), victim.nr_threads_exact()), (2, 0, 2));
        assert_eq!(
            victim.claim_checked_many(&thief, &filter, 6, &mut share),
            Err(StealOutcome::RecheckFailed { victim: CoreId(1) })
        );
        assert_eq!(share.len(), 2, "a refused claim leaves the share as it was");
    }

    #[test]
    fn overflow_goes_to_the_injector_and_is_stealable_immediately() {
        // The work-conservation contract for overflow: a task the ring had
        // no room for is claimable by thieves from the instant the enqueue
        // returns — no refresh, no owner assistance.  (The old contract,
        // "the spill is invisible to thieves until a refresh", is the bug
        // this backend used to have; `SpillQueue` keeps it reproducible as
        // E22's baseline, see the next test.)  Every storm size, from a ring
        // that just fits to one that overflows sixteenfold.
        let filter = sched_core::policy::DeltaFilter::new(sched_core::LoadMetric::NrThreads, 1);
        for overflow in [0u64, 1, 3, 64] {
            let clock = Arc::new(AtomicU64::new(0));
            let q = DequeRq::with_queue_capacity(
                CoreId(0),
                NodeId(0),
                Arc::new(NrThreadsTracker),
                clock,
                4,
            );
            // 1 running + 4 in the ring + `overflow` in the injector.
            let total = 5 + overflow;
            for i in 0..total {
                q.enqueue(RqTask::new(TaskId(i)));
            }
            assert_eq!(q.nr_threads_exact(), total, "overflowed tasks are still counted");
            assert_eq!(q.injected_len() as u64, overflow, "the ring held 4; the rest overflowed");
            // Every waiting task — ring or injector — is stealable right now.
            let thieves: Vec<DequeRq> = (1..total as usize).map(rq).collect();
            for thief in &thieves {
                assert!(
                    DequeRq::try_steal_recorded(thief, &q, &filter, 1, None).is_success(),
                    "no waiting task may hide from thieves, wherever it is parked"
                );
            }
            assert_eq!(q.injected_len(), 0);
            assert_eq!(q.nr_threads_exact(), 1, "only the (unstealable) running task remains");
            let resident: u64 = thieves.iter().map(DequeRq::nr_threads_exact).sum();
            assert_eq!(q.nr_threads_exact() + resident, total, "nothing lost");
        }
    }

    #[test]
    fn the_owner_picks_injected_tasks_when_the_ring_drains() {
        // Owner-side visibility of overflow: with no thief in sight, the
        // owner alone must run every task — ring first (LIFO), then the
        // injector — without any refresh.
        let clock = Arc::new(AtomicU64::new(0));
        let q = DequeRq::with_queue_capacity(
            CoreId(0),
            NodeId(0),
            Arc::new(NrThreadsTracker),
            clock,
            4,
        );
        for i in 0..9 {
            q.enqueue(RqTask::new(TaskId(i)));
        }
        let mut completed = Vec::new();
        while let Some(task) = q.complete_current() {
            completed.push(task.id.0);
        }
        completed.sort_unstable();
        assert_eq!(completed, (0..9).collect::<Vec<_>>(), "every task ran exactly once");
        assert!(q.snapshot().is_idle());
        assert_eq!(q.injected_len(), 0);
    }

    #[test]
    fn the_watermark_covers_injector_residents() {
        // Satellite of the injector change: the lightest-weight watermark
        // must describe the *stealable* set.  A light task that overflows
        // into the injector is stealable, so it must bound the mark — and
        // the bound must retire when the light task departs.
        let clock = Arc::new(AtomicU64::new(0));
        let victim = DequeRq::with_queue_capacity(
            CoreId(0),
            NodeId(0),
            Arc::new(NrThreadsTracker),
            clock,
            4,
        );
        // 1 running + 4 heavy in the ring, then a light task that can only
        // land in the injector.
        for i in 0..5 {
            victim.enqueue(RqTask::new(TaskId(i)));
        }
        victim.enqueue(RqTask::with_nice(TaskId(5), Nice::new(19)));
        assert_eq!(victim.injected_len(), 1);
        assert_eq!(
            victim.snapshot().lightest_ready_weight,
            Some(15),
            "the injected light task bounds the watermark"
        );
        // Drain the ring (4 heavy steals, a fresh idle thief each): the
        // light task is still there, so the mark must survive…
        let filter = sched_core::policy::DeltaFilter::new(sched_core::LoadMetric::NrThreads, 1);
        let thieves: Vec<DequeRq> = (1..=5).map(rq).collect();
        for thief in thieves.iter().take(4) {
            assert!(DequeRq::try_steal_recorded(thief, &victim, &filter, 1, None).is_success());
        }
        assert_eq!(victim.snapshot().lightest_ready_weight, Some(15));
        // …and the fifth steal claims it from the injector, retiring the
        // mark (queue empty -> unknown).
        assert!(DequeRq::try_steal_recorded(&thieves[4], &victim, &filter, 1, None).is_success());
        assert_eq!(victim.snapshot().lightest_ready_weight, None);
        assert_eq!(victim.injected_len(), 0);
    }

    #[test]
    fn the_tick_ages_injector_residents_into_the_ring() {
        // The fairness half of the overflow contract: on a core whose
        // ring never empties (steady arrivals, no admitted steals), an
        // overflowed task must not wait unboundedly behind newer ring
        // arrivals — each tick folds injector residents into the ring's
        // free slots, so the wait is tick-bounded even though reachability
        // never depended on it.
        let clock = Arc::new(AtomicU64::new(0));
        let q = DequeRq::with_queue_capacity(
            CoreId(0),
            NodeId(0),
            Arc::new(NrThreadsTracker),
            clock,
            4,
        );
        for i in 0..8 {
            q.enqueue(RqTask::new(TaskId(i)));
        }
        assert_eq!(q.injected_len(), 3);
        // One completion per period: the ring never empties (the promote
        // refills `current` from the ring, which stays at three or more),
        // so without the tick's drain the injected three would sit
        // forever behind newer ring arrivals.  Each tick must move one
        // into the slot the completion freed.
        for tick in 0u64..3 {
            assert!(q.complete_current().is_some());
            q.refresh();
            assert_eq!(
                q.injected_len() as u64,
                2 - tick,
                "each tick must age one resident into the ring"
            );
        }
        assert_eq!(q.injected_len(), 0, "the overflow wait is tick-bounded");
        assert_eq!(q.nr_threads_exact(), 5, "8 started, 3 completed; aging loses nothing");
    }

    #[test]
    fn legacy_private_spill_reproduces_the_conservation_hole() {
        // The discipline this backend used to have, kept as E22's
        // measurable baseline on the mutex substrate: past the window the
        // spill is counted but unstealable until a refresh.  This test
        // *documents the bug* — it is what the shared injector above fixes.
        use crate::overflow::SpillQueue;
        use crate::{PerCoreRq, TINY_RING_CAPACITY};
        type Spilling = PerCoreRq<SpillQueue>;
        let core = |id| Spilling::new(CoreId(id), NodeId(0));
        let storm = 1 + TINY_RING_CAPACITY + 4;
        let q = core(0);
        for i in 0..storm {
            q.enqueue(RqTask::new(TaskId(i as u64)));
        }
        assert_eq!(q.nr_threads_exact(), storm as u64, "the spill is visible to load observers…");
        let filter = sched_core::policy::DeltaFilter::new(sched_core::LoadMetric::NrThreads, 1);
        let thieves: Vec<Spilling> = (1..=TINY_RING_CAPACITY + 2).map(core).collect();
        for thief in thieves.iter().take(TINY_RING_CAPACITY) {
            assert!(Spilling::try_steal_recorded(thief, &q, &filter, 1, None).is_success());
        }
        assert_eq!(
            Spilling::try_steal_recorded(&thieves[TINY_RING_CAPACITY], &q, &filter, 1, None),
            StealOutcome::NothingToSteal { victim: CoreId(0) },
            "…but unstealable: an idle core starves against visibly waiting work"
        );
        q.refresh();
        assert!(
            Spilling::try_steal_recorded(&thieves[TINY_RING_CAPACITY + 1], &q, &filter, 1, None)
                .is_success(),
            "only the tick's drain re-exposes the stranded work"
        );
        let resident: u64 = thieves.iter().map(Spilling::nr_threads_exact).sum();
        assert_eq!(
            q.nr_threads_exact() + resident,
            storm as u64,
            "the hole delays work; it never loses it"
        );
    }

    #[test]
    #[ignore = "nightly-strength stress; run via `cargo test -- --ignored`"]
    fn stress_injector_overflow_races_high_iteration() {
        // Overflow storms under real contention: a tiny ring forces every
        // burst through the injector while thieves and the owner race.
        // Conservation must hold exactly, storm after storm.
        let filter = DeltaFilter::listing1();
        for round in 0..200 {
            let clock = Arc::new(AtomicU64::new(0));
            let victim = Arc::new(DequeRq::with_queue_capacity(
                CoreId(0),
                NodeId(0),
                Arc::new(NrThreadsTracker),
                clock,
                4,
            ));
            let thieves: Vec<Arc<DequeRq>> = (1..=4).map(|i| Arc::new(rq(i))).collect();
            for i in 0..64 {
                victim.enqueue(RqTask::new(TaskId(i)));
            }
            let completed = std::sync::atomic::AtomicU64::new(0);
            std::thread::scope(|scope| {
                {
                    let victim = Arc::clone(&victim);
                    let completed = &completed;
                    scope.spawn(move || {
                        for _ in 0..24 {
                            if victim.complete_current().is_some() {
                                completed.fetch_add(1, Ordering::AcqRel);
                            }
                            std::hint::spin_loop();
                        }
                    });
                }
                for thief in &thieves {
                    let victim = Arc::clone(&victim);
                    let thief = Arc::clone(thief);
                    let filter = &filter;
                    scope.spawn(move || {
                        for _ in 0..8 {
                            let _ = DequeRq::try_steal_recorded(&thief, &victim, filter, 1, None);
                        }
                    });
                }
            });
            let resident: u64 = thieves.iter().map(|t| t.nr_threads_exact()).sum();
            assert_eq!(
                completed.load(Ordering::Acquire) + victim.nr_threads_exact() + resident,
                64,
                "round {round}: completions, residents and migrants must cover every task"
            );
        }
    }

    #[test]
    fn owner_and_thief_race_on_the_queue_conserves_tasks() {
        let victim = Arc::new(rq(1));
        let thief = Arc::new(rq(0));
        for i in 0..64 {
            victim.enqueue(RqTask::new(TaskId(i)));
        }
        let filter = DeltaFilter::listing1();
        std::thread::scope(|scope| {
            let consumer = {
                let victim = Arc::clone(&victim);
                scope.spawn(move || {
                    let mut completed = 0u64;
                    for _ in 0..32 {
                        if victim.complete_current().is_some() {
                            completed += 1;
                        }
                        std::thread::yield_now();
                    }
                    completed
                })
            };
            for _ in 0..16 {
                let _ = DequeRq::try_steal_recorded(&thief, &victim, &filter, 1, None);
            }
            let completed = consumer.join().unwrap();
            assert_eq!(
                completed + victim.nr_threads_exact() + thief.nr_threads_exact(),
                64,
                "completions, residents and migrants must account for every task"
            );
        });
    }

    /// A queue with a ring of `capacity` slots under the thread-count
    /// tracker.
    fn rq_with_ring(id: usize, capacity: usize) -> DequeRq {
        DequeRq::with_queue_capacity(
            CoreId(id),
            NodeId(0),
            Arc::new(NrThreadsTracker),
            Arc::new(AtomicU64::new(0)),
            capacity,
        )
    }

    #[test]
    fn an_injection_claims_an_idle_core_and_otherwise_waits_in_the_injector() {
        let q = rq(0);
        q.inject(RqTask::new(TaskId(1)));
        assert_eq!((q.current_task(), q.injected_len()), (Some(TaskId(1)), 0));
        q.inject(RqTask::with_nice(TaskId(2), Nice::new(19)));
        let snap = q.snapshot();
        assert_eq!((snap.nr_threads, snap.injected), (2, 1));
        assert_eq!(snap.weighted_load, 1024 + 15);
        assert_eq!(snap.lightest_ready_weight, Some(15));
        assert_eq!(q.queued.load(Ordering::Relaxed), 0, "the ring's count is the owner's alone");
    }

    #[test]
    fn injected_tasks_run_newest_first_and_a_thief_takes_the_oldest() {
        // The order an open loop's median latency rests on: the owner runs
        // the newest waiting task, a thief takes the oldest, however the
        // tasks arrived.  A, B and C are injected behind a running task and
        // wait in the injector; the owner's next pop moves them into the
        // ring oldest first.
        let q = rq(1);
        q.enqueue(RqTask::new(TaskId(0)));
        let [a, b, c] = [1, 2, 3].map(TaskId);
        for id in [a, b, c] {
            q.inject(RqTask::new(id));
        }
        assert_eq!((q.injected_len(), q.snapshot().nr_threads), (3, 4));
        assert_eq!(q.complete_current().map(|task| task.id), Some(TaskId(0)));
        assert_eq!(q.injected_len(), 0, "the pop moved the injector into the ring");
        assert_eq!(q.complete_current().map(|task| task.id), Some(c), "C, the newest, ran first");
        assert_eq!(q.current_task(), Some(b), "then B");
        let outcome = DequeRq::try_steal_recorded(&rq(0), &q, &DeltaFilter::listing1(), 1, None);
        assert_eq!(outcome, StealOutcome::Stole { victim: CoreId(1), tasks: vec![a] });
        // An injection is newer than what already waits in the ring, and
        // the move before the pop puts it there, not just when the ring
        // runs dry.
        q.enqueue(RqTask::new(TaskId(4)));
        q.inject(RqTask::new(TaskId(5)));
        assert_eq!(q.complete_current().map(|task| task.id), Some(b));
        assert_eq!(q.current_task(), Some(TaskId(5)));
    }

    #[test]
    fn a_snapshot_during_the_move_into_the_ring_never_reads_low() {
        // The move counts its words in the ring before it claims them from
        // the injector.  A snapshot between the injector's resident check
        // and its claim (the probe), or between the claim and the push into
        // the ring (the sink), may count a moving task twice but never
        // misses one.  The probe also lets a rival claim the two oldest
        // residents first: the move takes the rest, and gives back the
        // count it had taken for the two.
        let q = rq_with_ring(0, 8);
        q.enqueue(RqTask::new(TaskId(0)));
        for id in 1..=6 {
            q.inject(RqTask::new(TaskId(id)));
        }
        let reads_low = |live: u64| q.snapshot().nr_threads < live;
        let mut rival = Vec::new();
        q.absorb_by(&mut q.owner.lock(), |want, into| {
            assert_eq!(want, 6);
            q.injector.steal_batch_with_probe(
                want,
                |word| {
                    assert!(!reads_low(5), "a claimed word is counted before the ring holds it");
                    into.push(word);
                },
                || {
                    assert!(!reads_low(7));
                    assert_eq!(q.injector.steal_batch_into(2, &mut rival), 2);
                    assert!(!reads_low(5));
                },
            )
        });
        assert_eq!(rival.iter().map(|&word| decode(word).id.0).collect::<Vec<_>>(), [1, 2]);
        let snap = q.snapshot();
        assert_eq!((snap.nr_threads, snap.injected), (5, 0), "exact again once the move is done");
        assert_eq!(q.queued.load(Ordering::Relaxed), 4);
        assert_eq!(q.complete_current().map(|task| task.id), Some(TaskId(0)));
        assert_eq!(q.current_task(), Some(TaskId(6)));
    }

    #[test]
    fn a_foreign_push_shares_no_cache_line_pair_with_the_owner_path() {
        // The injector is the only line pair a foreign submission writes
        // to a busy core; the owner writes its mutex, the running slot and
        // the ring's count for every task.
        use std::mem::{offset_of, size_of};
        let pair = |offset: usize| offset / 128;
        let injector = offset_of!(DequeRq, injector);
        let pairs = pair(injector)..=pair(injector + size_of::<Padded<Injector>>() - 1);
        for owned in
            [offset_of!(DequeRq, owner), offset_of!(DequeRq, current), offset_of!(DequeRq, queued)]
        {
            assert!(!pairs.contains(&pair(owned)), "field at {owned} shares the injector's lines");
        }
    }

    /// What one queue holds, kept by hand: the running task and the
    /// waiting ones, each with its weight.
    #[derive(Debug, Default)]
    struct Oracle {
        current: Option<(TaskId, u64)>,
        waiting: Vec<(TaskId, u64)>,
    }

    impl Oracle {
        /// Follows a promotion the queue made on its own: a core that
        /// runs a task the oracle still has waiting took it from there.
        fn follow(&mut self, q: &DequeRq) {
            let live = q.current_task();
            if self.current.map(|(id, _)| id) != live {
                let id = live.expect("a core is emptied only by complete_current");
                let at = self.waiting.iter().position(|&(w, _)| w == id).expect("it waited here");
                self.current = Some(self.waiting.swap_remove(at));
            }
        }

        fn check(&self, q: &DequeRq, weighted_tracker: bool) -> Result<(), TestCaseError> {
            let snap = q.snapshot();
            let nr_threads = self.waiting.len() as u64 + u64::from(self.current.is_some());
            let weighted: u64 = self.waiting.iter().chain(&self.current).map(|&(_, w)| w).sum();
            prop_assert_eq!(snap.nr_threads, nr_threads);
            prop_assert_eq!(snap.weighted_load, weighted);
            let inst = if weighted_tracker { weighted } else { nr_threads };
            prop_assert_eq!(snap.tracked_scaled, inst * TRACK_SCALE);
            let lightest = self.waiting.iter().map(|&(_, w)| w).min();
            if self.waiting.iter().all(|&(_, w)| w == Weight::NICE_0.raw()) {
                prop_assert_eq!(snap.lightest_ready_weight, lightest);
            } else if let Some(reported) = snap.lightest_ready_weight {
                prop_assert!(Some(reported) >= lightest, "{reported} below {lightest:?}");
            }
            Ok(())
        }
    }

    proptest! {
        /// Mixed-niceness enqueue / pick / complete / steal / tick
        /// sequences on two queues, against the oracle after every step:
        /// thread count and weighted load are exact, an instantaneous
        /// tracker reads the load times `TRACK_SCALE`, the lightest
        /// waiting weight is exact while only `nice 0` tasks wait and never
        /// below the true minimum otherwise.
        #[test]
        fn the_counters_agree_with_an_exact_oracle(
            weighted_tracker in 0u8..2,
            ring in 0usize..3,
            ops in prop::collection::vec((0u8..6, 0usize..2, 0usize..8, 1usize..5), 1..120),
        ) {
            let weighted_tracker = weighted_tracker == 1;
            let tracker: Arc<dyn LoadTracker> = if weighted_tracker {
                Arc::new(sched_core::tracker::WeightedTracker)
            } else {
                Arc::new(NrThreadsTracker)
            };
            let clock = Arc::new(AtomicU64::new(0));
            let capacity = [2, 4, DEFAULT_QUEUE_CAPACITY][ring];
            let queues: Vec<DequeRq> = (0..2)
                .map(|i| {
                    let tracker = Arc::clone(&tracker);
                    DequeRq::with_queue_capacity(CoreId(i), NodeId(0), tracker, Arc::clone(&clock), capacity)
                })
                .collect();
            let mut oracles = [Oracle::default(), Oracle::default()];
            let nices = [0i8, 0, 0, 0, -5, 5, 19, 0];
            let filters: [&dyn FilterPolicy; 2] =
                [&DeltaFilter::listing1(), &sched_core::policy::WeightedDeltaFilter::new()];
            let mut next_id = 0;
            for (op, at, pick, k) in ops {
                let (q, other) = (&queues[at], &queues[1 - at]);
                match op {
                    0 | 1 => {
                        let task = RqTask::with_nice(TaskId(next_id), Nice::new(nices[pick]));
                        next_id += 1;
                        oracles[at].waiting.push((task.id, task.weight().raw()));
                        q.enqueue(task);
                    }
                    2 => {
                        q.pick_next();
                    }
                    3 => {
                        let done = q.complete_current().map(|task| task.id);
                        prop_assert_eq!(done, oracles[at].current.take().map(|(id, _)| id));
                    }
                    4 => {
                        let filter = filters[pick % 2];
                        if let StealOutcome::Stole { tasks, .. } =
                            DequeRq::try_steal_recorded(other, q, filter, k, None)
                        {
                            for id in tasks {
                                let from = &mut oracles[at].waiting;
                                let i = from.iter().position(|&(w, _)| w == id);
                                let moved = from.swap_remove(i.expect("a thief takes a waiting task"));
                                oracles[1 - at].waiting.push(moved);
                            }
                        }
                    }
                    _ => q.refresh(),
                }
                for (oracle, q) in oracles.iter_mut().zip(&queues) {
                    oracle.follow(q);
                    oracle.check(q, weighted_tracker)?;
                }
            }
        }
    }

    /// Where one queue's tasks are, kept by hand: the running task, the
    /// ring and the injector (each oldest first), with their weights.
    #[derive(Debug, Default)]
    struct Places {
        current: Option<(u64, u64)>,
        ring: std::collections::VecDeque<(u64, u64)>,
        injector: std::collections::VecDeque<(u64, u64)>,
    }

    impl Places {
        /// An owner enqueue or a foreign injection of `task`.
        fn arrive(&mut self, task: (u64, u64), capacity: usize, foreign: bool) {
            if self.current.is_none() {
                self.current = Some(task);
            } else if !foreign && self.ring.len() < capacity {
                self.ring.push_back(task);
            } else {
                self.injector.push_back(task);
            }
        }

        /// An owner pop onto an idle core: the injector moves into the
        /// ring's free slots, then the newest ring resident runs.
        fn promote(&mut self, capacity: usize) {
            let room = (capacity - self.ring.len()).min(self.injector.len());
            self.ring.extend(self.injector.drain(..room));
            self.current = self.ring.pop_back();
        }

        /// A thief's claim of `words`: the ring's oldest, or the
        /// injector's when the ring is empty.
        fn claim(&mut self, words: &[u64]) -> Result<(), TestCaseError> {
            let from = if self.ring.is_empty() { &mut self.injector } else { &mut self.ring };
            prop_assert!(words.len() <= from.len());
            for (&word, (id, _)) in words.iter().zip(from.drain(..words.len())) {
                prop_assert_eq!(decode(word).id.0, id);
            }
            Ok(())
        }

        fn check(&self, q: &DequeRq) -> Result<(), TestCaseError> {
            let snap = q.snapshot();
            let all = || self.current.iter().chain(&self.ring).chain(&self.injector);
            prop_assert_eq!(snap.nr_threads, all().count() as u64);
            prop_assert_eq!(snap.weighted_load, all().map(|&(_, w)| w).sum::<u64>());
            prop_assert_eq!(snap.injected, self.injector.len() as u64);
            prop_assert_eq!(q.queued.load(Ordering::Relaxed), self.ring.len() as u64);
            prop_assert_eq!(q.current_task(), self.current.map(|(id, _)| TaskId(id)));
            Ok(())
        }
    }

    proptest! {
        /// One queue under owner enqueues and pops, foreign injections,
        /// thief batch claims that trim losers back, and ticks, against a
        /// hand-kept record of where each task is: at every quiescent point
        /// the snapshot's thread count and weighted load are the live
        /// population's, `injected` is the injector's residents, `queued`
        /// the ring's, and every pop and claim takes the task the record
        /// says it does.
        #[test]
        fn ring_and_injector_counts_agree_with_where_the_tasks_are(
            ring in 0usize..3,
            ops in prop::collection::vec((0u8..7, 0usize..8, 1usize..5), 1..150),
        ) {
            let capacity = [2, 4, 8][ring];
            let q = rq_with_ring(0, capacity);
            let thief = rq(1);
            let mut places = Places::default();
            let mut thief_load = 0u64;
            let nices = [0i8, 0, 0, 0, -5, 5, 19, 0];
            let filters = [DeltaFilter::listing1(), DeltaFilter::new(LoadMetric::NrThreads, 1)];
            let mut next_id = 0;
            for (op, pick, k) in ops {
                match op {
                    0 | 1 => {
                        let task = RqTask::with_nice(TaskId(next_id), Nice::new(nices[pick]));
                        next_id += 1;
                        let foreign = op == 1;
                        places.arrive((task.id.0, task.weight().raw()), capacity, foreign);
                        if foreign {
                            q.inject(task);
                        } else {
                            q.enqueue(task);
                        }
                    }
                    2 => {
                        let done = q.complete_current().map(|task| task.id.0);
                        prop_assert_eq!(done, places.current.take().map(|(id, _)| id));
                        places.promote(capacity);
                    }
                    3 => {
                        q.pick_next();
                        if places.current.is_none() {
                            places.promote(capacity);
                        }
                    }
                    4 => {
                        // A claim, `pick % 3` arrivals on the thief while it
                        // holds the claim, and the delivery's trim.
                        let mut share = Vec::new();
                        let filter = &filters[pick % 2];
                        if q.claim_checked_many(&thief, filter, k, &mut share).is_ok() {
                            places.claim(&share)?;
                            for _ in 0..pick % 3 {
                                thief.enqueue(RqTask::new(TaskId(next_id)));
                                next_id += 1;
                                thief_load += 1;
                            }
                            let claimed = share.clone();
                            q.trim(&thief, &mut share, 0);
                            for &word in &claimed[share.len()..] {
                                let task = decode(word);
                                places.injector.push_back((task.id.0, task.weight().raw()));
                            }
                            thief.seat(&share);
                            thief_load += share.len() as u64;
                        }
                    }
                    5 => {
                        if thief.complete_current().is_some() {
                            thief_load -= 1;
                        }
                    }
                    _ => {
                        q.refresh();
                        let room = (capacity - places.ring.len()).min(places.injector.len());
                        let moved: Vec<_> = places.injector.drain(..room).collect();
                        places.ring.extend(moved);
                    }
                }
                places.check(&q)?;
                prop_assert_eq!(thief.snapshot().nr_threads, thief_load);
            }
        }
    }

    #[test]
    #[ignore = "nightly-strength stress; run via `cargo test -- --ignored`"]
    fn stress_foreign_producers_owner_and_thieves_claim_every_task_once() {
        // Two producers inject into a core with an eight-slot ring while its
        // owner pops and two thieves claim batches from it: every task is
        // claimed exactly once, and the victim's counters return to zero.
        const PRODUCERS: u64 = 2;
        const EACH: u64 = 500;
        let total = PRODUCERS * EACH;
        let filter = DeltaFilter::new(LoadMetric::NrThreads, 1);
        let nices = [0i8, 0, 0, 5];
        for round in 0..100 {
            let victim = rq_with_ring(0, 8);
            let thieves: Vec<DequeRq> = (1..=2).map(rq).collect();
            let seen: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
            let done = AtomicU64::new(0);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
            let busy =
                || done.load(Ordering::Acquire) < total && std::time::Instant::now() < deadline;
            let record = |task: RqTask| {
                seen[task.id.0 as usize].fetch_add(1, Ordering::Relaxed);
                done.fetch_add(1, Ordering::AcqRel);
            };
            std::thread::scope(|scope| {
                for producer in 0..PRODUCERS {
                    let victim = &victim;
                    scope.spawn(move || {
                        for i in 0..EACH {
                            let nice = Nice::new(nices[i as usize % nices.len()]);
                            victim.inject(RqTask::with_nice(TaskId(producer * EACH + i), nice));
                        }
                    });
                }
                scope.spawn(|| {
                    while busy() {
                        match victim.complete_current() {
                            Some(task) => record(task),
                            None => std::thread::yield_now(),
                        }
                    }
                });
                for thief in &thieves {
                    let (victim, filter) = (&victim, &filter);
                    scope.spawn(move || {
                        while busy() {
                            let _ = DequeRq::try_steal_recorded(thief, victim, filter, 4, None);
                            while let Some(task) = thief.complete_current() {
                                record(task);
                            }
                            std::thread::yield_now();
                        }
                    });
                }
            });
            let counts: Vec<u64> = seen.iter().map(|n| n.load(Ordering::Relaxed)).collect();
            assert!(counts.iter().all(|&n| n == 1), "round {round}: claims per task {counts:?}");
            let snap = victim.snapshot();
            assert_eq!((snap.nr_threads, snap.weighted_load, snap.injected), (0, 0, 0));
            for counter in [&victim.queued, &victim.others, &victim.queued_weight] {
                assert_eq!(counter.load(Ordering::Relaxed), 0, "round {round}");
            }
            assert!(thieves.iter().all(|thief| thief.snapshot().is_idle()));
        }
    }
}
