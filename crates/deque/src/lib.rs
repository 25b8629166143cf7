//! A Chase–Lev work-stealing deque over plain atomics.
//!
//! The paper's stealing phase "must be done atomically for correctness
//! (i.e., no two cores should be able to steal the same thread)" (§3.1).
//! `sched-rq`'s mutex backend obtains that atomicity by double-locking the
//! two runqueues; this crate provides the lock-free alternative: the
//! owner/stealer deque of Chase & Lev (*Dynamic Circular Work-Stealing
//! Deque*, SPAA 2005), with the memory orderings of Lê et al. (*Correct and
//! Efficient Work-Stealing for Weak Memory Models*, PPoPP 2013).
//!
//! * The **owner** pushes and pops at the *bottom* of the deque.  It never
//!   contends with thieves except on the very last element, where it joins
//!   the thieves' CAS race on `top`.
//! * **Thieves** claim elements at the *top* with a single
//!   compare-and-swap.  A successful CAS *is* the steal's linearization
//!   point.
//!
//! # The atomicity argument
//!
//! The mutex backend's argument is "both runqueue locks are held, so the
//! re-check and the dequeue are one critical section".  Here one CAS on
//! `top` replaces the locks, and the argument becomes four points:
//!
//! 1. **Exclusivity** — `top` only grows, through successful CASes, and
//!    each value of `top` is CASed away at most once, so every element is
//!    claimed by exactly one party: *no task is duplicated*.
//! 2. **Conservation** — a claim removes exactly the element(s) at the old
//!    `top` and hands them to exactly one claimant, so pushes = claims +
//!    residue: *no task is lost*.
//! 3. **P1 for CASes** — a failed CAS means `top` moved, and `top` only
//!    moves through someone else's successful claim (another thief, or the
//!    owner's last-element take): *failures imply concurrent successes*,
//!    the paper's §4.3 property P1 at the instruction level.
//! 4. **Work conservation** — because claims neither lose nor duplicate
//!    tasks, the balancing layer's work-conservation reasoning (which only
//!    needs a steal to move real tasks from victim to thief) carries over
//!    unchanged; `MultiQueue<DequeRq>`'s convergence tests pin the
//!    end-to-end statement.
//!
//! This crate's tests are where each point is checked.  The probe hooks
//! ([`Stealer::steal_with_probe`], [`Stealer::steal_many_with_probe`],
//! [`Worker::pop_with_probe`], [`Worker::pop_with_window_probe`] and the
//! injector's) force an adversarial interleaving deterministically, so a
//! check does not depend on the OS preempting at the right instruction —
//! essential on single-CPU runners; `tests/steal_races.rs` hammers the
//! same windows with real threads and exact accounting.
//!
//! # Design choices
//!
//! The buffer is a **fixed-capacity** power-of-two ring of [`AtomicU64`]
//! slots, chosen over the growable original for two reasons: growth
//! requires reclaiming retired buffers under concurrent racy reads (epoch
//! or hazard-pointer machinery this offline workspace does not carry), and
//! a fixed ring keeps the whole implementation in **safe Rust** — every
//! slot access is an atomic operation, so the "racy" reads of the classic
//! algorithm are well-defined here and the claim argument carries over
//! unchanged.  [`Worker::push`] reports overflow as [`Full`] instead of
//! growing; callers overflow into an [`Injector`] (see `sched-rq`'s
//! `DequeRq`) or size the ring for their workload.
//!
//! Elements are bare `u64` words.  Schedulers pack their task descriptors
//! into a word (id + niceness fits comfortably); keeping the deque
//! word-sized is what makes the slot reads atomic and the crate
//! `forbid(unsafe_code)`-clean.
//!
//! Because the ring is fixed-capacity, overflow needs a second structure
//! that **stays visible to thieves** — an owner-private spill list would
//! recreate the idle-while-work-waits bug class the paper targets.  The
//! [`Injector`] (see [`injector`]) is that structure: a shared MPMC segment
//! queue any thief may claim from the moment a rejected element is pushed,
//! with the same [`Steal`] vocabulary and the same deterministic probe
//! hooks as the ring.
//!
//! # Why the stale slot read is safe
//!
//! A thief reads `slots[top & mask]` *before* CASing `top`.  The slot could
//! in principle be overwritten by a later `push` wrapping around the ring —
//! but a push only writes index `b` when `b - top < capacity`, so the
//! overwriting push observed `top > t`, which means the thief's CAS from
//! `t` is already doomed to fail and the stale value is discarded.  A
//! *successful* CAS from `t` therefore proves the value read at `t & mask`
//! was the live element `t`.
//!
//! The same argument covers the **multi-slot** reads of
//! [`Stealer::steal_many`]: a push overwriting any slot in `[t, t + n)`
//! must write at an index `≥ t + capacity`, whose capacity check observed
//! `top > t` — so the batch CAS from `t` is doomed and every value read is
//! discarded together.
//!
//! # Why a batch claim needs a reservation
//!
//! Pushes are not the only hazard for a multi-claim.  The owner pops at the
//! *bottom* and only ever touches `top` for the very last element; it can
//! therefore drain any number of elements **inside** a thief's planned
//! range `[t, t + n)` without the thief's CAS from `t` ever noticing — the
//! CAS would succeed and the drained elements would be claimed twice.  (A
//! single-element claim is immune: claiming only index `t` is validated by
//! the owner's fence-ordered `top` read, which is exactly the Chase–Lev
//! argument.)
//!
//! [`Stealer::steal_many`] closes that hole with a one-word **batch
//! reservation** (`reserved`, the exclusive upper bound of the in-flight
//! claim).  The thief publishes the reservation, then re-reads `bottom`
//! and shrinks its range to what is still present; the owner's pop loads
//! `reserved` and then `top` — **in that order**, both SeqCst, after its
//! SeqCst fence.  Place the pop's `reserved` load in the SeqCst total
//! order against the lifetime of any batch that claims the popped index
//! `x` (reservation CAS → `top` CAS → clear) and exactly three cases
//! remain:
//!
//! 1. *before the reservation CAS* — the batch's post-reservation
//!    `bottom` re-read is fence-ordered after the pop's lowered
//!    `bottom ≤ x`, so the claim shrinks below `x`;
//! 2. *between the CAS and the clear* — the pop observes the reservation
//!    covering `x` and backs off while it is in flight;
//! 3. *after the clear* — the batch's `top` CAS already committed, and
//!    the pop's **later** `top` load observes it, so the pop sees `x`
//!    as already gone.
//!
//! Either way no element is claimed by both parties.  The load order is
//! load-bearing: reading `top` before `reserved` re-opens a window where
//! an entire batch (reserve → CAS → clear) commits between the two loads
//! and the pop sees both a stale `top` and a cleared reservation — the
//! `a_pop_straddled_by_a_committed_batch_stays_exclusive` test forces
//! exactly that straddle deterministically via
//! [`Worker::pop_with_window_probe`].
//!
//! The reservation bound is cleared through a drop guard, so it cannot
//! leak even if the claim attempt unwinds (a panicking probe, a failed
//! allocation); a pop backing off under case 2 therefore waits a bounded
//! number of the reservation holder's own steps — the holder never waits
//! on the owner — though the owner's pop below an in-flight reservation
//! is *blocking* in that window (e.g. if the holder is preempted), which
//! is the one non-blocking concession the batch path makes.  Only one
//! batch reservation is in flight at a time; a thief that loses the
//! reservation race falls back to the plain single-element CAS, so it
//! still makes progress and `Retry` keeps meaning "a concurrent claim
//! advanced `top`" (P1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod injector;

pub use injector::Injector;

use std::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel for [`Inner::reserved`]: no batch claim is in flight (no index
/// compares below it).
const RESERVED_NONE: i64 = i64::MIN;

/// Clears the batch reservation when dropped, so the bound is reset on
/// *every* exit from a batch claim ([`Stealer::steal_many_into`]) — including
/// an unwind out of the user-supplied probe or the buffer's growth.  Owner
/// pops below a stale bound would otherwise back off forever.
struct BatchReservation<'a> {
    reserved: &'a AtomicI64,
}

impl Drop for BatchReservation<'_> {
    fn drop(&mut self) {
        self.reserved.store(RESERVED_NONE, Ordering::SeqCst);
    }
}

/// Shared state of one deque.
#[derive(Debug)]
struct Inner {
    /// Index of the oldest element; grows monotonically, advanced only by
    /// successful CAS (thief steals and the owner's last-element take).
    top: AtomicI64,
    /// Index one past the newest element; written only by the owner.
    bottom: AtomicI64,
    /// Exclusive upper bound of the in-flight batch claim
    /// ([`Stealer::steal_many`]), or [`RESERVED_NONE`].  The owner's pop
    /// backs off from elements below this bound; see the module docs
    /// ("Why a batch claim needs a reservation").
    reserved: AtomicI64,
    /// The ring of elements; `slots.len()` is a power of two.
    slots: Box<[AtomicU64]>,
    /// `slots.len() - 1`, for cheap index masking.
    mask: i64,
}

impl Inner {
    fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Acquire);
        let t = self.top.load(Ordering::Acquire);
        usize::try_from((b - t).max(0)).expect("clamped to non-negative")
    }
}

/// Error returned by [`Worker::push`] when the ring is full, carrying the
/// rejected element back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Full(pub u64);

/// Outcome of one claim attempt: [`Stealer::steal`] and
/// [`Injector::steal`] claim one element (`T = u64`),
/// [`Stealer::steal_many`] a batch ([`StealMany`]), and
/// [`Stealer::steal_many_into`] reports how many elements it appended to
/// the caller's buffer (`T = usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T = u64> {
    /// The deque had no elements to steal (or a batch of zero was asked
    /// for — a zero-sized batch is claim-free by definition).
    Empty,
    /// The claiming CAS failed: a *concurrent* claim (another thief, or the
    /// owner taking the last element) advanced `top` in between.  Nothing
    /// was claimed; the caller may retry against the fresh state.
    Retry,
    /// Exactly this thief claimed the element(s) — a batch oldest first,
    /// with a single CAS on `top`.
    Stolen(T),
}

impl<T> Steal<T> {
    /// Returns what was stolen, if the attempt succeeded.
    pub fn stolen(self) -> Option<T> {
        match self {
            Steal::Stolen(v) => Some(v),
            _ => None,
        }
    }
}

/// Outcome of one [`Stealer::steal_many`] attempt: the claimed elements,
/// oldest first.
pub type StealMany = Steal<Vec<u64>>;

impl StealMany {
    /// Number of elements claimed by this attempt.
    pub fn count(&self) -> usize {
        match self {
            Steal::Stolen(v) => v.len(),
            _ => 0,
        }
    }
}

/// The owner-side handle: push and pop at the bottom of the deque.
///
/// There is exactly one `Worker` per deque and its methods take `&mut
/// self`: single ownership of the bottom end is enforced by the type
/// system, which is the precondition the Chase–Lev proof rests on.
#[derive(Debug)]
pub struct Worker {
    inner: Arc<Inner>,
}

/// The thief-side handle: claim elements at the top with a CAS.
///
/// Cloneable and shareable; any number of thieves may race.
#[derive(Debug, Clone)]
pub struct Stealer {
    inner: Arc<Inner>,
}

/// Creates an empty deque with at least `min_capacity` slots (rounded up
/// to a power of two), returning the unique owner handle and a cloneable
/// stealer handle.
///
/// # Panics
///
/// Panics if `min_capacity` is zero.
pub fn deque(min_capacity: usize) -> (Worker, Stealer) {
    assert!(min_capacity > 0, "a deque needs at least one slot");
    let capacity = min_capacity.next_power_of_two();
    let slots: Box<[AtomicU64]> = (0..capacity).map(|_| AtomicU64::new(0)).collect();
    let inner = Arc::new(Inner {
        top: AtomicI64::new(0),
        bottom: AtomicI64::new(0),
        reserved: AtomicI64::new(RESERVED_NONE),
        slots,
        mask: (capacity - 1) as i64,
    });
    (Worker { inner: Arc::clone(&inner) }, Stealer { inner })
}

impl Worker {
    /// Pushes `value` at the bottom of the deque.
    ///
    /// Returns [`Full`] (carrying the value back) when the ring has no free
    /// slot — overflow is reported, never silently dropped, and never
    /// overwrites an unclaimed element.
    pub fn push(&mut self, value: u64) -> Result<(), Full> {
        let inner = &self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        if b - t > inner.mask {
            return Err(Full(value));
        }
        inner.slots[(b & inner.mask) as usize].store(value, Ordering::Relaxed);
        inner.bottom.store(b + 1, Ordering::Release);
        Ok(())
    }

    /// Pops the most recently pushed element (LIFO), racing thieves on the
    /// last one.
    pub fn pop(&mut self) -> Option<u64> {
        self.pop_with_probe(|| {})
    }

    /// [`Worker::pop`] with a verification probe injected after the owner
    /// has published its claim on the bottom element but **before** the
    /// last-element CAS race is resolved.
    ///
    /// See [`Stealer::steal_with_probe`]; this is the owner-side half of
    /// the deterministic race checks.
    pub fn pop_with_probe(&mut self, probe: impl FnOnce()) -> Option<u64> {
        self.pop_impl(|| {}, probe)
    }

    /// [`Worker::pop`] with a verification probe injected **between** the
    /// pop's `reserved` load and its `top` load — the window in which a
    /// batch claim can run to completion (reserve → CAS → clear) entirely
    /// inside one pop.  The pop must still observe the batch's advanced
    /// `top` (the load-order argument in the module docs); the straddle
    /// test in this crate uses this hook to force that interleaving.
    ///
    /// The probe may fire once per retry of the pop's back-off loop, hence
    /// `FnMut`.
    pub fn pop_with_window_probe(&mut self, window_probe: impl FnMut()) -> Option<u64> {
        self.pop_impl(window_probe, || {})
    }

    fn pop_impl(
        &mut self,
        mut window_probe: impl FnMut(),
        claim_probe: impl FnOnce(),
    ) -> Option<u64> {
        let mut claim_probe = Some(claim_probe);
        loop {
            let inner = &self.inner;
            let b = inner.bottom.load(Ordering::Relaxed) - 1;
            inner.bottom.store(b, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            // `reserved` strictly before `top`, both SeqCst: observing a
            // cleared reservation must imply observing the batch's CAS'd
            // `top` (case 3 of the module docs).  Loading `top` first
            // admits a straddle where a whole batch commits between the
            // two loads and this pop claims an element the batch already
            // took.
            let r = inner.reserved.load(Ordering::SeqCst);
            window_probe();
            let t = inner.top.load(Ordering::SeqCst);
            if t > b {
                // Empty: restore bottom.
                inner.bottom.store(b + 1, Ordering::Relaxed);
                return None;
            }
            if t < b && r > b {
                // A batch claim has reserved this element (see the module
                // docs).  The reservation holder never waits on the owner
                // and clears its bound even on unwind (drop guard), so it
                // clears in a bounded number of its own steps; back off
                // and retry against the post-batch state.  The last
                // element (`t == b`) needs no back-off: there the owner
                // joins the CAS race on `top`, which arbitrates against
                // the batch CAS directly.
                inner.bottom.store(b + 1, Ordering::Relaxed);
                std::hint::spin_loop();
                continue;
            }
            let value = inner.slots[(b & inner.mask) as usize].load(Ordering::Relaxed);
            if t == b {
                if let Some(probe) = claim_probe.take() {
                    probe();
                }
                // Last element: join the thieves' CAS race on `top`.  Winning
                // claims the element; losing means a thief claimed it first.
                let won = inner
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                inner.bottom.store(b + 1, Ordering::Relaxed);
                return won.then_some(value);
            }
            return Some(value);
        }
    }

    /// Number of elements currently in the deque (exact when quiescent,
    /// a snapshot otherwise).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Returns `true` if the deque holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// A new stealer handle for this deque.
    pub fn stealer(&self) -> Stealer {
        Stealer { inner: Arc::clone(&self.inner) }
    }
}

impl Stealer {
    /// Attempts to claim the oldest element with a single CAS on `top`.
    ///
    /// [`Steal::Stolen`] means this caller — and nobody else — owns the
    /// element.  [`Steal::Retry`] means the CAS lost to a concurrent claim;
    /// the state has changed, so callers re-evaluating a steal condition
    /// (the re-check of Listing 1, line 12) must do so before retrying.
    pub fn steal(&self) -> Steal {
        self.steal_with_probe(|| {})
    }

    /// [`Stealer::steal`] with a verification probe injected **between**
    /// the optimistic reads and the claiming CAS — the window every
    /// steal-atomicity argument is about.
    ///
    /// Whatever the probe does concurrently (steal, pop, push), the CAS
    /// still claims exclusively or fails: this crate's race tests use it
    /// to check the race *deterministically* instead of hoping the OS
    /// scheduler preempts at the right instruction.
    pub fn steal_with_probe(&self, probe: impl FnOnce()) -> Steal {
        let inner = &self.inner;
        let t = inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let value = inner.slots[(t & inner.mask) as usize].load(Ordering::Relaxed);
        probe();
        if inner.top.compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed).is_err() {
            return Steal::Retry;
        }
        Steal::Stolen(value)
    }

    /// Attempts to claim up to `k` of the oldest elements with a **single**
    /// CAS on `top` — one acquisition amortized over the whole batch,
    /// instead of one CAS race per element — appending them to `out`,
    /// oldest first, and reporting how many.  `out` is the caller's to
    /// reuse from one decision to the next: nothing is allocated here once
    /// it has grown to the batch size, and whatever it held on entry is
    /// left in place (a lost race appends nothing).
    ///
    /// The claim is protected against concurrent owner pops by the batch
    /// reservation described in the module docs; the per-slot reads happen
    /// before the CAS and are covered by the same overwrite-safety argument
    /// as the single-element steal.  `k == 0` returns
    /// [`Steal::Empty`] without touching the deque, and a contended
    /// reservation falls back to the single-element path (claiming at most
    /// one), so [`Steal::Retry`] still means a concurrent claim
    /// advanced `top`.
    pub fn steal_many_into(&self, k: usize, out: &mut Vec<u64>) -> Steal<usize> {
        self.claim_many(k, out, || {})
    }

    /// [`Stealer::steal_many_into`] with a buffer of its own, for callers
    /// that want the batch by value.
    pub fn steal_many(&self, k: usize) -> StealMany {
        self.steal_many_with_probe(k, || {})
    }

    /// [`Stealer::steal_many`] with a verification probe injected between
    /// the batched slot reads and the claiming CAS — the multi-claim
    /// window this crate's batch race tests force interleavings into.
    pub fn steal_many_with_probe(&self, k: usize, probe: impl FnOnce()) -> StealMany {
        let mut values = Vec::new();
        match self.claim_many(k, &mut values, probe) {
            Steal::Stolen(_) => Steal::Stolen(values),
            Steal::Empty => Steal::Empty,
            Steal::Retry => Steal::Retry,
        }
    }

    /// The one batch claim behind [`Stealer::steal_many_into`] and
    /// [`Stealer::steal_many_with_probe`].
    fn claim_many(&self, k: usize, out: &mut Vec<u64>, probe: impl FnOnce()) -> Steal<usize> {
        // A zero-sized batch claims nothing and must not touch the deque.
        if k == 0 {
            return Steal::Empty;
        }
        let single = |outcome: Steal, out: &mut Vec<u64>| match outcome {
            Steal::Empty => Steal::Empty,
            Steal::Retry => Steal::Retry,
            Steal::Stolen(v) => {
                out.push(v);
                Steal::Stolen(1)
            }
        };
        if k == 1 {
            // A batch of one is the plain CAS; no reservation needed.
            return single(self.steal_with_probe(probe), out);
        }
        let inner = &self.inner;
        let t = inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let mut n = (b - t).min(i64::try_from(k).unwrap_or(i64::MAX));
        // Publish the reservation.  At most one batch claim is in flight
        // per deque; a loser falls back to the single-element path so the
        // attempt still makes progress without waiting.
        if inner
            .reserved
            .compare_exchange(RESERVED_NONE, t + n, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return single(self.steal_with_probe(probe), out);
        }
        // Held from here to every exit — return, lost CAS, or an unwind
        // out of the probe or the buffer's growth.  A leaked reservation
        // would pin owner pops below the stale bound in their back-off
        // loop forever, so clearing must not depend on reaching any
        // particular line below.
        let _reservation = BatchReservation { reserved: &inner.reserved };
        // Re-read `bottom` under the reservation and shrink the claim to
        // what is still present: any owner pop that did not observe the
        // reservation is fence-ordered to have its lowered `bottom` visible
        // here, so the shrunk range excludes every element the owner took.
        fence(Ordering::SeqCst);
        let b2 = inner.bottom.load(Ordering::Acquire);
        if b2 <= t {
            return Steal::Empty;
        }
        n = n.min(b2 - t);
        let kept = out.len();
        out.extend(
            (t..t + n).map(|i| inner.slots[(i & inner.mask) as usize].load(Ordering::Relaxed)),
        );
        probe();
        if inner.top.compare_exchange(t, t + n, Ordering::SeqCst, Ordering::Relaxed).is_ok() {
            Steal::Stolen(usize::try_from(n).expect("positive batch"))
        } else {
            // The values read are discarded together.
            out.truncate(kept);
            Steal::Retry
        }
    }

    /// Number of elements currently in the deque (a racy snapshot).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Returns `true` if the deque looks empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn lifo_for_the_owner_fifo_for_thieves() {
        let (mut w, s) = deque(8);
        for v in 1..=3 {
            w.push(v).unwrap();
        }
        assert_eq!(w.len(), 3);
        // Thief takes the oldest.
        assert_eq!(s.steal(), Steal::Stolen(1));
        // Owner takes the newest.
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn capacity_rounds_up_and_full_reports_overflow() {
        let (mut w, s) = deque(3);
        assert_eq!(w.capacity(), 4);
        for v in 0..4 {
            w.push(v).unwrap();
        }
        assert_eq!(w.push(99), Err(Full(99)), "the rejected element comes back");
        // Claiming one element frees a slot.
        assert_eq!(s.steal(), Steal::Stolen(0));
        w.push(99).unwrap();
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn wraparound_reuses_slots_only_after_they_are_claimed() {
        let (mut w, s) = deque(4);
        // Push/steal far past the capacity so indices wrap many times.
        for round in 0..64u64 {
            w.push(round).unwrap();
            assert_eq!(s.steal(), Steal::Stolen(round));
        }
        assert!(w.is_empty());
        assert!(s.is_empty());
    }

    #[test]
    fn empty_pop_and_steal_are_clean_noops() {
        let (mut w, s) = deque(2);
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), Steal::Empty);
        w.push(7).unwrap();
        assert_eq!(w.pop(), Some(7));
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_is_rejected() {
        let _ = deque(0);
    }

    #[test]
    fn steal_many_claims_the_oldest_elements_in_order() {
        let (mut w, s) = deque(8);
        for v in 0..6 {
            w.push(v).unwrap();
        }
        assert_eq!(s.steal_many(3), StealMany::Stolen(vec![0, 1, 2]));
        // The remainder is untouched: owner still pops LIFO, thief FIFO.
        assert_eq!(w.pop(), Some(5));
        assert_eq!(s.steal(), Steal::Stolen(3));
        assert_eq!(s.steal_many(8), StealMany::Stolen(vec![4]));
        assert_eq!(s.steal_many(2), StealMany::Empty);
    }

    #[test]
    fn steal_many_k_larger_than_len_claims_everything_present() {
        let (mut w, s) = deque(4);
        for v in 10..13 {
            w.push(v).unwrap();
        }
        assert_eq!(s.steal_many(64), StealMany::Stolen(vec![10, 11, 12]));
        assert!(w.is_empty());
    }

    #[test]
    fn steal_many_zero_is_claim_free() {
        let (mut w, s) = deque(2);
        w.push(5).unwrap();
        assert_eq!(s.steal_many(0), StealMany::Empty);
        assert_eq!(w.len(), 1, "a zero-sized batch must not claim");
        assert_eq!(s.steal_many(0), StealMany::Empty);
        assert_eq!(s.steal(), Steal::Stolen(5));
    }

    #[test]
    fn steal_many_on_an_empty_deque_is_empty() {
        let (_w, s) = deque(4);
        assert_eq!(s.steal_many(4), StealMany::Empty);
    }

    #[test]
    fn steal_many_at_the_overflow_boundary_frees_the_whole_batch() {
        // Fill the ring to capacity, batch-claim, and verify the freed
        // slots are immediately reusable — the wraparound indices the
        // multi-slot overwrite argument is about.
        let (mut w, s) = deque(4);
        for v in 0..4 {
            w.push(v).unwrap();
        }
        assert_eq!(w.push(99), Err(Full(99)));
        assert_eq!(s.steal_many(3), StealMany::Stolen(vec![0, 1, 2]));
        for v in 4..7 {
            w.push(v).unwrap();
        }
        assert_eq!(w.push(99), Err(Full(99)), "capacity is honoured after the batch");
        assert_eq!(s.steal_many(8), StealMany::Stolen(vec![3, 4, 5, 6]));
        assert!(s.is_empty());
    }

    #[test]
    fn steal_many_wraparound_stays_exact() {
        let (mut w, s) = deque(4);
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for round in 0..32u64 {
            w.push(2 * round).unwrap();
            w.push(2 * round + 1).unwrap();
            expected.extend([2 * round, 2 * round + 1]);
            got.extend(s.steal_many(2).stolen().unwrap());
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn probed_rival_claim_dooms_the_batch_cas() {
        let (mut w, s) = deque(8);
        for v in 0..4 {
            w.push(v).unwrap();
        }
        let rival = s.clone();
        let mut rival_got = None;
        let outcome = s.steal_many_with_probe(3, || {
            rival_got = rival.steal().stolen();
        });
        assert_eq!(rival_got, Some(0), "the rival claims inside the window");
        assert_eq!(outcome, StealMany::Retry, "the doomed batch CAS must fail");
        // Nothing was lost or duplicated: the remainder drains exactly once.
        assert_eq!(s.steal_many(8), StealMany::Stolen(vec![1, 2, 3]));
    }

    #[test]
    fn owner_pop_above_the_reservation_proceeds_during_a_batch() {
        let (mut w, s) = deque(8);
        for v in 0..4 {
            w.push(v).unwrap();
        }
        let worker = std::cell::RefCell::new(w);
        // The batch reserves [0, 2); the owner's pop of index 3 is outside
        // the reservation and must not block or conflict.
        let outcome = s.steal_many_with_probe(2, || {
            assert_eq!(worker.borrow_mut().pop(), Some(3));
        });
        assert_eq!(outcome, StealMany::Stolen(vec![0, 1]));
        assert_eq!(worker.borrow_mut().pop(), Some(2));
        assert_eq!(worker.borrow_mut().pop(), None);
    }

    #[test]
    fn a_panicking_probe_clears_the_batch_reservation() {
        // The reservation is cleared by a drop guard, so an unwind out of
        // the probe must not leave a stale bound pinning owner pops in
        // their back-off loop.
        let (mut w, s) = deque(8);
        for v in 0..4 {
            w.push(v).unwrap();
        }
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.steal_many_with_probe(3, || panic!("probe unwinds mid-claim"));
        }));
        assert!(attempt.is_err(), "the probe's panic propagates");
        // Nothing was claimed (the CAS never ran), the owner's pop below
        // the dead reservation's bound does not spin, and fresh batches
        // claim normally.
        assert_eq!(w.pop(), Some(3));
        assert_eq!(s.steal_many(8), StealMany::Stolen(vec![0, 1, 2]));
        assert!(s.is_empty());
    }

    #[test]
    fn a_batch_completing_inside_the_pop_window_is_observed() {
        // A whole batch (reserve -> CAS -> clear) runs between the pop's
        // `reserved` load and its `top` load: the pop's later `top` load
        // must see the batch's claim, so the parties partition the deque.
        // The batch starts after the pop lowered `bottom`, so it shrinks
        // below the popped index (case 1 of the module docs) and this test
        // passes under either load order; the straddle that needs
        // `reserved` before `top` is the next test.
        let (mut w, s) = deque(8);
        for v in 0..3 {
            w.push(v).unwrap();
        }
        let thief = s.clone();
        let mut batch = None;
        let got = w.pop_with_window_probe(|| {
            if batch.is_none() {
                batch = Some(thief.steal_many(8));
            }
        });
        // The batch saw the pop's lowered bottom and claimed [0, 1]; the
        // pop then won the last-element race on 2.
        assert_eq!(batch, Some(StealMany::Stolen(vec![0, 1])));
        assert_eq!(got, Some(2));
        assert!(s.is_empty());
    }

    #[test]
    fn a_pop_straddled_by_a_committed_batch_stays_exclusive() {
        // The interleaving the batch reservation's case analysis turns on:
        // the batch reserves and reads its slots against `bottom = 3`
        // *before* the pop lowers `bottom`, then commits (CAS -> clear)
        // entirely inside the pop's `reserved`-to-`top` window.  Neither
        // the shrink (the batch never re-reads `bottom`) nor the back-off
        // (the reservation is cleared by the time it matters) protects
        // index 2; only the pop's load order does.  Loading `top` first,
        // the pop would see a stale `top` and a cleared reservation and
        // hand out element 2 a second time.
        let (mut w, s) = deque(8);
        for v in 0..3 {
            w.push(v).unwrap();
        }
        let thief_staged = AtomicBool::new(false);
        let owner_in_window = AtomicBool::new(false);
        let batch_done = AtomicBool::new(false);
        let wait = |flag: &AtomicBool| {
            while !flag.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
        };
        let (batch, popped) = std::thread::scope(|scope| {
            let thief = scope.spawn(|| {
                // Parked one step short of its CAS until the owner sits
                // inside its window.
                let out = s.steal_many_with_probe(3, || {
                    thief_staged.store(true, Ordering::Release);
                    wait(&owner_in_window);
                });
                batch_done.store(true, Ordering::Release);
                out
            });
            wait(&thief_staged);
            // Parked inside the window until the batch has committed and
            // cleared its reservation.
            let popped = w.pop_with_window_probe(|| {
                owner_in_window.store(true, Ordering::Release);
                wait(&batch_done);
            });
            (thief.join().unwrap(), popped)
        });
        assert_eq!(batch, StealMany::Stolen(vec![0, 1, 2]));
        assert_eq!(popped, None, "the pop must observe the batch's advanced `top`");
        assert!(s.is_empty());
    }

    #[test]
    fn owner_pop_inside_its_probe_sees_the_lowered_bottom() {
        // The owner lowers `bottom` over the last element; a batch arriving
        // in the owner's CAS window observes the lowered bottom and backs
        // off empty — the single-element race keeps exactly one winner.
        let (mut w, s) = deque(2);
        w.push(9).unwrap();
        let thief = s.clone();
        let mut thief_saw = None;
        let got = w.pop_with_probe(|| {
            thief_saw = Some(thief.steal_many(4));
        });
        assert_eq!(got, Some(9));
        assert_eq!(thief_saw, Some(StealMany::Empty));
    }
}
