//! A shared MPMC injector: the overflow half of the work-stealing story.
//!
//! The Chase–Lev ring in [`crate`] is fixed-capacity: [`crate::Worker::push`]
//! reports [`crate::Full`] instead of growing.  Whatever the caller does with
//! the rejected element decides whether the system stays *work-conserving*
//! (the paper's criterion: no core idles while runnable work waits).  An
//! owner-private spill list — the obvious fix — reintroduces exactly the bug
//! class the paper targets: spilled work is counted by load observers but
//! **invisible to thieves**, so idle cores starve against a non-empty queue
//! until some owner-side drain runs.
//!
//! The `Injector` is the conserving alternative, in the style of crossbeam's
//! global injector: a multi-producer/multi-consumer segment queue that the
//! owner overflows into and that *any* thief may claim from the moment the
//! push returns.  `sched-rq`'s `DequeRq` pairs one injector with each ring;
//! thieves check a victim's injector share whenever the ring CAS finds it
//! empty, so overflow never hides.
//!
//! # Design
//!
//! The queue is **finely locked**, not lock-free: elements live in
//! fixed-size segments (amortising allocation to one per
//! [`SEGMENT_CAPACITY`] pushes) behind a single mutex whose critical
//! sections are O(1) pushes and pops (the batch claim pops up to its
//! `max`, and never runs caller code under the lock) — no traversal, no
//! reallocation of live elements.  What *is* lock-free is the empty check: a resident
//! counter published with release/acquire atomics lets thieves skip empty
//! injectors without touching the lock, which keeps the common case (no
//! overflow anywhere) free of any shared-lock traffic.  The overflow path
//! itself is rare by construction — it only runs when a ring sized for the
//! workload has already filled — so a short mutex hold there buys
//! simplicity without showing up on the owner's hot path, and the whole
//! crate stays `forbid(unsafe_code)`-clean.
//!
//! # The `Retry` contract
//!
//! [`Injector::steal`] speaks the same [`Steal`] vocabulary as the ring,
//! with the same P1 flavour: the resident counter is incremented only
//! *after* an element is reachable and decremented only by the claim that
//! removes it, so a thief that observed residents but found the queue empty
//! under the lock lost a race to a **concurrent successful claim** — that
//! attempt returns [`Steal::Retry`], never a false [`Steal::Empty`].
//! This module's tests pin this deterministically through the
//! probe hooks ([`Injector::steal_with_probe`], [`Injector::push_with_probe`],
//! [`Injector::steal_batch_with_probe`]), which force the adversarial
//! interleaving instead of hoping the OS preempts between the counter read
//! and the lock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::Steal;

/// Elements per segment: large enough that a sustained overflow storm
/// allocates rarely, small enough that an idle injector pins one cache
/// line's worth of bookkeeping plus half a kilobyte.
pub const SEGMENT_CAPACITY: usize = 64;

/// One fixed-size block of the segment chain.  `slots[head..tail]` are the
/// live elements; pushes fill the last segment's tail, claims advance the
/// first segment's head, and a fully drained front segment is recycled.
#[derive(Debug)]
struct Segment {
    slots: [u64; SEGMENT_CAPACITY],
    head: usize,
    tail: usize,
}

impl Segment {
    fn new() -> Self {
        Segment { slots: [0; SEGMENT_CAPACITY], head: 0, tail: 0 }
    }
}

/// The mutex-protected side: a chain of segments, oldest first.
#[derive(Debug, Default)]
struct Chain {
    segments: VecDeque<Segment>,
}

impl Chain {
    fn push(&mut self, value: u64) {
        let needs_segment = self.segments.back().is_none_or(|s| s.tail == SEGMENT_CAPACITY);
        if needs_segment {
            self.segments.push_back(Segment::new());
        }
        let seg = self.segments.back_mut().expect("a segment was just ensured");
        seg.slots[seg.tail] = value;
        seg.tail += 1;
    }

    fn pop(&mut self) -> Option<u64> {
        let nr_segments = self.segments.len();
        let seg = self.segments.front_mut()?;
        if seg.head == seg.tail {
            // Only the last segment may sit empty (as push's scratch); an
            // empty front segment with no successor means an empty chain.
            return None;
        }
        let value = seg.slots[seg.head];
        seg.head += 1;
        if seg.head == seg.tail {
            // Drained: recycle the segment unless push is still filling it.
            if seg.tail == SEGMENT_CAPACITY || nr_segments > 1 {
                self.segments.pop_front();
            } else {
                seg.head = 0;
                seg.tail = 0;
            }
        }
        Some(value)
    }
}

/// A shared MPMC overflow queue (see the module docs).
///
/// Any number of producers and claimants may race; there is no owner end.
/// All methods take `&self`.
#[derive(Debug, Default)]
pub struct Injector {
    /// Number of claimable residents.  Incremented *after* an element is
    /// reachable in the chain, decremented *by* the claim that removes it
    /// (both inside the lock), so a lock-free read is never an
    /// over-statement of unreachable work.
    len: AtomicU64,
    chain: Mutex<Chain>,
}

impl Injector {
    /// Creates an empty injector.
    pub fn new() -> Self {
        Injector::default()
    }

    fn lock(&self) -> MutexGuard<'_, Chain> {
        // The chain holds plain integers; a panic inside the critical
        // section cannot leave it logically torn, so poisoning is cleared.
        self.chain.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Makes `value` claimable by any thief.  Never fails and never blocks
    /// beyond the O(1) critical section.
    pub fn push(&self, value: u64) {
        self.push_with_probe(value, || {});
    }

    /// [`Injector::push`] with a verification probe injected **before** the
    /// element is published — the window in which a concurrent claimant
    /// must see the injector as it was, not half-updated.
    ///
    /// Whatever the probe does (steal, push, read `len`), the element being
    /// pushed is not yet counted and not yet claimable: publication is
    /// atomic from every observer's point of view.  This module's tests use
    /// it to check the push linearization point deterministically.
    pub fn push_with_probe(&self, value: u64, probe: impl FnOnce()) {
        probe();
        let mut chain = self.lock();
        chain.push(value);
        // Counted only now that the element is reachable: a concurrent
        // `len() > 0` observation is therefore always backed by work that
        // was genuinely claimable at that instant.
        self.len.fetch_add(1, Ordering::Release);
    }

    /// Makes every element of `values` claimable, in order, under one lock
    /// acquisition and one counter update — the batch form of
    /// [`Injector::push`], for a caller returning a run of elements at once
    /// (`sched-rq`'s trimmed batch steal).
    pub fn push_many(&self, values: &[u64]) {
        if values.is_empty() {
            return;
        }
        let mut chain = self.lock();
        for &value in values {
            chain.push(value);
        }
        // Counted only once every element is reachable, as in `push`.
        self.len.fetch_add(values.len() as u64, Ordering::Release);
    }

    /// Attempts to claim one element.
    ///
    /// * [`Steal::Stolen`] — this caller, and nobody else, owns the element.
    /// * [`Steal::Empty`] — no resident was published at the check.
    /// * [`Steal::Retry`] — residents were observed but a **concurrent
    ///   claim** emptied the queue before this one acquired the lock; the
    ///   state has changed, so callers re-evaluating a steal condition must
    ///   do so before retrying (the same contract as the ring's CAS loss).
    pub fn steal(&self) -> Steal {
        self.steal_with_probe(|| {})
    }

    /// [`Injector::steal`] with a verification probe injected **between**
    /// the lock-free resident check and the claiming critical section — the
    /// window the `Retry` contract is about.
    ///
    /// A probe that performs a rival claim forces this attempt to observe
    /// the loss and report [`Steal::Retry`]; this module's tests use the hook
    /// to check "retry implies concurrent success" on forced interleavings.
    pub fn steal_with_probe(&self, probe: impl FnOnce()) -> Steal {
        if self.len.load(Ordering::Acquire) == 0 {
            return Steal::Empty;
        }
        probe();
        let mut chain = self.lock();
        match chain.pop() {
            Some(value) => {
                self.len.fetch_sub(1, Ordering::Release);
                Steal::Stolen(value)
            }
            // Residents were published when we checked; their disappearance
            // can only be another claimant's success.
            None => Steal::Retry,
        }
    }

    /// Claims up to `max` elements under one lock acquisition, feeding
    /// each to `sink` in FIFO order; returns how many were claimed.
    ///
    /// Unlike [`Injector::steal`], a lost race is absorbed *inside* the
    /// call: when residents were observed but concurrent claims drained
    /// the queue first, the attempt re-checks and retries rather than
    /// returning — so a return of `0` always means "no resident was
    /// published at the final check" (a genuine empty), never a
    /// misreported [`Steal::Retry`] that would read as "no work" to a
    /// backing-off balancer.  Callers that need the per-claim retry
    /// signal to re-evaluate a steal condition use [`Injector::steal`].
    ///
    /// The sink runs strictly outside the critical section: a caller whose
    /// sink touches this (non-reentrant) injector again — re-enqueueing a
    /// claimed element, say — must not deadlock, and rival claimants must
    /// not wait on caller code.
    pub fn steal_batch(&self, max: usize, sink: impl FnMut(u64)) -> usize {
        self.steal_batch_with_probe(max, sink, || {})
    }

    /// [`Injector::steal_batch`] with a verification probe injected once,
    /// between the first resident check and the lock — the same lost-race
    /// window as [`Injector::steal_with_probe`].
    ///
    /// A probe that performs rival claims shrinks (or empties) what the
    /// batch can take; whoever wins each element, the resident counter is
    /// decremented exactly once per element — a partial batch never
    /// double-counts the elements a rival took, and a fully raced-out
    /// attempt returns `0` having decremented nothing.
    pub fn steal_batch_with_probe(
        &self,
        max: usize,
        sink: impl FnMut(u64),
        probe: impl FnOnce(),
    ) -> usize {
        let mut batch = Vec::new();
        let claimed = self.claim_batch(max, &mut batch, probe);
        batch.into_iter().for_each(sink);
        claimed
    }

    /// [`Injector::steal_batch`] into the caller's buffer: the claimed
    /// elements are appended to `out` in FIFO order.  This is the
    /// balancer-facing form — a thief that found a victim's ring empty
    /// moves a chunk of its overflow under one lock round-trip and one
    /// counter update, into a buffer it reuses from one decision to the
    /// next.
    pub fn steal_batch_into(&self, max: usize, out: &mut Vec<u64>) -> usize {
        self.claim_batch(max, out, || {})
    }

    /// The one batch claim behind [`Injector::steal_batch_into`] and
    /// [`Injector::steal_batch_with_probe`].
    fn claim_batch(&self, max: usize, out: &mut Vec<u64>, probe: impl FnOnce()) -> usize {
        if max == 0 {
            return 0;
        }
        let mut probe = Some(probe);
        loop {
            if self.len.load(Ordering::Acquire) == 0 {
                return 0;
            }
            if let Some(probe) = probe.take() {
                probe();
            }
            let mut chain = self.lock();
            let kept = out.len();
            out.extend(std::iter::from_fn(|| chain.pop()).take(max));
            let claimed = out.len() - kept;
            if claimed > 0 {
                self.len.fetch_sub(claimed as u64, Ordering::Release);
                return claimed;
            }
            // Residents were observed but rivals drained them first: a
            // concurrent claim happened, so re-check instead of reporting
            // a false empty (progress is guaranteed by the rivals' wins).
        }
    }

    /// Number of claimable residents (exact between operations, a racy
    /// snapshot during them — never counting unreachable work).
    pub fn len(&self) -> usize {
        usize::try_from(self.len.load(Ordering::Acquire)).expect("resident count fits usize")
    }

    /// Returns `true` if no resident is published.
    pub fn is_empty(&self) -> bool {
        self.len.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn fifo_across_segment_boundaries() {
        let inj = Injector::new();
        let total = (3 * SEGMENT_CAPACITY + 7) as u64;
        for v in 0..total {
            inj.push(v);
        }
        assert_eq!(inj.len(), total as usize);
        for v in 0..total {
            assert_eq!(inj.steal(), Steal::Stolen(v), "injector claims are FIFO");
        }
        assert_eq!(inj.steal(), Steal::Empty);
        assert!(inj.is_empty());
    }

    #[test]
    fn interleaved_push_and_steal_recycle_segments() {
        let inj = Injector::new();
        // Far more traffic than any segment holds: the chain must recycle
        // drained segments instead of growing without bound, and claims
        // must stay FIFO and exactly-once throughout.
        let rounds = 8 * SEGMENT_CAPACITY as u64;
        let mut claimed = Vec::new();
        for round in 0..rounds {
            inj.push(2 * round);
            inj.push(2 * round + 1);
            claimed.push(inj.steal().stolen().expect("one resident per round is claimable"));
        }
        assert_eq!(inj.len(), rounds as usize, "one element left behind per round");
        while let Steal::Stolen(v) = inj.steal() {
            claimed.push(v);
        }
        let expected: Vec<u64> = (0..2 * rounds).collect();
        assert_eq!(claimed, expected, "claims are FIFO and exactly-once across recycling");
    }

    #[test]
    fn steal_batch_claims_at_most_max_in_order() {
        let inj = Injector::new();
        for v in 0..10 {
            inj.push(v);
        }
        let mut got = Vec::new();
        assert_eq!(inj.steal_batch(4, |v| got.push(v)), 4);
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(inj.len(), 6);
        assert_eq!(inj.steal_batch(100, |v| got.push(v)), 6);
        assert_eq!(got.len(), 10);
        assert_eq!(inj.steal_batch(1, |_| panic!("empty batch must not claim")), 0);
        assert_eq!(inj.steal_batch(0, |_| panic!("max 0 must not claim")), 0);
    }

    #[test]
    fn batch_raced_by_a_partial_rival_drain_decrements_exactly_once() {
        // A rival claims most of the queue inside the check-to-lock
        // window.  The batch takes what is left, and every element —
        // whoever won it — moved the resident counter exactly once: the
        // final count is zero, not negative wrap and not stale residue.
        let inj = Injector::new();
        for v in 0..8 {
            inj.push(v);
        }
        let mut rival = Vec::new();
        let mut got = Vec::new();
        let claimed = inj.steal_batch_with_probe(
            4,
            |v| got.push(v),
            || {
                for _ in 0..6 {
                    rival.push(inj.steal().stolen().expect("rival wins its claims"));
                }
            },
        );
        assert_eq!(claimed, 2, "the batch takes what the rival left");
        assert_eq!(got, vec![6, 7]);
        assert_eq!(rival, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(inj.len(), 0, "8 elements, 8 decrements — nothing double-counted");
        assert_eq!(inj.steal(), Steal::Empty);
    }

    #[test]
    fn batch_raced_out_entirely_reports_a_true_empty_with_an_intact_counter() {
        // The rival drains *everything* in the window: the batch claims
        // nothing, returns the genuine-empty 0, and must not have touched
        // the counter — the next push/claim cycle sees exact counts.
        let inj = Injector::new();
        for v in 0..3 {
            inj.push(v);
        }
        let mut rival = 0;
        let claimed = inj.steal_batch_with_probe(
            8,
            |_| panic!("a raced-out batch must not deliver"),
            || {
                while inj.steal().stolen().is_some() {
                    rival += 1;
                }
            },
        );
        assert_eq!(claimed, 0);
        assert_eq!(rival, 3);
        assert_eq!(inj.len(), 0);
        inj.push(9);
        assert_eq!(inj.len(), 1, "the counter survives the raced cycle intact");
        assert_eq!(inj.steal(), Steal::Stolen(9));
        assert_eq!(inj.len(), 0);
    }

    #[test]
    fn forced_rival_claim_in_the_window_yields_retry_not_empty() {
        // The deterministic P1 analogue: residents observed, then a rival
        // drains the queue inside the check-to-lock window.  The doomed
        // attempt must report Retry (a concurrent claim happened), never a
        // false Empty (which would read as "no work" to a backing-off
        // thief).
        let inj = Injector::new();
        inj.push(42);
        let mut rival_got = None;
        let outcome = inj.steal_with_probe(|| {
            rival_got = inj.steal().stolen();
        });
        assert_eq!(rival_got, Some(42), "the rival's claim inside the window succeeds");
        assert_eq!(outcome, Steal::Retry);
        assert_eq!(inj.steal(), Steal::Empty, "the element was claimed exactly once");
    }

    #[test]
    fn unpublished_pushes_are_neither_counted_nor_claimable() {
        let inj = Injector::new();
        inj.push_with_probe(7, || {
            assert_eq!(inj.len(), 0, "mid-push, the element is not yet counted");
            assert_eq!(inj.steal(), Steal::Empty, "…and not yet claimable");
        });
        assert_eq!(inj.len(), 1);
        assert_eq!(inj.steal(), Steal::Stolen(7));
    }

    /// `producers` threads push `per_producer` elements each while
    /// `thieves` claim.  Producer 0 owns a 4-slot ring and overflows into
    /// the injector, the way `sched-rq`'s `DequeRq` does; the others push
    /// to the injector directly.  Thieves claim from the ring first and
    /// the injector when the ring is empty, the runqueue's claim order.
    fn storm(producers: usize, thieves: usize, per_producer: u64) {
        let inj = Injector::new();
        let (mut ring, stealer) = crate::deque(4);
        let start = AtomicBool::new(false);
        let total_claimed = AtomicU64::new(0);
        let mut claims: Vec<u64> = Vec::new();
        std::thread::scope(|scope| {
            let mut owner = Some(&mut ring);
            for p in 0..producers {
                let inj = &inj;
                let start = &start;
                let mut ring = owner.take();
                scope.spawn(move || {
                    while !start.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    for i in 0..per_producer {
                        let v = p as u64 * per_producer + i;
                        if ring.as_mut().is_none_or(|ring| ring.push(v).is_err()) {
                            inj.push(v);
                        }
                    }
                });
            }
            let handles: Vec<_> = (0..thieves)
                .map(|_| {
                    let inj = &inj;
                    let stealer = stealer.clone();
                    let start = &start;
                    let total_claimed = &total_claimed;
                    let target = producers as u64 * per_producer;
                    scope.spawn(move || {
                        while !start.load(Ordering::Acquire) {
                            std::hint::spin_loop();
                        }
                        let mut got = Vec::new();
                        // Keep claiming until the whole storm is settled:
                        // producers may still be mid-push when Empty shows,
                        // so thieves run until the *global* claim count says
                        // every pushed element found an owner.
                        while total_claimed.load(Ordering::Acquire) < target {
                            let outcome = match stealer.steal() {
                                Steal::Empty => inj.steal(),
                                other => other,
                            };
                            if let Steal::Stolen(v) = outcome {
                                got.push(v);
                                total_claimed.fetch_add(1, Ordering::AcqRel);
                            }
                        }
                        got
                    })
                })
                .collect();
            start.store(true, Ordering::Release);
            for handle in handles {
                claims.extend(handle.join().unwrap());
            }
        });
        claims.sort_unstable();
        let expected: Vec<u64> = (0..producers as u64 * per_producer).collect();
        assert_eq!(claims, expected, "every element claimed exactly once");
        assert!(inj.is_empty() && stealer.is_empty());
    }

    #[test]
    fn concurrent_storm_claims_every_element_exactly_once() {
        storm(2, 3, 256);
    }

    #[test]
    #[ignore = "nightly-strength stress; run via `cargo test -- --ignored`"]
    fn stress_storm_high_iteration() {
        for _ in 0..20 {
            storm(4, 4, 2048);
        }
    }
}
