//! The discrete-event calendar both upkeeps share.
//!
//! Every event carries a `u128` key `time << 64 | tie`, so a single integer
//! comparison orders events by time and then by the same-time tie-break the
//! queue's [`OrderingPolicy`] packs into `tie` (`seq` is the push's sequence
//! number):
//!
//! * `Priority`: `tie = class << 62 | core << 40 | seq`, with class 0 for
//!   the balance tick, 1 for wakeups (arrival, sleep-done, phase-done) and 2
//!   for per-core timers, whose core fills the middle field.  A push asserts
//!   `seq < 2^40` and `core < 2^22`, so the three fields never overlap.
//! * `Seeded(s)`: `tie = splitmix64(s ^ splitmix64(seq))`.  `splitmix64` is
//!   a bijection of `u64` and so is `x ↦ s ^ x`, so for a fixed seed the tie
//!   is injective in `seq`: no two pushes share one, and ordering by the tie
//!   alone is a seeded permutation of same-time events.
//!
//! So under every policy the tie is unique per push; [`EventQueue::push`]
//! returns it, and [`crate::machine`] uses it to spot stale completions.
//!
//! # The calendar: a bucket ring on the timeslice grid
//!
//! [`EventQueue`] is a calendar queue (Brown, CACM 1988) whose current
//! bucket is kept sorted, as in a ladder queue (Tang et al., ACM TOMACS
//! 2005).  Time is cut into buckets of `2^shift` ns, the power of two at or
//! above a 256th of the run's timeslice (4 096 ns under the default 1 ms),
//! and a ring of 1 024 buckets covers the window from the current
//! bucket on (4.2 ms by default, a balancing period):
//!
//! * the **current bucket** — the bucket of the last popped event — is one
//!   vector, sorted by descending key when the calendar reaches it, so a
//!   pop is a `Vec::pop`.  A push that lands in it after it was sorted
//!   goes to a small *late* heap, and a pop takes the lesser of the two
//!   heads;
//! * the **future buckets** of the window are unsorted singly linked lists
//!   threaded through one slab of entries, with a bitmap of the non-empty
//!   ones: a push is O(1), and moving on to the next non-empty bucket
//!   skips empty ones 64 at a time;
//! * events **past the window** wait in an *overflow* heap, and enter the
//!   ring as the window slides over them.  When the ring runs dry the
//!   window jumps straight to the overflow's earliest bucket.
//!
//! A push is O(1) into the ring and O(log n) into a heap; a pop is O(1)
//! amortised plus the sort of each bucket it opens, O(b log b) for a
//! bucket of b events.  Nothing is quadratic in a bucket's population:
//! e24's million arrivals at time 0 are one bucket, sorted once, whose
//! vector gives back its spare tail in geometric steps as it drains.  The
//! order is exactly the heap's: buckets partition the keys by time, and
//! within a bucket every comparison is of the full packed key, so
//! same-time ties pop as the policy ranks them under either ordering.
//! Only the present is open to pushes: an event pushed before the last
//! popped one would be filed a window late, so [`EventQueue::push`]
//! panics instead.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use sched_core::{splitmix64, CoreId};

use crate::config::SimConfig;
use crate::thread::SimThreadId;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A thread becomes runnable for the first time.
    Arrival(SimThreadId),
    /// A sleeping thread wakes up.
    SleepDone(SimThreadId),
    /// The running thread's current compute phase completes.  Stale once the
    /// thread is preempted: the event's tie is no longer the thread's live
    /// one.
    PhaseDone(SimThreadId),
    /// Per-core preemption timer.
    Timer(CoreId),
    /// The machine-wide load-balancing tick (all cores balance together,
    /// as CFS does every 4 ms).
    Balance,
}

/// How simultaneous events are ordered relative to each other.
///
/// Both engines drain events in `(time, tie)` order; the policy decides the
/// tie (module docs).  `Priority` is the default, and the tick engine and
/// the event engine are tie-for-tie identical under it: its ties rank by
/// event class and core, not by *push* order, which differs once the event
/// engine elides idle timer ticks.  `Seeded` turns the tie-break into a seeded
/// permutation and is the verification mode: sweeping seeds explores
/// same-time schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingPolicy {
    /// Balance first, then wakeups (arrival / sleep-done / phase-done) in
    /// push order, then per-core timers in core order.
    #[default]
    Priority,
    /// Seeded pseudo-random permutation of simultaneous events.
    Seeded(u64),
}

impl OrderingPolicy {
    /// Same-time tie-break of `kind` pushed with sequence number `seq`.
    fn tie(self, kind: EventKind, seq: u64) -> u64 {
        match self {
            OrderingPolicy::Priority => {
                assert!(seq < 1 << 40, "priority ordering holds fewer than 2^40 pushes");
                let (class, core) = match kind {
                    EventKind::Balance => (0, 0),
                    EventKind::Timer(core) => (2, core.0 as u64),
                    _ => (1, 0), // wakeups: arrival, sleep-done, phase-done
                };
                assert!(core < 1 << 22, "priority ordering holds fewer than 2^22 cores");
                class << 62 | core << 40 | seq
            }
            OrderingPolicy::Seeded(seed) => splitmix64(seed ^ splitmix64(seq)),
        }
    }
}

/// A scheduled event, as the calendar hands it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Absolute simulation time the event fires at, in nanoseconds.
    pub time: u64,
    /// Same-time tie-break assigned by the queue's [`OrderingPolicy`];
    /// unique per push.
    pub tie: u64,
    /// The event payload.
    pub kind: EventKind,
}

/// One calendar entry, ordered by its key `time << 64 | tie` alone (keys
/// are unique; a derived order that also compares the payload is slower).
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u128,
    kind: EventKind,
}

impl Entry {
    fn time(&self) -> u64 {
        (self.key >> 64) as u64
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

const _: () = assert!(std::mem::size_of::<Entry>() == 32);

/// Buckets in the ring: the window is `RING` buckets wide.
const RING: usize = 1024;
/// Words of the ring's occupancy bitmap.
const WORDS: usize = RING / 64;
/// End of a bucket list in the slab.
const NIL: u32 = u32::MAX;
/// The current bucket's vector gives back its spare tail once its spare
/// capacity reaches this many entries plus a sixteenth of the entries it
/// still holds, so that a bucket the size of e24's million arrivals
/// shrinks as its events move on.  The geometric part keeps the copies a
/// shrink may make linear in the bucket's population under any allocator:
/// at least `len / 16` pops pay for each copy of `len` entries.
const SHRINK_SLACK: usize = 4096;

/// The calendar: events popped in `(time, tie)` order (module docs).
#[derive(Debug)]
pub struct EventQueue {
    /// A bucket is `2^shift` ns of simulated time.
    shift: u32,
    /// Number (`time >> shift`) of the current bucket.
    cur: u64,
    /// Time of the last popped event, before which no push may land.
    now: u64,
    /// The current bucket's events: sorted by descending key once
    /// `sorted`, unsorted before the first pop.
    bucket: Vec<Entry>,
    /// `bucket` is sorted; pushes into the current bucket go to `late`.
    sorted: bool,
    /// Pushes into the current bucket after it was sorted.
    late: BinaryHeap<Reverse<Entry>>,
    /// First slab node of each future bucket's list, by `bucket % RING`.
    heads: Box<[u32; RING]>,
    /// Bit `slot` is set while the list at `heads[slot]` is non-empty.
    occupied: [u64; WORDS],
    /// Entries of the bucket lists, and each one's successor.
    slab: Vec<Entry>,
    next: Vec<u32>,
    /// First free slab node, a list through `next`.
    free: u32,
    /// Events past the ring window.
    overflow: BinaryHeap<Reverse<Entry>>,
    len: usize,
    next_seq: u64,
    ordering: OrderingPolicy,
}

impl EventQueue {
    /// An empty calendar for a run under `config`: same-time ties resolved
    /// by its ordering, buckets sized from its timeslice.
    pub fn new(config: &SimConfig) -> Self {
        let width = (config.timeslice_ns >> 8).max(1).next_power_of_two();
        EventQueue {
            shift: width.trailing_zeros(),
            cur: 0,
            now: 0,
            bucket: Vec::new(),
            sorted: false,
            late: BinaryHeap::new(),
            heads: Box::new([NIL; RING]),
            occupied: [0; WORDS],
            slab: Vec::new(),
            next: Vec::new(),
            free: NIL,
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
            ordering: config.ordering,
        }
    }

    /// Schedules `kind` at absolute time `time` and returns the push's tie,
    /// which no other push of this queue shares.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the last popped event, and past the
    /// `Priority` bounds (module docs).
    pub fn push(&mut self, time: u64, kind: EventKind) -> u64 {
        assert!(
            time >= self.now,
            "an event pushed at {time} ns is in the past: the calendar popped {} ns",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let tie = self.ordering.tie(kind, seq);
        let entry = Entry { key: u128::from(time) << 64 | u128::from(tie), kind };
        // The current bucket holds `now`, so `time` is in it or later.
        let ahead = (time >> self.shift) - self.cur;
        if ahead == 0 {
            if self.sorted {
                self.late.push(Reverse(entry));
            } else {
                self.bucket.push(entry);
            }
        } else if ahead < RING as u64 {
            self.link(entry);
        } else {
            self.overflow.push(Reverse(entry));
        }
        self.len += 1;
        tie
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        if self.len == 0 {
            return None;
        }
        if !self.sorted {
            self.sort_bucket();
        }
        loop {
            let late_first = match (self.bucket.last(), self.late.peek()) {
                (Some(head), Some(Reverse(late))) => late.key < head.key,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (None, None) => {
                    self.open_next_bucket();
                    continue;
                }
            };
            let entry = if late_first {
                self.late.pop().expect("peeked").0
            } else {
                let entry = self.bucket.pop().expect("peeked");
                let len = self.bucket.len();
                if self.bucket.capacity() - len >= SHRINK_SLACK + len / 16 {
                    self.bucket.shrink_to_fit();
                }
                entry
            };
            self.len -= 1;
            self.now = entry.time();
            return Some(Event { time: self.now, tie: entry.key as u64, kind: entry.kind });
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no event is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Files `entry` on its future bucket's list.
    // Inlined into `push`: a call passes the 32-byte entry through memory,
    // and reading it back stalls the push.
    #[inline(always)]
    fn link(&mut self, entry: Entry) {
        let slot = (entry.time() >> self.shift) as usize % RING;
        let node = if self.free == NIL {
            self.slab.push(entry);
            self.next.push(NIL);
            u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 events in the ring")
        } else {
            let node = self.free;
            self.free = self.next[node as usize];
            self.slab[node as usize] = entry;
            node
        };
        self.next[node as usize] = self.heads[slot];
        self.heads[slot] = node;
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    /// Moves the window on to the next non-empty bucket, when the current
    /// one has run dry, and makes it the current bucket.
    fn open_next_bucket(&mut self) {
        self.cur = match self.next_occupied() {
            Some(bucket) => bucket,
            None => self.overflow.peek().expect("the calendar is not empty").0.time() >> self.shift,
        };
        // Refill: the window slid over these overflow events.
        while let Some(Reverse(entry)) = self.overflow.peek() {
            let ahead = (entry.time() >> self.shift) - self.cur;
            if ahead >= RING as u64 {
                break;
            }
            let entry = self.overflow.pop().expect("peeked").0;
            if ahead == 0 {
                self.bucket.push(entry);
            } else {
                self.link(entry);
            }
        }
        let slot = self.cur as usize % RING;
        let mut node = std::mem::replace(&mut self.heads[slot], NIL);
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        while node != NIL {
            let i = node as usize;
            self.bucket.push(self.slab[i]);
            node = std::mem::replace(&mut self.next[i], self.free);
            self.free = i as u32;
        }
        self.sort_bucket();
    }

    /// Sorts the current bucket for popping from its end.
    fn sort_bucket(&mut self) {
        self.bucket.sort_unstable_by_key(|e| Reverse(e.key));
        self.sorted = true;
    }

    /// Number of the first non-empty bucket after the current one within
    /// the window, if any.
    fn next_occupied(&self) -> Option<u64> {
        // The current bucket's own slot is always empty, so the scan from
        // the slot after it, wrapping once, meets buckets in time order.
        let start = (self.cur as usize + 1) % RING;
        let first = start / 64;
        let masked = self.occupied[first] & (!0 << (start % 64));
        let slot = if masked != 0 {
            first * 64 + masked.trailing_zeros() as usize
        } else {
            (1..=WORDS)
                .map(|i| (first + i) % WORDS)
                .find(|&w| self.occupied[w] != 0)
                .map(|w| w * 64 + self.occupied[w].trailing_zeros() as usize)?
        };
        Some(self.cur + 1 + ((slot + RING - start) % RING) as u64)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use proptest::prelude::*;

    use super::*;

    fn queue(ordering: OrderingPolicy) -> EventQueue {
        EventQueue::new(&SimConfig::default().with_ordering(ordering))
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = queue(OrderingPolicy::Priority);
        q.push(20, EventKind::Balance);
        q.push(10, EventKind::Timer(CoreId(0)));
        q.push(10, EventKind::Arrival(SimThreadId(1)));
        assert_eq!(q.len(), 3);
        let first = q.pop().unwrap();
        let second = q.pop().unwrap();
        let third = q.pop().unwrap();
        assert_eq!((first.time, first.kind), (10, EventKind::Arrival(SimThreadId(1))));
        assert_eq!((second.time, second.kind), (10, EventKind::Timer(CoreId(0))));
        assert_eq!((third.time, third.kind), (20, EventKind::Balance));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn priority_ranks_balance_then_wakeups_then_timers() {
        let mut q = queue(OrderingPolicy::Priority);
        q.push(10, EventKind::Timer(CoreId(1)));
        q.push(10, EventKind::Timer(CoreId(0)));
        q.push(10, EventKind::Arrival(SimThreadId(1)));
        q.push(10, EventKind::Balance);
        q.push(10, EventKind::SleepDone(SimThreadId(2)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Balance);
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival(SimThreadId(1)));
        assert_eq!(q.pop().unwrap().kind, EventKind::SleepDone(SimThreadId(2)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Timer(CoreId(0)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Timer(CoreId(1)));
        assert!(q.is_empty());
    }

    #[test]
    fn seeded_ordering_is_a_deterministic_permutation() {
        let drain = |seed: u64| {
            let mut q = queue(OrderingPolicy::Seeded(seed));
            for i in 0..16 {
                q.push(10, EventKind::Arrival(SimThreadId(i)));
            }
            let mut kinds = Vec::new();
            while let Some(e) = q.pop() {
                kinds.push(e.kind);
            }
            kinds
        };
        let a = drain(7);
        assert_eq!(a, drain(7), "same seed must replay the same order");
        assert_eq!(a.len(), 16);
        let mut sorted: Vec<_> = a
            .iter()
            .map(|k| match k {
                EventKind::Arrival(t) => t.0,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "must be a permutation");
        assert_ne!(a, drain(8), "different seeds should usually disagree");
    }

    /// The tie `push` returns is what makes a completion stale-checkable:
    /// the popped event carries it, and no other push shares it.
    #[test]
    fn phase_done_tokens_are_part_of_the_event() {
        for ordering in [OrderingPolicy::Priority, OrderingPolicy::Seeded(3)] {
            let mut q = queue(ordering);
            let stale = q.push(5, EventKind::PhaseDone(SimThreadId(0)));
            let live = q.push(5, EventKind::PhaseDone(SimThreadId(0)));
            assert_ne!(stale, live, "{ordering:?}");
            let mut popped = [q.pop().unwrap(), q.pop().unwrap()];
            popped.sort_by_key(|e| e.tie == live);
            assert_eq!(
                popped.map(|e| (e.tie, e.kind)),
                [
                    (stale, EventKind::PhaseDone(SimThreadId(0))),
                    (live, EventKind::PhaseDone(SimThreadId(0))),
                ]
            );
        }
    }

    fn panic_message(push: impl FnOnce(&mut EventQueue)) -> String {
        let mut q = queue(OrderingPolicy::Priority);
        let payload = catch_unwind(AssertUnwindSafe(|| push(&mut q))).expect_err("must panic");
        payload.downcast_ref::<&str>().map_or_else(|| format!("{payload:?}"), |m| m.to_string())
    }

    #[test]
    fn priority_pushes_past_the_packed_field_bounds_panic_and_name_them() {
        let mut q = queue(OrderingPolicy::Priority);
        q.next_seq = (1 << 40) - 1;
        q.push(0, EventKind::Timer(CoreId((1 << 22) - 1)));
        let seq = panic_message(|q| {
            q.next_seq = 1 << 40;
            q.push(0, EventKind::Balance);
        });
        assert!(seq.contains("2^40"), "{seq}");
        let core = panic_message(|q| {
            q.push(0, EventKind::Timer(CoreId(1 << 22)));
        });
        assert!(core.contains("2^22"), "{core}");
    }

    /// The heap popped an event pushed into the past next; a ring would
    /// file it a window late.  Neither is a schedule, so the push panics.
    #[test]
    #[should_panic(expected = "an event pushed at 9 ns is in the past: the calendar popped 10 ns")]
    fn a_push_before_the_last_pop_panics_and_names_both_times() {
        let mut q = queue(OrderingPolicy::Priority);
        q.push(10, EventKind::Balance);
        q.pop();
        // The present itself is open.
        q.push(10, EventKind::Timer(CoreId(0)));
        q.push(9, EventKind::Balance);
    }

    /// The comparator the calendar replaced: `(time, rank, seq)`, with the
    /// rank each policy assigned.  The packed key must pop in its order.
    fn oracle_rank(ordering: OrderingPolicy, kind: EventKind, seq: u64) -> u64 {
        match ordering {
            OrderingPolicy::Priority => match kind {
                EventKind::Balance => 0,
                EventKind::Arrival(_) | EventKind::SleepDone(_) | EventKind::PhaseDone(_) => {
                    1 << 32
                }
                EventKind::Timer(core) => (1 << 33) + core.0 as u64,
            },
            OrderingPolicy::Seeded(seed) => splitmix64(seed ^ splitmix64(seq)),
        }
    }

    /// The oracle's pending pushes: `(time, oracle rank, seq)` to the
    /// push's tie and kind.
    type Pending = BTreeMap<(u64, u64, u64), (u64, EventKind)>;

    /// Pops the calendar and the oracle once each and demands the same
    /// event; returns the popped time.
    fn pop_both(q: &mut EventQueue, pending: &mut Pending) -> Result<Option<u64>, TestCaseError> {
        let want = pending.pop_first().map(|((time, _, _), (tie, kind))| (time, tie, kind));
        let got = q.pop();
        prop_assert_eq!(got.map(|e| (e.time, e.tie, e.kind)), want);
        Ok(got.map(|e| e.time))
    }

    fn kind_of(selector: usize, id: usize) -> EventKind {
        match selector {
            0 => EventKind::Arrival(SimThreadId(id)),
            1 => EventKind::SleepDone(SimThreadId(id)),
            2 => EventKind::PhaseDone(SimThreadId(id)),
            3 => EventKind::Timer(CoreId(id)),
            _ => EventKind::Balance,
        }
    }

    /// Bucket width and window of [`ring_queue`]: 4 ns buckets, so the
    /// ring spans 4 096 ns.
    const WIDTH: u64 = 4;
    const WINDOW: u64 = WIDTH * RING as u64;

    /// A calendar with small buckets, for pushes to reach every part of it.
    fn ring_queue(ordering: OrderingPolicy) -> EventQueue {
        let q =
            EventQueue::new(&SimConfig::default().timeslice(WIDTH << 8).with_ordering(ordering));
        assert_eq!(q.shift, WIDTH.trailing_zeros());
        q
    }

    /// How far ahead of the last pop a push lands: `class` picks the part
    /// of the calendar it reaches.
    fn delta(class: usize, raw: u64) -> u64 {
        match class {
            // The current bucket: before its first pop it is unsorted, after
            // it the push goes to the late heap.
            0 => raw % 3,
            // The next bucket or the one after.
            1 => WIDTH + raw % WIDTH,
            // Anywhere in the window.
            2 => raw % WINDOW,
            // Past the window: the overflow, refilled as the window slides,
            // or jumped to when the ring runs dry.
            _ => WINDOW + raw % (3 * WINDOW),
        }
    }

    proptest! {
        #[test]
        fn pops_in_the_order_of_the_time_rank_seq_comparator(
            seed in any::<u64>(),
            ops in prop::collection::vec(
                (0usize..16, 0usize..4, 0u64..1 << 16, 0usize..20),
                1..160,
            ),
        ) {
            for ordering in [OrderingPolicy::Priority, OrderingPolicy::Seeded(seed)] {
                let mut q = ring_queue(ordering);
                let mut pending = Pending::new();
                let (mut now, mut seq) = (0u64, 0u64);
                for &(op, class, raw, kind_seed) in &ops {
                    let (selector, id) = (kind_seed % 5, kind_seed / 5);
                    if op < 6 {
                        // Pushes after a pop land at or after the popped time.
                        now = pop_both(&mut q, &mut pending)?.unwrap_or(now);
                        continue;
                    }
                    // Op 15 is a cluster of same-time pushes.
                    let pushes = if op == 15 { 200 + raw as usize % 32 } else { 1 };
                    let time = now + delta(class, raw);
                    for i in 0..pushes {
                        let kind = kind_of((selector + i) % 5, id + i);
                        let tie = q.push(time, kind);
                        pending.insert((time, oracle_rank(ordering, kind, seq), seq), (tie, kind));
                        seq += 1;
                    }
                    prop_assert_eq!(q.len(), pending.len());
                }
                while !pending.is_empty() {
                    pop_both(&mut q, &mut pending)?;
                }
                prop_assert!(q.is_empty());
                prop_assert!(q.pop().is_none());
            }
        }
    }
}
