//! The discrete-event calendar both upkeeps share.
//!
//! One binary min-heap of 32-byte entries: a `u128` key and the 16-byte
//! [`EventKind`].  The key is `time << 64 | tie`, so a single integer
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

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use sched_core::{splitmix64, CoreId};

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

/// A min-heap of events ordered by `(time, tie)`.
#[derive(Debug)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    next_seq: u64,
    ordering: OrderingPolicy,
}

impl EventQueue {
    /// Creates an empty queue resolving same-time ties with `ordering`.
    pub fn with_ordering(ordering: OrderingPolicy) -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0, ordering }
    }

    /// Schedules `kind` at absolute time `time` and returns the push's tie,
    /// which no other push of this queue shares.  Panics past the
    /// `Priority` bounds (module docs).
    pub fn push(&mut self, time: u64, kind: EventKind) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tie = self.ordering.tie(kind, seq);
        self.heap.push(Reverse(Entry { key: u128::from(time) << 64 | u128::from(tie), kind }));
        tie
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| Event {
            time: (e.key >> 64) as u64,
            tie: e.key as u64,
            kind: e.kind,
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no event is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::with_ordering(OrderingPolicy::Priority);
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
        let mut q = EventQueue::with_ordering(OrderingPolicy::Priority);
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
            let mut q = EventQueue::with_ordering(OrderingPolicy::Seeded(seed));
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
            let mut q = EventQueue::with_ordering(ordering);
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
        let mut q = EventQueue::with_ordering(OrderingPolicy::Priority);
        let payload = catch_unwind(AssertUnwindSafe(|| push(&mut q))).expect_err("must panic");
        payload.downcast_ref::<&str>().map_or_else(|| format!("{payload:?}"), |m| m.to_string())
    }

    #[test]
    fn priority_pushes_past_the_packed_field_bounds_panic_and_name_them() {
        let mut q = EventQueue::with_ordering(OrderingPolicy::Priority);
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

    /// A pending push: `(time, oracle rank, seq, tie, kind)`.
    type Pending = (u64, u64, u64, u64, EventKind);

    /// Pops the calendar and the oracle once each and demands the same
    /// event; returns the popped time.
    fn pop_both(
        q: &mut EventQueue,
        pending: &mut Vec<Pending>,
    ) -> Result<Option<u64>, TestCaseError> {
        let want = pending.iter().enumerate().min_by_key(|(_, e)| (e.0, e.1, e.2)).map(|(i, _)| i);
        let want = want.map(|i| pending.swap_remove(i));
        let got = q.pop();
        prop_assert_eq!(got.map(|e| (e.time, e.tie, e.kind)), want.map(|w| (w.0, w.3, w.4)));
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

    proptest! {
        #[test]
        fn pops_in_the_order_of_the_time_rank_seq_comparator(
            policy in 0usize..2,
            seed in any::<u64>(),
            ops in prop::collection::vec((0usize..8, 0u64..3, 0usize..5, 0usize..4), 1..160),
        ) {
            let ordering = [OrderingPolicy::Priority, OrderingPolicy::Seeded(seed)][policy];
            let mut q = EventQueue::with_ordering(ordering);
            let mut pending: Vec<Pending> = Vec::new();
            let (mut now, mut seq) = (0u64, 0u64);
            for (op, dt, selector, id) in ops {
                if op < 3 {
                    // Pushes after a pop land at or after the popped time.
                    now = pop_both(&mut q, &mut pending)?.unwrap_or(now);
                } else {
                    let kind = kind_of(selector, id);
                    let tie = q.push(now + dt, kind);
                    pending.push((now + dt, oracle_rank(ordering, kind, seq), seq, tie, kind));
                    seq += 1;
                }
                prop_assert_eq!(q.len(), pending.len());
            }
            while !pending.is_empty() {
                pop_both(&mut q, &mut pending)?;
            }
            prop_assert!(q.is_empty());
        }
    }
}
