//! The handle the substrates record through, and the drained trace.
//!
//! A [`TraceSink`] is a cheap clone-anywhere handle: disabled it is an
//! empty `Option` and every record call is one branch — **zero atomic
//! operations**, which the runqueue tier-1 tests pin via [`write_ops`] —
//! while a recording sink carries one [`Ring`] per core plus a shared
//! logical-`now` word the simulator engines keep current so schedulers
//! can record without threading timestamps through every callback.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sched_core::CoreId;

use crate::event::TraceEvent;
use crate::ring::{Ring, DEFAULT_RING_CAPACITY};

/// Process-global count of ring writes performed by *enabled* sinks.
///
/// This is the observability layer observing itself: the zero-overhead
/// contract ("a disabled sink adds no atomic traffic to any hot path") is
/// asserted by driving a hot path with and without a sink attached and
/// comparing this counter's movement.  Relaxed and monotonic; only deltas
/// are meaningful.
static WRITE_OPS: AtomicU64 = AtomicU64::new(0);

/// Reads the global write-probe counter (see the `WRITE_OPS` doc).
pub fn write_ops() -> u64 {
    WRITE_OPS.load(Ordering::Relaxed)
}

/// The shared recording state behind an enabled sink.
#[derive(Debug)]
struct TraceBuffer {
    rings: Vec<Ring>,
    /// Logical "current time" for [`TraceSink::record_now`] callers; the
    /// engines store into it once per handled event.
    now: AtomicU64,
    /// Global record sequence: every write claims the next value, and the
    /// drain breaks same-timestamp ties by it.  Logical clocks are coarse
    /// (a whole balancing round can share one timestamp), so without it
    /// the merge would interleave same-time events by core id and destroy
    /// the causal order single-threaded substrates actually recorded in.
    seq: AtomicU64,
}

/// A recording handle (see the module docs).  Cloning shares the buffer.
#[derive(Debug, Clone, Default)]
pub struct TraceSink(Option<Arc<TraceBuffer>>);

impl TraceSink {
    /// A sink that records nothing and touches no shared state at all.
    pub fn disabled() -> Self {
        TraceSink(None)
    }

    /// A sink recording into one default-capacity ring per core.
    pub fn recording(nr_cores: usize) -> Self {
        Self::with_capacity(nr_cores, DEFAULT_RING_CAPACITY)
    }

    /// A sink recording into one `capacity`-slot ring per core.
    pub fn with_capacity(nr_cores: usize, capacity: usize) -> Self {
        let rings = (0..nr_cores).map(|_| Ring::with_capacity(capacity)).collect();
        TraceSink(Some(Arc::new(TraceBuffer {
            rings,
            now: AtomicU64::new(0),
            seq: AtomicU64::new(0),
        })))
    }

    /// `true` when this sink actually records.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records `event` on `core`'s ring at logical time `ts`.  On a
    /// disabled sink this is one branch and returns immediately.
    pub fn record(&self, core: CoreId, ts: u64, event: &TraceEvent) {
        if let Some(buf) = &self.0 {
            WRITE_OPS.fetch_add(1, Ordering::Relaxed);
            if let Some(ring) = buf.rings.get(core.0) {
                let seq = buf.seq.fetch_add(1, Ordering::Relaxed);
                let (tag, a, b) = event.pack();
                ring.push(ts, seq, tag, a, b);
            }
        }
    }

    /// Publishes the logical time subsequent [`TraceSink::record_now`]
    /// calls stamp events with.
    pub fn set_now(&self, ts: u64) {
        if let Some(buf) = &self.0 {
            buf.now.store(ts, Ordering::Release);
        }
    }

    /// Records `event` on `core`'s ring at the last
    /// [`TraceSink::set_now`] time.
    pub fn record_now(&self, core: CoreId, event: &TraceEvent) {
        if let Some(buf) = &self.0 {
            let now = buf.now.load(Ordering::Acquire);
            self.record(core, now, event);
        }
    }

    /// Total events lost to ring overwrite across all cores.
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |buf| buf.rings.iter().map(Ring::dropped).sum())
    }

    /// Reads the surviving events of every core, merged into one
    /// time-sorted stream — per-core record order preserved, ties broken
    /// by the global record sequence, so same-timestamp events come out
    /// in the order they were committed (for a single-threaded substrate
    /// that *is* the causal order).  Intended once the traced run is
    /// quiescent; a disabled sink drains to an empty trace.
    pub fn drain(&self) -> Trace {
        let Some(buf) = &self.0 else {
            return Trace { events: Vec::new(), dropped: 0, nr_cores: 0 };
        };
        let per_core: Vec<Vec<(u64, RecordedEvent)>> = buf
            .rings
            .iter()
            .enumerate()
            .map(|(core, ring)| {
                ring.drain()
                    .into_iter()
                    .filter_map(|(ts, seq, tag, a, b)| {
                        TraceEvent::unpack(tag, a, b)
                            .map(|event| (seq, RecordedEvent { core: CoreId(core), ts, event }))
                    })
                    .collect()
            })
            .collect();
        // K-way merge: pop the smallest (ts, seq) head each step.  The
        // sequence is globally unique, so the result is deterministic and
        // each core's own order survives (seq is monotonic per ring).
        let total = per_core.iter().map(Vec::len).sum();
        let mut cursors = vec![0usize; per_core.len()];
        let mut events = Vec::with_capacity(total);
        while events.len() < total {
            let (_, core) = per_core
                .iter()
                .enumerate()
                .filter_map(|(core, evs)| {
                    evs.get(cursors[core]).map(|(seq, e)| ((e.ts, *seq), core))
                })
                .min()
                .expect("some cursor is still behind its ring");
            events.push(per_core[core][cursors[core]].1);
            cursors[core] += 1;
        }
        Trace { events, dropped: self.dropped(), nr_cores: buf.rings.len() }
    }
}

/// One drained event with its recording core and timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordedEvent {
    /// The core whose ring recorded the event (the decision site).
    pub core: CoreId,
    /// Logical timestamp (nanoseconds of the substrate's own clock).
    pub ts: u64,
    /// The decision itself.
    pub event: TraceEvent,
}

/// A drained, merged trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All surviving events, time-sorted (per-core order preserved).
    pub events: Vec<RecordedEvent>,
    /// Events lost to ring overwrite (conservation checks are suppressed
    /// when this is nonzero — the stream is knowingly incomplete).
    pub dropped: u64,
    /// Number of per-core rings the trace was recorded into.
    pub nr_cores: usize,
}

impl Trace {
    /// Events recorded on `core`, in record order.
    pub fn for_core(&self, core: CoreId) -> impl Iterator<Item = &RecordedEvent> {
        self.events.iter().filter(move |e| e.core == core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::TaskId;

    #[test]
    fn a_disabled_sink_records_nothing_and_counts_nothing() {
        let sink = TraceSink::disabled();
        // The probe is global, and the tests next to this one record into
        // enabled sinks while it runs: look for one undisturbed reading.  A
        // disabled sink that touched the probe would move it every time.
        let undisturbed = (0..1000).any(|_| {
            let before = write_ops();
            sink.record(CoreId(0), 1, &TraceEvent::Park);
            sink.set_now(5);
            sink.record_now(CoreId(0), &TraceEvent::Unpark);
            write_ops() == before || {
                std::thread::yield_now();
                false
            }
        });
        assert!(undisturbed, "disabled sinks must not touch the probe");
        assert!(!sink.is_enabled());
        let trace = sink.drain();
        assert!(trace.events.is_empty());
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn an_enabled_sink_moves_the_write_probe() {
        // The probe is global and the tests next to this one move it too:
        // every reading moves by at least this sink's two writes, and one
        // undisturbed reading moves by exactly them.
        let exact = (0..1000).any(|_| {
            let sink = TraceSink::with_capacity(1, 8);
            let before = write_ops();
            sink.record(CoreId(0), 1, &TraceEvent::Park);
            sink.record(CoreId(0), 2, &TraceEvent::Unpark);
            let moved = write_ops() - before;
            assert!(moved >= 2, "an enabled sink moved the probe by {moved} for two writes");
            moved == 2 || {
                std::thread::yield_now();
                false
            }
        });
        assert!(exact, "two writes never moved the probe by exactly two");
    }

    #[test]
    fn drain_merges_cores_by_time_preserving_per_core_order() {
        let sink = TraceSink::with_capacity(2, 8);
        sink.record(CoreId(0), 10, &TraceEvent::TaskWake { task: TaskId(0) });
        sink.record(CoreId(0), 30, &TraceEvent::TaskDone { task: TaskId(0) });
        sink.record(CoreId(1), 20, &TraceEvent::TaskWake { task: TaskId(1) });
        sink.record(CoreId(1), 30, &TraceEvent::TaskDone { task: TaskId(1) });
        let trace = sink.drain();
        let seen: Vec<(u64, usize)> = trace.events.iter().map(|e| (e.ts, e.core.0)).collect();
        assert_eq!(seen, vec![(10, 0), (20, 1), (30, 0), (30, 1)], "ties break by record order");
        assert_eq!(trace.nr_cores, 2);
        assert_eq!(trace.for_core(CoreId(1)).count(), 2);
    }

    #[test]
    fn same_timestamp_ties_merge_in_commit_order_not_core_order() {
        // A higher-numbered core records first at the shared timestamp:
        // the merge must keep its event first (a core-id tie-break would
        // invert the causal order the writer actually committed in).
        let sink = TraceSink::with_capacity(2, 8);
        sink.record(CoreId(1), 5, &TraceEvent::Park);
        sink.record(CoreId(0), 5, &TraceEvent::Unpark);
        let cores: Vec<usize> = sink.drain().events.iter().map(|e| e.core.0).collect();
        assert_eq!(cores, vec![1, 0], "commit order survives the merge");
    }

    #[test]
    fn record_now_uses_the_published_time() {
        let sink = TraceSink::with_capacity(1, 8);
        sink.set_now(77);
        sink.record_now(CoreId(0), &TraceEvent::Park);
        let trace = sink.drain();
        assert_eq!(trace.events[0].ts, 77);
    }

    #[test]
    fn out_of_range_cores_are_ignored_not_panicked_on() {
        let sink = TraceSink::with_capacity(1, 8);
        sink.record(CoreId(9), 1, &TraceEvent::Park);
        assert!(sink.drain().events.is_empty());
    }
}
