//! Offline reports folded from a drained decision trace — the library
//! half of `cargo run -p xtask -- trace-report`.
//!
//! A trace is a merged, time-sorted stream of per-core scheduling
//! decisions ([`sched_trace::Trace`]); the report answers three questions
//! the aggregate counters cannot:
//!
//! * **How long does a thief hunt before it eats, per distance class?**
//!   `steal_latency_table` measures each successful steal's *hunt
//!   latency* — the span from the moment the thief parked or first failed
//!   an attempt to the success — and buckets it into one power-of-two
//!   [`Histogram`] per [`StealLevel`].  A remote-level histogram whose
//!   p99 dwarfs the SMT-level one is the locality tax made visible.
//! * **Why was each core idle, and what woke it?** `idle_attribution_table`
//!   pairs `Park`/`Unpark` events into idle intervals and attributes each
//!   interval to the decision that ended it — a steal by the idle core, a
//!   placement onto it, or an injector drain — so "X% idle" decomposes
//!   into *who* fixed it and *how*.
//! * **Does batching keep amortising as the run drains?**
//!   `acquisition_timeline_table` slices the trace span into equal
//!   windows and reports tasks-per-acquisition in each, the over-time
//!   view of E23's end-of-run aggregate.
//!
//! [`trace_report`] bundles all three; the trace itself comes from
//! [`crate::ExperimentRunner::run_traced`], which takes a catalog spec and
//! a record backend name.

use sched_core::CoreId;
use sched_metrics::{Histogram, Table};
use sched_topology::StealLevel;
use sched_trace::{StealOutcomeKind, Trace, TraceEvent};

/// The full report: steal-latency histograms, idle attribution, and the
/// tasks-per-acquisition timeline, in that order.
pub fn trace_report(trace: &Trace) -> Vec<Table> {
    vec![
        steal_latency_table(trace),
        idle_attribution_table(trace),
        acquisition_timeline_table(trace),
    ]
}

/// Label for the steal-latency row of attempts that carried no
/// [`StealLevel`] (flat topologies, and failure outcomes on substrates
/// that only resolve the level on success).
const UNLEVELLED: &str = "(unlevelled)";

/// Per-level hunt-latency histograms, one row per level with at least one
/// successful steal.
///
/// The *hunt* starts when a core parks or records its first failed
/// [`TraceEvent::StealAttempt`] since it last succeeded, and ends at the
/// next successful attempt; the success's latency is the span between the
/// two, attributed to the level the winning attempt stole at.  A success
/// with no preceding failure or park hunted for zero time.
fn steal_latency_table(trace: &Trace) -> Table {
    let mut table = Table::new(
        "steal latency by level (ns from park/first failure to the successful claim)",
        &["level", "acquisitions", "min", "mean", "p50", "p99", "max"],
    );
    // Index 0..4 = StealLevel::ALL, index 4 = unlevelled successes.
    let mut hists: Vec<Histogram> = vec![Histogram::new(); StealLevel::ALL.len() + 1];
    let mut hunt_start: Vec<Option<u64>> = vec![None; trace.nr_cores];
    for e in &trace.events {
        let core = e.core.0;
        match e.event {
            TraceEvent::Park => {
                hunt_start[core].get_or_insert(e.ts);
            }
            TraceEvent::StealAttempt { outcome: StealOutcomeKind::Stole, level, .. } => {
                let started = hunt_start[core].take().unwrap_or(e.ts);
                let slot = level.map_or(StealLevel::ALL.len(), StealLevel::index);
                hists[slot].record(e.ts.saturating_sub(started));
            }
            TraceEvent::StealAttempt { .. } => {
                hunt_start[core].get_or_insert(e.ts);
            }
            // An unpark without a steal means the hunt ended some other
            // way (work was placed on the core); a later success must not
            // measure from the stale start.
            TraceEvent::Unpark => hunt_start[core] = None,
            _ => {}
        }
    }
    for (slot, hist) in hists.iter().enumerate() {
        if hist.count() == 0 {
            continue;
        }
        let level = if slot < StealLevel::ALL.len() {
            StealLevel::from_index(slot).short_name()
        } else {
            UNLEVELLED
        };
        table.row(&[
            level.to_string(),
            hist.count().to_string(),
            hist.min().unwrap_or(0).to_string(),
            format!("{:.0}", hist.mean()),
            hist.quantile(0.5).to_string(),
            hist.quantile(0.99).to_string(),
            hist.max().to_string(),
        ]);
    }
    table
}

/// What ended (or failed to end) one idle interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum IdleCause {
    /// The idle core stole work for itself.
    StoleWork,
    /// Another decision placed a waking task onto the idle core.
    PlacedWakeup,
    /// A tick drained the idle core's injector back into its ring.
    InjectorDrain,
    /// The interval closed with no attributable decision in its span.
    Unattributed,
    /// The trace ended with the core still parked.
    StillIdle,
}

impl IdleCause {
    fn label(self) -> &'static str {
        match self {
            IdleCause::StoleWork => "stole work",
            IdleCause::PlacedWakeup => "placed wakeup",
            IdleCause::InjectorDrain => "injector drain",
            IdleCause::Unattributed => "unattributed",
            IdleCause::StillIdle => "still idle at trace end",
        }
    }
}

/// Idle-interval attribution: pairs each core's `Park` with its next
/// `Unpark` and attributes the interval to the decision that ended it.
///
/// Attribution scans the interval's half-open span `(park, unpark]` for,
/// in priority order: a successful steal *by* the idle core, a
/// [`TraceEvent::PlaceDecision`] targeting it, or an injector drain on
/// it.  Intervals still open when the trace ends are reported separately
/// (their duration runs to the last event's timestamp), and a `Park`
/// with nothing after it contributes a zero-length still-idle interval
/// rather than disappearing.
fn idle_attribution_table(trace: &Trace) -> Table {
    let mut table = Table::new(
        "idle intervals by ending cause (from park/unpark spans)",
        &["cause", "intervals", "total idle ns", "mean ns", "longest ns"],
    );
    let trace_end = trace.events.last().map_or(0, |e| e.ts);
    // (cause, duration) per closed interval.
    let mut intervals: Vec<(IdleCause, u64)> = Vec::new();
    for core in 0..trace.nr_cores {
        let mut parked_at: Option<u64> = None;
        let mut cause: Option<IdleCause> = None;
        for e in &trace.events {
            let mine = e.core == CoreId(core);
            match e.event {
                TraceEvent::Park if mine => {
                    parked_at.get_or_insert(e.ts);
                }
                TraceEvent::Unpark if mine => {
                    if let Some(start) = parked_at.take() {
                        intervals.push((
                            cause.take().unwrap_or(IdleCause::Unattributed),
                            e.ts.saturating_sub(start),
                        ));
                    }
                }
                // Causes only count while parked, and the strongest
                // (most direct) attribution wins over a later weaker one.
                _ if parked_at.is_some() => {
                    let seen = match e.event {
                        TraceEvent::StealAttempt { outcome: StealOutcomeKind::Stole, .. }
                            if mine =>
                        {
                            Some(IdleCause::StoleWork)
                        }
                        TraceEvent::PlaceDecision { core: target, .. }
                            if target == CoreId(core) =>
                        {
                            Some(IdleCause::PlacedWakeup)
                        }
                        TraceEvent::InjectorDrain { .. } if mine => Some(IdleCause::InjectorDrain),
                        _ => None,
                    };
                    if let Some(seen) = seen {
                        cause = Some(cause.map_or(seen, |c| c.min(seen)));
                    }
                }
                _ => {}
            }
        }
        if let Some(start) = parked_at {
            intervals.push((IdleCause::StillIdle, trace_end.saturating_sub(start)));
        }
    }
    for cause in [
        IdleCause::StoleWork,
        IdleCause::PlacedWakeup,
        IdleCause::InjectorDrain,
        IdleCause::Unattributed,
        IdleCause::StillIdle,
    ] {
        let spans: Vec<u64> =
            intervals.iter().filter(|(c, _)| *c == cause).map(|&(_, d)| d).collect();
        if spans.is_empty() {
            continue;
        }
        let total: u64 = spans.iter().sum();
        table.row(&[
            cause.label().to_string(),
            spans.len().to_string(),
            total.to_string(),
            format!("{:.0}", total as f64 / spans.len() as f64),
            spans.iter().max().copied().unwrap_or(0).to_string(),
        ]);
    }
    table
}

/// Number of equal-width windows the acquisition timeline slices the
/// trace span into.
const TIMELINE_WINDOWS: u64 = 8;

/// Tasks-per-acquisition over time: the trace span sliced into
/// eight equal windows, each reporting how many queue
/// acquisitions (successful steals) it saw and how many tasks each one
/// delivered on average.
///
/// A healthy batched run starts well above 1.0 and decays towards it as
/// the backlog drains; a run that sits at 1.0 throughout never amortised
/// anything.  Windows with no acquisitions print `-` rather than 0.0 —
/// "nothing was stolen" and "batching collapsed" are different findings.
fn acquisition_timeline_table(trace: &Trace) -> Table {
    let mut table = Table::new(
        "tasks per acquisition over time",
        &["window", "span ns", "acquisitions", "tasks moved", "tasks/acq"],
    );
    let (first, last) = match (trace.events.first(), trace.events.last()) {
        (Some(f), Some(l)) => (f.ts, l.ts),
        _ => return table,
    };
    let width = ((last - first) / TIMELINE_WINDOWS).max(1);
    let mut acquisitions = vec![0u64; TIMELINE_WINDOWS as usize];
    let mut moved_tasks = vec![0u64; TIMELINE_WINDOWS as usize];
    for e in &trace.events {
        if let TraceEvent::StealAttempt { outcome: StealOutcomeKind::Stole, moved, .. } = e.event {
            let w = (((e.ts - first) / width) as usize).min(TIMELINE_WINDOWS as usize - 1);
            acquisitions[w] += 1;
            moved_tasks[w] += u64::from(moved);
        }
    }
    for w in 0..TIMELINE_WINDOWS as usize {
        let start = first + w as u64 * width;
        table.row(&[
            format!("[{start}, {})", start + width),
            width.to_string(),
            acquisitions[w].to_string(),
            moved_tasks[w].to_string(),
            if acquisitions[w] == 0 {
                "-".to_string()
            } else {
                format!("{:.2}", moved_tasks[w] as f64 / acquisitions[w] as f64)
            },
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::TaskId;
    use sched_trace::TraceSink;

    /// A hand-built trace exercising every attribution path at known
    /// timestamps.
    fn synthetic() -> Trace {
        let sink = TraceSink::recording(3);
        let c0 = CoreId(0);
        let c1 = CoreId(1);
        let c2 = CoreId(2);
        // Core 0: parks at 100, fails at 150, steals at 400 (node level)
        // — one 300ns idle interval ended by its own steal, and one
        // leveled hunt of 300ns.
        sink.record(c0, 100, &TraceEvent::Park);
        sink.record(
            c0,
            150,
            &TraceEvent::StealAttempt {
                victim: Some(c1),
                level: None,
                outcome: StealOutcomeKind::RecheckFailed,
                k: 1,
                moved: 0,
            },
        );
        sink.record(
            c0,
            400,
            &TraceEvent::StealAttempt {
                victim: Some(c1),
                level: Some(StealLevel::SameNode),
                outcome: StealOutcomeKind::Stole,
                k: 2,
                moved: 2,
            },
        );
        sink.record(c0, 400, &TraceEvent::Unpark);
        // Core 1: parks at 200, a wakeup is placed on it at 500, unparks
        // at 500 — a 300ns interval attributed to placement.
        sink.record(c1, 200, &TraceEvent::Park);
        sink.record(c2, 500, &TraceEvent::PlaceDecision { task: TaskId(9), core: c1 });
        sink.record(c1, 500, &TraceEvent::Unpark);
        // Core 2: parks at 900 and the trace ends at 1000 — still idle.
        sink.record(c2, 900, &TraceEvent::Park);
        sink.record(c0, 1000, &TraceEvent::TaskDone { task: TaskId(1) });
        sink.drain()
    }

    #[test]
    fn hunt_latency_lands_in_the_winning_attempts_level() {
        let table = steal_latency_table(&synthetic());
        let text = table.to_text();
        assert!(text.contains("node"), "the success was node-level: {text}");
        // Hunt span 100 -> 400; the p50 upper bound of the 300ns bucket
        // is 512 and the exact min/max are 300.
        assert!(text.contains("300"), "hunt latency is park-to-claim: {text}");
        assert!(!text.contains(UNLEVELLED), "no unlevelled successes here: {text}");
    }

    #[test]
    fn idle_intervals_attribute_to_what_ended_them() {
        let table = idle_attribution_table(&synthetic());
        let text = table.to_text();
        for (cause, spans) in
            [("stole work", "300"), ("placed wakeup", "300"), ("still idle at trace end", "100")]
        {
            assert!(text.contains(cause), "missing `{cause}` row: {text}");
            assert!(text.contains(spans), "`{cause}` span is wrong: {text}");
        }
        assert!(!text.contains("unattributed"), "every interval here has a cause: {text}");
    }

    #[test]
    fn the_timeline_counts_moved_tasks_not_attempts() {
        let table = acquisition_timeline_table(&synthetic());
        let text = table.to_text();
        // One acquisition of two tasks (ts 400 of a [100, 1000] span),
        // nothing in any other window.
        assert!(text.contains("2.00"), "two tasks over one acquisition: {text}");
        assert!(text.matches('-').count() >= TIMELINE_WINDOWS as usize - 1, "{text}");
    }

    #[test]
    fn an_empty_trace_reports_empty_tables_without_panicking() {
        let empty = TraceSink::recording(2).drain();
        for table in trace_report(&empty) {
            let _ = table.to_text();
        }
    }

    #[test]
    fn a_real_hierarchical_sim_run_fills_all_three_reports() {
        // E16 (one hot core per node of the eight-node topology, drained
        // by the topology-aware choice) is the report's showcase: leveled
        // steals, real park/unpark spans, and a draining backlog.
        let spec = crate::catalog::spec(crate::ExperimentId::E16);
        let (_, trace) = crate::ExperimentRunner::with_all_backends()
            .run_traced("sim", &spec)
            .expect("sim is a known backend")
            .expect("the simulator executes E16");
        assert_eq!(trace.dropped, 0, "E16 fits the rings");
        let latency = steal_latency_table(&trace).to_text();
        assert!(
            StealLevel::ALL.iter().any(|l| latency.contains(l.short_name())),
            "hierarchical steals must attribute a level: {latency}"
        );
        let idle = idle_attribution_table(&trace).to_text();
        assert!(idle.contains("stole work"), "idle eight-node cores steal their way out: {idle}");
        let timeline = acquisition_timeline_table(&trace).to_text();
        assert!(timeline.contains("1.00"), "sim steals move one task each: {timeline}");
    }
}
