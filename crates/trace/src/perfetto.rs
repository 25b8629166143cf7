//! Chrome/Perfetto `trace.json` export.
//!
//! Renders a drained [`Trace`] in the Chrome trace-event JSON format that
//! both `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! open directly: one track (`tid`) per core under a single process,
//! instants for the individual decisions, duration slices for parked
//! (idle) intervals, and flow arrows from victim to thief for every
//! successful steal — the visual the paper's "idle cores next to
//! overloaded ones" complaint calls for, since a starving core shows as a
//! long `parked` slice with failed steal instants and no inbound arrows.
//!
//! The writer is hand-rolled (this workspace has no JSON dependency); all
//! emitted strings are fixed labels, so no escaping is needed.

use crate::event::{StealOutcomeKind, TraceEvent};
use crate::sink::Trace;

/// Microsecond timestamp field from a logical-nanosecond clock.
fn ts_us(ts: u64) -> String {
    format!("{:.3}", ts as f64 / 1000.0)
}

fn push_event(out: &mut String, fields: &str) {
    out.push_str("    {");
    out.push_str(fields);
    out.push_str("},\n");
}

/// Renders `trace` as a Chrome trace-event JSON document.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::from("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n");
    for core in 0..trace.nr_cores {
        push_event(
            &mut out,
            &format!(
                "\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {core}, \
                 \"args\": {{\"name\": \"core {core}\"}}"
            ),
        );
    }
    // Parked intervals become duration slices: remember each core's open
    // park, close it on the matching unpark (or at the trace's end).
    let mut parked_since: Vec<Option<u64>> = vec![None; trace.nr_cores];
    let mut flow_id = 0u64;
    let mut last_ts = 0u64;
    for recorded in &trace.events {
        let core = recorded.core.0;
        let ts = recorded.ts;
        last_ts = last_ts.max(ts);
        match &recorded.event {
            TraceEvent::Park => {
                if let Some(slot) = parked_since.get_mut(core) {
                    slot.get_or_insert(ts);
                }
            }
            TraceEvent::Unpark => {
                if let Some(since) = parked_since.get_mut(core).and_then(Option::take) {
                    push_event(
                        &mut out,
                        &format!(
                            "\"name\": \"parked\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                             \"pid\": 0, \"tid\": {core}",
                            ts_us(since),
                            ts_us(ts.saturating_sub(since)),
                        ),
                    );
                }
            }
            TraceEvent::StealAttempt { victim, level, outcome, k, moved } => {
                let victim_label = victim.map_or_else(|| "null".to_string(), |v| v.0.to_string());
                let level_label =
                    level.map_or_else(|| "\"unknown\"".to_string(), |l| format!("\"{l:?}\""));
                push_event(
                    &mut out,
                    &format!(
                        "\"name\": \"steal:{}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {}, \
                         \"pid\": 0, \"tid\": {core}, \"args\": {{\"victim\": {victim_label}, \
                         \"level\": {level_label}, \"k\": {k}, \"moved\": {moved}}}",
                        outcome.label(),
                        ts_us(ts),
                    ),
                );
                if *outcome == StealOutcomeKind::Stole {
                    if let Some(victim) = victim {
                        // A flow arrow from the victim's track to the
                        // thief's: "s" starts it, "f" finishes it.
                        push_event(
                            &mut out,
                            &format!(
                                "\"name\": \"steal\", \"ph\": \"s\", \"id\": {flow_id}, \
                                 \"ts\": {}, \"pid\": 0, \"tid\": {}",
                                ts_us(ts),
                                victim.0,
                            ),
                        );
                        push_event(
                            &mut out,
                            &format!(
                                "\"name\": \"steal\", \"ph\": \"f\", \"bp\": \"e\", \
                                 \"id\": {flow_id}, \"ts\": {}, \"pid\": 0, \"tid\": {core}",
                                ts_us(ts),
                            ),
                        );
                        flow_id += 1;
                    }
                }
            }
            event => {
                let args = match event {
                    TraceEvent::TaskWake { task }
                    | TraceEvent::InjectorPush { task }
                    | TraceEvent::TaskDone { task }
                    | TraceEvent::TaskSleep { task } => format!("{{\"task\": {}}}", task.0),
                    TraceEvent::PlaceDecision { task, core } => {
                        format!("{{\"task\": {}, \"core\": {}}}", task.0, core.0)
                    }
                    TraceEvent::Migration { task, from } => {
                        format!("{{\"task\": {}, \"from\": {}}}", task.0, from.0)
                    }
                    TraceEvent::BatchTrim { returned } => {
                        format!("{{\"returned\": {returned}}}")
                    }
                    TraceEvent::InjectorDrain { moved } => format!("{{\"moved\": {moved}}}"),
                    TraceEvent::BalanceRound { round } => format!("{{\"round\": {round}}}"),
                    _ => "{}".to_string(),
                };
                push_event(
                    &mut out,
                    &format!(
                        "\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {}, \
                         \"pid\": 0, \"tid\": {core}, \"args\": {args}",
                        event.label(),
                        ts_us(ts),
                    ),
                );
            }
        }
    }
    // Close still-open park slices at the last seen timestamp so the idle
    // tail is visible rather than silently truncated.
    for (core, since) in parked_since.iter().enumerate() {
        if let Some(since) = since {
            push_event(
                &mut out,
                &format!(
                    "\"name\": \"parked\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                     \"pid\": 0, \"tid\": {core}",
                    ts_us(*since),
                    ts_us(last_ts.saturating_sub(*since)),
                ),
            );
        }
    }
    push_event(
        &mut out,
        &format!(
            "\"name\": \"dropped_events\", \"ph\": \"C\", \"ts\": 0, \"pid\": 0, \"tid\": 0, \
             \"args\": {{\"dropped\": {}}}",
            trace.dropped
        ),
    );
    // Trailing comma removal keeps the writer simple.
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;
    use sched_core::{CoreId, StealOutcome, TaskId};

    #[test]
    fn export_contains_tracks_flows_and_park_slices() {
        let sink = TraceSink::with_capacity(2, 32);
        sink.record(CoreId(1), 0, &TraceEvent::Park);
        sink.record(
            CoreId(0),
            500,
            &TraceEvent::PlaceDecision { task: TaskId(3), core: CoreId(0) },
        );
        let stole = StealOutcome::Stole { victim: CoreId(0), tasks: vec![TaskId(3)] };
        sink.record(CoreId(1), 1000, &TraceEvent::steal_attempt(&stole, None, 1));
        sink.record(CoreId(1), 1000, &TraceEvent::Unpark);
        let json = to_chrome_json(&sink.drain());
        assert!(json.contains("\"name\": \"core 0\""));
        assert!(json.contains("\"name\": \"core 1\""));
        assert!(json.contains("\"ph\": \"s\""), "flow start on the victim: {json}");
        assert!(json.contains("\"ph\": \"f\""), "flow finish on the thief");
        assert!(json.contains("\"name\": \"parked\", \"ph\": \"X\", \"ts\": 0.000, \"dur\": 1.000"));
        assert!(json.contains("steal:stole"));
        assert!(!json.contains(",\n  ]"), "no trailing comma before the close");
    }

    #[test]
    fn an_unclosed_park_is_flushed_at_the_end() {
        let sink = TraceSink::with_capacity(1, 8);
        sink.record(CoreId(0), 100, &TraceEvent::Park);
        sink.record(CoreId(0), 2100, &TraceEvent::BalanceRound { round: 0 });
        let json = to_chrome_json(&sink.drain());
        assert!(json.contains("\"dur\": 2.000"), "the idle tail must be visible: {json}");
    }

    #[test]
    fn empty_traces_render_valid_skeletons() {
        let json = to_chrome_json(&Trace::default());
        assert!(json.contains("traceEvents"));
        assert!(json.contains("dropped_events"));
    }
}
