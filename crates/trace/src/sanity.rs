//! The online invariant checker: folds the event stream incrementally and
//! flags violations with the offending event span attached.
//!
//! This is the paper's missing tooling, built from the trace alone: the
//! checker maintains a *derived* machine state (per-core occupancy from
//! placements, migrations and completions) and tests the scheduler's
//! invariants against it as each event arrives:
//!
//! * **idle-while-overloaded** — an idle thief keeps coming back
//!   empty-handed ([`StealOutcomeKind::NothingToSteal`]) from a victim
//!   whose derived occupancy says it has waiting work.  One such failure
//!   is a benign race; a *window* of them against an unchanged victim is
//!   exactly the work-conservation hole the paper describes (and exactly
//!   what the mutex backend's `SpillQueue` fixture reproduces in E25);
//! * **non-inversion** — a migration must never leave the thief strictly
//!   more loaded than it left the victim (beyond the one-task slack any
//!   single move has), or the steal inverted the imbalance it was sized
//!   against;
//! * **lost / duplicated tasks** — a task completed twice, completed
//!   without ever being placed, or placed while still resident elsewhere.
//!
//! The checker is deliberately conservative about concurrency: a drained
//! trace orders same-timestamp events by the global record sequence,
//! which for a single-threaded substrate is the causal order, but a
//! multi-threaded runqueue substrate can be descheduled between a queue
//! operation and its record call, so the committed order may lag the true
//! interleaving by a few events.  [`SanityChecker::relaxed`] widens the
//! windows and skips the strict identity checks accordingly;
//! [`SanityChecker::strict`] is for deterministic (model / simulator /
//! sequentially-driven) traces.  When the trace dropped events the
//! conservation checks are suppressed outright — the stream is knowingly
//! incomplete and the checker must not cry wolf over its own blind spot.

use std::collections::HashMap;
use std::fmt;

use sched_core::CoreId;

use crate::event::{StealOutcomeKind, TraceEvent};
use crate::sink::{RecordedEvent, Trace};

/// The invariant a [`SanityViolation`] breaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanityKind {
    /// An idle core repeatedly failed to obtain work from a victim whose
    /// derived occupancy shows waiting tasks.
    IdleWhileOverloaded,
    /// A migration left the thief more loaded than the victim it drained.
    NonInversion,
    /// A task id disappeared (completed twice, or completed unplaced),
    /// or the final derived occupancy undershoots the reported loads.
    TaskLost,
    /// A task id was duplicated (placed while still resident elsewhere),
    /// or the final derived occupancy overshoots the reported loads.
    TaskDuplicated,
}

impl fmt::Display for SanityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SanityKind::IdleWhileOverloaded => "idle-while-overloaded",
            SanityKind::NonInversion => "non-inversion",
            SanityKind::TaskLost => "task-lost",
            SanityKind::TaskDuplicated => "task-duplicated",
        };
        f.write_str(name)
    }
}

/// One flagged invariant breach, with the offending event span attached
/// (indices into the checked trace's event vector).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanityViolation {
    /// Which invariant broke.
    pub kind: SanityKind,
    /// Human-readable specifics (cores, tasks, derived loads involved).
    pub detail: String,
    /// Index of the first event of the offending span.
    pub first_event: usize,
    /// Index of the last event of the offending span (inclusive).
    pub last_event: usize,
}

impl fmt::Display for SanityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] events {}..={}: {}",
            self.kind, self.first_event, self.last_event, self.detail
        )
    }
}

impl SanityViolation {
    /// Renders the offending span (± `context` surrounding events) of
    /// `trace` as indented text — the excerpt the fuzzer ships next to a
    /// repro scenario.
    pub fn excerpt(&self, trace: &Trace, context: usize) -> String {
        let first = self.first_event.saturating_sub(context);
        let last = (self.last_event + context).min(trace.events.len().saturating_sub(1));
        let mut out = format!("{self}\n");
        for (index, recorded) in trace.events.iter().enumerate().take(last + 1).skip(first) {
            let marker =
                if index >= self.first_event && index <= self.last_event { ">>" } else { "  " };
            out.push_str(&format!(
                "{marker} #{index} t={} core{} {:?}\n",
                recorded.ts, recorded.core.0, recorded.event
            ));
        }
        out
    }
}

/// State of one suspicious thief→victim failure window.
#[derive(Debug, Clone, Copy)]
struct FailWindow {
    first_event: usize,
    last_event: usize,
    victim_occupancy: i64,
    count: u32,
}

/// The incremental checker (see the module docs).
#[derive(Debug)]
pub struct SanityChecker {
    strict: bool,
    /// Derived tasks resident per core (running + queued), from
    /// placements, migrations and completions.
    occupancy: Vec<i64>,
    /// Where each live task id currently resides.
    location: HashMap<u64, usize>,
    /// Open idle-vs-overloaded failure windows, keyed thief → victim.
    windows: HashMap<(usize, usize), FailWindow>,
    /// Windows already reported (one violation per thief/victim pair),
    /// mapped to their violation's index so a still-growing window keeps
    /// extending the reported span.
    reported: HashMap<(usize, usize), usize>,
    violations: Vec<SanityViolation>,
    /// Events observed so far (the index of the *next* event).
    index: usize,
    /// Events the producing trace dropped; nonzero suppresses the
    /// conservation checks.
    dropped: u64,
    /// Consecutive empty-handed failures an idle thief must accumulate
    /// against an unchanged overloaded victim before the window is
    /// flagged.
    window_threshold: u32,
}

impl SanityChecker {
    /// A checker for deterministic traces (model, simulator engines, or a
    /// sequentially driven runqueue): every invariant is enforced exactly,
    /// and two consecutive empty-handed failures already flag a window.
    pub fn strict(nr_cores: usize) -> Self {
        SanityChecker {
            strict: true,
            occupancy: vec![0; nr_cores],
            location: HashMap::new(),
            windows: HashMap::new(),
            reported: HashMap::new(),
            violations: Vec::new(),
            index: 0,
            dropped: 0,
            window_threshold: 2,
        }
    }

    /// A checker for traces recorded under real concurrency: the derived
    /// state may lag the true interleaving by a few same-timestamp events,
    /// so identity checks are softened and windows need more consecutive
    /// failures before they are flagged.
    pub fn relaxed(nr_cores: usize) -> Self {
        SanityChecker { strict: false, window_threshold: 4, ..Self::strict(nr_cores) }
    }

    /// Tells the checker how many events the trace dropped (call before
    /// the first [`SanityChecker::observe`]); nonzero suppresses the
    /// conservation checks, which would otherwise blame the scheduler for
    /// the recorder's blind spot.
    fn set_dropped(&mut self, dropped: u64) {
        self.dropped = dropped;
    }

    /// Derived occupancy of `core` (running + queued tasks).
    pub fn occupancy(&self, core: CoreId) -> i64 {
        self.occupancy.get(core.0).copied().unwrap_or(0)
    }

    /// Violations flagged so far.
    pub fn violations(&self) -> &[SanityViolation] {
        &self.violations
    }

    fn flag(&mut self, kind: SanityKind, first: usize, last: usize, detail: String) {
        self.violations.push(SanityViolation {
            kind,
            detail,
            first_event: first,
            last_event: last,
        });
    }

    /// Feeds the next event of the stream into the checker.  Events must
    /// arrive in trace order (the index attached to violations is the
    /// observation order).
    pub fn observe(&mut self, recorded: &RecordedEvent) {
        let index = self.index;
        self.index += 1;
        let here = recorded.core.0;
        if here >= self.occupancy.len() {
            return;
        }
        match recorded.event {
            TraceEvent::TaskWake { .. }
            | TraceEvent::BatchTrim { .. }
            | TraceEvent::InjectorPush { .. }
            | TraceEvent::InjectorDrain { .. }
            | TraceEvent::BalanceRound { .. }
            | TraceEvent::Park
            | TraceEvent::Unpark => {}
            TraceEvent::PlaceDecision { task, core } => {
                if core.0 >= self.occupancy.len() {
                    return;
                }
                if let Some(prev) = self.location.insert(task.0, core.0) {
                    if self.strict && self.dropped == 0 {
                        self.flag(
                            SanityKind::TaskDuplicated,
                            index,
                            index,
                            format!(
                                "task {} placed on core{} while still resident on core{prev}",
                                task.0, core.0
                            ),
                        );
                    }
                    self.occupancy[prev] -= 1;
                }
                self.occupancy[core.0] += 1;
                self.victim_changed(core.0);
            }
            TraceEvent::Migration { task, from } => {
                if from.0 >= self.occupancy.len() {
                    return;
                }
                match self.location.insert(task.0, here) {
                    Some(loc) if loc == from.0 => {}
                    Some(loc) => {
                        if self.strict && self.dropped == 0 {
                            self.flag(
                                SanityKind::TaskDuplicated,
                                index,
                                index,
                                format!(
                                    "task {} migrated from core{} but was resident on core{loc}",
                                    task.0, from.0
                                ),
                            );
                        }
                    }
                    None => {
                        if self.strict && self.dropped == 0 {
                            self.flag(
                                SanityKind::TaskLost,
                                index,
                                index,
                                format!(
                                    "task {} migrated from core{} without ever being placed",
                                    task.0, from.0
                                ),
                            );
                        }
                    }
                }
                self.occupancy[from.0] -= 1;
                self.occupancy[here] += 1;
                // The invariant every delivery re-check protects: one
                // migration may at most even the pair out (a one-task
                // slack), never leave the thief the more loaded side.
                let slack = if self.strict { 1 } else { 2 };
                if self.dropped == 0 && self.occupancy[here] > self.occupancy[from.0] + slack {
                    self.flag(
                        SanityKind::NonInversion,
                        index,
                        index,
                        format!(
                            "migrating task {} left thief core{here} at {} vs victim core{} at {}",
                            task.0, self.occupancy[here], from.0, self.occupancy[from.0]
                        ),
                    );
                }
                self.victim_changed(from.0);
                self.victim_changed(here);
            }
            TraceEvent::TaskDone { task } | TraceEvent::TaskSleep { task } => {
                match self.location.remove(&task.0) {
                    Some(loc) => {
                        self.occupancy[loc] -= 1;
                        self.victim_changed(loc);
                    }
                    None => {
                        if self.strict && self.dropped == 0 {
                            let how = match recorded.event {
                                TraceEvent::TaskDone { .. } => "completed",
                                _ => "went to sleep",
                            };
                            self.flag(
                                SanityKind::TaskLost,
                                index,
                                index,
                                format!(
                                    "task {} {how} on core{here} without ever being placed",
                                    task.0
                                ),
                            );
                        }
                    }
                }
            }
            TraceEvent::StealAttempt { victim, outcome, .. } => {
                let Some(victim) = victim else { return };
                if victim.0 >= self.occupancy.len() {
                    return;
                }
                match outcome {
                    StealOutcomeKind::NothingToSteal => {
                        self.observe_empty_handed(index, here, victim.0);
                    }
                    // A successful claim proves the victim's work was
                    // reachable: any window against it is vacated.  The
                    // re-check outcomes say nothing about reachability.
                    StealOutcomeKind::Stole => self.victim_changed(victim.0),
                    StealOutcomeKind::RecheckFailed | StealOutcomeKind::NoCandidates => {}
                }
            }
        }
    }

    /// An idle thief found nothing claimable at `victim`: open or extend
    /// the failure window, and flag it once it persists against an
    /// unchanged victim that derivably has waiting work.
    fn observe_empty_handed(&mut self, index: usize, thief: usize, victim: usize) {
        let thief_occupancy = self.occupancy[thief];
        let victim_occupancy = self.occupancy[victim];
        // A victim with ≥ 2 derived tasks has at least one *waiting* task
        // beyond the (unstealable) running one; an idle thief being told
        // "nothing to steal" by such a victim is the suspicious signature.
        if thief_occupancy > 0 || victim_occupancy < 2 {
            self.windows.remove(&(thief, victim));
            return;
        }
        let window = self
            .windows
            .entry((thief, victim))
            .and_modify(|w| {
                if w.victim_occupancy != victim_occupancy {
                    // The victim moved since the last failure: genuine
                    // race traffic, not a stuck window.  Start over.
                    *w = FailWindow {
                        first_event: index,
                        last_event: index,
                        victim_occupancy,
                        count: 1,
                    };
                } else {
                    w.last_event = index;
                    w.count += 1;
                }
            })
            .or_insert(FailWindow {
                first_event: index,
                last_event: index,
                victim_occupancy,
                count: 1,
            });
        let window = *window;
        if window.count < self.window_threshold {
            return;
        }
        match self.reported.get(&(thief, victim)) {
            Some(&at) => {
                // The window keeps growing: extend the reported span
                // instead of emitting one violation per extra failure.
                self.violations[at].last_event = window.last_event;
                self.violations[at].detail = Self::window_detail(thief, victim, &window);
            }
            None => {
                self.reported.insert((thief, victim), self.violations.len());
                self.flag(
                    SanityKind::IdleWhileOverloaded,
                    window.first_event,
                    window.last_event,
                    Self::window_detail(thief, victim, &window),
                );
            }
        }
    }

    /// The derived state of `victim` changed: every open window against it
    /// restarts (the next failure re-anchors on the new occupancy).
    fn victim_changed(&mut self, victim: usize) {
        self.windows.retain(|&(_, v), _| v != victim);
    }

    fn window_detail(thief: usize, victim: usize, window: &FailWindow) -> String {
        format!(
            "idle core{thief} failed {} consecutive steals from core{victim}, whose derived \
             occupancy stayed at {} waiting-capable tasks",
            window.count, window.victim_occupancy
        )
    }

    /// Ends the stream: cross-checks the derived occupancy against the
    /// substrate's own reported final loads (when given) and returns every
    /// violation.  Conservation mismatches are only meaningful on a
    /// complete trace, so they are suppressed when events were dropped.
    pub fn finish(mut self, final_loads: Option<&[u64]>) -> Vec<SanityViolation> {
        let last = self.index.saturating_sub(1);
        if self.dropped == 0 {
            if let Some(loads) = final_loads {
                for (core, &reported) in loads.iter().enumerate() {
                    let derived = self.occupancy.get(core).copied().unwrap_or(0);
                    if derived == reported as i64 {
                        continue;
                    }
                    let kind = if derived < reported as i64 {
                        SanityKind::TaskLost
                    } else {
                        SanityKind::TaskDuplicated
                    };
                    self.violations.push(SanityViolation {
                        kind,
                        detail: format!(
                            "core{core} finished with derived occupancy {derived} but reported \
                             load {reported}"
                        ),
                        first_event: 0,
                        last_event: last,
                    });
                }
            }
        }
        self.violations
    }

    /// Checks a whole drained trace in one call: strict or relaxed per
    /// `strict`, honouring the trace's own dropped-event count.
    pub fn check_trace(
        trace: &Trace,
        strict: bool,
        final_loads: Option<&[u64]>,
    ) -> Vec<SanityViolation> {
        let mut checker =
            if strict { Self::strict(trace.nr_cores) } else { Self::relaxed(trace.nr_cores) };
        checker.set_dropped(trace.dropped);
        for recorded in &trace.events {
            checker.observe(recorded);
        }
        checker.finish(final_loads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;
    use sched_core::{StealOutcome, TaskId};

    fn place(sink: &TraceSink, ts: u64, task: u64, core: usize) {
        sink.record(
            CoreId(core),
            ts,
            &TraceEvent::PlaceDecision { task: TaskId(task), core: CoreId(core) },
        );
    }

    fn nothing(sink: &TraceSink, ts: u64, thief: usize, victim: usize) {
        sink.record(
            CoreId(thief),
            ts,
            &TraceEvent::steal_attempt(
                &StealOutcome::NothingToSteal { victim: CoreId(victim) },
                None,
                1,
            ),
        );
    }

    #[test]
    fn a_clean_sequential_run_has_no_violations() {
        let sink = TraceSink::with_capacity(2, 64);
        place(&sink, 0, 0, 0);
        place(&sink, 0, 1, 0);
        place(&sink, 0, 2, 0);
        let stole = StealOutcome::Stole { victim: CoreId(0), tasks: vec![TaskId(2)] };
        sink.record(CoreId(1), 1, &TraceEvent::steal_attempt(&stole, None, 1));
        sink.record(CoreId(1), 1, &TraceEvent::Migration { task: TaskId(2), from: CoreId(0) });
        for (ts, task, core) in [(2, 0, 0), (2, 2, 1), (3, 1, 0)] {
            sink.record(CoreId(core), ts, &TraceEvent::TaskDone { task: TaskId(task) });
        }
        let trace = sink.drain();
        let violations = SanityChecker::check_trace(&trace, true, Some(&[0, 0]));
        assert_eq!(violations, Vec::new());
    }

    #[test]
    fn persistent_empty_handed_failures_flag_idle_while_overloaded() {
        // Core 0 derivably holds 4 tasks; idle core 1 is told "nothing to
        // steal" three times with nothing changing in between — the
        // private-spill signature.
        let sink = TraceSink::with_capacity(2, 64);
        for task in 0..4 {
            place(&sink, 0, task, 0);
        }
        for ts in 1..=3 {
            nothing(&sink, ts, 1, 0);
        }
        let trace = sink.drain();
        let violations = SanityChecker::check_trace(&trace, true, None);
        assert_eq!(violations.len(), 1, "one violation per thief/victim pair: {violations:?}");
        let v = &violations[0];
        assert_eq!(v.kind, SanityKind::IdleWhileOverloaded);
        assert_eq!((v.first_event, v.last_event), (4, 6), "the span covers the failures");
        let excerpt = v.excerpt(&trace, 1);
        assert!(excerpt.contains(">> #4"), "span rows are marked: {excerpt}");
        assert!(excerpt.contains("   #3"), "context rows are not: {excerpt}");
    }

    #[test]
    fn a_single_empty_handed_race_is_tolerated() {
        let sink = TraceSink::with_capacity(2, 64);
        for task in 0..4 {
            place(&sink, 0, task, 0);
        }
        nothing(&sink, 1, 1, 0);
        // The victim moves (a task completes) before the next failure:
        // windows restart, nothing is flagged.
        sink.record(CoreId(0), 2, &TraceEvent::TaskDone { task: TaskId(3) });
        nothing(&sink, 3, 1, 0);
        let violations = SanityChecker::check_trace(&sink.drain(), true, None);
        assert_eq!(violations, Vec::new());
    }

    #[test]
    fn an_inverting_migration_is_flagged() {
        let sink = TraceSink::with_capacity(2, 64);
        for task in 0..3 {
            place(&sink, 0, task, 0);
        }
        // Core 1 takes all three: after the third migration it derives 3
        // tasks against the victim's 0 — far past the one-task slack.
        let stole = StealOutcome::Stole { victim: CoreId(0), tasks: (0..3).map(TaskId).collect() };
        sink.record(CoreId(1), 1, &TraceEvent::steal_attempt(&stole, None, 8));
        for task in 0..3 {
            sink.record(
                CoreId(1),
                1,
                &TraceEvent::Migration { task: TaskId(task), from: CoreId(0) },
            );
        }
        let violations = SanityChecker::check_trace(&sink.drain(), true, None);
        assert!(
            violations.iter().any(|v| v.kind == SanityKind::NonInversion),
            "the over-greedy batch must be flagged: {violations:?}"
        );
    }

    #[test]
    fn duplicated_and_unplaced_tasks_are_flagged_in_strict_mode() {
        let sink = TraceSink::with_capacity(2, 64);
        place(&sink, 0, 7, 0);
        place(&sink, 1, 7, 1); // still resident on core 0
        sink.record(CoreId(0), 2, &TraceEvent::TaskDone { task: TaskId(9) }); // never placed
        let violations = SanityChecker::check_trace(&sink.drain(), true, None);
        assert_eq!(violations.len(), 2);
        assert_eq!(violations[0].kind, SanityKind::TaskDuplicated);
        assert_eq!(violations[1].kind, SanityKind::TaskLost);
    }

    #[test]
    fn final_load_mismatches_are_cross_checked() {
        let sink = TraceSink::with_capacity(2, 64);
        place(&sink, 0, 0, 0);
        place(&sink, 0, 1, 0);
        let violations = SanityChecker::check_trace(&sink.drain(), true, Some(&[2, 1]));
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, SanityKind::TaskLost);
        assert!(violations[0].detail.contains("core1"));
    }

    #[test]
    fn dropped_events_suppress_conservation_checks() {
        let sink = TraceSink::with_capacity(2, 64);
        place(&sink, 0, 0, 0);
        let mut trace = sink.drain();
        trace.dropped = 5;
        let violations = SanityChecker::check_trace(&trace, true, Some(&[0, 0]));
        assert_eq!(violations, Vec::new(), "an incomplete stream must not cry wolf");
    }
}
