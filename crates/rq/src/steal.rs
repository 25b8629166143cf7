//! The locked stealing phase: ordered double-locking plus filter re-check.
//!
//! "The stealing phase must be done atomically for correctness (i.e., no two
//! cores should be able to steal the same thread)." (§3.1)  Atomicity is
//! obtained by holding both runqueue locks; deadlock between concurrent
//! stealers is avoided by always acquiring the lower-numbered core's lock
//! first — the same discipline Linux's `double_rq_lock` uses.

use std::sync::atomic::{AtomicU64, Ordering};

use sched_core::{CoreId, CoreSnapshot, FilterPolicy, StealOutcome};
use sched_topology::StealLevel;
use sched_trace::{TraceEvent, TraceSink};

use crate::backend::RqBackend;
use crate::percore::{PerCoreRq, RqInner};
use crate::stats::BalanceStats;
use crate::TaskQueue;

/// Where the outcome of a locked stealing phase is recorded, and which
/// steal level the migrated threads are attributed to.
///
/// The recorder optionally carries a [`TraceSink`] context: when present,
/// every counted outcome is also recorded as a
/// [`TraceEvent::StealAttempt`] (plus one [`TraceEvent::Migration`] per
/// moved task) on the thief's ring, at the same program point where the
/// counters move — which is what lets the `stats == fold(trace)` parity
/// tests treat the trace as a complete record of the round.
#[derive(Debug, Clone, Copy)]
pub struct StealRecorder<'a> {
    /// The shared counters of the round.
    pub stats: &'a BalanceStats,
    /// Distance class of the victim relative to the thief, if known.
    pub level: Option<StealLevel>,
    /// Trace context: the sink, the thief (recording) core, and the
    /// machine's logical clock.
    trace: Option<(&'a TraceSink, CoreId, &'a AtomicU64)>,
}

impl<'a> StealRecorder<'a> {
    /// A recorder that counts into `stats` (attributing migrations to
    /// `level`) without tracing.
    pub fn new(stats: &'a BalanceStats, level: Option<StealLevel>) -> Self {
        StealRecorder { stats, level, trace: None }
    }

    /// Adds a trace context: recorded outcomes also land on `thief`'s ring
    /// of `sink`, stamped with what `clock` reads **when they are
    /// recorded** — after the claim.  A task can be placed on the victim
    /// while a thief is already deciding, and be claimed by that decision;
    /// stamped with the decision's start, its migration would sort before
    /// its placement.  A disabled sink costs one branch.
    pub fn with_trace(self, sink: &'a TraceSink, thief: CoreId, clock: &'a AtomicU64) -> Self {
        StealRecorder { trace: Some((sink, thief, clock)), ..self }
    }

    /// Counts `outcome` into the stats **and** traces it, in one call —
    /// the single program point every backend's stealing phase funnels
    /// through.  The [`TraceEvent::StealAttempt`] is built once and handed
    /// to both, so counters and trace can never disagree.  `k` is the
    /// claim size the decision asked for.
    pub fn record_attempt(&self, outcome: &StealOutcome, k: usize) {
        let attempt = TraceEvent::steal_attempt(outcome, self.level, k);
        self.stats.record(&attempt);
        let Some((sink, thief, clock)) = self.trace else {
            return;
        };
        if !sink.is_enabled() {
            return;
        }
        let now = clock.load(Ordering::Acquire);
        sink.record(thief, now, &attempt);
        if let StealOutcome::Stole { victim, tasks } = outcome {
            for &task in tasks {
                sink.record(thief, now, &TraceEvent::Migration { task, from: *victim });
            }
        }
    }
}

/// Builds a live snapshot of a locked runqueue.
pub(crate) fn snapshot_locked<Q: TaskQueue + 'static>(
    rq: &PerCoreRq<Q>,
    inner: &RqInner<Q>,
) -> CoreSnapshot {
    CoreSnapshot {
        id: rq.id(),
        node: rq.node(),
        nr_threads: inner.nr_threads(),
        weighted_load: inner.weighted_load(),
        lightest_ready_weight: inner.queue.lightest_weight(),
        tracked_scaled: inner.tracked.scaled,
        injected: 0,
    }
}

/// Attempts to steal up to `max_tasks` waiting tasks from `victim` into
/// `thief`, re-checking `filter` under the locks first, and records the
/// outcome into `recorder`'s counters (if any) **while both runqueue locks
/// are still held**.
///
/// Returns the same [`StealOutcome`] vocabulary as the pure model, so the
/// P1/P2 reasoning applies verbatim to this implementation.
///
/// Recording under the locks makes the counter transition atomic with the
/// dequeue: without it, a steal that migrates an entity and a local wakeup
/// that re-enqueues work on the victim can interleave between the unlock
/// and the caller's stats update, so an observer comparing the counters
/// with the published queue states sees the migrated entity counted twice
/// (once in flight, once settled).  With the recorder, counters and queue
/// contents always change under the same critical section.
///
/// # Panics
///
/// Panics if `thief` and `victim` are the same core, which would be a
/// balancer bug (the filter never selects the thief itself).
pub fn try_steal_recorded<Q: TaskQueue + 'static>(
    thief: &PerCoreRq<Q>,
    victim: &PerCoreRq<Q>,
    filter: &dyn FilterPolicy,
    max_tasks: usize,
    recorder: Option<StealRecorder<'_>>,
) -> StealOutcome {
    assert_ne!(thief.id(), victim.id(), "a core cannot steal from itself");

    // Ordered double-lock: lowest core id first, so two concurrent stealers
    // targeting each other cannot deadlock.
    let (mut thief_guard, mut victim_guard) = if thief.id() < victim.id() {
        let t = thief.lock();
        let v = victim.lock();
        (t, v)
    } else {
        let v = victim.lock();
        let t = thief.lock();
        (t, v)
    };

    // Listing 1, line 12: "Check that the filter of step 1 still holds".
    let thief_snap = snapshot_locked(thief, &thief_guard);
    let victim_snap = snapshot_locked(victim, &victim_guard);
    if !filter.can_steal(&thief_snap, &victim_snap) {
        let outcome = StealOutcome::RecheckFailed { victim: victim.id() };
        if let Some(rec) = recorder {
            rec.record_attempt(&outcome, max_tasks.max(1));
        }
        return outcome;
    }

    let mut moved = Vec::new();
    for _ in 0..max_tasks.max(1) {
        match victim_guard.queue.pop_steal_candidate() {
            Some(task) => {
                moved.push(task.id);
                if thief_guard.current.is_none() {
                    thief_guard.current = Some(task);
                } else {
                    thief_guard.queue.push(task);
                }
            }
            None => break,
        }
    }

    let outcome = if moved.is_empty() {
        StealOutcome::NothingToSteal { victim: victim.id() }
    } else {
        StealOutcome::Stole { victim: victim.id(), tasks: moved }
    };
    // Count the migration before the locks are released (and before the new
    // loads are published): stats and queue state move as one step.
    if let Some(rec) = recorder {
        rec.record_attempt(&outcome, max_tasks.max(1));
    }

    thief.republish(&mut thief_guard);
    victim.republish(&mut victim_guard);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::RqTask;
    use crate::fifo::FifoQueue;
    use sched_core::policy::DeltaFilter;
    use sched_core::{CoreId, TaskId};
    use sched_topology::NodeId;

    fn rq(id: usize) -> PerCoreRq<FifoQueue> {
        PerCoreRq::new(CoreId(id), NodeId(0))
    }

    #[test]
    fn steals_one_task_when_the_filter_holds() {
        let thief = rq(0);
        let victim = rq(1);
        for i in 0..3 {
            victim.enqueue(RqTask::new(TaskId(i)));
        }
        let outcome = try_steal_recorded(&thief, &victim, &DeltaFilter::listing1(), 1, None);
        assert!(outcome.is_success());
        assert_eq!(thief.snapshot().nr_threads, 1);
        assert_eq!(victim.snapshot().nr_threads, 2);
    }

    #[test]
    fn recheck_fails_when_the_victim_was_drained_concurrently() {
        let thief = rq(0);
        let victim = rq(1);
        victim.enqueue(RqTask::new(TaskId(0)));
        // The victim only has one thread: the filter cannot hold.
        let outcome = try_steal_recorded(&thief, &victim, &DeltaFilter::listing1(), 1, None);
        assert_eq!(outcome, StealOutcome::RecheckFailed { victim: CoreId(1) });
        assert_eq!(victim.snapshot().nr_threads, 1);
    }

    #[test]
    fn never_steals_the_victims_running_task() {
        let thief = rq(0);
        let victim = rq(1);
        victim.enqueue(RqTask::new(TaskId(0)));
        victim.enqueue(RqTask::new(TaskId(1)));
        let outcome = try_steal_recorded(&thief, &victim, &DeltaFilter::listing1(), 8, None);
        match outcome {
            StealOutcome::Stole { tasks, .. } => assert_eq!(tasks, vec![TaskId(1)]),
            other => panic!("expected a steal, got {other:?}"),
        }
        assert_eq!(victim.lock().current.as_ref().unwrap().id, TaskId(0));
        assert!(!victim.snapshot().is_idle());
    }

    #[test]
    fn lock_order_is_symmetric() {
        // Stealing in both directions works regardless of id ordering.
        let a = rq(0);
        let b = rq(1);
        for i in 0..4 {
            a.enqueue(RqTask::new(TaskId(i)));
        }
        let outcome = try_steal_recorded(&b, &a, &DeltaFilter::listing1(), 1, None);
        assert!(outcome.is_success());
        assert_eq!(a.snapshot().nr_threads, 3);
        assert_eq!(b.snapshot().nr_threads, 1);
    }

    #[test]
    #[should_panic(expected = "cannot steal from itself")]
    fn self_steal_is_a_bug() {
        let a = rq(0);
        let _ = try_steal_recorded(&a, &a, &DeltaFilter::listing1(), 1, None);
    }

    #[test]
    fn recorded_steals_count_outcomes_and_levels() {
        use sched_topology::StealLevel;

        let stats = BalanceStats::new();
        let thief = rq(0);
        let victim = rq(1);
        for i in 0..3 {
            victim.enqueue(RqTask::new(TaskId(i)));
        }
        let outcome = try_steal_recorded(
            &thief,
            &victim,
            &DeltaFilter::listing1(),
            1,
            Some(StealRecorder::new(&stats, Some(StealLevel::SameNode))),
        );
        assert!(outcome.is_success());
        assert_eq!(stats.successes(), 1);
        assert_eq!(stats.migrations(), 1);
        assert_eq!(stats.tally().level_migrations, [0, 0, 1, 0]);

        // Draining the victim makes the next recorded attempt a re-check
        // failure, also counted through the recorder.
        victim.complete_current();
        victim.complete_current();
        let outcome = try_steal_recorded(
            &thief,
            &victim,
            &DeltaFilter::listing1(),
            1,
            Some(StealRecorder::new(&stats, Some(StealLevel::SameNode))),
        );
        assert!(outcome.is_failure());
        assert_eq!(stats.tally().recheck_failures, 1);
        assert_eq!(stats.migrations(), 1, "failures must not count migrations");
    }
}
