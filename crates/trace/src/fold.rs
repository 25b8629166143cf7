//! The steal tally: what every substrate counts, and what a trace folds to.
//!
//! [`FoldedStats`] is the one value type that counts steal attempts, and
//! [`FoldedStats::of`] is the one function that decides which counter a
//! [`TraceEvent::StealAttempt`] moves and which level its migrations count
//! towards.  The live counters call it at the point where they record the
//! attempt (`sched-rq`'s `BalanceStats`, which the executor shares), the
//! simulator and the experiment runner call it on the round reports of the
//! one round driver, and [`FoldedStats::from_trace`] calls it on a
//! drained trace.  Folding a trace must therefore reproduce the live tally
//! bit for bit — the `stats == fold(trace)` parity tests in each substrate
//! compare the whole struct, which pins the trace as a complete record of
//! the decisions the counters summarise, not a lossy echo of them.
//! Its per-level view, the remote-steal rate, is in [`crate::locality`].

use crate::event::{StealOutcomeKind, TraceEvent};
use crate::sink::Trace;

/// The steal-attempt counters of a run, a round or a single attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldedStats {
    /// Steal attempts that migrated at least one task.
    pub successes: u64,
    /// Attempts whose filter re-check failed on the live state.
    pub recheck_failures: u64,
    /// Attempts whose filter held but found nothing migratable.
    pub nothing_to_steal: u64,
    /// Attempts whose selection produced no victim at all.
    pub no_candidates: u64,
    /// Tasks migrated.
    pub migrations: u64,
    /// Tasks migrated per steal level, indexed by
    /// [`StealLevel::index`](sched_topology::StealLevel::index);
    /// a success whose level is unknown counts in `migrations` only.
    pub level_migrations: [u64; 4],
}

impl FoldedStats {
    /// What one event adds to a tally: a [`TraceEvent::StealAttempt`]
    /// moves the counter of its outcome, and a successful one adds its
    /// moved tasks to `migrations` and to its level's bucket.  Every other
    /// event adds nothing.
    pub fn of(event: &TraceEvent) -> Self {
        let mut tally = FoldedStats::default();
        let TraceEvent::StealAttempt { level, outcome, moved, .. } = *event else {
            return tally;
        };
        match outcome {
            StealOutcomeKind::Stole => {
                tally.successes = 1;
                tally.migrations = u64::from(moved);
                if let Some(level) = level {
                    tally.level_migrations[level.index()] = u64::from(moved);
                }
            }
            StealOutcomeKind::RecheckFailed => tally.recheck_failures = 1,
            StealOutcomeKind::NothingToSteal => tally.nothing_to_steal = 1,
            StealOutcomeKind::NoCandidates => tally.no_candidates = 1,
        }
        tally
    }

    /// Folds a drained trace into the aggregate counters.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut stats = FoldedStats::default();
        for recorded in &trace.events {
            stats.observe(&recorded.event);
        }
        stats
    }

    /// Folds one event into the counters.
    pub fn observe(&mut self, event: &TraceEvent) {
        self.merge(&Self::of(event));
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &FoldedStats) {
        self.successes += other.successes;
        self.recheck_failures += other.recheck_failures;
        self.nothing_to_steal += other.nothing_to_steal;
        self.no_candidates += other.no_candidates;
        self.migrations += other.migrations;
        for (mine, theirs) in self.level_migrations.iter_mut().zip(other.level_migrations) {
            *mine += theirs;
        }
    }

    /// Failed attempts in the paper's sense (a victim was chosen, nothing
    /// was stolen).
    pub fn failures(&self) -> u64 {
        self.recheck_failures + self.nothing_to_steal
    }

    /// Attempts that chose a victim (successes plus failures).
    pub fn attempts(&self) -> u64 {
        self.successes + self.failures()
    }
}

impl std::fmt::Display for FoldedStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [smt, llc, node, remote] = self.level_migrations;
        write!(
            f,
            "stole {} ({} tasks: smt={smt} llc={llc} node={node} remote={remote}), failed {} \
             (recheck {}, nothing {}), no candidates {}",
            self.successes,
            self.migrations,
            self.failures(),
            self.recheck_failures,
            self.nothing_to_steal,
            self.no_candidates
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;
    use sched_core::{CoreId, StealOutcome, TaskId};
    use sched_topology::StealLevel;

    fn stole(n: u64, level: Option<StealLevel>) -> TraceEvent {
        let tasks = (0..n).map(TaskId).collect();
        TraceEvent::steal_attempt(&StealOutcome::Stole { victim: CoreId(1), tasks }, level, 4)
    }

    #[test]
    fn folding_reproduces_the_stats_semantics() {
        let sink = TraceSink::with_capacity(2, 32);
        sink.record(CoreId(0), 1, &stole(2, Some(StealLevel::SameLlc)));
        sink.record(CoreId(0), 1, &TraceEvent::Migration { task: TaskId(1), from: CoreId(1) });
        sink.record(CoreId(0), 1, &TraceEvent::Migration { task: TaskId(2), from: CoreId(1) });
        sink.record(
            CoreId(0),
            2,
            &TraceEvent::steal_attempt(&StealOutcome::RecheckFailed { victim: CoreId(1) }, None, 1),
        );
        sink.record(
            CoreId(1),
            2,
            &TraceEvent::steal_attempt(
                &StealOutcome::NothingToSteal { victim: CoreId(0) },
                None,
                1,
            ),
        );
        sink.record(CoreId(1), 3, &TraceEvent::steal_attempt(&StealOutcome::NoCandidates, None, 1));
        let mut stats = FoldedStats::from_trace(&sink.drain());
        assert_eq!(
            stats,
            FoldedStats {
                successes: 1,
                recheck_failures: 1,
                nothing_to_steal: 1,
                no_candidates: 1,
                migrations: 2,
                level_migrations: [0, 2, 0, 0],
            }
        );
        assert_eq!(stats.failures(), 2);
        assert_eq!(stats.attempts(), 3, "no-candidates chose no victim");
        assert_eq!(stats.remote_rate(), 0.0);

        // Merging adds every counter; the remote rate is over the
        // level-attributed migrations only.
        let mut more = FoldedStats::of(&stole(2, Some(StealLevel::SameNode)));
        more.observe(&stole(3, Some(StealLevel::Remote)));
        more.observe(&stole(1, None));
        stats.merge(&more);
        assert_eq!(stats.level_migrations, [0, 2, 2, 3]);
        assert_eq!((stats.successes, stats.migrations), (4, 8));
        assert!((stats.remote_rate() - 3.0 / 7.0).abs() < 1e-9);
        assert_eq!(
            stats.to_string(),
            "stole 4 (8 tasks: smt=0 llc=2 node=2 remote=3), failed 2 (recheck 1, nothing 1), \
             no candidates 1"
        );
    }

    #[test]
    fn non_steal_events_do_not_move_the_counters() {
        let sink = TraceSink::with_capacity(1, 8);
        sink.record(CoreId(0), 0, &TraceEvent::TaskWake { task: TaskId(0) });
        sink.record(CoreId(0), 0, &TraceEvent::Park);
        sink.record(CoreId(0), 0, &TraceEvent::InjectorPush { task: TaskId(0) });
        let stats = FoldedStats::from_trace(&sink.drain());
        assert_eq!(stats, FoldedStats::default());
        assert_eq!(stats.remote_rate(), 0.0, "an empty tally has a zero rate");
    }
}
