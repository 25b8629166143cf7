//! Outcome counters for concurrent balancing rounds.

use std::sync::atomic::{AtomicU64, Ordering};

use sched_trace::{FoldedStats, TraceEvent};

/// The atomic store of a [`FoldedStats`] tally, shared by all the threads
/// participating in a concurrent round (and by every worker of an
/// executor).
///
/// What an attempt counts as is decided in one place,
/// [`FoldedStats::of`]: [`BalanceStats::record`] adds exactly that to the
/// counters, and [`BalanceStats::tally`] reads them back as the same type a
/// drained trace folds to, so `stats.tally() == FoldedStats::from_trace(..)`
/// is one comparison.
///
/// Counter transitions for locked outcomes happen **inside** the stealing
/// phase, while both runqueue locks are still held (see
/// [`crate::steal::try_steal_recorded`]): the dequeue of a migrated entity
/// and its appearance in these counters are one atomic step, so a steal
/// racing with a local wakeup can never be double-counted by an observer
/// that reads the counters against the published queue state.
#[derive(Debug, Default)]
pub struct BalanceStats {
    successes: AtomicU64,
    recheck_failures: AtomicU64,
    nothing_to_steal: AtomicU64,
    no_candidates: AtomicU64,
    migrations: AtomicU64,
    /// Threads migrated per steal level, indexed by
    /// [`sched_topology::StealLevel::index`].
    level_migrations: [AtomicU64; 4],
}

impl BalanceStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one balancing attempt, described by its
    /// [`TraceEvent::StealAttempt`] (any other event counts nothing).
    pub fn record(&self, event: &TraceEvent) {
        self.add(&FoldedStats::of(event));
    }

    /// Adds a whole tally into the counters.
    pub fn add(&self, tally: &FoldedStats) {
        let add = |counter: &AtomicU64, n: u64| {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        };
        add(&self.successes, tally.successes);
        add(&self.recheck_failures, tally.recheck_failures);
        add(&self.nothing_to_steal, tally.nothing_to_steal);
        add(&self.no_candidates, tally.no_candidates);
        add(&self.migrations, tally.migrations);
        for (counter, &n) in self.level_migrations.iter().zip(&tally.level_migrations) {
            add(counter, n);
        }
    }

    /// The counters as a tally.
    pub fn tally(&self) -> FoldedStats {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        FoldedStats {
            successes: load(&self.successes),
            recheck_failures: load(&self.recheck_failures),
            nothing_to_steal: load(&self.nothing_to_steal),
            no_candidates: load(&self.no_candidates),
            migrations: load(&self.migrations),
            level_migrations: self.level_migrations.each_ref().map(load),
        }
    }

    /// Number of successful steals.
    pub fn successes(&self) -> u64 {
        self.successes.load(Ordering::Relaxed)
    }

    /// Number of attempts that filtered out every core.
    pub fn no_candidates(&self) -> u64 {
        self.no_candidates.load(Ordering::Relaxed)
    }

    /// Number of threads migrated.
    pub fn migrations(&self) -> u64 {
        self.migrations.load(Ordering::Relaxed)
    }

    /// Attempts that chose a victim (successes plus failures).
    pub fn attempts(&self) -> u64 {
        self.tally().attempts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::{CoreId, StealOutcome, TaskId};
    use sched_topology::StealLevel;

    fn attempt(outcome: StealOutcome, level: Option<StealLevel>) -> TraceEvent {
        TraceEvent::steal_attempt(&outcome, level, 1)
    }

    fn stole(victim: usize, n: u64) -> StealOutcome {
        StealOutcome::Stole { victim: CoreId(victim), tasks: (0..n).map(TaskId).collect() }
    }

    #[test]
    fn records_each_outcome_kind() {
        let stats = BalanceStats::new();
        stats.record(&attempt(stole(1, 2), None));
        stats.record(&attempt(StealOutcome::RecheckFailed { victim: CoreId(1) }, None));
        stats.record(&attempt(StealOutcome::NothingToSteal { victim: CoreId(1) }, None));
        stats.record(&attempt(StealOutcome::NoCandidates, None));
        let tally = stats.tally();
        assert_eq!(
            (tally.successes, tally.migrations, tally.recheck_failures, tally.nothing_to_steal),
            (1, 2, 1, 1)
        );
        assert_eq!(stats.no_candidates(), 1);
        assert_eq!(tally.failures(), 2);
        assert_eq!(stats.attempts(), 3);
    }

    #[test]
    fn level_attribution_buckets_migrations() {
        let stats = BalanceStats::new();
        stats.record(&attempt(stole(1, 3), Some(StealLevel::SameLlc)));
        stats.record(&attempt(stole(2, 1), Some(StealLevel::Remote)));
        assert_eq!(stats.tally().level_migrations, [0, 3, 0, 1]);
        assert_eq!(stats.migrations(), 4);
    }

    #[test]
    fn unattributed_steals_have_no_level_counts() {
        let stats = BalanceStats::new();
        stats.record(&attempt(stole(1, 1), None));
        assert_eq!(stats.tally().level_migrations, [0, 0, 0, 0]);
    }

    #[test]
    fn merge_from_folds_every_counter() {
        let a = BalanceStats::new();
        let b = BalanceStats::new();
        a.record(&attempt(stole(1, 1), Some(StealLevel::SmtSibling)));
        b.record(&attempt(stole(2, 1), Some(StealLevel::Remote)));
        b.record(&attempt(StealOutcome::RecheckFailed { victim: CoreId(2) }, None));
        a.add(&b.tally());
        let tally = a.tally();
        assert_eq!((tally.successes, tally.migrations, tally.recheck_failures), (2, 2, 1));
        assert_eq!(tally.level_migrations, [1, 0, 0, 1]);
    }
}
