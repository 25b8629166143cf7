//! Steal locality: where migrated tasks came from.  The same migration
//! count can mean cache-warm sibling handoffs or a cross-socket ping-pong,
//! so the tally buckets migrations by [`StealLevel`] and experiments
//! regress the remote-steal rate, not just throughput.

use sched_topology::StealLevel;

use crate::fold::FoldedStats;

impl FoldedStats {
    /// Fraction of the level-attributed migrations that crossed a NUMA node
    /// boundary, in `[0, 1]` (0 when none was attributed).
    pub fn remote_rate(&self) -> f64 {
        let total: u64 = self.level_migrations.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.level_migrations[StealLevel::Remote.index()] as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use sched_core::{CoreId, StealOutcome, TaskId};

    fn stole(n: u64, level: StealLevel) -> TraceEvent {
        let tasks = (0..n).map(TaskId).collect();
        TraceEvent::steal_attempt(&StealOutcome::Stole { victim: CoreId(1), tasks }, Some(level), 4)
    }

    fn with_levels(level_migrations: [u64; 4]) -> FoldedStats {
        FoldedStats { level_migrations, ..FoldedStats::default() }
    }

    #[test]
    fn rates_follow_the_counts() {
        let mut loc = FoldedStats::default();
        loc.observe(&stole(2, StealLevel::SmtSibling));
        loc.observe(&stole(1, StealLevel::SameLlc));
        loc.observe(&stole(1, StealLevel::Remote));
        assert_eq!(loc.migrations, 4);
        assert!((loc.remote_rate() - 0.25).abs() < 1e-9);
        assert_eq!(loc.level_migrations, [2, 1, 0, 1]);
    }

    #[test]
    fn empty_accounting_has_zero_rates() {
        let loc = FoldedStats::default();
        assert_eq!(loc.remote_rate(), 0.0);
        assert_eq!(loc.migrations, 0);
    }

    #[test]
    fn merge_and_display() {
        let mut a = with_levels([1, 0, 0, 0]);
        let b = with_levels([0, 0, 2, 3]);
        a.merge(&b);
        assert_eq!(a.level_migrations, [1, 0, 2, 3]);
        assert!(a.to_string().contains("smt=1 llc=0 node=2 remote=3"), "{a}");
    }
}
