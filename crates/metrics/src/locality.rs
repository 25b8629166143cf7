//! Steal-locality accounting: where migrated threads came from.
//!
//! Topology-aware balancing is only worth its complexity if it changes
//! *where* steals happen, not just how many: the same migration count can
//! mean cache-warm sibling handoffs or a cross-socket ping-pong.
//! [`StealLocality`] buckets migrations by [`StealLevel`] so experiments can
//! regress locality (the remote-steal rate) and not just throughput.

use sched_topology::StealLevel;

/// Per-level counts of migrated threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealLocality {
    counts: [u64; 4],
}

impl StealLocality {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the accounting from per-level counts, innermost level first.
    pub fn from_counts(counts: [u64; 4]) -> Self {
        StealLocality { counts }
    }

    /// Records `n` threads migrated across `level`.
    pub fn record(&mut self, level: StealLevel, n: u64) {
        self.counts[level.index()] += n;
    }

    /// Threads migrated across `level`.
    pub fn count(&self, level: StealLevel) -> u64 {
        self.counts[level.index()]
    }

    /// Per-level counts, innermost level first.
    pub fn counts(&self) -> [u64; 4] {
        self.counts
    }

    /// Total migrated threads.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of migrations that crossed a NUMA node boundary, in
    /// `[0, 1]` (0 when nothing was recorded).
    pub fn remote_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(StealLevel::Remote) as f64 / total as f64
        }
    }

    /// Folds another accounting into this one.
    pub fn merge(&mut self, other: &StealLocality) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
    }
}

impl std::fmt::Display for StealLocality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "smt={} llc={} node={} remote={}",
            self.counts[0], self.counts[1], self.counts[2], self.counts[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_follow_the_counts() {
        let mut loc = StealLocality::new();
        loc.record(StealLevel::SmtSibling, 2);
        loc.record(StealLevel::SameLlc, 1);
        loc.record(StealLevel::Remote, 1);
        assert_eq!(loc.total(), 4);
        assert!((loc.remote_rate() - 0.25).abs() < 1e-9);
        assert_eq!(loc.counts(), [2, 1, 0, 1]);
    }

    #[test]
    fn empty_accounting_has_zero_rates() {
        let loc = StealLocality::new();
        assert_eq!(loc.remote_rate(), 0.0);
        assert_eq!(loc.total(), 0);
    }

    #[test]
    fn merge_and_display() {
        let mut a = StealLocality::from_counts([1, 0, 0, 0]);
        let b = StealLocality::from_counts([0, 0, 2, 3]);
        a.merge(&b);
        assert_eq!(a.counts(), [1, 0, 2, 3]);
        assert_eq!(a.to_string(), "smt=1 llc=0 node=2 remote=3");
    }
}
