//! Idle-time accounting: separating benign from violating idleness.
//!
//! "It is perfectly acceptable for a core to become temporarily idle (e.g.,
//! after an application exits).  Temporary idleness must therefore not be
//! treated as a violation of the work-conserving property." (§1)
//!
//! The accounting therefore splits idle time into two buckets: idle time
//! while *no* core is overloaded (benign — there is simply not enough work)
//! and idle time while *some* core is overloaded (a work-conservation
//! violation in the ideal sense; a correct optimistic scheduler keeps it
//! bounded instead of zero).
//!
//! This is the one measure of the invariant.  The simulator charges it in
//! simulated nanoseconds over its run; the model and runqueue round drivers
//! charge one unit per core per round over a horizon fixed per scenario
//! (a replay's round budget, a burst's epochs, a storm's epochs × rounds),
//! so a run that converges sooner reads less.

/// Per-core accumulation of busy, benign-idle and violating-idle time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdleAccounting {
    busy: Vec<u64>,
    idle_benign: Vec<u64>,
    idle_violating: Vec<u64>,
}

impl IdleAccounting {
    /// Creates accounting for `nr_cores` cores.
    pub fn new(nr_cores: usize) -> Self {
        IdleAccounting {
            busy: vec![0; nr_cores],
            idle_benign: vec![0; nr_cores],
            idle_violating: vec![0; nr_cores],
        }
    }

    /// Number of cores tracked.
    pub fn nr_cores(&self) -> usize {
        self.busy.len()
    }

    /// Accounts `duration` time units for `core`.
    ///
    /// `idle` says whether the core was idle over that span; `any_overloaded`
    /// says whether any core of the machine was overloaded over that span.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn account(&mut self, core: usize, duration: u64, idle: bool, any_overloaded: bool) {
        if !idle {
            self.busy[core] += duration;
        } else if any_overloaded {
            self.idle_violating[core] += duration;
        } else {
            self.idle_benign[core] += duration;
        }
    }

    /// Total busy time across all cores.
    pub fn total_busy(&self) -> u64 {
        self.busy.iter().sum()
    }

    /// Total benign idle time across all cores.
    pub fn total_idle_benign(&self) -> u64 {
        self.idle_benign.iter().sum()
    }

    /// Total violating idle time (idle while some core was overloaded).
    pub fn total_idle_violating(&self) -> u64 {
        self.idle_violating.iter().sum()
    }

    /// Fraction of total core-time that was violating idle time, in `[0, 1]`.
    pub fn violation_fraction(&self) -> f64 {
        let total = self.total_busy() + self.total_idle_benign() + self.total_idle_violating();
        if total == 0 {
            0.0
        } else {
            self.total_idle_violating() as f64 / total as f64
        }
    }

    /// Violating-idle fraction of a subset of cores (e.g. one NUMA node),
    /// in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if any index in `cores` is out of range.
    pub fn violation_fraction_of(&self, cores: &[usize]) -> f64 {
        let mut violating = 0u64;
        let mut total = 0u64;
        for &core in cores {
            violating += self.idle_violating[core];
            total += self.busy[core] + self.idle_benign[core] + self.idle_violating[core];
        }
        if total == 0 {
            0.0
        } else {
            violating as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounts_into_three_buckets() {
        let mut acc = IdleAccounting::new(2);
        acc.account(0, 10, false, false);
        acc.account(1, 10, true, false);
        acc.account(1, 5, true, true);
        assert_eq!(acc.total_busy(), 10);
        assert_eq!(acc.total_idle_benign(), 10);
        assert_eq!(acc.total_idle_violating(), 5);
        assert_eq!(acc.busy[0], 10);
        assert_eq!(acc.idle_violating[1], 5);
    }

    #[test]
    fn violation_fraction_and_utilization() {
        let mut acc = IdleAccounting::new(1);
        acc.account(0, 75, false, true);
        acc.account(0, 25, true, true);
        assert!((acc.violation_fraction() - 0.25).abs() < 1e-9);
        assert_eq!(acc.total_busy(), 75);
    }

    #[test]
    fn per_node_violation_breakdown() {
        let mut acc = IdleAccounting::new(4);
        // "Node 0" = cores 0,1 busy; "node 1" = cores 2,3 violating-idle.
        acc.account(0, 10, false, true);
        acc.account(1, 10, false, true);
        acc.account(2, 10, true, true);
        acc.account(3, 10, true, true);
        assert_eq!(acc.violation_fraction_of(&[0, 1]), 0.0);
        assert_eq!(acc.violation_fraction_of(&[2, 3]), 1.0);
        assert!((acc.violation_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(acc.violation_fraction_of(&[]), 0.0);
    }

    #[test]
    fn empty_accounting_is_zero() {
        let acc = IdleAccounting::new(4);
        assert_eq!(acc.nr_cores(), 4);
        assert_eq!(acc.violation_fraction(), 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_core_panics() {
        let mut acc = IdleAccounting::new(1);
        acc.account(3, 1, true, true);
    }
}
