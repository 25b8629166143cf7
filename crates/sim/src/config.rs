//! Simulation configuration.

use crate::event::OrderingPolicy;

/// Static parameters of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of simulated cores (ignored when a topology is supplied).
    pub nr_cores: usize,
    /// Preemption timeslice, in nanoseconds (round-robin within a core).
    pub timeslice_ns: u64,
    /// Load-balancing period, in nanoseconds.
    ///
    /// The paper notes that "in CFS, load balancing operations are performed
    /// simultaneously on all cores every 4ms" (§3.1); the default matches.
    pub balance_period_ns: u64,
    /// Hard simulation horizon, in nanoseconds; runs that do not finish by
    /// then are truncated (and reported as unfinished).
    pub horizon_ns: u64,
    /// Tie-break policy among simultaneous events.
    ///
    /// [`OrderingPolicy::Priority`] is the default: under it the tick engine
    /// and the event engine agree tie-for-tie.
    /// [`OrderingPolicy::Seeded`] is the verification mode.
    pub ordering: OrderingPolicy,
    /// Optional hard cap on processed events; runs hitting the cap stop and
    /// are reported as unfinished. `None` means unbounded.
    pub event_budget: Option<u64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nr_cores: 8,
            timeslice_ns: 1_000_000,
            balance_period_ns: 4_000_000,
            horizon_ns: 30_000_000_000,
            ordering: OrderingPolicy::Priority,
            event_budget: None,
        }
    }
}

impl SimConfig {
    /// Creates the default configuration with `nr_cores` cores.
    pub fn with_cores(nr_cores: usize) -> Self {
        SimConfig { nr_cores, ..Default::default() }
    }

    /// Overrides the preemption timeslice.
    pub fn timeslice(mut self, ns: u64) -> Self {
        assert!(ns > 0, "the timeslice must be positive");
        self.timeslice_ns = ns;
        self
    }

    /// Overrides the horizon.
    pub fn horizon(mut self, ns: u64) -> Self {
        self.horizon_ns = ns;
        self
    }

    /// Overrides the same-time event ordering policy.
    pub fn with_ordering(mut self, ordering: OrderingPolicy) -> Self {
        self.ordering = ordering;
        self
    }

    /// Caps the number of processed events.
    pub fn with_event_budget(mut self, events: u64) -> Self {
        self.event_budget = Some(events);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_cfs_period() {
        let c = SimConfig::default();
        assert_eq!(c.balance_period_ns, 4_000_000);
        assert!(c.timeslice_ns <= c.balance_period_ns);
        assert_eq!(c.ordering, OrderingPolicy::Priority);
        assert_eq!(c.event_budget, None);
    }

    #[test]
    fn builders_override_fields() {
        let c = SimConfig { balance_period_ns: 8_000_000, ..SimConfig::with_cores(64) }
            .timeslice(500_000)
            .horizon(1)
            .with_ordering(OrderingPolicy::Seeded(9))
            .with_event_budget(100);
        assert_eq!(c.nr_cores, 64);
        assert_eq!(c.balance_period_ns, 8_000_000);
        assert_eq!(c.timeslice_ns, 500_000);
        assert_eq!(c.horizon_ns, 1);
        assert_eq!(c.ordering, OrderingPolicy::Seeded(9));
        assert_eq!(c.event_budget, Some(100));
    }
}
