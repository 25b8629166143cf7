//! Work conservation: the §3.2 definition and a convergence runner.
//!
//! "A scheduler is work-conserving iff there exists an integer N such that
//! after N load balancing rounds no core is idle while a core is
//! overloaded." (§3.2)
//!
//! [`is_work_conserving`] is that per-state predicate over a load sequence,
//! the one every altitude judges a state with.  [`converge`] runs rounds of
//! a concrete balancer under a concrete interleaving policy until the
//! system reaches a work-conserving state (or a round budget is
//! exhausted), reporting the `N` it found.  The exhaustive
//! quantification over initial states and interleavings — the actual proof
//! obligation — lives in `sched-verify`; this module provides the executable
//! core both the verifier and the simulator share.

use crate::balancer::Balancer;
use crate::outcome::RoundReport;
use crate::round::{ConcurrentRound, RoundSchedule};
use crate::system::SystemState;

/// "No core is idle while a core is overloaded" over one thread count per
/// core: `false` exactly when some core is at 0 while another is at 2 or
/// more — the per-state predicate of the §3.2 definition
/// (`idle(c'ᵢ) ⇒ ¬overloaded(c'ⱼ)`).  One pass, no allocation.
pub fn is_work_conserving(loads: impl IntoIterator<Item = u64>) -> bool {
    let (mut idle, mut overloaded) = (false, false);
    for load in loads {
        idle |= load == 0;
        overloaded |= load >= 2;
        if idle && overloaded {
            return false;
        }
    }
    true
}

/// The result of running load-balancing rounds until work conservation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergenceResult {
    /// Number of rounds needed to reach a work-conserving state: the `N` of
    /// the paper's definition.  `Some(0)` means the initial state was already
    /// work-conserving; `None` means the budget was exhausted first (which,
    /// for a correct policy, the verifier proves cannot happen).
    pub rounds: Option<usize>,
    /// Per-round reports, in execution order.
    pub reports: Vec<RoundReport>,
}

impl ConvergenceResult {
    /// Total number of successful steals across all executed rounds.
    pub fn total_successes(&self) -> usize {
        self.reports.iter().map(RoundReport::nr_successes).sum()
    }

    /// Total number of failed steal attempts across all executed rounds.
    pub fn total_failures(&self) -> usize {
        self.reports.iter().map(RoundReport::nr_failures).sum()
    }

    /// Total number of threads migrated across all executed rounds.
    pub fn total_migrations(&self) -> usize {
        self.reports.iter().map(RoundReport::nr_stolen).sum()
    }

    /// Returns `true` if the run reached a work-conserving state.
    pub fn converged(&self) -> bool {
        self.rounds.is_some()
    }
}

/// Runs load-balancing rounds on `system` until it is work-conserving.
///
/// The check is performed *before* each round, so a state that is already
/// work-conserving reports `rounds == Some(0)` without executing anything —
/// "it is perfectly acceptable for a core to become temporarily idle" (§1),
/// idleness without overload is not a violation.
///
/// At most `max_rounds` rounds are executed.  The schedule is re-derived per
/// round via [`RoundSchedule::for_round`], so seeded schedules race
/// differently every round.
pub fn converge(
    system: &mut SystemState,
    balancer: &Balancer,
    schedule: RoundSchedule,
    max_rounds: usize,
) -> ConvergenceResult {
    let executor = ConcurrentRound::new(balancer);
    let mut reports = Vec::new();
    for round in 0..=max_rounds {
        if system.is_work_conserving() {
            return ConvergenceResult { rounds: Some(round), reports };
        }
        if round == max_rounds {
            break;
        }
        let report = executor.execute(system, &schedule.for_round(round));
        reports.push(report);
    }
    let rounds = if system.is_work_conserving() { Some(max_rounds) } else { None };
    ConvergenceResult { rounds, reports }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LoadMetric;
    use crate::policy::Policy;

    #[test]
    fn already_balanced_systems_need_zero_rounds() {
        let mut system = SystemState::from_loads(&[1, 1, 1]);
        let balancer = Balancer::new(Policy::simple());
        let result = converge(&mut system, &balancer, RoundSchedule::Sequential, 10);
        assert_eq!(result.rounds, Some(0));
        assert_eq!(result.total_successes(), 0);
    }

    #[test]
    fn a_single_hot_core_converges() {
        let mut system = SystemState::from_loads(&[8, 0, 0, 0]);
        let balancer = Balancer::new(Policy::simple());
        let result = converge(&mut system, &balancer, RoundSchedule::Sequential, 32);
        assert!(result.converged(), "sequential rounds must converge");
        assert!(system.is_work_conserving());
        assert!(system.tasks_are_unique());
        assert_eq!(system.total_threads(), 8);
    }

    #[test]
    fn concurrent_rounds_with_failures_still_converge() {
        // Three idle cores all target the single overloaded core: only one
        // can win, the others' optimistic selections go stale and fail.
        let mut system = SystemState::from_loads(&[0, 0, 0, 2]);
        let balancer = Balancer::new(Policy::simple());
        let result = converge(&mut system, &balancer, RoundSchedule::AllSelectThenSteal, 64);
        assert!(result.converged());
        assert!(system.is_work_conserving());
        assert!(result.total_failures() > 0, "the maximally concurrent schedule should conflict");
        assert_eq!(result.total_successes(), 1);
    }

    #[test]
    fn seeded_rounds_converge_and_preserve_threads() {
        let mut system = SystemState::from_loads(&[0, 9, 0, 3, 0, 1]);
        let before = system.total_threads();
        let balancer = Balancer::new(Policy::simple());
        let result = converge(&mut system, &balancer, RoundSchedule::Seeded(1234), 64);
        assert!(result.converged());
        assert_eq!(system.total_threads(), before);
        assert!(system.tasks_are_unique());
    }

    #[test]
    fn budget_exhaustion_reports_none() {
        // A zero-round budget on a non-work-conserving state cannot converge.
        let mut system = SystemState::from_loads(&[0, 2]);
        let balancer = Balancer::new(Policy::simple());
        let result = converge(&mut system, &balancer, RoundSchedule::Sequential, 0);
        assert_eq!(result.rounds, None);
        assert!(!result.converged());
        assert!(result.reports.is_empty());
    }

    #[test]
    fn weighted_policy_also_converges() {
        let mut system = SystemState::from_loads(&[0, 6, 0, 2]);
        let balancer = Balancer::new(Policy::weighted());
        let result = converge(&mut system, &balancer, RoundSchedule::AllSelectThenSteal, 64);
        assert!(result.converged());
        assert!(system.is_work_conserving());
        assert_eq!(system.loads(LoadMetric::NrThreads).iter().sum::<u64>(), 8);
    }
}
