//! Outcomes of balancing attempts and per-round reports.
//!
//! "Our scheduler model integrates potential failures of the load balancing
//! round operations" (§3.1).  Failure is therefore a first-class value here,
//! not an error: the verifier's P1 lemma (§4.3) is a statement *about*
//! [`StealOutcome`] values.

use crate::task::TaskId;
use crate::CoreId;

/// The result of one core's balancing attempt within a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StealOutcome {
    /// The stealing phase succeeded and migrated `tasks` from `victim`.
    Stole {
        /// The core threads were taken from.
        victim: CoreId,
        /// The migrated threads, in migration order.
        tasks: Vec<TaskId>,
    },
    /// The filter produced an empty candidate list; nothing was attempted.
    ///
    /// Not a failure: it is the normal outcome when no core is overloaded
    /// (or none is sufficiently more loaded than the thief).
    NoCandidates,
    /// The optimistic selection was stale: the filter no longer held when
    /// re-checked under the runqueue locks (Listing 1, line 12).
    ///
    /// This is the paper's *failed work-stealing attempt*.
    RecheckFailed {
        /// The victim chosen during the selection phase.
        victim: CoreId,
    },
    /// The filter still held but the steal policy selected no thread (e.g.
    /// every remaining thread of the victim is its running thread).
    NothingToSteal {
        /// The victim chosen during the selection phase.
        victim: CoreId,
    },
}

impl StealOutcome {
    /// Returns `true` if threads were migrated.
    pub fn is_success(&self) -> bool {
        matches!(self, StealOutcome::Stole { .. })
    }

    /// Returns `true` if a steal was *attempted* (a victim had been chosen)
    /// but nothing was migrated — the paper's notion of a failure.
    pub fn is_failure(&self) -> bool {
        matches!(self, StealOutcome::RecheckFailed { .. } | StealOutcome::NothingToSteal { .. })
    }

    /// The victim this attempt targeted, if a victim was chosen at all.
    pub fn victim(&self) -> Option<CoreId> {
        match self {
            StealOutcome::Stole { victim, .. }
            | StealOutcome::RecheckFailed { victim }
            | StealOutcome::NothingToSteal { victim } => Some(*victim),
            StealOutcome::NoCandidates => None,
        }
    }

    /// Number of threads migrated by this attempt.
    pub fn nr_stolen(&self) -> usize {
        match self {
            StealOutcome::Stole { tasks, .. } => tasks.len(),
            _ => 0,
        }
    }
}

/// One core's complete pass through the three steps of Figure 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalanceAttempt {
    /// The core that initiated the balancing (it may or may not be idle:
    /// "load balancing operations are performed simultaneously on all cores",
    /// §3.1).
    pub thief: CoreId,
    /// Logical time (index in the round's interleaving) of the selection
    /// phase, i.e. when the optimistic snapshot was taken.
    pub select_time: usize,
    /// Logical time of the stealing phase.
    pub steal_time: usize,
    /// Cores that passed the filter (step 1), in id order; empty when the
    /// round selected from a count index ([`crate::RoundState::busiest`]).
    pub candidates: Vec<CoreId>,
    /// Core chosen among the candidates (step 2), if any.
    pub chosen: Option<CoreId>,
    /// The count step 3 planned ([`crate::StealPlan::count`]); 0 when no
    /// plan was sized (no candidates, or a failed re-check).
    pub k: usize,
    /// What happened during the stealing phase (step 3).
    pub outcome: StealOutcome,
}

impl BalanceAttempt {
    /// Returns `true` if this attempt migrated at least one thread.
    pub fn is_success(&self) -> bool {
        self.outcome.is_success()
    }

    /// Returns `true` if this attempt chose a victim but failed to steal.
    pub fn is_failure(&self) -> bool {
        self.outcome.is_failure()
    }
}

/// Everything that happened during one load-balancing round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundReport {
    /// One entry per core that executed its balancing operation this round,
    /// ordered by stealing-phase time.
    pub attempts: Vec<BalanceAttempt>,
}

impl RoundReport {
    /// Attempts that migrated threads.
    pub fn successes(&self) -> impl Iterator<Item = &BalanceAttempt> {
        self.attempts.iter().filter(|a| a.is_success())
    }

    /// Attempts that chose a victim but migrated nothing.
    pub fn failures(&self) -> impl Iterator<Item = &BalanceAttempt> {
        self.attempts.iter().filter(|a| a.is_failure())
    }

    /// Number of successful attempts.
    pub fn nr_successes(&self) -> usize {
        self.successes().count()
    }

    /// Number of failed attempts.
    pub fn nr_failures(&self) -> usize {
        self.failures().count()
    }

    /// Total number of threads migrated during the round.
    pub fn nr_stolen(&self) -> usize {
        self.attempts.iter().map(|a| a.outcome.nr_stolen()).sum()
    }

    /// Returns `true` if no thread moved during the round.
    pub fn is_quiescent(&self) -> bool {
        self.nr_stolen() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attempt(thief: usize, outcome: StealOutcome) -> BalanceAttempt {
        BalanceAttempt {
            thief: CoreId(thief),
            select_time: 0,
            steal_time: 1,
            candidates: vec![],
            chosen: outcome.victim(),
            k: 0,
            outcome,
        }
    }

    #[test]
    fn outcome_classification() {
        let stole = StealOutcome::Stole { victim: CoreId(1), tasks: vec![TaskId(0)] };
        let none = StealOutcome::NoCandidates;
        let recheck = StealOutcome::RecheckFailed { victim: CoreId(1) };
        let empty = StealOutcome::NothingToSteal { victim: CoreId(1) };

        assert!(stole.is_success() && !stole.is_failure());
        assert!(!none.is_success() && !none.is_failure());
        assert!(!recheck.is_success() && recheck.is_failure());
        assert!(!empty.is_success() && empty.is_failure());

        assert_eq!(stole.nr_stolen(), 1);
        assert_eq!(recheck.nr_stolen(), 0);
        assert_eq!(none.victim(), None);
        assert_eq!(empty.victim(), Some(CoreId(1)));
    }

    #[test]
    fn round_report_counts() {
        let report = RoundReport {
            attempts: vec![
                attempt(0, StealOutcome::Stole { victim: CoreId(2), tasks: vec![TaskId(5)] }),
                attempt(1, StealOutcome::RecheckFailed { victim: CoreId(2) }),
                attempt(2, StealOutcome::NoCandidates),
            ],
        };
        assert_eq!(report.nr_successes(), 1);
        assert_eq!(report.nr_failures(), 1);
        assert_eq!(report.nr_stolen(), 1);
        assert!(!report.is_quiescent());
    }

    #[test]
    fn empty_round_is_quiescent() {
        assert!(RoundReport::default().is_quiescent());
    }
}
