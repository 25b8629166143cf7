//! Property P1 (§4.3): a failure implies a concurrent success.
//!
//! "First, if a work-stealing attempt fails, it is because another
//! work-stealing attempt performed by another core succeeded […] failed
//! work-stealing attempts only happen when a core that was marked as
//! stealable during the selection phase is no longer stealable during the
//! stealing phase; […] the only lines of code that modify the state of the
//! runqueues are in the stealCore function that migrates threads."
//!
//! The check enumerates every configuration in scope and every interleaving
//! of one concurrent round, executes the round, and for every failed attempt
//! verifies that some *other* core's successful steal landed between the
//! failed attempt's selection and stealing phases and touched one of the two
//! runqueues the failed attempt depends on.

use sched_core::{Balancer, ConcurrentRound, RoundSchedule};

use crate::counterexample::Counterexample;
use crate::enumerate::configurations;
use crate::interleave::all_interleavings;
use crate::lemma::LemmaReport;
use crate::scope::Scope;

/// Checks property P1 over every configuration and round interleaving in
/// `scope`.
///
/// # Panics
///
/// Panics if `scope.max_cores > 6`: the interleaving enumeration refuses
/// larger rounds, which only seeded schedules
/// ([`sched_core::RoundSchedule::Seeded`]) sample.
pub fn check_failure_implies_concurrent_success(balancer: &Balancer, scope: &Scope) -> LemmaReport {
    let executor = ConcurrentRound::new(balancer);
    let mut instances = 0u64;
    for loads in configurations(scope) {
        let nr_cores = loads.len();
        for steps in all_interleavings(nr_cores) {
            instances += 1;
            let mut system = sched_core::SystemState::from_loads(&loads);
            let report = executor.execute_steps(&mut system, &steps);
            for failed in report.failures() {
                let victim =
                    failed.outcome.victim().expect("a failed attempt always has a chosen victim");
                let explained = report.successes().any(|s| {
                    s.thief != failed.thief
                        && s.steal_time > failed.select_time
                        && s.steal_time < failed.steal_time
                        && (s.outcome.victim() == Some(victim)
                            || s.outcome.victim() == Some(failed.thief)
                            || s.thief == victim)
                });
                if !explained {
                    let ce = Counterexample::new(
                        "a stealing attempt failed without any concurrent successful steal explaining it",
                        loads.iter().map(|&l| l as u64).collect(),
                    )
                    .step(format!(
                        "failed thief {} (selected at t={}, stole at t={}), victim {}",
                        failed.thief, failed.select_time, failed.steal_time, victim
                    ))
                    .step(format!("round outcome: {:?}", failed.outcome))
                    .step(format!(
                        "successes this round: {:?}",
                        report
                            .successes()
                            .map(|s| (s.thief.0, s.outcome.victim().map(|v| v.0), s.steal_time))
                            .collect::<Vec<_>>()
                    ));
                    return LemmaReport::refuted(
                        "failure implies concurrent success (§4.3, P1)",
                        instances,
                        ce,
                    );
                }
            }
        }
    }
    let _ = RoundSchedule::Sequential; // (kept for the doc link; sequential rounds never fail)
    LemmaReport::proved("failure implies concurrent success (§4.3, P1)", instances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::prelude::*;

    #[test]
    fn simple_policy_satisfies_p1() {
        let balancer = Balancer::new(Policy::simple());
        let report = check_failure_implies_concurrent_success(&balancer, &Scope::small());
        assert!(report.is_proved(), "{report}");
        assert!(report.instances > 1000, "the interleaving space should be non-trivial");
    }

    #[test]
    fn greedy_policy_also_satisfies_p1() {
        // P1 holds even for the greedy filter: its failures are always
        // caused by concurrent successes.  What greedy lacks is P2
        // (bounded successes), which is checked elsewhere.
        let balancer = Balancer::new(Policy::greedy());
        let report = check_failure_implies_concurrent_success(&balancer, &Scope::small());
        assert!(report.is_proved(), "{report}");
    }

    #[test]
    fn weighted_policy_satisfies_p1() {
        let balancer = Balancer::new(Policy::weighted());
        let report = check_failure_implies_concurrent_success(&balancer, &Scope::new(3, 4, 16));
        assert!(report.is_proved(), "{report}");
    }

    #[test]
    fn first_choice_satisfies_p1_too() {
        let balancer = Balancer::new(Policy::simple().with_choice(Box::new(FirstChoice)));
        let report = check_failure_implies_concurrent_success(&balancer, &Scope::small());
        assert!(report.is_proved(), "{report}");
    }
}
