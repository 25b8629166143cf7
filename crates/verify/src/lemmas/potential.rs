//! Property P2 (§4.3): the potential decreases on every successful steal.
//!
//! "We show that the absolute 'load difference' between cores […] decreases
//! with every successful stealing attempt. […] because d ≥ 0, the number of
//! successful work-stealing operations is bounded."

use sched_core::{potential, Balancer, LoadMetric, StealOutcome};

use crate::counterexample::Counterexample;
use crate::enumerate::admitted_steals;
use crate::lemma::LemmaReport;
use crate::scope::Scope;

/// Checks, over every configuration in `scope` and every (thief, victim)
/// pair whose filter holds on the live state, that executing the stealing
/// phase strictly decreases the potential `d` under the policy's metric.
pub fn check_potential_decreases(balancer: &Balancer, scope: &Scope) -> LemmaReport {
    let metric = balancer.policy().metric;
    let mut instances = 0u64;
    for (mut working, thief, victim) in admitted_steals(balancer.policy(), scope) {
        instances += 1;
        let loads = working.loads(LoadMetric::NrThreads);
        let before = potential(&working, metric);
        let outcome = balancer.steal(&mut working, thief, victim, 1);
        if !matches!(outcome, StealOutcome::Stole { .. }) {
            // Soundness violations are reported by the steal soundness
            // lemma; the potential lemma only constrains successful steals.
            continue;
        }
        let after = potential(&working, metric);
        if after >= before {
            let ce = Counterexample::new(
                "a successful steal did not strictly decrease the potential d",
                loads,
            )
            .step(format!("thief {thief}, victim {victim}, metric {metric}"))
            .step(format!("d before = {before}, d after = {after}"))
            .step(format!("loads after: {}", working.load_vector_string(LoadMetric::NrThreads)));
            return LemmaReport::refuted("potential decrease (§4.3, P2)", instances, ce);
        }
    }
    LemmaReport::proved("potential decrease (§4.3, P2)", instances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::prelude::*;

    #[test]
    fn simple_policy_decreases_the_potential() {
        let balancer = Balancer::new(Policy::simple());
        let report = check_potential_decreases(&balancer, &Scope::small());
        assert!(report.is_proved(), "{report}");
        assert!(report.instances > 0);
    }

    #[test]
    fn weighted_policy_decreases_the_weighted_potential() {
        let balancer = Balancer::new(Policy::weighted());
        let report = check_potential_decreases(&balancer, &Scope::small());
        assert!(report.is_proved(), "{report}");
    }

    #[test]
    fn greedy_policy_violates_the_potential_lemma() {
        // The greedy filter lets a core with load L steal from a core with
        // load L+1 (both ≥ 2 threads on the victim): the move only inverts
        // the imbalance and d does not decrease.  This is the formal root of
        // the ping-pong.
        let balancer = Balancer::new(Policy::greedy());
        let report = check_potential_decreases(&balancer, &Scope::small());
        assert!(!report.is_proved(), "{report}");
        let ce = report.status.counterexample().unwrap();
        assert!(ce.summary.contains("did not strictly decrease"));
    }

    #[test]
    fn steal_half_also_decreases_the_potential() {
        let policy = Policy::simple().with_steal(StealRule::HalfImbalance);
        let balancer = Balancer::new(policy);
        let report = check_potential_decreases(&balancer, &Scope::small());
        assert!(report.is_proved(), "{report}");
    }
}
