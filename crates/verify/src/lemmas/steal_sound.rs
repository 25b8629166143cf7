//! Steal soundness (§4.2): a steal whose filter holds behaves correctly.
//!
//! "(ii) during the stealing phase (third step), the idle core actually
//! steals threads from an overloaded core, and does not steal too much from
//! that overloaded core (i.e., in our load-balancing algorithm, the
//! overloaded core should not end up idle after the load-balancing
//! operation)."

use sched_core::{Balancer, LoadMetric};

use crate::counterexample::Counterexample;
use crate::enumerate::admitted_steals;
use crate::lemma::LemmaReport;
use crate::scope::Scope;

/// Checks, over every configuration in `scope` and every (thief, victim)
/// pair whose filter holds on the live state, that the stealing phase:
///
/// 1. succeeds (no spurious failure when the selection is not stale),
/// 2. migrates at least one thread onto the thief,
/// 3. never leaves the victim idle,
/// 4. conserves the total number of threads and their uniqueness.
pub fn check_steal_soundness(balancer: &Balancer, scope: &Scope) -> LemmaReport {
    let mut instances = 0u64;
    for (mut working, thief, victim) in admitted_steals(balancer.policy(), scope) {
        instances += 1;
        let loads = working.loads(LoadMetric::NrThreads);
        let total_before = working.total_threads();
        let thief_before = working.core(thief).nr_threads();
        let outcome = balancer.steal(&mut working, thief, victim, 1);

        let broken = if !outcome.is_success() {
            "a steal whose filter holds on the live state failed"
        } else if working.core(thief).nr_threads() <= thief_before {
            "a successful steal did not increase the thief's load"
        } else if working.core(victim).is_idle() {
            "the steal left the victim idle (stole too much)"
        } else if working.total_threads() != total_before || !working.tasks_are_unique() {
            "threads were lost or duplicated by the steal"
        } else {
            continue;
        };
        let ce = Counterexample::new(broken, loads)
            .step(format!("thief {thief}, victim {victim}"))
            .step(format!("outcome: {outcome:?}"))
            .step(format!("loads after: {}", working.load_vector_string(LoadMetric::NrThreads)));
        return LemmaReport::refuted("steal soundness (§4.2)", instances, ce);
    }
    LemmaReport::proved("steal soundness (§4.2)", instances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::prelude::*;

    #[test]
    fn simple_policy_is_steal_sound() {
        let balancer = Balancer::new(Policy::simple());
        let report = check_steal_soundness(&balancer, &Scope::small());
        assert!(report.is_proved(), "{report}");
        assert!(report.instances > 0);
    }

    #[test]
    fn weighted_policy_is_steal_sound() {
        let balancer = Balancer::new(Policy::weighted());
        let report = check_steal_soundness(&balancer, &Scope::small());
        assert!(report.is_proved(), "{report}");
    }

    #[test]
    fn greedy_policy_is_steal_sound_in_isolation() {
        // Greedy only targets overloaded victims, so an isolated steal is
        // still sound — the §4.3 problem is strictly about concurrency.
        let balancer = Balancer::new(Policy::greedy());
        let report = check_steal_soundness(&balancer, &Scope::small());
        assert!(report.is_proved(), "{report}");
    }

    #[test]
    fn threshold_one_filter_fails_steal_soundness() {
        // With threshold 1 an idle thief may target a victim running a
        // single thread; the victim has nothing in its runqueue, so the
        // "successful steal" obligation fails.
        let policy = Policy::new(
            LoadMetric::NrThreads,
            Box::new(DeltaFilter::new(LoadMetric::NrThreads, 1)),
            Box::new(MaxLoadChoice::new(LoadMetric::NrThreads)),
            StealRule::One,
        );
        let balancer = Balancer::new(policy);
        let report = check_steal_soundness(&balancer, &Scope::small());
        assert!(!report.is_proved());
    }
}
