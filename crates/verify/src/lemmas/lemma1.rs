//! Lemma 1 (Listing 2): an idle core wants to steal from an overloaded core.
//!
//! ```text
//! require(thief.ready.size == 0 && !thief.current.isDefined)   // thief idle
//! ( cores.exists(isOverloaded)  ==> cores.exists(thief.canSteal) ) &&
//! ( cores.forall(c => thief.canSteal(c) ==> isOverloaded(c)) )
//! ```
//!
//! The first conjunct is *completeness* (an idle thief never filters out
//! every overloaded core), the second is *soundness* (it only ever targets
//! overloaded cores — which is what guarantees a successful steal cannot
//! empty its victim).

use sched_core::{Balancer, SystemSnapshot};

use crate::counterexample::Counterexample;
use crate::enumerate::states;
use crate::lemma::LemmaReport;
use crate::scope::Scope;

/// Checks Lemma 1 for the balancer's filter over every configuration in
/// `scope` and every idle thief in each configuration.
pub fn check_lemma1(balancer: &Balancer, scope: &Scope) -> LemmaReport {
    let mut instances = 0u64;
    for state in states(scope) {
        let snapshot = SystemSnapshot::capture(&state);
        let any_overloaded = !state.overloaded_cores().is_empty();
        for thief in state.idle_cores() {
            instances += 1;
            let thief_snap = *snapshot.core(thief);
            let candidates: Vec<_> = snapshot
                .others(thief)
                .into_iter()
                .filter(|victim| balancer.policy().filter.can_steal(&thief_snap, victim))
                .collect();

            // Completeness: an overloaded core exists ⇒ the filter keeps at
            // least one candidate.
            if any_overloaded && candidates.is_empty() {
                let ce = Counterexample::new(
                    "idle thief filtered out every core although an overloaded core exists",
                    state.loads(sched_core::LoadMetric::NrThreads),
                )
                .step(format!("thief {thief} is idle"))
                .step(format!(
                    "overloaded cores: {:?}",
                    state.overloaded_cores().iter().map(|c| c.0).collect::<Vec<_>>()
                ))
                .step(format!("filter `{}` kept no candidate", balancer.policy().filter.name()));
                return LemmaReport::refuted("lemma1 (Listing 2)", instances, ce);
            }

            // Soundness: every kept candidate is overloaded.
            for candidate in &candidates {
                if !state.core(candidate.id).is_overloaded() {
                    let ce = Counterexample::new(
                        "idle thief may steal from a core that is not overloaded",
                        state.loads(sched_core::LoadMetric::NrThreads),
                    )
                    .step(format!("thief {thief} is idle"))
                    .step(format!(
                        "filter `{}` accepted victim {} with only {} thread(s)",
                        balancer.policy().filter.name(),
                        candidate.id,
                        state.core(candidate.id).nr_threads()
                    ));
                    return LemmaReport::refuted("lemma1 (Listing 2)", instances, ce);
                }
            }
        }
    }
    LemmaReport::proved("lemma1 (Listing 2)", instances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::prelude::*;

    #[test]
    fn listing1_filter_satisfies_lemma1() {
        let balancer = Balancer::new(Policy::simple());
        let report = check_lemma1(&balancer, &Scope::small());
        assert!(report.is_proved(), "{report}");
        assert!(report.instances > 0);
    }

    #[test]
    fn greedy_filter_also_satisfies_lemma1() {
        // The §4.3 filter is sound sequentially — its flaw only appears with
        // concurrency, which is what makes the counterexample interesting.
        let balancer = Balancer::new(Policy::greedy());
        let report = check_lemma1(&balancer, &Scope::small());
        assert!(report.is_proved(), "{report}");
    }

    #[test]
    fn weighted_filter_satisfies_lemma1() {
        let balancer = Balancer::new(Policy::weighted());
        let report = check_lemma1(&balancer, &Scope::small());
        assert!(report.is_proved(), "{report}");
    }

    #[test]
    fn a_broken_filter_is_refuted_with_a_counterexample() {
        // A filter with threshold 1 violates soundness: an idle thief may
        // target a core with a single thread, whose steal would empty it.
        let policy = Policy::new(
            LoadMetric::NrThreads,
            Box::new(DeltaFilter::new(LoadMetric::NrThreads, 1)),
            Box::new(MaxLoadChoice::new(LoadMetric::NrThreads)),
            StealRule::One,
        );
        let balancer = Balancer::new(policy);
        let report = check_lemma1(&balancer, &Scope::small());
        assert!(!report.is_proved());
        let ce = report.status.counterexample().unwrap();
        assert!(ce.summary.contains("not overloaded"));
    }

    #[test]
    fn node_restricted_filter_violates_completeness() {
        // Restricting the filter to same-node victims breaks the
        // completeness half of Lemma 1 as soon as nodes differ…  but within
        // a single-node enumeration (all cores on node 0) it still holds, so
        // this test builds a two-node state by hand via the refutation path
        // of the full convergence checker instead.  Here we only assert the
        // single-node enumeration result for documentation purposes.
        let policy = Policy::new(
            LoadMetric::NrThreads,
            Box::new(NodeRestrictedFilter::new(DeltaFilter::listing1())),
            Box::new(MaxLoadChoice::new(LoadMetric::NrThreads)),
            StealRule::One,
        );
        let balancer = Balancer::new(policy);
        let report = check_lemma1(&balancer, &Scope::small());
        assert!(report.is_proved(), "on a single node the restriction is invisible");
    }
}
