//! Indexed selection: a proven property of the policy licenses a faster
//! substrate.
//!
//! A filter that claims a count threshold δ
//! ([`sched_core::FilterPolicy::count_threshold`]) and a choice that claims
//! the most threads ([`sched_core::ChoicePolicy::picks_most_threads`]) say
//! together that [`Policy::select`] answers every thief with the first core
//! of the highest thread count, if that count is at least the thief's plus
//! δ, and with nothing otherwise ([`Policy::index_threshold`]).  That answer
//! can be read off an index of the cores by count, as the one round driver
//! does on the simulator's runqueues, with no filter call per pair.  This lemma is what
//! makes a claim more than a promise: it compares the indexed answer with
//! the scanned one on every state and thief of the scope.
//!
//! The claimants are the types with a claim method that says yes,
//! [`CLAIMANTS`]; CI's "Every index claim is proven" lint fails on a claim
//! implemented on any other type outside tests.

use sched_core::{CoreSnapshot, LoadMetric, Policy, SystemSnapshot};

use crate::counterexample::Counterexample;
use crate::lemma::LemmaReport;
use crate::lemmas::equivalence::equivalence_states;
use crate::scope::Scope;

/// Every type that implements an index claim outside tests.  Each one's
/// claim is proven by [`check_indexed_select`] in a policy where it claims
/// (`tests/work_conservation.rs` pins the instance counts).
pub const CLAIMANTS: [&str; 3] = ["DeltaFilter", "MaxLoadChoice", "TopologyAwareChoice"];

/// The indexed answer for `thief` among `cores`: the lowest-id core of the
/// highest thread count, if that count is at least the thief's plus
/// `delta`.  The thief itself is never the answer, as `delta > 0`.
fn indexed_victim(
    thief: &CoreSnapshot,
    cores: &[CoreSnapshot],
    delta: u64,
) -> Option<CoreSnapshot> {
    let top = cores.iter().map(|c| c.nr_threads).max()?;
    cores
        .iter()
        .filter(|c| c.nr_threads == top)
        .min_by_key(|c| c.id)
        .filter(|_| top >= thief.nr_threads + delta)
        .copied()
}

/// Checks, for every state of [`equivalence_states`] and every thief (one
/// instance each), that the indexed answer of `policy`'s claimed δ is the
/// victim [`Policy::select`] returns.  `None` when `policy`'s steps do not
/// both claim: such a policy is never selected by index, so there is
/// nothing to prove.
pub fn check_indexed_select(policy: &Policy, scope: &Scope) -> Option<LemmaReport> {
    const NAME: &str = "indexed select";
    let delta = policy.index_threshold()?;
    let mut candidates = Vec::new();
    let mut instances = 0u64;
    for state in equivalence_states(policy, scope) {
        let snapshot = SystemSnapshot::capture(&state);
        let cores = snapshot.cores();
        for thief in cores {
            instances += 1;
            let scanned = policy.select(thief, cores.iter().copied(), &mut candidates);
            let indexed = indexed_victim(thief, cores, delta);
            if scanned == indexed {
                continue;
            }
            let ce = Counterexample::new(
                format!("the index claim (δ = {delta}) departs from Policy::select"),
                state.loads(LoadMetric::NrThreads),
            )
            .step(format!(
                "thief core {}; weighted loads {:?}",
                thief.id.0,
                state.loads(LoadMetric::Weighted)
            ))
            .step(format!("index: {:?}", indexed.map(|v| v.id.0)))
            .step(format!("select: {:?}", scanned.map(|v| v.id.0)));
            return Some(LemmaReport::refuted(NAME, instances, ce));
        }
    }
    Some(LemmaReport::proved(NAME, instances))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::prelude::*;

    #[test]
    fn listing1_is_proven_and_a_policy_without_both_claims_has_nothing_to_prove() {
        let report = check_indexed_select(&Policy::simple(), &Scope::small()).expect("claims");
        assert!(report.is_proved(), "{report}");
        assert!(report.instances > 0);
        for policy in [Policy::greedy(), Policy::weighted(), Policy::pelt(8_000_000)] {
            assert_eq!(check_indexed_select(&policy, &Scope::small()), None);
        }
    }

    #[test]
    fn the_indexed_answer_is_the_first_core_of_the_top_count() {
        let snapshot = SystemSnapshot::capture(&SystemState::from_loads(&[1, 4, 0, 4]));
        let cores = snapshot.cores();
        let id = |thief: usize, delta| indexed_victim(&cores[thief], cores, delta).map(|v| v.id.0);
        assert_eq!(id(2, 2), Some(1));
        assert_eq!(id(0, 3), Some(1));
        assert_eq!(id(0, 4), None, "4 < 1 + 4");
        assert_eq!(id(3, 1), None, "the top core never picks itself or its equals");
    }
}
