//! Step-3 sizing (§4.2, §4.3 P2): the one sizing every substrate runs.
//!
//! [`sched_core::StealRule::plan`] is what the model, the simulator, the
//! runqueues and the executor call to size a steal, so a lemma over it is a
//! lemma over all five: a steal takes at least one thread, never "too
//! much" (an overloaded victim keeps a thread), and half the imbalance
//! never inverts the pair it was sized against.

use sched_core::{CoreSnapshot, LoadMetric, Policy, StealRule, Weight};

use crate::counterexample::Counterexample;
use crate::enumerate::admitted_steals;
use crate::lemma::LemmaReport;
use crate::scope::Scope;

/// Checks, over every configuration in `scope` and every (thief, victim)
/// pair whose filter holds on the live state, that the count
/// `policy.steal.plan` sizes from their snapshots:
///
/// 1. is at least one,
/// 2. is at most the victim's waiting threads, minus the one that must stay
///    when nothing runs there (a snapshot cannot tell a running thread from
///    a waiting one, so both layouts of a load allow exactly `load − 1`),
///    and what [`sched_core::StealPlan::take`] takes of the same victim
///    with its running thread requeued leaves a waiting thread behind,
/// 3. for [`StealRule::HalfImbalance`], leaves `thief + n ≤ victim − n` in
///    the tracker base's unit (no inversion).
pub fn check_steal_sizing(policy: &Policy, scope: &Scope) -> LemmaReport {
    let unit = match policy.tracker.base() {
        LoadMetric::Weighted => Weight::NICE_0.raw(),
        _ => 1,
    };
    let mut instances = 0u64;
    for (state, thief, victim) in admitted_steals(policy, scope) {
        instances += 1;
        let (t, v) =
            (CoreSnapshot::capture(state.core(thief)), CoreSnapshot::capture(state.core(victim)));
        let plan = policy.steal.plan(policy, &t, &v);
        let n = plan.count;
        let live = state.core(victim);
        let spare = live.ready.len().saturating_sub(usize::from(live.current.is_none()));
        let waiting = live.ready.len() + usize::from(live.current.is_some());
        let (t_load, v_load) = (t.load(policy.metric), v.load(policy.metric));
        let broken = if n == 0 {
            "the rule sized a steal of nothing"
        } else if plan.take(waiting, false) >= waiting {
            "the steal empties a victim with nothing running"
        } else if n > spare {
            "the rule sized a steal that takes the victim's last thread"
        } else if policy.steal == StealRule::HalfImbalance && t_load + 2 * n as u64 * unit > v_load
        {
            "half the imbalance inverted the pair"
        } else {
            continue;
        };
        let ce = Counterexample::new(broken, state.loads(LoadMetric::NrThreads))
            .step(format!("thief {thief}, victim {victim}, rule {:?}", policy.steal))
            .step(format!(
                "n = {n} of {spare} spare; loads {t_load} vs {v_load}, {unit} per thread"
            ));
        return LemmaReport::refuted("steal sizing (§4.2, P2)", instances, ce);
    }
    LemmaReport::proved("steal sizing (§4.2, P2)", instances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::prelude::*;

    const RULES: [StealRule; 6] = [
        StealRule::One,
        StealRule::Lightest,
        StealRule::Fixed(1),
        StealRule::Fixed(2),
        StealRule::Fixed(4),
        StealRule::HalfImbalance,
    ];

    #[test]
    fn every_rule_sizes_soundly_under_the_listing1_filter() {
        for rule in RULES {
            let report = check_steal_sizing(&Policy::simple().with_steal(rule), &Scope::small());
            assert!(report.is_proved(), "{rule:?}: {report}");
            assert!(report.instances > 0);
        }
    }

    #[test]
    fn every_rule_sizes_soundly_under_the_weighted_filter() {
        for rule in RULES {
            let report = check_steal_sizing(&Policy::weighted().with_steal(rule), &Scope::small());
            assert!(report.is_proved(), "{rule:?}: {report}");
            assert!(report.instances > 0);
        }
    }

    #[test]
    fn a_filter_admitting_a_lone_running_thread_breaks_the_bound() {
        // Threshold 1 admits a victim whose one thread is running: the
        // count is still one, and there is nothing it may take.
        let policy = Policy::new(
            LoadMetric::NrThreads,
            Box::new(DeltaFilter::new(LoadMetric::NrThreads, 1)),
            Box::new(FirstChoice),
            StealRule::HalfImbalance,
        );
        let report = check_steal_sizing(&policy, &Scope::small());
        let ce = report.status.counterexample().expect("refuted");
        assert!(ce.summary.contains("last thread"), "{report}");
        // A batch keeps a lone waiting thread whatever the filter admits; a
        // one-thread steal relies on the filter for that, and this one
        // admits a victim whose lone thread waits with nothing running.
        let report = check_steal_sizing(&policy.with_steal(StealRule::One), &Scope::small());
        let ce = report.status.counterexample().expect("refuted");
        assert!(ce.summary.contains("nothing running"), "{report}");
    }

    #[test]
    fn half_the_imbalance_under_the_greedy_filter_inverts() {
        // Greedy admits an equally loaded victim: "half of nothing" is still
        // one thread, which inverts the pair — the §4.3 ping-pong in step 3.
        let report = check_steal_sizing(
            &Policy::greedy().with_steal(StealRule::HalfImbalance),
            &Scope::small(),
        );
        let ce = report.status.counterexample().expect("refuted");
        assert!(ce.summary.contains("inverted"), "{report}");
    }
}
