//! Step-3 sizing (§4.2, §4.3 P2): the one sizing every substrate runs.
//!
//! [`sched_core::StealRule::plan`] is what the model, the simulator, the
//! runqueues and the executor call to size a steal, so a lemma over it is a
//! lemma over all five: a steal takes at least one thread, never "too
//! much" (an overloaded victim keeps a thread), and half the imbalance
//! never inverts the pair it was sized against — for every contender count
//! `r`, and for a herd of `r` thieves that steal from one victim in turn.

use sched_core::{
    steal_step, CoreId, CoreSnapshot, LoadMetric, Policy, StealOutcome, StealRule, SystemSnapshot,
    SystemState, TaskId, Weight,
};

use crate::counterexample::Counterexample;
use crate::enumerate::{admitted_steals, states};
use crate::lemma::LemmaReport;
use crate::scope::Scope;

/// Checks, over every configuration in `scope`, every (thief, victim) pair
/// whose filter holds on the live state and every contender count `r` up
/// to the scope's core count, that the count `policy.steal.plan` sizes from
/// their snapshots:
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
        let (t, v) =
            (CoreSnapshot::capture(state.core(thief)), CoreSnapshot::capture(state.core(victim)));
        let live = state.core(victim);
        let spare = live.ready.len().saturating_sub(usize::from(live.current.is_none()));
        let waiting = live.ready.len() + usize::from(live.current.is_some());
        let (t_load, v_load) = (t.load(policy.metric), v.load(policy.metric));
        for r in 1..=scope.max_cores {
            instances += 1;
            let plan = policy.steal.plan(policy, &t, &v, r);
            let n = plan.count;
            let broken = if n == 0 {
                "the rule sized a steal of nothing"
            } else if plan.take(waiting, false) >= waiting {
                "the steal empties a victim with nothing running"
            } else if n > spare {
                "the rule sized a steal that takes the victim's last thread"
            } else if policy.steal == StealRule::HalfImbalance
                && t_load + 2 * n as u64 * unit > v_load
            {
                "half the imbalance inverted the pair"
            } else {
                continue;
            };
            let ce = Counterexample::new(broken, state.loads(LoadMetric::NrThreads))
                .step(format!("thief {thief}, victim {victim}, rule {:?}, r = {r}", policy.steal))
                .step(format!(
                    "n = {n} of {spare} spare; loads {t_load} vs {v_load}, {unit} per thread"
                ));
            return LemmaReport::refuted("steal sizing (§4.2, P2)", instances, ce);
        }
    }
    LemmaReport::proved("steal sizing (§4.2, P2)", instances)
}

/// What a contended steal is sized from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizing {
    /// The live thief and victim each steal meets: the step every round
    /// runs ([`steal_step`]).
    Live,
    /// The round's snapshot and its contender count, so a later thief
    /// sizes from a surplus earlier thieves already took.  Refuted for half
    /// the imbalance.
    Snapshot,
}

/// Checks, over every configuration in `scope` and every victim, that the
/// herd whose filter admits it on the round's snapshot, stealing from it in
/// turn in every order, never leaves a thief above the victim.  `r` reaches
/// the largest herd, the scope's cores less one.
/// One-thread rules and half the imbalance promise this under a sound
/// filter; a fixed batch does not.
pub fn check_contended_steals(policy: &Policy, scope: &Scope, sizing: Sizing) -> LemmaReport {
    const NAME: &str = "contended steal sizing (P2)";
    let mut instances = 0u64;
    for state in states(scope) {
        let round = SystemSnapshot::capture(&state);
        for victim in state.core_ids() {
            let herd: Vec<CoreId> = state
                .core_ids()
                .into_iter()
                .filter(|&t| {
                    t != victim && policy.filter.can_steal(round.core(t), round.core(victim))
                })
                .collect();
            for order in orders(&herd) {
                instances += 1;
                if let Err(ce) = steal_in_turn(policy, state.clone(), victim, &order, sizing) {
                    return LemmaReport::refuted(NAME, instances, ce);
                }
            }
        }
    }
    LemmaReport::proved(NAME, instances)
}

/// Every order of `cores`.
fn orders(cores: &[CoreId]) -> Vec<Vec<CoreId>> {
    cores.iter().fold(vec![Vec::new()], |orders, &core| {
        let insert = |order: &Vec<CoreId>, at| [&order[..at], &[core], &order[at..]].concat();
        orders.iter().flat_map(|order| (0..=order.len()).map(|at| insert(order, at))).collect()
    })
}

/// Lets `thieves` steal from `victim` in turn, each after a live re-check
/// of the filter, and returns the final state, or the steal that left its
/// thief above the victim.  Sized live, each steal is the step every round
/// runs, [`steal_step`], with the thieves not yet stolen as `r`; sized from
/// the snapshot, it takes the newest waiting threads the round's snapshot
/// and the whole herd's `r` size.
fn steal_in_turn(
    policy: &Policy,
    mut state: SystemState,
    victim: CoreId,
    thieves: &[CoreId],
    sizing: Sizing,
) -> Result<SystemState, Counterexample> {
    let round = SystemSnapshot::capture(&state);
    let live = |state: &SystemState, core| CoreSnapshot::capture(state.core(core));
    let mut ce = Counterexample::new(
        "a contended steal inverted the pair",
        state.loads(LoadMetric::NrThreads),
    );
    for (i, &thief) in thieves.iter().enumerate() {
        let r = if sizing == Sizing::Live { thieves.len() - i } else { thieves.len() };
        let take = match sizing {
            Sizing::Live => match steal_step(policy, &mut state, thief, victim, r).0 {
                StealOutcome::RecheckFailed { .. } => continue,
                outcome => outcome.nr_stolen(),
            },
            Sizing::Snapshot => {
                if !policy.filter.can_steal(&live(&state, thief), &live(&state, victim)) {
                    continue;
                }
                let plan = policy.steal.plan(policy, round.core(thief), round.core(victim), r);
                let queue = state.core(victim);
                let take = plan.take(queue.ready.len(), queue.current.is_some());
                let newest: Vec<TaskId> =
                    queue.ready.iter().rev().take(take).map(|t| t.id).collect();
                for id in newest {
                    state.migrate(victim, thief, id);
                }
                take
            }
        };
        let (t, v) =
            (live(&state, thief).load(policy.metric), live(&state, victim).load(policy.metric));
        ce = ce.step(format!("thief {thief} (r = {r}) takes {take}: {t} against the victim's {v}"));
        if t > v {
            return Err(ce);
        }
    }
    Ok(state)
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
    fn a_herd_sized_from_the_live_victim_never_inverts() {
        for policy in [Policy::simple as fn() -> Policy, Policy::weighted] {
            for rule in [StealRule::One, StealRule::Lightest, StealRule::HalfImbalance] {
                let policy = policy().with_steal(rule);
                for scope in [Scope::small(), Scope::default_scope(), Scope::new(3, 30, 1)] {
                    let report = check_contended_steals(&policy, &scope, Sizing::Live);
                    assert!(report.is_proved(), "{rule:?} in {scope}: {report}");
                }
            }
        }
    }

    #[test]
    fn a_herd_sized_from_the_snapshot_inverts() {
        // A victim at 20, thieves at 0 and 10, two contenders: the second
        // thief takes a third of the snapshot's surplus from a victim the
        // first already drained, and ends at 13 against 11.
        let half = Policy::simple().with_steal(StealRule::HalfImbalance);
        let state = SystemState::from_loads(&[20, 0, 10]);
        let herd = [CoreId(1), CoreId(2)];
        let ce = steal_in_turn(&half, state.clone(), CoreId(0), &herd, Sizing::Snapshot)
            .expect_err("the snapshot-sized share inverts");
        assert!(ce.trace.last().unwrap().ends_with("13 against the victim's 11"), "{ce:?}");
        // Sized from the live victim, the second thief takes 2 of 14.
        let end =
            steal_in_turn(&half, state, CoreId(0), &herd, Sizing::Live).expect("no inversion");
        assert_eq!(end.loads(LoadMetric::NrThreads), vec![12, 6, 12]);
        // The lemma finds such a herd on its own, in a scope the live
        // sizing passes.
        let report = check_contended_steals(&half, &Scope::new(3, 30, 1), Sizing::Snapshot);
        let ce = report.status.counterexample().expect("refuted");
        assert!(ce.summary.contains("inverted"), "{report}");
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
