//! Policy equivalence (§1: one DSL text compiled to both proof and code).
//!
//! The lemma suite checks whatever [`Policy`] it is handed, and the
//! substrates run the named recipes ([`Policy::simple`], …), so a verdict on
//! one spelling of a policy holds for another only if the two decide alike
//! wherever a substrate asks: in [`Policy::select`] and in
//! [`sched_core::StealRule::plan`], which every substrate calls.

use sched_core::{
    CoreId, CoreSnapshot, LoadMetric, Nice, Policy, SystemSnapshot, SystemState, Task, TaskId,
    TRACK_SCALE,
};

use crate::counterexample::Counterexample;
use crate::enumerate::configurations;
use crate::lemma::LemmaReport;
use crate::scope::Scope;

/// The states [`check_equivalence`] quantifies over for `spec`: every
/// configuration of `scope`, its threads given every assignment of `nice 0`
/// / `nice 19` when `spec`'s tracker counts weights, and each core's tracked
/// value warmed to its instantaneous load when the tracker decays (a cold
/// tracker reads zero everywhere, where no tracked filter fires).
pub fn equivalence_states(spec: &Policy, scope: &Scope) -> impl Iterator<Item = SystemState> {
    let base = spec.tracker.base();
    let decayed = spec.tracker.is_decayed();
    configurations(scope).into_iter().flat_map(move |loads| {
        let threads: usize = loads.iter().sum();
        let assignments = if base == LoadMetric::Weighted { 1u64 << threads } else { 1 };
        (0..assignments).map(move |niceness| {
            let mut state = SystemState::new(loads.len());
            let mut id = 0;
            for (core, &load) in loads.iter().enumerate() {
                let core = state.core_mut(CoreId(core));
                for _ in 0..load {
                    let nice = if (niceness >> id) & 1 == 1 { Nice::new(19) } else { Nice::NORMAL };
                    core.enqueue(Task::with_nice(TaskId(id), nice));
                    id += 1;
                }
                if decayed {
                    core.tracked.scaled = core.load(base) * TRACK_SCALE;
                }
            }
            state
        })
    })
}

/// Checks, for every state of [`equivalence_states`] and every thief (one
/// instance each), that `imp` balances `spec`'s metric through a tracker of
/// the same name, builds the same candidate list and chooses the same victim
/// in [`Policy::select`], and sizes the same step-3 plan against it.
pub fn check_equivalence(spec: &Policy, imp: &Policy, scope: &Scope) -> LemmaReport {
    const NAME: &str = "policy equivalence";
    let views = [(spec.metric, spec.tracker.name()), (imp.metric, imp.tracker.name())];
    let ids = |list: &[CoreSnapshot]| list.iter().map(|c| c.id.0).collect::<Vec<_>>();
    let (mut spec_candidates, mut imp_candidates) = (Vec::new(), Vec::new());
    let mut instances = 0u64;
    for state in equivalence_states(spec, scope) {
        let snapshot = SystemSnapshot::capture(&state);
        let all = || snapshot.cores().iter().copied();
        for thief in snapshot.cores() {
            instances += 1;
            let spec_victim = spec.select(thief, all(), &mut spec_candidates);
            let imp_victim = imp.select(thief, all(), &mut imp_candidates);
            let (step, spec_says, imp_says) = if views[0] != views[1] {
                ("the load view", format!("{:?}", views[0]), format!("{:?}", views[1]))
            } else if spec_candidates != imp_candidates {
                let (a, b) = (ids(&spec_candidates), ids(&imp_candidates));
                ("step 1, the candidate list", format!("{a:?}"), format!("{b:?}"))
            } else if spec_victim != imp_victim {
                let (a, b) = (spec_victim.map(|v| v.id.0), imp_victim.map(|v| v.id.0));
                ("step 2, the chosen victim", format!("{a:?}"), format!("{b:?}"))
            } else if let Some(victim) = spec_victim {
                let a = spec.steal.plan(spec, thief, &victim, 1);
                let b = imp.steal.plan(imp, thief, &victim, 1);
                if a == b {
                    continue;
                }
                ("step 3, the steal plan", format!("{a:?}"), format!("{b:?}"))
            } else {
                continue;
            };
            let ce = Counterexample::new(
                format!("the implementation departs from its spec at {step}"),
                state.loads(LoadMetric::NrThreads),
            )
            .step(format!(
                "thief core {}; weighted loads {:?}; tracked loads {:?}",
                thief.id.0,
                state.loads(LoadMetric::Weighted),
                state.loads(LoadMetric::Tracked)
            ))
            .step(format!("spec: {spec_says}"))
            .step(format!("implementation: {imp_says}"));
            return LemmaReport::refuted(NAME, instances, ce);
        }
    }
    LemmaReport::proved(NAME, instances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::prelude::*;

    fn refuted_at(spec: &Policy, imp: &Policy) -> String {
        let report = check_equivalence(spec, imp, &Scope::small());
        report.status.counterexample().expect("refuted").summary.clone()
    }

    #[test]
    fn a_recipe_is_equivalent_to_itself() {
        for policy in [Policy::simple(), Policy::weighted(), Policy::pelt(8_000_000)] {
            let report = check_equivalence(&policy, &policy, &Scope::small());
            assert!(report.is_proved(), "{report}");
        }
    }

    #[test]
    fn each_step_that_differs_is_named() {
        let simple = Policy::simple();
        let threshold3 = Policy::new(
            LoadMetric::NrThreads,
            Box::new(DeltaFilter::new(LoadMetric::NrThreads, 3)),
            Box::new(MaxLoadChoice::new(LoadMetric::NrThreads)),
            StealRule::One,
        );
        assert!(refuted_at(&simple, &threshold3).contains("step 1"));
        let first = Policy::simple().with_choice(Box::new(FirstChoice));
        assert!(refuted_at(&simple, &first).contains("step 2"));
        let lightest = Policy::simple().with_steal(StealRule::Lightest);
        assert!(refuted_at(&simple, &lightest).contains("step 3"));
        assert!(refuted_at(&simple, &Policy::weighted()).contains("load view"));
    }

    #[test]
    fn the_variants_reach_weights_and_warm_trackers() {
        let scope = Scope::new(2, 2, 8);
        // (0,0) (0,1) (1,0) (0,2) (1,1) (2,0): 1 + 2 + 2 + 4 + 4 + 4 nice
        // assignments for a weighted tracker.
        assert_eq!(equivalence_states(&Policy::simple(), &scope).count(), 6);
        assert_eq!(equivalence_states(&Policy::weighted(), &scope).count(), 17);
        let warm = equivalence_states(&Policy::pelt(8_000_000), &scope).last().unwrap();
        assert_eq!(warm.loads(LoadMetric::Tracked), [2, 0]);
        // Cold trackers read zero everywhere, where thresholds 2 and 3 agree;
        // warm ones tell them apart.
        let pelt3 = Policy::with_tracker(
            Policy::pelt(8_000_000).tracker,
            Box::new(DeltaFilter::new(LoadMetric::Tracked, 3)),
            Box::new(MaxLoadChoice::new(LoadMetric::Tracked)),
            StealRule::One,
        );
        assert!(refuted_at(&Policy::pelt(8_000_000), &pelt3).contains("step 1"));
    }
}
