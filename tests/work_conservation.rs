//! Cross-crate integration tests: the paper's headline results, end to end.
//!
//! These tests exercise `sched-core` and `sched-verify` together exactly the
//! way the experiment harness does, pinning down the results recorded in
//! EXPERIMENTS.md.

use optimistic_sched::core::prelude::*;
use optimistic_sched::verify::{
    analyze_convergence, find_non_conserving_cycle, verify_policy, ChoiceStrategy, Scope,
};

#[test]
fn listing1_policy_is_fully_verified() {
    let balancer = Balancer::new(Policy::simple());
    let report = verify_policy(&balancer, &Scope::small(), false);
    assert!(report.is_work_conserving(), "{report}");
    assert_eq!(report.lemmas.len(), 5);
    assert!(report.lemmas.iter().all(|l| l.is_proved()));
}

#[test]
fn listing1_policy_survives_adversarial_choices() {
    // The paper's central simplification: nothing the choice step does can
    // break the proofs.  Quantify over every possible victim choice.
    let balancer = Balancer::new(Policy::simple());
    let analysis = analyze_convergence(&balancer, &Scope::small(), ChoiceStrategy::Adversarial)
        .expect("Listing 1 is work-conserving even with adversarial choices");
    assert!(analysis.max_rounds >= 1);
}

#[test]
fn the_papers_three_core_pingpong_is_found_verbatim() {
    // §4.3: "consider a three-core system where core 0 is idle, core 1 has
    // 1 thread and core 2 has 2 threads".
    let balancer = Balancer::new(Policy::greedy());
    let witness =
        find_non_conserving_cycle(&balancer, &Scope::small(), ChoiceStrategy::Adversarial)
            .expect("the greedy filter is not work-conserving");
    // The witness cycle must stay within three cores and keep core counts:
    // every state has an idle core and an overloaded core simultaneously.
    for state in &witness.cycle {
        assert!(state.contains(&0), "an idle core persists: {state:?}");
        assert!(state.iter().any(|&l| l >= 2), "an overloaded core persists: {state:?}");
    }
    // The classic instance [0, 1, 2] is reachable in scope; the witness's
    // initial state must be one of the enumerated non-conserving states.
    assert!(witness.initial_loads.contains(&0));
}

#[test]
fn weighted_policy_is_work_conserving_too() {
    let balancer = Balancer::new(Policy::weighted());
    let report = verify_policy(&balancer, &Scope::new(3, 4, 32), false);
    assert!(report.is_work_conserving(), "{report}");
}

#[test]
fn exhaustive_bound_matches_executed_rounds() {
    // The worst-case N computed by the exhaustive analysis is an upper bound
    // for any concrete run within the same scope.
    let balancer = Balancer::new(Policy::simple());
    let scope = Scope::new(3, 5, 32);
    let bound = analyze_convergence(&balancer, &scope, ChoiceStrategy::PolicyChoice)
        .expect("work conserving")
        .max_rounds;
    for loads in optimistic_sched::verify::configurations(&scope) {
        let mut system = SystemState::from_loads(&loads);
        let result = converge(&mut system, &balancer, RoundSchedule::AllSelectThenSteal, bound);
        assert!(
            result.converged(),
            "loads {loads:?} did not converge within the exhaustive bound {bound}"
        );
    }
}

#[test]
fn batched_stealing_preserves_every_lemma() {
    let policy = Policy::simple().with_steal(StealRule::HalfImbalance);
    let balancer = Balancer::new(policy);
    let report = verify_policy(&balancer, &Scope::small(), false);
    assert!(report.is_work_conserving(), "{report}");
}

#[test]
fn convergence_scales_to_hundreds_of_cores() {
    // Not exhaustive — a single large concrete instance, as in E8.
    let mut loads = vec![0usize; 256];
    loads[0] = 512;
    let mut system = SystemState::from_loads(&loads);
    let balancer = Balancer::new(Policy::simple());
    let result = converge(&mut system, &balancer, RoundSchedule::AllSelectThenSteal, 4096);
    assert!(result.converged());
    assert!(system.is_work_conserving());
    assert_eq!(system.total_threads(), 512);
    assert!(system.tasks_are_unique());
}
