//! End-to-end tests of the DSL: one policy source, two backends, and every
//! named recipe proven to be its stdlib text.

use optimistic_sched::core::prelude::*;
use optimistic_sched::dsl;
use optimistic_sched::verify::{lemmas, Scope};
use proptest::prelude::*;

/// Every stdlib policy through the phase checker and the verifier (e13):
/// only greedy's self-free filter draws a phase warning; listing1 and
/// weighted verify, while greedy (the §4.3 ping-pong) and batched (a fixed
/// two-thread steal can invert a pair two apart) are refuted.
#[test]
fn stdlib_listing1_verifies_and_greedy_does_not() {
    let verdicts: Vec<(&str, usize, bool)> = dsl::stdlib::all()
        .into_iter()
        .map(|(name, source)| {
            let verified = dsl::verify_source(source, &Scope::small()).unwrap();
            (name, verified.warnings.len(), verified.is_work_conserving())
        })
        .collect();
    assert_eq!(
        verdicts,
        [("listing1", 0, true), ("greedy", 1, false), ("weighted", 0, true), ("batched", 0, false)]
    );
}

/// Every named recipe the substrates run is its stdlib text (e13's
/// equivalence pin): compiled, the text is the spec, the constructor is the
/// implementation, and the two agree on the load view, the candidate list,
/// the chosen victim and the steal plan for every thief of every state of
/// the default scope.  Weighted trackers add every nice 0 / 19 assignment
/// (11 521 states, 41 731 selections against 322 / 1 148), and decayed ones
/// are warmed to their instantaneous loads.  Topology and NUMA choices stay
/// out: they carry state the DSL cannot express, and §3.1 makes the choice
/// irrelevant to the proof.
#[test]
fn every_named_policy_is_its_stdlib_definition() {
    let compiled = |source: &str| dsl::compile_source(source).unwrap().policy;
    let half = dsl::stdlib::LISTING1.replace("steal  = 1;", "steal  = half;");
    let cases = [
        ("listing1", compiled(dsl::stdlib::LISTING1), Policy::simple(), 322, 1_148),
        (
            "listing1, steal = half",
            compiled(&half),
            Policy::simple().with_steal(StealRule::HalfImbalance),
            322,
            1_148,
        ),
        ("greedy", compiled(dsl::stdlib::GREEDY), Policy::greedy(), 322, 1_148),
        ("weighted", compiled(dsl::stdlib::WEIGHTED), Policy::weighted(), 11_521, 41_731),
        ("pelt", compiled(dsl::stdlib::PELT), Policy::pelt(8_000_000), 322, 1_148),
        (
            "pelt_weighted",
            compiled(dsl::stdlib::PELT_WEIGHTED),
            Policy::pelt_weighted(8_000_000),
            11_521,
            41_731,
        ),
    ];
    let scope = Scope::default_scope();
    for (name, spec, imp, states, selections) in cases {
        let report = lemmas::check_equivalence(&spec, &imp, &scope);
        assert!(report.is_proved(), "{name}: {report}");
        let count = lemmas::equivalence_states(&spec, &scope).count();
        assert_eq!((count, report.instances), (states, selections), "{name}");
    }
}

#[test]
fn weighted_dsl_policy_verifies() {
    let verified = dsl::verify_source(dsl::stdlib::WEIGHTED, &Scope::new(3, 4, 32)).unwrap();
    assert!(verified.is_work_conserving(), "{}", verified.report);
}

proptest! {
    /// The DSL-compiled Listing 1 policy and the hand-written one agree on
    /// every step of every run, for random initial configurations and random
    /// interleavings.
    #[test]
    fn dsl_and_handwritten_listing1_are_behaviourally_identical(
        loads in prop::collection::vec(0usize..6, 2..16),
        seed in any::<u64>(),
    ) {
        let compiled = dsl::compile_source(dsl::stdlib::LISTING1).unwrap();
        let dsl_balancer = Balancer::new(compiled.policy);
        let rust_balancer = Balancer::new(Policy::simple());

        let mut via_dsl = SystemState::from_loads(&loads);
        let mut via_rust = via_dsl.clone();
        let budget = 8 * (via_dsl.total_threads() as usize + 1);
        let a = converge(&mut via_dsl, &dsl_balancer, RoundSchedule::Seeded(seed), budget);
        let b = converge(&mut via_rust, &rust_balancer, RoundSchedule::Seeded(seed), budget);

        prop_assert_eq!(a.rounds, b.rounds);
        prop_assert_eq!(a.total_successes(), b.total_successes());
        prop_assert_eq!(a.total_failures(), b.total_failures());
        prop_assert_eq!(
            via_dsl.loads(LoadMetric::NrThreads),
            via_rust.loads(LoadMetric::NrThreads)
        );
    }

    /// The DSL choose rule is a step-2 decision and therefore cannot affect
    /// convergence: `first`, `max` and `min` variants of Listing 1 all reach
    /// work conservation on random configurations.
    #[test]
    fn dsl_choose_rules_do_not_affect_convergence(
        which in 0usize..3,
        loads in prop::collection::vec(0usize..5, 2..10),
        seed in any::<u64>(),
    ) {
        let choose = match which {
            0 => "first",
            1 => "max victim.load",
            _ => "min victim.load",
        };
        let source = format!(
            "policy variant {{ metric threads; filter = victim.load - self.load >= 2; choose = {choose}; steal = 1; }}"
        );
        let compiled = dsl::compile_source(&source).unwrap();
        let balancer = Balancer::new(compiled.policy);
        let mut system = SystemState::from_loads(&loads);
        let budget = 8 * (system.total_threads() as usize + 1);
        let result = converge(&mut system, &balancer, RoundSchedule::Seeded(seed), budget);
        prop_assert!(result.converged());
        prop_assert!(system.is_work_conserving());
    }
}
