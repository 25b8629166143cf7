//! Cross-crate integration tests: the paper's headline results, end to end.
//!
//! These tests exercise `sched-core` and `sched-verify` together exactly the
//! way the experiment harness does, and pin the lemma verdicts and model
//! sweeps of the per-experiment index (README § The unified experiment
//! runner): e1, e3, e4, e6 and e7's lemmas, e2, e7 and e8's model runs —
//! and the index claims the simulator's balance pass selects by.

use std::sync::Arc;

use optimistic_sched::core::prelude::*;
use optimistic_sched::topology::TopologyBuilder;
use optimistic_sched::verify::{
    analyze_convergence, find_non_conserving_cycle, lemmas, verify_policy, ChoiceStrategy,
    LemmaReport, Scope,
};
use optimistic_sched::workloads::{ImbalancePattern, StaticImbalance};

/// The choice policies e1 swaps into Listing 1's step 2, on the
/// dual-socket machine; the last is the one every substrate runs.
fn choice_variants() -> Vec<(&'static str, Policy)> {
    let topo = Arc::new(TopologyBuilder::new().sockets(2).cores_per_socket(8).build());
    let metric = LoadMetric::NrThreads;
    vec![
        ("first", Policy::simple().with_choice(Box::new(FirstChoice))),
        ("max_load", Policy::simple()),
        ("random", Policy::simple().with_choice(Box::new(RandomChoice::new(7)))),
        (
            "numa_aware",
            Policy::simple().with_choice(Box::new(NumaAwareChoice::new(Arc::clone(&topo), metric))),
        ),
        (
            "min_migration_cost",
            Policy::simple()
                .with_choice(Box::new(MinMigrationCostChoice::new(Arc::clone(&topo), metric))),
        ),
        ("group_aware", Policy::simple().with_choice(Box::new(GroupAwareChoice::new(metric)))),
        (
            "topology_aware",
            Policy::simple()
                .with_choice(Box::new(TopologyAwareChoice::new(Arc::clone(&topo), metric))),
        ),
    ]
}

/// Listing 1 proves every lemma — and, the paper's Figure 1 claim (e1),
/// so does every choice policy swapped into its step 2: the same five
/// lemmas over the same 5498 instances, with the same bound N.
#[test]
fn listing1_policy_is_fully_verified() {
    for (name, policy) in choice_variants() {
        let report = verify_policy(&Balancer::new(policy), &Scope::small(), false);
        assert!(report.is_work_conserving(), "{name}: {report}");
        assert_eq!(report.lemmas.len(), 5, "{name}");
        assert!(report.lemmas.iter().all(|l| l.is_proved()), "{name}: {report}");
        assert!(matches!(report.convergence, Ok(1)), "{name}: the bound N is one round");
        assert_eq!(report.total_instances(), 5498, "{name}");
    }
}

/// Each lemma's verdict and instance count for the three hand-written
/// filters, at the scope its claim is stated over: Lemma 1 (e3), steal
/// soundness and sequential work conservation (e4) and P2 (e7) over
/// `Scope::default_scope()`, P1 (e6) over every round interleaving of
/// `Scope::small()`.  Only the greedy filter admits a steal that raises
/// the potential.
#[test]
fn each_lemma_reads_its_pinned_verdict_for_every_filter() {
    type Check = fn(&Balancer, &Scope) -> LemmaReport;
    let policies: [fn() -> Policy; 3] = [Policy::simple, Policy::greedy, Policy::weighted];
    let default = Scope::default_scope();
    // (lemma, scope, (proved, instances) for listing1 / greedy / weighted)
    let pinned = [
        (lemmas::check_lemma1 as Check, default, [(true, 434); 3]),
        (lemmas::check_steal_soundness, default, [(true, 702), (true, 1080), (true, 702)]),
        (lemmas::check_sequential_work_conservation, default, [(true, 322); 3]),
        (lemmas::check_failure_implies_concurrent_success, Scope::small(), [(true, 5166); 3]),
        (lemmas::check_potential_decreases, default, [(true, 702), (false, 4), (true, 702)]),
    ];
    for (check, scope, want) in pinned {
        let reports = policies.map(|policy| check(&Balancer::new(policy()), &scope));
        let got = reports.each_ref().map(|r| (r.is_proved(), r.instances));
        assert_eq!(got, want, "{} over {scope}", reports[0].name);
    }
}

/// §4.3's ping-pong (e5): under adversarial interleavings and choices the
/// greedy filter has a reachable cycle in which a core idles forever;
/// Listing 1 has none within the scope.
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
    assert_eq!(witness.cycle, [[0, 1, 2], [0, 1, 2]], "the paper's instance, verbatim");

    let listing1 = Balancer::new(Policy::simple());
    let none = find_non_conserving_cycle(&listing1, &Scope::small(), ChoiceStrategy::Adversarial);
    assert!(none.is_none(), "Listing 1 has no ping-pong: {none:?}");
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
fn weighted_policy_is_work_conserving_too() {
    let balancer = Balancer::new(Policy::weighted());
    let report = verify_policy(&balancer, &Scope::new(3, 4, 32), false);
    assert!(report.is_work_conserving(), "{report}");
}

/// The exhaustive worst-case N (e8) over every initial state and
/// interleaving, with the non-work-conserving states it explored, is an
/// upper bound for any concrete run within the same scope.
#[test]
fn exhaustive_bound_matches_executed_rounds() {
    let balancer = Balancer::new(Policy::simple());
    for (scope, n, explored) in [(Scope::new(3, 5, 64), 1, 47), (Scope::new(4, 6, 64), 2, 247)] {
        let analysis = analyze_convergence(&balancer, &scope, ChoiceStrategy::PolicyChoice)
            .expect("work conserving");
        assert_eq!((analysis.max_rounds, analysis.states_explored), (n, explored), "{scope}");
        for loads in optimistic_sched::verify::configurations(&scope) {
            let mut system = SystemState::from_loads(&loads);
            let result = converge(&mut system, &balancer, RoundSchedule::AllSelectThenSteal, n);
            assert!(
                result.converged(),
                "loads {loads:?} did not converge within the exhaustive bound {n}"
            );
        }
    }
}

#[test]
fn batched_stealing_preserves_every_lemma() {
    let policy = Policy::simple().with_steal(StealRule::HalfImbalance);
    let balancer = Balancer::new(policy);
    let report = verify_policy(&balancer, &Scope::small(), false);
    assert!(report.is_work_conserving(), "{report}");
}

/// The step-3 ablation (e8) on 64 cores with all 128 threads on core 0:
/// stealing one thread is work-conserving after one concurrent round and
/// quiescent after two; stealing half the imbalance sends every thief to
/// the one hot core, and each takes the live surplus divided by one plus
/// the thieves still to come, so the herd shares it: work-conserving and
/// quiescent after one round, 126 threads moved.  Both end fully balanced.
#[test]
fn steal_one_and_steal_half_reach_balance_at_their_pinned_costs() {
    for (steal, to_wc, to_quiescence, migrated) in
        [(StealRule::One, 1, 2, 126), (StealRule::HalfImbalance, 1, 1, 126)]
    {
        let loads = StaticImbalance::new(64, 128, ImbalancePattern::SingleHot).loads();
        let mut system = SystemState::from_loads(&loads);
        let balancer = Balancer::new(Policy::simple().with_steal(steal));
        let executor = ConcurrentRound::new(&balancer);
        let (mut rounds_to_wc, mut migrations) = (None, 0);
        let quiescent = (0..4096).find(|&round| {
            if rounds_to_wc.is_none() && system.is_work_conserving() {
                rounds_to_wc = Some(round);
            }
            let report = executor.execute(&mut system, &RoundSchedule::AllSelectThenSteal);
            migrations += report.nr_stolen();
            report.is_quiescent()
        });
        assert_eq!(
            (rounds_to_wc, quiescent, migrations, potential(&system, LoadMetric::NrThreads)),
            (Some(to_wc), Some(to_quiescence), migrated, 0),
            "{steal:?}"
        );
    }
}

/// Listing 1 in action (e2): with every thread on core 0, one sequential
/// round hands each idle core one thread, with no failed steal, and
/// halves the potential, at every machine size.
#[test]
fn listing1_drains_a_single_hot_core_in_one_sequential_round() {
    // (cores, migrations, potential before, potential after)
    let pinned = [
        (2, 1, 8, 4),
        (4, 3, 48, 24),
        (8, 7, 224, 112),
        (16, 15, 960, 480),
        (32, 31, 3968, 1984),
        (64, 63, 16128, 8064),
    ];
    for (cores, migrations, before, after) in pinned {
        let threads = 2 * cores;
        let loads = StaticImbalance::new(cores, threads, ImbalancePattern::SingleHot).loads();
        let mut system = SystemState::from_loads(&loads);
        let d_before = potential(&system, LoadMetric::NrThreads);
        let balancer = Balancer::new(Policy::simple());
        let result = converge(&mut system, &balancer, RoundSchedule::Sequential, 4 * threads);
        assert_eq!(
            (
                result.rounds,
                result.total_migrations(),
                result.total_failures(),
                d_before,
                potential(&system, LoadMetric::NrThreads)
            ),
            (Some(1), migrations, 0, before, after),
            "{cores} cores"
        );
    }
}

/// P2 on a concrete run (e7): under Listing 1's concurrent rounds the
/// potential strictly decreases every round of an 8-core step imbalance
/// until the system is work-conserving — even in rounds where a steal
/// fails.
#[test]
fn the_potential_strictly_decreases_every_concurrent_round() {
    let mut system =
        SystemState::from_loads(&StaticImbalance::new(8, 16, ImbalancePattern::Step).loads());
    assert_eq!(system.loads(LoadMetric::NrThreads), [4, 4, 4, 4, 0, 0, 0, 0]);
    let mut d = potential(&system, LoadMetric::NrThreads);
    assert_eq!(d, 128);
    let balancer = Balancer::new(Policy::simple());
    let executor = ConcurrentRound::new(&balancer);
    let mut rounds = Vec::new();
    while !system.is_work_conserving() {
        let report = executor.execute(&mut system, &RoundSchedule::AllSelectThenSteal);
        let next = potential(&system, LoadMetric::NrThreads);
        assert!(next < d, "round {}: the potential went {d} -> {next}", rounds.len() + 1);
        d = next;
        rounds.push((
            system.loads(LoadMetric::NrThreads),
            d,
            report.nr_successes(),
            report.nr_failures(),
        ));
    }
    assert_eq!(
        rounds,
        [(vec![1, 4, 4, 4, 1, 1, 1, 0], 104, 3, 1), (vec![2, 1, 4, 4, 2, 1, 1, 1], 80, 3, 2)]
    );
}

/// The §3.2 bound N measured (e8): rounds of concurrent balancing to
/// work conservation, and the steals that succeed and fail on the way,
/// per core count and imbalance pattern (twice as many threads as cores).
#[test]
fn rounds_to_work_conservation_per_core_count_and_pattern() {
    use ImbalancePattern::{Random, SingleHot, Step};
    // (cores, pattern, rounds N, successful steals, failed attempts)
    let pinned = [
        (4, SingleHot, 1, 3, 0),
        (4, Step, 1, 2, 0),
        (4, Random, 0, 0, 0),
        (8, SingleHot, 1, 7, 0),
        (8, Step, 2, 6, 3),
        (8, Random, 0, 0, 0),
        (16, SingleHot, 1, 15, 0),
        (16, Step, 6, 18, 39),
        (16, Random, 1, 3, 11),
        (32, SingleHot, 1, 31, 0),
        (32, Step, 14, 42, 207),
        (32, Random, 3, 11, 61),
        (64, SingleHot, 1, 63, 0),
        (64, Step, 30, 90, 927),
        (64, Random, 6, 20, 265),
        (128, SingleHot, 1, 127, 0),
        (128, Step, 62, 186, 3903),
        (128, Random, 14, 47, 1261),
    ];
    for (cores, pattern, rounds, successes, failures) in pinned {
        let threads = cores * 2;
        let mut system =
            SystemState::from_loads(&StaticImbalance::new(cores, threads, pattern).loads());
        let balancer = Balancer::new(Policy::simple());
        let result =
            converge(&mut system, &balancer, RoundSchedule::AllSelectThenSteal, 8 * threads);
        assert_eq!(
            (result.rounds, result.total_successes(), result.total_failures()),
            (Some(rounds), successes, failures),
            "{cores} cores, {pattern}"
        );
    }
}

#[test]
fn convergence_scales_to_hundreds_of_cores() {
    // Not exhaustive — a single large concrete instance, beyond e8's sweep.
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

/// A choice that claims the index but answers what it wraps.
struct ClaimsMostThreads<C>(C);

impl<C: ChoicePolicy> ChoicePolicy for ClaimsMostThreads<C> {
    fn choose(&self, thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId> {
        self.0.choose(thief, candidates)
    }

    fn picks_most_threads(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "claims_most_threads"
    }
}

/// Picks the candidate with the fewest threads, lowest id among equals.
struct FewestThreads;

impl ChoicePolicy for FewestThreads {
    fn choose(&self, _thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId> {
        candidates.iter().min_by_key(|c| (c.nr_threads, c.id)).map(|c| c.id)
    }

    fn name(&self) -> &'static str {
        "fewest_threads"
    }
}

/// A filter that claims the count threshold `.1` but admits what it wraps.
struct ClaimsCountThreshold<F>(F, u64);

impl<F: FilterPolicy> FilterPolicy for ClaimsCountThreshold<F> {
    fn can_steal(&self, thief: &CoreSnapshot, victim: &CoreSnapshot) -> bool {
        self.0.can_steal(thief, victim)
    }

    fn count_threshold(&self) -> Option<u64> {
        Some(self.1)
    }

    fn name(&self) -> &'static str {
        "claims_count_threshold"
    }
}

/// Each index claimant is proven in a policy where it claims (the lemma
/// behind the simulator's indexed balance pass), at `Scope::default_scope()`:
/// every state and thief, one instance each.  The list of claimants is the
/// lemma's pinned list, which CI's "Every index claim is proven" lint
/// holds every non-test claim to.
#[test]
fn every_index_claimant_is_proven() {
    assert_eq!(lemmas::CLAIMANTS, ["DeltaFilter", "MaxLoadChoice", "TopologyAwareChoice"]);
    let scope = Scope::default_scope();
    let flat = Arc::new(TopologyBuilder::new().sockets(1).cores_per_socket(4).build());
    let metric = LoadMetric::NrThreads;
    let delta3 = Policy::new(
        metric,
        Box::new(DeltaFilter::new(metric, 3)),
        Box::new(MaxLoadChoice::new(metric)),
        StealRule::One,
    );
    let claimants = [
        ("DeltaFilter(2) + MaxLoadChoice", Policy::simple(), 2),
        ("DeltaFilter(3) + MaxLoadChoice", delta3, 3),
        (
            "DeltaFilter(2) + TopologyAwareChoice on flat(4)",
            Policy::simple().with_choice(Box::new(TopologyAwareChoice::new(flat, metric))),
            2,
        ),
    ];
    for (name, policy, delta) in claimants {
        assert_eq!(policy.index_threshold(), Some(delta), "{name} claims");
        let report = lemmas::check_indexed_select(&policy, &scope).expect("a claimant");
        assert!(report.is_proved(), "{name}: {report}");
        assert_eq!(report.instances, 1148, "{name}");
    }
}

/// A claim the policy does not live up to is refuted, with the state and
/// the thief where the index and the scan part.
#[test]
fn planted_false_index_claims_are_refuted() {
    let scope = Scope::default_scope();
    let metric = LoadMetric::NrThreads;
    let two_nodes = Arc::new(TopologyBuilder::new().sockets(2).cores_per_socket(2).build());
    let planted = [
        (
            "a choice that claims the most threads but picks the fewest",
            Policy::simple().with_choice(Box::new(ClaimsMostThreads(FewestThreads))),
            (168, vec![0, 2, 3], "thief core 0", "index: Some(2)", "select: Some(1)"),
        ),
        (
            "a weighted delta filter that claims a count threshold",
            Policy::new(
                LoadMetric::Weighted,
                Box::new(ClaimsCountThreshold(DeltaFilter::new(LoadMetric::Weighted, 2048), 2)),
                Box::new(MaxLoadChoice::new(metric)),
                StealRule::One,
            ),
            (
                13,
                vec![0, 2],
                "thief core 0; weighted loads [0, 1039]",
                "index: Some(1)",
                "select: None",
            ),
        ),
        (
            "a topology-aware choice on two nodes, forced to claim",
            Policy::simple().with_choice(Box::new(ClaimsMostThreads(TopologyAwareChoice::new(
                two_nodes, metric,
            )))),
            (168, vec![0, 2, 3], "thief core 0", "index: Some(2)", "select: Some(1)"),
        ),
    ];
    for (name, policy, (instances, loads, thief, index, select)) in planted {
        let report = lemmas::check_indexed_select(&policy, &scope).expect("it claims");
        let ce = report.status.counterexample().unwrap_or_else(|| panic!("{name}: {report}"));
        assert_eq!(report.instances, instances, "{name}");
        assert_eq!(ce.initial_loads, loads, "{name}");
        assert!(ce.trace[0].starts_with(thief), "{name}: {}", ce.trace[0]);
        assert_eq!(ce.trace[1..], [index, select], "{name}");
    }
}
