//! Property-based tests of the scheduler model's invariants.
//!
//! The exhaustive checker covers every configuration within a small scope;
//! these properties push the same invariants to much larger random
//! configurations, random interleavings and random policies, which is the
//! second half of the Leon substitution (README § Workspace map).

use optimistic_sched::core::prelude::*;
use proptest::prelude::*;

fn arbitrary_loads() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..6, 2..24)
}

fn arbitrary_schedule() -> impl Strategy<Value = RoundSchedule> {
    prop_oneof![
        Just(RoundSchedule::Sequential),
        Just(RoundSchedule::AllSelectThenSteal),
        any::<u64>().prop_map(RoundSchedule::Seeded),
    ]
}

proptest! {
    /// No balancing round ever loses, duplicates or invents a thread.
    #[test]
    fn rounds_conserve_threads(loads in arbitrary_loads(), schedule in arbitrary_schedule(), rounds in 1usize..8) {
        let mut system = SystemState::from_loads(&loads);
        let total = system.total_threads();
        let balancer = Balancer::new(Policy::simple());
        let executor = ConcurrentRound::new(&balancer);
        for round in 0..rounds {
            executor.execute(&mut system, &schedule.for_round(round));
            prop_assert_eq!(system.total_threads(), total);
            prop_assert!(system.tasks_are_unique());
        }
    }

    /// The Listing 1 policy always converges, under any interleaving, within
    /// a budget proportional to the number of threads.
    #[test]
    fn listing1_always_converges(loads in arbitrary_loads(), seed in any::<u64>()) {
        let mut system = SystemState::from_loads(&loads);
        let budget = 8 * (system.total_threads() as usize + 1);
        let balancer = Balancer::new(Policy::simple());
        let result = converge(&mut system, &balancer, RoundSchedule::Seeded(seed), budget);
        prop_assert!(result.converged(), "loads {:?} did not converge", loads);
        prop_assert!(system.is_work_conserving());
    }

    /// Work conservation is absorbing: once reached, further rounds never
    /// reintroduce an idle-while-overloaded state (no thread arrivals).
    #[test]
    fn work_conservation_is_absorbing(loads in arbitrary_loads(), seed in any::<u64>()) {
        let mut system = SystemState::from_loads(&loads);
        let balancer = Balancer::new(Policy::simple());
        let budget = 8 * (system.total_threads() as usize + 1);
        let _ = converge(&mut system, &balancer, RoundSchedule::Seeded(seed), budget);
        prop_assume!(system.is_work_conserving());
        let executor = ConcurrentRound::new(&balancer);
        for round in 0..4usize {
            executor.execute(&mut system, &RoundSchedule::Seeded(seed ^ round as u64));
            prop_assert!(system.is_work_conserving());
        }
    }

    /// P2 at scale: whenever the Listing 1 filter admits a steal on the live
    /// state, performing it strictly decreases the potential.
    #[test]
    fn filtered_steals_strictly_decrease_the_potential(loads in arbitrary_loads()) {
        let system = SystemState::from_loads(&loads);
        let balancer = Balancer::new(Policy::simple());
        let snapshot = SystemSnapshot::capture(&system);
        for thief in system.core_ids() {
            for victim in system.core_ids() {
                if thief == victim
                    || !balancer.policy().filter.can_steal(snapshot.core(thief), snapshot.core(victim))
                {
                    continue;
                }
                let mut working = system.clone();
                let before = potential(&working, LoadMetric::NrThreads);
                let outcome = balancer.steal(&mut working, thief, victim, 1);
                prop_assert!(outcome.is_success());
                prop_assert!(potential(&working, LoadMetric::NrThreads) < before);
            }
        }
    }

    /// Lemma 1 at scale: an idle thief keeps a candidate iff it is
    /// overloaded, for random configurations far beyond the exhaustive scope.
    #[test]
    fn lemma1_holds_on_large_random_configurations(loads in prop::collection::vec(0usize..5, 2..256)) {
        let system = SystemState::from_loads(&loads);
        let snapshot = SystemSnapshot::capture(&system);
        let filter = DeltaFilter::listing1();
        let any_overloaded = !system.overloaded_cores().is_empty();
        for thief in system.idle_cores() {
            let candidates: Vec<_> = snapshot
                .others(thief)
                .into_iter()
                .filter(|v| filter.can_steal(snapshot.core(thief), v))
                .collect();
            if any_overloaded {
                prop_assert!(!candidates.is_empty());
            }
            for c in candidates {
                prop_assert!(system.core(c.id).is_overloaded());
            }
        }
    }

    /// The steal phase never migrates the victim's running thread and never
    /// leaves the victim idle, for any policy in the built-in set.
    #[test]
    fn steals_never_empty_the_victim(loads in arbitrary_loads(), which in 0usize..3) {
        let policy = match which {
            0 => Policy::simple(),
            1 => Policy::weighted(),
            _ => Policy::greedy(),
        };
        let balancer = Balancer::new(policy);
        let mut system = SystemState::from_loads(&loads);
        let report =
            ConcurrentRound::new(&balancer).execute(&mut system, &RoundSchedule::Sequential);
        for attempt in report.successes() {
            let victim = attempt.outcome.victim().unwrap();
            prop_assert!(!system.core(victim).is_idle());
        }
    }
}
