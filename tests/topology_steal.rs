//! Property-based tests of topology-aware stealing — the hierarchy in step
//! 2 — on random machine shapes (sockets × cores × LLC splits × SMT) and
//! random load vectors.

use std::sync::Arc;

use optimistic_sched::core::prelude::*;
use optimistic_sched::topology::{MachineTopology, TopologyBuilder};
use proptest::prelude::*;

/// A random regular machine: 1–3 sockets, 1–3 cores per socket, 1–2 LLC
/// groups, SMT 1–2 (at most 18 CPUs).
fn arbitrary_topology() -> impl Strategy<Value = Arc<MachineTopology>> {
    (1usize..=3, 1usize..=3, 1usize..=2, 1usize..=2).prop_map(|(sockets, cores, llcs, smt)| {
        Arc::new(
            TopologyBuilder::new()
                .sockets(sockets)
                .cores_per_socket(cores)
                .llcs_per_socket(llcs.min(cores))
                .smt(smt)
                .build(),
        )
    })
}

/// A deterministic load vector (up to 5 threads per CPU) derived from a
/// seed, sized to the machine.  The offline proptest shim has no
/// `prop_flat_map`, so shape-dependent data is derived rather than drawn.
fn derive_loads(topo: &MachineTopology, seed: u64) -> Vec<usize> {
    let mut loads = vec![0usize; topo.nr_cpus()];
    let mut state = seed | 1;
    for slot in loads.iter_mut() {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        *slot = (state % 6) as usize;
    }
    loads
}

fn system_with(topo: &Arc<MachineTopology>, loads: &[usize]) -> SystemState {
    let mut system = SystemState::with_topology(topo);
    let mut next = 0u64;
    for (core, &n) in loads.iter().enumerate() {
        for _ in 0..n {
            system.core_mut(CoreId(core)).enqueue(Task::new(TaskId(next)));
            next += 1;
        }
    }
    system
}

fn topo_policy(topo: &Arc<MachineTopology>) -> Policy {
    Policy::simple()
        .with_choice(Box::new(TopologyAwareChoice::new(Arc::clone(topo), LoadMetric::NrThreads)))
}

proptest! {
    /// The distance-ordered victim search never selects a victim at a
    /// farther level while a loaded victim exists at a closer level that
    /// meets that level's steal threshold (default 2 for local levels).
    #[test]
    fn victim_search_never_skips_a_closer_loaded_victim(
        topo in arbitrary_topology(),
        seed in any::<u64>(),
    ) {
        let loads = derive_loads(&topo, seed);
        let system = system_with(&topo, &loads);
        let snapshot = SystemSnapshot::capture(&system);
        let choice = TopologyAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads);
        let filter = DeltaFilter::listing1();
        for thief in system.core_ids() {
            let thief_snap = *snapshot.core(thief);
            let candidates: Vec<_> = snapshot
                .others(thief)
                .into_iter()
                .filter(|v| filter.can_steal(&thief_snap, v))
                .collect();
            let Some(victim) = choice.choose(&thief_snap, &candidates) else {
                prop_assert!(candidates.is_empty(), "choice must not block a non-empty list");
                continue;
            };
            prop_assert!(candidates.iter().any(|c| c.id == victim), "victim must be a candidate");
            let chosen_level = topo.steal_level(thief, victim);
            // No candidate at a strictly closer level may meet its own
            // threshold (victim load >= thief load + 2 for every level
            // closer than Remote under the default thresholds).
            for closer in &candidates {
                let level = topo.steal_level(thief, closer.id);
                if level < chosen_level {
                    prop_assert!(
                        closer.nr_threads < thief_snap.nr_threads + 2,
                        "thief {thief}: chose {victim} at {chosen_level} although {} at {level} \
                         has {} threads (thief has {})",
                        closer.id,
                        closer.nr_threads,
                        thief_snap.nr_threads
                    );
                }
            }
        }
    }

    /// Hierarchical balancing — flat rounds under the topology-aware choice
    /// — preserves work conservation on random topologies: it converges
    /// within a linear budget, conserves every thread, and stays
    /// work-conserving afterwards.
    #[test]
    fn hierarchical_balancing_preserves_work_conservation(
        topo in arbitrary_topology(),
        seed in any::<u64>(),
    ) {
        let loads = derive_loads(&topo, seed);
        let mut system = system_with(&topo, &loads);
        let total = system.total_threads();
        let balancer = Balancer::new(topo_policy(&topo));
        let budget = 8 * (total as usize + 1);
        let result = converge(&mut system, &balancer, RoundSchedule::Seeded(seed), budget);
        prop_assert!(result.converged(), "loads {loads:?} did not converge");
        prop_assert!(system.is_work_conserving());
        prop_assert_eq!(system.total_threads(), total);
        prop_assert!(system.tasks_are_unique());
        // Absorbing: further rounds never reintroduce a violation.
        for round in 0..3usize {
            ConcurrentRound::new(&balancer)
                .execute(&mut system, &RoundSchedule::Seeded(seed ^ round as u64));
            prop_assert!(system.is_work_conserving());
        }
    }
}
