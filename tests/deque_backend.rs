//! End-to-end tests of the lock-free (Chase–Lev) runqueue backend: the
//! same `MultiQueue` machinery as `tests/concurrent_rq.rs`, but with the
//! stealing phase resolved by CAS claims instead of double locks.
//!
//! The mutex-backend suite pins the protocol; this suite pins that the
//! lock-free discipline preserves every invariant the protocol needs —
//! conservation, convergence to work conservation, consistent stats —
//! plus the deque-specific edge cases (empty steal, single-element race,
//! ring overflow).

use optimistic_sched::core::{CoreId, Policy};
use optimistic_sched::rq::{
    DequeMultiQueue, MultiQueue, PerCoreRq, RqBackend as _, SpillQueue, TinyDequeMultiQueue,
    TINY_RING_CAPACITY,
};
use proptest::prelude::*;

/// The `delta >= 1` sweep policy of the e22 invariant: an idle core may
/// take from any core with at least one more thread, which is the weakest
/// filter that still refuses to create a new imbalance.
fn sweep_policy() -> Policy {
    use optimistic_sched::core::policy::{DeltaFilter, MaxLoadChoice, StealRule};
    use optimistic_sched::core::LoadMetric;
    Policy::new(
        LoadMetric::NrThreads,
        Box::new(DeltaFilter::new(LoadMetric::NrThreads, 1)),
        Box::new(MaxLoadChoice::new(LoadMetric::NrThreads)),
        StealRule::One,
    )
}

#[test]
fn concurrent_rounds_never_lose_or_duplicate_tasks() {
    let loads: Vec<usize> = (0..16).map(|i| if i % 3 == 0 { 9 } else { 0 }).collect();
    let mq: DequeMultiQueue = MultiQueue::with_loads(&loads);
    let total = mq.total_threads();
    let policy = Policy::simple();
    for _ in 0..20 {
        mq.concurrent_round(&policy);
        assert_eq!(mq.total_threads(), total);
    }
}

#[test]
fn concurrent_balancing_converges_to_work_conservation() {
    let mut loads = vec![0usize; 32];
    loads[0] = 48;
    loads[7] = 16;
    let mq: DequeMultiQueue = MultiQueue::with_loads(&loads);
    let policy = Policy::simple();
    let (rounds, stats) = mq.converge(&policy, 256);
    assert!(rounds.is_some(), "lock-free optimistic balancing must converge");
    assert!(mq.is_work_conserving());
    assert_eq!(mq.total_threads(), 64);
    assert!(stats.successes() >= 31, "every idle core had to obtain work at least once");
}

#[test]
fn topology_aware_rounds_drain_a_numa_machine_on_the_lock_free_backend() {
    use optimistic_sched::core::policy::TopologyAwareChoice;
    use optimistic_sched::core::LoadMetric;

    let topo = optimistic_sched::topology::TopologyBuilder::eight_node_numa();
    let mq: DequeMultiQueue = MultiQueue::with_topology(&topo);
    for _ in 0..16 {
        mq.spawn_on(CoreId(0));
    }
    let choice = TopologyAwareChoice::new(std::sync::Arc::new(topo), LoadMetric::NrThreads);
    let policy = Policy::simple().with_choice(Box::new(choice));
    let (rounds, stats) = mq.converge(&policy, 128);
    assert!(rounds.is_some(), "topology-aware balancing must converge on the deque backend");
    assert!(mq.is_work_conserving());
    assert_eq!(mq.total_threads(), 16);
    assert!(stats.migrations() >= 7);
}

#[test]
fn steals_racing_wakeups_keep_stats_consistent() {
    // The deque twin of the mutex backend's stats race test: spawns land
    // on the victim while sixteen waves of thieves steal from it; after
    // the dust settles, counters and queue contents must agree.
    let mq = std::sync::Arc::new({
        let mq: DequeMultiQueue = MultiQueue::new(4);
        for _ in 0..8 {
            mq.spawn_on(CoreId(0));
        }
        mq
    });
    let policy = Policy::simple();
    let stats = optimistic_sched::rq::BalanceStats::new();
    std::thread::scope(|scope| {
        let waker = {
            let mq = std::sync::Arc::clone(&mq);
            scope.spawn(move || {
                for _ in 0..32 {
                    mq.spawn_on(CoreId(0));
                    std::thread::yield_now();
                }
            })
        };
        for _ in 0..16 {
            let stats = &stats;
            let policy = &policy;
            let mq = std::sync::Arc::clone(&mq);
            scope.spawn(move || {
                for thief in 1..4 {
                    let _ = mq.balance_once_recorded(CoreId(thief), policy, stats);
                }
            });
        }
        waker.join().unwrap();
    });
    assert_eq!(mq.total_threads(), 40, "8 initial + 32 woken, none lost or duplicated");
    let moved: u64 = (1..4).map(|c| mq.core(CoreId(c)).nr_threads_exact()).sum();
    assert!(moved <= stats.migrations(), "{moved} residents > {} counted", stats.migrations());
    assert_eq!(stats.migrations(), stats.successes(), "StealRule::One: one migration per success");
}

#[test]
fn empty_steal_reports_failure_not_phantom_work() {
    // Edge case: a victim with nothing to take.  The operation must
    // report a clean failure and change nothing.
    let mq: DequeMultiQueue = MultiQueue::with_loads(&[0, 0]);
    let policy = Policy::simple();
    let outcome = mq.balance_once(CoreId(0), &policy);
    assert!(!outcome.is_success());
    assert_eq!(mq.total_threads(), 0);
}

#[test]
fn overflow_storm_converges_without_any_tick_on_the_injector_backend() {
    // The tentpole claim at the MultiQueue level: a fan-out burst far past
    // the tiny ring's capacity must reach idle cores through balancing
    // alone — `converge` never calls `refresh`, so nothing may depend on a
    // tick-driven drain.  (On the legacy spill discipline this exact
    // scenario stalls; see the companion test below.)
    let mq: TinyDequeMultiQueue = MultiQueue::new(16);
    for _ in 0..40 {
        mq.spawn_on(CoreId(0));
    }
    assert!(
        mq.core(CoreId(0)).inner().injected_len() > 0,
        "the burst must actually overflow the tiny ring"
    );
    let policy = Policy::simple();
    let (rounds, stats) = mq.converge(&policy, 64);
    assert!(rounds.is_some(), "every task is reachable, so balancing must converge");
    assert!(mq.is_work_conserving());
    assert_eq!(mq.total_threads(), 40, "conservation across the overflow path");
    assert!(stats.successes() >= 15, "all fifteen idle cores had to obtain work");
}

#[test]
fn the_legacy_spill_discipline_stalls_the_same_storm() {
    // The documented hole, demonstrated end to end: same burst, same
    // budget, but overflow parked in the owner-private spill of the mutex
    // backend's `SpillQueue` fixture.  Thieves drain the window and then
    // starve against work that every load observer can see — the machine
    // never becomes work-conserving without a tick.
    let mq: MultiQueue<PerCoreRq<SpillQueue>> = MultiQueue::new(16);
    for _ in 0..40 {
        mq.spawn_on(CoreId(0));
    }
    let policy = Policy::simple();
    let (rounds, _stats) = mq.converge(&policy, 64);
    assert!(rounds.is_none(), "hidden overflow must stall convergence — that is the bug");
    assert!(!mq.is_work_conserving(), "idle cores starve against counted work");
    assert_eq!(mq.total_threads(), 40, "the hole delays work; it never loses it");
    // Only the visible window's worth of waiting tasks could move: one
    // window of stealable waiters left core 0's count at burst - window
    // everywhere the spill stayed hidden.
    assert_eq!(
        mq.core(CoreId(0)).nr_threads_exact(),
        40 - TINY_RING_CAPACITY as u64,
        "exactly one ring's worth was stealable"
    );
}

proptest! {
    /// Any load vector on any machine size: the deque backend converges
    /// to work conservation and conserves every task while doing it.
    #[test]
    fn deque_backend_converges_and_conserves(
        seed_loads in proptest::collection::vec(0usize..12, 2..10),
    ) {
        let total: usize = seed_loads.iter().sum();
        let mq: DequeMultiQueue = MultiQueue::with_loads(&seed_loads);
        let policy = Policy::simple();
        let (rounds, _stats) = mq.converge(&policy, 64 + 4 * total);
        prop_assert!(rounds.is_some());
        prop_assert!(mq.is_work_conserving());
        prop_assert_eq!(mq.total_threads(), total as u64);
    }

    /// The e22 invariant, as a property: after **any** sequence of
    /// enqueues (including ring-overflowing bursts), completions and
    /// balance attempts on the tiny-ring injector backend, one
    /// balance_once per idle core suffices to reach work conservation —
    /// no core stays idle while any core (ring *or* injector) holds
    /// waiting work.  The legacy spill discipline refutes exactly this:
    /// a burst parked in the private spill leaves idle cores stranded
    /// however many rounds they attempt.
    #[test]
    fn no_core_idles_while_the_injector_holds_work(
        cores in 3usize..6,
        ops in proptest::collection::vec((0u8..4, 0usize..6, 1usize..24), 1..40),
    ) {
        let mq: TinyDequeMultiQueue = MultiQueue::new(cores);
        let policy = sweep_policy();
        let mut spawned = 0u64;
        let mut completed = 0u64;
        for (kind, core, amount) in ops {
            let core = CoreId(core % cores);
            match kind {
                // A fan-out burst: deliberately allowed to exceed the tiny
                // ring so the overflow path is exercised constantly.
                0 => {
                    for _ in 0..amount {
                        mq.spawn_on(core);
                        spawned += 1;
                    }
                }
                1 => {
                    if mq.core(core).complete_current().is_some() {
                        completed += 1;
                    }
                }
                _ => {
                    let _ = mq.balance_once(core, &policy);
                }
            }
        }
        // The sweep: each idle core performs one pick_next round's worth
        // of balancing.  After it, work conservation must hold.
        for core in 0..cores {
            if mq.core(CoreId(core)).snapshot().is_idle() {
                let _ = mq.balance_once(CoreId(core), &policy);
            }
        }
        prop_assert_eq!(mq.total_threads(), spawned - completed);
        prop_assert!(
            mq.is_work_conserving(),
            "a core idled while waiting work existed (injected: {:?})",
            (0..cores).map(|c| mq.core(CoreId(c)).inner().injected_len()).collect::<Vec<_>>()
        );
    }

    /// Batched rounds on any fan-out: whatever `k` each acquisition asks
    /// for, concurrent batched balancing conserves every task and still
    /// reaches work conservation — the non-inversion trim can loop losers
    /// through the injector but may never hide or duplicate them.
    #[test]
    fn batched_rounds_conserve_and_converge_for_any_k(
        hot in 8usize..40,
        k in 1usize..9,
    ) {
        let mut loads = vec![0usize; 8];
        loads[0] = hot;
        let mq: DequeMultiQueue = MultiQueue::with_loads(&loads);
        let policy = Policy::simple();
        let batch = optimistic_sched::core::StealRule::Fixed(k);
        let mut converged = false;
        for _ in 0..(64 + hot) {
            if mq.is_work_conserving() {
                converged = true;
                break;
            }
            mq.concurrent_round_batched(&policy, batch);
            prop_assert_eq!(mq.total_threads(), hot as u64);
        }
        prop_assert!(converged || mq.is_work_conserving(), "batched balancing must converge");
        prop_assert_eq!(mq.total_threads(), hot as u64);
    }

    /// The imbalance-sized batch on the same sweep: `HalfImbalance` may
    /// claim large batches early, yet conservation and convergence hold.
    #[test]
    fn half_imbalance_batches_conserve_and_converge(hot in 8usize..48) {
        let mut loads = vec![0usize; 8];
        loads[0] = hot;
        let mq: DequeMultiQueue = MultiQueue::with_loads(&loads);
        let policy = Policy::simple();
        let batch = optimistic_sched::core::StealRule::HalfImbalance;
        for _ in 0..(64 + hot) {
            if mq.is_work_conserving() {
                break;
            }
            mq.concurrent_round_batched(&policy, batch);
            prop_assert_eq!(mq.total_threads(), hot as u64);
        }
        prop_assert!(mq.is_work_conserving(), "half-imbalance batching must converge");
    }

    /// Single-element owner-vs-thief race at the MultiQueue level: a
    /// two-core machine with one waiting task; whoever wins, exactly one
    /// task survives in exactly one place.
    #[test]
    fn single_waiting_task_ends_up_in_exactly_one_place(owner_first in proptest::arbitrary::any::<bool>()) {
        let mq: DequeMultiQueue = MultiQueue::with_loads(&[2, 0]);
        // Thief needs delta >= 1 to race the owner for the waiter.
        let thieving = Policy::new(
            optimistic_sched::core::LoadMetric::NrThreads,
            Box::new(optimistic_sched::core::policy::DeltaFilter::new(
                optimistic_sched::core::LoadMetric::NrThreads,
                1,
            )),
            Box::new(optimistic_sched::core::policy::MaxLoadChoice::new(
                optimistic_sched::core::LoadMetric::NrThreads,
            )),
            optimistic_sched::core::StealRule::One,
        );
        if owner_first {
            let _ = mq.core(CoreId(0)).complete_current();
            let _ = mq.balance_once(CoreId(1), &thieving);
        } else {
            let _ = mq.balance_once(CoreId(1), &thieving);
            let _ = mq.core(CoreId(0)).complete_current();
        }
        // The waiter must survive exactly once, wherever the race landed it.
        prop_assert_eq!(mq.total_threads(), 1);
    }
}

#[test]
#[ignore = "nightly-strength stress; run via `cargo test -- --ignored`"]
fn stress_overflow_storms_high_iteration() {
    // Repeated fan-out storms against tiny rings with genuinely concurrent
    // rounds: every burst overflows, and every storm must drain to work
    // conservation with exact accounting — the e22 invariant under real
    // thread contention instead of the deterministic sweep.
    for round in 0..40 {
        let cores = 8 + (round % 9);
        let mq: TinyDequeMultiQueue = MultiQueue::new(cores);
        let burst = 3 * cores;
        for _ in 0..burst {
            mq.spawn_on(CoreId(round % cores));
        }
        let policy = Policy::simple();
        let (rounds, _stats) = mq.converge(&policy, 256);
        assert!(rounds.is_some(), "round {round}: the storm must converge without any tick");
        assert!(mq.is_work_conserving(), "round {round}");
        assert_eq!(mq.total_threads(), burst as u64, "round {round}: conservation");
    }
}

#[test]
#[ignore = "nightly-strength stress; run via `cargo test -- --ignored`"]
fn stress_batched_steal_races_high_iteration() {
    // Batched claims under genuine thief contention, across machine sizes
    // and batch policies: every round of every storm must conserve the
    // exact task count while multi-claim CASes, injector batches and the
    // non-inversion trim race each other.
    use optimistic_sched::core::StealRule;
    for round in 0..40 {
        let cores = 8 + (round % 9);
        let burst = 6 * cores;
        let batch = match round % 3 {
            0 => StealRule::Fixed(4),
            1 => StealRule::Fixed(8),
            _ => StealRule::HalfImbalance,
        };
        let mq: TinyDequeMultiQueue = MultiQueue::new(cores);
        for _ in 0..burst {
            mq.spawn_on(CoreId(round % cores));
        }
        let policy = Policy::simple();
        let mut converged = false;
        for _ in 0..256 {
            if mq.is_work_conserving() {
                converged = true;
                break;
            }
            mq.concurrent_round_batched(&policy, batch);
            assert_eq!(
                mq.total_threads(),
                burst as u64,
                "round {round}: batched races must conserve"
            );
        }
        assert!(converged, "round {round}: batched storm must converge ({batch:?})");
    }
}

#[test]
#[ignore = "nightly-strength stress; run via `cargo test -- --ignored`"]
fn stress_deque_backend_many_rounds_high_iteration() {
    for round in 0..60 {
        let cores = 4 + (round % 13);
        let loads: Vec<usize> = (0..cores).map(|i| if i % 3 == 0 { 12 } else { 0 }).collect();
        let total: u64 = loads.iter().map(|&l| l as u64).sum();
        let mq: DequeMultiQueue = MultiQueue::with_loads(&loads);
        let policy = Policy::simple();
        let (rounds, _stats) = mq.converge(&policy, 512);
        assert!(rounds.is_some(), "round {round}: must converge");
        assert_eq!(mq.total_threads(), total, "round {round}: conservation");
    }
}
