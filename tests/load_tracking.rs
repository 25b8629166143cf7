//! Property-based tests of the load-tracking layer: niceness/weight
//! conversion and PELT-style geometric decay.
//!
//! The exhaustive decay lemmas (`sched-verify`) cover small scopes; these
//! properties push the same invariants to random magnitudes, half-lives
//! and update schedules.

use optimistic_sched::core::prelude::*;
use proptest::prelude::*;

proptest! {
    #[test]
    fn nice_is_always_clamped_to_the_conventional_range(raw in -128i64..=127) {
        let nice = Nice::new(raw as i8);
        prop_assert!((-20..=19).contains(&nice.value()));
        // Already-in-range values pass through unchanged.
        if (-20..=19).contains(&raw) {
            prop_assert_eq!(nice.value() as i64, raw);
        }
    }

    #[test]
    fn weight_from_nice_is_strictly_monotone(a in -20i64..=19, b in -20i64..=19) {
        let wa = Weight::from_nice(Nice::new(a as i8));
        let wb = Weight::from_nice(Nice::new(b as i8));
        // A nicer (higher) value always weighs strictly less.
        prop_assert_eq!(a < b, wa > wb);
        prop_assert_eq!(a == b, wa == wb);
        prop_assert!(wa >= Weight::MIN && wa <= Weight::MAX);
    }

    #[test]
    fn decay_never_negative_never_exceeds_undecayed_idempotent_at_zero(
        scaled in 0u64..=(1u64 << 40),
        elapsed in 0u64..=(1u64 << 40),
        half_life in 1u64..=(1u64 << 34),
    ) {
        let decayed = decay_scaled(scaled, elapsed, half_life);
        // Unsigned by construction, but the bound matters: decay can never
        // exceed the undecayed sum, and zero elapsed time is the identity.
        prop_assert!(decayed <= scaled);
        prop_assert_eq!(decay_scaled(scaled, 0, half_life), scaled);
        // One full half-life halves exactly (floor division).
        prop_assert_eq!(decay_scaled(scaled, half_life, half_life), scaled / 2);
    }

    #[test]
    fn decay_is_monotone_in_elapsed_time(
        scaled in 0u64..=(1u64 << 40),
        a in 0u64..=(1u64 << 30),
        b in 0u64..=(1u64 << 30),
        half_life in 1u64..=(1u64 << 24),
    ) {
        let (early, late) = (a.min(b), a.max(b));
        prop_assert!(
            decay_scaled(scaled, late, half_life) <= decay_scaled(scaled, early, half_life)
        );
    }

    #[test]
    fn pelt_update_stays_between_old_value_and_target(
        start in 0u64..=64,
        inst in 0u64..=64,
        elapsed in 0u64..=(1u64 << 30),
    ) {
        let tracker = PeltTracker::new(LoadMetric::NrThreads, 8_000_000);
        let mut state = TrackedLoad { scaled: start * TRACK_SCALE, last_update_ns: 0 };
        tracker.update(&mut state, elapsed, inst);
        let (lo, hi) = (
            (start * TRACK_SCALE).min(inst * TRACK_SCALE),
            (start * TRACK_SCALE).max(inst * TRACK_SCALE),
        );
        // Never negative, never overshooting the undecayed sum: the tracked
        // value is a convex mix of where it was and where it is heading.
        prop_assert!(state.scaled >= lo && state.scaled <= hi);
        // Zero elapsed time moves nothing (idempotence at a timestamp).
        let mut frozen = TrackedLoad { scaled: start * TRACK_SCALE, last_update_ns: elapsed };
        tracker.update(&mut frozen, elapsed, inst);
        prop_assert_eq!(frozen.scaled, start * TRACK_SCALE);
    }

    #[test]
    fn pelt_converges_to_any_steady_load(
        start in 0u64..=64,
        inst in 0u64..=64,
    ) {
        let half_life = 8_000_000u64;
        let tracker = PeltTracker::new(LoadMetric::NrThreads, half_life);
        let mut state = TrackedLoad { scaled: start * TRACK_SCALE, last_update_ns: 0 };
        // 64 half-lives of steady load wipe out any starting deviation.
        tracker.update(&mut state, 64 * half_life, inst);
        prop_assert_eq!(state.scaled, inst * TRACK_SCALE);
        prop_assert_eq!(state.load(), inst);
    }
}

/// The trait-level contract the backends rely on: instantaneous trackers
/// mirror the input through the tracked view, so `LoadMetric::Tracked` is
/// meaningful under every built-in tracker.
#[test]
fn instantaneous_trackers_keep_tracked_equal_to_instantaneous() {
    let mut system = SystemState::from_loads(&[0, 3, 1]);
    for tracker in [TrackerSpec::NrThreads.build(), TrackerSpec::Weighted.build()] {
        system.tick(123, tracker.as_ref());
        for core in system.cores() {
            assert_eq!(core.load(LoadMetric::Tracked), core.load(tracker.base()));
        }
    }
}

/// A half step on a tracked thread count moves half the tracked imbalance,
/// in threads, on every substrate: the model, the lock-free runqueues and
/// the simulator all size it with the one `StealRule::plan`.  (The model
/// used to read a tracked imbalance in `nice 0` weights and steal one.)
#[test]
fn a_half_step_on_tracked_thread_counts_moves_the_same_number_everywhere() {
    use optimistic_sched::rq::{DequeRq, MultiQueue};
    use optimistic_sched::sim::{CoreQueues, OptimisticScheduler, SimScheduler, SimThread};
    use std::sync::Arc;

    let half_life = 8_000_000;
    let policy = || Policy::pelt(half_life).with_steal(StealRule::HalfImbalance);
    let warm = 32 * half_life;

    // The model: tracked loads [0, 7] after a long steady stretch.
    let mut system = SystemState::from_loads(&[0, 7]);
    system.tick(warm, policy().tracker.as_ref());
    assert_eq!(system.loads(LoadMetric::Tracked), vec![0, 7]);
    let balancer = Balancer::new(policy());
    let model = ConcurrentRound::new(&balancer).execute(&mut system, &RoundSchedule::Sequential);

    // The lock-free runqueues, warmed the same way.
    let mq: MultiQueue<DequeRq> = MultiQueue::with_tracker(2, Arc::clone(&policy().tracker));
    for _ in 0..7 {
        mq.spawn_on(CoreId(1));
    }
    mq.tick(warm);
    let rq = mq.balance_once(CoreId(0), &policy());

    // The simulator: one thread running on core 1, six waiting.
    let threads: Vec<SimThread> = (0..7)
        .map(|i| SimThread::new(optimistic_sched::sim::SimThreadId(i), Weight::NICE_0))
        .collect();
    let mut queues = CoreQueues::new(2);
    queues.set_current(CoreId(1), Some(threads[0].id));
    for thread in &threads[1..] {
        queues.enqueue(CoreId(1), thread.id);
    }
    // A long steady stretch leaves the PELT average at the thread count,
    // which is what one instantaneous fold writes.
    queues.touch(CoreId(1), 0, &NrThreadsTracker, LoadMetric::NrThreads, &threads);
    let sim = OptimisticScheduler::new(policy()).balance_round(&mut queues, &threads);

    assert_eq!(model.nr_stolen(), 3, "model");
    assert_eq!(rq.nr_stolen(), 3, "MultiQueue<DequeRq>");
    assert_eq!((sim.successes, sim.migrations), (1, 3), "simulator");
}
