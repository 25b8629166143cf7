//! Niceness-aware filter balancing weighted load.

use crate::policy::FilterPolicy;
use crate::snapshot::CoreSnapshot;

/// A filter that balances the *weighted* load while staying work-conserving.
///
/// §4.2 reports that the Listing 2 proof "is still automatically verified for
/// a load balancer that tries to balance the number of threads weighted by
/// their importance".  The condition used here is:
///
/// ```text
/// canSteal(victim) = victim.nr_threads >= 2
///                 && victim.weighted_load > thief.weighted_load
///                                           + victim.lightest_ready_weight
/// ```
///
/// * the `nr_threads >= 2` conjunct keeps the filter *sound* — it never
///   targets a core that is not overloaded, so a successful steal can never
///   empty the victim (Lemma 1, second conjunct);
/// * the margin of one "lightest waiting thread of the victim" keeps the
///   filter *complete* for idle thieves — an overloaded victim always has at
///   least one more thread than its lightest waiting thread, so an idle
///   thief (weighted load 0) always passes (Lemma 1, first conjunct);
/// * the same margin is exactly what makes every successful steal (which
///   migrates that lightest waiting thread, see
///   [`crate::StealRule::Lightest`]) strictly decrease the weighted
///   potential `d`, which is the §4.3 P2 termination argument.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WeightedDeltaFilter {
    _private: (),
}

impl WeightedDeltaFilter {
    /// Creates the weighted filter.
    pub fn new() -> Self {
        WeightedDeltaFilter { _private: () }
    }
}

impl FilterPolicy for WeightedDeltaFilter {
    fn can_steal(&self, thief: &CoreSnapshot, victim: &CoreSnapshot) -> bool {
        let Some(lightest) = victim.lightest_ready_weight else {
            // Nothing is waiting on the victim, so there is nothing to steal.
            return false;
        };
        victim.nr_threads >= 2 && victim.weighted_load > thief.weighted_load + lightest
    }

    fn name(&self) -> &'static str {
        "weighted_delta_filter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SystemSnapshot;
    use crate::system::SystemState;
    use crate::task::{Nice, Task, TaskId, Weight};
    use crate::CoreId;
    use sched_topology::NodeId;

    fn snap(id: usize, nr: u64, weighted: u64, lightest: Option<u64>) -> CoreSnapshot {
        CoreSnapshot {
            id: CoreId(id),
            node: NodeId(0),
            nr_threads: nr,
            weighted_load: weighted,
            lightest_ready_weight: lightest,
            tracked_scaled: 0,
            injected: 0,
        }
    }

    #[test]
    fn idle_thief_always_passes_against_overloaded_victim() {
        let f = WeightedDeltaFilter::new();
        let thief = snap(0, 0, 0, None);
        // Worst case: two nice-19 threads, the lightest overloaded core
        // possible (one running, one waiting).
        let victim = snap(1, 2, 2 * Weight::MIN.raw(), Some(Weight::MIN.raw()));
        assert!(f.can_steal(&thief, &victim));
    }

    #[test]
    fn never_targets_a_non_overloaded_core() {
        let f = WeightedDeltaFilter::new();
        let thief = snap(0, 0, 0, None);
        // One very heavy running thread: huge weighted load, nothing waiting.
        let victim = snap(1, 1, Weight::MAX.raw(), None);
        assert!(!f.can_steal(&thief, &victim));
    }

    #[test]
    fn a_torn_snapshot_never_admits_a_lone_thread() {
        // A lock-free runqueue reads its counters and its lightest-waiting
        // hint separately, so a snapshot can pair one thread with a hint that
        // outlived its waiter.  Only the `nr_threads >= 2` conjunct keeps the
        // filter off that victim; on a consistent snapshot it is implied.
        let f = WeightedDeltaFilter::new();
        let thief = snap(0, 0, 0, None);
        let torn = snap(1, 1, Weight::NICE_0.raw(), Some(Weight::MIN.raw()));
        assert!(!f.can_steal(&thief, &torn));
    }

    #[test]
    fn requires_more_imbalance_than_the_lightest_waiting_thread() {
        let f = WeightedDeltaFilter::new();
        // Thief and victim both hold nice-0 threads; the victim is only one
        // thread ahead, so stealing would just swap the imbalance.
        let thief = snap(0, 1, 1024, None);
        let victim = snap(1, 2, 2048, Some(1024));
        assert!(!f.can_steal(&thief, &victim));
        // A second waiting thread tips the balance.
        let heavier = snap(1, 3, 3072, Some(1024));
        assert!(f.can_steal(&thief, &heavier));
    }

    #[test]
    fn a_light_waiting_thread_can_move_even_under_small_imbalance() {
        let f = WeightedDeltaFilter::new();
        let thief = snap(0, 1, 1024, None);
        // Victim runs a nice-0 thread and queues two nice-19 threads:
        // stealing one light thread still strictly reduces the imbalance,
        // so the filter accepts even though the imbalance is tiny.
        let victim = snap(1, 3, 1024 + 30, Some(15));
        assert!(f.can_steal(&thief, &victim));
        // With a single light waiting thread the steal would only swap the
        // imbalance, so the filter declines.
        let marginal = snap(1, 2, 1024 + 15, Some(15));
        assert!(!f.can_steal(&thief, &marginal));
    }

    #[test]
    fn respects_real_weights_from_niceness() {
        let mut s = SystemState::new(2);
        s.core_mut(CoreId(1)).enqueue(Task::with_nice(TaskId(0), Nice::new(-10)));
        s.core_mut(CoreId(1)).enqueue(Task::with_nice(TaskId(1), Nice::new(5)));
        let snapshot = SystemSnapshot::capture(&s);
        let f = WeightedDeltaFilter::new();
        assert!(f.can_steal(snapshot.core(CoreId(0)), snapshot.core(CoreId(1))));
        assert!(!f.can_steal(snapshot.core(CoreId(1)), snapshot.core(CoreId(0))));
    }
}
