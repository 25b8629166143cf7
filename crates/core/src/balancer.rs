//! The three-step balancer of Figure 1, applied to the pure scheduler state.

use crate::outcome::StealOutcome;
use crate::policy::Policy;
use crate::snapshot::{CoreSnapshot, SystemSnapshot};
use crate::system::SystemState;
use crate::task::{Task, TaskId};
use crate::CoreId;

/// The result of a selection phase: the filtered candidates (step 1) and the
/// chosen victim (step 2), both computed from a read-only snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// Cores that passed the filter, in id order.
    pub candidates: Vec<CoreId>,
    /// The victim chosen among the candidates, if any.
    pub chosen: Option<CoreId>,
}

/// Executes a [`Policy`] against a [`SystemState`].
///
/// The balancer exposes the selection and stealing phases separately so that
/// the concurrent-round executor ([`crate::round::ConcurrentRound`]) and the
/// model checker can interleave them; under
/// [`crate::RoundSchedule::Sequential`] each core runs both in isolation
/// (the §4.2 sequential setting).
pub struct Balancer {
    policy: Policy,
}

impl Balancer {
    /// Creates a balancer executing `policy`.
    pub fn new(policy: Policy) -> Self {
        Balancer { policy }
    }

    /// The policy being executed.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Selection phase (steps 1 and 2): lock-less and read-only.
    ///
    /// Consumes only the snapshot — by construction it cannot modify any
    /// runqueue, which is the concurrency model restriction of §3.1.
    pub fn select(&self, snapshot: &SystemSnapshot, thief: CoreId) -> Selection {
        let mut candidates = Vec::new();
        let chosen = self.policy.select(
            snapshot.core(thief),
            snapshot.cores().iter().copied(),
            &mut candidates,
        );
        Selection {
            candidates: candidates.iter().map(|c| c.id).collect(),
            chosen: chosen.map(|c| c.id),
        }
    }

    /// Stealing phase (step 3): atomic with respect to the two runqueues.
    ///
    /// Re-checks the filter against the *live* state before migrating, as in
    /// Listing 1 line 12 — this is where optimistic selections are detected
    /// to have gone stale.  `contenders` is the round's count of thieves
    /// that chose `victim` and have not yet stolen, this one included
    /// ([`crate::StealRule::plan`]).
    pub fn steal(
        &self,
        system: &mut SystemState,
        thief: CoreId,
        victim: CoreId,
        contenders: usize,
    ) -> StealOutcome {
        let thief_snap = CoreSnapshot::capture(system.core(thief));
        let victim_snap = CoreSnapshot::capture(system.core(victim));
        if !self.policy.filter.can_steal(&thief_snap, &victim_snap) {
            return StealOutcome::RecheckFailed { victim };
        }
        // Step 3 picks the planned number of waiting threads, newest first
        // or lightest first (newest among equals) as the rule asks, capped
        // by the live queue (§4.2, "does not steal too much").
        let plan = self.policy.steal.plan(&self.policy, &thief_snap, &victim_snap, contenders);
        let live = system.core(victim);
        let take = plan.take(live.ready.len(), live.current.is_some());
        let tasks: Vec<TaskId> = if plan.lightest {
            let mut waiting: Vec<&Task> = live.ready.iter().rev().collect();
            waiting.sort_by_key(|t| t.weight());
            waiting.into_iter().take(take).map(|t| t.id).collect()
        } else {
            live.ready.iter().rev().take(take).map(|t| t.id).collect()
        };
        if tasks.is_empty() {
            return StealOutcome::NothingToSteal { victim };
        }
        let mut moved = Vec::with_capacity(tasks.len());
        for id in tasks {
            if system.migrate(victim, thief, id) {
                moved.push(id);
            }
        }
        if moved.is_empty() {
            StealOutcome::NothingToSteal { victim }
        } else {
            StealOutcome::Stole { victim, tasks: moved }
        }
    }
}

impl std::fmt::Debug for Balancer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Balancer").field("policy", &self.policy).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LoadMetric;
    use crate::outcome::RoundReport;
    use crate::policy::Policy;
    use crate::round::{ConcurrentRound, RoundSchedule};

    /// §4.2's sequential round: each core runs all three steps in isolation.
    fn sequential_round(balancer: &Balancer, system: &mut SystemState) -> RoundReport {
        ConcurrentRound::new(balancer).execute(system, &RoundSchedule::Sequential)
    }

    #[test]
    fn sequential_round_fixes_a_simple_imbalance() {
        let mut system = SystemState::from_loads(&[0, 3, 1]);
        let balancer = Balancer::new(Policy::simple());
        let report = sequential_round(&balancer, &mut system);
        assert_eq!(report.nr_successes(), 1);
        assert_eq!(report.nr_failures(), 0, "no failures without concurrency");
        assert!(system.is_work_conserving());
        assert!(system.tasks_are_unique());
        assert_eq!(system.loads(LoadMetric::NrThreads), vec![1, 2, 1]);
    }

    #[test]
    fn idle_system_has_no_candidates() {
        let mut system = SystemState::from_loads(&[0, 0, 0]);
        let balancer = Balancer::new(Policy::simple());
        let report = sequential_round(&balancer, &mut system);
        assert!(report.attempts.iter().all(|a| a.outcome == StealOutcome::NoCandidates));
    }

    #[test]
    fn selection_is_read_only() {
        let system = SystemState::from_loads(&[0, 3]);
        let snapshot = SystemSnapshot::capture(&system);
        let balancer = Balancer::new(Policy::simple());
        let before = system.clone();
        let selection = balancer.select(&snapshot, CoreId(0));
        assert_eq!(selection.chosen, Some(CoreId(1)));
        assert_eq!(system, before, "the selection phase must not modify runqueues");
    }

    #[test]
    fn steal_recheck_fails_on_stale_selection() {
        // Core 0 selects core 2 while it is overloaded; the state then
        // changes (someone else stole first); core 0's steal must fail.
        let mut system = SystemState::from_loads(&[0, 0, 2]);
        let balancer = Balancer::new(Policy::simple());
        let snapshot = SystemSnapshot::capture(&system);
        let selection = balancer.select(&snapshot, CoreId(0));
        assert_eq!(selection.chosen, Some(CoreId(2)));

        // A concurrent steal by core 1 empties core 2's runqueue.
        let stolen = system.core(CoreId(2)).ready[0].id;
        system.migrate(CoreId(2), CoreId(1), stolen);

        let outcome = balancer.steal(&mut system, CoreId(0), CoreId(2), 1);
        assert_eq!(outcome, StealOutcome::RecheckFailed { victim: CoreId(2) });
        assert!(system.tasks_are_unique());
    }

    #[test]
    fn steal_never_takes_the_victims_current_thread() {
        let mut system = SystemState::from_loads(&[0, 2]);
        let balancer = Balancer::new(Policy::simple());
        let running = system.core(CoreId(1)).current.as_ref().unwrap().id;
        match balancer.steal(&mut system, CoreId(0), CoreId(1), 1) {
            StealOutcome::Stole { tasks, .. } => assert!(!tasks.contains(&running)),
            other => panic!("expected a successful steal, got {other:?}"),
        }
        assert!(!system.core(CoreId(1)).is_idle(), "a steal must never empty the victim");
    }

    #[test]
    fn non_idle_cores_also_balance() {
        // Core 0 has one thread, core 1 has four: even though core 0 is not
        // idle, the model lets every core run balancing operations (§3.1).
        let mut system = SystemState::from_loads(&[1, 4]);
        let balancer = Balancer::new(Policy::simple());
        let report = sequential_round(&balancer, &mut system);
        assert_eq!(report.nr_successes(), 1);
        assert_eq!(system.loads(LoadMetric::NrThreads), vec![2, 3]);
    }
}
