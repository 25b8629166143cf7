//! The three steps of Figure 1 on a round's state: the selection phase
//! over a snapshot, and step 3, [`steal_step`], the one stealing phase.

use std::cmp::Reverse;

use crate::outcome::StealOutcome;
use crate::policy::Policy;
use crate::round::RoundState;
use crate::snapshot::SystemSnapshot;
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

/// Executes a [`Policy`]'s steps for the one round driver,
/// [`crate::round::ConcurrentRound`].
///
/// The selection phase ([`Balancer::select`]) and the stealing phase
/// ([`Balancer::steal`]) are separate so that the driver and the model
/// checker can interleave them; under [`crate::RoundSchedule::Sequential`]
/// each core runs both in isolation (the §4.2 sequential setting).  Both
/// act on any [`RoundState`]: the model's [`crate::SystemState`] or the
/// simulator's runqueues.
#[derive(Debug)]
pub struct Balancer {
    policy: Policy,
    /// The policy's [`Policy::index_threshold`], read once.
    pub(crate) index: Option<u64>,
}

impl Balancer {
    /// Creates a balancer executing `policy`.
    pub fn new(policy: Policy) -> Self {
        let index = policy.index_threshold();
        Balancer { policy, index }
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

    /// Stealing phase (step 3): [`steal_step`] under this balancer's policy.
    pub fn steal<S: RoundState>(
        &self,
        state: &mut S,
        thief: CoreId,
        victim: CoreId,
        contenders: usize,
    ) -> StealOutcome {
        steal_step(&self.policy, state, thief, victim, contenders).0
    }
}

/// Step 3, atomic with respect to the two runqueues: the one stealing phase
/// every round runs.  Re-checks the filter against the *live* state, as in
/// Listing 1 line 12 — this is where a stale selection fails — then takes
/// what [`crate::StealRule::plan`] sizes from the live observations and
/// `contenders` (the round's thieves that chose `victim` and have not yet
/// stolen, this one included), capped by the live queue: the newest first,
/// or the lightest first and the newest among equals.  Returns the outcome
/// and the plan's count, 0 when the re-check failed.
pub fn steal_step<S: RoundState>(
    policy: &Policy,
    state: &mut S,
    thief: CoreId,
    victim: CoreId,
    contenders: usize,
) -> (StealOutcome, usize) {
    let (live_thief, live_victim) = (state.snapshot(thief), state.snapshot(victim));
    if !policy.filter.can_steal(&live_thief, &live_victim) {
        return (StealOutcome::RecheckFailed { victim }, 0);
    }
    let plan = policy.steal.plan(policy, &live_thief, &live_victim, contenders);
    let (waiting, running) = state.queue(victim);
    let picks = picks(state, victim, plan.take(waiting, running), plan.lightest);
    let moved = state.migrate_ready(victim, thief, &picks);
    let outcome = if moved.is_empty() {
        StealOutcome::NothingToSteal { victim }
    } else {
        StealOutcome::Stole { victim, tasks: moved }
    };
    (outcome, plan.count)
}

/// The runqueue positions of `victim` step 3 takes, in the order it moves
/// them: the `take` newest, or for a lightest-first plan the `take`
/// lightest, newest first among equals — selected and ordered once, not
/// rescanned per thread moved.
fn picks<S: RoundState>(state: &S, victim: CoreId, take: usize, lightest: bool) -> Vec<usize> {
    let waiting = state.queue(victim).0;
    if !lightest {
        return (0..waiting).rev().take(take).collect();
    }
    let key = |&i: &usize| (state.ready_weight(victim, i), Reverse(i));
    let mut picks: Vec<usize> = (0..waiting).collect();
    if take < picks.len() {
        picks.select_nth_unstable_by_key(take, key);
        picks.truncate(take);
    }
    picks.sort_unstable_by_key(key);
    picks
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::load::LoadMetric;
    use crate::outcome::RoundReport;
    use crate::policy::Policy;
    use crate::round::{ConcurrentRound, RoundSchedule};
    use crate::system::SystemState;
    use crate::task::{Nice, Task, TaskId};

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

    /// The loop the one-pass picks replaced: rescan the live runqueue for
    /// each thread moved, the newest of the lightest (or the newest).
    fn rescanning(system: &mut SystemState, take: usize, lightest: bool) -> Vec<TaskId> {
        let (victim, thief) = (CoreId(0), CoreId(1));
        let mut moved = Vec::new();
        while moved.len() < take {
            let ready = &system.core(victim).ready;
            let pick = if lightest {
                (0..ready.len()).rev().min_by_key(|&i| ready[i].weight())
            } else {
                ready.len().checked_sub(1)
            };
            let Some(id) = pick.map(|i| ready[i].id) else {
                break;
            };
            system.migrate(victim, thief, id);
            moved.push(id);
        }
        moved
    }

    proptest! {
        #[test]
        fn one_pass_picks_move_what_the_rescan_moved(
            nices in prop::collection::vec(0usize..4, 0..16),
            take in 0usize..18,
            lightest in any::<bool>(),
        ) {
            // Few distinct weights, so equal weights are common.
            let mut system = SystemState::new(2);
            for (i, &n) in nices.iter().enumerate() {
                let task = Task::with_nice(TaskId(i as u64), Nice::new([-5, 0, 0, 19][n]));
                system.core_mut(CoreId(0)).push_ready(task);
            }
            let take = take.min(nices.len());
            let mut oracle = system.clone();
            let expected = rescanning(&mut oracle, take, lightest);
            let picks = picks(&system, CoreId(0), take, lightest);
            let moved = system.migrate_ready(CoreId(0), CoreId(1), &picks);
            prop_assert_eq!(&moved, &expected);
            prop_assert_eq!(&system, &oracle);
        }
    }
}
