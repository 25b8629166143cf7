//! Step 3 of a balancing round: how many waiting threads migrate, and which.
//!
//! The step is one closed value, [`StealRule`], and one sizing function,
//! [`StealRule::plan`], which every substrate calls: the one stealing
//! phase of the model and the simulator, [`crate::steal_step`], picks that
//! many from the locked queues, the runqueues and the executor claim that
//! many.  The rule `sched-verify` checks is therefore the rule every
//! substrate runs.

use crate::load::LoadMetric;
use crate::policy::Policy;
use crate::snapshot::CoreSnapshot;
use crate::task::Weight;

/// Which of the victim's waiting threads one steal decision migrates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StealRule {
    /// One thread, the most recently queued — Listing 1's `stealOneThread`.
    /// Taking the newest keeps the threads that have waited longest in
    /// their FIFO position on their own core.
    #[default]
    One,
    /// One thread, the lightest waiting one: a weighted steal that can
    /// never overshoot and invert the weighted imbalance, which keeps the
    /// weighted potential strictly decreasing.
    Lightest,
    /// A fixed number of threads (at least one), newest first.
    Fixed(usize),
    /// Half the observed imbalance, newest first — CFS's batch migration.
    /// Moving half the surplus converges like binary search while never
    /// inverting the imbalance the filter approved (the P2 argument).  When
    /// `r` thieves of one round chose the same victim, each takes the live
    /// surplus divided by `1 + r`, so a herd shares the surplus instead of
    /// halving it thief after thief.
    HalfImbalance,
}

/// What one steal decision takes, as [`StealRule::plan`] sizes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealPlan {
    /// Waiting threads to migrate; at least one.
    pub count: usize,
    /// Take the lightest waiting threads rather than the newest.
    /// [`crate::steal_step`] picks by it; a runqueue claim keeps its own end.
    pub lightest: bool,
    /// A batch rule: see [`StealPlan::take`].
    keep_one: bool,
}

impl StealPlan {
    /// How many of a locked victim's `waiting` threads the plan takes: the
    /// count, capped at the queue, and for a batch rule ([`StealRule::Fixed`],
    /// [`StealRule::HalfImbalance`]) leaving one waiting thread behind when
    /// nothing is `running` there — the §4.2 "does not steal too much"
    /// obligation, which a snapshot cannot check because it does not tell a
    /// running thread from a waiting one.  A one-thread rule leaves that to
    /// the filter, as Listing 1 does: a sound filter never admits a victim
    /// holding a single thread.  A runqueue claim caps at its live counters
    /// instead.
    pub fn take(self, waiting: usize, running: bool) -> usize {
        self.count.min(waiting.saturating_sub(usize::from(self.keep_one && !running)))
    }
}

impl StealRule {
    /// Sizes one steal decision of `policy` from the thief's and the
    /// victim's observations — the only step-3 sizing there is.
    ///
    /// * `contenders` is `r`, the thieves of this round that chose this
    ///   victim and have not yet stolen, the thief included; a substrate that
    ///   does not count them passes 1.  Only [`StealRule::HalfImbalance`]
    ///   reads it.
    /// * Imbalances are measured in the unit of the policy tracker's base:
    ///   a thread for thread counts, a `nice 0` weight for weighted loads.
    /// * The count is at least one.
    /// * Past that it never exceeds the victim's threads minus one, so an
    ///   overloaded victim is never emptied: with a thread running there
    ///   every waiting thread may go, with none running one stays behind —
    ///   the §4.2 "does not steal too much" obligation.  A substrate that
    ///   holds the victim's queue applies the count through
    ///   [`StealPlan::take`].
    pub fn plan(
        self,
        policy: &Policy,
        thief: &CoreSnapshot,
        victim: &CoreSnapshot,
        contenders: usize,
    ) -> StealPlan {
        let wanted = match self {
            StealRule::One | StealRule::Lightest => 1,
            StealRule::Fixed(k) => k,
            StealRule::HalfImbalance => {
                let unit = match policy.tracker.base() {
                    LoadMetric::Weighted => Weight::NICE_0.raw(),
                    _ => 1,
                };
                let surplus = victim.load(policy.metric).saturating_sub(thief.load(policy.metric));
                let shares = contenders.max(1) as u64 + 1;
                usize::try_from(surplus / unit / shares).unwrap_or(usize::MAX)
            }
        };
        let spare = usize::try_from(victim.nr_threads.saturating_sub(1)).unwrap_or(usize::MAX);
        StealPlan {
            count: wanted.min(spare).max(1),
            lightest: self == StealRule::Lightest,
            keep_one: matches!(self, StealRule::Fixed(_) | StealRule::HalfImbalance),
        }
    }

    /// Human-readable name used in reports and experiment tables.
    pub fn name(self) -> String {
        match self {
            StealRule::One => "steal_one".into(),
            StealRule::Lightest => "steal_lightest".into(),
            StealRule::Fixed(k) => format!("steal_{k}"),
            StealRule::HalfImbalance => "steal_half".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::Balancer;
    use crate::outcome::StealOutcome;
    use crate::snapshot::SystemSnapshot;
    use crate::system::SystemState;
    use crate::task::{Nice, Task, TaskId};
    use crate::CoreId;

    fn sized(rule: StealRule, policy: &Policy, system: &SystemState) -> StealPlan {
        let snapshot = SystemSnapshot::capture(system);
        rule.plan(policy, snapshot.core(CoreId(0)), snapshot.core(CoreId(1)), 1)
    }

    /// What the model's stealing phase moves from core 1 to core 0.
    fn stolen(policy: Policy, system: &mut SystemState) -> StealOutcome {
        Balancer::new(policy).steal(system, CoreId(0), CoreId(1), 1)
    }

    #[test]
    fn steal_one_takes_the_newest_waiting_thread() {
        let mut s = SystemState::from_loads(&[0, 3]);
        let newest = s.core(CoreId(1)).ready.last().unwrap().id;
        let plan = sized(StealRule::One, &Policy::simple(), &s);
        assert_eq!((plan.count, plan.lightest), (1, false));
        let outcome = stolen(Policy::simple(), &mut s);
        assert_eq!(outcome, StealOutcome::Stole { victim: CoreId(1), tasks: vec![newest] });
    }

    #[test]
    fn steal_one_returns_nothing_for_an_empty_runqueue() {
        // A threshold-1 filter admits a victim whose one thread is running:
        // there is no waiting thread to take.
        let mut s = SystemState::from_loads(&[0, 1]);
        let policy = Policy::new(
            LoadMetric::NrThreads,
            Box::new(crate::policy::DeltaFilter::new(LoadMetric::NrThreads, 1)),
            Box::new(crate::policy::FirstChoice),
            StealRule::One,
        );
        assert_eq!(stolen(policy, &mut s), StealOutcome::NothingToSteal { victim: CoreId(1) });
    }

    #[test]
    fn a_batch_leaves_a_victim_with_nothing_running_its_last_waiting_thread() {
        // A threshold-1 filter admits a victim whose one thread waits with
        // nothing running (a thief's fresh batch): the count is one, and a
        // batch rule may spare nothing of the live queue.
        let admit_one = |rule| {
            let mut s = SystemState::new(2);
            s.core_mut(CoreId(1)).push_ready(Task::new(TaskId(0)));
            let policy = Policy::new(
                LoadMetric::NrThreads,
                Box::new(crate::policy::DeltaFilter::new(LoadMetric::NrThreads, 1)),
                Box::new(crate::policy::FirstChoice),
                rule,
            );
            assert_eq!(sized(rule, &policy, &s).count, 1);
            stolen(policy, &mut s)
        };
        for rule in [StealRule::Fixed(2), StealRule::HalfImbalance] {
            assert_eq!(admit_one(rule), StealOutcome::NothingToSteal { victim: CoreId(1) });
        }
        // Listing 1's one-thread steal leaves that to the filter (a sound
        // one never admits a lone thread), as it always has.
        assert_eq!(admit_one(StealRule::One).nr_stolen(), 1);
        // With a thread running there, every waiting thread may go.
        let mut s = SystemState::from_loads(&[0, 3]);
        let plan = sized(StealRule::Fixed(8), &Policy::simple(), &s);
        assert_eq!((plan.take(2, true), plan.take(2, false)), (2, 1));
        assert_eq!(stolen(Policy::simple().with_steal(StealRule::Fixed(8)), &mut s).nr_stolen(), 2);
    }

    #[test]
    fn steal_lightest_picks_minimum_weight() {
        let mut s = SystemState::new(2);
        s.core_mut(CoreId(1)).enqueue(Task::with_nice(TaskId(0), Nice::new(0)));
        s.core_mut(CoreId(1)).enqueue(Task::with_nice(TaskId(1), Nice::new(-10)));
        s.core_mut(CoreId(1)).enqueue(Task::with_nice(TaskId(2), Nice::new(10)));
        let plan = sized(StealRule::Lightest, &Policy::weighted(), &s);
        assert_eq!((plan.count, plan.lightest), (1, true));
        let outcome = stolen(Policy::weighted(), &mut s);
        assert_eq!(outcome, StealOutcome::Stole { victim: CoreId(1), tasks: vec![TaskId(2)] });
    }

    #[test]
    fn steal_half_halves_the_imbalance() {
        let mut s = SystemState::from_loads(&[0, 7]);
        let waiting = s.core(CoreId(1)).task_ids();
        let half = Policy::simple().with_steal(StealRule::HalfImbalance);
        assert_eq!(sized(StealRule::HalfImbalance, &half, &s).count, 3);
        assert_eq!(
            sized(StealRule::HalfImbalance, &half, &SystemState::from_loads(&[3, 9])).count,
            3
        );
        // Weighted policies size in nice-0 units.
        let weighted = Policy::weighted();
        assert_eq!(
            sized(StealRule::HalfImbalance, &weighted, &SystemState::from_loads(&[0, 8])).count,
            4
        );
        let outcome = stolen(half, &mut s);
        assert_eq!(outcome.nr_stolen(), 3);
        // All picked tasks were waiting tasks of the victim.
        if let StealOutcome::Stole { tasks, .. } = outcome {
            assert!(tasks.iter().all(|id| waiting[1..].contains(id)));
        }
    }

    #[test]
    fn steal_half_shares_the_live_surplus_among_contenders() {
        // r thieves that chose one victim each take surplus / (1 + r); r = 1
        // is the half, and a missing count reads as one.
        let half = Policy::simple().with_steal(StealRule::HalfImbalance);
        let snapshot = SystemSnapshot::capture(&SystemState::from_loads(&[0, 12]));
        let (thief, victim) = (snapshot.core(CoreId(0)), snapshot.core(CoreId(1)));
        let counts: Vec<usize> = [0, 1, 2, 3, 63]
            .map(|r| StealRule::HalfImbalance.plan(&half, thief, victim, r).count)
            .into();
        assert_eq!(counts, [6, 6, 4, 3, 1]);
        // The other rules ignore it.
        assert_eq!(StealRule::Fixed(4).plan(&half, thief, victim, 8).count, 4);
    }

    #[test]
    fn steal_half_never_returns_more_than_the_queue() {
        let half = Policy::simple().with_steal(StealRule::HalfImbalance);
        let mut s = SystemState::from_loads(&[0, 2]);
        assert_eq!(stolen(half, &mut s).nr_stolen(), 1);
        // Whatever the rule asks for, a victim keeps one thread.
        let policy = Policy::simple();
        assert_eq!(sized(StealRule::Fixed(0), &policy, &SystemState::from_loads(&[0, 9])).count, 1);
        assert_eq!(sized(StealRule::Fixed(8), &policy, &SystemState::from_loads(&[0, 2])).count, 1);
        assert_eq!(sized(StealRule::Fixed(8), &policy, &SystemState::from_loads(&[0, 5])).count, 4);
    }

    #[test]
    fn steal_half_on_a_tracked_metric_never_drains_the_victim() {
        // A tracked imbalance may be in weighted units (e.g. 4096 between
        // two cores under a weighted-base PELT tracker): the conversion
        // must not read it as "4096 threads" and empty the victim's queue.
        let mut s = SystemState::from_loads(&[0, 6]);
        let policy = Policy::pelt_weighted(1_000_000).with_steal(StealRule::HalfImbalance);
        s.tick(64_000_000, policy.tracker.as_ref());
        let count = sized(StealRule::HalfImbalance, &policy, &s).count;
        // Weighted imbalance 6×1024: halved and converted = 3 threads.
        assert_eq!(count, 3);
        assert!(count < s.core(CoreId(1)).ready.len() + 1);
        // Over a thread-count base the same tracked view is in threads.
        let mut s = SystemState::from_loads(&[0, 7]);
        let policy = Policy::pelt(1_000_000);
        s.tick(64_000_000, policy.tracker.as_ref());
        assert_eq!(sized(StealRule::HalfImbalance, &policy, &s).count, 3);
    }

    #[test]
    fn steal_half_declines_when_there_is_no_imbalance() {
        // The count is never zero; declining is the filter's job, and the
        // stealing phase re-checks it before taking anything.
        let mut s = SystemState::from_loads(&[3, 3]);
        let half = Policy::simple().with_steal(StealRule::HalfImbalance);
        assert_eq!(sized(StealRule::HalfImbalance, &half, &s).count, 1);
        assert_eq!(stolen(half, &mut s), StealOutcome::RecheckFailed { victim: CoreId(1) });
        assert_eq!(s.loads(LoadMetric::NrThreads), vec![3, 3]);
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<String> =
            [StealRule::One, StealRule::Lightest, StealRule::Fixed(4), StealRule::HalfImbalance]
                .into_iter()
                .map(StealRule::name)
                .collect();
        assert_eq!(names, ["steal_one", "steal_lightest", "steal_4", "steal_half"]);
    }
}
