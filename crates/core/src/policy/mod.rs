//! Load-balancing policies: the three user-defined steps of Figure 1.
//!
//! A policy is made of three independent pieces, matching the paper's
//! abstraction exactly:
//!
//! 1. a [`FilterPolicy`] — *"a core uses a filter function to create a list
//!    of other cores that it can steal from"* (step 1, `canSteal` in
//!    Listing 1),
//! 2. a [`ChoicePolicy`] — *"it chooses a core from this list (if any)"*
//!    (step 2, `selectCore` in Listing 1; this is where all the complex
//!    heuristics such as NUMA-aware placement live, and it is deliberately
//!    irrelevant to the work-conservation proof),
//! 3. a [`StealRule`] — *"the core steals thread(s) from the chosen
//!    core"* (step 3, `stealCore`/`stealOneThread` in Listing 1).
//!
//! The filter and the choice run in the lock-less selection phase and only
//! see read-only [`CoreSnapshot`]s.  The steal rule is a closed value whose
//! one sizing function, [`StealRule::plan`], reads the thief's and the
//! victim's snapshots too; each substrate then takes that many from the
//! victim in its own stealing phase.

pub mod choice;
pub mod greedy;
pub mod hierarchical;
pub mod simple;
pub mod steal;
pub mod topology_aware;
pub mod weighted;

use std::sync::Arc;

use crate::load::LoadMetric;
use crate::snapshot::CoreSnapshot;
use crate::tracker::{LoadTracker, PeltTracker, TrackerSpec};
use crate::CoreId;

pub use choice::{
    FirstChoice, MaxLoadChoice, MinMigrationCostChoice, NumaAwareChoice, RandomChoice,
};
pub use greedy::GreedyFilter;
pub use hierarchical::{GroupAwareChoice, NodeRestrictedFilter};
pub use simple::DeltaFilter;
pub use steal::{StealPlan, StealRule};
pub use topology_aware::TopologyAwareChoice;
pub use weighted::WeightedDeltaFilter;

/// Step 1 of a balancing round: decides which cores may be stolen from.
///
/// The filter is evaluated twice per attempt: once on the optimistic
/// snapshot during the selection phase, and once more on the live state at
/// the start of the stealing phase (Listing 1, line 12).  A filter that held
/// during selection but no longer holds at stealing time is exactly what the
/// paper calls a *failed* work-stealing attempt.
pub trait FilterPolicy: Send + Sync {
    /// Returns `true` if `thief` may steal from `victim` given these
    /// (possibly stale) observations.
    fn can_steal(&self, thief: &CoreSnapshot, victim: &CoreSnapshot) -> bool;

    /// Step 1's index claim, off by default.  `Some(δ)` claims "I admit
    /// exactly the victims whose `nr_threads` is at least the thief's plus
    /// δ", whatever else the snapshots say.  With
    /// [`ChoicePolicy::picks_most_threads`] it licenses a substrate to
    /// select from a count index instead of calling
    /// [`FilterPolicy::can_steal`] on every pair ([`Policy::index_threshold`]).
    ///
    /// A claim is a proof obligation, not a hint: `sched-verify`'s
    /// `lemmas::indexed_select` checks every claimant against
    /// [`Policy::select`], and an implementation that claims must be on
    /// that lemma's pinned list of claimants.
    fn count_threshold(&self) -> Option<u64> {
        None
    }

    /// Human-readable name used in reports and experiment tables.
    fn name(&self) -> &'static str;
}

/// Step 2 of a balancing round: picks one core from the filtered list.
///
/// The paper's key observation is that this step "can mostly be ignored in
/// the work-conserving proof": any choice that returns a member of the
/// candidate list preserves the proof, so NUMA-aware and cache-aware
/// heuristics are free.
pub trait ChoicePolicy: Send + Sync {
    /// Chooses a victim among `candidates` (which never contains the thief).
    ///
    /// Must return the id of one of the candidates, or `None` if the list is
    /// empty (Listing 1's `ensuring(res => cores.contains(res))`).  Nothing
    /// outside a policy calls this directly: every substrate selects through
    /// [`Policy::select`], which enforces the post-condition in every build
    /// profile — any other answer to a non-empty list is replaced by the
    /// first candidate, so a wrong choice can cost locality but never a
    /// panic, a steal from a core the filter refused, or a skipped steal.
    fn choose(&self, thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId>;

    /// A no-op that no substrate calls.  Step 2 keeps no memory: every
    /// choice is a function of the thief and the candidate list alone, so
    /// the outcome of a steal has nowhere to go.  The method survives only
    /// because the frozen repo benchmark (`benchmark/src/harness.rs`)
    /// implements it, forwarding to this default.  Add no new callers or
    /// implementations.
    fn observe(&self, thief: CoreId, victim: CoreId, success: bool) {
        let _ = (thief, victim, success);
    }

    /// Step 2's index claim, off by default.  `true` claims "on snapshots
    /// with `injected == 0`, I pick the candidate with the most threads,
    /// the lowest id among equals".  See [`FilterPolicy::count_threshold`]
    /// for what the claim licenses and how it is proven.
    fn picks_most_threads(&self) -> bool {
        false
    }

    /// Places a waking task: picks the core a wakeup should land on, given
    /// the waker's view of the machine.
    ///
    /// This is the dual of [`ChoicePolicy::choose`] — instead of a loaded
    /// victim to take work *from*, it wants the emptiest target to hand work
    /// *to*.  The default prefers the task's previous core while it is idle
    /// (cache affinity for free), then any idle core, then the least-loaded
    /// one.  Idleness ties break on the lowest **tracked** load, not the
    /// instantaneous queue length: two cores that are both momentarily idle
    /// can carry very different decayed histories, and placing on the one
    /// that has genuinely been idle avoids churning on transient blips.
    /// Remaining ties break on the lowest core id for determinism.
    fn place_wakeup(&self, prev: CoreId, candidates: &[CoreSnapshot]) -> Option<CoreId> {
        if candidates.iter().any(|c| c.id == prev && c.is_idle()) {
            return Some(prev);
        }
        candidates
            .iter()
            .filter(|c| c.is_idle())
            .min_by_key(|c| (c.tracked_scaled, c.id.0))
            .or_else(|| candidates.iter().min_by_key(|c| (c.tracked_scaled, c.id.0)))
            .map(|c| c.id)
    }

    /// Human-readable name used in reports and experiment tables.
    fn name(&self) -> &'static str;
}

/// A complete balancing policy: filter + choice + steal + the load
/// criterion the three steps (and the potential function) are measured in.
pub struct Policy {
    /// The load view the policy balances (and the potential is measured in);
    /// always equal to `tracker.view()`.
    pub metric: LoadMetric,
    /// The criterion maintaining the loads the steps read — which entities
    /// count, and whether/how history decays (see [`crate::tracker`]).
    pub tracker: Arc<dyn LoadTracker>,
    /// Step 1.
    pub filter: Box<dyn FilterPolicy>,
    /// Step 2.
    pub choice: Box<dyn ChoicePolicy>,
    /// Step 3, sized by [`StealRule::plan`].
    pub steal: StealRule,
}

impl Policy {
    /// Builds a policy balancing an instantaneous metric from its three
    /// steps.
    ///
    /// # Panics
    ///
    /// Panics on [`LoadMetric::Tracked`]: a tracked view does not say which
    /// tracker maintains it — use [`Policy::with_tracker`] instead.
    pub fn new(
        metric: LoadMetric,
        filter: Box<dyn FilterPolicy>,
        choice: Box<dyn ChoicePolicy>,
        steal: StealRule,
    ) -> Self {
        Policy {
            metric,
            tracker: TrackerSpec::instantaneous(metric).build(),
            filter,
            choice,
            steal,
        }
    }

    /// Builds a policy around an explicit load tracker; the steps read the
    /// tracker's view ([`LoadMetric::Tracked`] for decayed trackers).
    pub fn with_tracker(
        tracker: Arc<dyn LoadTracker>,
        filter: Box<dyn FilterPolicy>,
        choice: Box<dyn ChoicePolicy>,
        steal: StealRule,
    ) -> Self {
        Policy { metric: tracker.view(), tracker, filter, choice, steal }
    }

    /// The paper's Listing 1 policy: steal one thread from a core whose
    /// thread count exceeds ours by at least two, choosing the most loaded
    /// candidate.
    pub fn simple() -> Self {
        Policy::new(
            LoadMetric::NrThreads,
            Box::new(DeltaFilter::listing1()),
            Box::new(MaxLoadChoice::new(LoadMetric::NrThreads)),
            StealRule::One,
        )
    }

    /// The §4.3 counterexample policy: steal from *any* overloaded core
    /// (`canSteal(stealee) = stealee.load() >= 2`).  Not work-conserving
    /// under concurrency.
    pub fn greedy() -> Self {
        Policy::new(
            LoadMetric::NrThreads,
            Box::new(GreedyFilter::new()),
            Box::new(MaxLoadChoice::new(LoadMetric::NrThreads)),
            StealRule::One,
        )
    }

    /// A niceness-aware policy balancing weighted load, as discussed in §4.2
    /// ("a load balancer that tries to balance the number of threads weighted
    /// by their importance").
    pub fn weighted() -> Self {
        Policy::new(
            LoadMetric::Weighted,
            Box::new(WeightedDeltaFilter::new()),
            Box::new(MaxLoadChoice::new(LoadMetric::Weighted)),
            StealRule::Lightest,
        )
    }

    /// Listing 1 rebased onto a PELT-style decayed thread count: steal one
    /// thread when the *decayed* load difference reaches two, so brief
    /// bursts and idle blips no longer trigger migrations.
    pub fn pelt(half_life_ns: u64) -> Self {
        Policy::with_tracker(
            Arc::new(PeltTracker::new(LoadMetric::NrThreads, half_life_ns)),
            Box::new(DeltaFilter::new(LoadMetric::Tracked, 2)),
            Box::new(MaxLoadChoice::new(LoadMetric::Tracked)),
            StealRule::One,
        )
    }

    /// The weighted balancer rebased onto a PELT-style decayed weighted
    /// load: steal the lightest waiting thread when the decayed weighted
    /// difference reaches two `nice 0` units.
    pub fn pelt_weighted(half_life_ns: u64) -> Self {
        Policy::with_tracker(
            Arc::new(PeltTracker::new(LoadMetric::Weighted, half_life_ns)),
            Box::new(DeltaFilter::new(LoadMetric::Tracked, 2048)),
            Box::new(MaxLoadChoice::new(LoadMetric::Tracked)),
            StealRule::Lightest,
        )
    }

    /// Replaces the choice step, keeping filter and steal — the operation
    /// the paper argues is always proof-preserving.
    pub fn with_choice(mut self, choice: Box<dyn ChoicePolicy>) -> Self {
        self.choice = choice;
        self
    }

    /// Replaces the steal step.
    pub fn with_steal(mut self, steal: StealRule) -> Self {
        self.steal = steal;
        self
    }

    /// The selection phase — steps 1 and 2 of Listing 1 — for one thief,
    /// lock-less and read-only: the one place the filter and the choice are
    /// composed, shared by the model ([`crate::Balancer`]), the runqueues,
    /// the executor and the simulator, so the code `sched-verify` checks is
    /// the selection every substrate runs.
    ///
    /// `snapshots` are the observations to pick from, in the order the
    /// choice should see them (the thief's own, if present, is skipped);
    /// those the filter accepts are collected into `candidates`, the
    /// caller's buffer, which is cleared first and holds the candidate list
    /// afterwards.  Returns the chosen victim's snapshot, with
    /// [`ChoicePolicy::choose`]'s post-condition enforced: `None` exactly
    /// when no candidate passed.  How much the thief then takes is step 3's
    /// one sizing, [`StealRule::plan`].  A hierarchy is a choice here, never
    /// a narrower candidate list: see [`hierarchical`].
    pub fn select(
        &self,
        thief: &CoreSnapshot,
        snapshots: impl IntoIterator<Item = CoreSnapshot>,
        candidates: &mut Vec<CoreSnapshot>,
    ) -> Option<CoreSnapshot> {
        candidates.clear();
        candidates.extend(
            snapshots
                .into_iter()
                .filter(|victim| victim.id != thief.id && self.filter.can_steal(thief, victim)),
        );
        let answer = self.choice.choose(thief, candidates);
        candidates.iter().find(|c| Some(c.id) == answer).or(candidates.first()).copied()
    }

    /// The δ of an indexed selection, when both selection steps claim one:
    /// the filter [`FilterPolicy::count_threshold`] and the choice
    /// [`ChoicePolicy::picks_most_threads`].  Then, on snapshots with
    /// `injected == 0`, [`Policy::select`] answers the first core of the
    /// highest thread count if that count is at least the thief's plus δ,
    /// and nothing otherwise — an answer a substrate can read off a count
    /// index.  `None` when either step makes no claim: scan.
    pub fn index_threshold(&self) -> Option<u64> {
        self.filter.count_threshold().filter(|_| self.choice.picks_most_threads())
    }

    /// A compact `filter/choice/steal` description for reports.
    pub fn describe(&self) -> String {
        format!("{}/{}/{}", self.filter.name(), self.choice.name(), self.steal.name())
    }
}

impl std::fmt::Debug for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Policy")
            .field("metric", &self.metric)
            .field("tracker", &self.tracker.name())
            .field("filter", &self.filter.name())
            .field("choice", &self.choice.name())
            .field("steal", &self.steal.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_in_policies_describe_themselves() {
        assert_eq!(Policy::simple().describe(), "delta_filter/max_load/steal_one");
        assert_eq!(Policy::greedy().describe(), "greedy_filter/max_load/steal_one");
        assert_eq!(Policy::weighted().describe(), "weighted_delta_filter/max_load/steal_lightest");
    }

    #[test]
    fn with_choice_only_replaces_step_2() {
        let p = Policy::simple().with_choice(Box::new(FirstChoice));
        assert_eq!(p.describe(), "delta_filter/first/steal_one");
        assert_eq!(p.metric, LoadMetric::NrThreads);
    }

    #[test]
    fn select_filters_into_the_callers_buffer() {
        use crate::snapshot::SystemSnapshot;
        use crate::system::SystemState;

        let snapshot = SystemSnapshot::capture(&SystemState::from_loads(&[0, 3, 5, 1]));
        let thief = snapshot.core(CoreId(0));
        let all = || snapshot.cores().iter().copied();
        let ids = |list: &[CoreSnapshot]| list.iter().map(|c| c.id.0).collect::<Vec<_>>();
        let policy = Policy::simple();
        // Whatever the buffer held is gone; the thief and the core the
        // filter refuses (core 3, one thread) never enter it.
        let mut candidates = vec![*thief];
        let victim = policy.select(thief, all(), &mut candidates);
        assert_eq!(victim, Some(*snapshot.core(CoreId(2))), "the most loaded candidate");
        assert_eq!(ids(&candidates), [1, 2]);
        // The snapshots passed in are the list the choice sees.
        let victim = policy.select(thief, all().filter(|c| c.id != CoreId(2)), &mut candidates);
        assert_eq!(victim.map(|v| v.id), Some(CoreId(1)));
        assert_eq!(ids(&candidates), [1]);
        assert_eq!(policy.select(thief, std::iter::empty(), &mut candidates), None);
        assert!(candidates.is_empty());
    }

    #[test]
    fn only_listing1_shaped_recipes_claim_the_index() {
        assert_eq!(Policy::simple().index_threshold(), Some(2));
        for policy in [
            Policy::greedy(),
            Policy::weighted(),
            Policy::pelt(8_000_000),
            Policy::simple().with_choice(Box::new(FirstChoice)),
        ] {
            assert_eq!(policy.index_threshold(), None, "{}", policy.describe());
        }
    }

    #[test]
    fn debug_format_is_stable() {
        let p = Policy::simple();
        let s = format!("{p:?}");
        assert!(s.contains("delta_filter"));
        assert!(s.contains("NrThreads"));
    }

    #[test]
    fn instantaneous_policies_carry_matching_trackers() {
        assert_eq!(Policy::simple().tracker.name(), "nr_threads");
        assert_eq!(Policy::weighted().tracker.name(), "weighted");
        assert_eq!(Policy::simple().metric, Policy::simple().tracker.view());
    }

    #[test]
    fn pelt_policies_balance_the_tracked_view() {
        let p = Policy::pelt(8_000_000);
        assert_eq!(p.metric, LoadMetric::Tracked);
        assert!(p.tracker.is_decayed());
        assert_eq!(p.tracker.base(), LoadMetric::NrThreads);
        assert_eq!(p.describe(), "delta_filter/max_load/steal_one");
        let w = Policy::pelt_weighted(8_000_000);
        assert_eq!(w.tracker.base(), LoadMetric::Weighted);
        assert_eq!(w.describe(), "delta_filter/max_load/steal_lightest");
    }

    #[test]
    #[should_panic(expected = "does not name a tracker")]
    fn tracked_metric_needs_an_explicit_tracker() {
        let _ = Policy::new(
            LoadMetric::Tracked,
            Box::new(DeltaFilter::listing1()),
            Box::new(FirstChoice),
            StealRule::One,
        );
    }
}
