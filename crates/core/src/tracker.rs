//! Pluggable per-entity load tracking — the *criterion* of load balancing.
//!
//! "We make no assumption on the criteria used to define how the load
//! should be balanced." (§3.1)  Earlier revisions hard-coded that criterion
//! as a two-variant enum (instantaneous thread counts or instantaneous
//! weighted load); this module makes it a first-class abstraction: a
//! [`LoadTracker`] owns both the *definition* of a core's load and the way
//! that definition *evolves over time*.
//!
//! Three trackers ship with the crate:
//!
//! * [`NrThreadsTracker`] — instantaneous thread counts (Listing 1's
//!   `load() = ready.size + current.size`),
//! * [`WeightedTracker`] — instantaneous niceness-weighted load (§4.2),
//! * [`PeltTracker`] — a PELT-style **geometrically decayed** load average
//!   with a configurable half-life, modelled on CFS's per-entity load
//!   tracking: the tracked value converges toward the instantaneous load,
//!   and the *deviation* halves every half-life.  A core that briefly goes
//!   idle keeps most of its history, so balancers driven by this tracker do
//!   not thrash on bursty on/off workloads the way instantaneous balancers
//!   do.
//!
//! Tracked values are maintained per core as a [`TrackedLoad`] accumulator
//! (fixed point, scaled by [`TRACK_SCALE`]) and surfaced to the lock-less
//! selection phase through [`crate::CoreSnapshot::tracked_scaled`]; policies
//! read them via [`crate::LoadMetric::Tracked`].  Each backend updates the
//! accumulator at its own natural points: the pure model on explicit
//! [`crate::SystemState::tick`]s, the simulator on every run/sleep/wakeup
//! event, and the concurrent runqueues on enqueue/dequeue/tick under the
//! runqueue lock.

use std::sync::Arc;

use crate::load::LoadMetric;

/// Fixed-point scale of tracked load values: one unit of instantaneous load
/// is `TRACK_SCALE` scaled units.
pub const TRACK_SCALE: u64 = 1024;

/// Per-core decayed-load accumulator.
///
/// `scaled` is in units of the tracker's base metric times [`TRACK_SCALE`];
/// `last_update_ns` is the timestamp of the most recent fold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TrackedLoad {
    /// Tracked load, scaled by [`TRACK_SCALE`].
    pub scaled: u64,
    /// Time of the last update, in nanoseconds.
    pub last_update_ns: u64,
}

impl TrackedLoad {
    /// The tracked load rounded back to base-metric units.
    pub fn load(&self) -> u64 {
        round_scaled(self.scaled)
    }
}

/// Rounds a scaled tracked value back to base-metric units (round half
/// up).  The single definition of this rule: the locked [`TrackedLoad`]
/// view and the lock-less snapshot view must agree bit for bit, or the
/// selection phase and the steal-phase re-check would judge the same
/// tracked load differently.
pub fn round_scaled(scaled: u64) -> u64 {
    (scaled + TRACK_SCALE / 2) / TRACK_SCALE
}

/// Pure geometric decay: halves `scaled` for every full `half_life_ns` of
/// `elapsed_ns`, interpolating linearly within a half-life.
///
/// The result is never larger than the input, is the identity at zero
/// elapsed time, and is monotonically non-increasing in `elapsed_ns` — the
/// three properties the decay proptests pin down.
///
/// # Panics
///
/// Panics if `half_life_ns` is zero.
pub fn decay_scaled(scaled: u64, elapsed_ns: u64, half_life_ns: u64) -> u64 {
    assert!(half_life_ns > 0, "a decay needs a positive half-life");
    let halvings = elapsed_ns / half_life_ns;
    if halvings >= u64::BITS as u64 {
        return 0;
    }
    let whole = scaled >> halvings;
    let frac = elapsed_ns % half_life_ns;
    if frac == 0 {
        return whole;
    }
    // Linear interpolation of 2^-x on [0, 1): factor (2h - frac) / 2h walks
    // from 1 at frac = 0 to 1/2 at frac = h, so the decay is continuous
    // across half-life boundaries and exact at every multiple of h.
    let num = u128::from(whole) * u128::from(2 * half_life_ns - frac);
    (num / u128::from(2 * half_life_ns)) as u64
}

/// The load criterion a balancing policy is built around.
///
/// A tracker defines (a) which snapshot field the policy's filter and
/// choice steps read ([`LoadTracker::view`]), (b) the instantaneous metric
/// entities are weighted by ([`LoadTracker::base`]), and (c) how a core's
/// [`TrackedLoad`] accumulator folds in a new observation
/// ([`LoadTracker::update`]).  Implementations must be *monotone*: a larger
/// instantaneous load never yields a smaller tracked value, which is what
/// the work-conservation lemma for tracked policies relies on (see
/// `sched-verify`'s decay lemmas).
///
/// [`LoadTracker::view`], [`LoadTracker::base`] and
/// [`LoadTracker::is_decayed`] are constants of the tracker: every call
/// returns the same answer, so a substrate may read them once, when it is
/// built, and never again (the simulator's machine does).
pub trait LoadTracker: Send + Sync + std::fmt::Debug {
    /// The snapshot view the balancing steps read under this criterion.
    ///
    /// Instantaneous trackers return their base metric; decayed trackers
    /// return [`LoadMetric::Tracked`].
    fn view(&self) -> LoadMetric;

    /// The instantaneous metric a core's entities are weighted by.
    fn base(&self) -> LoadMetric;

    /// Folds the instantaneous load `inst` (in base-metric units) observed
    /// at `now_ns` into `state`.
    fn update(&self, state: &mut TrackedLoad, now_ns: u64, inst: u64);

    /// Returns `true` if the tracked value decays over time (and therefore
    /// needs periodic ticks even when the queues do not change).
    fn is_decayed(&self) -> bool {
        false
    }

    /// Human-readable name used in reports and experiment records.
    fn name(&self) -> String;
}

/// Instantaneous thread counts: the tracker behind the paper's Listing 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NrThreadsTracker;

impl LoadTracker for NrThreadsTracker {
    fn view(&self) -> LoadMetric {
        LoadMetric::NrThreads
    }

    fn base(&self) -> LoadMetric {
        LoadMetric::NrThreads
    }

    fn update(&self, state: &mut TrackedLoad, now_ns: u64, inst: u64) {
        state.scaled = inst * TRACK_SCALE;
        state.last_update_ns = now_ns;
    }

    fn name(&self) -> String {
        "nr_threads".into()
    }
}

/// Instantaneous niceness-weighted load (§4.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WeightedTracker;

impl LoadTracker for WeightedTracker {
    fn view(&self) -> LoadMetric {
        LoadMetric::Weighted
    }

    fn base(&self) -> LoadMetric {
        LoadMetric::Weighted
    }

    fn update(&self, state: &mut TrackedLoad, now_ns: u64, inst: u64) {
        state.scaled = inst * TRACK_SCALE;
        state.last_update_ns = now_ns;
    }

    fn name(&self) -> String {
        "weighted".into()
    }
}

/// PELT-style decayed load average with a configurable half-life.
///
/// The tracked value is an exponential average that chases the
/// instantaneous load: after an update at distance `t` from the previous
/// one, the *deviation* from the instantaneous load is multiplied by
/// `2^(-t / half_life)`.  Steady loads therefore converge to their
/// instantaneous value (the decay-convergence lemma), while short bursts
/// and brief idle gaps barely move the average — the hysteresis that stops
/// balancers from thrashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeltTracker {
    base: LoadMetric,
    half_life_ns: u64,
}

impl PeltTracker {
    /// Creates a tracker decaying `base` loads with the given half-life.
    ///
    /// # Panics
    ///
    /// Panics if `half_life_ns` is zero or `base` is itself
    /// [`LoadMetric::Tracked`] (a tracker cannot track itself).
    pub fn new(base: LoadMetric, half_life_ns: u64) -> Self {
        assert!(half_life_ns > 0, "a PELT tracker needs a positive half-life");
        assert!(base != LoadMetric::Tracked, "a PELT tracker needs an instantaneous base metric");
        PeltTracker { base, half_life_ns }
    }

    /// The half-life of the decayed average, in nanoseconds.
    pub fn half_life_ns(&self) -> u64 {
        self.half_life_ns
    }
}

impl LoadTracker for PeltTracker {
    fn view(&self) -> LoadMetric {
        LoadMetric::Tracked
    }

    fn base(&self) -> LoadMetric {
        self.base
    }

    fn update(&self, state: &mut TrackedLoad, now_ns: u64, inst: u64) {
        let elapsed = now_ns.saturating_sub(state.last_update_ns);
        let target = inst * TRACK_SCALE;
        // Decay the deviation, not the sum: new = inst + (old - inst)·2^-t/h.
        // Both branches stay within [min(old, target), max(old, target)], so
        // the tracked value is never negative and never overshoots.
        state.scaled = if state.scaled >= target {
            target + decay_scaled(state.scaled - target, elapsed, self.half_life_ns)
        } else {
            target - decay_scaled(target - state.scaled, elapsed, self.half_life_ns)
        };
        state.last_update_ns = now_ns;
    }

    fn is_decayed(&self) -> bool {
        true
    }

    fn name(&self) -> String {
        let base = match self.base {
            LoadMetric::NrThreads => "nr_threads",
            LoadMetric::Weighted => "weighted",
            LoadMetric::Tracked => unreachable!("rejected by the constructor"),
        };
        format!("pelt({base}, {}ms)", self.half_life_ns / 1_000_000)
    }
}

/// A cheap, copyable recipe for building a tracker — the configuration-layer
/// companion of the [`LoadTracker`] trait (the DSL front-end and the bench
/// runner hold specs; execution layers hold built trackers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerSpec {
    /// Instantaneous thread counts.
    NrThreads,
    /// Instantaneous weighted load.
    Weighted,
    /// PELT-style decayed average of `base` with the given half-life.
    Pelt {
        /// Instantaneous metric underneath the decayed average.
        base: LoadMetric,
        /// Half-life of the decay, in nanoseconds.
        half_life_ns: u64,
    },
}

impl TrackerSpec {
    /// Builds the tracker this spec describes.
    pub fn build(self) -> Arc<dyn LoadTracker> {
        match self {
            TrackerSpec::NrThreads => Arc::new(NrThreadsTracker),
            TrackerSpec::Weighted => Arc::new(WeightedTracker),
            TrackerSpec::Pelt { base, half_life_ns } => {
                Arc::new(PeltTracker::new(base, half_life_ns))
            }
        }
    }

    /// The spec matching an instantaneous metric.
    ///
    /// # Panics
    ///
    /// Panics on [`LoadMetric::Tracked`]: a tracked view does not determine
    /// which tracker maintains it.
    pub fn instantaneous(metric: LoadMetric) -> Self {
        match metric {
            LoadMetric::NrThreads => TrackerSpec::NrThreads,
            LoadMetric::Weighted => TrackerSpec::Weighted,
            LoadMetric::Tracked => {
                panic!("LoadMetric::Tracked does not name a tracker; build one explicitly")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_is_identity_at_zero_elapsed_time() {
        for v in [0u64, 1, 1024, 88761 * 1024] {
            assert_eq!(decay_scaled(v, 0, 1_000_000), v);
        }
    }

    #[test]
    fn decay_halves_per_full_half_life() {
        assert_eq!(decay_scaled(4096, 1_000_000, 1_000_000), 2048);
        assert_eq!(decay_scaled(4096, 2_000_000, 1_000_000), 1024);
        assert_eq!(decay_scaled(4096, 64_000_000, 1_000_000), 0);
    }

    #[test]
    fn decay_is_monotone_and_bounded() {
        let mut prev = 10_000u64;
        for elapsed in (0..4_000_000u64).step_by(100_000) {
            let v = decay_scaled(10_000, elapsed, 1_000_000);
            assert!(v <= prev, "decay must be monotone in elapsed time");
            assert!(v <= 10_000);
            prev = v;
        }
    }

    #[test]
    fn huge_elapsed_times_decay_to_zero() {
        assert_eq!(decay_scaled(u64::MAX, u64::MAX, 1), 0);
    }

    #[test]
    fn instantaneous_trackers_mirror_the_input() {
        let tracker = NrThreadsTracker;
        let mut state = TrackedLoad::default();
        tracker.update(&mut state, 123, 7);
        assert_eq!(state.scaled, 7 * TRACK_SCALE);
        assert_eq!(state.load(), 7);
        assert!(!tracker.is_decayed());
        assert_eq!(tracker.view(), LoadMetric::NrThreads);
    }

    #[test]
    fn pelt_converges_toward_a_steady_load() {
        let tracker = PeltTracker::new(LoadMetric::NrThreads, 1_000_000);
        let mut state = TrackedLoad::default();
        let mut prev_gap = 4 * TRACK_SCALE;
        for tick in 1..=20u64 {
            tracker.update(&mut state, tick * 1_000_000, 4);
            let gap = (4 * TRACK_SCALE).abs_diff(state.scaled);
            assert!(gap <= prev_gap / 2 + 1, "deviation must halve per half-life");
            prev_gap = gap;
        }
        assert_eq!(state.load(), 4, "a steady load converges to its instantaneous value");
    }

    #[test]
    fn pelt_retains_history_through_a_brief_idle_gap() {
        let tracker = PeltTracker::new(LoadMetric::NrThreads, 8_000_000);
        let mut state = TrackedLoad::default();
        // Warm up at load 2 for many half-lives.
        tracker.update(&mut state, 100 * 8_000_000, 2);
        assert_eq!(state.load(), 2);
        // A 1 ms idle blip (an eighth of a half-life) barely moves it.
        tracker.update(&mut state, 100 * 8_000_000 + 1_000_000, 0);
        assert_eq!(state.load(), 2, "a brief idle gap must not erase the tracked load");
        // A sustained idle period does decay it away.
        tracker.update(&mut state, 200 * 8_000_000, 0);
        assert_eq!(state.load(), 0);
    }

    #[test]
    fn pelt_update_is_idempotent_at_the_same_timestamp() {
        let tracker = PeltTracker::new(LoadMetric::NrThreads, 1_000_000);
        let mut state = TrackedLoad::default();
        tracker.update(&mut state, 5_000_000, 3);
        let frozen = state;
        // Time has not advanced: the deviation decays by 2^0 = 1.
        tracker.update(&mut state, 5_000_000, 9);
        assert_eq!(state.scaled, frozen.scaled, "no elapsed time, no movement");
    }

    #[test]
    fn tracker_specs_build_their_trackers() {
        assert_eq!(TrackerSpec::NrThreads.build().name(), "nr_threads");
        assert_eq!(TrackerSpec::Weighted.build().name(), "weighted");
        let pelt =
            TrackerSpec::Pelt { base: LoadMetric::NrThreads, half_life_ns: 8_000_000 }.build();
        assert_eq!(pelt.name(), "pelt(nr_threads, 8ms)");
        assert!(pelt.is_decayed());
        assert_eq!(pelt.view(), LoadMetric::Tracked);
        assert_eq!(
            TrackerSpec::instantaneous(LoadMetric::Weighted).build().view(),
            LoadMetric::Weighted
        );
    }

    #[test]
    #[should_panic(expected = "positive half-life")]
    fn zero_half_life_is_rejected() {
        let _ = PeltTracker::new(LoadMetric::NrThreads, 0);
    }

    #[test]
    #[should_panic(expected = "instantaneous base metric")]
    fn tracked_base_is_rejected() {
        let _ = PeltTracker::new(LoadMetric::Tracked, 1);
    }
}
