//! Optimistic multicore scheduler model — the paper's primary contribution.
//!
//! This crate implements, as a pure and deterministic state machine, the
//! scheduler model of *Towards Proving Optimistic Multicore Schedulers*
//! (Lepers et al., HotOS 2017):
//!
//! * per-core runqueues ([`CoreState`], [`SystemState`]) with the paper's
//!   definitions of *idle* and *overloaded* cores (§3.1),
//! * the **three-step load-balancing round** of Figure 1 — *filter*, *choice*,
//!   *steal* — with a lock-less, read-only selection phase operating on
//!   [`snapshot::CoreSnapshot`]s and an atomic stealing phase that re-checks
//!   the filter and may fail ([`balancer`], [`round`]),
//! * the work-conservation definition of §3.2 and the convergence runner that
//!   searches for the bound `N` ([`work_conservation`]),
//! * the pairwise load-difference potential `d(c₁, …, cₙ)` of §4.3 used to
//!   bound the number of successful steals ([`mod@potential`]),
//! * a library of filter/choice/steal policies: the paper's Listing 1
//!   balancer, the §4.3 non-work-conserving greedy filter, a weighted
//!   (niceness-aware) balancer, and the §5 future-work NUMA-aware and
//!   hierarchical policies expressed purely in step 2
//!   ([`policy`]).
//!
//! The same policy objects are executed by the discrete-event simulator
//! (`sched-sim`), model-checked exhaustively (`sched-verify`), driven from the
//! DSL (`sched-dsl`) and mounted on real concurrent runqueues (`sched-rq`).
//!
//! # Quick example
//!
//! ```
//! use sched_core::prelude::*;
//!
//! // Four cores: one idle, one overloaded with three threads, two busy.
//! let mut system = SystemState::from_loads(&[0, 3, 1, 1]);
//! assert!(!system.is_work_conserving());
//!
//! // The Listing-1 balancer, sequential rounds.
//! let balancer = Balancer::new(Policy::simple());
//! let result = converge(&mut system, &balancer, RoundSchedule::Sequential, 16);
//! assert_eq!(result.rounds, Some(1));
//! assert!(system.is_work_conserving());
//! ```

pub mod balancer;
pub mod core_state;
pub mod load;
pub mod outcome;
pub mod policy;
pub mod potential;
pub mod prelude;
pub mod round;
pub mod snapshot;
pub mod system;
pub mod task;
pub mod tracker;
pub mod work_conservation;

pub use balancer::{steal_step, Balancer};
pub use core_state::CoreState;
pub use load::LoadMetric;
pub use outcome::{BalanceAttempt, RoundReport, StealOutcome};
pub use policy::{ChoicePolicy, FilterPolicy, Policy, StealPlan, StealRule};
pub use potential::{potential, potential_between};
pub use round::{ConcurrentRound, Phase, RoundSchedule, RoundState, Step};
pub use snapshot::{CoreSnapshot, SystemSnapshot};
pub use system::SystemState;
pub use task::{Nice, Task, TaskId, Weight};
pub use tracker::{
    decay_scaled, LoadTracker, NrThreadsTracker, PeltTracker, TrackedLoad, TrackerSpec,
    WeightedTracker, TRACK_SCALE,
};
pub use work_conservation::{converge, is_work_conserving, ConvergenceResult};

/// Identifier of a core.
///
/// The scheduler model identifies cores by the same indices as the machine
/// topology, so the topology's CPU id type is reused directly.
pub use sched_topology::CpuId as CoreId;

/// splitmix64's increment, `⌊2^64 / φ⌋` (odd): a stream's state advances
/// by it once per draw.
pub const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The one splitmix64 mixer (Steele, Lea & Flood, OOPSLA 2014) behind every
/// seeded stream in the workspace: the draw for stream state `state`, which
/// the caller then advances by [`SPLITMIX64_GAMMA`].  A stream seeded with
/// `s` draws `splitmix64(s)`, `splitmix64(s + γ)`, …; being a bijection of
/// `u64`, the mixer also serves as a seeded hash.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_streams_draw_their_pinned_values() {
        // Open-loop schedules, fuzz scenarios, seeded same-time orders and
        // the random choice all draw from this stream; these values pin
        // them bit for bit (seed 0 is the published reference output).
        let draws = |seed: u64| -> Vec<u64> {
            (0..3u64)
                .map(|i| splitmix64(seed.wrapping_add(i.wrapping_mul(SPLITMIX64_GAMMA))))
                .collect()
        };
        assert_eq!(draws(0), [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4, 0x06C4_5D18_8009_454F]);
        assert_eq!(
            draws(2017),
            [0xC584_32F2_BFEA_B20F, 0x9026_ABA2_1F5B_E310, 0xBDFF_9E18_A7AA_0E0C]
        );
    }
}
