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
pub mod hierarchy;
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

pub use balancer::Balancer;
pub use core_state::CoreState;
pub use hierarchy::{HierarchicalReport, HierarchicalRound, LevelPass};
pub use load::LoadMetric;
pub use outcome::{BalanceAttempt, RoundReport, StealOutcome};
pub use policy::{ChoicePolicy, FilterPolicy, Policy, StealPlan, StealRule};
pub use potential::{potential, potential_between};
pub use round::{ConcurrentRound, Phase, RoundSchedule, Step};
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
