//! Convenience re-exports for downstream crates, examples and tests.
//!
//! ```
//! use sched_core::prelude::*;
//!
//! let mut system = SystemState::from_loads(&[0, 4]);
//! let balancer = Balancer::new(Policy::simple());
//! let result = converge(&mut system, &balancer, RoundSchedule::Sequential, 8);
//! assert!(result.converged());
//! ```

pub use crate::balancer::{Balancer, Selection};
pub use crate::core_state::CoreState;
pub use crate::load::LoadMetric;
pub use crate::outcome::{BalanceAttempt, RoundReport, StealOutcome};
pub use crate::policy::{
    ChoicePolicy, DeltaFilter, FilterPolicy, FirstChoice, GreedyFilter, GroupAwareChoice,
    MaxLoadChoice, MinMigrationCostChoice, NodeRestrictedFilter, NumaAwareChoice, Policy,
    RandomChoice, StealPlan, StealRule, TopologyAwareChoice, WeightedDeltaFilter,
};
pub use crate::potential::{
    potential, potential_between, potential_delta_of_steal, potential_of_loads,
};
pub use crate::round::{ConcurrentRound, Phase, RoundSchedule, Step};
pub use crate::snapshot::{CoreSnapshot, SystemSnapshot};
pub use crate::system::SystemState;
pub use crate::task::{Nice, Task, TaskId, Weight};
pub use crate::tracker::{
    decay_scaled, LoadTracker, NrThreadsTracker, PeltTracker, TrackedLoad, TrackerSpec,
    WeightedTracker, TRACK_SCALE,
};
pub use crate::work_conservation::{converge, is_work_conserving, ConvergenceResult};
pub use crate::CoreId;
