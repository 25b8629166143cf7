//! Synthetic workload generators.
//!
//! The paper's motivation rests on real workloads observed on real machines:
//! "many-fold performance degradation in the case of scientific
//! applications, and up to 25% decrease in throughput for realistic database
//! workloads" (§1), both symptoms of the Linux "wasted cores" bugs.  Those
//! applications and machines are not available here, so this crate generates
//! synthetic workloads that exercise the same failure modes, for the
//! simulator to run in place of the paper's applications:
//!
//! * [`scientific`] — a fork-join kernel with barriers, whose makespan is
//!   dominated by the slowest thread: stacking two threads on one core while
//!   another core idles doubles the barrier time (the "many-fold" claim),
//! * [`oltp`] — database-style workers alternating short transactions and
//!   think time, whose throughput drops when runnable workers pile up behind
//!   each other (the "25%" claim),
//! * [`build`] — a `make -j`-style stream of independent jobs,
//! * [`bursty`] — arrival bursts that repeatedly push the system away from
//!   work conservation,
//! * [`on_off`] — per-core blinking loads whose instantaneous imbalance
//!   oscillates while the time-averaged load is flat (the adversarial
//!   shape for instantaneous balancing, used by the load-tracking
//!   experiment E17),
//! * [`static_imbalance`] — pure initial-placement imbalances (no arrivals)
//!   used by the convergence experiments,
//! * [`sleepers`] — a huge mostly-sleeping population with sparse compute
//!   bursts, the adversarial shape for a tick-driven simulator (used by the
//!   event-engine scaling experiment E24).

pub mod build;
pub mod bursty;
pub mod oltp;
pub mod on_off;
pub mod scientific;
pub mod sleepers;
pub mod spec;
pub mod static_imbalance;

pub use build::BuildWorkload;
pub use bursty::BurstyWorkload;
pub use oltp::OltpWorkload;
pub use on_off::OnOffWorkload;
pub use scientific::ScientificWorkload;
pub use sleepers::SleeperWorkload;
pub use spec::{Phase, ThreadSpec, Workload};
pub use static_imbalance::{ImbalancePattern, StaticImbalance};
