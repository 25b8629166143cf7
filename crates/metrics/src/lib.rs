//! Measurement substrate shared by the simulator and the benchmark harness.
//!
//! The paper's motivation is quantitative — "we have observed many-fold
//! performance degradation in the case of scientific applications, and up to
//! 25% decrease in throughput for realistic database workloads" (§1) — and
//! its correctness criterion is temporal ("over time every idle core will
//! manage to steal work").  This crate provides the instruments those
//! statements are measured with:
//!
//! * [`idle::IdleAccounting`] — per-core idle time, split into *benign* idle
//!   time (no work anywhere) and *violating* idle time (idle while some core
//!   is overloaded), which is the quantity a work-conserving scheduler drives
//!   to zero,
//! * [`histogram`] — scheduling and end-to-end latency distributions,
//! * [`overflow::OverflowExposure`] — idle-while-spilled accounting: the
//!   fraction of the machine stranded idle while a runqueue's overflow
//!   handling hid runnable work (experiment E22),
//! * [`table::Table`] — fixed-width/markdown table rendering used by the
//!   experiment harness to print its catalog records and trace reports.

pub mod histogram;
pub mod idle;
pub mod overflow;
pub mod table;

pub use histogram::Histogram;
pub use idle::IdleAccounting;
pub use overflow::OverflowExposure;
pub use table::Table;
