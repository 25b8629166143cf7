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
//!   to zero.  It is the one measure of the paper's invariant: the simulator
//!   charges it in simulated nanoseconds over the run, and the model and
//!   runqueue round drivers in core-rounds over the scenario's round budget,
//! * [`histogram`] — scheduling and end-to-end latency distributions,
//! * [`table::Table`] — fixed-width/markdown table rendering used by the
//!   experiment harness to print its catalog records and trace reports.

pub mod histogram;
pub mod idle;
pub mod table;

pub use histogram::Histogram;
pub use idle::IdleAccounting;
pub use table::Table;
