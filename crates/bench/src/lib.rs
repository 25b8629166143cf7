//! Experiment harness regenerating every figure, listing and quantitative
//! claim of the paper.
//!
//! An experiment is declared once, as a [`sched_dsl::Scenario`] — the one
//! type the `.scn` grammar parses, the fuzzer generates and every
//! [`Backend`] runs.  [`mod@catalog`] loads the committed
//! `experiments/*.scn` documents (the only copy of the catalog; the loader
//! API is [`load_str`] / [`load_dir`] / [`builtin`]), and [`runner`] holds
//! the scenario's meaning — the policy, machine and workload it builds,
//! its record names, and [`validate`], the cross-field rules — and
//! executes it against any backend: the pure model,
//! the simulator under its tick and event-driven engines, contending OS
//! threads over the mutex and lock-free runqueues (plus the storm-only
//! tiny-ring flavours), and the real executor.  `experiments --json`
//! serializes the resulting [`ExperimentRecord`]s to `BENCH_results.json`,
//! the workspace's machine-readable perf trajectory, and [`mod@records`]
//! holds a fresh run of the catalog to it (`tests/records.rs`).
//!
//! A traced run is the same run with a recorder attached
//! ([`ExperimentRunner::run_traced`]); [`report`] folds the drained trace
//! into tables and [`fuzz`] feeds it to the sanity checker.
//!
//! [`experiments`] is the README's per-experiment index (e1–e26), printed
//! by the `experiments` binary: an experiment is its catalog records,
//! shown through [`records_table`].  A claim no record holds — a lemma
//! verdict, a model sweep, the CFS comparison, a trace checker's windows
//! — is a pinned test, not a printed table.

pub mod catalog;
pub mod experiments;
pub mod fuzz;
pub mod records;
pub mod report;
pub mod runner;

/// The JSON codec the records are written and read with (re-exported from
/// `sched-json`).
pub use sched_json as json;

pub use catalog::{builtin, load_dir, load_str};
pub use experiments::{all_experiments, run_experiment, ExperimentId};
pub use fuzz::{
    check_ordering, check_records, check_sanity, fuzz_scenarios, FuzzConfig, FuzzReport, Violation,
};
pub use records::{committed_records, compare_records, records_of, records_to_json};
pub use report::trace_report;
pub use runner::{
    records_table, run_sim_result, set_trace_dir, validate, Backend, ExecBackend, ExperimentRecord,
    ExperimentRunner, ModelBackend, RqBackend, SimBackend, SimEngine, SimEventBackend, SpecError,
};
