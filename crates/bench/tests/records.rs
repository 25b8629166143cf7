//! The committed records are a contract: a fresh run of the catalog must
//! keep `BENCH_results.json` by the rules of [`compare_records`].  The
//! tier-1 leg covers every experiment but e24 and holds real-thread records
//! to their identity only, since a debug build's numbers mean nothing; the
//! release leg (`cargo test --release -p sched-bench --test records --
//! --ignored`) covers the whole catalog, e24's 1M simulated sleepers
//! included, and holds real-thread records to the tolerance rules too.
//!
//! [`compare_records`]: sched_bench::compare_records

use sched_bench::json::Json;
use sched_bench::records::text;
use sched_bench::{
    builtin, committed_records, compare_records, records_of, records_to_json, ExperimentRunner,
};

/// Runs the catalog scenarios of the experiments `leg` keeps and compares
/// their records with the committed ones; returns how many records were
/// compared field by field.
fn fresh_records_keep_the_committed_ones(leg: fn(&str) -> bool, real_threads: bool) -> usize {
    let specs = builtin().iter().filter(|spec| leg(&spec.experiment)).cloned().collect();
    let records = ExperimentRunner::with_all_backends().run_catalog(specs);
    let fresh = records_of(&records_to_json(&records)).expect("the writer's document");
    let committed: Vec<Json> =
        committed_records().into_iter().filter(|r| leg(text(r, "experiment"))).collect();
    compare_records(&committed, &fresh, real_threads).unwrap_or_else(|failures| {
        panic!(
            "{} failure(s) against BENCH_results.json:\n  {}\na reproducible record that changed \
             on purpose is re-committed with `cargo run --release -p sched-bench --bin experiments \
             -- --json`; a tolerance or ceiling failure is a regression",
            failures.len(),
            failures.join("\n  ")
        )
    })
}

#[test]
fn a_fresh_run_reproduces_the_committed_records() {
    assert_eq!(fresh_records_keep_the_committed_ones(|experiment| experiment != "e24", false), 83);
}

#[test]
#[ignore = "the whole catalog, real-thread numbers included: run it in release"]
fn the_whole_catalog_keeps_the_committed_records_in_release() {
    assert_eq!(fresh_records_keep_the_committed_ones(|_| true, true), 85);
}
