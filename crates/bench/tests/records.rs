//! The committed records are a contract: a fresh run of the catalog must
//! reproduce `BENCH_results.json`.
//!
//! Every record is compared on its identity (experiment, scenario, backend,
//! policy, tracker, machine and batch size), record by record and in order.
//! A record of a [`Backend::reproducible`] backend — one that runs no OS
//! thread, so its schedule is a function of the spec alone — is compared on
//! every field but the wall-clock ones: `wall_ms`, and a `throughput` not
//! counted in simulated `ops/s`.  A one-migration drift in any simulated
//! scenario is a red test here, with every differing field listed.
//!
//! E24 drives 1M sleepers through both simulator engines, which takes
//! seconds only in release, so its two records have their own `#[ignore]`d
//! leg (`cargo test --release -p sched-bench -- --ignored`); the default
//! leg runs the rest of the catalog.
//!
//! [`Backend::reproducible`]: sched_bench::Backend::reproducible

use std::collections::BTreeSet;

use sched_bench::json::{self, Json};
use sched_bench::{builtin, records_to_json, ExperimentRunner};

/// Identity fields, compared on every record.
const IDENTITY: [&str; 8] =
    ["experiment", "scenario", "backend", "policy", "tracker", "cores", "threads", "steal_batch_k"];

/// Runs the catalog scenarios of the experiments `leg` keeps and compares
/// their records with the committed ones; returns how many records were
/// compared field by field.
fn reproduce_committed_records(leg: fn(&str) -> bool) -> usize {
    let runner = ExperimentRunner::with_all_backends();
    let specs = builtin().iter().filter(|spec| leg(&spec.experiment)).cloned().collect();
    let fresh =
        json::parse(&records_to_json(&runner.run_catalog(specs))).expect("the writer's JSON");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_results.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_results.json");
    let committed = json::parse(&text).expect("valid JSON");

    let records =
        |doc: &Json| doc.get("records").and_then(Json::as_array).expect("records").to_vec();
    let field = |record: &Json, key: &str| {
        record.get(key).and_then(Json::as_str).unwrap_or_default().to_string()
    };
    let committed: Vec<Json> =
        records(&committed).into_iter().filter(|r| leg(&field(r, "experiment"))).collect();
    let fresh = records(&fresh);
    let regenerate = "cargo run --release -p sched-bench --bin experiments -- --json";
    assert_eq!(
        fresh.len(),
        committed.len(),
        "the catalog makes a different number of records than BENCH_results.json holds; if that \
         is intended, regenerate it with `{regenerate}`"
    );

    let mut diffs = Vec::new();
    let mut exact = 0;
    for (was, is) in committed.iter().zip(&fresh) {
        let (Json::Object(was_fields), Json::Object(is_fields)) = (was, is) else {
            panic!("a record is a JSON object");
        };
        let reproducible =
            runner.backends().iter().any(|b| b.name() == field(is, "backend") && b.reproducible());
        let simulated_throughput = field(is, "throughput_unit") == "ops/s";
        exact += usize::from(reproducible);
        let keys: BTreeSet<&String> = was_fields.keys().chain(is_fields.keys()).collect();
        for key in keys {
            let wall_clock = key == "wall_ms" || (key == "throughput" && !simulated_throughput);
            let compared = IDENTITY.contains(&key.as_str()) || (reproducible && !wall_clock);
            let (old, new) = (was.get(key), is.get(key));
            if compared && old != new {
                let record = json::record_key(
                    &field(was, "experiment"),
                    &field(was, "scenario"),
                    &field(was, "backend"),
                );
                diffs.push(format!("{record}: {key} is {new:?}, committed {old:?}"));
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "{} field(s) differ from BENCH_results.json:\n  {}\nif the change is intended, regenerate \
         the file with `{regenerate}`",
        diffs.len(),
        diffs.join("\n  ")
    );
    exact
}

#[test]
fn a_fresh_run_reproduces_the_committed_records() {
    assert_eq!(reproduce_committed_records(|experiment| experiment != "e24"), 83);
}

#[test]
#[ignore = "e24 simulates 1M sleepers: run it in release"]
fn a_fresh_run_reproduces_the_committed_e24_records() {
    assert_eq!(reproduce_committed_records(|experiment| experiment == "e24"), 2);
}
