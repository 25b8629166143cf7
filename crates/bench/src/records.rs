//! `BENCH_results.json`, the committed records: the writer, the one reader,
//! and [`compare_records`], the contract a fresh run of the catalog keeps
//! with them.  Record by record, in order:
//!
//! * identity fields (experiment, scenario, backend, policy, tracker,
//!   cores, threads, batch size) on every record;
//! * every field but `wall_ms` and a wall-clock `throughput` on a record of
//!   a [`Backend::reproducible`](crate::Backend::reproducible) backend;
//! * when asked, on every other record: `throughput` at least `committed ×
//!   (1 − TOLERANCE)` (wall-clock `migrations/s` is `benchmark/`'s to
//!   judge), `violating_idle` at most `committed + TOLERANCE` (a fraction,
//!   so absolute), `tasks_per_acquisition` at least `committed × (1 − 2 ×
//!   TOLERANCE)` where both measured it (a collapse towards one task per
//!   acquisition means batching stopped), and the executor's `e2e_p99_us`
//!   and `e2e_p999_us` each under [`P99_CEILING_US`];
//! * [`P99_CEILING_US`] on every `p99_sched_latency_us`: a policy that
//!   converges cheaply by parking work passes every relative rule and
//!   fails this one.
//!
//! A quantile the committed record measured and the fresh one does not is a
//! broken recorder, and fails.  Improvements never fail.

use std::collections::BTreeSet;

use sched_json::{object, Json, JsonValue};

use crate::runner::{ExperimentRecord, ExperimentRunner};

/// The relative (throughput, batch) and absolute (idle) slack a real-thread
/// record has against its committed value.
pub const TOLERANCE: f64 = 0.15;

/// The absolute ceiling on every measured p99 latency, in microseconds: a
/// simulated record's scheduling latency and the executor's end-to-end
/// p99 and p999.
pub const P99_CEILING_US: f64 = 25_000.0;

/// Identity fields, compared on every record.
const IDENTITY: [&str; 8] =
    ["experiment", "scenario", "backend", "policy", "tracker", "cores", "threads", "steal_batch_k"];

/// Serializes records (plus a small header) to the `BENCH_results.json`
/// document.
pub fn records_to_json(records: &[ExperimentRecord]) -> String {
    object(vec![
        (
            "paper",
            JsonValue::Str("Towards Proving Optimistic Multicore Schedulers (HotOS 2017)".into()),
        ),
        ("harness", JsonValue::Str("sched-bench experiments --json".into())),
        // The version's meaning is documented on `sched_json::SCHEMA_VERSION`.
        ("schema_version", JsonValue::Int(sched_json::SCHEMA_VERSION)),
        ("records", JsonValue::Array(records.iter().map(ExperimentRecord::to_json).collect())),
    ])
    .render_pretty()
}

/// The records of a `BENCH_results.json` document.
pub fn records_of(document: &str) -> Result<Vec<Json>, String> {
    let doc = sched_json::parse(document)?;
    let records = doc.get("records").and_then(Json::as_array).ok_or("no `records` array")?;
    Ok(records.to_vec())
}

/// The committed `BENCH_results.json`'s records.
///
/// # Panics
///
/// Panics if the file cannot be read or holds no records array.
pub fn committed_records() -> Vec<Json> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_results.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    records_of(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A string field of a record; empty when absent.
pub fn text<'a>(record: &'a Json, field: &str) -> &'a str {
    record.get(field).and_then(Json::as_str).unwrap_or_default()
}

/// A record's key, `experiment | scenario | backend`: unique in a document.
pub(crate) fn record_key(record: &Json) -> String {
    let [experiment, scenario, backend] =
        ["experiment", "scenario", "backend"].map(|field| text(record, field));
    format!("{experiment} | {scenario} | {backend}")
}

/// Holds `fresh` to `committed` record by record, in order, by the rules of
/// the module docs; the tolerance rules apply to records of backends that
/// run OS threads only when `real_threads` is set (their numbers mean
/// something only in release).  Returns how many records were compared
/// field by field, or every failure.
pub fn compare_records(
    committed: &[Json],
    fresh: &[Json],
    real_threads: bool,
) -> Result<usize, Vec<String>> {
    let (was_keys, is_keys): (Vec<String>, Vec<String>) =
        (committed.iter().map(record_key).collect(), fresh.iter().map(record_key).collect());
    let mut failures = Vec::new();
    for (side, keys, other) in [("committed", &was_keys, &is_keys), ("fresh", &is_keys, &was_keys)]
    {
        let mut seen = BTreeSet::new();
        for key in keys {
            if !seen.insert(key) {
                failures.push(format!("DUPLICATE {key}: twice in the {side} records"));
            } else if !other.contains(key) {
                failures.push(format!("ONLY      {key}: in the {side} records alone"));
            }
        }
    }
    if failures.is_empty() && was_keys != is_keys {
        failures.push("ORDER     the catalog makes the committed records in another order".into());
    }
    if !failures.is_empty() {
        return Err(failures);
    }

    let runner = ExperimentRunner::with_all_backends();
    let mut exact = 0;
    for ((was, is), key) in committed.iter().zip(fresh).zip(&was_keys) {
        let reproducible =
            runner.backends().iter().any(|b| b.name() == text(is, "backend") && b.reproducible());
        exact += usize::from(reproducible);
        let (Json::Object(old), Json::Object(new)) = (was, is) else {
            failures.push(format!("FIELD     {key}: a record is not a JSON object"));
            continue;
        };
        let simulated_throughput = text(is, "throughput_unit") == "ops/s";
        for field in old.keys().chain(new.keys()).collect::<BTreeSet<_>>() {
            let wall_clock = field == "wall_ms" || (field == "throughput" && !simulated_throughput);
            let compared = IDENTITY.contains(&field.as_str()) || (reproducible && !wall_clock);
            let (old, new) = (old.get(field), new.get(field));
            if compared && old != new {
                failures.push(format!("FIELD     {key}: {field} is {new:?}, committed {old:?}"));
            }
        }
        if real_threads && !reproducible {
            failures.extend(tolerance_failures(key, was, is));
            for field in ["e2e_p99_us", "e2e_p999_us"] {
                failures.extend(ceiling_failure(key, field, was, is));
            }
        }
        failures.extend(ceiling_failure(key, "p99_sched_latency_us", was, is));
    }
    if failures.is_empty() {
        Ok(exact)
    } else {
        Err(failures)
    }
}

/// A number field of a record; NaN when absent, which fails a bound on
/// the fresh side and disarms one on the committed side.
fn number(record: &Json, field: &str) -> f64 {
    record.get(field).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// The tolerance rules of a real-thread record.
fn tolerance_failures(key: &str, was: &Json, is: &Json) -> Vec<String> {
    let mut failures = Vec::new();
    let unit = text(was, "throughput_unit");
    let (base, current) = (number(was, "throughput"), number(is, "throughput"));
    if unit != "migrations/s" && (current.is_nan() || current < base * (1.0 - TOLERANCE)) {
        failures.push(format!("THROUGHPUT {key}: {current:.0} {unit}, committed {base:.0}"));
    }
    let (base, current) = (number(was, "violating_idle"), number(is, "violating_idle"));
    if current.is_nan() || current > base + TOLERANCE {
        failures.push(format!("IDLE      {key}: violating idle {current:.3}, committed {base:.3}"));
    }
    let (base, current) =
        (number(was, "tasks_per_acquisition"), number(is, "tasks_per_acquisition"));
    if current < base * (1.0 - 2.0 * TOLERANCE) {
        failures
            .push(format!("BATCH     {key}: {current:.2} tasks/acquisition, committed {base:.2}"));
    }
    failures
}

/// [`P99_CEILING_US`] on one quantile field: the fresh value, if measured,
/// is at most the ceiling, and it is measured if the committed record
/// measured it.
fn ceiling_failure(key: &str, field: &str, was: &Json, is: &Json) -> Option<String> {
    match is.get(field).and_then(Json::as_f64) {
        Some(us) if us > P99_CEILING_US => {
            Some(format!("CEILING   {key}: {field} {us:.0}us > {P99_CEILING_US:.0}us"))
        }
        None if was.get(field).and_then(Json::as_f64).is_some() => Some(format!(
            "CEILING   {key}: the committed record measured {field} and the fresh run does not \
             (latency recorder broken?)"
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record with the fields the rules read.
    fn record(experiment: &str, backend: &str, throughput: f64, unit: &str, idle: f64) -> String {
        format!(
            "{{\"experiment\": \"{experiment}\", \"scenario\": \"s\", \"backend\": \"{backend}\", \
             \"throughput\": {throughput}, \"throughput_unit\": \"{unit}\", \
             \"violating_idle\": {idle}}}"
        )
    }

    /// `record` with `extra` fields spliced in before its closing brace.
    fn with(record: String, extra: &str) -> String {
        format!("{}, {extra}}}", record.trim_end_matches('}'))
    }

    fn records(records: &[String]) -> Vec<Json> {
        let doc = format!("{{\"schema_version\": 9, \"records\": [{}]}}", records.join(", "));
        records_of(&doc).unwrap()
    }

    /// The failures of `fresh` against `committed` in the release leg.
    fn failures(committed: &[String], fresh: &[String]) -> Vec<String> {
        compare_records(&records(committed), &records(fresh), true).err().unwrap_or_default()
    }

    /// Asserts that some failure starts with `prefix`.
    fn assert_fails(got: &[String], prefix: &str) {
        assert!(got.iter().any(|f| f.starts_with(prefix)), "{prefix}: {got:?}");
    }

    #[test]
    fn records_parse_from_the_harness_shape() {
        let parsed = records(&[record("e1", "sim", 2400.0, "ops/s", 0.25)]);
        assert_eq!(parsed.len(), 1);
        assert_eq!(record_key(&parsed[0]), "e1 | s | sim");
        assert_eq!(
            (number(&parsed[0], "throughput"), number(&parsed[0], "violating_idle")),
            (2400.0, 0.25)
        );
        // The committed file parses through the same reader, one record per
        // key.
        let committed = committed_records();
        assert_eq!(compare_records(&committed, &committed, false).map(|_| ()), Ok(()));
    }

    #[test]
    fn duplicate_record_keys_are_rejected() {
        let twin = record("e1", "sim", 2400.0, "ops/s", 0.25);
        let got = failures(std::slice::from_ref(&twin), &[twin.clone(), twin.clone()]);
        assert_fails(&got, "DUPLICATE e1 | s | sim");
    }

    #[test]
    fn throughput_regressions_beyond_the_tolerance_fail() {
        // The executor's `reqs/s` is held to -15%.
        let committed = [record("e26", "exec", 1000.0, "reqs/s", 0.2)];
        assert!(failures(&committed, &[record("e26", "exec", 900.0, "reqs/s", 0.2)]).is_empty());
        let got = failures(&committed, &[record("e26", "exec", 800.0, "reqs/s", 0.2)]);
        assert_eq!(got, ["THROUGHPUT e26 | s | exec: 800 reqs/s, committed 1000"]);
        // Wall-clock `migrations/s` is not gated.
        let committed = [record("e3", "rq", 1000.0, "migrations/s", 0.1)];
        assert!(failures(&committed, &[record("e3", "rq", 10.0, "migrations/s", 0.1)]).is_empty());
        // The debug leg holds a real-thread record to its identity only.
        let (was, is) = (records(&committed), records(&[record("e3", "rq", 10.0, "reqs/s", 0.9)]));
        assert_eq!(compare_records(&was, &is, false), Ok(0));
    }

    #[test]
    fn idle_regressions_and_missing_records_fail() {
        let committed = [record("e3", "rq", 100.0, "migrations/s", 0.1)];
        let got = failures(&committed, &[record("e3", "rq", 100.0, "migrations/s", 0.4)]);
        assert_eq!(got, ["IDLE      e3 | s | rq: violating idle 0.400, committed 0.100"]);
        assert!(failures(&committed, &[record("e3", "rq", 100.0, "migrations/s", 0.25)]).is_empty());
        let got = failures(&committed, &[record("e4", "rq", 100.0, "migrations/s", 0.1)]);
        assert_fails(&got, "ONLY      e3 | s | rq: in the committed");
        assert_fails(&got, "ONLY      e4 | s | rq: in the fresh");
    }

    #[test]
    fn tasks_per_acquisition_collapse_is_gated_relatively() {
        // A wall-clock unit, so only the batch rule can catch this row.
        let batch = |tpa: &str| {
            with(
                record("e23", "rq-deque", 100_000.0, "migrations/s", 0.0),
                &format!("\"steal_batch_k\": \"8\", \"tasks_per_acquisition\": {tpa}"),
            )
        };
        // Breathing within double the tolerance (-30%) passes...
        assert!(failures(&[batch("3.0")], &[batch("2.2")]).is_empty());
        // ...a collapse towards one-at-a-time stealing fails...
        let got = failures(&[batch("3.0")], &[batch("1.1")]);
        assert_eq!(got, ["BATCH     e23 | s | rq-deque: 1.10 tasks/acquisition, committed 3.00"]);
        // ...and rows that never measured it are not gated.
        assert!(failures(&[batch("null")], &[batch("null")]).is_empty());
    }

    #[test]
    fn p99_ceiling_gates_absolutely_and_only_when_measured() {
        let sim = |p99: &str| {
            with(
                record("e10", "sim", 1000.0, "ops/s", 0.1),
                &format!("\"p99_sched_latency_us\": {p99}"),
            )
        };
        // The same p99 on both sides: only the absolute ceiling can object,
        // in either leg.
        assert!(failures(&[sim("9000.0")], &[sim("9000.0")]).is_empty());
        let (busted, got) =
            (records(&[sim("28000.0")]), failures(&[sim("28000.0")], &[sim("28000.0")]));
        assert_eq!(got, ["CEILING   e10 | s | sim: p99_sched_latency_us 28000us > 25000us"]);
        assert_eq!(compare_records(&busted, &busted, false), Err(got));
        // A p99 that disappears is a broken recorder, not a pass.
        let got = failures(&[sim("9000.0")], &[sim("null")]);
        assert_fails(&got, "CEILING   e10 | s | sim: the committed record measured");
        // A record that never measured one is never gated.
        assert!(failures(&[sim("null")], &[sim("null")]).is_empty());
    }

    #[test]
    fn p99_ceiling_also_gates_the_executors_end_to_end_quantiles() {
        let exec = |p99: &str, p999: &str| {
            with(
                record("e26", "exec", 1000.0, "reqs/s", 0.0),
                &format!("\"e2e_p99_us\": {p99}, \"e2e_p999_us\": {p999}"),
            )
        };
        let committed = [exec("200.0", "800.0")];
        assert!(failures(&committed, &[exec("9000.0", "9500.0")]).is_empty());
        // Each quantile is gated on its own: a clean p99 does not excuse a
        // p999 over the ceiling.
        let got = failures(&committed, &[exec("200.0", "30000.0")]);
        assert_eq!(got, ["CEILING   e26 | s | exec: e2e_p999_us 30000us > 25000us"]);
        assert_eq!(failures(&committed, &[exec("30000.0", "30000.0")]).len(), 2);
        // Quantiles that disappear mean the recorder broke.
        let got = failures(&committed, &[exec("null", "null")]);
        assert_eq!(got.iter().filter(|f| f.contains("recorder broken")).count(), 2, "{got:?}");
        // A backend that never measured them is never gated.
        assert!(failures(&[exec("null", "null")], &[exec("null", "null")]).is_empty());
    }

    #[test]
    fn a_reproducible_record_is_compared_exactly_and_identity_everywhere() {
        let sim = record("e1", "sim", 2400.0, "ops/s", 0.25);
        let got = failures(&[sim], &[record("e1", "sim", 2400.0, "ops/s", 0.26)]);
        assert_fails(&got, "FIELD     e1 | s | sim: violating_idle");
        let rq = |policy: &str| {
            with(
                record("e1", "rq", 10.0, "migrations/s", 0.1),
                &format!("\"policy\": \"{policy}\""),
            )
        };
        assert_fails(
            &failures(&[rq("listing1")], &[rq("greedy")]),
            "FIELD     e1 | s | rq: policy",
        );
    }
}
