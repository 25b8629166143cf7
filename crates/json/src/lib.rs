//! Shared offline JSON codec for the experiment harness.
//!
//! The workspace builds with no network access, so instead of `serde` this
//! crate hand-rolls exactly the JSON the harness needs — and, crucially, it
//! holds **both directions in one place**: the writer the `experiments
//! --json` runner emits `BENCH_results.json` with ([`JsonValue`]) and the
//! reader the records contract (`sched_bench::compare_records`) parses it
//! back with ([`parse`]).  Keeping encoder and decoder in a single crate
//! means the two can never disagree on encoding details (escaping, float
//! formatting, nesting) — the round-trip is pinned by tests here rather
//! than by two hand-rolled implementations drifting apart.

pub mod read;
pub mod write;

pub use read::{parse, Json};
pub use write::{object, JsonValue};

/// Schema version of the `BENCH_results.json` document.
///
/// Lives here, next to the codec the records are written and read with, so
/// the two sides can never disagree about what a version means.
///
/// * v2: per-level steal counts, `remote_steal_rate`, per-node idle.
/// * v3: per-record `tracker` (load criterion).
/// * v4: per-record `rq_backend` (runqueue discipline: `mutex` vs the
///   lock-free `deque`) and `p99_sched_latency_us` (the reactivity SLO the
///   gate's absolute p99 ceiling applies to; `null` on backends without a
///   latency recorder).
/// * v5: per-record `steal_batch_k` (the batch size of the scenario: the
///   decimal `k` or `half`) and `tasks_per_acquisition`
///   (threads migrated per successful steal acquisition — exactly 1.0 at
///   `k = 1`, above it when batching amortises; the gate compares it
///   relatively).  Both `null` outside the batch sweep.
/// * v6: per-record `sim_engine` (`"tick"` for the cycle-accurate
///   simulator, `"event"` for the event-driven one) and
///   `events_processed` (events the engine handled before finishing or
///   exhausting the scenario's event budget; the gate compares it
///   relatively).  Both `null` on non-simulator backends.
/// * v7: an optional per-record `final_loads`, behind a flag that has since
///   gone.  No document carries the key: the fuzzer reads the final
///   per-core thread counts in memory, so documents keep their v6 shape.
/// * v8: per-record `e2e_p99_us` and `e2e_p999_us` — measured wall-clock
///   end-to-end request latency (submit to completion) on the real
///   work-stealing executor under open-loop arrivals (the E26 ladder; the
///   records contract's absolute `P99_CEILING_US` applies to both).
///   `null` on every backend except `exec`.
/// * v9: no key added or removed — what changed is what the records of a
///   policy whose step 3 moves more than one thread mean.  Every backend
///   now sizes its steals with the policy's own `StealRule::plan`, so the
///   e8 `listing1+steal_half` records on `sim`, `sim-event`, `rq` and
///   `rq-deque` are half-imbalance runs (they were one-task runs before;
///   the `model` record always was one), and the `.scn` `batch` clause is
///   sugar for that step.
pub const SCHEMA_VERSION: i64 = 9;

#[cfg(test)]
mod tests {
    use super::*;

    /// The property the two halves of this crate exist to guarantee: every
    /// document the writer can produce is parsed back by the reader into
    /// the same values.
    #[test]
    fn writer_output_round_trips_through_the_reader() {
        let doc = object(vec![
            ("schema_version", JsonValue::Int(3)),
            ("name", JsonValue::Str("quote \" slash \\ tab \t newline \n".into())),
            ("tiny", JsonValue::Float(4.2e-9)),
            ("neg", JsonValue::Int(-17)),
            ("none", JsonValue::Null),
            (
                "records",
                JsonValue::Array(vec![
                    JsonValue::Bool(true),
                    JsonValue::Float(0.25),
                    object(vec![("nested", JsonValue::Array(vec![]))]),
                ]),
            ),
        ]);
        for rendered in [doc.render(), doc.render_pretty()] {
            let parsed = parse(&rendered).expect("writer output must parse");
            assert_eq!(parsed.get("schema_version").and_then(Json::as_f64), Some(3.0));
            assert_eq!(
                parsed.get("name").and_then(Json::as_str),
                Some("quote \" slash \\ tab \t newline \n")
            );
            assert_eq!(parsed.get("tiny").and_then(Json::as_f64), Some(4.2e-9));
            assert_eq!(parsed.get("neg").and_then(Json::as_f64), Some(-17.0));
            assert_eq!(parsed.get("none"), Some(&Json::Null));
            let records = parsed.get("records").and_then(Json::as_array).unwrap();
            assert_eq!(records[0], Json::Bool(true));
            assert_eq!(records[1].as_f64(), Some(0.25));
        }
    }

    #[test]
    fn non_finite_floats_round_trip_as_null() {
        let rendered = JsonValue::Float(f64::NAN).render();
        assert_eq!(parse(&rendered).unwrap(), Json::Null);
    }
}
