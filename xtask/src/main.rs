//! Repo automation tasks (the `cargo xtask` pattern, no external deps).
//!
//! Three tasks: the **bench-regression gate**, the **scenario fuzzer**,
//! and the **trace reporter**.
//!
//! ```text
//! cargo run -p xtask -- bench-diff \
//!     --baseline BENCH_results.json --current /tmp/BENCH_results.json \
//!     [--tolerance 0.15]
//! cargo run -p xtask -- fuzz-scenarios --seed 7 --count 50 --orders 3
//! cargo run -p xtask -- fuzz-scenarios --repro experiments/repro/fuzz-seed7-3.scn
//! cargo run -p xtask -- trace-report --experiment e16 --backend sim
//! ```
//!
//! `fuzz-scenarios` generates a deterministic stream of declarative
//! scenario documents from the seed, runs each through the experiment
//! runner, and checks the records against the invariants the document
//! declares (work conservation, conservation of tasks, non-inversion).
//! `--orders N` additionally sweeps N seeded same-time orderings of each
//! sim-compatible scenario on the event-driven simulator: reordering
//! simultaneous events must not change whether the run finishes or how
//! many operations complete.  Failing scenarios — including failing
//! orderings, whose documents pin the offending `order` seed — are written
//! to `experiments/repro/*.scn` so a failure is a file you can re-run with
//! `--repro` (or check in as a regression scenario), not a log line you
//! have to reconstruct.
//!
//! `trace-report` runs one catalog experiment with decision tracing on
//! and folds the drained trace into per-level steal-latency histograms,
//! an idle-interval attribution table, and the tasks-per-acquisition
//! timeline — the offline counterpart of the online sanity checker, for
//! when the question is "how did it behave" rather than "was it wrong".
//!
//! `bench-diff` compares two `experiments --json` documents per
//! `(experiment, scenario, backend)` key — [`sched_json::record_key`];
//! duplicate keys in either document are an error — and exits non-zero
//! when the current run regressed beyond `--tolerance` or busts the
//! absolute latency ceiling.  Every record passes the same rules.  A record that a re-run reproduces
//! (the model and simulator backends) passes them trivially: tier-1's
//! `crates/bench/tests/records.rs` already pins it to the committed file,
//! field by field.
//!
//! * `throughput` — relative, for the executor's `reqs/s` and the
//!   simulator's `ops/s`: fails when `current < baseline × (1 − tolerance)`.
//!   `migrations/s` is
//!   wall-clock speed — it breathes with the machine, with 64 OS threads on
//!   2 vCPUs by more than any tolerance worth having — and is **not gated
//!   here**: wall-clock speed belongs to `benchmark/`'s paired
//!   parent/change runs, which can tell a regression from a noisy box.
//! * `violating_idle` — absolute: fails when
//!   `current > baseline + tolerance` (it is a fraction in `[0, 1]`, so a
//!   relative bound would explode around zero).
//! * `p99_sched_latency_us` — **absolute ceiling** (`--p99-ceiling-us F`,
//!   schema v4): any current record carrying a p99 scheduling latency
//!   above the ceiling fails, regardless of what the baseline said.  A
//!   policy can converge cheaply by parking work (an over-long PELT
//!   half-life does exactly that); throughput and idle gates would wave
//!   it through, the latency SLO does not.
//! * `e2e_p99_us` / `e2e_p999_us` (schema v8, the real executor) — the
//!   same **absolute ceiling** (`--p99-ceiling-us F`) applies to the
//!   measured end-to-end request latency of the `exec` backend's E26
//!   open-loop ladder: any current record whose e2e p99 *or* p999 busts
//!   the ceiling fails, and a record whose baseline measured them but the
//!   current run reports `null` fails as a broken recorder.
//! * `tasks_per_acquisition` (schema v5, the E23 batch sweep) — relative
//!   floor at **double** tolerance when both runs measured it: the batched
//!   rows' amortisation breathes with steal races, but a collapse back
//!   towards one task per acquisition means batching silently stopped
//!   working and fails the gate.
//! * a key present in the baseline but missing from the current run fails;
//!   keys only in the current run are reported as re-baseline hints.
//!
//! Improvements never fail the gate; refresh the committed baseline with
//! `cargo run --release -p sched-bench --bin experiments -- --json`.

use std::process::ExitCode;

use sched_json as json;

use json::Json;

/// One record's metrics, keyed by (experiment, scenario, backend).
#[derive(Debug, Clone)]
struct Record {
    key: String,
    throughput: f64,
    throughput_unit: String,
    violating_idle: f64,
    p99_sched_latency_us: Option<f64>,
    e2e_p99_us: Option<f64>,
    e2e_p999_us: Option<f64>,
    steal_batch_k: Option<String>,
    tasks_per_acquisition: Option<f64>,
}

fn records_of(doc: &Json, path: &str) -> Result<Vec<Record>, String> {
    let records = doc
        .get("records")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no `records` array"))?;
    let mut out = Vec::with_capacity(records.len());
    for (i, r) in records.iter().enumerate() {
        let field = |name: &str| {
            r.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{path}: record {i} lacks string `{name}`"))
        };
        let number = |name: &str| {
            r.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: record {i} lacks number `{name}`"))
        };
        out.push(Record {
            key: json::record_key(&field("experiment")?, &field("scenario")?, &field("backend")?),
            throughput: number("throughput")?,
            throughput_unit: field("throughput_unit")?,
            violating_idle: number("violating_idle")?,
            p99_sched_latency_us: r.get("p99_sched_latency_us").and_then(Json::as_f64),
            e2e_p99_us: r.get("e2e_p99_us").and_then(Json::as_f64),
            e2e_p999_us: r.get("e2e_p999_us").and_then(Json::as_f64),
            steal_batch_k: r.get("steal_batch_k").and_then(Json::as_str).map(str::to_string),
            tasks_per_acquisition: r.get("tasks_per_acquisition").and_then(Json::as_f64),
        });
    }
    // A duplicate key would make the gate compare against whichever record
    // `find` happens to hit first — reject the document instead.
    let mut seen = std::collections::BTreeSet::new();
    for record in &out {
        if !seen.insert(record.key.as_str()) {
            return Err(format!("{path}: duplicate record key `{}`", record.key));
        }
    }
    Ok(out)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn bench_diff(args: &[String]) -> Result<ExitCode, String> {
    let baseline_path =
        flag_value(args, "--baseline").unwrap_or_else(|| "BENCH_results.json".into());
    let current_path = flag_value(args, "--current").ok_or("missing --current PATH")?;
    let tolerance: f64 = match flag_value(args, "--tolerance") {
        Some(t) => t.parse().map_err(|e| format!("bad --tolerance: {e}"))?,
        None => 0.15,
    };
    if !(0.0..1.0).contains(&tolerance) {
        return Err(format!("--tolerance must be in [0, 1), got {tolerance}"));
    }
    let p99_ceiling_us: Option<f64> = match flag_value(args, "--p99-ceiling-us") {
        Some(v) => {
            let ceiling = v.parse().map_err(|e| format!("bad --p99-ceiling-us: {e}"))?;
            if ceiling <= 0.0 {
                return Err(format!("--p99-ceiling-us must be positive, got {ceiling}"));
            }
            Some(ceiling)
        }
        None => None,
    };

    let read = |path: &str| -> Result<Vec<Record>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        records_of(&doc, path)
    };
    let baseline = read(&baseline_path)?;
    let current = read(&current_path)?;

    let mut regressions = Vec::new();
    let mut notes = Vec::new();
    let mut compared = 0usize;

    for base in &baseline {
        let Some(cur) = current.iter().find(|c| c.key == base.key) else {
            regressions.push(format!("MISSING   {}", base.key));
            continue;
        };
        compared += 1;
        // The executor's `reqs/s` is gated; wall-clock `migrations/s` is
        // `benchmark/`'s to judge.
        let floor = base.throughput * (1.0 - tolerance);
        if base.throughput_unit != "migrations/s" && cur.throughput < floor {
            regressions.push(format!(
                "THROUGHPUT {}: {:.0} < {:.0} (baseline {:.0} {}, -{:.0}% tolerated)",
                base.key,
                cur.throughput,
                floor,
                base.throughput,
                base.throughput_unit,
                tolerance * 100.0
            ));
        }
        let ceil = base.violating_idle + tolerance;
        if cur.violating_idle > ceil {
            regressions.push(format!(
                "IDLE      {}: violating idle {:.3} > {:.3} (baseline {:.3} + {:.2} abs)",
                base.key, cur.violating_idle, ceil, base.violating_idle, tolerance
            ));
        }
        // The E23 batch sweep's amortisation metric: race-dependent (hence
        // double tolerance), but a current run that claims far fewer tasks
        // per acquisition than the baseline means batching degenerated back
        // to one-at-a-time stealing.
        if let (Some(base_tpa), Some(cur_tpa)) =
            (base.tasks_per_acquisition, cur.tasks_per_acquisition)
        {
            let floor = base_tpa * (1.0 - tolerance * 2.0);
            if cur_tpa < floor {
                regressions.push(format!(
                    "BATCH     {}: {:.2} tasks/acquisition < {:.2} (baseline {:.2}, k={}, \
                     -{:.0}% tolerated)",
                    base.key,
                    cur_tpa,
                    floor,
                    base_tpa,
                    cur.steal_batch_k.as_deref().unwrap_or("?"),
                    tolerance * 200.0
                ));
            }
        }
    }
    // The latency SLO is absolute and applies to every *current* record
    // that measures a p99 at all — including brand-new ones the relative
    // gates cannot see yet.  A record that *used to* measure a p99 but no
    // longer does also fails: a silently broken latency recorder would
    // otherwise disable the one gate that catches work-parking policies.
    if let Some(ceiling) = p99_ceiling_us {
        for cur in &current {
            if let Some(p99) = cur.p99_sched_latency_us {
                if p99 > ceiling {
                    regressions.push(format!(
                        "P99       {}: {p99:.0}us > {ceiling:.0}us absolute scheduling-latency \
                         ceiling",
                        cur.key
                    ));
                }
            } else if baseline.iter().any(|b| b.key == cur.key && b.p99_sched_latency_us.is_some())
            {
                regressions.push(format!(
                    "P99       {}: the baseline measured a p99 but the current run does not \
                     (latency recorder broken?)",
                    cur.key
                ));
            }
            // The same ceiling gates the executor's measured end-to-end
            // request latency (schema v8): both quantiles, absolutely.
            let base = baseline.iter().find(|b| b.key == cur.key);
            let e2e_quantiles = [
                ("E2E P99", cur.e2e_p99_us, base.is_some_and(|b| b.e2e_p99_us.is_some())),
                ("E2E P999", cur.e2e_p999_us, base.is_some_and(|b| b.e2e_p999_us.is_some())),
            ];
            for (label, quantile, measured_in_baseline) in e2e_quantiles {
                if let Some(us) = quantile {
                    if us > ceiling {
                        regressions.push(format!(
                            "{label:<9} {}: {us:.0}us > {ceiling:.0}us absolute end-to-end \
                             latency ceiling",
                            cur.key
                        ));
                    }
                } else if measured_in_baseline {
                    regressions.push(format!(
                        "{label:<9} {}: the baseline measured an end-to-end quantile but the \
                         current run does not (latency recorder broken?)",
                        cur.key
                    ));
                }
            }
        }
    }
    for cur in &current {
        if !baseline.iter().any(|b| b.key == cur.key) {
            notes.push(format!("NEW       {} (re-baseline to start gating it)", cur.key));
        }
    }

    println!(
        "bench-diff: {} baseline records, {} current, {} compared, tolerance ±{:.0}%",
        baseline.len(),
        current.len(),
        compared,
        tolerance * 100.0
    );
    for note in &notes {
        println!("  note: {note}");
    }
    if regressions.is_empty() {
        println!("bench-diff: OK — no regression beyond tolerance");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("bench-diff: {} regression(s):", regressions.len());
        for r in &regressions {
            eprintln!("  {r}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// `fuzz-scenarios --seed N --count M [--orders K] [--repro-dir DIR]` or
/// `fuzz-scenarios --repro FILE...`: the seeded scenario fuzzer.
///
/// The seeded form generates, runs and checks `M` scenarios, sweeping `K`
/// seeded same-time orderings of each on the event-driven simulator; every
/// failing one is written to `DIR` (default `experiments/repro/`) as a
/// `.scn` document (a failing ordering's document pins its `order` seed).
/// The `--repro` form loads the given document(s) and replays them through
/// the same runner, invariant checker and — when the document carries an
/// `order` seed — the ordering comparison.
fn fuzz_scenarios_task(args: &[String]) -> Result<ExitCode, String> {
    let repro_files: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| *a == "--repro" || (*i > 0 && args[i - 1] == "--repro"))
        .filter(|(_, a)| *a != "--repro")
        .map(|(_, a)| a.clone())
        .collect();
    if args.iter().any(|a| a == "--repro") && repro_files.is_empty() {
        return Err("--repro requires a .scn file argument".into());
    }

    if !repro_files.is_empty() {
        let mut violations = Vec::new();
        let mut records = 0usize;
        for path in &repro_files {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let scenarios =
                sched_bench::load_str(&text, path).map_err(|e| format!("{path}: {e}"))?;
            for scenario in &scenarios {
                println!("replaying `{}` from {path}...", scenario.name);
                let (n, mut v) = sched_bench::fuzz::check_scenario(scenario);
                records += n;
                violations.append(&mut v);
            }
        }
        return if violations.is_empty() {
            println!("fuzz-scenarios: OK — {records} records, all declared invariants hold");
            Ok(ExitCode::SUCCESS)
        } else {
            eprintln!("fuzz-scenarios: {} violation(s):", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            Ok(ExitCode::FAILURE)
        };
    }

    let seed: u64 = match flag_value(args, "--seed") {
        Some(s) => s.parse().map_err(|e| format!("bad --seed: {e}"))?,
        None => 7,
    };
    let count: usize = match flag_value(args, "--count") {
        Some(c) => c.parse().map_err(|e| format!("bad --count: {e}"))?,
        None => 50,
    };
    let orders: usize = match flag_value(args, "--orders") {
        Some(o) => o.parse().map_err(|e| format!("bad --orders: {e}"))?,
        None => 0,
    };
    let repro_dir =
        flag_value(args, "--repro-dir").unwrap_or_else(|| "experiments/repro".to_string());

    println!("fuzz-scenarios: seed {seed}, {count} scenarios, {orders} orderings each...");
    let report = sched_bench::fuzz_scenarios(&sched_bench::FuzzConfig { seed, count, orders });
    println!(
        "fuzz-scenarios: {} scenarios generated, {} records checked, {} orderings swept",
        report.generated, report.records_checked, report.orders_checked
    );
    if report.is_clean() {
        println!("fuzz-scenarios: OK — all declared invariants hold");
        return Ok(ExitCode::SUCCESS);
    }

    std::fs::create_dir_all(&repro_dir).map_err(|e| format!("cannot create {repro_dir}: {e}"))?;
    // Every further traced run (the diagnostic re-runs below) exports its
    // Perfetto trace next to the repro documents, so the CI artifact is
    // self-contained: the document to replay, the violations with their
    // sanity excerpts, and the decision timeline to open in the viewer.
    sched_bench::set_trace_dir(std::path::Path::new(&repro_dir));
    eprintln!("fuzz-scenarios: {} failing scenario(s):", report.failures.len());
    for (i, failure) in report.failures.iter().enumerate() {
        for v in &failure.violations {
            eprintln!("  {v}");
        }
        let path = format!("{repro_dir}/fuzz-seed{seed}-{i}.scn");
        let doc = format!(
            "# Failing scenario emitted by `xtask fuzz-scenarios --seed {seed}`.\n\
             # Replay with: cargo run -p xtask -- fuzz-scenarios --repro {path}\n\n{}",
            sched_dsl::print_scenario(&failure.doc)
        );
        std::fs::write(&path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        let violations_path = format!("{repro_dir}/fuzz-seed{seed}-{i}.violations.txt");
        let rendered: String = failure.violations.iter().map(|v| format!("{v}\n\n")).collect();
        std::fs::write(&violations_path, rendered)
            .map_err(|e| format!("cannot write {violations_path}: {e}"))?;
        // The diagnostic re-run: same document, but now with the trace
        // exporter armed, so each backend's `*.trace.json` lands in the
        // repro directory.
        if sched_bench::validate(&failure.doc).is_ok() {
            let _ = sched_bench::fuzz::check_scenario(&failure.doc);
        }
        eprintln!("  wrote {path} (+ violations and *.trace.json exports)");
    }
    Ok(ExitCode::FAILURE)
}

/// `trace-report [--experiment eN] [--backend NAME]`: runs the chosen
/// catalog experiment on one backend with decision tracing on, then folds
/// the drained trace into the three offline reports
/// ([`sched_bench::trace_report`]): per-level steal-latency histograms,
/// the idle-interval attribution table, and tasks-per-acquisition over
/// time.  Defaults to E16 (one hot core per node of the eight-node
/// topology, each node drained locally by the topology-aware choice) on
/// the tick simulator — the one catalog entry that exercises
/// every report column: leveled steals, real park/unpark spans, and a
/// draining backlog.
fn trace_report_task(args: &[String]) -> Result<ExitCode, String> {
    let id = match flag_value(args, "--experiment") {
        Some(e) => sched_bench::ExperimentId::parse(&e)
            .ok_or_else(|| format!("unknown experiment `{e}`"))?,
        None => sched_bench::ExperimentId::E16,
    };
    let backend = flag_value(args, "--backend").unwrap_or_else(|| "sim".to_string());
    let runner = sched_bench::ExperimentRunner::with_all_backends();
    let mut reported = 0usize;
    for spec in sched_bench::catalog::specs_of(id) {
        let Some((record, trace)) = runner.run_traced(&backend, &spec)? else {
            continue;
        };
        println!(
            "trace-report: `{}` on {backend}: {} events across {} cores ({} dropped)\n",
            record.scenario,
            trace.events.len(),
            trace.nr_cores,
            trace.dropped,
        );
        for table in sched_bench::trace_report(&trace) {
            println!("{}", table.to_text());
        }
        reported += 1;
    }
    if reported == 0 {
        return Err(format!(
            "backend `{backend}` cannot execute any `{}` scenario \
             (backends: {})",
            id.title(),
            runner.traced_backends().join(", ")
        ));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = |result: Result<ExitCode, String>| match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    };
    match args.first().map(String::as_str) {
        Some("bench-diff") => run(bench_diff(&args[1..])),
        Some("fuzz-scenarios") => run(fuzz_scenarios_task(&args[1..])),
        Some("trace-report") => run(trace_report_task(&args[1..])),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- bench-diff --current PATH [--baseline PATH] \
                 [--tolerance F] [--p99-ceiling-us F]\n       \
                 cargo run -p xtask -- fuzz-scenarios [--seed N] [--count M] [--orders K] \
                 [--repro-dir DIR] | --repro FILE...\n       \
                 cargo run -p xtask -- trace-report [--experiment eN] [--backend NAME]"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(records: &str) -> String {
        format!("{{\"schema_version\": 2, \"records\": [{records}]}}")
    }

    fn record(experiment: &str, backend: &str, throughput: f64, idle: f64, unit: &str) -> String {
        format!(
            "{{\"experiment\": \"{experiment}\", \"scenario\": \"s\", \"backend\": \"{backend}\", \
             \"throughput\": {throughput}, \"throughput_unit\": \"{unit}\", \
             \"violating_idle\": {idle}}}"
        )
    }

    fn parse_records(text: &str) -> Vec<Record> {
        records_of(&json::parse(text).unwrap(), "test").unwrap()
    }

    #[test]
    fn records_parse_from_the_harness_shape() {
        let records = parse_records(&doc(&record("e1", "sim", 2400.0, 0.25, "ops/s")));
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].key, "e1 | s | sim");
        assert_eq!(records[0].throughput, 2400.0);
        assert_eq!(records[0].violating_idle, 0.25);
    }

    #[test]
    fn duplicate_record_keys_are_rejected() {
        let twin = record("e1", "sim", 2400.0, 0.25, "ops/s");
        let text = doc(&format!("{twin}, {twin}"));
        let err = records_of(&json::parse(&text).unwrap(), "test").unwrap_err();
        assert!(err.contains("duplicate record key"), "{err}");
        assert!(err.contains("e1 | s | sim"), "{err}");
    }

    #[test]
    fn regression_detection_via_files() {
        let dir = std::env::temp_dir().join("xtask-bench-diff-test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let good = dir.join("good.json");
        let bad = dir.join("bad.json");
        // A wall-clock backend: the tolerance governs it.
        std::fs::write(&base, doc(&record("e26", "exec", 1000.0, 0.2, "reqs/s"))).unwrap();
        // Within tolerance: -10% throughput.
        std::fs::write(&good, doc(&record("e26", "exec", 900.0, 0.2, "reqs/s"))).unwrap();
        // Beyond tolerance: -20% throughput.
        std::fs::write(&bad, doc(&record("e26", "exec", 800.0, 0.2, "reqs/s"))).unwrap();
        let run = |current: &std::path::Path| {
            bench_diff(&[
                "--baseline".into(),
                base.to_str().unwrap().into(),
                "--current".into(),
                current.to_str().unwrap().into(),
                "--tolerance".into(),
                "0.15".into(),
            ])
            .unwrap()
        };
        assert_eq!(run(&good), ExitCode::SUCCESS);
        assert_eq!(run(&bad), ExitCode::FAILURE);
    }

    #[test]
    fn p99_ceiling_gates_absolutely_and_only_when_measured() {
        let dir = std::env::temp_dir().join("xtask-bench-diff-p99");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let cur = dir.join("cur.json");
        let sim = |p99: &str| {
            format!(
                "{{\"experiment\": \"e10\", \"scenario\": \"s\", \"backend\": \"sim\", \
                 \"throughput\": 1000.0, \"throughput_unit\": \"ops/s\", \
                 \"violating_idle\": 0.1, \"p99_sched_latency_us\": {p99}}}"
            )
        };
        // The same p99 on both sides: only the absolute ceiling can object.
        std::fs::write(&base, doc(&sim("9000.0"))).unwrap();
        std::fs::write(&cur, doc(&sim("9000.0"))).unwrap();
        let run = |ceiling: Option<&str>| {
            let mut args = vec![
                "--baseline".to_string(),
                base.to_str().unwrap().into(),
                "--current".into(),
                cur.to_str().unwrap().into(),
            ];
            if let Some(c) = ceiling {
                args.push("--p99-ceiling-us".into());
                args.push(c.into());
            }
            bench_diff(&args).unwrap()
        };
        // Without the flag no ceiling applies.
        assert_eq!(run(None), ExitCode::SUCCESS);
        // With it, 9000us busts a 5000us ceiling even though the record
        // equals its baseline.
        assert_eq!(run(Some("5000")), ExitCode::FAILURE);
        assert_eq!(run(Some("10000")), ExitCode::SUCCESS);
        // A p99 that *disappears* relative to the baseline is a broken
        // recorder, not a pass: the SLO must not silently disarm.
        std::fs::write(&cur, doc(&sim("null"))).unwrap();
        assert_eq!(run(Some("5000")), ExitCode::FAILURE);
        // But a record that never measured one (model/rq) is never gated.
        std::fs::write(&base, doc(&sim("null"))).unwrap();
        assert_eq!(run(Some("5000")), ExitCode::SUCCESS);
    }

    #[test]
    fn p99_ceiling_also_gates_the_executors_end_to_end_quantiles() {
        let dir = std::env::temp_dir().join("xtask-bench-diff-e2e");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let cur = dir.join("cur.json");
        let exec = |p99: &str, p999: &str| {
            format!(
                "{{\"experiment\": \"e26\", \"scenario\": \"s\", \"backend\": \"exec\", \
                 \"throughput\": 1000.0, \"throughput_unit\": \"reqs/s\", \
                 \"violating_idle\": 0.0, \"e2e_p99_us\": {p99}, \"e2e_p999_us\": {p999}}}"
            )
        };
        std::fs::write(&base, doc(&exec("200.0", "800.0"))).unwrap();
        let run = |ceiling: Option<&str>| {
            let mut args = vec![
                "--baseline".to_string(),
                base.to_str().unwrap().into(),
                "--current".into(),
                cur.to_str().unwrap().into(),
            ];
            if let Some(c) = ceiling {
                args.push("--p99-ceiling-us".into());
                args.push(c.into());
            }
            bench_diff(&args).unwrap()
        };
        // An injected e2e p99 regression above the ceiling fails even
        // though the relative gates see nothing wrong.
        std::fs::write(&cur, doc(&exec("9000.0", "9500.0"))).unwrap();
        assert_eq!(run(None), ExitCode::SUCCESS);
        assert_eq!(run(Some("5000")), ExitCode::FAILURE);
        assert_eq!(run(Some("10000")), ExitCode::SUCCESS);
        // The tail quantile is gated on its own: a clean p99 does not
        // excuse a p999 over the ceiling.
        std::fs::write(&cur, doc(&exec("200.0", "9500.0"))).unwrap();
        assert_eq!(run(Some("5000")), ExitCode::FAILURE);
        // Quantiles that disappear relative to the baseline mean the
        // recorder broke, not that the SLO passed.
        std::fs::write(&cur, doc(&exec("null", "null"))).unwrap();
        assert_eq!(run(Some("5000")), ExitCode::FAILURE);
        // A backend that never measured them (everything but exec) is
        // never gated.
        std::fs::write(&base, doc(&exec("null", "null"))).unwrap();
        assert_eq!(run(Some("5000")), ExitCode::SUCCESS);
    }

    #[test]
    fn tasks_per_acquisition_collapse_is_gated_relatively() {
        let dir = std::env::temp_dir().join("xtask-bench-diff-batch");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let cur = dir.join("cur.json");
        // A wall-clock unit, so only the batch gate can catch this row.
        let batch = |tpa: &str| {
            format!(
                "{{\"experiment\": \"e23\", \"scenario\": \"s\", \"backend\": \"rq-deque\", \
                 \"throughput\": 100000.0, \"throughput_unit\": \"migrations/s\", \
                 \"violating_idle\": 0.0, \"steal_batch_k\": \"8\", \
                 \"tasks_per_acquisition\": {tpa}}}"
            )
        };
        let run = |baseline: &str, current: &str| {
            std::fs::write(&base, doc(baseline)).unwrap();
            std::fs::write(&cur, doc(current)).unwrap();
            bench_diff(&[
                "--baseline".into(),
                base.to_str().unwrap().into(),
                "--current".into(),
                cur.to_str().unwrap().into(),
            ])
            .unwrap()
        };
        // Breathing within double tolerance (±30%) passes...
        assert_eq!(run(&batch("3.0"), &batch("2.2")), ExitCode::SUCCESS);
        // ...a collapse towards one-at-a-time stealing fails...
        assert_eq!(run(&batch("3.0"), &batch("1.1")), ExitCode::FAILURE);
        // ...and rows that never measured it (schema v5 null) are not gated.
        assert_eq!(run(&batch("null"), &batch("null")), ExitCode::SUCCESS);
    }

    #[test]
    fn idle_regressions_and_missing_records_fail() {
        let dir = std::env::temp_dir().join("xtask-bench-diff-idle");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let idle = dir.join("idle.json");
        let missing = dir.join("missing.json");
        std::fs::write(&base, doc(&record("e3", "rq", 100.0, 0.1, "migrations/s"))).unwrap();
        std::fs::write(&idle, doc(&record("e3", "rq", 100.0, 0.4, "migrations/s"))).unwrap();
        std::fs::write(&missing, doc(&record("e4", "rq", 100.0, 0.1, "migrations/s"))).unwrap();
        let run = |current: &std::path::Path| {
            bench_diff(&[
                "--baseline".into(),
                base.to_str().unwrap().into(),
                "--current".into(),
                current.to_str().unwrap().into(),
            ])
            .unwrap()
        };
        assert_eq!(run(&idle), ExitCode::FAILURE, "idle fraction rose by 0.3 > 0.15 abs");
        assert_eq!(run(&missing), ExitCode::FAILURE, "baseline record disappeared");
    }
}
