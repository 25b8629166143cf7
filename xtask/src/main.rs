//! Repo automation tasks (the `cargo xtask` pattern, no external deps).
//!
//! Two tasks: the **scenario fuzzer** and the **trace reporter**.
//!
//! ```text
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
//! The committed records' contract is not a task here: it is
//! `sched_bench::compare_records`, run by `crates/bench/tests/records.rs`.

use std::process::ExitCode;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
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
        Some("fuzz-scenarios") => run(fuzz_scenarios_task(&args[1..])),
        Some("trace-report") => run(trace_report_task(&args[1..])),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- fuzz-scenarios [--seed N] [--count M] [--orders K] \
                 [--repro-dir DIR] | --repro FILE...\n       \
                 cargo run -p xtask -- trace-report [--experiment eN] [--backend NAME]"
            );
            ExitCode::from(2)
        }
    }
}
