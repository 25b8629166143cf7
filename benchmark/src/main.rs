//! The repo benchmark.
//!
//! ```text
//! sched-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, JSON on the last line
//! sched-benchmark run    [--seed N] [--seconds S] [--workload NAME]  every workload, tracing off
//! sched-benchmark traced [--seed N] [--seconds S] [--workload NAME]  every workload, spans + probes
//! sched-benchmark repeat [--runs K] [--seed N] [--seconds S]         two run sets, gaps against bounds
//! sched-benchmark describe                                           the BENCHMARK.json these tables imply
//! ```
//!
//! `run`, `traced` and `repeat` start one fresh process per workload run (so
//! `peak_rss_mb` is that workload's own) with exactly the first form's
//! arguments — what the acceptance driver runs.

mod exec_workloads;
mod harness;
mod metrics;
mod pacer;
mod probes;
mod run;
mod schedule;
mod sim_workload;
mod spans;
mod stats;

use std::process::{Command, ExitCode, Stdio};

use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use sched_json::read::Json;

/// Seed of `run` / `traced` / `repeat` when none is given.
const DEFAULT_SEED: u64 = 2017;
/// A seed never used while the benchmark was written; a later claim must
/// hold on it too.
const HELD_OUT_SEED: u64 = 104_729;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;
/// Where the traced run writes its spans, relative to the working directory.
const SPAN_DIR: &str = "benchmark/out";

#[derive(Debug)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        let number = |flag: &str, v: String| {
            v.parse::<u64>().map_err(|_| format!("{flag} takes a whole number, got `{v}`"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = number("--seconds", value("--seconds")?)?,
            "--runs" => args.runs = number("--runs", value("--runs")?)? as usize,
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "run" | "traced" | "repeat" | "describe" if args.command.is_none() => {
                args.command = Some(arg);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        return Err(format!("--seconds must be 1..=60, got {}", args.seconds));
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload `{name}` (known: {})", known.join(", ")));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("sched-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.command.as_deref() {
        None => {
            match &args.workload {
                Some(workload) => single(workload, &args),
                None => {
                    eprintln!("sched-benchmark: give --workload NAME, or run | traced | repeat | describe");
                    return ExitCode::from(2);
                }
            }
        }
        Some("describe") => {
            println!("{}", describe());
            true
        }
        Some("repeat") => repeat(&args),
        Some(command) => run_set(command == "traced", &args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_environment(seed: u64, seconds: u64) -> harness::Machine {
    let machine = harness::Machine::detect();
    println!(
        "nproc={} workers={} seed={seed} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}) seconds={seconds} rustc=\"{}\"",
        machine.nproc,
        machine.workers,
        env!("BENCH_RUSTC_VERSION"),
    );
    machine
}

/// The contract form: one workload, one result object on the last line.
fn single(workload: &str, args: &Args) -> bool {
    let machine = print_environment(args.seed, args.seconds);
    let outcome = if args.trace {
        run::traced(
            workload,
            machine,
            args.seed,
            args.seconds as f64,
            std::path::Path::new(SPAN_DIR),
        )
    } else {
        run::untraced(workload, machine, args.seed, args.seconds as f64)
    };
    for error in &outcome.errors {
        eprintln!("sched-benchmark: {workload}: CHECK FAILED: {error}");
    }
    let correct = outcome.errors.is_empty() && outcome.failed == 0;
    let units: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let fields: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let value = outcome
                .values
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{workload} produced no value for {name}"))
                .1;
            assert!(value.is_finite(), "{workload}: {name} is {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    correct
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Json,
}

impl ChildResult {
    fn value(&self, metric: &str) -> f64 {
        self.metrics
            .get(metric)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("the result line has no {metric}"))
    }
}

/// Runs this executable again in the contract form and parses its last line.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or(format!("the {workload} run printed nothing"))?;
    let doc = sched_json::read::parse(last).map_err(|e| format!("{workload} result line: {e}"))?;
    let number = |key: &str| doc.get(key).and_then(Json::as_f64).ok_or(format!("no `{key}`"));
    Ok(ChildResult {
        correct: doc.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics: doc.get("metrics").cloned().ok_or("no `metrics`")?,
    })
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload.as_deref().is_none_or(|only| only == *name))
        .collect()
}

/// `run` / `traced`: every workload once, every metric by name with unit.
fn run_set(traced: bool, args: &Args) -> bool {
    print_environment(args.seed, args.seconds);
    let mut all_correct = true;
    for workload in selected(args) {
        match child(workload, args.seed, args.seconds, traced) {
            Err(message) => {
                eprintln!("sched-benchmark: {message}");
                all_correct = false;
            }
            Ok(result) => {
                all_correct &= result.correct;
                println!(
                    "\n{workload}: correct={} attempted={} failed={} failed_frac={}",
                    result.correct,
                    result.attempted,
                    result.failed,
                    result.failed / result.attempted
                );
                if traced {
                    for m in &PER_LAYER {
                        let value = result.value(m.name);
                        println!("  {:<42} {value:>16.4} {:<6} -> {}", m.name, m.unit, m.moves);
                    }
                } else {
                    for m in &END_TO_END {
                        println!("  {:<26} {:>16.4} {}", m.name, result.value(m.name), m.unit);
                    }
                }
            }
        }
    }
    if traced {
        println!("\nspans: {SPAN_DIR}/<workload>.spans.jsonl");
    }
    all_correct
}

/// `repeat`: two sets of `--runs` runs per workload, alternating workload
/// order and never sharing a seed; per metric × workload both medians, both
/// quartile spreads, the gap and the bound.  Fails when a gap or a spread
/// exceeds its bound — the same comparison the acceptance driver makes.
fn repeat(args: &Args) -> bool {
    print_environment(args.seed, args.seconds);
    let workloads = selected(args);
    let runs = args.runs.max(1);
    // samples[workload][set][metric] -> one value per run
    let per_set = vec![Vec::new(); END_TO_END.len()];
    let mut samples = vec![[per_set.clone(), per_set]; workloads.len()];
    let mut ok = true;
    for round in 0..runs {
        for (set, reversed) in [false, true].into_iter().enumerate() {
            let seed = args.seed + (set * runs + round) as u64;
            let mut order: Vec<usize> = (0..workloads.len()).collect();
            if reversed {
                order.reverse();
            }
            for w in order {
                match child(workloads[w], seed, args.seconds, false) {
                    Ok(result) => {
                        ok &= result.correct;
                        for (values, def) in samples[w][set].iter_mut().zip(&END_TO_END) {
                            values.push(result.value(def.name));
                        }
                    }
                    Err(message) => {
                        eprintln!("sched-benchmark: {message}");
                        return false;
                    }
                }
            }
        }
        eprintln!("repeat: round {}/{runs} done", round + 1);
    }
    println!(
        "\n{:<14} {:<24} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "gap", "bound"
    );
    for (workload, [set_a, set_b]) in workloads.iter().zip(&samples) {
        for ((a, b), def) in set_a.iter().zip(set_b).zip(&END_TO_END) {
            let (med_a, med_b) = (stats::median(a), stats::median(b));
            let gap = def.better.worsening(med_a, med_b);
            let spread = |v: &[f64]| (v.len() >= 2).then(|| stats::quartile_spread(v));
            let shown =
                |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            // The acceptance rule: neither set spreads beyond the bound
            // (set-up time is exempt) and the medians agree within it.
            let too_wide = def.name != "setup_s"
                && [spread(a), spread(b)].iter().flatten().any(|&s| s > def.bound);
            let verdict = match (gap.abs() > def.bound, too_wide) {
                (true, _) => "  GAP EXCEEDS BOUND",
                (false, true) => "  SPREAD EXCEEDS BOUND",
                (false, false) => "",
            };
            ok &= verdict.is_empty();
            println!(
                "{workload:<14} {:<24} {med_a:>14.4} {med_b:>14.4} {:>8} {:>8} {:>7.1}% {:>5.0}%{verdict}",
                def.name,
                shown(spread(a)),
                shown(spread(b)),
                gap * 100.0,
                def.bound * 100.0
            );
        }
    }
    ok
}

/// The `BENCHMARK.json` the tables in [`metrics`] imply.
fn describe() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {DEFAULT_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
