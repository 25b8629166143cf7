//! The experiment harness: prints every experiment — the view of its
//! catalog records — and writes the machine-readable `BENCH_results.json`.
//! What no record holds (lemma verdicts, model sweeps, the CFS comparison)
//! is asserted by pinned tests instead.
//!
//! Usage:
//!
//! ```text
//! cargo run -p sched-bench --release --bin experiments -- all
//! cargo run -p sched-bench --release --bin experiments -- e5 e8
//! cargo run -p sched-bench --release --bin experiments -- --markdown e9
//! cargo run -p sched-bench --release --bin experiments -- list
//! cargo run -p sched-bench --release --bin experiments -- --json
//! cargo run -p sched-bench --release --bin experiments -- --json --out results.json
//! cargo run -p sched-bench --release --bin experiments -- --trace traces/ e9
//! ```
//!
//! `--trace DIR` (any mode) exports one Chrome/Perfetto `*.trace.json` per
//! traced run (every backend but the model) into `DIR` — open them at
//! <https://ui.perfetto.dev>.
//!
//! `--json` runs the unified [`sched_bench::ExperimentRunner`] catalog —
//! every experiment on every backend that executes it — prints the combined
//! records view (the one renderer every experiment prints its own records
//! through, [`sched_bench::records_table`]), and writes the records to
//! `BENCH_results.json` (or `--out PATH`).

use sched_bench::{all_experiments, run_experiment, ExperimentId};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--trace DIR` enables decision tracing for the whole invocation:
    // every traced run exports a Chrome/Perfetto `*.trace.json` into DIR.
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        match args.get(i + 1) {
            Some(dir) if !dir.starts_with("--") => {
                sched_bench::set_trace_dir(std::path::Path::new(dir));
                args.drain(i..=i + 1);
            }
            _ => {
                eprintln!("error: --trace requires a directory argument");
                std::process::exit(2);
            }
        }
    }
    let args = args;
    let markdown = args.iter().any(|a| a == "--markdown");

    if args.iter().any(|a| a == "--json") {
        run_unified_json(&args);
        return;
    }

    let wanted: Vec<String> = args.into_iter().filter(|a| !a.starts_with("--")).collect();

    if wanted.is_empty() || wanted.iter().any(|a| a == "list") {
        eprintln!("available experiments:");
        for id in ExperimentId::all() {
            eprintln!("  {}", id.title());
        }
        eprintln!("\nrun with: cargo run -p sched-bench --release --bin experiments -- all | e<N>... | --json");
        if wanted.is_empty() || wanted.iter().all(|a| a == "list") {
            return;
        }
    }

    let runs: Vec<(ExperimentId, sched_metrics::Table)> = if wanted.iter().any(|a| a == "all") {
        all_experiments()
    } else {
        wanted
            .iter()
            .filter(|a| *a != "list")
            .map(|a| {
                let id = ExperimentId::parse(a)
                    .unwrap_or_else(|| panic!("unknown experiment `{a}` (try `list`)"));
                (id, run_experiment(id))
            })
            .collect()
    };

    for (id, table) in runs {
        println!("\n################ {} ################\n", id.title());
        if markdown {
            println!("{}", table.to_markdown());
        } else {
            println!("{}", table.to_text());
        }
    }
}

/// `--json [--out PATH] [--scenarios DIR] [e<N>...]`: the unified runner
/// over every backend, optionally restricted to the named experiments.
/// `--scenarios DIR` runs the `.scn` documents found in `DIR` instead of
/// the builtin catalog.
fn run_unified_json(args: &[String]) {
    let flag_value = |flag: &str| -> Option<String> {
        match args.iter().position(|a| a == flag) {
            Some(i) => match args.get(i + 1) {
                Some(path) if !path.starts_with("--") => Some(path.clone()),
                _ => {
                    eprintln!("error: {flag} requires a path argument");
                    std::process::exit(2);
                }
            },
            None => None,
        }
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_results.json".to_string());
    let skip: Vec<usize> = ["--out", "--scenarios"]
        .iter()
        .filter_map(|f| args.iter().position(|a| a == f).map(|i| i + 1))
        .collect();

    let mut specs = match flag_value("--scenarios") {
        Some(dir) => sched_bench::load_dir(std::path::Path::new(&dir)).unwrap_or_else(|e| {
            eprintln!("error: cannot load scenarios from {dir}: {e}");
            std::process::exit(2);
        }),
        None => sched_bench::builtin().to_vec(),
    };
    let wanted: Vec<ExperimentId> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !skip.contains(i) && !a.starts_with("--"))
        .map(|(_, a)| {
            ExperimentId::parse(a).unwrap_or_else(|| {
                eprintln!("error: unknown experiment `{a}` (try `list`)");
                std::process::exit(2);
            })
        })
        .collect();
    if !wanted.is_empty() {
        specs.retain(|s| ExperimentId::parse(&s.experiment).is_some_and(|id| wanted.contains(&id)));
    }
    let runner = sched_bench::ExperimentRunner::with_all_backends();
    eprintln!("running {} experiments on {} backends...", specs.len(), runner.backends().len());
    let records = runner.run_catalog(specs);

    // Write the artifact before printing the table: if stdout is a pipe
    // that closes early (`... | head`), the records must already be on
    // disk.
    let json = sched_bench::records_to_json(&records);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {} records to {out_path}", records.len());

    let title = "Unified runner: every experiment on every backend";
    println!("{}", sched_bench::records_table(title, &records).to_text());
}
