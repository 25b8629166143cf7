//! One benchmark run of one workload: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer ones.

use std::path::Path;

use crate::exec_workloads::{self, ExecKind, ExecRun, Measured, Plan};
use crate::harness::{peak_rss_mb, Machine, WARM_UP_TASKS};
use crate::probes::{self, Values};
use crate::schedule::trial_seed;
use crate::sim_workload::{self, SimRun};
use crate::stats::{median, median_of_trials, percentile_of};

/// Equal trials of an untraced run: each sets up afresh (so `setup_s` is a
/// median over set-ups spread across the run, not bunched in its first
/// moments) and measures for a fifth of `--seconds`.  Few, long trials: a
/// trial of `fanout_tree` or `skew_steal` needs seconds to collect the
/// ~40 units its p95 rests on, and cutting the run into fifteen 1 s trials
/// instead steadied nothing (what moves the numbers between runs on the
/// shared machine lasts minutes, not seconds).
const TRIALS: u64 = 5;
/// Tasks a traced closed loop may submit: keeps every trace ring far from
/// wrapping (a ring holds 2^20 events, a task records about six).
const TRACED_TASKS: usize = 98_304;

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Tasks (requests, closures, simulated threads) submitted.
    pub attempted: u64,
    /// Tasks that failed an output check.
    pub failed: u64,
    /// Failed checks, in words; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub values: Values,
}

fn exec_kind(workload: &str) -> Option<ExecKind> {
    match workload {
        "steady_mix" => Some(ExecKind::SteadyMix),
        "steady_mix_hi" => Some(ExecKind::SteadyMixHi),
        "burst_tiny" => Some(ExecKind::BurstTiny),
        "skew_steal" => Some(ExecKind::SkewSteal),
        "fanout_tree" => Some(ExecKind::FanoutTree),
        "sim_oltp" => None,
        other => unreachable!("workload names are checked on the command line, got {other}"),
    }
}

/// One untraced trial, reduced to what the end-to-end metrics need.
struct Trial {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    latency_ns: Vec<u64>,
    throughput_per_s: f64,
    setup_s: f64,
}

fn untraced_trial(workload: &str, workers: usize, seed: u64, trial_s: f64) -> Trial {
    let Some(kind) = exec_kind(workload) else {
        let run = sim_workload::run(sim_workload::FULL, seed, trial_s, 1);
        // A simulation is the unit of work: its latency is one simulation,
        // its "tasks" the simulated transactions.
        let (ops, ns) =
            run.sims.iter().fold((0, 0), |(ops, ns), sim| (ops + sim.operations, ns + sim.wall_ns));
        return Trial {
            attempted: run.attempted,
            failed: run.failed,
            errors: run.errors,
            latency_ns: run.sims.iter().map(|sim| sim.wall_ns).collect(),
            throughput_per_s: ops as f64 * 1e9 / ns as f64,
            setup_s: run.setup_s,
        };
    };
    let plan = Plan {
        seed,
        workers,
        measure_ns: (trial_s * 1e9) as u64,
        max_units: usize::MAX,
        traced: false,
    };
    let run = exec_workloads::run(kind, &plan);
    Trial {
        attempted: run.measured.tasks,
        failed: run.measured.failed,
        errors: run.measured.errors,
        latency_ns: run.measured.latency_ns,
        throughput_per_s: run.measured.throughput_per_s,
        setup_s: run.setup_s,
    }
}

/// The untraced run: every end-to-end metric, each a median over
/// [`TRIALS`] equal trials.
pub fn untraced(workload: &str, machine: Machine, seed: u64, seconds: f64) -> Outcome {
    let mut trials: Vec<Trial> = (0..TRIALS)
        .map(|i| {
            untraced_trial(workload, machine.workers, trial_seed(seed, i), seconds / TRIALS as f64)
        })
        .collect();
    let mut outcome = Outcome {
        attempted: trials.iter().map(|t| t.attempted).sum(),
        failed: trials.iter().map(|t| t.failed).sum(),
        errors: (0..)
            .zip(&mut trials)
            .flat_map(|(i, t)| t.errors.drain(..).map(move |e| format!("trial {i}: {e}")))
            .collect(),
        values: Values::new(),
    };
    let mut latencies: Vec<Vec<u64>> =
        trials.iter_mut().map(|t| std::mem::take(&mut t.latency_ns)).collect();
    let per_trial = |f: &dyn Fn(&Trial) -> f64| median(&trials.iter().map(f).collect::<Vec<_>>());
    outcome.values = vec![
        ("latency_p50_us", median_of_trials(&mut latencies, 0.50) / 1e3),
        ("throughput_tasks_per_s", per_trial(&|t| t.throughput_per_s)),
        ("setup_s", per_trial(&|t| t.setup_s)),
    ];
    match peak_rss_mb() {
        Ok(mb) => outcome.values.push(("peak_rss_mb", mb)),
        Err(e) => {
            outcome.errors.push(e);
            outcome.values.push(("peak_rss_mb", f64::MAX));
        }
    }
    outcome
}

/// The traced run: the measured workload briefly with spans and a
/// `TraceSink` on, the same again with both off (the difference is the
/// tracing overhead), the simulator, then the layer probes.  A layer the
/// workload bypasses is filled from that layer's reference run — the
/// executor from a `burst_tiny`-shaped run, the simulator from a reduced
/// OLTP — so every traced run reports every per-layer metric.
pub fn traced(workload: &str, machine: Machine, seed: u64, seconds: f64, spans: &Path) -> Outcome {
    let kind = exec_kind(workload);
    let part_s = (seconds / 4.0).clamp(0.5, 3.0);
    let exec_kind = kind.unwrap_or(ExecKind::BurstTiny);
    let plan = Plan {
        seed,
        workers: machine.workers,
        measure_ns: (part_s * 1e9) as u64,
        max_units: (TRACED_TASKS / exec_kind.unit_tasks()).max(2),
        traced: true,
    };
    let with_trace = exec_workloads::run(exec_kind, &plan);
    let without = exec_workloads::run(exec_kind, &Plan { traced: false, ..plan });
    let sim = match kind {
        None => sim_workload::run(sim_workload::FULL, seed, part_s, 3),
        Some(_) => sim_workload::run(sim_workload::REFERENCE, seed, 0.0, 3),
    };

    let (traced_m, plain_m) = (&with_trace.measured, &without.measured);
    let mut outcome = Outcome {
        attempted: traced_m.tasks + plain_m.tasks + sim.attempted,
        failed: traced_m.failed + plain_m.failed + sim.failed,
        errors: [&traced_m.errors[..], &plain_m.errors[..], &sim.errors[..]].concat(),
        values: exec_layer(&with_trace, &without, machine.workers),
    };
    let path = spans.join(format!("{workload}.spans.jsonl"));
    let log = traced_m.log.as_ref().expect("a traced run keeps its span log");
    if let Err(e) = log.write_jsonl(&path, workload) {
        outcome.errors.push(format!("writing {}: {e}", path.display()));
    }
    // The tail of the untraced comparison run (of the simulations, for
    // `sim_oltp`): reported here because it spreads too widely to gate.
    let mut untraced_ns = match kind {
        Some(_) => plain_m.latency_ns.clone(),
        None => sim.sims.iter().map(|s| s.wall_ns).collect(),
    };
    outcome.values.push(("latency_p95_us", percentile_of(&mut untraced_ns, 0.95) as f64 / 1e3));
    outcome.values.extend(sim_layer(&sim));
    outcome.values.extend(probes::all(machine.workers));
    outcome.values.push(("failed_frac", outcome.failed as f64 / outcome.attempted as f64));
    outcome
}

/// The `exec.*` and run-derived `trace.*` metrics, from the benchmark's own
/// spans, `ExecReport.stats` and the drained `TraceSink`.
fn exec_layer(traced: &ExecRun, plain: &ExecRun, workers: usize) -> Values {
    let (m, plain_m) = (&traced.measured, &plain.measured);
    let log = m.log.as_ref().expect("a traced run keeps its span log");
    let fold = traced.trace.expect("a traced run drains its sink");
    let mut t = log.task_times();
    let tasks = m.tasks as f64;
    // The sink also recorded the warm-up closures.
    let traced_tasks = tasks + WARM_UP_TASKS as f64;
    let wall_s = m.wall_ns as f64 / 1e9;
    let busy_ns: u64 = t.run_ns.iter().sum();
    let p = |v: &mut Vec<u64>, q: f64| if v.is_empty() { 0.0 } else { percentile_of(v, q) as f64 };
    let tails: Vec<f64> = log.tail_ns().iter().map(|&ns| ns as f64).collect();

    let overhead_pct = if traced.offered_per_s.is_some() {
        // Open loop: throughput is the schedule's, so price the latency.
        let p50 = |m: &Measured| percentile_of(&mut m.latency_ns.clone(), 0.5) as f64;
        (p50(m) / p50(plain_m) - 1.0) * 100.0
    } else {
        (1.0 - m.throughput_per_s / plain_m.throughput_per_s) * 100.0
    };
    vec![
        ("exec.spawn_call_ns_p50", p(&mut t.submit_ns, 0.50)),
        ("exec.spawn_call_ns_p99", p(&mut t.submit_ns, 0.99)),
        ("exec.queued_us_p50", p(&mut t.queued_ns, 0.50) / 1e3),
        ("exec.queued_us_p95", p(&mut t.queued_ns, 0.95) / 1e3),
        ("exec.run_us_p50", p(&mut t.run_ns, 0.50) / 1e3),
        ("exec.join_ns_p50", p(&mut log.wait_ns.clone(), 0.50)),
        ("exec.latency_p99_us", p(&mut t.latency_ns, 0.99) / 1e3),
        ("exec.gen_lag_us_p99", p(&mut log.gen_lag_ns.clone(), 0.99) / 1e3),
        ("exec.busy_frac", busy_ns as f64 / (workers as f64 * m.wall_ns as f64)),
        ("exec.backlog_tail_ms", median(&tails) / 1e6),
        ("exec.achieved_over_offered", traced.offered_per_s.map_or(1.0, |o| tasks / wall_s / o)),
        ("exec.steals_per_task", traced.steals.migrations as f64 / tasks),
        (
            "exec.steal_success_ratio",
            traced.steals.successes as f64 / traced.steals.attempts.max(1) as f64,
        ),
        ("exec.parks_per_task", fold.parks as f64 / traced_tasks),
        ("trace.events_per_task", fold.events as f64 / traced_tasks),
        ("trace.dropped", fold.dropped as f64),
        ("trace.overhead_pct", overhead_pct),
    ]
}

/// The `sim.*` metrics, medians over the simulations.
fn sim_layer(sim: &SimRun) -> Values {
    let per_trial = |f: &dyn Fn(&sim_workload::Sim) -> f64| {
        median(&sim.sims.iter().map(f).collect::<Vec<f64>>())
    };
    let first = sim.sims[0];
    vec![
        ("sim.events_processed", first.events as f64),
        ("sim_events_per_s", per_trial(&|t| t.events as f64 * 1e9 / t.run_ns as f64)),
        ("sim.ns_per_event", per_trial(&|t| t.run_ns as f64 / t.events as f64)),
        ("sim.balance_successes", first.balance_successes as f64),
        ("sim.workload_gen_s", sim.setup_s),
    ]
}
