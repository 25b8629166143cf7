//! The five executor workloads: two open loops and three closed loops,
//! all through `Executor::{start, spawn, drain, shutdown}` only.
//!
//! Each trial is one fresh executor and one generator thread (the
//! caller's) that sleeps or blocks whenever it is not submitting.  A run is
//! several equal trials whose numbers are reduced by a median.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use sched_exec::{Executor, JoinHandle};
use sched_rq::BalanceStats;
use sched_trace::{FoldedStats, TraceEvent, TraceSink};

use crate::harness::{self, spin_for, Placement, WARM_UP_TASKS};
use crate::pacer::{wait_until, Clock, Epoch};
use crate::schedule::{self, payload, Request};
use crate::spans::{SpanLog, Tracer, Unit};

/// Closures per `burst_tiny` burst (half a ring: nothing overflows).
const TINY_BURST: usize = 512;
/// Closures per `skew_steal` burst (two rings' worth on one core: half of
/// it overflows to the injector).
const SKEW_BURST: usize = 2048;
/// Service time of one `skew_steal` closure.
const SKEW_SERVICE_NS: u64 = 20_000;
/// Levels below the root of a `fanout_tree` tree.
const TREE_DEPTH: u32 = 14;
/// Nodes of one tree.
const TREE_NODES: usize = (1 << (TREE_DEPTH + 1)) - 1;
/// Service time of one tree node.
const TREE_NODE_NS: u64 = 2_000;
/// Trace ring slots per worker in a traced run.
const TRACE_RING: usize = 1 << 20;

/// Which executor workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecKind {
    /// Open loop at ρ = 0.6.
    SteadyMix,
    /// Open loop at ρ = 0.8.
    SteadyMixHi,
    /// Closed loop, bursts of zero-work closures from one producer.
    BurstTiny,
    /// Closed loop, bursts of 20 µs closures all placed on worker 0.
    SkewSteal,
    /// Closed loop, a binary tree whose nodes spawn their children.
    FanoutTree,
}

impl ExecKind {
    fn rho(self) -> Option<f64> {
        match self {
            ExecKind::SteadyMix => Some(0.6),
            ExecKind::SteadyMixHi => Some(0.8),
            _ => None,
        }
    }

    fn placement(self) -> Placement {
        if self == ExecKind::SkewSteal {
            Placement::PinCore0
        } else {
            Placement::Policy
        }
    }

    /// Tasks in one closed-loop unit (burst or tree); 1 for open loops.
    pub fn unit_tasks(self) -> usize {
        match self {
            ExecKind::BurstTiny => TINY_BURST,
            ExecKind::SkewSteal => SKEW_BURST,
            ExecKind::FanoutTree => TREE_NODES,
            ExecKind::SteadyMix | ExecKind::SteadyMixHi => 1,
        }
    }
}

/// One trial: how much to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The only source of arrival times, service draws and payloads.
    pub seed: u64,
    /// Executor threads.
    pub workers: usize,
    /// How long to measure.
    pub measure_ns: u64,
    /// Closed loops stop after this many units even if time is left (bounds
    /// a traced run's memory and trace rings).
    pub max_units: usize,
    /// Record spans and attach a `TraceSink`.
    pub traced: bool,
}

/// What the balancing counters moved by during measurement.
#[derive(Debug, Clone, Copy, Default)]
pub struct StealCounts {
    /// Attempts that chose a victim.
    pub attempts: u64,
    /// Attempts that migrated at least one task.
    pub successes: u64,
    /// Tasks migrated.
    pub migrations: u64,
}

impl StealCounts {
    fn read(stats: &BalanceStats) -> Self {
        StealCounts {
            attempts: stats.attempts(),
            successes: stats.successes(),
            migrations: stats.migrations(),
        }
    }

    fn since(self, before: StealCounts) -> Self {
        StealCounts {
            attempts: self.attempts - before.attempts,
            successes: self.successes - before.successes,
            migrations: self.migrations - before.migrations,
        }
    }
}

/// What the drained `TraceSink` held.
#[derive(Debug, Clone, Copy)]
pub struct TraceFold {
    /// Events recorded over the executor's lifetime (warm-up included).
    pub events: u64,
    /// Events lost to ring overwrite.
    pub dropped: u64,
    /// `Park` events.
    pub parks: u64,
}

/// What measuring one trial produced.
#[derive(Debug)]
pub struct Measured {
    /// Tasks submitted during measurement.
    pub tasks: u64,
    /// Tasks whose result is missing, duplicated or wrong.
    pub failed: u64,
    /// Failed output checks, in words.
    pub errors: Vec<String>,
    /// Measured wall time.
    pub wall_ns: u64,
    /// The latency of every unit of work (request, burst, tree).
    pub latency_ns: Vec<u64>,
    /// Tasks completed per second.
    pub throughput_per_s: f64,
    /// Traced runs: the spans.
    pub log: Option<SpanLog>,
}

/// One executor trial's results: the measurement plus what surrounds it.
#[derive(Debug)]
pub struct ExecRun {
    /// The measurement, with the shutdown checks' errors added.
    pub measured: Measured,
    /// Open loops: the schedule's rate.
    pub offered_per_s: Option<f64>,
    /// Input generation + `Executor::start` + warm-up.
    pub setup_s: f64,
    /// Balancing counters over the measurement.
    pub steals: StealCounts,
    /// Traced runs: the drained sink.
    pub trace: Option<TraceFold>,
}

/// Inputs generated from the seed during set-up.
enum Inputs {
    Open(Vec<Request>),
    Burst,
    /// The sum every tree must produce.
    Tree(u64),
}

fn generate(kind: ExecKind, plan: &Plan) -> Inputs {
    match kind.rho() {
        Some(rho) => Inputs::Open(schedule::open_loop(
            plan.seed,
            schedule::rate_for(rho, plan.workers),
            plan.measure_ns,
        )),
        None if kind == ExecKind::FanoutTree => Inputs::Tree(
            (0..TREE_NODES as u64).fold(0u64, |sum, i| sum.wrapping_add(payload(plan.seed, i))),
        ),
        None => Inputs::Burst,
    }
}

/// One trial of one executor workload: sets up, measures, shuts down and
/// checks.
pub fn run(kind: ExecKind, plan: &Plan) -> ExecRun {
    let began = Instant::now();
    let inputs = generate(kind, plan);
    let sink = if plan.traced {
        TraceSink::with_capacity(plan.workers, TRACE_RING)
    } else {
        TraceSink::disabled()
    };
    let exec = harness::start(plan.workers, kind.placement(), sink.clone());
    let setup_s = began.elapsed().as_secs_f64();

    let before = StealCounts::read(exec.stats());
    let mut m = match inputs {
        Inputs::Open(requests) => open_loop(&exec, &requests, plan),
        Inputs::Burst => bursts(&exec, kind, plan),
        Inputs::Tree(expected) => trees(&exec, expected, plan),
    };
    let steals = StealCounts::read(exec.stats()).since(before);
    let report = shutdown(exec);

    if report.completed != m.tasks + WARM_UP_TASKS {
        m.errors.push(format!(
            "executor completed {} jobs, expected {} submitted + {WARM_UP_TASKS} warm-up",
            report.completed, m.tasks
        ));
    }
    let trace = plan.traced.then(|| {
        let trace = sink.drain();
        let folded = FoldedStats::from_trace(&trace);
        if trace.dropped != 0 {
            m.errors.push(format!("trace rings dropped {} events", trace.dropped));
        } else if (folded.successes, folded.migrations, folded.no_candidates)
            != (report.stats.successes(), report.stats.migrations(), report.stats.no_candidates())
        {
            m.errors.push(format!(
                "fold(trace) {folded:?} disagrees with ExecReport.stats {:?}",
                report.stats
            ));
        }
        TraceFold {
            events: trace.events.len() as u64,
            dropped: trace.dropped,
            parks: trace.events.iter().filter(|e| e.event == TraceEvent::Park).count() as u64,
        }
    });
    if let Some(log) = &m.log {
        let unstamped = log.task_times().unstamped;
        if unstamped != 0 {
            m.errors.push(format!("{unstamped} traced tasks are missing a span stamp"));
        }
    }

    ExecRun {
        measured: m,
        offered_per_s: kind.rho().map(|rho| schedule::rate_for(rho, plan.workers)),
        setup_s,
        steals,
        trace,
    }
}

fn shutdown(exec: Arc<Executor>) -> sched_exec::ExecReport {
    exec.drain();
    Arc::into_inner(exec).expect("every closure holding the executor has been dropped").shutdown()
}

/// Open loop: submit each request at its due time whatever the system's
/// state; latency runs from the *intended* arrival to the closure's end.
fn open_loop(exec: &Arc<Executor>, requests: &[Request], plan: &Plan) -> Measured {
    let n = requests.len();
    // One slot per request, written by its closure exactly once.
    let done: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let rewritten = Arc::new(AtomicU64::new(0));
    let mut lag_ns = Vec::with_capacity(n);

    let epoch = Epoch::start();
    let tracer = if plan.traced { Tracer::on(epoch, n) } else { Tracer::off() };
    for (i, request) in requests.iter().enumerate() {
        let released = wait_until(&epoch, request.due_ns);
        lag_ns.push(released - request.due_ns);
        let (done, rewritten, service_ns) =
            (Arc::clone(&done), Arc::clone(&rewritten), request.service_ns);
        drop(tracer.spawn(exec, i, move || {
            spin_for(service_ns);
            if done[i].swap(epoch.now_ns().max(1), Ordering::Relaxed) != 0 {
                rewritten.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    let drain_start = epoch.now_ns();
    exec.drain();
    let drained = epoch.now_ns();

    let mut latency_ns = Vec::with_capacity(n);
    let (mut unset, mut last_end) = (0, 1);
    for (request, slot) in requests.iter().zip(done.iter()) {
        match slot.load(Ordering::Relaxed) {
            0 => unset += 1,
            end => {
                latency_ns.push(end.saturating_sub(request.due_ns));
                last_end = last_end.max(end);
            }
        }
    }
    let failed = unset + rewritten.load(Ordering::Relaxed);
    let mut errors = Vec::new();
    if failed != 0 {
        errors.push(format!("{unset} request slots unset, {rewritten:?} written twice"));
    }
    Measured {
        tasks: n as u64,
        failed,
        errors,
        wall_ns: drained,
        // Achieved rate: everything completed, over the time it took.
        throughput_per_s: latency_ns.len() as f64 * 1e9 / last_end as f64,
        latency_ns,
        log: plan.traced.then(|| SpanLog {
            tracer,
            tasks: n,
            unit_name: "request",
            wait_name: "drain",
            units: Vec::new(),
            due_ns: requests.iter().map(|r| r.due_ns).collect(),
            drain_ns: Some((drain_start, drained)),
            wait_ns: vec![drained - drain_start],
            gen_lag_ns: lag_ns,
        }),
    }
}

/// Runs closed-loop units back to back until the time is up or
/// `max_units` is reached.  `unit` runs one burst or tree starting at task
/// index `first_task` and returns when every one of its tasks has
/// completed.
fn closed_loop(
    plan: &Plan,
    epoch: Epoch,
    unit_tasks: usize,
    mut unit: impl FnMut(usize) -> Unit,
) -> (Vec<u64>, f64, Vec<Unit>) {
    let mut units: Vec<Unit> = Vec::new();
    let start = epoch.now_ns();
    let mut now = start;
    while (now - start < plan.measure_ns && units.len() < plan.max_units) || units.is_empty() {
        let u = unit(units.len() * unit_tasks);
        now = u.end_ns;
        units.push(u);
    }
    let tasks = (units.len() * unit_tasks) as f64;
    let latency_ns = units.iter().map(|u| u.end_ns - u.start_ns).collect();
    (latency_ns, tasks * 1e9 / (now - start) as f64, units)
}

fn closed_loop_log(
    tracer: Tracer,
    units: Vec<Unit>,
    unit_name: &'static str,
    wait_name: &'static str,
    wait_ns: Vec<u64>,
    gen_lag_ns: Vec<u64>,
) -> SpanLog {
    let tasks = units.last().map_or(0, |u| u.first_task + u.nr_tasks);
    SpanLog {
        tracer,
        tasks,
        unit_name,
        wait_name,
        units,
        due_ns: Vec::new(),
        drain_ns: None,
        wait_ns,
        gen_lag_ns,
    }
}

/// `burst_tiny` and `skew_steal`: spawn a burst, join all of it, repeat.
/// Every closure returns a seeded value; the joined sum must match.
fn bursts(exec: &Arc<Executor>, kind: ExecKind, plan: &Plan) -> Measured {
    let size = kind.unit_tasks();
    let service_ns = if kind == ExecKind::SkewSteal { SKEW_SERVICE_NS } else { 0 };
    let seed = plan.seed;
    let epoch = Epoch::start();
    let tracer = if plan.traced {
        Tracer::on(epoch, plan.max_units.saturating_mul(size))
    } else {
        Tracer::off()
    };
    let traced = plan.traced;
    let mut handles: Vec<JoinHandle<u64>> = Vec::with_capacity(size);
    let (mut wrong_sums, mut wait_ns, mut gen_lag_ns) = (0u64, Vec::new(), Vec::new());

    let (latency_ns, throughput_per_s, units) = closed_loop(plan, epoch, size, |first| {
        let start_ns = epoch.now_ns();
        let mut expected = 0u64;
        let mut spawn_returned = start_ns;
        for task in first..first + size {
            let value = payload(seed, task as u64);
            expected = expected.wrapping_add(value);
            if traced {
                gen_lag_ns.push(epoch.now_ns() - spawn_returned);
            }
            handles.push(tracer.spawn(exec, task, move || {
                if service_ns > 0 {
                    spin_for(service_ns);
                }
                value
            }));
            if traced {
                spawn_returned = epoch.now_ns();
            }
        }
        let wait_start_ns = epoch.now_ns();
        let mut sum = 0u64;
        let mut join_start = wait_start_ns;
        for handle in handles.drain(..) {
            sum = sum.wrapping_add(handle.join());
            if traced {
                let now = epoch.now_ns();
                wait_ns.push(now - join_start);
                join_start = now;
            }
        }
        wrong_sums += u64::from(sum != expected);
        Unit { start_ns, wait_start_ns, end_ns: epoch.now_ns(), first_task: first, nr_tasks: size }
    });

    let mut errors = Vec::new();
    if wrong_sums != 0 {
        errors.push(format!("{wrong_sums} bursts joined to a wrong checksum"));
    }
    Measured {
        tasks: (units.len() * size) as u64,
        failed: wrong_sums * size as u64,
        errors,
        wall_ns: epoch.now_ns(),
        latency_ns,
        throughput_per_s,
        log: traced.then(|| closed_loop_log(tracer, units, "burst", "join", wait_ns, gen_lag_ns)),
    }
}

/// What one tree's nodes share.
struct Tree {
    exec: Arc<Executor>,
    tracer: Tracer,
    seed: u64,
    first_task: usize,
    /// Nodes that have not finished; the one that takes it to zero opens
    /// the latch.
    remaining: AtomicU64,
    sum: AtomicU64,
    done: Mutex<bool>,
    opened: Condvar,
}

fn tree_node(tree: &Arc<Tree>, index: usize, levels_below: u32) {
    spin_for(TREE_NODE_NS);
    tree.sum.fetch_add(payload(tree.seed, index as u64), Ordering::Relaxed);
    if levels_below > 0 {
        for child in [2 * index + 1, 2 * index + 2] {
            let shared = Arc::clone(tree);
            drop(tree.tracer.spawn(&tree.exec, tree.first_task + child, move || {
                tree_node(&shared, child, levels_below - 1);
            }));
        }
    }
    // AcqRel: the last decrement sees every node's `sum` contribution.
    if tree.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        *tree.done.lock().expect("tree latch poisoned") = true;
        tree.opened.notify_all();
    }
}

/// `fanout_tree`: the workers are the producers — each node spawns its two
/// children through the shared executor; the generator parks on a latch.
fn trees(exec: &Arc<Executor>, expected_sum: u64, plan: &Plan) -> Measured {
    let epoch = Epoch::start();
    let tracer = if plan.traced {
        Tracer::on(epoch, plan.max_units.saturating_mul(TREE_NODES))
    } else {
        Tracer::off()
    };
    let (mut wrong, mut wait_ns) = (0u64, Vec::new());

    let (latency_ns, throughput_per_s, units) =
        closed_loop(plan, epoch, TREE_NODES, |first_task| {
            let tree = Arc::new(Tree {
                exec: Arc::clone(exec),
                tracer: tracer.clone(),
                seed: plan.seed,
                first_task,
                remaining: AtomicU64::new(TREE_NODES as u64),
                sum: AtomicU64::new(0),
                done: Mutex::new(false),
                opened: Condvar::new(),
            });
            let start_ns = epoch.now_ns();
            let root = Arc::clone(&tree);
            drop(tracer.spawn(exec, first_task, move || tree_node(&root, 0, TREE_DEPTH)));
            let wait_start_ns = epoch.now_ns();
            let mut done = tree.done.lock().expect("tree latch poisoned");
            while !*done {
                done = tree.opened.wait(done).expect("tree latch poisoned");
            }
            drop(done);
            let end_ns = epoch.now_ns();
            wait_ns.push(end_ns - wait_start_ns);
            let complete = tree.remaining.load(Ordering::Acquire) == 0
                && tree.sum.load(Ordering::Relaxed) == expected_sum;
            wrong += u64::from(!complete);
            Unit { start_ns, wait_start_ns, end_ns, first_task, nr_tasks: TREE_NODES }
        });

    let mut errors = Vec::new();
    if wrong != 0 {
        errors.push(format!("{wrong} trees ended with nodes missing or a wrong sum"));
    }
    Measured {
        tasks: (units.len() * TREE_NODES) as u64,
        failed: wrong * TREE_NODES as u64,
        errors,
        wall_ns: epoch.now_ns(),
        latency_ns,
        throughput_per_s,
        log: plan.traced.then(|| {
            // In-worker producers have no submit sequence to be late on; the
            // generator's own delay is the turnaround between trees.
            let turnaround = units.windows(2).map(|w| w[1].start_ns - w[0].end_ns).collect();
            closed_loop_log(tracer, units, "tree", "latch", wait_ns, turnaround)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [ExecKind; 5] = [
        ExecKind::SteadyMix,
        ExecKind::SteadyMixHi,
        ExecKind::BurstTiny,
        ExecKind::SkewSteal,
        ExecKind::FanoutTree,
    ];

    fn plan(traced: bool) -> Plan {
        Plan { seed: 9, workers: 2, measure_ns: 60_000_000, max_units: 2, traced }
    }

    #[test]
    fn every_workload_passes_its_own_checks_untraced() {
        for kind in KINDS {
            let run = run(kind, &plan(false));
            let m = &run.measured;
            assert_eq!((m.failed, &m.errors), (0, &Vec::new()), "{kind:?}");
            assert!(m.tasks > 0 && !m.latency_ns.is_empty() && m.throughput_per_s > 0.0);
            assert!(m.log.is_none() && run.trace.is_none());
        }
    }

    #[test]
    fn a_traced_run_stamps_every_task_and_folds_to_the_report() {
        for kind in KINDS {
            let run = run(kind, &plan(true));
            let m = run.measured;
            assert_eq!((m.failed, &m.errors), (0, &Vec::new()), "{kind:?}");
            let times = m.log.expect("traced runs keep their spans").task_times();
            assert_eq!(times.unstamped, 0);
            assert_eq!(times.run_ns.len() as u64, m.tasks);
            assert_eq!(run.trace.expect("traced runs drain their sink").dropped, 0);
        }
    }

    #[test]
    fn skew_steal_forces_stealing() {
        let skew = run(ExecKind::SkewSteal, &plan(false));
        assert!(skew.steals.migrations > skew.measured.tasks / 10, "{:?}", skew.steals);
    }

    #[test]
    fn the_same_seed_draws_the_same_open_loop_inputs() {
        let inputs = |seed| match generate(ExecKind::SteadyMix, &Plan { seed, ..plan(false) }) {
            Inputs::Open(requests) => requests,
            _ => unreachable!("steady_mix is an open loop"),
        };
        assert_eq!(inputs(4), inputs(4));
        assert_ne!(inputs(4), inputs(5));
    }
}
