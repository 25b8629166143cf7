//! The unified experiment runner: one declarative scenario description,
//! executed by any backend.
//!
//! The paper's claims live at several altitudes — the abstract model
//! (`sched-core` balancing rounds), a discrete-event machine (`sched-sim`,
//! under a tick and an event-driven engine), contending OS threads over the
//! mutex and lock-free runqueues (`sched-rq`), and the real executor
//! (`sched-exec`).  An experiment is declared **once**, as a
//! [`sched_dsl::Scenario`] — the type the `.scn` grammar parses — and this
//! module executes it against any [`Backend`], so a scenario measured in
//! the model can be re-measured, unchanged, on the simulator and on real
//! threads.
//!
//! The scenario type itself lives in `sched-dsl`, next to its grammar; what
//! lives here is its *meaning*, as functions of that type: the `Policy`,
//! machine and simulator workload it builds, its record names, the maps
//! into the executing crates' own types, and [`validate`] — the cross-field
//! rules a runnable scenario obeys, which the [`mod@crate::catalog`]
//! loaders apply to every document.
//!
//! A spec executes one way: [`Backend::run`], with or without a
//! [`TraceSink`] attached.  A traced run is the same run with a recorder
//! on it, not a second entry point: [`ExperimentRunner::run`] attaches one
//! per backend when `--trace DIR` asked for exports, and
//! [`ExperimentRunner::run_traced`] attaches one and hands the drained
//! trace back.
//!
//! [`ExperimentRunner::run_catalog`] produces flat [`ExperimentRecord`]s;
//! the `experiments --json` binary serializes them to `BENCH_results.json`,
//! which is the machine-readable perf trajectory later PRs regress against.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use sched_core::prelude::*;
use sched_dsl::{
    Batch, Driver, OpenLoop, PolicyRecipe, Scenario, Service, Storm, Topology, WorkloadKind,
};
use sched_metrics::Table;
use sched_rq::MultiQueue;
use sched_topology::{MachineTopology, NodeId, TopologyBuilder};
use sched_trace::{FoldedStats, Trace, TraceEvent, TraceSink};
use sched_workloads::{
    OltpWorkload, Phase as WorkloadPhase, ScientificWorkload, ThreadSpec, Workload,
};

use sched_json::{object, JsonValue};

use crate::experiments::ExperimentId;

/// CPU time given to each synthetic task when a load-vector scenario is
/// replayed on the simulator backend.
const SYNTH_TASK_NS: u64 = 2_000_000;

/// Logical time between balancing rounds on the model and runqueue
/// backends (CFS's balancing period is on this order); decayed trackers
/// fold this much elapsed time per round.
const ROUND_NS: u64 = 1_000_000;

/// Niceness cycle used by mixed-importance scenarios (E18): every third
/// task is important, normal, then background.
const MIXED_NICE: [i8; 3] = [-10, 0, 10];

/// Where `--trace DIR` asked traced runs to land, once set.
static TRACE_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Enables trace export for every subsequent run in this process: each
/// spec×backend execution that records decisions writes a Chrome/Perfetto
/// `*.trace.json` into `dir` (created on first export).  Set once — this
/// is the `experiments --trace DIR` switch; later calls are ignored.
pub fn set_trace_dir(dir: &Path) {
    let _ = TRACE_DIR.set(dir.to_path_buf());
}

/// Events one traced run may hold before its rings overwrite, however many
/// cores they are spread over — a dozen times the largest trace of the
/// catalog (the top open-loop rung on the executor, ~11k events), so the
/// runs that assert a drop-free trace get one on any core alone.
const TRACE_EVENTS: usize = 1 << 17;

/// The recording sink of one traced run: [`TRACE_EVENTS`] slots shared out
/// among the cores, and no core below the default ring.
fn trace_sink(nr_cores: usize) -> TraceSink {
    let per_core = TRACE_EVENTS / nr_cores.max(1);
    TraceSink::with_capacity(nr_cores, per_core.max(sched_trace::ring::DEFAULT_RING_CAPACITY))
}

/// Writes the Chrome trace of `spec` on `backend` into the `--trace DIR`
/// directory, if one was set.  Export failures are reported, not fatal —
/// tracing must never sink an experiment run.
fn export_trace(spec: &Scenario, backend: &str, trace: &Trace) {
    let Some(dir) = TRACE_DIR.get() else { return };
    if trace.events.is_empty() {
        return;
    }
    let slug: String = format!("{}-{}-{}", spec.experiment, spec.name, backend)
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
        .collect();
    let path = dir.join(format!("{slug}.trace.json"));
    let write = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, sched_trace::to_chrome_json(trace)));
    match write {
        Ok(()) => eprintln!(
            "trace: wrote {} ({} events{})",
            path.display(),
            trace.events.len(),
            if trace.dropped > 0 { format!(", {} dropped", trace.dropped) } else { String::new() }
        ),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
}

/// Half-life of the `pelt` and `pelt_weighted` recipes.
const PELT_HALF_LIFE_NS: u64 = 8_000_000;

/// Display name of a policy recipe in records and tables.
pub(crate) fn policy_name(recipe: &PolicyRecipe) -> String {
    match recipe {
        PolicyRecipe::Listing1 => "listing1".into(),
        PolicyRecipe::Greedy => "greedy".into(),
        PolicyRecipe::Weighted => "weighted".into(),
        PolicyRecipe::StealHalf => "listing1+steal_half".into(),
        PolicyRecipe::NumaAware => "listing1+numa_choice".into(),
        PolicyRecipe::TopoAware => "listing1+topo_choice".into(),
        PolicyRecipe::Inline(def) => format!("dsl({})", def.name),
        PolicyRecipe::Pelt => "listing1+pelt".into(),
        PolicyRecipe::PeltWeighted => "weighted+pelt".into(),
        PolicyRecipe::PeltHalfLife(ms) => format!("listing1+pelt({ms}ms)"),
    }
}

/// Compiles an inline policy program: the one compile that [`validate`]
/// checks and [`build_policy`] runs.
fn compile_inline(def: &sched_dsl::PolicyDef) -> Result<Policy, SpecError> {
    sched_dsl::compile(def)
        .map(|compiled| compiled.policy)
        .map_err(|e| SpecError::new(format!("inline policy does not compile: {e}")))
}

/// Builds a fresh policy instance for one backend run: the recipe, with
/// the scenario's `batch` clause (sugar for step 3) as its steal rule.  An
/// inline program that does not compile is the error; [`validate`] rejects
/// such a scenario before any backend runs it.
pub(crate) fn build_policy(
    spec: &Scenario,
    topo: &Arc<MachineTopology>,
) -> Result<Policy, SpecError> {
    let policy = match &spec.policy {
        PolicyRecipe::Listing1 => Policy::simple(),
        PolicyRecipe::Greedy => Policy::greedy(),
        PolicyRecipe::Weighted => Policy::weighted(),
        PolicyRecipe::StealHalf => Policy::simple().with_steal(StealRule::HalfImbalance),
        PolicyRecipe::NumaAware => Policy::simple()
            .with_choice(Box::new(NumaAwareChoice::new(Arc::clone(topo), LoadMetric::NrThreads))),
        PolicyRecipe::TopoAware => Policy::simple().with_choice(Box::new(
            TopologyAwareChoice::new(Arc::clone(topo), LoadMetric::NrThreads),
        )),
        PolicyRecipe::Inline(def) => compile_inline(def)?,
        PolicyRecipe::Pelt => Policy::pelt(PELT_HALF_LIFE_NS),
        PolicyRecipe::PeltWeighted => Policy::pelt_weighted(PELT_HALF_LIFE_NS),
        PolicyRecipe::PeltHalfLife(ms) => Policy::pelt(u64::from(*ms) * 1_000_000),
    };
    Ok(match spec.batch {
        None => policy,
        Some(Batch::Fixed(k)) => policy.with_steal(StealRule::Fixed(k)),
        Some(Batch::Half) => policy.with_steal(StealRule::HalfImbalance),
    })
}

/// How many cores a topology clause declares — known without building the
/// machine, so a document's sizes can be checked before anything is
/// allocated for them.
fn declared_cores(topology: Topology) -> usize {
    match topology {
        Topology::Flat(cores) => cores,
        Topology::DualSocket => 16,
        Topology::EightNode => 64,
    }
}

/// Builds the machine a topology clause names.
pub(crate) fn build_topology(topology: Topology) -> MachineTopology {
    match topology {
        Topology::Flat(cores) => TopologyBuilder::new().sockets(1).cores_per_socket(cores).build(),
        Topology::DualSocket => TopologyBuilder::new().sockets(2).cores_per_socket(8).build(),
        Topology::EightNode => TopologyBuilder::eight_node_numa(),
    }
}

/// Stable record label of a batch size (schema v5 `steal_batch_k`): the
/// decimal `k`, or `half`.
pub(crate) fn batch_label(batch: Batch) -> String {
    match batch {
        Batch::Fixed(k) => k.to_string(),
        Batch::Half => "half".into(),
    }
}

/// The executor-crate form of an open-loop driver.
fn exec_openloop(openloop: OpenLoop) -> sched_exec::OpenLoopSpec {
    sched_exec::OpenLoopSpec {
        rate_hz: openloop.rate_hz,
        duration_ms: openloop.duration_ms,
        service: match openloop.service {
            Service::Fixed(ns) => sched_exec::ServiceMix::Fixed { ns },
            Service::Exp(mean_ns) => sched_exec::ServiceMix::Exp { mean_ns },
            Service::Bimodal(short_ns, long_ns, long_pct) => {
                sched_exec::ServiceMix::Bimodal { short_ns, long_ns, long_pct }
            }
        },
        seed: openloop.seed,
    }
}

/// The workload the simulator backends run for a scenario.
fn sim_workload(spec: &Scenario, nr_cores: usize) -> Workload {
    match spec.driver {
        Driver::Burst(burst) => {
            // The simulator realises the on/off shape natively: blinker
            // threads whose compute/sleep cycles open the same transient
            // imbalances the model/rq drivers script by hand.
            sched_workloads::OnOffWorkload {
                nr_cores,
                blinkers_per_core: 2,
                cycles: burst.epochs.min(24),
                on_ns: burst.epoch_ns * 2,
                off_ns: burst.epoch_ns * 2,
                jitter: f64::from(burst.jitter_pct) / 100.0,
                seed: burst.seed,
            }
            .generate()
        }
        Driver::Workload { kind, seed, jitter_pct } => {
            let jitter = f64::from(jitter_pct) / 100.0;
            match kind {
                WorkloadKind::Scientific => ScientificWorkload {
                    nr_threads: nr_cores,
                    iterations: 8,
                    phase_ns: 4_000_000,
                    jitter,
                    seed,
                    fork_on_core: Some(0),
                }
                .generate(),
                WorkloadKind::Oltp => OltpWorkload {
                    nr_workers: nr_cores * 2,
                    transactions: 40,
                    service_ns: 500_000,
                    think_ns: 250_000,
                    jitter,
                    seed,
                    initial_spread: 4,
                }
                .generate(),
                WorkloadKind::Sleepers => sched_workloads::SleeperWorkload {
                    nr_tasks: 1_000_000,
                    sleep_ns: 20_000_000_000,
                    jitter,
                    burst_percent: 2,
                    burst_ns: 500_000,
                    seed,
                }
                .generate(),
            }
        }
        // Storms and open loops never reach a simulator (it declines
        // them), so this arm is theirs only for match exhaustiveness.
        Driver::Replay | Driver::Storm(_) | Driver::OpenLoop(_) => {
            // Replay the load vector: `loads[i]` independent tasks of
            // fixed CPU time pinned to origin core `i`.
            let mut workload = Workload::new(format!("synthetic({})", spec.name));
            let mut index = 0usize;
            for (core, &n) in spec.loads.iter().enumerate() {
                for _ in 0..n {
                    workload.push(ThreadSpec {
                        nice: if spec.mixed_nice {
                            MIXED_NICE[index % MIXED_NICE.len()]
                        } else {
                            0
                        },
                        arrival_ns: 0,
                        origin_core: Some(core),
                        phases: vec![WorkloadPhase::Compute(SYNTH_TASK_NS)],
                    });
                    index += 1;
                }
            }
            workload
        }
    }
}

/// A scenario the harness cannot run, rejected by [`validate`] or by the
/// [`mod@crate::catalog`] loader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl SpecError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        SpecError(message.into())
    }
}

/// Checks the combinations the [`Scenario`] type alone cannot rule out:
/// every rule relates two clauses, or a clause and what the backends can
/// execute.  The loaders call it on everything they load; a scenario built
/// in code passes through it before it is run.
pub fn validate(spec: &Scenario) -> Result<(), SpecError> {
    let fail = |what: String| Err(SpecError::new(format!("{}: {what}", spec.name)));
    if ExperimentId::parse(&spec.experiment).is_none() {
        return fail(format!("unknown experiment `{}`", spec.experiment));
    }
    if spec.loads.is_empty() {
        return fail("a scenario needs a load vector".into());
    }
    // Compared before any machine is built: the declared size comes from
    // the document, and nothing is allocated for one that does not match.
    let nr_cores = declared_cores(spec.topology);
    if nr_cores != spec.loads.len() {
        return fail(format!(
            "load vector has {} entries but the machine has {nr_cores} cores",
            spec.loads.len()
        ));
    }
    let storm = matches!(spec.driver, Driver::Storm(_));
    let openloop = matches!(spec.driver, Driver::OpenLoop(_));
    if spec.batch.is_some() && !(storm || spec.driver == Driver::Replay) {
        // No backend reads the batch under any other driver.
        return fail("a steal batch applies to replay and storm drivers only".into());
    }
    if let PolicyRecipe::Inline(def) = &spec.policy {
        if let Err(e) = compile_inline(def) {
            return fail(e.0);
        }
    }
    // The simulator backends have no ring to overflow and no per-steal
    // queue acquisition: a backend matrix that *names* one of them on a
    // storm or batch scenario is a contradiction, rejected here instead of
    // silently producing no record at run time.
    let names_sim = spec.backends.iter().flatten().any(|b| b.starts_with("sim"));
    if names_sim && (storm || spec.batch.is_some()) {
        return fail("the simulator backends cannot execute storm or batch specs".into());
    }
    // Open-loop streams run on the real executor alone: any other backend
    // named in the matrix would silently produce no record, and with no
    // matrix at all the intent is ambiguous, so the scenario must say
    // `backends ["exec"]` explicitly.
    if openloop {
        match &spec.backends {
            Some(backends) if !backends.is_empty() && backends.iter().all(|b| b == "exec") => {}
            Some(_) => return fail("an open-loop driver runs on the `exec` backend only".into()),
            None => return fail("an open-loop spec must declare `backends [\"exec\"]`".into()),
        }
    }
    if spec.events.is_some() && (storm || openloop) {
        return fail(
            "an event budget applies to the simulator backends only, which cannot execute \
             this driver"
                .into(),
        );
    }
    Ok(())
}

/// What one backend measured for one spec.
#[derive(Debug, Clone)]
pub struct ExperimentRecord {
    /// Experiment id, lowercase (`"e5"`).
    pub experiment: String,
    /// Scenario name from the spec.
    pub scenario: String,
    /// Backend name (`"model"`, `"sim"`, `"rq"`).
    pub backend: &'static str,
    /// Policy name from the spec.
    pub policy: String,
    /// Name of the load criterion the policy balanced (schema v3).
    pub tracker: String,
    /// Machine size.
    pub cores: usize,
    /// Initial thread count.
    pub threads: u64,
    /// Backend-specific throughput (see `throughput_unit`).
    pub throughput: f64,
    /// What `throughput` counts: `"migrations/s"` (model, rq, wall-clock)
    /// or `"ops/s"` (sim, simulated time).
    pub throughput_unit: &'static str,
    /// Fraction of core-time idle while another core was overloaded.
    pub violating_idle: f64,
    /// Rounds to reach work conservation, if the backend converged.
    pub convergence_rounds: Option<usize>,
    /// The run's steal tally: its `migrations`, `failures()` and
    /// per-level counts are the record's `migrations`, `failures` and
    /// `steals_*` columns.
    pub steals: FoldedStats,
    /// Runqueue discipline of the backend (`"mutex"`, `"deque"`), for the
    /// rq backends only (schema v4).
    pub rq_backend: Option<&'static str>,
    /// p99 scheduling latency in microseconds — the time between a thread
    /// becoming runnable and first running (schema v4).  Only the
    /// simulator backend carries a latency recorder; `None` elsewhere.
    pub p99_sched_latency_us: Option<f64>,
    /// Measured wall-clock end-to-end p99 request latency in microseconds
    /// — submit to completion on the real executor, open-loop arrivals
    /// (schema v8).  Only the `exec` backend measures it; `None` elsewhere.
    pub e2e_p99_us: Option<f64>,
    /// Measured wall-clock end-to-end p999 request latency in microseconds
    /// (schema v8; see `e2e_p99_us`).
    pub e2e_p999_us: Option<f64>,
    /// Batch-size label (the decimal `k`, or `"half"`; schema v5).  `None`
    /// on non-batch records.
    pub steal_batch_k: Option<String>,
    /// Threads migrated per successful steal acquisition (schema v5).
    /// `steals.migrations / steals.successes`: exactly 1.0 at `k = 1`,
    /// strictly above it when batching amortises acquisitions.  Only
    /// batch-sweep records measure it; `None` elsewhere.
    pub tasks_per_acquisition: Option<f64>,
    /// Violating-idle fraction per NUMA node, in node order.
    pub per_node_violating_idle: Vec<f64>,
    /// Which simulation engine produced this record (`"tick"` or
    /// `"event"`; schema v6).  `None` on non-simulator backends.
    pub sim_engine: Option<&'static str>,
    /// Discrete events the simulation engine processed (schema v6).
    /// `None` on non-simulator backends.
    pub events_processed: Option<u64>,
    /// Final per-core thread counts when the backend finished, for
    /// invariant checking (conservation of tasks, non-inversion).  Not
    /// serialized: the fuzzer reads it in memory.  The simulator
    /// leaves it empty (its tasks run to completion, so there is no final
    /// residency to conserve).
    pub final_loads: Vec<usize>,
    /// Wall-clock cost of the run, in milliseconds.
    pub wall_ms: f64,
}

impl ExperimentRecord {
    /// The record as a JSON object.
    pub(crate) fn to_json(&self) -> JsonValue {
        let levels = self.steals.level_migrations;
        object(vec![
            ("experiment", JsonValue::Str(self.experiment.clone())),
            ("scenario", JsonValue::Str(self.scenario.clone())),
            ("backend", JsonValue::Str(self.backend.into())),
            ("policy", JsonValue::Str(self.policy.clone())),
            ("tracker", JsonValue::Str(self.tracker.clone())),
            ("cores", JsonValue::Int(self.cores as i64)),
            ("threads", JsonValue::Int(self.threads as i64)),
            ("throughput", JsonValue::Float(self.throughput)),
            ("throughput_unit", JsonValue::Str(self.throughput_unit.into())),
            ("violating_idle", JsonValue::Float(self.violating_idle)),
            ("convergence_rounds", or_null(self.convergence_rounds, |r| JsonValue::Int(r as i64))),
            ("migrations", JsonValue::Int(self.steals.migrations as i64)),
            ("failures", JsonValue::Int(self.steals.failures() as i64)),
            ("steals_smt", JsonValue::Int(levels[0] as i64)),
            ("steals_llc", JsonValue::Int(levels[1] as i64)),
            ("steals_node", JsonValue::Int(levels[2] as i64)),
            ("steals_remote", JsonValue::Int(levels[3] as i64)),
            ("remote_steal_rate", JsonValue::Float(self.steals.remote_rate())),
            ("rq_backend", or_null(self.rq_backend, |name| JsonValue::Str(name.into()))),
            ("p99_sched_latency_us", or_null(self.p99_sched_latency_us, JsonValue::Float)),
            ("steal_batch_k", or_null(self.steal_batch_k.clone(), JsonValue::Str)),
            ("tasks_per_acquisition", or_null(self.tasks_per_acquisition, JsonValue::Float)),
            (
                "per_node_violating_idle",
                JsonValue::Array(
                    self.per_node_violating_idle.iter().map(|&v| JsonValue::Float(v)).collect(),
                ),
            ),
            ("sim_engine", or_null(self.sim_engine, |engine| JsonValue::Str(engine.into()))),
            ("events_processed", or_null(self.events_processed, |n| JsonValue::Int(n as i64))),
            ("e2e_p99_us", or_null(self.e2e_p99_us, JsonValue::Float)),
            ("e2e_p999_us", or_null(self.e2e_p999_us, JsonValue::Float)),
            ("wall_ms", JsonValue::Float(self.wall_ms)),
        ])
    }
}

/// A column that only some backends measure: its value, or `null`.
fn or_null<T>(value: Option<T>, some: impl FnOnce(T) -> JsonValue) -> JsonValue {
    value.map_or(JsonValue::Null, some)
}

/// One way of executing a [`Scenario`].
pub trait Backend {
    /// Short name used in records (`"model"`, `"sim"`, `"rq"`, …).
    fn name(&self) -> &'static str;

    /// Executes the spec — recording every scheduling decision into `sink`
    /// when one is attached — or returns `None` if this backend cannot run
    /// it.  The record does not depend on whether a sink was attached.
    fn run(&self, spec: &Scenario, sink: Option<&TraceSink>) -> Option<ExperimentRecord>;

    /// `false` for a backend with no decision points to record, which
    /// ignores the sink; [`ExperimentRunner::run_traced`] refuses it.
    fn records_trace(&self) -> bool {
        true
    }

    /// `true` for a backend that runs no OS thread: its schedule is a
    /// function of the spec alone, so a re-run reproduces every field of
    /// its records but the wall-clock ones (`wall_ms`, and a `throughput`
    /// not counted in simulated `ops/s`).  `tests/records.rs` pins such
    /// records to `BENCH_results.json` field by field.  A backend whose
    /// interleaving the OS decides keeps the default.
    fn reproducible(&self) -> bool {
        false
    }
}

/// The record of `spec` on `backend` before anything was measured; its
/// `tracker` is read off the tracker the run built.
fn record_base(
    spec: &Scenario,
    backend: &'static str,
    tracker: &dyn LoadTracker,
) -> ExperimentRecord {
    ExperimentRecord {
        experiment: spec.experiment.clone(),
        scenario: spec.name.clone(),
        backend,
        policy: policy_name(&spec.policy),
        tracker: tracker.name(),
        cores: spec.loads.len(),
        threads: spec.nr_threads() as u64,
        throughput: 0.0,
        throughput_unit: "migrations/s",
        violating_idle: 0.0,
        convergence_rounds: None,
        steals: FoldedStats::default(),
        rq_backend: None,
        p99_sched_latency_us: None,
        e2e_p99_us: None,
        e2e_p999_us: None,
        steal_batch_k: spec.batch.map(batch_label),
        tasks_per_acquisition: None,
        per_node_violating_idle: Vec::new(),
        sim_engine: None,
        events_processed: None,
        final_loads: Vec::new(),
        wall_ms: 0.0,
    }
}

/// What a round-driven run (model or runqueues, any driver) measures about
/// itself besides its steal tally: how much of the machine — and of each
/// NUMA node — sat idle per sampled round, and the wall time it took.
struct RoundSamples<'a> {
    topo: &'a MachineTopology,
    exposure: sched_metrics::OverflowExposure,
    node_idle: Vec<f64>,
}

impl<'a> RoundSamples<'a> {
    fn new(topo: &'a MachineTopology) -> Self {
        RoundSamples {
            topo,
            exposure: sched_metrics::OverflowExposure::new(topo.nr_cpus()),
            node_idle: vec![0.0; topo.nr_nodes()],
        }
    }

    /// Samples one round from its per-core thread counts.  The idle cores
    /// count against the run only while they are `violating` — idle next to
    /// work they could have had.
    fn sample(&mut self, violating: bool, loads: &[usize]) {
        let idle = loads.iter().filter(|&&n| n == 0).count();
        self.exposure.record_round(idle, violating);
        if violating {
            for (node, slot) in self.node_idle.iter_mut().enumerate() {
                let cpus = self.topo.cpus_of_node(NodeId(node));
                let idle = cpus.iter().filter(|c| loads[c.0] == 0).count();
                *slot += idle as f64 / cpus.len() as f64;
            }
        }
    }

    /// Stamps the run's wall time, its migrations per wall-clock second,
    /// the idle fractions averaged over the sampled rounds and — on a batch
    /// sweep — the threads moved per successful acquisition.
    fn stamp(self, record: &mut ExperimentRecord, wall: std::time::Duration) {
        record.wall_ms = wall.as_secs_f64() * 1e3;
        record.throughput = if wall.as_secs_f64() > 0.0 {
            record.steals.migrations as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        record.violating_idle = self.exposure.violating_fraction();
        let rounds = self.exposure.sampled_rounds().max(1) as f64;
        record.per_node_violating_idle = self.node_idle.into_iter().map(|v| v / rounds).collect();
        if record.steal_batch_k.is_some() {
            let FoldedStats { successes, migrations, .. } = record.steals;
            record.tasks_per_acquisition =
                Some(if successes > 0 { migrations as f64 / successes as f64 } else { 0.0 });
        }
    }
}

/// What the round-paced drivers step: the model (a [`SystemState`] under
/// a [`Balancer`]) and the threaded runqueues (a [`MultiQueue`] under a
/// [`Policy`]) are both one, so the replay and burst drivers
/// ([`run_rounds`]) are each written once for the two.
trait RoundMachine {
    /// What a sleeping core's threads leave behind until they wake.
    type Sleepers;

    /// Folds the logical time `now` into every core's tracked load.
    fn tick(&mut self, now: u64);

    /// No core is idle while another is overloaded.
    fn is_work_conserving(&self) -> bool;

    /// Thread count of every core, in core order.
    fn loads(&self) -> Vec<usize>;

    /// Runs one concurrent balancing round and folds its steals into
    /// `steals`.
    fn balance(&mut self, topo: &Arc<MachineTopology>, steals: &mut FoldedStats);

    /// Takes every thread off `core`: they go to sleep.
    fn sleep(&mut self, core: CoreId) -> Self::Sleepers;

    /// Wakes `sleepers` on their own `core`.
    fn wake(&mut self, core: CoreId, sleepers: Self::Sleepers);
}

impl RoundMachine for (SystemState, Balancer) {
    type Sleepers = (Option<Task>, Vec<Task>);

    fn tick(&mut self, now: u64) {
        let (system, balancer) = self;
        system.tick(now, balancer.policy().tracker.as_ref());
    }

    fn is_work_conserving(&self) -> bool {
        self.0.is_work_conserving()
    }

    fn loads(&self) -> Vec<usize> {
        let system = &self.0;
        (0..system.nr_cores()).map(|c| system.core(CoreId(c)).nr_threads() as usize).collect()
    }

    fn balance(&mut self, topo: &Arc<MachineTopology>, steals: &mut FoldedStats) {
        let (system, balancer) = self;
        let report =
            ConcurrentRound::new(balancer).execute(system, &RoundSchedule::AllSelectThenSteal);
        for attempt in &report.attempts {
            let level =
                attempt.outcome.victim().map(|victim| topo.steal_level(attempt.thief, victim));
            steals.observe(&TraceEvent::steal_attempt(&attempt.outcome, level, attempt.k));
        }
    }

    fn sleep(&mut self, core: CoreId) -> Self::Sleepers {
        let state = self.0.core_mut(core);
        (state.current.take(), std::mem::take(&mut state.ready))
    }

    fn wake(&mut self, core: CoreId, (current, ready): Self::Sleepers) {
        let state = self.0.core_mut(core);
        for task in current.into_iter().chain(ready) {
            state.enqueue(task);
        }
    }
}

impl<B: sched_rq::RqBackend> RoundMachine for (MultiQueue<B>, Policy) {
    type Sleepers = Vec<Nice>;

    fn tick(&mut self, now: u64) {
        // Decayed criteria fold the elapsed time under each runqueue's lock.
        self.0.tick(now);
    }

    fn is_work_conserving(&self) -> bool {
        self.0.is_work_conserving()
    }

    fn loads(&self) -> Vec<usize> {
        self.0.snapshots().iter().map(|s| s.nr_threads as usize).collect()
    }

    fn balance(&mut self, _topo: &Arc<MachineTopology>, steals: &mut FoldedStats) {
        let (mq, policy) = self;
        steals.merge(&mq.concurrent_round(policy).tally());
    }

    fn sleep(&mut self, core: CoreId) -> Self::Sleepers {
        let mut sleepers = Vec::new();
        while let Some(task) = self.0.core(core).complete_current() {
            sleepers.push(task.nice);
        }
        sleepers
    }

    fn wake(&mut self, core: CoreId, sleepers: Self::Sleepers) {
        for nice in sleepers {
            self.0.spawn_on_with_nice(core, nice);
        }
    }
}

/// Steps `machine` through the spec's round-paced driver into `record`:
///
/// * **replay** — one balancing period per round, until the machine is
///   work-conserving or the budget runs out;
/// * **burst** (see [`sched_dsl::Burst`]) — per epoch one core's threads sleep, a
///   single concurrent round runs against the blipped state and the
///   sleepers wake on their own core: the churn those blips induce.
fn run_rounds<M: RoundMachine>(
    mut machine: M,
    spec: &Scenario,
    topo: &Arc<MachineTopology>,
    mut record: ExperimentRecord,
) -> ExperimentRecord {
    let mut samples = RoundSamples::new(topo);
    let start = if let Driver::Burst(burst) = spec.driver {
        // Warm up: let decayed trackers converge to the steady loads.
        let mut now = burst.warmup_ns;
        machine.tick(now);
        let start = Instant::now();
        for epoch in 0..burst.epochs {
            let sleeper = CoreId(epoch % spec.loads.len());
            let sleepers = machine.sleep(sleeper);
            now += burst.epoch_ns;
            machine.tick(now);
            samples.sample(true, &machine.loads());
            machine.balance(topo, &mut record.steals);
            machine.wake(sleeper, sleepers);
        }
        start
    } else {
        let start = Instant::now();
        for round in 0..=spec.budget {
            // One balancing period elapses per round; decayed criteria fold
            // it into every core's tracked load before selecting victims.
            machine.tick((round as u64 + 1) * ROUND_NS);
            if machine.is_work_conserving() {
                record.convergence_rounds = Some(round);
                break;
            }
            if round == spec.budget {
                break;
            }
            // Every idle core in a non-work-conserving state is a violation
            // by definition.
            samples.sample(true, &machine.loads());
            machine.balance(topo, &mut record.steals);
        }
        start
    };
    samples.stamp(&mut record, start.elapsed());
    record.final_loads = machine.loads();
    record
}

/// Niceness of the `i`-th spawned task under a spec (uniform `nice 0`
/// unless the spec asks for mixed importance).
fn nice_of(spec: &Scenario, index: u64) -> Nice {
    if spec.mixed_nice {
        Nice::new(MIXED_NICE[(index as usize) % MIXED_NICE.len()])
    } else {
        Nice::NORMAL
    }
}

/// Pure-model backend: concurrent balancing rounds on
/// [`sched_core::SystemState`], no time, no threads — the altitude the
/// proofs live at.
pub struct ModelBackend;

impl Backend for ModelBackend {
    fn name(&self) -> &'static str {
        "model"
    }

    fn records_trace(&self) -> bool {
        false
    }

    fn reproducible(&self) -> bool {
        true
    }

    fn run(&self, spec: &Scenario, _sink: Option<&TraceSink>) -> Option<ExperimentRecord> {
        // Overflow storms probe ring-overflow handling; the model has no
        // ring, so there is nothing for it to measure.  Batch sweeps probe
        // how many queue acquisitions a transfer costs; the model has no
        // queue to acquire (a policy's own step 3 it runs like any other).
        if matches!(spec.driver, Driver::Storm(_) | Driver::OpenLoop(_)) || spec.batch.is_some() {
            return None;
        }
        let topo = Arc::new(build_topology(spec.topology));
        if topo.nr_cpus() != spec.loads.len() {
            return None;
        }
        let mut system = SystemState::with_topology(&topo);
        let mut next_task = 0u64;
        for (core, &n) in spec.loads.iter().enumerate() {
            for _ in 0..n {
                system
                    .core_mut(CoreId(core))
                    .enqueue(Task::with_nice(TaskId(next_task), nice_of(spec, next_task)));
                next_task += 1;
            }
        }
        let policy = build_policy(spec, &topo).ok()?;
        let record = record_base(spec, self.name(), policy.tracker.as_ref());
        Some(run_rounds((system, Balancer::new(policy)), spec, &topo, record))
    }
}

/// Discrete-event simulator backend: the spec's workload (or its load
/// vector replayed as pinned tasks) on [`sched_sim::Engine`] with the
/// optimistic scheduler driven by the spec's policy.
pub struct SimBackend;

/// Event-driven flavour of the simulator backend (record backend
/// `"sim-event"`): the identical scenario on [`sched_sim::EventEngine`],
/// whose cost scales with the number of events rather than `cores ×
/// horizon`.  Under the default priority tie-break its records match the
/// tick engine's exactly (pinned by the parity tests); a spec carrying an
/// `order` seed instead runs it under a seeded same-time permutation.
pub struct SimEventBackend;

/// Which simulation engine a sim backend drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEngine {
    /// The cycle-accurate tick engine ([`sched_sim::Engine`]).
    Tick,
    /// The event-driven engine ([`sched_sim::EventEngine`]).
    Event,
}

/// Everything one simulator run is built from.  Both engines, traced or
/// not, stamped into a record or not, start from this one construction.
pub(crate) struct SimScenario {
    engine: SimEngine,
    topo: Arc<MachineTopology>,
    workload: Workload,
    /// The spec's optimistic scheduler; E9/E10 swap a CFS-like baseline in.
    pub(crate) scheduler: Box<dyn sched_sim::SimScheduler>,
    config: sched_sim::SimConfig,
}

impl SimScenario {
    /// Builds `spec` for `engine`, honouring the spec's `events` budget
    /// and (on the event engine) its `order` seed.  `None` for specs the
    /// simulator cannot execute: like the model it has no fixed-capacity
    /// ring for a storm to overflow and no per-steal queue acquisition for
    /// a batch sweep to amortise, and it has no wall clock for an open loop.
    pub(crate) fn build(engine: SimEngine, spec: &Scenario) -> Option<Self> {
        use sched_sim::{OptimisticScheduler, OrderingPolicy, SimConfig};

        if matches!(spec.driver, Driver::Storm(_) | Driver::OpenLoop(_)) || spec.batch.is_some() {
            return None;
        }
        let topo = Arc::new(build_topology(spec.topology));
        if topo.nr_cpus() != spec.loads.len() {
            return None;
        }
        let workload = sim_workload(spec, topo.nr_cpus());
        let scheduler: Box<dyn sched_sim::SimScheduler> = Box::new(
            OptimisticScheduler::with_topology(build_policy(spec, &topo).ok()?, Arc::clone(&topo)),
        );
        let mut config = SimConfig::default();
        if let Some(budget) = spec.events {
            config = config.with_event_budget(budget);
        }
        if engine == SimEngine::Event {
            if let Some(seed) = spec.order {
                config = config.with_ordering(OrderingPolicy::Seeded(seed));
            }
        }
        Some(SimScenario { engine, topo, workload, scheduler, config })
    }

    pub(crate) fn run(self, sink: Option<&TraceSink>) -> sched_sim::SimResult {
        match self.engine {
            SimEngine::Tick => self.run_on::<sched_sim::engine::Eager>(sink),
            SimEngine::Event => self.run_on::<sched_sim::event_engine::Lazy>(sink),
        }
    }

    fn run_on<U: sched_sim::Upkeep>(self, sink: Option<&TraceSink>) -> sched_sim::SimResult {
        let mut machine = sched_sim::Machine::<U>::new(
            self.config,
            Some(&self.topo),
            &self.workload,
            self.scheduler,
        );
        if let Some(sink) = sink {
            machine.set_trace_sink(sink.clone());
        }
        machine.run()
    }
}

/// Runs one spec on the chosen simulation engine and returns the raw
/// simulator result.  This is the hook the scenario fuzzer's ordering
/// sweep and the engine-parity tests drive: they compare result quantities
/// (`finished`, `operations`, `makespan_ns`, …) that record stamping would
/// discard.  Returns `None` for specs the simulator cannot execute (storms,
/// batch sweeps, open loops, mis-sized load vectors, inline policies that
/// do not compile).
pub fn run_sim_result(engine: SimEngine, spec: &Scenario) -> Option<sched_sim::SimResult> {
    SimScenario::build(engine, spec).map(|scenario| scenario.run(None))
}

/// Runs one spec on the chosen simulation engine, labelling the record
/// with `backend`.  Both engines share the scenario construction, the
/// measured quantities and the schema-v6 engine columns.
fn run_sim(
    engine: SimEngine,
    backend: &'static str,
    spec: &Scenario,
    sink: Option<&TraceSink>,
) -> Option<ExperimentRecord> {
    let scenario = SimScenario::build(engine, spec)?;
    let topo = Arc::clone(&scenario.topo);
    let mut record = record_base(spec, backend, scenario.scheduler.tracker().as_ref());
    record.threads = scenario.workload.nr_threads() as u64;

    let start = Instant::now();
    let result = scenario.run(sink);
    let wall = start.elapsed();

    record.throughput = result.throughput_ops_per_sec();
    record.throughput_unit = "ops/s";
    record.violating_idle = result.violating_idle_fraction();
    record.steals = result.balance;
    record.p99_sched_latency_us = Some(result.latency.quantile(0.99) as f64 / 1e3);
    record.per_node_violating_idle = (0..topo.nr_nodes())
        .map(|n| {
            let cpus: Vec<usize> = topo.cpus_of_node(NodeId(n)).iter().map(|c| c.0).collect();
            result.idle.violation_fraction_of(&cpus)
        })
        .collect();
    record.sim_engine = Some(match engine {
        SimEngine::Tick => "tick",
        SimEngine::Event => "event",
    });
    record.events_processed = Some(result.events_processed);
    record.wall_ms = wall.as_secs_f64() * 1e3;
    Some(record)
}

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn reproducible(&self) -> bool {
        true
    }

    fn run(&self, spec: &Scenario, sink: Option<&TraceSink>) -> Option<ExperimentRecord> {
        run_sim(SimEngine::Tick, self.name(), spec, sink)
    }
}

impl Backend for SimEventBackend {
    fn name(&self) -> &'static str {
        "sim-event"
    }

    fn reproducible(&self) -> bool {
        true
    }

    fn run(&self, spec: &Scenario, sink: Option<&TraceSink>) -> Option<ExperimentRecord> {
        run_sim(SimEngine::Event, self.name(), spec, sink)
    }
}

/// Real-thread backends: the spec's load vector on
/// [`sched_rq::MultiQueue`], one OS thread per core per round, lock-less
/// selection and a genuinely contended stealing phase.  Generic over the
/// [`sched_rq::RqBackend`] runqueue discipline, so the mutex and the
/// lock-free deque machines run the *identical* driver:
///
/// * [`RqBackend`] — record backend `"rq"`, mutex runqueues (double-lock
///   stealing); the keys every historical baseline gates on.
/// * [`RqDequeBackend`] — record backend `"rq-deque"`, Chase–Lev
///   runqueues (CAS stealing).
pub struct RqBackend;

/// The lock-free flavour of the real-thread backend (see [`RqBackend`]).
pub struct RqDequeBackend;

/// The overflow-storm driver (see [`Storm`]): per epoch, a fan-out
/// burst lands on core 0, `rounds_per_epoch` genuinely concurrent rounds
/// run against it with **no tick** in between, and the machine drains.
/// After every round the settled state is sampled: a core still idle while
/// an overloaded core holds waiting work is the violation this experiment
/// exists to measure — on a conserving overflow discipline the burst is
/// fully reachable, so the post-round idle count is ~0; on one that hides
/// overflow the stranded cores persist for the rest of the epoch.
fn run_storm<B: sched_rq::RqBackend>(
    mut machine: (MultiQueue<B>, Policy),
    storm: Storm,
    topo: &Arc<MachineTopology>,
    mut record: ExperimentRecord,
) -> ExperimentRecord {
    let mut samples = RoundSamples::new(topo);
    let mut now = 0u64;

    let start = Instant::now();
    for _ in 0..storm.epochs {
        // The burst: far past the tiny flavours' ring capacity, so most of
        // it lands wherever the backend parks overflow.
        for _ in 0..storm.fanout {
            machine.0.spawn_on(CoreId(0));
        }
        for _ in 0..storm.rounds {
            machine.balance(topo, &mut record.steals);
            // Sample the *settled* state: idle-after-a-full-round while
            // work waits is exactly the conservation violation.
            let loads = machine.loads();
            samples.sample(loads.iter().any(|&n| n >= 2), &loads);
        }
        // Epoch boundary: the tick fires (this is where the private spill
        // finally re-exposes stranded work) and the machine drains for the
        // next burst.
        now += ROUND_NS;
        machine.tick(now);
        for core in 0..topo.nr_cpus() {
            while machine.0.core(CoreId(core)).complete_current().is_some() {}
        }
    }
    samples.stamp(&mut record, start.elapsed());
    record.final_loads = machine.loads();
    record
}

/// Runs one spec on a machine of `B`-discipline runqueues, labelling the
/// record with `backend`.
fn run_rq<B: sched_rq::RqBackend>(
    backend: &'static str,
    spec: &Scenario,
    sink: Option<&TraceSink>,
) -> Option<ExperimentRecord> {
    // An open-loop stream needs real worker threads pulling work as it
    // arrives; the round-driven runqueue harness has none.
    if matches!(spec.driver, Driver::OpenLoop(_)) {
        return None;
    }
    let topo = Arc::new(build_topology(spec.topology));
    if topo.nr_cpus() != spec.loads.len() {
        return None;
    }
    let policy = build_policy(spec, &topo).ok()?;
    let mut mq: MultiQueue<B> =
        MultiQueue::with_topology_and_tracker(&topo, Arc::clone(&policy.tracker));
    if let Some(sink) = sink {
        mq.set_trace_sink(sink.clone());
    }
    let mut next_task = 0u64;
    for (core, &n) in spec.loads.iter().enumerate() {
        for _ in 0..n {
            mq.spawn_on_with_nice(CoreId(core), nice_of(spec, next_task));
            next_task += 1;
        }
    }

    let mut record = record_base(spec, backend, policy.tracker.as_ref());
    record.rq_backend = Some(B::backend_name());
    Some(match spec.driver {
        Driver::Storm(storm) => run_storm((mq, policy), storm, &topo, record),
        _ => run_rounds((mq, policy), spec, &topo, record),
    })
}

impl Backend for RqBackend {
    fn name(&self) -> &'static str {
        "rq"
    }

    fn run(&self, spec: &Scenario, sink: Option<&TraceSink>) -> Option<ExperimentRecord> {
        run_rq::<sched_rq::PerCoreRq<sched_rq::FifoQueue>>(self.name(), spec, sink)
    }
}

impl Backend for RqDequeBackend {
    fn name(&self) -> &'static str {
        "rq-deque"
    }

    fn run(&self, spec: &Scenario, sink: Option<&TraceSink>) -> Option<ExperimentRecord> {
        run_rq::<sched_rq::DequeRq>(self.name(), spec, sink)
    }
}

/// Overflow-storm flavour of the lock-free backend: tiny rings
/// ([`sched_rq::TINY_RING_CAPACITY`]) with the shared-injector overflow
/// discipline (record backend `"rq-deque-tiny"`).  Only executes specs
/// carrying a [`Storm`] driver — on every other scenario its behaviour is the
/// regular `rq-deque` machine with a smaller ring, which would only
/// duplicate rows.
pub struct RqTinyDequeBackend;

/// The storm *baseline*: mutex runqueues whose tasks past a tiny window
/// wait in an owner-private spill ([`sched_rq::SpillQueue`]; record
/// backend `"rq-deque-spill"`, runqueue discipline `"mutex"`).  This is
/// the work-conservation hole kept measurable; E22's headline is the gap
/// between this row's idle-while-spilled and `rq-deque-tiny`'s ~0.
pub struct RqSpillDequeBackend;

impl Backend for RqTinyDequeBackend {
    fn name(&self) -> &'static str {
        "rq-deque-tiny"
    }

    fn run(&self, spec: &Scenario, sink: Option<&TraceSink>) -> Option<ExperimentRecord> {
        if !matches!(spec.driver, Driver::Storm(_)) {
            return None;
        }
        run_rq::<sched_rq::TinyDequeRq>(self.name(), spec, sink)
    }
}

impl Backend for RqSpillDequeBackend {
    fn name(&self) -> &'static str {
        "rq-deque-spill"
    }

    fn run(&self, spec: &Scenario, sink: Option<&TraceSink>) -> Option<ExperimentRecord> {
        if !matches!(spec.driver, Driver::Storm(_)) {
            return None;
        }
        run_rq::<sched_rq::PerCoreRq<sched_rq::SpillQueue>>(self.name(), spec, sink)
    }
}

/// The real-executor backend (record backend `"exec"`): OS worker threads
/// on [`sched_exec::Executor`] — the verified ring+injector runqueues with
/// parking/unparking — driven by an open-loop request stream whose driver
/// measures wall-clock end-to-end latency from each request's scheduled
/// arrival into the schema-v8 `e2e_p99_us` / `e2e_p999_us` columns.  Only
/// executes specs carrying an [`OpenLoop`] driver; every other driver
/// shape is round-paced and already covered by the runqueue backends.
pub struct ExecBackend;

/// Ring capacity of the executor backend's per-worker runqueues: far past
/// any queue depth the catalogued open-loop rungs can build, so every
/// request stays on the lock-free ring.  Overflow is never lost — it goes to
/// the shared injector — but an injector resident waits behind newer ring
/// arrivals until the ring drains, and its push takes the injector's lock;
/// neither belongs in the latency e26's rungs measure.
const EXEC_RING_CAPACITY: usize = 1 << 16;

impl Backend for ExecBackend {
    fn name(&self) -> &'static str {
        "exec"
    }

    fn run(&self, spec: &Scenario, sink: Option<&TraceSink>) -> Option<ExperimentRecord> {
        let Driver::OpenLoop(openloop) = spec.driver else { return None };
        let topo = Arc::new(build_topology(spec.topology));
        if topo.nr_cpus() != spec.loads.len() {
            return None;
        }
        let policy = build_policy(spec, &topo).ok()?;
        let mut record = record_base(spec, self.name(), policy.tracker.as_ref());
        let mut config = sched_exec::ExecConfig::new(Arc::clone(&topo), policy)
            .with_ring_capacity(EXEC_RING_CAPACITY);
        if let Some(sink) = sink {
            config = config.with_trace(sink.clone());
        }

        let start = Instant::now();
        let exec = sched_exec::Executor::start(config);
        let driven = sched_exec::drive(&exec, exec_openloop(openloop));
        exec.drain();
        let report = exec.shutdown();
        let wall = start.elapsed();
        // Drained: the driver's slots hold every request's latency.
        let latency_us = driven.latency_us();

        record.threads = driven.submitted;
        record.throughput = if wall.as_secs_f64() > 0.0 {
            report.completed as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        record.throughput_unit = "reqs/s";
        record.steals = report.stats.tally();
        record.e2e_p99_us = Some(latency_us.quantile(0.99) as f64);
        record.e2e_p999_us = Some(latency_us.quantile(0.999) as f64);
        // Like the simulator, the executor runs its requests to completion —
        // there is no final residency to conserve, so `final_loads` stays
        // empty.
        record.wall_ms = wall.as_secs_f64() * 1e3;
        Some(record)
    }
}

/// Runs `spec` on `backend` with a recorder attached and returns the record
/// with the drained trace — written out too, under `--trace DIR`.
fn run_recorded(backend: &dyn Backend, spec: &Scenario) -> Option<(ExperimentRecord, Trace)> {
    let sink = trace_sink(spec.loads.len());
    let record = backend.run(spec, Some(&sink))?;
    let trace = sink.drain();
    export_trace(spec, backend.name(), &trace);
    Some((record, trace))
}

/// Executes specs across a set of backends.
pub struct ExperimentRunner {
    backends: Vec<Box<dyn Backend>>,
}

impl ExperimentRunner {
    /// A runner over the given backends.
    pub fn new(backends: Vec<Box<dyn Backend>>) -> Self {
        ExperimentRunner { backends }
    }

    /// A runner over every backend: model, the simulator under both of its
    /// engines (tick `sim`, event-driven `sim-event`), the real-thread
    /// machine under both runqueue disciplines (mutex `rq`, lock-free
    /// `rq-deque`), the storm-only tiny-ring flavours (`rq-deque-tiny`,
    /// `rq-deque-spill`), which execute nothing except overflow-storm
    /// specs, and the open-loop-only real executor (`exec`) — record
    /// counts for every other experiment are unchanged.
    pub fn with_all_backends() -> Self {
        ExperimentRunner::new(vec![
            Box::new(ModelBackend),
            Box::new(SimBackend),
            Box::new(SimEventBackend),
            Box::new(RqBackend),
            Box::new(RqDequeBackend),
            Box::new(RqTinyDequeBackend),
            Box::new(RqSpillDequeBackend),
            Box::new(ExecBackend),
        ])
    }

    /// The backends, in execution order.
    pub fn backends(&self) -> &[Box<dyn Backend>] {
        &self.backends
    }

    /// Names [`ExperimentRunner::run_traced`] accepts, in execution order.
    pub fn traced_backends(&self) -> Vec<&'static str> {
        self.backends.iter().filter(|b| b.records_trace()).map(|b| b.name()).collect()
    }

    /// Runs one spec on every backend that supports it, honouring the
    /// spec's backend matrix.  Consumes the spec — a run is a terminal use;
    /// callers that reuse one clone it explicitly.
    pub fn run(&self, spec: Scenario) -> Vec<ExperimentRecord> {
        let exporting = TRACE_DIR.get().is_some();
        self.backends
            .iter()
            .filter(|b| match &spec.backends {
                Some(allowed) => allowed.iter().any(|name| name == b.name()),
                None => true,
            })
            .filter_map(|b| {
                if exporting && b.records_trace() {
                    run_recorded(b.as_ref(), &spec).map(|(record, _)| record)
                } else {
                    b.run(&spec, None)
                }
            })
            .collect()
    }

    /// Runs one spec on the backend called `backend` with decision tracing
    /// on, returning the record and the drained trace.
    ///
    /// `Ok(None)` means the backend cannot execute the spec (the
    /// simulators refuse overflow storms and batch sweeps, the tiny-ring
    /// flavours refuse everything *but* storms) — each backend's own rule,
    /// as in [`ExperimentRunner::run`], though the spec's backend matrix is
    /// not consulted: the caller named the backend.  A name this runner has
    /// no trace-recording backend for is an `Err`, so a CLI can tell a typo
    /// from an incompatible scenario.
    pub fn run_traced(
        &self,
        backend: &str,
        spec: &Scenario,
    ) -> Result<Option<(ExperimentRecord, Trace)>, String> {
        match self.backends.iter().find(|b| b.name() == backend && b.records_trace()) {
            Some(b) => Ok(run_recorded(b.as_ref(), spec)),
            None => Err(format!(
                "unknown backend `{backend}` (expected one of: {})",
                self.traced_backends().join(", ")
            )),
        }
    }

    /// Runs every spec on every backend.
    pub fn run_catalog(&self, specs: Vec<Scenario>) -> Vec<ExperimentRecord> {
        specs.into_iter().flat_map(|spec| self.run(spec)).collect()
    }
}

/// One column of [`records_table`]: its header, and the cell of a record
/// that measured it (`None` for one that did not).
type Column = (&'static str, fn(&ExperimentRecord) -> Option<String>);

/// Every column a record can fill, in display order.
const COLUMNS: [Column; 22] = [
    ("experiment", |r| Some(r.experiment.clone())),
    ("scenario", |r| Some(r.scenario.clone())),
    ("backend", |r| Some(r.backend.into())),
    ("policy", |r| Some(r.policy.clone())),
    ("tracker", |r| Some(r.tracker.clone())),
    ("k", |r| r.steal_batch_k.clone()),
    ("cores", |r| Some(r.cores.to_string())),
    ("threads", |r| Some(r.threads.to_string())),
    ("throughput", |r| Some(format!("{:.0} {}", r.throughput, r.throughput_unit))),
    ("violating idle %", |r| Some(format!("{:.1}%", r.violating_idle * 100.0))),
    ("rounds to WC", |r| Some(r.convergence_rounds.map_or_else(|| "-".into(), |n| n.to_string()))),
    ("migrations", |r| Some(r.steals.migrations.to_string())),
    ("failures", |r| Some(r.steals.failures().to_string())),
    ("tasks/acquisition", |r| r.tasks_per_acquisition.map(|t| format!("{t:.2}"))),
    ("steals smt/llc/node/remote", |r| {
        let [smt, llc, node, remote] = r.steals.level_migrations;
        Some(format!("{smt}/{llc}/{node}/{remote}"))
    }),
    ("remote %", |r| Some(format!("{:.0}%", r.steals.remote_rate() * 100.0))),
    ("violating idle per node", |r| {
        (r.per_node_violating_idle.len() > 1).then(|| {
            let nodes: Vec<String> =
                r.per_node_violating_idle.iter().map(|v| format!("{:.0}%", v * 100.0)).collect();
            nodes.join(" ")
        })
    }),
    ("p99 sched latency (us)", |r| r.p99_sched_latency_us.map(|p| format!("{p:.0}"))),
    ("e2e p99 (us)", |r| r.e2e_p99_us.map(|p| format!("{p:.0}"))),
    ("e2e p999 (us)", |r| r.e2e_p999_us.map(|p| format!("{p:.0}"))),
    ("events processed", |r| r.events_processed.map(|n| n.to_string())),
    ("wall (ms)", |r| Some(format!("{:.2}", r.wall_ms))),
];

/// Renders records as one table for terminal display — the view every
/// experiment prints of its catalog records, and the one `experiments
/// --json` prints of the whole catalog.  A column is shown only when some
/// record in the table measured it.
pub fn records_table(title: impl Into<String>, records: &[ExperimentRecord]) -> Table {
    let shown: Vec<&Column> =
        COLUMNS.iter().filter(|(_, cell)| records.iter().any(|r| cell(r).is_some())).collect();
    let headers: Vec<&str> = shown.iter().map(|(header, _)| *header).collect();
    let mut table = Table::new(title, &headers);
    for r in records {
        let cells: Vec<String> =
            shown.iter().map(|(_, cell)| cell(r).unwrap_or_else(|| "-".into())).collect();
        table.row(&cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_dsl::Burst;

    fn small_spec(policy: PolicyRecipe) -> Scenario {
        Scenario {
            name: "test: single hot of four".into(),
            experiment: "e2".into(),
            topology: Topology::Flat(4),
            loads: vec![8, 0, 0, 0],
            policy,
            backends: None,
            driver: Driver::Replay,
            budget: 64,
            events: None,
            order: None,
            batch: None,
            mixed_nice: false,
            expect: Vec::new(),
        }
    }

    fn inline(source: &str) -> PolicyRecipe {
        PolicyRecipe::Inline(sched_dsl::parse(source).expect("stdlib policies parse"))
    }

    #[test]
    fn declared_core_counts_match_the_built_machines() {
        for topology in
            [Topology::Flat(1), Topology::Flat(12), Topology::DualSocket, Topology::EightNode]
        {
            assert_eq!(
                declared_cores(topology),
                build_topology(topology).nr_cpus(),
                "{topology:?}"
            );
        }
    }

    #[test]
    fn validate_rejects_illegal_combinations() {
        let base = small_spec(PolicyRecipe::Listing1);
        assert_eq!(validate(&base), Ok(()));
        let storm = Driver::Storm(Storm { epochs: 2, fanout: 8, rounds: 1 });
        let burst = Driver::Burst(Burst {
            epochs: 8,
            epoch_ns: 1_000_000,
            warmup_ns: 8_000_000,
            seed: 17,
            jitter_pct: 40,
        });
        let openloop = Driver::OpenLoop(OpenLoop {
            rate_hz: 100,
            duration_ms: 10,
            service: Service::Fixed(10),
            seed: 11,
        });
        let names = |backends: &[&str]| Some(backends.iter().map(|b| b.to_string()).collect());

        // Batch + replay and batch + storm stay valid, and so does an open
        // loop that names the executor alone.
        for ok in [
            Scenario { batch: Some(Batch::Half), ..base.clone() },
            Scenario { driver: storm, batch: Some(Batch::Fixed(2)), ..base.clone() },
            Scenario { driver: openloop, backends: names(&["exec"]), ..base.clone() },
        ] {
            assert_eq!(validate(&ok), Ok(()), "{ok:?}");
        }

        let bogus = sched_dsl::parse(
            "policy bogus { filter = victim.load + 1; choose = first; steal = 1; }",
        )
        .expect("ill-typed policies still parse");
        for (bad, complaint) in [
            // The experiment key must be a row of the EXPERIMENTS table.
            (Scenario { experiment: "e99".into(), ..base.clone() }, "unknown experiment"),
            (Scenario { loads: Vec::new(), ..base.clone() }, "load vector"),
            // Load vector sized to the wrong machine.
            (Scenario { loads: vec![1, 2, 3], ..base.clone() }, "4 cores"),
            (Scenario { topology: Topology::DualSocket, ..base.clone() }, "16 cores"),
            (Scenario { topology: Topology::EightNode, ..base.clone() }, "64 cores"),
            // A steal batch under a burst driver would be silently ignored.
            (
                Scenario { driver: burst, batch: Some(Batch::Fixed(2)), ..base.clone() },
                "steal batch",
            ),
            // A backend matrix naming a simulator backend on a storm or
            // batch scenario would silently produce no record.
            (
                Scenario { driver: storm, backends: names(&["sim-event"]), ..base.clone() },
                "simulator backends",
            ),
            (
                Scenario {
                    batch: Some(Batch::Fixed(2)),
                    backends: names(&["sim", "rq"]),
                    ..base.clone()
                },
                "simulator backends",
            ),
            // An open loop runs on the executor alone, and says so.
            (Scenario { driver: openloop, ..base.clone() }, "must declare"),
            (
                Scenario { driver: openloop, backends: names(&[]), ..base.clone() },
                "`exec` backend only",
            ),
            (
                Scenario { driver: openloop, backends: names(&["exec", "rq"]), ..base.clone() },
                "`exec` backend only",
            ),
            // An event budget on a storm or open loop has no backend to
            // apply to.
            (Scenario { driver: storm, events: Some(1_000), ..base.clone() }, "event budget"),
            (
                Scenario {
                    driver: openloop,
                    backends: names(&["exec"]),
                    events: Some(1_000),
                    ..base.clone()
                },
                "event budget",
            ),
            // An inline policy that does not compile.
            (Scenario { policy: PolicyRecipe::Inline(bogus), ..base.clone() }, "compile"),
        ] {
            let err = validate(&bad).expect_err(complaint);
            assert!(err.to_string().contains(complaint), "{complaint}: {err}");
        }
    }

    #[test]
    fn all_backends_run_the_same_spec() {
        let spec = small_spec(PolicyRecipe::Listing1);
        let runner = ExperimentRunner::with_all_backends();
        let records = runner.run(spec);
        assert_eq!(records.len(), 5);
        let backends: Vec<&str> = records.iter().map(|r| r.backend).collect();
        assert_eq!(backends, vec!["model", "sim", "sim-event", "rq", "rq-deque"]);
        // Schema v4: the rq records carry their runqueue discipline.
        let flavour = |backend: &str| {
            records.iter().find(|r| r.backend == backend).and_then(|r| r.rq_backend)
        };
        assert_eq!(flavour("rq"), Some("mutex"));
        assert_eq!(flavour("rq-deque"), Some("deque"));
        assert_eq!(flavour("model"), None);
        // Schema v6: only the sim records carry their engine and event count.
        let engine = |backend: &str| {
            records.iter().find(|r| r.backend == backend).and_then(|r| r.sim_engine)
        };
        assert_eq!(engine("sim"), Some("tick"));
        assert_eq!(engine("sim-event"), Some("event"));
        assert_eq!(engine("model"), None);
        assert_eq!(engine("rq"), None);
        for r in &records {
            assert_eq!(r.experiment, "e2");
            assert_eq!(r.cores, 4);
            assert!(r.threads >= 8);
            assert!(r.steals.migrations > 0, "{}: balancing must migrate work", r.backend);
            if r.backend.starts_with("sim") {
                let events = r.events_processed.expect("sim records count events");
                assert!(events > 0, "{}: a run processes events", r.backend);
            } else {
                assert_eq!(r.events_processed, None);
            }
        }
        // The model and rq backends must both converge, and — single hot
        // core, three idle thieves — need at least three migrations.
        for r in records.iter().filter(|r| !r.backend.starts_with("sim")) {
            assert!(r.convergence_rounds.is_some(), "{} did not converge", r.backend);
            assert!(r.steals.migrations >= 3);
            // The replayed tasks must all still be there, spread out.
            assert_eq!(r.final_loads.iter().sum::<usize>(), 8, "{}: tasks conserved", r.backend);
            assert!(
                r.final_loads.iter().all(|&l| l <= 8),
                "{}: no core may end above the initial maximum",
                r.backend
            );
        }
    }

    /// What the by-name traced entry refuses: a typo and the model (which
    /// records no trace) are errors, not silent skips, and the tiny
    /// flavours decline through their own storm-only rule.
    #[test]
    fn run_traced_refuses_unknown_names_and_leaves_declining_to_the_backend() {
        let runner = ExperimentRunner::with_all_backends();
        let replay = small_spec(PolicyRecipe::Listing1);
        assert!(runner.run_traced("qr-deque", &replay).is_err());
        assert!(runner.run_traced("model", &replay).is_err());
        for tiny in ["rq-deque-tiny", "rq-deque-spill"] {
            assert!(
                runner.run_traced(tiny, &replay).expect("a known backend").is_none(),
                "{tiny}: the tiny flavours execute nothing but storms"
            );
        }
    }

    /// Tracing attaches to a run, it does not fork it: for every backend
    /// of the runner, found by name, and the first catalogued spec it
    /// executes, the traced run and the plain one produce the same record
    /// wherever a record can repeat, and the trace alone folds back into
    /// the traced record's counters with nothing dropped.
    #[test]
    fn a_traced_run_is_the_same_run_on_every_backend() {
        let runner = ExperimentRunner::with_all_backends();
        let catalog = crate::catalog::builtin();
        let names: Vec<&str> = runner.backends().iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 8);
        assert_eq!(runner.traced_backends(), names[1..], "every backend but the model traces");
        for &name in &names[1..] {
            let (spec, traced, trace) = catalog
                .iter()
                .find_map(|spec| {
                    let (record, trace) = runner.run_traced(name, spec).expect("a known name")?;
                    Some((spec, record, trace))
                })
                .unwrap_or_else(|| panic!("{name} executes no catalogued spec"));
            let mut only = spec.clone();
            only.backends = Some(vec![name.to_string()]);
            let plain = runner.run(only).pop().expect("the plain run accepts what the traced did");

            let identity = |r: &ExperimentRecord| {
                let ExperimentRecord { experiment, scenario, policy, tracker, .. } = r.clone();
                let shape = (r.backend, r.cores, r.threads, r.throughput_unit);
                let columns = (r.rq_backend, r.steal_batch_k.clone(), r.sim_engine);
                (experiment, scenario, policy, tracker, shape, columns)
            };
            assert_eq!(identity(&traced), identity(&plain), "{name}");
            assert_eq!(traced.backend, name);
            if traced.sim_engine.is_some() {
                // Simulated time: every measured field repeats exactly.
                let measured = |r: &ExperimentRecord| {
                    let idle = (r.violating_idle, r.per_node_violating_idle.clone());
                    (r.steals, idle, r.throughput, r.p99_sched_latency_us, r.events_processed)
                };
                assert_eq!(measured(&traced), measured(&plain), "{name}");
            }

            assert_eq!(trace.dropped, 0, "{name}: the sink must hold `{}`", spec.name);
            assert_eq!(
                traced.steals,
                FoldedStats::from_trace(&trace),
                "{name}: steals == fold(trace)"
            );
        }
    }

    #[test]
    fn sim_engines_agree_record_for_record() {
        // Tick/event parity at the record level: same workload, same
        // scheduler, same measured quantities.  (The sim crate pins the
        // engines against each other on richer scenarios; this pins the
        // runner's plumbing — config, workload construction, stamping.)
        let runner = ExperimentRunner::with_all_backends();
        for policy in [PolicyRecipe::Listing1, PolicyRecipe::Pelt] {
            let mut spec = small_spec(policy);
            spec.backends = Some(vec!["sim".into(), "sim-event".into()]);
            let records = runner.run(spec);
            assert_eq!(records.len(), 2);
            let (tick, event) = (&records[0], &records[1]);
            assert_eq!(tick.backend, "sim");
            assert_eq!(event.backend, "sim-event");
            assert_eq!(tick.throughput, event.throughput, "{}", tick.policy);
            assert_eq!(tick.violating_idle, event.violating_idle, "{}", tick.policy);
            assert_eq!(tick.steals, event.steals, "{}", tick.policy);
            assert_eq!(tick.p99_sched_latency_us, event.p99_sched_latency_us, "{}", tick.policy);
            assert_eq!(
                tick.per_node_violating_idle, event.per_node_violating_idle,
                "{}",
                tick.policy
            );
            // The event engine must do strictly less bookkeeping.
            assert!(
                event.events_processed.unwrap() < tick.events_processed.unwrap(),
                "{}: event engine must process fewer events ({:?} vs {:?})",
                tick.policy,
                event.events_processed,
                tick.events_processed
            );
        }
    }

    #[test]
    fn an_event_budget_truncates_both_sim_engines() {
        let mut spec = small_spec(PolicyRecipe::Listing1);
        spec.backends = Some(vec!["sim".into(), "sim-event".into()]);
        spec.events = Some(10);
        let runner = ExperimentRunner::with_all_backends();
        let records = runner.run(spec);
        assert_eq!(records.len(), 2);
        for r in &records {
            assert_eq!(r.events_processed, Some(10), "{}: the cap is recorded", r.backend);
        }
    }

    #[test]
    fn an_order_seed_reorders_only_the_event_engine() {
        // The `order` seed changes the same-time tie-break of the event
        // engine; the tick engine ignores it.  Task conservation holds
        // under any order: all eight tasks finish either way.
        let runner = ExperimentRunner::with_all_backends();
        let mut spec = small_spec(PolicyRecipe::Listing1);
        spec.backends = Some(vec!["sim".into(), "sim-event".into()]);
        let baseline = runner.run(spec.clone());
        spec.order = Some(7);
        let seeded = runner.run(spec);
        // Tick records are untouched by the seed.
        assert_eq!(baseline[0].steals, seeded[0].steals);
        assert_eq!(baseline[0].throughput, seeded[0].throughput);
        // The seeded event run still finishes every task (throughput is
        // ops over simulated time, and every op completes).
        assert!(seeded[1].throughput > 0.0);
    }

    #[test]
    fn the_backend_matrix_restricts_execution() {
        let mut spec = small_spec(PolicyRecipe::Listing1);
        spec.backends = Some(vec!["model".into(), "rq-deque".into()]);
        let runner = ExperimentRunner::with_all_backends();
        let records = runner.run(spec);
        let backends: Vec<&str> = records.iter().map(|r| r.backend).collect();
        assert_eq!(backends, vec!["model", "rq-deque"]);
    }

    #[test]
    fn batch_specs_run_on_the_rq_backends_only_and_measure_tasks_per_acquisition() {
        let spec = Scenario {
            experiment: "e23".into(),
            loads: vec![16, 0, 0, 0],
            batch: Some(Batch::Fixed(1)),
            ..small_spec(PolicyRecipe::Listing1)
        };
        let runner = ExperimentRunner::with_all_backends();
        let records = runner.run(spec.clone());
        let backends: Vec<&str> = records.iter().map(|r| r.backend).collect();
        assert_eq!(backends, vec!["rq", "rq-deque"], "model/sim cannot execute a batch sweep");
        for r in &records {
            assert_eq!(r.steal_batch_k.as_deref(), Some("1"));
            let tpa = r.tasks_per_acquisition.expect("batch records measure the amortisation");
            assert!(
                (tpa - 1.0).abs() < 1e-9,
                "{}: k=1 moves exactly one task per successful acquisition, got {tpa}",
                r.backend
            );
        }
        // A batch size outside the swept ones is labelled by its own decimal.
        for (batch, label) in [(Batch::Fixed(3), "3"), (Batch::Fixed(16), "16")] {
            let records = runner.run(Scenario { batch: Some(batch), ..spec.clone() });
            assert_eq!(records.len(), 2);
            for r in &records {
                assert_eq!(r.steal_batch_k.as_deref(), Some(label), "{}", r.backend);
                assert!(r.tasks_per_acquisition.is_some_and(|tpa| tpa >= 1.0), "{}", r.backend);
            }
        }
        // Non-batch records keep the schema-v5 fields null.
        let plain = runner.run(small_spec(PolicyRecipe::Listing1));
        for r in &plain {
            assert_eq!(r.steal_batch_k, None);
            assert_eq!(r.tasks_per_acquisition, None);
        }
    }

    #[test]
    fn dsl_policy_behaves_like_handwritten_listing1_on_the_model() {
        let runner = ExperimentRunner::new(vec![Box::new(ModelBackend)]);
        let handwritten = &runner.run(small_spec(PolicyRecipe::Listing1))[0];
        let compiled = &runner.run(small_spec(inline(sched_dsl::stdlib::LISTING1)))[0];
        assert_eq!(compiled.policy, "dsl(listing1)");
        assert_eq!(handwritten.convergence_rounds, compiled.convergence_rounds);
        assert_eq!(handwritten.steals, compiled.steals);
    }

    #[test]
    fn json_document_has_the_required_fields() {
        let runner = ExperimentRunner::new(vec![Box::new(ModelBackend)]);
        let records = runner.run(small_spec(PolicyRecipe::Listing1));
        let json = crate::records::records_to_json(&records);
        for key in [
            "\"experiment\"",
            "\"scenario\"",
            "\"backend\"",
            "\"cores\"",
            "\"throughput\"",
            "\"violating_idle\"",
            "\"convergence_rounds\"",
            "\"steals_smt\"",
            "\"steals_remote\"",
            "\"remote_steal_rate\"",
            "\"per_node_violating_idle\"",
            "\"rq_backend\"",
            "\"p99_sched_latency_us\"",
            "\"steal_batch_k\"",
            "\"tasks_per_acquisition\"",
            "\"sim_engine\"",
            "\"events_processed\"",
            "\"records\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // `final_loads` is runner-internal state for invariant checks, not
        // part of the record.
        assert!(!json.contains("final_loads"), "final_loads must not be serialized");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn records_table_has_one_row_per_record() {
        let runner = ExperimentRunner::new(vec![Box::new(ModelBackend)]);
        let records = runner.run_catalog(vec![
            small_spec(PolicyRecipe::Listing1),
            small_spec(PolicyRecipe::Weighted),
        ]);
        assert_eq!(records_table("model", &records).nr_rows(), 2);
    }

    /// A column is shown only when some record in the table measured it:
    /// the model measures no simulator column, and one simulator record
    /// brings them in, with a `-` in the model's cell.
    #[test]
    fn records_table_shows_only_the_columns_some_record_measured() {
        let header = |records: &[ExperimentRecord]| -> Vec<String> {
            let csv = records_table("t", records).to_csv();
            csv.lines().next().expect("a header").split(',').map(str::to_string).collect()
        };
        let model = ExperimentRunner::new(vec![Box::new(ModelBackend)])
            .run(small_spec(PolicyRecipe::Listing1));
        let sim = ExperimentRunner::new(vec![Box::new(SimEventBackend)])
            .run(small_spec(PolicyRecipe::Listing1));
        let sim_only = ["p99 sched latency (us)", "events processed"];
        let shown = header(&model);
        assert!(shown.iter().any(|h| h == "migrations"), "{shown:?}");
        for column in sim_only.iter().chain(&["k", "tasks/acquisition", "e2e p99 (us)"]) {
            assert!(!shown.iter().any(|h| h == column), "{column} in {shown:?}");
        }
        let both: Vec<ExperimentRecord> = model.into_iter().chain(sim).collect();
        let shown = header(&both);
        for column in sim_only {
            let at = shown.iter().position(|h| h == column).expect("a simulator column");
            let csv = records_table("t", &both).to_csv();
            let model_row: Vec<&str> =
                csv.lines().nth(1).expect("the model row").split(',').collect();
            assert_eq!(model_row[at], "-", "{column}");
        }
    }
}
