//! The experiments e1–e26, one row of the `EXPERIMENTS` table each (the
//! README's per-experiment index).  Every experiment prints its catalog
//! records through one renderer, [`records_table`]; a row adds a bespoke
//! table only for a claim no record can hold — a lemma verdict, a model or
//! CFS comparison, a microbenchmark, or a trace checker's windows.

use std::sync::Arc;
use std::time::Instant;

use sched_core::prelude::*;
use sched_dsl::{Driver, Scenario, Topology};
use sched_metrics::Table;
use sched_rq::MultiQueue;
use sched_verify::{
    analyze_convergence, find_non_conserving_cycle, lemmas, verify_policy, ChoiceStrategy, Scope,
};
use sched_workloads::{ImbalancePattern, StaticImbalance};

use crate::runner::{build_topology, records_table, ExperimentRunner};
use crate::scenarios::{choice_variants, run_sim, SchedulerKind};

/// Identifier of one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ExperimentId {
    E1,
    E2,
    E3,
    E4,
    E5,
    E6,
    E7,
    E8,
    E9,
    E10,
    E11,
    E12,
    E13,
    E14,
    E15,
    E16,
    E17,
    E18,
    E19,
    E20,
    E21,
    E22,
    E23,
    E24,
    E25,
    E26,
}

/// One experiment: its id, the key the CLI parses and the catalog's
/// documents declare, the title the harness shows and — for a claim no
/// record can hold — the function that builds its bespoke tables.
type Row = (ExperimentId, &'static str, &'static str, Option<fn() -> Vec<Table>>);

/// Every experiment, in index order.  Adding one is adding a variant, its
/// row here and its `experiments/eN.scn` document.
#[rustfmt::skip] // one row per experiment
const EXPERIMENTS: [Row; 26] = {
    use ExperimentId::*;
    [
        (E1, "e1", "E1  Figure 1: the choice step is irrelevant to the proofs", Some(e1_choice_irrelevance)),
        (E2, "e2", "E2  Listing 1: the simple load balancer in action", Some(e2_listing1)),
        (E3, "e3", "E3  Listing 2 / Lemma 1: filter soundness and completeness", Some(e3_lemma1)),
        (E4, "e4", "E4  §4.2: steal soundness and sequential work conservation", Some(e4_sequential)),
        (E5, "e5", "E5  §4.3: the greedy-filter ping-pong counterexample", Some(e5_pingpong)),
        (E6, "e6", "E6  §4.3 P1: failures imply concurrent successes", Some(e6_failures)),
        (E7, "e7", "E7  §4.3 P2: the potential decreases on every steal", Some(e7_potential)),
        (E8, "e8", "E8  §3.2: rounds to reach work conservation (the bound N)", Some(e8_convergence)),
        (E9, "e9", "E9  §1: scientific (fork-join) workload degradation", Some(e9_scientific)),
        (E10, "e10", "E10 §1: database (OLTP) throughput loss", Some(e10_database)),
        (E11, "e11", "E11 §3.1: overhead of lock-less vs fully locked balancing", Some(e11_overhead)),
        (E12, "e12", "E12 §5: hierarchical / NUMA-aware balancing in step 2", Some(e12_hierarchical)),
        (E13, "e13", "E13 §1/§5: the DSL front-end and its two backends", Some(e13_dsl)),
        (E14, "e14", "E14 §5: NUMA imbalance — distance-ordered stealing drains a saturated node", None),
        (E15, "e15", "E15 §5: cross-node ping-pong bait — locality of the victim search", None),
        (E16, "e16", "E16 §5: hierarchical convergence — per-level balancing stays node-local", None),
        (E17, "e17", "E17 §3.1: bursty on/off load — instantaneous balancing thrashes, PELT converges", None),
        (E18, "e18", "E18 §4.2: mixed niceness — instantaneous weighted vs PELT-decayed weighted", None),
        (E19, "e19", "E19 §3.1: load-tracker overhead on the balancing hot path", Some(e19_tracker_overhead)),
        (E20, "e20", "E20 §3.1: steal-heavy fan-out — the owner path under thief bombardment", Some(e20_steal_fanout)),
        (E21, "e21", "E21 §3.1: PELT half-life sensitivity — churn vs responsiveness at 1/4/16/64 ms", None),
        (E22, "e22", "E22 §3.2: overflow storm — ring overflow must stay stealable (injector vs spill)", None),
        (E23, "e23", "E23 §3.1: batched stealing — tasks claimed per acquisition, k=1..8 vs half", None),
        (E24, "e24", "E24 §2: event-driven simulation — O(events) vs O(cores x horizon) at 1M tasks", None),
        (E25, "e25", "E25 §3.2: trace-only detection — the sanity checker finds the spill hole", Some(e25_trace_sanity)),
        (E26, "e26", "E26 §4: the real executor — open-loop latency ladder, measured end-to-end p99/p999", Some(e26_executor_ladder)),
    ]
};

impl ExperimentId {
    /// All experiments, in index order.
    pub fn all() -> Vec<ExperimentId> {
        EXPERIMENTS.iter().map(|row| row.0).collect()
    }

    /// Parses an experiment id such as `e5` or `E12`.
    pub fn parse(text: &str) -> Option<ExperimentId> {
        EXPERIMENTS.iter().find(|row| row.1.eq_ignore_ascii_case(text)).map(|row| row.0)
    }

    /// The key the catalog's documents and records carry (`"e5"`).
    pub(crate) fn key(self) -> &'static str {
        EXPERIMENTS[self as usize].1
    }

    /// Short description shown by the harness.
    pub fn title(self) -> &'static str {
        EXPERIMENTS[self as usize].2
    }
}

/// Runs one experiment: its bespoke tables, if it has any, then the view
/// of its catalog records on every backend that executes them.
pub fn run_experiment(id: ExperimentId) -> Vec<Table> {
    let mut tables = EXPERIMENTS[id as usize].3.map_or_else(Vec::new, |bespoke| bespoke());
    let records = ExperimentRunner::with_all_backends().run_catalog(crate::catalog::specs_of(id));
    tables.push(records_table(format!("{}: catalog records", id.title()), &records));
    tables
}

/// Runs every experiment in index order.
pub fn all_experiments() -> Vec<(ExperimentId, Vec<Table>)> {
    ExperimentId::all().into_iter().map(|id| (id, run_experiment(id))).collect()
}

fn verdict(ok: bool) -> String {
    if ok {
        "proved".into()
    } else {
        "REFUTED".into()
    }
}

/// E1: swap every choice policy into Listing 1 and re-run the whole lemma
/// suite; every variant must verify with the identical convergence bound.
fn e1_choice_irrelevance() -> Vec<Table> {
    let topo = Arc::new(build_topology(Topology::DualSocket));
    let scope = Scope::small();
    let mut table = Table::new(
        "E1: the choice step (step 2) never affects the proofs [scope: 3 cores, 5 threads]",
        &["choice policy", "lemmas proved", "work conserving", "max rounds N", "instances checked"],
    );
    for (name, policy) in choice_variants(&topo) {
        let balancer = Balancer::new(policy);
        let report = verify_policy(&balancer, &scope, false);
        let n = report.convergence.as_ref().map(|n| n.to_string()).unwrap_or_else(|_| "-".into());
        table.row(&[
            name.into(),
            format!(
                "{}/{}",
                report.lemmas.iter().filter(|l| l.is_proved()).count(),
                report.lemmas.len()
            ),
            verdict(report.is_work_conserving()),
            n,
            report.total_instances().to_string(),
        ]);
    }
    vec![table]
}

/// E2: the Listing 1 balancer fixing single-hot imbalances of growing size.
fn e2_listing1() -> Vec<Table> {
    let mut table = Table::new(
        "E2: Listing 1 balancer, sequential rounds, all threads initially on core 0",
        &[
            "cores",
            "threads",
            "rounds to WC",
            "migrations",
            "failures",
            "potential before",
            "potential after",
        ],
    );
    for &cores in &[2usize, 4, 8, 16, 32, 64] {
        let threads = cores * 2;
        let loads = StaticImbalance::new(cores, threads, ImbalancePattern::SingleHot).loads();
        let mut system = SystemState::from_loads(&loads);
        let d_before = potential(&system, LoadMetric::NrThreads);
        let balancer = Balancer::new(Policy::simple());
        let result = converge(&mut system, &balancer, RoundSchedule::Sequential, 4 * threads);
        table.row(&[
            cores.to_string(),
            threads.to_string(),
            result.rounds.map(|r| r.to_string()).unwrap_or_else(|| "-".into()),
            result.total_migrations().to_string(),
            result.total_failures().to_string(),
            d_before.to_string(),
            potential(&system, LoadMetric::NrThreads).to_string(),
        ]);
    }
    vec![table]
}

/// E3: Lemma 1 checked exhaustively for each filter.
fn e3_lemma1() -> Vec<Table> {
    let scope = Scope::default_scope();
    let mut table = Table::new(
        format!("E3: Lemma 1 (Listing 2) over the exhaustive scope ({scope})"),
        &["filter", "verdict", "idle-thief instances", "check time (ms)"],
    );
    let policies: Vec<(&str, Policy)> = vec![
        ("listing1 (delta >= 2)", Policy::simple()),
        ("greedy (load >= 2)", Policy::greedy()),
        ("weighted", Policy::weighted()),
    ];
    for (name, policy) in policies {
        let balancer = Balancer::new(policy);
        let start = Instant::now();
        let report = lemmas::check_lemma1(&balancer, &scope);
        table.row(&[
            name.into(),
            verdict(report.is_proved()),
            report.instances.to_string(),
            format!("{:.1}", start.elapsed().as_secs_f64() * 1e3),
        ]);
    }
    vec![table]
}

/// E4: steal soundness and sequential work conservation.
fn e4_sequential() -> Vec<Table> {
    let scope = Scope::default_scope();
    let mut table = Table::new(
        format!("E4: §4.2 sequential-setting lemmas ({scope})"),
        &["policy", "steal soundness", "sequential WC", "instances"],
    );
    type PolicyCtor = fn() -> Policy;
    let policies: Vec<(&str, PolicyCtor)> = vec![
        ("listing1", Policy::simple),
        ("greedy", Policy::greedy),
        ("weighted", Policy::weighted),
    ];
    for (name, make) in policies {
        let balancer = Balancer::new(make());
        let sound = lemmas::check_steal_soundness(&balancer, &scope);
        let seq = lemmas::check_sequential_work_conservation(&balancer, &scope);
        table.row(&[
            name.into(),
            verdict(sound.is_proved()),
            verdict(seq.is_proved()),
            (sound.instances + seq.instances).to_string(),
        ]);
    }
    vec![table]
}

/// E5: the §4.3 ping-pong found automatically, and its absence for Listing 1.
fn e5_pingpong() -> Vec<Table> {
    let scope = Scope::small();
    let mut table = Table::new(
        "E5: §4.3 counterexample search (adversarial interleavings and choices)",
        &["filter", "violation found", "witness"],
    );
    for (name, policy) in
        [("greedy (load >= 2)", Policy::greedy()), ("listing1 (delta >= 2)", Policy::simple())]
    {
        let balancer = Balancer::new(policy);
        let witness = find_non_conserving_cycle(&balancer, &scope, ChoiceStrategy::Adversarial);
        let description = match &witness {
            Some(w) => {
                let states: Vec<String> = w.cycle.iter().map(|s| format!("{s:?}")).collect();
                format!("cycle {} (idle core starves forever)", states.join(" -> "))
            }
            None => "none within scope".into(),
        };
        table.row(&[
            name.into(),
            if witness.is_some() { "YES".into() } else { "no".into() },
            description,
        ]);
    }
    vec![table]
}

/// E6: P1 — failures only happen because a concurrent steal succeeded.
fn e6_failures() -> Vec<Table> {
    let scope = Scope::small();
    let mut table = Table::new(
        format!("E6: §4.3 P1 over every interleaving of every configuration ({scope})"),
        &["policy", "verdict", "round interleavings checked"],
    );
    for (name, policy) in [
        ("listing1", Policy::simple()),
        ("greedy", Policy::greedy()),
        ("weighted", Policy::weighted()),
    ] {
        let balancer = Balancer::new(policy);
        let report = lemmas::check_failure_implies_concurrent_success(&balancer, &scope);
        table.row(&[name.into(), verdict(report.is_proved()), report.instances.to_string()]);
    }
    vec![table]
}

/// E7: P2 — the potential decreases on every successful steal, and a traced
/// example of the potential draining to its floor.
fn e7_potential() -> Vec<Table> {
    let scope = Scope::default_scope();
    let mut lemma_table = Table::new(
        format!("E7a: §4.3 P2 potential-decrease lemma ({scope})"),
        &["policy", "verdict", "filter-holding steals checked"],
    );
    for (name, policy) in [
        ("listing1", Policy::simple()),
        ("greedy", Policy::greedy()),
        ("weighted", Policy::weighted()),
    ] {
        let balancer = Balancer::new(policy);
        let report = lemmas::check_potential_decreases(&balancer, &scope);
        lemma_table.row(&[name.into(), verdict(report.is_proved()), report.instances.to_string()]);
    }

    let mut trace = Table::new(
        "E7b: potential d per concurrent round, 8 cores, 16 threads in a step imbalance (Listing 1 policy)",
        &["round", "loads", "potential d", "successes", "failures"],
    );
    let mut system =
        SystemState::from_loads(&StaticImbalance::new(8, 16, ImbalancePattern::Step).loads());
    let balancer = Balancer::new(Policy::simple());
    let executor = ConcurrentRound::new(&balancer);
    trace.row(&[
        "0".into(),
        system.load_vector_string(LoadMetric::NrThreads),
        potential(&system, LoadMetric::NrThreads).to_string(),
        "-".into(),
        "-".into(),
    ]);
    for round in 1..=12 {
        if system.is_work_conserving() && round > 1 {
            break;
        }
        let report = executor.execute(&mut system, &RoundSchedule::AllSelectThenSteal);
        trace.row(&[
            round.to_string(),
            system.load_vector_string(LoadMetric::NrThreads),
            potential(&system, LoadMetric::NrThreads).to_string(),
            report.nr_successes().to_string(),
            report.nr_failures().to_string(),
        ]);
    }
    vec![lemma_table, trace]
}

/// E8: the convergence bound N versus core count and imbalance pattern.
fn e8_convergence() -> Vec<Table> {
    let mut table = Table::new(
        "E8a: rounds to reach work conservation (concurrent rounds, all-select-then-steal)",
        &["cores", "threads", "pattern", "rounds N", "successful steals", "failed attempts"],
    );
    for &cores in &[4usize, 8, 16, 32, 64, 128] {
        for pattern in ImbalancePattern::all() {
            let threads = cores * 2;
            let loads = StaticImbalance::new(cores, threads, pattern).loads();
            let mut system = SystemState::from_loads(&loads);
            let balancer = Balancer::new(Policy::simple());
            let result =
                converge(&mut system, &balancer, RoundSchedule::AllSelectThenSteal, 8 * threads);
            table.row(&[
                cores.to_string(),
                threads.to_string(),
                pattern.to_string(),
                result.rounds.map(|r| r.to_string()).unwrap_or_else(|| "-".into()),
                result.total_successes().to_string(),
                result.total_failures().to_string(),
            ]);
        }
    }

    let mut exhaustive = Table::new(
        "E8b: exhaustive worst-case N over every initial state and interleaving",
        &["scope", "worst-case N", "non-WC states explored"],
    );
    for scope in [Scope::new(3, 5, 64), Scope::new(4, 6, 64)] {
        let balancer = Balancer::new(Policy::simple());
        let analysis = analyze_convergence(&balancer, &scope, ChoiceStrategy::PolicyChoice)
            .expect("the Listing 1 policy is work-conserving");
        exhaustive.row(&[
            scope.to_string(),
            analysis.max_rounds.to_string(),
            analysis.states_explored.to_string(),
        ]);
    }

    // Ablation: the steal policy (step 3) trades migrations per round against
    // rounds to converge; the proofs hold for both (DESIGN.md design-choice
    // ablation).
    let mut ablation = Table::new(
        "E8c: steal-policy ablation — rounds until fully balanced (quiescent), 64 cores, 128 threads on core 0",
        &["steal policy", "rounds to WC", "rounds to quiescence", "threads migrated", "final potential d"],
    );
    let steal_variants: Vec<(&str, Policy)> = vec![
        ("steal one thread (Listing 1)", Policy::simple()),
        (
            "steal half the imbalance (CFS-style batch)",
            Policy::simple().with_steal(StealRule::HalfImbalance),
        ),
    ];
    for (name, policy) in steal_variants {
        let loads = StaticImbalance::new(64, 128, ImbalancePattern::SingleHot).loads();
        let mut system = SystemState::from_loads(&loads);
        let balancer = Balancer::new(policy);
        let executor = ConcurrentRound::new(&balancer);
        let mut rounds_to_wc = None;
        let mut migrations = 0usize;
        let mut rounds = 0usize;
        for round in 0..4096usize {
            if rounds_to_wc.is_none() && system.is_work_conserving() {
                rounds_to_wc = Some(round);
            }
            let report = executor.execute(&mut system, &RoundSchedule::AllSelectThenSteal);
            migrations += report.nr_stolen();
            if report.is_quiescent() {
                rounds = round;
                break;
            }
        }
        ablation.row(&[
            name.into(),
            rounds_to_wc.map(|r| r.to_string()).unwrap_or_else(|| "-".into()),
            rounds.to_string(),
            migrations.to_string(),
            potential(&system, LoadMetric::NrThreads).to_string(),
        ]);
    }
    vec![table, exhaustive, ablation]
}

/// The E9/E10 comparison on the experiment's catalogued scenario: the
/// verified scheduler exactly as the `sim-event` backend runs it, then the
/// CFS-like baseline without and with the wasted-cores bugs on the same
/// machine and workload.
fn scheduler_runs(id: ExperimentId) -> Vec<(SchedulerKind, sched_sim::SimResult)> {
    let spec = crate::catalog::spec(id);
    [SchedulerKind::Optimistic, SchedulerKind::CfsSane, SchedulerKind::CfsBuggy]
        .into_iter()
        .map(|kind| (kind, run_sim(&spec, kind)))
        .collect()
}

/// E9: the fork-join scientific workload under the verified scheduler and
/// the buggy CFS baseline.
fn e9_scientific() -> Vec<Table> {
    let runs = scheduler_runs(ExperimentId::E9);
    let baseline = &runs[0].1;
    let mut table = Table::new(
        format!("E9: {} on the dual-socket machine", baseline.workload),
        &[
            "scheduler",
            "makespan (ms)",
            "slowdown vs optimistic",
            "violating idle %",
            "steal failures",
        ],
    );
    for (kind, result) in &runs {
        table.row(&[
            kind.name().into(),
            format!("{:.2}", result.makespan_ms()),
            format!("{:.2}x", result.slowdown_vs(baseline)),
            format!("{:.1}%", result.violating_idle_fraction() * 100.0),
            result.balance.failures.to_string(),
        ]);
    }
    vec![table]
}

/// E10: the OLTP workload under the verified scheduler and the buggy CFS
/// baseline.
fn e10_database() -> Vec<Table> {
    let runs = scheduler_runs(ExperimentId::E10);
    let baseline = &runs[0].1;
    let mut table = Table::new(
        format!("E10: {} on the dual-socket machine", baseline.workload),
        &[
            "scheduler",
            "throughput (txn/s)",
            "relative throughput",
            "violating idle %",
            "p99 sched latency (us)",
        ],
    );
    for (kind, result) in &runs {
        table.row(&[
            kind.name().into(),
            format!("{:.0}", result.throughput_ops_per_sec()),
            format!("{:.2}", result.relative_throughput(baseline)),
            format!("{:.1}%", result.violating_idle_fraction() * 100.0),
            format!("{:.0}", result.latency.quantile(0.99) as f64 / 1e3),
        ]);
    }
    vec![table]
}

/// E11: cost of the lock-less selection phase versus a fully locked one, on
/// the threaded runqueue substrate.
fn e11_overhead() -> Vec<Table> {
    let mut table = Table::new(
        "E11: threaded runqueues — optimistic (lock-less selection) vs pessimistic (all queues locked)",
        &["cores", "optimistic ns/op", "pessimistic ns/op", "slowdown", "failure rate (concurrent round)"],
    );
    for &cores in &[4usize, 16, 64] {
        let loads: Vec<usize> = (0..cores).map(|i| if i % 4 == 0 { 6 } else { 0 }).collect();
        let policy = Policy::simple();

        let mq: MultiQueue = MultiQueue::with_loads(&loads);
        let iterations = 20_000u32;
        let start = Instant::now();
        for i in 0..iterations {
            let _ = mq.balance_once(CoreId((i as usize) % cores), &policy);
        }
        let optimistic_ns = start.elapsed().as_nanos() as f64 / f64::from(iterations);

        let mq: MultiQueue = MultiQueue::with_loads(&loads);
        let start = Instant::now();
        for i in 0..iterations {
            let _ = mq.balance_once_pessimistic(CoreId((i as usize) % cores), &policy);
        }
        let pessimistic_ns = start.elapsed().as_nanos() as f64 / f64::from(iterations);

        let mq: MultiQueue = MultiQueue::with_loads(&loads);
        let stats = mq.concurrent_round_synchronized(&policy);
        let failure_rate = if stats.attempts() == 0 {
            0.0
        } else {
            stats.failures() as f64 / stats.attempts() as f64
        };

        table.row(&[
            cores.to_string(),
            format!("{optimistic_ns:.0}"),
            format!("{pessimistic_ns:.0}"),
            format!("{:.2}x", pessimistic_ns / optimistic_ns.max(1.0)),
            format!("{:.2}", failure_rate),
        ]);
    }
    vec![table]
}

/// E12: hierarchical and NUMA-aware placement expressed in step 2, plus the
/// negative result when the hierarchy is pushed into step 1.
fn e12_hierarchical() -> Vec<Table> {
    let topo = Arc::new(build_topology(Topology::EightNode));
    let mut table = Table::new(
        format!(
            "E12: one hot core per node on an 8-node ({}-core) machine — where the hierarchy lives matters",
            topo.nr_cpus()
        ),
        &["policy", "work conserving", "rounds N", "cross-node migrations", "same-node migrations"],
    );

    let variants: Vec<(&str, Policy)> = vec![
        ("flat max-load choice", Policy::simple()),
        (
            "NUMA-aware choice (step 2)",
            Policy::simple().with_choice(Box::new(NumaAwareChoice::new(
                Arc::clone(&topo),
                LoadMetric::NrThreads,
            ))),
        ),
        (
            "group-aware choice (step 2)",
            Policy::simple().with_choice(Box::new(GroupAwareChoice::new(
                Arc::clone(&topo),
                LoadMetric::NrThreads,
            ))),
        ),
        (
            "node-restricted filter (step 1, WRONG)",
            Policy::new(
                LoadMetric::NrThreads,
                Box::new(NodeRestrictedFilter::new(DeltaFilter::listing1())),
                Box::new(MaxLoadChoice::new(LoadMetric::NrThreads)),
                StealRule::One,
            ),
        ),
    ];

    for (name, policy) in variants {
        let mut system = SystemState::with_topology(&topo);
        // One hot core per node holds that node's entire share of the work,
        // so every idle core has both local and remote victims to choose
        // from: the filter admits all of them, and only the step-2 choice
        // decides whether migrations stay NUMA-local.
        let nr_nodes = topo.nr_nodes();
        let per_node = 2 * topo.nr_cpus() as u64 / nr_nodes as u64;
        let mut next_task = 0u64;
        for node in 0..nr_nodes {
            let hot_core = topo.cpus_of_node(sched_topology::NodeId(node))[0];
            for _ in 0..per_node {
                system.core_mut(hot_core).enqueue(Task::new(TaskId(next_task)));
                next_task += 1;
            }
        }
        let balancer = Balancer::new(policy);
        let mut cross_node = 0u64;
        let mut same_node = 0u64;
        let mut rounds = None;
        let executor = ConcurrentRound::new(&balancer);
        let max_rounds = topo.nr_cpus() * 8;
        for round in 0..max_rounds {
            if system.is_work_conserving() {
                rounds = Some(round);
                break;
            }
            let report = executor.execute(&mut system, &RoundSchedule::AllSelectThenSteal);
            for attempt in report.successes() {
                let victim = attempt.outcome.victim().expect("successes have victims");
                if system.core(attempt.thief).node == system.core(victim).node {
                    same_node += attempt.outcome.nr_stolen() as u64;
                } else {
                    cross_node += attempt.outcome.nr_stolen() as u64;
                }
            }
        }
        if rounds.is_none() && system.is_work_conserving() {
            rounds = Some(max_rounds);
        }
        table.row(&[
            name.into(),
            if rounds.is_some() { "yes".into() } else { "NO (idle cores starve)".into() },
            rounds.map(|r| r.to_string()).unwrap_or_else(|| "never".into()),
            cross_node.to_string(),
            same_node.to_string(),
        ]);
    }

    // The negative result: when one node holds all the work, a filter that
    // refuses cross-node steals can never make the remote nodes non-idle.
    let mut negative = Table::new(
        "E12b: all work on node 0 — a node-restricted *filter* (step 1) breaks work conservation, a NUMA-aware *choice* (step 2) does not",
        &["policy", "work conserving", "rounds N", "idle cores left"],
    );
    let negative_variants: Vec<(&str, Policy)> = vec![
        (
            "NUMA-aware choice (step 2)",
            Policy::simple().with_choice(Box::new(NumaAwareChoice::new(
                Arc::clone(&topo),
                LoadMetric::NrThreads,
            ))),
        ),
        (
            "node-restricted filter (step 1, WRONG)",
            Policy::new(
                LoadMetric::NrThreads,
                Box::new(NodeRestrictedFilter::new(DeltaFilter::listing1())),
                Box::new(MaxLoadChoice::new(LoadMetric::NrThreads)),
                StealRule::One,
            ),
        ),
    ];
    for (name, policy) in negative_variants {
        let mut system = SystemState::with_topology(&topo);
        for t in 0..(2 * topo.nr_cpus() as u64) {
            system.core_mut(CoreId(0)).enqueue(Task::new(TaskId(t)));
        }
        let balancer = Balancer::new(policy);
        let result =
            converge(&mut system, &balancer, RoundSchedule::AllSelectThenSteal, topo.nr_cpus() * 8);
        negative.row(&[
            name.into(),
            if result.converged() { "yes".into() } else { "NO (idle cores starve)".into() },
            result.rounds.map(|r| r.to_string()).unwrap_or_else(|| "never".into()),
            system.idle_cores().len().to_string(),
        ]);
    }
    vec![table, negative]
}

/// Measures the balancing and tick hot paths of one runqueue discipline
/// under one tracker: ns per lock-less `balance_once` and ns per core per
/// tick, on a 64-core machine with every fourth core hot.
fn measure_rq_overhead<B: sched_rq::RqBackend>(
    tracker: std::sync::Arc<dyn sched_core::LoadTracker>,
    policy: &Policy,
) -> (f64, f64) {
    use sched_rq::MultiQueue;

    let loads: Vec<usize> = (0..64).map(|i| if i % 4 == 0 { 6 } else { 0 }).collect();
    let mq: MultiQueue<B> = MultiQueue::with_tracker(loads.len(), tracker);
    for (core, &n) in loads.iter().enumerate() {
        for _ in 0..n {
            mq.spawn_on(CoreId(core));
        }
    }
    mq.tick(64_000_000);

    let iterations = 20_000u32;
    let start = Instant::now();
    for i in 0..iterations {
        let _ = mq.balance_once(CoreId((i as usize) % loads.len()), policy);
    }
    let balance_ns = start.elapsed().as_nanos() as f64 / f64::from(iterations);

    let ticks = 200u32;
    let start = Instant::now();
    for i in 0..ticks {
        mq.tick(64_000_000 + u64::from(i + 1) * 1_000_000);
    }
    let tick_ns = start.elapsed().as_nanos() as f64 / f64::from(ticks) / loads.len() as f64;
    (balance_ns, tick_ns)
}

/// Measures the **owner path** — one wakeup enqueue plus one completion on
/// the core's own runqueue — while `thieves` other cores bombard that core
/// with concurrent steal attempts from real OS threads.
///
/// On the mutex backend every owner operation serialises with the thieves
/// on the per-core lock; on the lock-free backend the owner touches only
/// its own bottom end and never waits for a thief.  Returns ns per owner
/// operation (enqueue or complete).
fn measure_owner_path<B: sched_rq::RqBackend>(thieves: usize, iterations: u32) -> f64 {
    use std::sync::atomic::{AtomicBool, Ordering};

    use sched_rq::MultiQueue;

    let mq: MultiQueue<B> = MultiQueue::new(1 + thieves);
    for _ in 0..64 {
        mq.spawn_on(CoreId(0));
    }
    let policy = Policy::simple();
    let stop = AtomicBool::new(false);
    let mut owner_ns = 0.0;
    std::thread::scope(|scope| {
        for thief in 1..=thieves {
            let mq = &mq;
            let policy = &policy;
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let _ = mq.balance_once(CoreId(thief), policy);
                    // Stay hungry: immediately retire whatever was stolen
                    // so the filter keeps selecting the producer core.
                    while mq.core(CoreId(thief)).complete_current().is_some() {}
                }
            });
        }
        // Time only the owner-path pairs; the periodic producer top-up
        // happens *between* timed chunks, because how much refilling is
        // needed depends on how fast the thieves steal — a
        // backend-dependent amount that must not bias the comparison.
        let mut timed = std::time::Duration::ZERO;
        let mut done = 0u32;
        while done < iterations {
            let chunk = 64.min(iterations - done);
            let start = Instant::now();
            for _ in 0..chunk {
                // The owner path: one wakeup, one completion, on its own
                // core.
                mq.spawn_on(CoreId(0));
                let _ = mq.core(CoreId(0)).complete_current();
            }
            timed += start.elapsed();
            done += chunk;
            // Top the producer back up so the thieves never run dry.
            while mq.core(CoreId(0)).nr_threads_exact() < 64 {
                mq.spawn_on(CoreId(0));
            }
        }
        owner_ns = timed.as_nanos() as f64 / f64::from(2 * iterations);
        stop.store(true, Ordering::Release);
    });
    owner_ns
}

/// E19: what the trackers cost on the balancing hot path, per runqueue
/// discipline — the backend axis added with `sched-deque`.  The owner
/// column is measured under 4 contending thieves: the lock-free backend's
/// owner path must beat the mutex backend's (the acceptance number the
/// E19 regression test pins).
fn e19_tracker_overhead() -> Vec<Table> {
    use std::sync::Arc as StdArc;

    let mut table = Table::new(
        "E19: tracker overhead by runqueue backend — 64 threaded runqueues, owner path under 4 thieves",
        &["tracker", "rq backend", "balance ns/op", "owner ns/op (contended)", "tick ns/core"],
    );
    type TrackerCtor = fn() -> StdArc<dyn sched_core::LoadTracker>;
    let trackers: Vec<(TrackerCtor, fn() -> Policy)> = vec![
        (|| StdArc::new(sched_core::NrThreadsTracker), Policy::simple),
        (
            || StdArc::new(sched_core::PeltTracker::new(LoadMetric::NrThreads, 8_000_000)),
            || Policy::pelt(8_000_000),
        ),
    ];
    for (make_tracker, make_policy) in trackers {
        let policy = make_policy();
        for backend in ["mutex", "deque"] {
            let (balance_ns, tick_ns, owner_ns) = match backend {
                "mutex" => {
                    let (b, t) = measure_rq_overhead::<sched_rq::PerCoreRq<sched_rq::FifoQueue>>(
                        make_tracker(),
                        &policy,
                    );
                    (b, t, measure_owner_path::<sched_rq::PerCoreRq<sched_rq::FifoQueue>>(4, 4_000))
                }
                _ => {
                    let (b, t) = measure_rq_overhead::<sched_rq::DequeRq>(make_tracker(), &policy);
                    (b, t, measure_owner_path::<sched_rq::DequeRq>(4, 4_000))
                }
            };
            table.row(&[
                make_tracker().name(),
                backend.into(),
                format!("{balance_ns:.0}"),
                format!("{owner_ns:.0}"),
                format!("{tick_ns:.0}"),
            ]);
        }
    }
    vec![table]
}

/// E20: the steal-heavy fan-out — one producer core, a wall of thieves.
/// Compares the two runqueue disciplines where they differ most: the
/// producer's own enqueue/dequeue path while being robbed.
fn e20_steal_fanout() -> Vec<Table> {
    type MutexRq = sched_rq::PerCoreRq<sched_rq::FifoQueue>;

    let mut table = Table::new(
        "E20: steal-heavy fan-out — owner-path cost while thieves bombard the producer core",
        &["rq backend", "owner ns/op (quiet)", "owner ns/op (4 thieves)", "contention slowdown"],
    );
    for backend in ["mutex", "deque"] {
        let (quiet, contended) = match backend {
            "mutex" => {
                (measure_owner_path::<MutexRq>(0, 8_000), measure_owner_path::<MutexRq>(4, 8_000))
            }
            _ => (
                measure_owner_path::<sched_rq::DequeRq>(0, 8_000),
                measure_owner_path::<sched_rq::DequeRq>(4, 8_000),
            ),
        };
        table.row(&[
            backend.into(),
            format!("{quiet:.0}"),
            format!("{contended:.0}"),
            format!("{:.2}x", contended / quiet.max(1.0)),
        ]);
    }
    vec![table]
}

/// Runs `spec` on the backend called `backend` with tracing on; returns
/// the record, the drained trace and the idle-while-overloaded windows
/// the sanity checker finds in that trace alone.
fn traced_with_windows(
    backend: &str,
    spec: &Scenario,
) -> (crate::runner::ExperimentRecord, sched_trace::Trace, Vec<sched_trace::SanityViolation>) {
    let (record, trace) = crate::runner::ExperimentRunner::with_all_backends()
        .run_traced(backend, spec)
        .expect("a trace-recording backend")
        .unwrap_or_else(|| panic!("{backend} executes `{}`", spec.name));
    let mut windows = sched_trace::SanityChecker::check_trace(&trace, false, None);
    windows.retain(|v| v.kind == sched_trace::SanityKind::IdleWhileOverloaded);
    (record, trace, windows)
}

/// E25: the conservation hole found from a trace alone.  The tiny-ring
/// injector flavour and the private-spill fixture run the identical
/// overflow storm with a recording sink attached; the sanity checker then
/// reads nothing but the drained decision stream — no counters, no
/// snapshots, no knowledge of which overflow discipline produced it.  On
/// the private-spill baseline the overflowed tasks are invisible to
/// thieves, so idle cores rack up consecutive empty-handed steal attempts
/// against a victim whose derived occupancy shows plenty of waiting work,
/// and the checker flags idle-while-overloaded windows with the offending
/// event span.  On the
/// injector flavour every overflowed task stays reachable — the storm is
/// sized so the injector never runs dry mid-epoch — and the same checker
/// stays silent.
fn e25_trace_sanity() -> Vec<Table> {
    let spec = crate::catalog::spec(ExperimentId::E25);
    let mut table = Table::new(
        "E25: trace-only detection — idle-while-overloaded windows flagged by the sanity checker",
        &["overflow discipline", "events", "dropped", "flagged windows", "verdict"],
    );
    for (flavour, backend) in [("injector", "rq-deque-tiny"), ("private spill", "rq-deque-spill")] {
        let (_, trace, windows) = traced_with_windows(backend, &spec);
        table.row(&[
            flavour.into(),
            trace.events.len().to_string(),
            trace.dropped.to_string(),
            windows.len().to_string(),
            if windows.is_empty() {
                "clean: every overflowed task stayed reachable".into()
            } else {
                "hole: idle cores starved beside hidden work".into()
            },
        ]);
    }
    vec![table]
}

/// E26: the open-loop latency ladder on the real executor.  Each
/// catalogued rung offers a fixed Poisson arrival rate to
/// [`sched_exec::Executor`] — OS worker threads on the verified
/// ring+injector runqueues, parking when idle — and measures wall-clock
/// end-to-end latency per request.  Every rung sits below the saturation
/// knee, so the measured p99/p999 is queueing-plus-wakeup cost, not
/// overload collapse; alongside the latency columns the drained decision
/// trace is fed to the sanity checker, which must find zero
/// idle-while-overloaded windows — parked workers may never sleep beside
/// reachable work.
fn e26_executor_ladder() -> Vec<Table> {
    let mut table = Table::new(
        "E26: open-loop latency ladder on the real executor (wall-clock end-to-end)",
        &[
            "rung",
            "rate (req/s)",
            "submitted",
            "completed",
            "migrations",
            "e2e p99 (us)",
            "e2e p999 (us)",
            "IWO windows",
        ],
    );
    for spec in crate::catalog::specs_of(ExperimentId::E26) {
        let (record, _, windows) = traced_with_windows("exec", &spec);
        let Driver::OpenLoop(openloop) = spec.driver else { panic!("E26 rungs are open-loop") };
        let rate = openloop.rate_hz;
        table.row(&[
            spec.name.clone(),
            rate.to_string(),
            record.threads.to_string(),
            format!("{:.0}", record.throughput * record.wall_ms / 1e3),
            record.migrations.to_string(),
            format!("{:.0}", record.e2e_p99_us.expect("exec records measure e2e latency")),
            format!("{:.0}", record.e2e_p999_us.expect("exec records measure e2e latency")),
            windows.len().to_string(),
        ]);
    }
    vec![table]
}

/// E13: the DSL front-end, its phase checker and its two backends.
fn e13_dsl() -> Vec<Table> {
    let scope = Scope::small();
    let mut table = Table::new(
        "E13: DSL policies through the phase checker, the verifier and the code generator",
        &["policy (DSL)", "phase warnings", "work conserving", "generated Rust lines"],
    );
    for (name, source) in sched_dsl::stdlib::all() {
        let compiled = sched_dsl::compile_source(source).expect("stdlib policies compile");
        let generated = sched_dsl::generate_rust(&compiled.def);
        let verified = sched_dsl::verify_source(source, &scope).expect("stdlib policies verify");
        table.row(&[
            name.into(),
            compiled.warnings.len().to_string(),
            verdict(verified.is_work_conserving()),
            generated.lines().count().to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_parse_and_have_titles() {
        assert_eq!(ExperimentId::parse("e5"), Some(ExperimentId::E5));
        assert_eq!(ExperimentId::parse("E13"), Some(ExperimentId::E13));
        assert_eq!(ExperimentId::parse("e16"), Some(ExperimentId::E16));
        assert_eq!(ExperimentId::parse("e19"), Some(ExperimentId::E19));
        assert_eq!(ExperimentId::parse("e20"), Some(ExperimentId::E20));
        assert_eq!(ExperimentId::parse("E21"), Some(ExperimentId::E21));
        assert_eq!(ExperimentId::parse("e22"), Some(ExperimentId::E22));
        assert_eq!(ExperimentId::parse("e23"), Some(ExperimentId::E23));
        assert_eq!(ExperimentId::parse("e24"), Some(ExperimentId::E24));
        assert_eq!(ExperimentId::parse("e25"), Some(ExperimentId::E25));
        assert_eq!(ExperimentId::parse("e26"), Some(ExperimentId::E26));
        assert_eq!(ExperimentId::parse("nope"), None);
        assert_eq!(ExperimentId::all().len(), 26);
        for (row, id) in ExperimentId::all().into_iter().enumerate() {
            assert_eq!(id as usize, row, "the table is indexed by variant");
            let number = format!("{}", row + 1);
            assert_eq!(ExperimentId::parse(&format!("E{number}")), Some(id));
            assert!(id.title().starts_with(&format!("E{number} ")), "{}", id.title());
        }
    }

    /// The overflow-conservation acceptance claim: on the storm scenario,
    /// the injector-backed tiny backend pins idle-while-spilled at ~0 —
    /// every overflowed task was reachable within its round — while the
    /// legacy private-spill baseline reproduces a large, persistent gap,
    /// and strands idle cores that the injector turns into migrations.
    #[test]
    fn e22_injector_closes_the_overflow_conservation_hole() {
        let spec = crate::catalog::spec(ExperimentId::E22);
        let runner = crate::runner::ExperimentRunner::with_all_backends();
        let records = runner.run(spec);
        let flavours: Vec<(&str, Option<&str>)> =
            records.iter().map(|r| (r.backend, r.rq_backend)).collect();
        assert_eq!(
            flavours,
            vec![
                ("rq", Some("mutex")),
                ("rq-deque", Some("deque")),
                ("rq-deque-tiny", Some("deque-tiny")),
                ("rq-deque-spill", Some("mutex")),
            ],
            "the storm runs on the rq backends only (model/sim have no ring); the spill \
             baseline is a queue fixture on the mutex backend"
        );
        let find =
            |backend: &str| records.iter().find(|r| r.backend == backend).expect("backend present");
        let injector = find("rq-deque-tiny");
        let spill = find("rq-deque-spill");
        assert!(
            injector.violating_idle < 0.02,
            "injector-backed overflow must keep idle-while-spilled at ~0, got {:.3}",
            injector.violating_idle
        );
        assert!(
            spill.violating_idle > 0.2,
            "the legacy spill must reproduce the conservation hole, got {:.3}",
            spill.violating_idle
        );
        assert!(
            injector.migrations > spill.migrations,
            "stealable overflow must turn stranded idling into migrations ({} vs {})",
            injector.migrations,
            spill.migrations
        );
        // The no-overflow controls agree with the injector row: hiding
        // overflow is the only thing that opens the gap.
        for control in ["rq", "rq-deque"] {
            assert!(
                find(control).violating_idle < 0.02,
                "{control}: a queue that never overflows has nothing to hide"
            );
        }
    }

    /// The spill baseline is a queue fixture on the mutex backend, and it
    /// is the same negative control the lock-free backend's private spill
    /// used to be: on every storm scenario (E22, E23's five storm specs,
    /// E25) its deterministic counts equal the committed records exactly.
    #[test]
    fn the_spill_fixture_reproduces_the_committed_storm_records() {
        use crate::runner::Backend as _;

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_results.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_results.json");
        let json = sched_json::parse(&text).expect("valid JSON");
        let committed = json.get("records").and_then(|r| r.as_array()).expect("records array");
        let storms: Vec<&Scenario> = crate::catalog::builtin()
            .iter()
            .filter(|spec| matches!(spec.driver, Driver::Storm(_)))
            .collect();
        assert_eq!(storms.len(), 7, "e22, e23's five storm specs and e25");
        for spec in storms {
            let record = crate::runner::RqSpillDequeBackend.run(spec, None).expect("a storm");
            assert_eq!(record.rq_backend, Some("mutex"));
            let key = sched_json::record_key(&spec.experiment, &spec.name, "rq-deque-spill");
            let baseline = committed
                .iter()
                .find(|r| {
                    let field = |k: &str| r.get(k).and_then(|v| v.as_str()).unwrap_or_default();
                    sched_json::record_key(field("experiment"), field("scenario"), field("backend"))
                        == key
                })
                .unwrap_or_else(|| panic!("{key} is committed"));
            let number = |k: &str| baseline.get(k).and_then(|v| v.as_f64());
            let levels = record.locality.counts();
            for (field, got) in [
                ("migrations", Some(record.migrations as f64)),
                ("failures", Some(record.failures as f64)),
                ("violating_idle", Some(record.violating_idle)),
                ("steals_smt", Some(levels[0] as f64)),
                ("steals_llc", Some(levels[1] as f64)),
                ("steals_node", Some(levels[2] as f64)),
                ("steals_remote", Some(levels[3] as f64)),
                ("tasks_per_acquisition", record.tasks_per_acquisition),
            ] {
                assert_eq!(got, number(field), "{key}: {field}");
            }
        }
    }

    /// The trace-only acceptance claim: on the E25 storm the sanity
    /// checker flags the private-spill conservation hole from the decision
    /// trace alone — no counters, no snapshots — while the injector
    /// flavour's trace of the identical storm comes back clean.
    #[test]
    fn e25_checker_flags_the_spill_hole_from_the_trace_alone() {
        let spec = crate::catalog::spec(ExperimentId::E25);
        let (_, clean, clean_windows) = traced_with_windows("rq-deque-tiny", &spec);
        let (_, holed, flagged) = traced_with_windows("rq-deque-spill", &spec);
        assert_eq!(clean.dropped, 0, "the storm must fit the rings for a meaningful verdict");
        assert_eq!(holed.dropped, 0);
        assert_eq!(clean_windows.len(), 0, "a conserving overflow discipline must trace clean");
        assert!(!flagged.is_empty(), "the spill hole must be visible from the trace alone");
        for violation in &flagged {
            assert!(
                violation.last_event > violation.first_event,
                "a flagged window carries its offending event span"
            );
            assert!(!violation.excerpt(&holed, 2).is_empty());
        }
    }

    /// The executor acceptance claim: every E26 rung sits below the
    /// saturation knee, so (a) the generator's full schedule is submitted
    /// and completed, (b) the measured end-to-end p999 stays well below
    /// the run horizon — an overloaded executor's tail grows toward the
    /// full duration as requests queue behind the backlog — and (c) the
    /// drained decision trace carries zero idle-while-overloaded windows:
    /// a parked worker never slept beside reachable work.
    #[test]
    fn e26_ladder_stays_below_the_knee_with_no_idle_while_overloaded() {
        let specs = crate::catalog::specs_of(ExperimentId::E26);
        assert_eq!(specs.len(), 3, "the ladder has three rungs");
        for spec in specs {
            let Driver::OpenLoop(openloop) = spec.driver else { panic!("E26 rungs are open-loop") };
            let (record, trace, windows) = traced_with_windows("exec", &spec);
            assert_eq!(trace.dropped, 0, "{}: the sink must capture every event", spec.name);
            assert!(record.threads > 0, "{}: the generator submitted requests", spec.name);
            let p999 = record.e2e_p999_us.expect("exec records measure e2e latency");
            let p99 = record.e2e_p99_us.expect("exec records measure e2e latency");
            assert!(p99 <= p999, "{}: quantiles are ordered", spec.name);
            // Below the knee the tail is queueing-plus-wakeup jitter; at
            // or past it, requests queue behind an ever-growing backlog
            // and the p999 climbs toward the full horizon.
            let horizon_us = openloop.duration_ms as f64 * 1e3;
            assert!(
                p999 < horizon_us / 2.0,
                "{}: p999 of {p999}us has collapsed toward the {horizon_us}us horizon",
                spec.name
            );
            assert!(
                windows.is_empty(),
                "{}: a parked worker slept beside reachable work: {:?}",
                spec.name,
                windows
            );
        }
    }

    /// The batching acceptance claim, shape-level: on the steal-heavy
    /// fan-out, `k = 1` pays one acquisition per migrated thread by
    /// definition (tasks/acquisition exactly 1.0), while the batched sweep
    /// points amortise — strictly more than one thread moves per successful
    /// claim.  Counts, not wall clock, so this runs in the default pass.
    #[test]
    fn e23_batching_amortises_acquisitions_on_the_fan_out() {
        use crate::runner::{ExperimentRunner, RqDequeBackend};
        use sched_dsl::Batch;

        let specs: Vec<Scenario> = crate::catalog::specs_of(ExperimentId::E23)
            .into_iter()
            .filter(|s| !matches!(s.driver, Driver::Storm(_)))
            .collect();
        assert_eq!(specs.len(), 5, "the fan-out half of the sweep");
        let runner = ExperimentRunner::new(vec![Box::new(RqDequeBackend)]);
        let tpa = |batch: Batch| -> f64 {
            let spec = specs.iter().find(|s| s.batch == Some(batch)).expect("swept k");
            let record = runner.run(spec.clone()).remove(0);
            assert_eq!(record.steal_batch_k, Some(crate::runner::batch_label(batch)));
            record.tasks_per_acquisition.expect("batch records measure the amortisation")
        };
        let baseline = tpa(Batch::Fixed(1));
        assert!(
            (baseline - 1.0).abs() < 1e-9,
            "k=1 moves exactly one thread per acquisition, got {baseline}"
        );
        for batch in [Batch::Fixed(8), Batch::Half] {
            let batched = tpa(batch);
            assert!(
                batched > 1.0,
                "{batch:?}: batched claims must amortise acquisitions, got {batched:.2} \
                 tasks/acquisition vs the k=1 baseline of 1.0"
            );
        }
    }

    /// The batching throughput claim: sizing transfers from the imbalance
    /// converges the fan-out in fewer (and cheaper) acquisitions, which
    /// shows up as wall-clock throughput.  Wall-clock comparisons on shared
    /// runners are noisy, so — like the E19/E20 owner-path check — this is
    /// quarantined in CI's `deque-stress` job (release, `-- --ignored`),
    /// best-of-three per sweep point.
    #[test]
    #[ignore = "wall-clock comparison; run via `cargo test --release -- --ignored`"]
    fn e23_batched_stealing_raises_fan_out_throughput() {
        use crate::runner::{ExperimentRunner, RqDequeBackend};
        use sched_dsl::Batch;

        let specs: Vec<Scenario> = crate::catalog::specs_of(ExperimentId::E23)
            .into_iter()
            .filter(|s| !matches!(s.driver, Driver::Storm(_)))
            .collect();
        let runner = ExperimentRunner::new(vec![Box::new(RqDequeBackend)]);
        let best = |batch: Batch| -> f64 {
            let spec = specs.iter().find(|s| s.batch == Some(batch)).expect("swept k");
            (0..3).map(|_| runner.run(spec.clone()).remove(0).throughput).fold(0.0, f64::max)
        };
        let k1 = best(Batch::Fixed(1));
        let half = best(Batch::Half);
        assert!(
            half > k1,
            "imbalance-sized batches must beat one-thread steals on the fan-out: \
             {half:.0} vs {k1:.0} migrations/s"
        );
    }

    #[test]
    fn e17_pelt_dominates_instantaneous_balancing_on_every_backend() {
        // The load-tracking acceptance claim: on the bursty on/off scenario
        // the PELT criterion performs measurably fewer migrations than
        // instantaneous nr-threads balancing at equal-or-better violating
        // idle — on the simulator AND on the real-thread runqueues.
        let specs = crate::catalog::specs_of(ExperimentId::E17);
        assert_eq!(specs.len(), 2);
        let runner = crate::runner::ExperimentRunner::with_all_backends();
        let records: Vec<crate::runner::ExperimentRecord> =
            specs.into_iter().flat_map(|s| runner.run(s)).collect();
        for backend in ["model", "sim", "rq"] {
            let find = |tracker: &str| {
                records
                    .iter()
                    .find(|r| r.backend == backend && r.tracker == tracker)
                    .unwrap_or_else(|| panic!("missing {tracker} record for {backend}"))
            };
            let inst = find("nr_threads");
            let pelt = find("pelt(nr_threads, 8ms)");
            assert!(
                pelt.migrations * 2 < inst.migrations,
                "{backend}: PELT must at least halve the churn ({} vs {})",
                pelt.migrations,
                inst.migrations
            );
            assert!(
                pelt.violating_idle <= inst.violating_idle + 0.02,
                "{backend}: PELT idle {:.3} must not exceed instantaneous idle {:.3}",
                pelt.violating_idle,
                inst.violating_idle
            );
        }
    }

    /// The catalog records of `id` on the model, in catalog order.
    fn model_records(id: ExperimentId) -> Vec<crate::runner::ExperimentRecord> {
        ExperimentRunner::new(vec![Box::new(crate::runner::ModelBackend)])
            .run_catalog(crate::catalog::specs_of(id))
    }

    #[test]
    fn e18_and_e19_produce_tables() {
        // Both criteria reach the weighted balance on the model and on the
        // runqueues.
        let runner = ExperimentRunner::new(vec![
            Box::new(crate::runner::ModelBackend),
            Box::new(crate::runner::RqBackend),
        ]);
        let records = runner.run_catalog(crate::catalog::specs_of(ExperimentId::E18));
        let mut seen: Vec<(&str, &str)> =
            records.iter().map(|r| (r.tracker.as_str(), r.backend)).collect();
        seen.sort_unstable();
        let want = [
            ("pelt(weighted, 8ms)", "model"),
            ("pelt(weighted, 8ms)", "rq"),
            ("weighted", "model"),
            ("weighted", "rq"),
        ];
        assert_eq!(seen, want, "two criteria x two backends");
        for r in &records {
            assert!(r.convergence_rounds.is_some(), "{} on {} must converge", r.tracker, r.backend);
        }
        let tables = run_experiment(ExperimentId::E19);
        assert_eq!(tables.len(), 2, "the overhead table, then the records view");
        assert_eq!(tables[0].nr_rows(), 4, "two trackers x two runqueue backends");
    }

    /// The lock-free acceptance number: with thieves hammering the
    /// producer core, the deque backend's owner path (enqueue + complete
    /// on its own queue) must be cheaper than the mutex backend's, which
    /// serialises every owner operation against the thieves.
    ///
    /// A wall-clock comparison on shared runners is inherently noisy, so
    /// this is quarantined with the other timing-sensitive checks: CI's
    /// `deque-stress` job runs it (release, `-- --ignored`) instead of
    /// the default debug test pass.
    #[test]
    #[ignore = "wall-clock comparison; run via `cargo test --release -- --ignored`"]
    fn e19_e20_deque_owner_path_beats_the_mutex_under_contention() {
        type MutexRq = sched_rq::PerCoreRq<sched_rq::FifoQueue>;
        // Best-of-three per backend: a single OS preemption inside one
        // timed chunk would otherwise swamp the ~2x margin on a shared
        // runner; the minimum is the preemption-immune estimator of what
        // each discipline's owner path actually costs.
        let best = |measure: fn(usize, u32) -> f64| {
            (0..3).map(|_| measure(4, 4_000)).fold(f64::INFINITY, f64::min)
        };
        let mutex_ns = best(measure_owner_path::<MutexRq>);
        let deque_ns = best(measure_owner_path::<sched_rq::DequeRq>);
        assert!(
            deque_ns < mutex_ns,
            "owner path under contention: deque {deque_ns:.0} ns/op must beat mutex \
             {mutex_ns:.0} ns/op"
        );
    }

    #[test]
    fn e21_sweep_discriminates_half_lives_on_both_axes() {
        // The deterministic model records: the burst scenarios measure the
        // churn, the cold-tracker replays the warm-up lag.
        let (churn, lag): (Vec<_>, Vec<_>) = crate::catalog::specs_of(ExperimentId::E21)
            .into_iter()
            .map(|spec| (matches!(spec.driver, Driver::Burst(_)), spec))
            .partition(|(burst, _)| *burst);
        assert_eq!((churn.len(), lag.len()), (4, 4), "four half-lives on each axis");
        let runner = ExperimentRunner::new(vec![Box::new(crate::runner::ModelBackend)]);
        let at = |axis: &[(bool, Scenario)], ms: u32| {
            let spec = axis
                .iter()
                .map(|(_, spec)| spec)
                .find(|spec| spec.policy == sched_dsl::PolicyRecipe::PeltHalfLife(ms))
                .unwrap_or_else(|| panic!("no {ms}ms scenario"));
            runner.run(spec.clone()).remove(0)
        };
        // The churn axis: a 1ms half-life forgets a 4ms blip and churns;
        // 16ms holds still.
        assert!(at(&churn, 1).migrations > 0, "1ms half-life must churn");
        assert_eq!(at(&churn, 16).migrations, 0, "16ms half-life must hold still");
        // The responsiveness axis: the warm-up lag never shrinks as the
        // half-life grows, and 64ms pays more of it than 1ms.
        let lags: Vec<usize> = [1, 4, 16, 64]
            .map(|ms| at(&lag, ms).convergence_rounds.expect("a cold tracker still converges"))
            .to_vec();
        assert!(lags.windows(2).all(|w| w[0] <= w[1]), "warm-up lag per half-life: {lags:?}");
        assert!(lags[0] < lags[3], "a longer half-life must pay a longer warm-up lag: {lags:?}");
    }

    /// The locality numbers the E14/E15 policy variants are catalogued to
    /// show on the model: (policy, rounds to WC, migrations, remote steals).
    #[test]
    fn e14_compares_four_policies() {
        let pinned = |id| -> Vec<(String, Option<usize>, u64, u64)> {
            let records = model_records(id);
            records
                .into_iter()
                .map(|r| (r.policy, r.convergence_rounds, r.migrations, r.locality.counts()[3]))
                .collect()
        };
        let row = |policy: &str, rounds, migrations, remote| {
            (policy.to_string(), Some(rounds), migrations, remote)
        };
        assert_eq!(
            pinned(ExperimentId::E14),
            vec![
                row("listing1+topo_choice", 6, 18, 9),
                row("listing1", 6, 18, 9),
                row("listing1+numa_choice", 6, 18, 9),
                row("hierarchical(topo)", 4, 17, 9),
            ]
        );
        assert_eq!(
            pinned(ExperimentId::E15),
            vec![
                row("listing1+topo_choice", 9, 37, 23),
                row("listing1", 16, 44, 37),
                row("hierarchical(topo)", 16, 50, 16),
            ]
        );
    }

    #[test]
    fn e16_reports_zero_remote_steals_on_the_model() {
        // Only the model record is deterministic; the real-thread one may
        // pick up a rare race-induced remote fallback steal.
        let records = model_records(ExperimentId::E16);
        assert_eq!(records.len(), 1);
        assert!(records[0].migrations > 0, "the hot cores drain");
        assert_eq!(records[0].locality.counts()[3], 0, "no steal crosses a node");
    }

    /// A records-only experiment prints its catalog records and nothing
    /// else: one row per record the runner returns for its scenarios.
    #[test]
    fn a_records_only_experiment_prints_one_row_per_record() {
        let runner = ExperimentRunner::with_all_backends();
        for &(id, _, _, bespoke) in &EXPERIMENTS {
            if bespoke.is_some() {
                continue;
            }
            let records: usize =
                crate::catalog::specs_of(id).into_iter().map(|spec| runner.run(spec).len()).sum();
            let tables = run_experiment(id);
            assert_eq!(tables.len(), 1, "{}", id.title());
            assert_eq!(tables[0].nr_rows(), records, "{}", id.title());
        }
    }

    /// E9/E10's "optimistic (verified)" row is the `sim-event` record's run.
    #[test]
    fn e9_e10_optimistic_rows_are_the_sim_event_records() {
        let runner = ExperimentRunner::new(vec![Box::new(crate::runner::SimEventBackend)]);
        for id in [ExperimentId::E9, ExperimentId::E10] {
            let spec = crate::catalog::spec(id);
            let row = run_sim(&spec, SchedulerKind::Optimistic);
            let record = runner.run(spec).remove(0);
            assert_eq!(row.balance.failures, record.failures, "{}", id.title());
            assert_eq!(row.violating_idle_fraction(), record.violating_idle, "{}", id.title());
        }
    }

    #[test]
    fn e2_and_e7_produce_tables_quickly() {
        // Each bespoke table, then the records view.
        let tables = run_experiment(ExperimentId::E2);
        assert_eq!(tables.len(), 2);
        assert!(tables[0].nr_rows() >= 6);
        let tables = run_experiment(ExperimentId::E7);
        assert_eq!(tables.len(), 3);
    }

    #[test]
    fn e5_finds_the_pingpong_for_greedy_only() {
        let tables = run_experiment(ExperimentId::E5);
        let csv = tables[0].to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[1].starts_with("greedy") && lines[1].contains("YES"));
        assert!(lines[2].starts_with("listing1") && lines[2].contains("no"));
    }

    #[test]
    fn e9_shows_the_buggy_baseline_losing() {
        let tables = run_experiment(ExperimentId::E9);
        let csv = tables[0].to_csv();
        let buggy_row = csv.lines().last().unwrap();
        let slowdown: f64 =
            buggy_row.split(',').nth(2).unwrap().trim_end_matches('x').parse().unwrap();
        assert!(
            slowdown > 1.3,
            "the wasted-cores bugs should visibly slow the fork-join workload, got {slowdown}"
        );
    }

    #[test]
    fn e13_verifies_listing1_and_refutes_greedy() {
        let tables = run_experiment(ExperimentId::E13);
        let csv = tables[0].to_csv();
        assert!(csv.lines().any(|l| l.starts_with("listing1") && l.contains("proved")));
        assert!(csv.lines().any(|l| l.starts_with("greedy") && l.contains("REFUTED")));
    }
}
