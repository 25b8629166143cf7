//! The seeded scenario fuzzer: random declarative scenarios, executed and
//! checked against the invariant block they declare.
//!
//! The declarative catalog makes experiments *data*, and data can be
//! generated: [`fuzz_scenarios`] derives a deterministic stream of
//! [`Scenario`]s from one seed — topologies x load vectors x arrival
//! drivers x nice mixes x policies (including inline DSL programs) — runs
//! each through the unified runner, and checks every produced record
//! against the scenario's `expect` block with [`check_records`]:
//!
//! * **work conservation** — a replayed scenario must converge (or end in
//!   a work-conserving final state): no core idle while another holds
//!   waiting threads;
//! * **conservation of tasks** — balancing moves threads, it must not
//!   create or destroy them (a storm drains, so its final count is zero);
//! * **non-inversion** — stealing must never make any core more loaded
//!   than the most loaded core initially was.
//!
//! Every sim-compatible scenario additionally serves as an **engine-parity**
//! input: its event-engine result must equal the reference (tick) engine's
//! in every measured quantity ([`sched_sim::SimResult::parity_mismatches`]).
//!
//! Each generated document is also round-tripped through the printer and
//! parser, so the fuzzer doubles as a grammar fuzzer for
//! [`sched_dsl::parse_doc`].  Failing scenarios are returned as documents —
//! `xtask fuzz-scenarios` writes them to `experiments/repro/*.scn`, and
//! `--repro FILE` replays such a file through the same checker.

use sched_dsl::{
    Batch, Burst, Driver, Invariant, PolicyRecipe, Scenario, Storm, Topology, WorkloadKind,
};

use sched_core::{splitmix64, SPLITMIX64_GAMMA};
use sched_trace::{SanityChecker, SanityKind, SanityViolation, Trace};

use crate::runner::{
    run_sim_result, validate, ExperimentRecord, ExperimentRunner, ModelBackend, RqBackend,
    RqDequeBackend, SimEngine, SimEventBackend,
};

/// What to fuzz: the seed pins the whole scenario stream, the count bounds
/// it.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Master seed; the same seed reproduces the same scenarios.
    pub seed: u64,
    /// Number of scenarios to generate and check.
    pub count: usize,
    /// Seeded same-time orderings to sweep per scenario on the event-driven
    /// simulator (0 disables the sweep).  Each order re-runs the scenario
    /// under a different [`sched_sim::OrderingPolicy::Seeded`] tie-break
    /// and checks the outcome against the priority-ordered baseline:
    /// same-time reordering must not change whether the run finishes or
    /// how many operations complete (the choice-irrelevance and
    /// conservation lemmas, exercised on the engine itself).
    pub orders: usize,
}

/// One invariant violation (or structural failure) observed for one
/// generated scenario.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Scenario name.
    pub scenario: String,
    /// Backend whose record violated, or `"-"` for structural failures.
    pub backend: String,
    /// What was violated: an invariant keyword (`work_conservation`, …),
    /// `round_trip`, or `load`.
    pub kind: String,
    /// Human-readable description of the failure.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {} on {}: {}", self.kind, self.scenario, self.backend, self.detail)
    }
}

/// One failing scenario: the document (replayable via `--repro`) and
/// everything that went wrong with it.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The generated document, exactly as it would print.
    pub doc: Scenario,
    /// The violations its run produced.
    pub violations: Vec<Violation>,
}

/// The outcome of one fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Scenarios generated and executed.
    pub generated: usize,
    /// Records produced and checked across all scenarios.
    pub records_checked: usize,
    /// Seeded same-time orderings executed on the event engine.
    pub orders_checked: usize,
    /// Scenarios that violated at least one expectation.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// `true` when every scenario satisfied its invariant block.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A [`splitmix64`] stream: tiny, seedable, statistically fine for scenario
/// generation, and dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        let state = self.0;
        self.0 = state.wrapping_add(SPLITMIX64_GAMMA);
        splitmix64(state)
    }

    /// Uniform-ish value in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Value in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `pct`%.
    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// Generates the `index`-th scenario of a seed's stream.
fn generate_doc(master_seed: u64, index: usize) -> Scenario {
    // Decorrelate per-scenario streams: one splitmix step over the index.
    let mut rng = Rng::new(master_seed ^ Rng::new(index as u64).next());

    let (topology, cores) = if rng.chance(10) {
        (Topology::DualSocket, 16usize)
    } else {
        let cores = rng.range(2, 12) as usize;
        (Topology::Flat(cores), cores)
    };

    let loads: Vec<usize> = match rng.below(3) {
        0 => {
            // Single hot core holding a 2x-cores pile.
            let hot = rng.below(cores as u64) as usize;
            let mut loads = vec![0; cores];
            loads[hot] = 2 * cores;
            loads
        }
        1 => {
            // A descending step.
            (0..cores).map(|i| (cores - i) / 2 + usize::from(i == 0)).collect()
        }
        _ => {
            // Bounded random vector, at least one thread.
            let mut loads: Vec<usize> = (0..cores).map(|_| rng.below(5) as usize).collect();
            if loads.iter().sum::<usize>() == 0 {
                loads[0] = 1;
            }
            loads
        }
    };
    let threads: usize = loads.iter().sum();

    // Arrival driver.  Budgets are generous: the fuzzer checks invariants,
    // not convergence speed, and a decayed tracker pays a warm-up lag.
    let (driver, budget) = match rng.below(100) {
        0..=54 => (Driver::Replay, 8 * threads + 256),
        55..=69 => (
            Driver::Burst(Burst {
                epochs: rng.range(4, 16) as usize,
                epoch_ns: 1_000_000,
                warmup_ns: 32_000_000,
                seed: rng.below(1_000),
                jitter_pct: rng.below(61) as u32,
            }),
            0,
        ),
        70..=84 => (
            Driver::Storm(Storm {
                // At least two waiting tasks per thief, so a couple of
                // settled rounds reach every idle core.
                epochs: rng.range(2, 5) as usize,
                fanout: rng.range(2 * cores as u64, 4 * cores as u64) as usize,
                rounds: rng.range(2, 3) as usize,
            }),
            0,
        ),
        _ => (
            Driver::Workload {
                kind: if rng.chance(50) { WorkloadKind::Scientific } else { WorkloadKind::Oltp },
                seed: rng.below(10_000),
                jitter_pct: rng.below(41) as u32,
            },
            8 * threads + 256,
        ),
    };

    // Policies that provably converge on thread counts.  The choice step is
    // irrelevant to the proofs (E1), so the inline programs vary it freely;
    // the filter stays Listing 1's `delta >= 2`, which is what makes the
    // work-conservation expectation sound.
    let policy = match rng.below(100) {
        0..=44 => PolicyRecipe::Listing1,
        45..=64 => PolicyRecipe::StealHalf,
        65..=79 => PolicyRecipe::Pelt,
        _ => {
            let choose = ["max victim.load", "min victim.load", "first"][rng.below(3) as usize];
            let source = format!(
                "policy fuzzed {{\n    metric threads;\n    filter = victim.load - self.load >= 2;\n    choose = {choose};\n    steal = 1;\n}}"
            );
            PolicyRecipe::Inline(sched_dsl::parse(&source).expect("generated policies parse"))
        }
    };

    let is_storm = matches!(driver, Driver::Storm(_));
    let is_burst = matches!(driver, Driver::Burst(_));
    let batch_pct = if is_storm {
        30
    } else if driver == Driver::Replay {
        20
    } else {
        0
    };
    let batch =
        if batch_pct > 0 && rng.chance(batch_pct) { Some(pick_batch(&mut rng)) } else { None };

    // The tiny-ring flavours only run storms and the simulator cannot
    // execute storms or batch sweeps, so the fuzzer pins an explicit
    // backend matrix per driver shape.  Sim-compatible scenarios include
    // the event engine, which the ordering sweep then reorders.
    let backends = if is_storm {
        vec!["rq".to_string(), "rq-deque".to_string()]
    } else if batch.is_none() {
        vec!["model".to_string(), "sim-event".to_string(), "rq".to_string(), "rq-deque".to_string()]
    } else {
        vec!["model".to_string(), "rq".to_string(), "rq-deque".to_string()]
    };

    let expect = if is_storm || is_burst {
        // Storm epochs drain, burst blips park tasks outside the system
        // mid-run; only task conservation is claimed, as in the builtin
        // E17/E22 documents.
        vec![Invariant::ConservationOfTasks]
    } else {
        vec![Invariant::WorkConservation, Invariant::ConservationOfTasks, Invariant::NonInversion]
    };

    Scenario {
        name: format!("fuzz seed {master_seed} #{index}"),
        experiment: "e1".into(),
        topology,
        loads,
        policy,
        backends: Some(backends),
        driver,
        budget,
        events: None,
        order: None,
        batch,
        mixed_nice: rng.chance(25),
        expect,
    }
}

fn pick_batch(rng: &mut Rng) -> Batch {
    match rng.below(5) {
        0 => Batch::Fixed(1),
        1 => Batch::Fixed(2),
        2 => Batch::Fixed(4),
        3 => Batch::Fixed(8),
        _ => Batch::Half,
    }
}

/// Checks one scenario's records against its invariant block.  Records
/// without final-load residency (the simulator's: its tasks run to
/// completion) are skipped where residency is what's checked.
pub fn check_records(spec: &Scenario, records: &[ExperimentRecord]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut violate = |backend: &str, inv: Invariant, detail: String| {
        violations.push(Violation {
            scenario: spec.name.clone(),
            backend: backend.to_string(),
            kind: inv.keyword().to_string(),
            detail,
        });
    };
    let initial_total = spec.nr_threads();
    let initial_max = spec.loads.iter().copied().max().unwrap_or(0);
    for record in records {
        for &inv in &spec.expect {
            match inv {
                Invariant::WorkConservation => match spec.driver {
                    Driver::Replay | Driver::Workload { .. } => {
                        // Both sim engines run their tasks to completion and
                        // report no final residency; WC there is the ordering
                        // sweep's finished/operations check instead.
                        if record.backend.starts_with("sim") {
                            continue;
                        }
                        let converged = record.convergence_rounds.is_some();
                        let settled = !record.final_loads.is_empty()
                            && sched_core::is_work_conserving(
                                record.final_loads.iter().map(|&n| n as u64),
                            );
                        if !converged && !settled {
                            violate(
                                record.backend,
                                inv,
                                format!(
                                    "did not converge within {} rounds; final loads {:?}",
                                    spec.budget, record.final_loads
                                ),
                            );
                        }
                    }
                    // Burst blips and storm epochs are transient by design;
                    // the builtin documents do not claim WC there and the
                    // fuzzer does not generate such claims.
                    _ => {}
                },
                Invariant::ConservationOfTasks => {
                    if record.final_loads.is_empty() {
                        continue;
                    }
                    let final_total: usize = record.final_loads.iter().sum();
                    // A storm drains the machine at every epoch boundary, so
                    // conservation there means "nothing left behind".
                    let want =
                        if matches!(spec.driver, Driver::Storm(_)) { 0 } else { initial_total };
                    if final_total != want {
                        violate(
                            record.backend,
                            inv,
                            format!(
                                "{final_total} threads at the end, expected {want} (final loads {:?})",
                                record.final_loads
                            ),
                        );
                    }
                }
                Invariant::NonInversion => {
                    if record.final_loads.is_empty() || spec.driver != Driver::Replay {
                        continue;
                    }
                    let final_max = record.final_loads.iter().copied().max().unwrap_or(0);
                    if final_max > initial_max {
                        violate(
                            record.backend,
                            inv,
                            format!(
                                "a core ended with {final_max} threads, above the initial maximum \
                                 {initial_max} (final loads {:?})",
                                record.final_loads
                            ),
                        );
                    }
                }
            }
        }
    }
    violations
}

/// Checks one seeded same-time ordering of a scenario on the event engine
/// against its priority-ordered baseline: the reordering must not change
/// whether the run finishes or how many operations complete.  `baseline`
/// is the result of `run_sim_result(SimEngine::Event, spec)` with no
/// `order` set.
pub fn check_ordering(
    spec: &Scenario,
    baseline: &sched_sim::SimResult,
    order_seed: u64,
) -> Vec<Violation> {
    let mut seeded_spec = spec.clone();
    seeded_spec.order = Some(order_seed);
    let Some(seeded) = run_sim_result(SimEngine::Event, &seeded_spec) else {
        return vec![Violation {
            scenario: spec.name.clone(),
            backend: "sim-event".into(),
            kind: "ordering".into(),
            detail: format!("order {order_seed}: the event engine declined the spec"),
        }];
    };
    let mut violations = Vec::new();
    let mut violate = |detail: String| {
        violations.push(Violation {
            scenario: spec.name.clone(),
            backend: "sim-event".into(),
            kind: "ordering".into(),
            detail,
        });
    };
    if seeded.finished != baseline.finished {
        violate(format!(
            "order {order_seed}: finished = {} but the priority-ordered baseline finished = {}",
            seeded.finished, baseline.finished
        ));
    }
    if seeded.operations != baseline.operations {
        violate(format!(
            "order {order_seed}: {} operations completed, baseline completed {}",
            seeded.operations, baseline.operations
        ));
    }
    violations
}

/// The engine-parity oracle: re-runs the scenario on the reference engine
/// and reports every quantity in which `baseline` — the priority-ordered
/// event-engine result of the same spec — differs from it.
fn check_engine_parity(spec: &Scenario, baseline: &sched_sim::SimResult) -> Vec<Violation> {
    let reference =
        run_sim_result(SimEngine::Tick, spec).expect("the engines decline the same specs");
    baseline
        .parity_mismatches(&reference)
        .into_iter()
        .map(|detail| Violation {
            scenario: spec.name.clone(),
            backend: "sim-event".into(),
            kind: "engine-parity".into(),
            detail,
        })
        .collect()
}

/// The trace-driven sanity leg: re-runs the scenario with a decision
/// recorder attached and folds the event stream through the online
/// invariant checker ([`sched_trace::sanity`]).
///
/// Two substrates are checked, each at the strictness its trace can bear:
///
/// * the **event-driven simulator** is deterministic and runs every task
///   to completion, so its trace is checked in full (relaxed mode — the
///   drain still interleaves same-timestamp events across cores) and,
///   when the run finished, cross-checked against an all-idle final
///   machine;
/// * the **lock-free runqueue machine** is genuinely concurrent, so only
///   the order-insensitive conservation cross-check is trustworthy there:
///   the per-core occupancy derived from placements and migrations must
///   match the loads the machine itself reports at the end.  Storm and
///   burst drivers complete tasks mid-run (events the runqueue backends
///   do not emit), so the rq leg covers the converge-driver scenarios.
///
/// Each violation ships the offending event span as its detail — the
/// repro document tells you *what* to re-run, the excerpt shows *where*
/// in the decision stream it went wrong.
pub fn check_sanity(spec: &Scenario) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut push = |backend: &str, trace: &Trace, v: &SanityViolation| {
        violations.push(Violation {
            scenario: spec.name.clone(),
            backend: backend.into(),
            kind: format!("sanity-{}", v.kind),
            detail: format!("the decision trace breaks an invariant\n{}", v.excerpt(trace, 2)),
        });
    };

    let runner = ExperimentRunner::with_all_backends();
    let traced = |backend: &str| runner.run_traced(backend, spec).expect("a traced backend");

    let finished = run_sim_result(SimEngine::Event, spec).is_some_and(|r| r.finished);
    if let Some((_, trace)) = traced("sim-event") {
        let all_idle = vec![0u64; spec.loads.len()];
        let final_loads = if finished { Some(&all_idle[..]) } else { None };
        for v in &SanityChecker::check_trace(&trace, false, final_loads) {
            push("sim-event", &trace, v);
        }
    }

    if !matches!(spec.driver, Driver::Storm(_) | Driver::Burst(_)) {
        if let Some((record, trace)) = traced("rq-deque") {
            let final_loads: Vec<u64> = record.final_loads.iter().map(|&n| n as u64).collect();
            for v in &SanityChecker::check_trace(&trace, false, Some(&final_loads)) {
                if matches!(v.kind, SanityKind::TaskLost | SanityKind::TaskDuplicated) {
                    push("rq-deque", &trace, v);
                }
            }
        }
    }
    violations
}

/// Runs one scenario through the runner and its invariant block.
/// A sim-compatible scenario's event-engine result is held against the
/// reference engine's ([`sched_sim::SimResult::parity_mismatches`]), and a document
/// carrying an `order` seed (an ordering-sweep repro) is additionally
/// re-checked against that priority-ordered baseline.
pub fn check_scenario(scenario: &Scenario) -> (usize, Vec<Violation>) {
    let runner = ExperimentRunner::new(vec![
        Box::new(ModelBackend),
        Box::new(SimEventBackend),
        Box::new(RqBackend),
        Box::new(RqDequeBackend),
    ]);
    let records = runner.run(scenario.clone());
    let mut violations = check_records(scenario, &records);
    violations.extend(check_sanity(scenario));
    let mut baseline_spec = scenario.clone();
    baseline_spec.order = None;
    if let Some(baseline) = run_sim_result(SimEngine::Event, &baseline_spec) {
        violations.extend(check_engine_parity(&baseline_spec, &baseline));
        if let Some(order_seed) = scenario.order {
            violations.extend(check_ordering(&baseline_spec, &baseline, order_seed));
        }
    }
    (records.len(), violations)
}

/// Generates, executes and checks `config.count` scenarios from
/// `config.seed`.
pub fn fuzz_scenarios(config: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport::default();
    for index in 0..config.count {
        let doc = generate_doc(config.seed, index);
        report.generated += 1;
        let mut violations = Vec::new();

        // The grammar leg: every generated document must survive
        // print -> parse unchanged.
        let printed = sched_dsl::print_scenario(&doc);
        match sched_dsl::parse_doc(&printed) {
            Ok(parsed) if parsed == vec![doc.clone()] => {}
            Ok(_) => violations.push(Violation {
                scenario: doc.name.clone(),
                backend: "-".into(),
                kind: "round_trip".into(),
                detail: "printing and re-parsing changed the document".into(),
            }),
            Err(e) => violations.push(Violation {
                scenario: doc.name.clone(),
                backend: "-".into(),
                kind: "round_trip".into(),
                detail: format!("printed document does not parse: {e}"),
            }),
        }

        // The execution leg.
        match validate(&doc) {
            Ok(()) => {
                let (nr_records, mut run_violations) = check_scenario(&doc);
                report.records_checked += nr_records;
                violations.append(&mut run_violations);

                // The ordering-sweep leg: re-run the scenario on the event
                // engine under `config.orders` seeded same-time tie-breaks
                // and demand the priority-ordered outcome.  A failing order
                // becomes its own repro document pinning the order seed, so
                // `--repro` replays exactly the permutation that broke.
                if config.orders > 0 {
                    if let Some(baseline) = run_sim_result(SimEngine::Event, &doc) {
                        for k in 0..config.orders {
                            let order_seed =
                                Rng::new(config.seed ^ ((index as u64) << 32) ^ k as u64).next();
                            report.orders_checked += 1;
                            let order_violations = check_ordering(&doc, &baseline, order_seed);
                            if !order_violations.is_empty() {
                                let mut repro = doc.clone();
                                repro.name = format!("{} order {order_seed}", doc.name);
                                repro.order = Some(order_seed);
                                repro.backends = Some(vec!["sim-event".to_string()]);
                                report
                                    .failures
                                    .push(FuzzFailure { doc: repro, violations: order_violations });
                            }
                        }
                    }
                }
            }
            Err(e) => violations.push(Violation {
                scenario: doc.name.clone(),
                backend: "-".into(),
                kind: "load".into(),
                detail: format!("generated document does not load: {e}"),
            }),
        }

        if !violations.is_empty() {
            report.failures.push(FuzzFailure { doc, violations });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_deterministic() {
        let a = generate_doc(7, 3);
        let b = generate_doc(7, 3);
        assert_eq!(a, b);
        let c = generate_doc(8, 3);
        assert_ne!(a, c, "different seeds must give different scenarios");
    }

    #[test]
    fn a_small_fuzz_run_is_clean() {
        let report = fuzz_scenarios(&FuzzConfig { seed: 7, count: 4, orders: 0 });
        assert_eq!(report.generated, 4);
        assert!(report.records_checked > 0);
        assert_eq!(report.orders_checked, 0, "orders: 0 must disable the sweep");
        let rendered: Vec<String> = report
            .failures
            .iter()
            .flat_map(|f| f.violations.iter().map(|v| v.to_string()))
            .collect();
        assert!(report.is_clean(), "violations: {rendered:#?}");
    }

    #[test]
    fn a_seeded_ordering_sweep_is_clean() {
        // The CI sweep in miniature: every sim-compatible scenario re-runs
        // under seeded same-time permutations, and none of them may change
        // the outcome.
        let report = fuzz_scenarios(&FuzzConfig { seed: 7, count: 3, orders: 2 });
        assert!(report.orders_checked > 0, "seed 7 generates sim-compatible scenarios");
        let rendered: Vec<String> = report
            .failures
            .iter()
            .flat_map(|f| f.violations.iter().map(|v| v.to_string()))
            .collect();
        assert!(report.is_clean(), "violations: {rendered:#?}");
    }

    #[test]
    fn an_ordering_repro_document_replays_through_the_checker() {
        // A failure doc produced by the sweep pins `order <seed>` and the
        // sim-event backend; `--repro` feeds it back through
        // check_scenario, which must re-run the ordering comparison.
        let mut doc = (0..64)
            .map(|index| generate_doc(7, index))
            .find(|d| !matches!(d.driver, Driver::Storm(_)) && d.batch.is_none())
            .expect("seed 7 generates a sim-compatible scenario");
        doc.order = Some(12345);
        doc.backends = Some(vec!["sim-event".to_string()]);
        let printed = sched_dsl::print_scenario(&doc);
        let parsed = sched_dsl::parse_doc(&printed).expect("repro docs parse");
        assert_eq!(parsed, vec![doc.clone()]);
        validate(&doc).expect("repro docs load");
        let (nr_records, violations) = check_scenario(&doc);
        assert_eq!(nr_records, 1, "only the sim-event backend runs a repro doc");
        let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        assert!(violations.is_empty(), "{rendered:#?}");
    }

    #[test]
    fn the_parity_oracle_names_the_quantities_that_diverged() {
        let run = |id| run_sim_result(SimEngine::Event, &crate::catalog::spec(id)).unwrap();
        let (e2, e5) = (run(crate::ExperimentId::E2), run(crate::ExperimentId::E5));
        assert_eq!(e2.parity_mismatches(&e2), Vec::<String>::new());
        let mismatches = e5.parity_mismatches(&e2);
        assert!(mismatches.iter().any(|m| m.starts_with("balancing: ")), "{mismatches:#?}");
        assert!(mismatches.iter().any(|m| m.starts_with("per-core idle")), "{mismatches:#?}");
    }

    #[test]
    fn the_checker_flags_planted_violations() {
        let mut spec = generate_doc(1, 0);
        validate(&spec).expect("generated docs load");
        spec.expect = vec![
            Invariant::WorkConservation,
            Invariant::ConservationOfTasks,
            Invariant::NonInversion,
        ];
        // A fabricated record that conserves nothing and inverts the load.
        let runner = ExperimentRunner::new(vec![Box::new(ModelBackend)]);
        let mut record = runner.run(crate::catalog::spec(crate::ExperimentId::E2)).remove(0);
        record.convergence_rounds = None;
        record.final_loads = vec![spec.nr_threads() + 3; spec.loads.len()];
        let violations = check_records(&spec, &[record]);
        let kinds: Vec<&str> = violations.iter().map(|v| v.kind.as_str()).collect();
        assert!(kinds.contains(&"conservation_of_tasks"), "{kinds:?}");
    }

    #[test]
    fn builtin_scenarios_satisfy_their_own_invariant_blocks() {
        // The declared expectations are not decorative: the catalogued e2
        // and e5 scenarios (fast, deterministic) must pass their own blocks.
        for scenario in crate::catalog::builtin()
            .iter()
            .filter(|s| matches!(s.experiment.as_str(), "e2" | "e5"))
        {
            let (_, violations) = check_scenario(scenario);
            let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
            assert!(violations.is_empty(), "{}: {rendered:#?}", scenario.name);
        }
    }
}
