//! The experiments e1–e26, one row of the `EXPERIMENTS` table each (the
//! README's per-experiment index).  An experiment is its catalog records:
//! `experiments eN` prints them through one renderer, [`records_table`].
//! A claim no record holds is a pinned test, not a table: the lemma
//! verdicts and model sweeps in the root `tests/`, the CFS comparison and
//! the trace checker's windows below.

use sched_metrics::Table;

use crate::runner::{records_table, ExperimentRunner};

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
/// documents declare, and the title the harness shows.
type Row = (ExperimentId, &'static str, &'static str);

/// Every experiment, in index order.  Adding one is adding a variant, its
/// row here and its `experiments/eN.scn` document.
#[rustfmt::skip] // one row per experiment
const EXPERIMENTS: [Row; 26] = {
    use ExperimentId::*;
    [
        (E1, "e1", "E1  Figure 1: the choice step is irrelevant to the proofs"),
        (E2, "e2", "E2  Listing 1: the simple load balancer in action"),
        (E3, "e3", "E3  Listing 2 / Lemma 1: filter soundness and completeness"),
        (E4, "e4", "E4  §4.2: steal soundness and sequential work conservation"),
        (E5, "e5", "E5  §4.3: the greedy-filter ping-pong counterexample"),
        (E6, "e6", "E6  §4.3 P1: failures imply concurrent successes"),
        (E7, "e7", "E7  §4.3 P2: the potential decreases on every steal"),
        (E8, "e8", "E8  §3.2: rounds to reach work conservation (the bound N)"),
        (E9, "e9", "E9  §1: scientific (fork-join) workload degradation"),
        (E10, "e10", "E10 §1: database (OLTP) throughput loss"),
        (E11, "e11", "E11 §3.1: overhead of lock-less vs fully locked balancing"),
        (E12, "e12", "E12 §5: hierarchical / NUMA-aware balancing in step 2"),
        (E13, "e13", "E13 §1/§5: the DSL front-end and its two backends"),
        (E14, "e14", "E14 §5: NUMA imbalance — distance-ordered stealing drains a saturated node"),
        (E15, "e15", "E15 §5: cross-node ping-pong bait — locality of the victim search"),
        (E16, "e16", "E16 §5: hierarchy in step 2 — each node drains locally"),
        (E17, "e17", "E17 §3.1: bursty on/off load — instantaneous balancing thrashes, PELT converges"),
        (E18, "e18", "E18 §4.2: mixed niceness — instantaneous weighted vs PELT-decayed weighted"),
        (E19, "e19", "E19 §3.1: load-tracker overhead on the balancing hot path"),
        (E20, "e20", "E20 §3.1: steal-heavy fan-out — the owner path under thief bombardment"),
        (E21, "e21", "E21 §3.1: PELT half-life sensitivity — churn vs responsiveness at 1/4/16/64 ms"),
        (E22, "e22", "E22 §3.2: overflow storm — ring overflow must stay stealable (injector vs spill)"),
        (E23, "e23", "E23 §3.1: batched stealing — tasks claimed per acquisition, k=1..8 vs half"),
        (E24, "e24", "E24 §2: event-driven simulation — O(events) vs O(cores x horizon) at 1M tasks"),
        (E25, "e25", "E25 §3.2: trace-only detection — the sanity checker finds the spill hole"),
        (E26, "e26", "E26 §4: the real executor — open-loop latency ladder, measured end-to-end p99/p999"),
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

/// Runs one experiment: the view of its catalog records on every backend
/// that executes them.
pub fn run_experiment(id: ExperimentId) -> Table {
    let records = ExperimentRunner::with_all_backends().run_catalog(crate::catalog::specs_of(id));
    records_table(format!("{}: catalog records", id.title()), &records)
}

/// Runs every experiment in index order.
pub fn all_experiments() -> Vec<(ExperimentId, Table)> {
    ExperimentId::all().into_iter().map(|id| (id, run_experiment(id))).collect()
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use sched_core::prelude::*;
    use sched_dsl::{Driver, Scenario};

    use super::*;
    use crate::runner::{SimEngine, SimScenario};

    /// Runs `spec` on the backend called `backend` with tracing on; returns
    /// the record, the drained trace and the idle-while-overloaded windows
    /// the sanity checker finds in that trace alone.
    fn traced_with_windows(
        backend: &str,
        spec: &Scenario,
    ) -> (crate::runner::ExperimentRecord, sched_trace::Trace, Vec<sched_trace::SanityViolation>)
    {
        let (record, trace) = ExperimentRunner::with_all_backends()
            .run_traced(backend, spec)
            .expect("a trace-recording backend")
            .unwrap_or_else(|| panic!("{backend} executes `{}`", spec.name));
        let mut windows = sched_trace::SanityChecker::check_trace(&trace, false, None);
        windows.retain(|v| v.kind == sched_trace::SanityKind::IdleWhileOverloaded);
        (record, trace, windows)
    }

    /// E9/E10's comparison on the experiment's catalogued scenario: the
    /// verified scheduler exactly as the `sim-event` backend runs it, then
    /// the CFS-like baseline without and with both wasted-cores bugs
    /// swapped into the same machine and workload.
    fn scheduler_rows(id: ExperimentId) -> [sched_sim::SimResult; 3] {
        use sched_sim::{CfsBugs, CfsLikeScheduler};

        let spec = crate::catalog::spec(id);
        let build = || SimScenario::build(SimEngine::Event, &spec).expect("a simulated scenario");
        let cfs = |bugs| {
            let mut scenario = build();
            scenario.scheduler = Box::new(CfsLikeScheduler::new(bugs));
            scenario.run(None)
        };
        let rows = [build().run(None), cfs(CfsBugs::none()), cfs(CfsBugs::all())];
        for row in &rows {
            assert!(row.finished && row.operations > 0, "{}: runs to completion", spec.name);
        }
        rows
    }

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
            injector.steals.migrations > spill.steals.migrations,
            "stealable overflow must turn stranded idling into migrations ({} vs {})",
            injector.steals.migrations,
            spill.steals.migrations
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

        let committed = crate::records::committed_records();
        let storms: Vec<&Scenario> = crate::catalog::builtin()
            .iter()
            .filter(|spec| matches!(spec.driver, Driver::Storm(_)))
            .collect();
        assert_eq!(storms.len(), 7, "e22, e23's five storm specs and e25");
        for spec in storms {
            let record = crate::runner::RqSpillDequeBackend.run(spec, None).expect("a storm");
            assert_eq!(record.rq_backend, Some("mutex"));
            let key = format!("{} | {} | rq-deque-spill", spec.experiment, spec.name);
            let baseline = committed
                .iter()
                .find(|r| crate::records::record_key(r) == key)
                .unwrap_or_else(|| panic!("{key} is committed"));
            let number = |k: &str| baseline.get(k).and_then(|v| v.as_f64());
            let levels = record.steals.level_migrations;
            for (field, got) in [
                ("migrations", Some(record.steals.migrations as f64)),
                ("failures", Some(record.steals.failures() as f64)),
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
                pelt.steals.migrations * 2 < inst.steals.migrations,
                "{backend}: PELT must at least halve the churn ({} vs {})",
                pelt.steals.migrations,
                inst.steals.migrations
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
        assert!(at(&churn, 1).steals.migrations > 0, "1ms half-life must churn");
        assert_eq!(at(&churn, 16).steals.migrations, 0, "16ms half-life must hold still");
        // The responsiveness axis: the warm-up lag never shrinks as the
        // half-life grows, and 64ms pays more of it than 1ms — in rounds,
        // and in violating idle over the scenario's fixed round budget.
        let records = [1, 4, 16, 64].map(|ms| at(&lag, ms));
        let lags: Vec<usize> = records
            .iter()
            .map(|r| r.convergence_rounds.expect("a cold tracker still converges"))
            .collect();
        let idle: Vec<f64> = records.iter().map(|r| r.violating_idle).collect();
        assert!(lags.windows(2).all(|w| w[0] <= w[1]), "warm-up lag per half-life: {lags:?}");
        assert!(lags[0] < lags[3], "a longer half-life must pay a longer warm-up lag: {lags:?}");
        assert!(idle.windows(2).all(|w| w[0] <= w[1]), "idle per half-life: {idle:?}");
        assert!(idle[0] < idle[3], "a longer warm-up lag must idle longer: {idle:?}");
    }

    /// Violating idle is core-rounds over the replay's round budget: e8's
    /// one round with 63 of 64 cores idle reads 63 core-rounds of
    /// 64 × 1024.
    #[test]
    fn e8_accounts_its_one_idle_round_over_the_whole_budget() {
        let e8 = model_records(ExperimentId::E8).remove(0);
        assert_eq!(e8.convergence_rounds, Some(1));
        assert_eq!(e8.violating_idle, 63.0 / 65536.0);
    }

    /// The locality numbers the E14/E15 policy variants are catalogued to
    /// show on the model: (policy, rounds to WC, migrations, remote steals).
    #[test]
    fn e14_and_e15_pin_the_model_locality_of_each_policy() {
        let pinned = |id| -> Vec<(String, Option<usize>, u64, u64)> {
            let records = model_records(id);
            records
                .into_iter()
                .map(|r| {
                    (
                        r.policy,
                        r.convergence_rounds,
                        r.steals.migrations,
                        r.steals.level_migrations[3],
                    )
                })
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
            ]
        );
        assert_eq!(
            pinned(ExperimentId::E15),
            vec![row("listing1+topo_choice", 9, 37, 23), row("listing1", 16, 44, 37),]
        );
    }

    #[test]
    fn e16_reports_zero_remote_steals_on_the_model() {
        // Only the model record is deterministic; the real-thread one may
        // pick up a rare race-induced remote fallback steal.
        let records = model_records(ExperimentId::E16);
        assert_eq!(records.len(), 1);
        assert!(records[0].steals.migrations > 0, "the hot cores drain");
        assert_eq!(records[0].steals.level_migrations[3], 0, "no steal crosses a node");
    }

    /// An experiment prints its catalog records and nothing else: one row
    /// per record the runner returns for its scenarios.  One cheap
    /// experiment stands for all of them;
    /// `records_table_shows_only_the_columns_some_record_measured` covers
    /// which columns show.
    #[test]
    fn a_records_only_experiment_prints_one_row_per_record() {
        let runner = ExperimentRunner::with_all_backends();
        let records: usize = crate::catalog::specs_of(ExperimentId::E2)
            .into_iter()
            .map(|spec| runner.run(spec).len())
            .sum();
        assert!(records > 1, "e2 runs on several backends");
        assert_eq!(run_experiment(ExperimentId::E2).nr_rows(), records);
    }

    /// E9/E10's "optimistic (verified)" row is the `sim-event` record's run.
    #[test]
    fn e9_e10_optimistic_rows_are_the_sim_event_records() {
        let runner = ExperimentRunner::new(vec![Box::new(crate::runner::SimEventBackend)]);
        for id in [ExperimentId::E9, ExperimentId::E10] {
            let [optimistic, ..] = scheduler_rows(id);
            let record = runner.run(crate::catalog::spec(id)).remove(0);
            assert_eq!(optimistic.balance, record.steals, "{}", id.title());
            assert_eq!(
                optimistic.violating_idle_fraction(),
                record.violating_idle,
                "{}",
                id.title()
            );
        }
    }

    /// The §1 claim on simulated time, so every row is exact: the
    /// CFS-like baseline matches the verified scheduler until the
    /// wasted-cores bugs are in.  With them the fork-join makespan (E9)
    /// stretches 1.74x, and OLTP (E10) loses 23% of its throughput while
    /// its p99 scheduling latency grows by half.
    #[test]
    fn e9_shows_the_buggy_baseline_losing() {
        // optimistic, cfs-like (no bugs), cfs-like (wasted-cores bugs)
        let e9 = scheduler_rows(ExperimentId::E9);
        let makespan: Vec<String> = e9
            .iter()
            .map(|r| {
                format!(
                    "{:.2} ms {:.2}x {:.1}% idle, {} failures",
                    r.makespan_ms(),
                    r.slowdown_vs(&e9[0]),
                    r.violating_idle_fraction() * 100.0,
                    r.balance.failures()
                )
            })
            .collect();
        assert_eq!(
            makespan,
            [
                "37.49 ms 1.00x 10.0% idle, 0 failures",
                "37.49 ms 1.00x 10.0% idle, 0 failures",
                "65.12 ms 1.74x 38.3% idle, 0 failures",
            ]
        );
        let e10 = scheduler_rows(ExperimentId::E10);
        let throughput: Vec<String> = e10
            .iter()
            .map(|r| {
                format!(
                    "{:.0} txn/s {:.2} {:.1}% idle, p99 {:.0} us",
                    r.throughput_ops_per_sec(),
                    r.relative_throughput(&e10[0]),
                    r.violating_idle_fraction() * 100.0,
                    r.latency.quantile(0.99) as f64 / 1e3
                )
            })
            .collect();
        assert_eq!(
            throughput,
            [
                "28488 txn/s 1.00 5.7% idle, p99 2097 us",
                "28757 txn/s 1.01 5.8% idle, p99 2097 us",
                "21988 txn/s 0.77 24.7% idle, p99 3269 us",
            ]
        );
    }
}
