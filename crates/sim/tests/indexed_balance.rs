//! The indexed balance pass at scale: e8's single-hot shape — twice as
//! many threads as cores, all forked on core 0 — on the event engine, and
//! an OLTP mix whose steals sit at the filter's threshold.
//!
//! `Policy::simple()` claims the index (its filter and its choice both
//! claim, and `sched-verify`'s `lemmas::indexed_select` proves them), so
//! its balance pass plans from the count index.  The same policy with a
//! choice that decides alike but makes no claim forces the scan.  The two
//! runs must agree on every quantity engine parity compares.

use std::time::Instant;

use sched_core::policy::MaxLoadChoice;
use sched_core::{ChoicePolicy, CoreId, CoreSnapshot, LoadMetric, Policy};
use sched_sim::{EventEngine, OptimisticScheduler, SimConfig, SimResult};
use sched_workloads::{OltpWorkload, Phase, ThreadSpec, Workload};

/// The CPU time of each task, as in the catalog's replayed load vectors.
const TASK_NS: u64 = 2_000_000;

/// `MaxLoadChoice` over thread counts without its claim: the same victims,
/// chosen by scan.
struct UnclaimedMaxLoad(MaxLoadChoice);

impl ChoicePolicy for UnclaimedMaxLoad {
    fn choose(&self, thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId> {
        self.0.choose(thief, candidates)
    }

    fn name(&self) -> &'static str {
        "unclaimed_max_load"
    }
}

fn scanning() -> Policy {
    Policy::simple()
        .with_choice(Box::new(UnclaimedMaxLoad(MaxLoadChoice::new(LoadMetric::NrThreads))))
}

/// e8's shape on `cores` cores: `2 * cores` tasks on core 0.
fn single_hot(cores: usize) -> Workload {
    let mut workload = Workload::new(format!("single hot ({cores} cores)"));
    for _ in 0..2 * cores {
        workload.push(ThreadSpec {
            nice: 0,
            arrival_ns: 0,
            origin_core: Some(0),
            phases: vec![Phase::Compute(TASK_NS)],
        });
    }
    workload
}

/// An OLTP mix on `cores` cores, as the catalog's `oltp` workload builds it:
/// counts stay small, so steals sit at the filter's threshold.
fn oltp(cores: usize) -> Workload {
    OltpWorkload {
        nr_workers: 2 * cores,
        transactions: 10,
        service_ns: 500_000,
        think_ns: 250_000,
        jitter: 0.2,
        seed: 7,
        initial_spread: 4,
    }
    .generate()
}

fn run(workload: &Workload, cores: usize, policy: Policy) -> SimResult {
    let scheduler = Box::new(OptimisticScheduler::new(policy));
    EventEngine::new(SimConfig::with_cores(cores), None, workload, scheduler).run()
}

#[test]
fn the_index_and_the_scan_agree_at_256_cores() {
    assert_eq!(Policy::simple().index_threshold(), Some(2), "the index runs");
    assert_eq!(scanning().index_threshold(), None, "the scan runs");
    for (workload, operations) in [(single_hot(256), 512), (oltp(256), 5120)] {
        let indexed = run(&workload, 256, Policy::simple());
        let scanned = run(&workload, 256, scanning());
        assert!(indexed.finished, "{}", workload.name);
        assert_eq!(indexed.operations, operations, "{}", workload.name);
        assert!(indexed.balance.successes >= 255, "{}: {:?}", workload.name, indexed.balance);
        assert_eq!(indexed.parity_mismatches(&scanned), Vec::<String>::new(), "{}", workload.name);
        assert_eq!(indexed.events_processed, scanned.events_processed, "{}", workload.name);
    }
}

/// The 1 024-core row runs on the index alone: the scan would make a
/// million filter calls per round.  Every other core steals one thread in
/// each of the first two rounds, so the 2 048 two-millisecond tasks end at
/// 11 ms.
#[test]
fn the_index_balances_1024_cores() {
    let began = Instant::now();
    let result = run(&single_hot(1024), 1024, Policy::simple());
    assert!(result.finished);
    assert_eq!(result.operations, 2048);
    assert_eq!(result.makespan_ns, 11_000_000);
    assert_eq!((result.balance.successes, result.balance.migrations), (2046, 2046));
    assert_eq!(result.balance.failures(), 0);
    eprintln!("1 024 cores on the index: {:?} of wall time", began.elapsed());
}
