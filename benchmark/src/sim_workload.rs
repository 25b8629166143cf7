//! `sim_oltp`: the event-driven simulator under an OLTP workload.  The only
//! workload that bypasses the executor, the runqueues and the deque and
//! loads `sched-sim` and the policy code in `sched-core` instead.

use std::sync::Arc;
use std::time::Instant;

use sched_sim::{EventEngine, OptimisticScheduler, SimConfig};
use sched_workloads::{OltpWorkload, Workload};

use crate::harness::{flat, policy, Placement};

/// Simulated CPUs.
const SIM_CORES: usize = 64;
/// Far beyond any finishing time, so only a stuck simulation is truncated.
const HORIZON_NS: u64 = 3_600_000_000_000;

/// Size of the simulated workload.
#[derive(Debug, Clone, Copy)]
pub struct SimSize {
    /// Simulated OLTP worker threads.
    pub nr_workers: usize,
    /// Transactions each executes.
    pub transactions: usize,
}

/// The `sim_oltp` workload.
pub const FULL: SimSize = SimSize { nr_workers: 1024, transactions: 80 };
/// The `sim` layer's probe when the measured workload is an executor one.
pub const REFERENCE: SimSize = SimSize { nr_workers: 256, transactions: 40 };

/// One simulation, timed.
#[derive(Debug, Clone, Copy)]
pub struct Sim {
    /// `EventEngine::new` plus `run`.
    pub wall_ns: u64,
    /// `run` alone.
    pub run_ns: u64,
    /// Events the engine processed.
    pub events: u64,
    /// Transactions completed.
    pub operations: u64,
    /// Successful steals in the simulated balancing rounds.
    pub balance_successes: u64,
}

/// One trial: one generated workload, simulated repeatedly.
#[derive(Debug)]
pub struct SimRun {
    /// Simulated threads over all simulations.
    pub attempted: u64,
    /// Simulated threads in simulations that did not finish.
    pub failed: u64,
    /// Failed output checks, in words.
    pub errors: Vec<String>,
    /// Topology + workload generation.
    pub setup_s: f64,
    /// The simulations, in order.
    pub sims: Vec<Sim>,
}

fn generate(size: SimSize, seed: u64) -> Workload {
    OltpWorkload {
        nr_workers: size.nr_workers,
        transactions: size.transactions,
        service_ns: 500_000,
        think_ns: 250_000,
        jitter: 0.2,
        seed,
        initial_spread: 4,
    }
    .generate()
}

/// Generates the workload from `seed`, then simulates it again and again
/// until `seconds` have passed and at least `min_sims` simulations have
/// run.  Every one must finish and repeat the first one's event and
/// transaction counts exactly.
pub fn run(size: SimSize, seed: u64, seconds: f64, min_sims: usize) -> SimRun {
    let began = Instant::now();
    let topo = flat(SIM_CORES);
    let workload = generate(size, seed);
    let setup_s = began.elapsed().as_secs_f64();

    let mut sims: Vec<Sim> = Vec::new();
    let mut errors = Vec::new();
    let mut failed = 0;
    let began = Instant::now();
    while sims.len() < min_sims || began.elapsed().as_secs_f64() < seconds {
        let sim_began = Instant::now();
        let sim_policy = policy(&topo, Placement::Policy);
        let engine = EventEngine::new(
            SimConfig::default().horizon(HORIZON_NS),
            Some(&topo),
            &workload,
            Box::new(OptimisticScheduler::with_topology(sim_policy, Arc::clone(&topo))),
        );
        let run_began = Instant::now();
        let result = engine.run();
        let sim = Sim {
            wall_ns: sim_began.elapsed().as_nanos() as u64,
            run_ns: run_began.elapsed().as_nanos() as u64,
            events: result.events_processed,
            operations: result.operations,
            balance_successes: result.balance.successes,
        };
        if !result.finished {
            failed += size.nr_workers as u64;
            errors.push(format!("simulation {} hit the horizon unfinished", sims.len()));
        }
        let first = sims.first().unwrap_or(&sim);
        if (first.events, first.operations) != (sim.events, sim.operations) {
            errors.push(format!(
                "simulation {} processed {} events / {} operations, the first {} / {}",
                sims.len(),
                sim.events,
                sim.operations,
                first.events,
                first.operations
            ));
        }
        sims.push(sim);
    }
    let expected_ops = (size.nr_workers * size.transactions) as u64;
    if sims[0].operations != expected_ops {
        errors.push(format!(
            "{} transactions completed, expected {expected_ops}",
            sims[0].operations
        ));
    }
    SimRun { attempted: (sims.len() * size.nr_workers) as u64, failed, errors, setup_s, sims }
}
