//! OLTP-style database workload.
//!
//! Models the "realistic database workloads" of §1: `nr_workers` threads
//! each execute `transactions` short CPU bursts separated by think/IO time.
//! Throughput (transactions per second) is the figure of merit; when a
//! non-work-conserving scheduler lets runnable workers queue behind each
//! other while cores idle, transactions serialise and throughput drops by
//! tens of percent.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::spec::{Phase, ThreadSpec, Workload};

/// Generator for the OLTP workload.
#[derive(Debug, Clone)]
pub struct OltpWorkload {
    /// Number of worker threads.
    pub nr_workers: usize,
    /// Transactions each worker executes.
    pub transactions: usize,
    /// Nominal CPU time of one transaction, in nanoseconds.
    pub service_ns: u64,
    /// Nominal think/IO time between transactions, in nanoseconds.
    pub think_ns: u64,
    /// Relative jitter on service and think times.
    pub jitter: f64,
    /// Seed for the jitter.
    pub seed: u64,
    /// Number of cores the workers are initially spread over (models a
    /// connection handler waking workers on a subset of the machine).
    pub initial_spread: usize,
}

impl Default for OltpWorkload {
    fn default() -> Self {
        OltpWorkload {
            nr_workers: 32,
            transactions: 50,
            service_ns: 500_000,
            think_ns: 300_000,
            jitter: 0.2,
            seed: 7,
            initial_spread: 4,
        }
    }
}

impl OltpWorkload {
    /// Generates the workload description.
    pub fn generate(&self) -> Workload {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut workload = Workload::new(format!(
            "oltp({} workers x {} txns)",
            self.nr_workers, self.transactions
        ));
        for worker in 0..self.nr_workers {
            let mut phases = Vec::with_capacity(self.transactions * 2);
            for _ in 0..self.transactions {
                phases.push(Phase::Compute(jittered(&mut rng, self.service_ns, self.jitter)));
                phases.push(Phase::Sleep(jittered(&mut rng, self.think_ns, self.jitter)));
            }
            workload.push(ThreadSpec {
                nice: 0,
                // Workers connect over a short ramp-up window.
                arrival_ns: (worker as u64) * 10_000,
                origin_core: Some(worker % self.initial_spread.max(1)),
                phases,
            });
        }
        workload
    }
}

fn jittered(rng: &mut SmallRng, nominal: u64, jitter: f64) -> u64 {
    let range = (nominal as f64 * jitter) as i64;
    let delta = if range > 0 { rng.gen_range(-range..=range) } else { 0 };
    (nominal as i64 + delta).max(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_a_valid_workload() {
        let w = OltpWorkload { nr_workers: 8, ..Default::default() }.generate();
        assert_eq!(w.nr_threads(), 8);
        assert!(w.validate().is_ok());
        assert_eq!(w.total_operations(), 8 * 50);
    }

    #[test]
    fn workers_arrive_staggered_on_a_subset_of_cores() {
        let w = OltpWorkload { nr_workers: 6, initial_spread: 2, ..Default::default() }.generate();
        assert!(w.threads.iter().all(|t| t.origin_core.unwrap() < 2));
        let arrivals: Vec<u64> = w.threads.iter().map(|t| t.arrival_ns).collect();
        let mut sorted = arrivals.clone();
        sorted.sort();
        assert_eq!(arrivals, sorted, "arrival times ramp up monotonically");
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(OltpWorkload::default().generate(), OltpWorkload::default().generate());
    }

    #[test]
    fn jitter_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let v = jittered(&mut rng, 1000, 0.5);
            assert!((500..=1500).contains(&v));
        }
        assert_eq!(jittered(&mut rng, 1000, 0.0), 1000);
    }
}
