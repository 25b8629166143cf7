//! Fork-join scientific kernel.
//!
//! Models the HPC applications of the "wasted cores" study: `nr_threads`
//! workers compute for roughly `phase_ns` and then synchronise at a barrier,
//! repeated `iterations` times.  The time of each iteration is the time of
//! the *slowest* worker, so any placement that stacks two workers on one
//! core while another core idles roughly doubles the iteration time — which
//! is how a non-work-conserving scheduler produces the "many-fold"
//! degradation of §1.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::spec::{Phase, ThreadSpec, Workload};

/// Generator for the fork-join workload.
#[derive(Debug, Clone)]
pub struct ScientificWorkload {
    /// Number of worker threads (typically one per core).
    pub nr_threads: usize,
    /// Number of compute/barrier iterations.
    pub iterations: usize,
    /// Nominal compute time per iteration, in nanoseconds.
    pub phase_ns: u64,
    /// Relative jitter applied to each compute phase (0.1 = ±10%).
    pub jitter: f64,
    /// Seed for the jitter.
    pub seed: u64,
    /// If set, all threads are initially spawned on this core, as happens
    /// when a parallel runtime forks its workers from one main thread —
    /// the load balancer then has to spread them.
    pub fork_on_core: Option<usize>,
}

impl Default for ScientificWorkload {
    fn default() -> Self {
        ScientificWorkload {
            nr_threads: 16,
            iterations: 10,
            phase_ns: 4_000_000,
            jitter: 0.05,
            seed: 1,
            fork_on_core: Some(0),
        }
    }
}

impl ScientificWorkload {
    /// Generates the workload description.
    pub fn generate(&self) -> Workload {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut workload = Workload::new(format!(
            "scientific({} threads x {} iterations)",
            self.nr_threads, self.iterations
        ));
        for barrier in 0..self.iterations {
            workload.declare_barrier(barrier as u32, self.nr_threads);
        }
        for _ in 0..self.nr_threads {
            let mut phases = Vec::with_capacity(self.iterations * 2);
            for barrier in 0..self.iterations {
                let jitter_range = (self.phase_ns as f64 * self.jitter) as i64;
                let jitter =
                    if jitter_range > 0 { rng.gen_range(-jitter_range..=jitter_range) } else { 0 };
                let compute = (self.phase_ns as i64 + jitter).max(1) as u64;
                phases.push(Phase::Compute(compute));
                phases.push(Phase::Barrier(barrier as u32));
            }
            workload.push(ThreadSpec {
                nice: 0,
                arrival_ns: 0,
                origin_core: self.fork_on_core,
                phases,
            });
        }
        workload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_a_valid_workload() {
        let w = ScientificWorkload { nr_threads: 8, ..Default::default() }.generate();
        assert_eq!(w.nr_threads(), 8);
        assert!(w.validate().is_ok());
        assert_eq!(w.barriers.len(), 10);
        assert_eq!(w.total_operations(), 8 * 10);
    }

    #[test]
    fn jitter_keeps_phases_close_to_nominal() {
        let gen = ScientificWorkload { nr_threads: 4, jitter: 0.1, ..Default::default() };
        let w = gen.generate();
        for t in &w.threads {
            for p in &t.phases {
                if let Phase::Compute(ns) = p {
                    let nominal = gen.phase_ns as f64;
                    assert!((*ns as f64) >= nominal * 0.85 && (*ns as f64) <= nominal * 1.15);
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = ScientificWorkload { nr_threads: 4, ..Default::default() }.generate();
        let b = ScientificWorkload { nr_threads: 4, ..Default::default() }.generate();
        assert_eq!(a, b);
    }

    #[test]
    fn fork_core_is_propagated() {
        let w = ScientificWorkload { fork_on_core: Some(3), ..Default::default() }.generate();
        assert!(w.threads.iter().all(|t| t.origin_core == Some(3)));
    }
}
