//! Results of one simulation run.

use sched_metrics::{IdleAccounting, LatencyRecorder};
use sched_trace::FoldedStats;

/// Everything measured during one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Name of the scheduler that produced the run.
    pub scheduler: &'static str,
    /// Name of the workload.
    pub workload: String,
    /// Time at which the last thread finished (or the horizon, if truncated).
    pub makespan_ns: u64,
    /// Whether every thread finished before the horizon.
    pub finished: bool,
    /// Number of completed compute phases ("operations" / transactions).
    pub operations: u64,
    /// Number of discrete events the engine processed to produce the run —
    /// the cost metric the event-driven engine optimises.
    pub events_processed: u64,
    /// Per-core busy / benign-idle / violating-idle accounting.
    pub idle: IdleAccounting,
    /// Scheduling latency (runnable → running) distribution.
    pub latency: LatencyRecorder,
    /// Aggregated balancing outcomes.
    pub balance: FoldedStats,
}

impl SimResult {
    /// Operations per second of simulated time.
    pub fn throughput_ops_per_sec(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.operations as f64 / (self.makespan_ns as f64 / 1e9)
        }
    }

    /// Fraction of core-time spent idle while some core was overloaded — the
    /// quantity a work-conserving scheduler keeps near zero.
    pub fn violating_idle_fraction(&self) -> f64 {
        self.idle.violation_fraction()
    }

    /// Makespan in milliseconds (convenience for tables).
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ns as f64 / 1e6
    }

    /// Slowdown of this run relative to another run of the same workload.
    pub fn slowdown_vs(&self, baseline: &SimResult) -> f64 {
        if baseline.makespan_ns == 0 {
            return 0.0;
        }
        self.makespan_ns as f64 / baseline.makespan_ns as f64
    }

    /// Throughput of this run relative to another run (1.0 = equal).
    pub fn relative_throughput(&self, baseline: &SimResult) -> f64 {
        let base = baseline.throughput_ops_per_sec();
        if base == 0.0 {
            return 0.0;
        }
        self.throughput_ops_per_sec() / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(makespan_ns: u64, operations: u64) -> SimResult {
        SimResult {
            scheduler: "test",
            workload: "w".into(),
            makespan_ns,
            finished: true,
            operations,
            events_processed: 0,
            idle: IdleAccounting::new(1),
            latency: LatencyRecorder::new(),
            balance: FoldedStats::default(),
        }
    }

    #[test]
    fn throughput_is_ops_per_second() {
        let r = result(2_000_000_000, 100);
        assert!((r.throughput_ops_per_sec() - 50.0).abs() < 1e-9);
        assert_eq!(result(0, 10).throughput_ops_per_sec(), 0.0);
    }

    #[test]
    fn slowdown_and_relative_throughput() {
        let fast = result(1_000_000_000, 100);
        let slow = result(3_000_000_000, 100);
        assert!((slow.slowdown_vs(&fast) - 3.0).abs() < 1e-9);
        assert!((slow.relative_throughput(&fast) - (1.0 / 3.0)).abs() < 1e-9);
        assert_eq!(slow.makespan_ms(), 3000.0);
    }
}
