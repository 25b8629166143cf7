//! Results of one simulation run.

use sched_metrics::{Histogram, IdleAccounting};
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
    /// Scheduling latency (runnable → running) distribution, in
    /// nanoseconds.
    pub latency: Histogram,
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

    /// Every measured quantity in which this run differs from `reference`,
    /// the same spec on the other engine.  The tick and event engines are
    /// one machine under two upkeeps and must agree exactly, so an empty
    /// list is the only acceptable answer.  Covers completion, operations,
    /// makespan, the steal tally, the scheduling-latency distribution
    /// (sample count, p50, p99, max) and the per-core busy / benign-idle /
    /// violating-idle times; not `events_processed`, which is what the
    /// event engine saves.
    pub fn parity_mismatches(&self, reference: &SimResult) -> Vec<String> {
        type Quantity = fn(&SimResult) -> String;
        let quantities: [(&str, Quantity); 6] = [
            ("finished", |r| r.finished.to_string()),
            ("operations", |r| r.operations.to_string()),
            ("makespan_ns", |r| r.makespan_ns.to_string()),
            ("balancing", |r| format!("{:?}", r.balance)),
            ("scheduling latency", |r| {
                let [p50, p99, max] = [0.5, 0.99, 1.0].map(|q| r.latency.quantile(q));
                format!("{} samples, p50 {p50} p99 {p99} max {max}", r.latency.count())
            }),
            ("per-core idle accounting", |r| format!("{:?}", r.idle)),
        ];
        quantities
            .iter()
            .map(|(what, of)| (what, of(self), of(reference)))
            .filter(|(_, this, reference)| this != reference)
            .map(|(what, this, reference)| {
                format!("{what}: this run says {this}, the reference engine {reference}")
            })
            .collect()
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
            latency: Histogram::new(),
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
