//! Scheduling-latency recording.
//!
//! The paper lists reactivity — "a bound on the delay to schedule ready
//! threads" (§1) — among the performance properties operating systems are
//! never proven to have.  The recorder measures exactly that delay in the
//! simulator: the time between a thread becoming runnable and it first
//! running.

use crate::histogram::Histogram;

/// Records per-event scheduling latencies into a histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyRecorder {
    histogram: Histogram,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample: `ready_at` is when the thread became
    /// runnable, `scheduled_at` when it started running.
    ///
    /// # Panics
    ///
    /// Panics if `scheduled_at < ready_at`, which would be a simulator bug.
    pub fn record(&mut self, ready_at: u64, scheduled_at: u64) {
        assert!(scheduled_at >= ready_at, "a thread cannot run before it is ready");
        self.histogram.record(scheduled_at - ready_at);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.histogram.count()
    }

    /// Mean latency.
    pub fn mean(&self) -> f64 {
        self.histogram.mean()
    }

    /// Maximum latency observed.
    pub fn max(&self) -> u64 {
        self.histogram.max()
    }

    /// Approximate latency at quantile `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        self.histogram.quantile(q)
    }

    /// The underlying histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// Merges another recorder into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.histogram.merge(&other.histogram);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_differences() {
        let mut r = LatencyRecorder::new();
        r.record(100, 150);
        r.record(200, 200);
        assert_eq!(r.count(), 2);
        assert_eq!(r.max(), 50);
        assert_eq!(r.mean(), 25.0);
    }

    #[test]
    #[should_panic(expected = "cannot run before it is ready")]
    fn negative_latency_is_a_bug() {
        let mut r = LatencyRecorder::new();
        r.record(100, 50);
    }

    #[test]
    fn merge_combines_recorders() {
        let mut a = LatencyRecorder::new();
        a.record(0, 10);
        let mut b = LatencyRecorder::new();
        b.record(0, 1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1000);
        assert!(a.quantile(0.99) >= 1000);
    }
}
