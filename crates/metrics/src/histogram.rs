//! Power-of-two bucketed histograms.

/// A histogram with power-of-two buckets, suitable for latency-like values
/// spanning many orders of magnitude.
///
/// Bucket `i` counts samples `v` with `2^(i-1) < v <= 2^i` (bucket 0 counts
/// zeros and ones).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: Option<u64>,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = Self::bucket_of(value);
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = self.max.max(value);
    }

    /// Index of the bucket `value` falls into.
    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()).saturating_sub(1) as usize
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples, or 0 if none.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate value at quantile `q` in `[0, 1]`, using bucket upper
    /// bounds; returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Upper bound of the bucket, clamped to the observed max.
                return (1u64 << (i + 1)).min(self.max.max(1));
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_power_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(1024), 10);
    }

    #[test]
    fn basic_statistics() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 4, 8, 16] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), 16);
        assert!((h.mean() - 6.2).abs() < 1e-9);
        assert!(h.quantile(1.0) >= 16);
        assert!(h.quantile(0.0) >= 1);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = Histogram::new();
        a.record(5);
        a.record(100);
        let mut b = Histogram::new();
        b.record(1);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), 1000);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let mut prev = 0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
    }
}
