//! Percentiles, medians and the run-to-run spread the acceptance check uses.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it.  Exact — no buckets, no
/// interpolation — so a latency never snaps to a histogram edge.
///
/// # Panics
///
/// Panics on an empty slice (a trial without samples is a harness bug).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and returns their `q` percentile.
pub fn percentile_of(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    percentile(samples, q)
}

/// Median of floats (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q` percentile of every non-empty trial, then the median of those:
/// one stalled trial (a hypervisor pause, a page-cache flush) moves a
/// whole-run percentile but not the median of per-trial ones.
pub fn median_of_trials(trials: &mut [Vec<u64>], q: f64) -> f64 {
    let per_trial: Vec<f64> =
        trials.iter_mut().filter(|t| !t.is_empty()).map(|t| percentile_of(t, q) as f64).collect();
    median(&per_trial)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them, so `repeat` reports the
/// spread the acceptance driver will see.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.95), 7);
        // 10 samples: p95 is the 10th (ceil(9.5)), p50 the 5th.
        let ten: Vec<u64> = (10..20).collect();
        assert_eq!(percentile(&ten, 0.95), 19);
        assert_eq!(percentile(&ten, 0.50), 14);
    }

    #[test]
    fn percentile_of_sorts_first() {
        let mut v = vec![9, 1, 5, 3, 7];
        assert_eq!(percentile_of(&mut v, 0.5), 5);
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn median_of_trials_absorbs_one_stalled_trial() {
        let calm: Vec<u64> = (1..=100).collect();
        let stalled: Vec<u64> = (1..=100).map(|x| x * 50).collect();
        let mut trials = vec![calm.clone(), calm.clone(), stalled, calm.clone(), calm];
        assert_eq!(median_of_trials(&mut trials, 0.95), 95.0);
        // Empty trials are skipped, not counted as zero.
        let mut sparse = vec![vec![], vec![10, 20, 30], vec![]];
        assert_eq!(median_of_trials(&mut sparse, 0.5), 20.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(quartile_spread(&v), 1.0);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
    }
}
