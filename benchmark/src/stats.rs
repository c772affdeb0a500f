//! Percentile and median arithmetic of the reported numbers.

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q` quantile among `n ≥ 1` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it; a tail read off fewer is one outlier, not a
/// percentile. `None` under 20 samples (not even the median qualifies).
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.5]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// Median of a handful of values (the per-round values of one rung, the
/// set-up times of one run).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Latency summary of one window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tail {
    pub samples: usize,
    pub p50: f64,
    /// The tail value reported as `p99`: the 99th percentile when the
    /// window supports it, else the highest percentile it does support.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_q: f64,
    pub max: f64,
}

/// Summarise one window's latencies (any order; sorted in place).
pub fn summarise(latencies: &mut [f64]) -> Option<Tail> {
    if latencies.is_empty() {
        return None;
    }
    latencies.sort_by(f64::total_cmp);
    let tail_q = highest_supported_tail(latencies.len())
        .unwrap_or(0.5)
        .min(0.99);
    Some(Tail {
        samples: latencies.len(),
        p50: quantile_sorted(latencies, 0.5),
        tail: quantile_sorted(latencies, tail_q),
        tail_q,
        max: latencies[latencies.len() - 1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 500.0);
        assert_eq!(quantile_sorted(&v, 0.99), 990.0);
        assert_eq!(quantile_sorted(&v, 1.0), 1000.0);
        assert_eq!(quantile_sorted(&[3.0], 0.99), 3.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0], 0.5), 1.0);
    }

    /// 1 000 samples are the fewest whose p99 has ten beyond it; 999 fall
    /// back to p95, and the reported tail says which it is.
    #[test]
    fn ten_samples_beyond_rule_picks_the_percentile() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
        assert_eq!(highest_supported_tail(9_999), Some(0.99));
        assert_eq!(highest_supported_tail(1000), Some(0.99));
        assert_eq!(highest_supported_tail(999), Some(0.95));
        assert_eq!(highest_supported_tail(200), Some(0.95));
        assert_eq!(highest_supported_tail(199), Some(0.9));
        assert_eq!(highest_supported_tail(20), Some(0.5));
        assert_eq!(highest_supported_tail(19), None);

        let mut big: Vec<f64> = (1..=20_000).map(f64::from).collect();
        let t = summarise(&mut big).unwrap();
        assert_eq!((t.tail_q, t.tail), (0.99, 19_800.0), "capped at p99");
        let mut small: Vec<f64> = (1..=500).rev().map(f64::from).collect();
        let t = summarise(&mut small).unwrap();
        assert_eq!(
            (t.tail_q, t.tail, t.p50, t.max),
            (0.95, 475.0, 250.0, 500.0)
        );
        assert!(summarise(&mut []).is_none());
    }

    /// A rung's value is the median of its rounds: one burst in three is
    /// voted out, two rounds average.
    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[5.0, 100.0, 6.0]), 6.0);
        assert_eq!(median(&[4.0, 6.0]), 5.0);
        assert_eq!(median(&[9.0]), 9.0);
        assert_eq!(median(&[1.0, 9.0, 3.0, 5.0]), 4.0);
    }
}
