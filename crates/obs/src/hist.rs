//! Log-bucketed streaming histograms (HDR-histogram style).
//!
//! [`crate::LatencyStats`-like] sorted-sample statistics keep every sample
//! in memory and can only be computed at the end of a run. The streaming
//! histogram complements them: O(1) per sample, fixed memory, mergeable,
//! and quantiles with a bounded *relative* error set by the sub-bucket
//! resolution — the standard trade for long-running servers where the
//! sample vector would grow without bound.
//!
//! Buckets are geometric: bucket `i` covers
//! `[min · 2^(i/sub), min · 2^((i+1)/sub))`, i.e. `sub` sub-buckets per
//! octave (power of two). With the default `sub = 8` the relative error
//! of any reported quantile is at most `2^(1/8) − 1 ≈ 9 %`.

/// The bucket geometry both histogram types share: `sub` buckets per
/// octave above `min_value`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Geometry {
    /// Lower bound of bucket 0; values at or below it underflow.
    pub(crate) min_value: f64,
    /// Sub-buckets per octave.
    pub(crate) sub: u32,
}

impl Geometry {
    /// # Panics
    ///
    /// Panics unless `min_value` is positive and finite and `sub ≥ 1`.
    pub(crate) fn new(min_value: f64, sub: u32) -> Self {
        assert!(
            min_value > 0.0 && min_value.is_finite(),
            "min_value must be positive and finite"
        );
        assert!(sub >= 1, "need at least one sub-bucket per octave");
        Geometry { min_value, sub }
    }

    /// The bucket of `value` (above `min_value`) among `buckets`; values
    /// past the top bucket clamp into it.
    #[inline]
    pub(crate) fn index(self, value: f64, buckets: usize) -> usize {
        // log2(value / min) in units of 1/sub of an octave.
        let i = ((value / self.min_value).log2() * self.sub as f64).floor();
        if i >= buckets as f64 {
            buckets - 1
        } else {
            i as usize
        }
    }

    /// Upper edge of bucket `i` — the value reported for samples in it.
    pub(crate) fn upper(self, i: usize) -> f64 {
        self.min_value * 2f64.powf((i + 1) as f64 / self.sub as f64)
    }
}

/// A streaming histogram over positive values with geometric buckets.
///
/// Values ≤ the minimum trackable value land in an underflow bucket and
/// are reported as `min_value`; NaN values are counted in
/// [`StreamingHistogram::rejected`] and otherwise ignored (they carry no
/// ordering information). Negative values are treated as underflow.
///
/// # Example
///
/// ```
/// use rhythm_obs::StreamingHistogram;
///
/// let mut h = StreamingHistogram::for_positive_values();
/// for i in 1..=1000u32 {
///     h.record(i as f64 * 1e-6); // 1 µs .. 1 ms
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.quantile(0.50);
/// assert!((p50 / 500e-6 - 1.0).abs() < 0.15, "p50 ~ 500 µs: {p50}");
/// assert!(h.quantile(0.99) <= h.max());
/// ```
#[derive(Clone, Debug)]
pub struct StreamingHistogram {
    geo: Geometry,
    /// Bucket counts (grown lazily as larger values arrive).
    counts: Vec<u64>,
    /// Values ≤ `min_value` (including zero and negatives).
    underflow: u64,
    /// NaN samples dropped.
    rejected: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl StreamingHistogram {
    /// A histogram with explicit resolution: `min_value` is the smallest
    /// distinguishable value, `sub` the number of buckets per octave.
    ///
    /// # Panics
    ///
    /// Panics unless `min_value` is positive and finite and `sub ≥ 1`.
    pub fn new(min_value: f64, sub: u32) -> Self {
        StreamingHistogram {
            geo: Geometry::new(min_value, sub),
            counts: Vec::new(),
            underflow: 0,
            rejected: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The default configuration for positive measurements (latencies in
    /// seconds, cycle counts, byte counts): 1 ns floor, 8 sub-buckets per
    /// octave (≤ 9 % relative quantile error), ~10 decades of range.
    pub fn for_positive_values() -> Self {
        StreamingHistogram::new(1e-9, 8)
    }

    /// Hard cap on bucket count: 256 octaves cover any finite f64 ratio,
    /// so the cap only clamps `+inf` (which would otherwise index out of
    /// any vector we could allocate).
    fn max_buckets(&self) -> usize {
        256 * self.geo.sub as usize
    }

    /// Record one value.
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            self.rejected += 1;
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value <= self.geo.min_value {
            self.underflow += 1;
            return;
        }
        let i = self.geo.index(value, self.max_buckets());
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
    }

    /// Total recorded values (excluding rejected NaN samples).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// NaN samples dropped.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The value at quantile `q ∈ [0, 1]`, with relative error bounded by
    /// the bucket resolution (`2^(1/sub) − 1`). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if target <= seen {
            return self.geo.min_value.min(self.max).max(self.min);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if target <= seen {
                // Clamp to the observed extremes so tiny samples don't
                // report a bucket edge outside [min, max].
                return self.geo.upper(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Reassemble a histogram from raw parts — the bridge from
    /// [`crate::AtomicHistogram::snapshot`], which reads its atomic
    /// buckets and rebuilds the equivalent single-writer histogram so
    /// snapshots from different shards can [`StreamingHistogram::merge`].
    ///
    /// `min`/`max` follow the internal empty-state convention
    /// (`+inf`/`-inf` when `count == 0`).
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see [`StreamingHistogram::new`])
    /// or if `counts` exceeds the maximum bucket count.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        min_value: f64,
        sub: u32,
        counts: Vec<u64>,
        underflow: u64,
        rejected: u64,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    ) -> Self {
        let mut h = StreamingHistogram::new(min_value, sub);
        assert!(
            counts.len() <= h.max_buckets(),
            "counts exceed the bucket cap"
        );
        h.counts = counts;
        h.underflow = underflow;
        h.rejected = rejected;
        h.count = count;
        h.sum = sum;
        h.min = min;
        h.max = max;
        h
    }

    /// Sum of the recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Fold another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms use different bucket configurations.
    pub fn merge(&mut self, other: &StreamingHistogram) {
        assert_eq!(self.geo, other.geo, "mismatched histograms");
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.underflow += other.underflow;
        self.rejected += other.rejected;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The window between two cumulative snapshots: subtract `older`
    /// (an earlier snapshot of the same growing histogram) from `self`
    /// bucket by bucket. Counts, sum, underflow, and rejected subtract
    /// exactly (saturating, so a mismatched pair cannot underflow);
    /// `min`/`max` keep the newer snapshot's bounds — quantiles clamp to
    /// them, which only widens the reported range, never the buckets.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms use different bucket configurations.
    #[must_use]
    pub fn diff(&self, older: &StreamingHistogram) -> Self {
        assert_eq!(self.geo, older.geo, "mismatched histograms");
        let mut out = self.clone();
        for (i, &c) in older.counts.iter().enumerate() {
            if i < out.counts.len() {
                out.counts[i] = out.counts[i].saturating_sub(c);
            }
        }
        out.underflow = out.underflow.saturating_sub(older.underflow);
        out.rejected = out.rejected.saturating_sub(older.rejected);
        out.count = out.count.saturating_sub(older.count);
        out.sum = (out.sum - older.sum).max(0.0);
        out
    }

    /// Non-empty buckets as `(lower_edge, upper_edge, count)`, lowest
    /// first; the underflow bucket appears as `(0, min_value, n)`.
    pub fn nonzero_buckets(&self) -> Vec<(f64, f64, u64)> {
        let mut out = Vec::new();
        if self.underflow > 0 {
            out.push((0.0, self.geo.min_value, self.underflow));
        }
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                let lo = if i == 0 {
                    self.geo.min_value
                } else {
                    self.geo.upper(i - 1)
                };
                out.push((lo, self.geo.upper(i), c));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zeroes() {
        let h = StreamingHistogram::for_positive_values();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn quantile_relative_error_bounded() {
        let mut h = StreamingHistogram::new(1e-9, 8);
        let bound = 2f64.powf(1.0 / 8.0) - 1.0;
        for i in 1..=10_000u32 {
            h.record(i as f64 * 1e-6);
        }
        for (q, exact) in [(0.5, 5000e-6), (0.95, 9500e-6), (0.99, 9900e-6)] {
            let got = h.quantile(q);
            let rel = (got - exact).abs() / exact;
            assert!(rel <= bound + 1e-9, "q{q}: got {got}, exact {exact}");
        }
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn nan_rejected_negative_underflows() {
        let mut h = StreamingHistogram::for_positive_values();
        h.record(f64::NAN);
        h.record(-1.0);
        h.record(0.0);
        h.record(1e-3);
        assert_eq!(h.rejected(), 1);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -1.0);
        // Underflow bucket present.
        assert_eq!(h.nonzero_buckets()[0].2, 2);
    }

    #[test]
    fn single_sample_quantiles_are_that_sample_bucket() {
        let mut h = StreamingHistogram::for_positive_values();
        h.record(42e-3);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!((v / 42e-3 - 1.0).abs() < 0.1, "q{q} = {v}");
        }
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = StreamingHistogram::new(1e-9, 8);
        let mut b = StreamingHistogram::new(1e-9, 8);
        let mut all = StreamingHistogram::new(1e-9, 8);
        for i in 1..=100u32 {
            let v = i as f64 * 1e-5;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.quantile(0.5), all.quantile(0.5));
        assert_eq!(a.max(), all.max());
    }

    #[test]
    #[should_panic(expected = "mismatched histograms")]
    fn merge_rejects_mismatched_config() {
        let mut a = StreamingHistogram::new(1e-9, 8);
        let b = StreamingHistogram::new(1e-9, 16);
        a.merge(&b);
    }

    #[test]
    fn diff_isolates_the_window_between_snapshots() {
        let mut older = StreamingHistogram::new(1e-6, 8);
        for _ in 0..100 {
            older.record(1e-3);
        }
        let mut newer = older.clone();
        for _ in 0..10 {
            newer.record(50e-3);
        }
        let w = newer.diff(&older);
        assert_eq!(w.count(), 10);
        assert!((w.sum() - 0.5).abs() < 1e-9, "sum {}", w.sum());
        assert!(w.quantile(0.5) > 10e-3, "window sees only the slow tail");
        // Diffing a snapshot against itself is empty.
        let empty = newer.diff(&newer);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.nonzero_buckets(), vec![]);
    }

    #[test]
    #[should_panic(expected = "mismatched histograms")]
    fn diff_rejects_mismatched_config() {
        let a = StreamingHistogram::new(1e-9, 8);
        let b = StreamingHistogram::new(1e-9, 16);
        let _ = a.diff(&b);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_min_value_rejected() {
        let _ = StreamingHistogram::new(0.0, 8);
    }
}
