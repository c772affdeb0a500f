//! Pipeline run metrics: throughput, latency distribution, occupancy.

use serde::{Deserialize, Serialize};

/// Summary statistics over a latency sample.
#[derive(Clone, Default, PartialEq, Debug, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Sample count.
    pub count: u64,
    /// Mean latency (seconds).
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl LatencyStats {
    /// Compute from raw samples (empty samples give zeroes).
    ///
    /// NaN samples carry no ordering information and are filtered out up
    /// front — the statistics describe the remaining samples.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|s| !s.is_nan());
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let count = samples.len() as u64;
        let mean = samples.iter().sum::<f64>() / count as f64;
        let pct = |p: f64| -> f64 {
            let idx = ((p / 100.0) * (count as f64 - 1.0)).round() as usize;
            samples[idx.min(samples.len() - 1)]
        };
        LatencyStats {
            count,
            mean,
            p50: pct(50.0),
            p95: pct(95.0),
            p99: pct(99.0),
            max: *samples.last().expect("nonempty"),
        }
    }
}

/// Result of one pipeline simulation run.
#[derive(Clone, Default, PartialEq, Debug, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Requests completed (responses sent).
    pub completed: u64,
    /// Virtual time of the last completion.
    pub makespan_s: f64,
    /// End-to-end request latency statistics.
    pub latency: LatencyStats,
    /// Cohorts launched.
    pub cohorts_launched: u64,
    /// Cohorts launched due to formation timeout (not full).
    pub timeout_launches: u64,
    /// Mean cohort fill at launch (1.0 = always full).
    pub mean_fill: f64,
    /// Dispatch stalls: requests that waited because no Free cohort
    /// context was available (structural hazard).
    pub dispatch_stalls: u64,
    /// Device kernels launched (parse + process stages).
    pub kernels_launched: u64,
    /// Peak number of kernels queued waiting for a device slot.
    pub device_queue_peak: u64,
    /// Peak reader buffer depth.
    pub reader_peak: u64,
}

impl PipelineReport {
    /// Completed requests per virtual second.
    pub fn throughput(&self) -> f64 {
        if self.makespan_s == 0.0 {
            0.0
        } else {
            self.completed as f64 / self.makespan_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_are_zero() {
        let s = LatencyStats::from_samples(vec![]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn percentiles_ordered() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let s = LatencyStats::from_samples(samples);
        assert_eq!(s.count, 1000);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert!((s.mean - 500.5).abs() < 1e-9);
        assert_eq!(s.max, 1000.0);
        assert!((s.p50 - 500.0).abs() <= 1.0);
    }

    /// NaN samples are dropped before sorting instead of panicking from
    /// inside the sort comparator; the statistics cover what remains.
    #[test]
    fn nan_samples_filtered_not_panicking() {
        let s = LatencyStats::from_samples(vec![3.0, f64::NAN, 1.0, f64::NAN, 2.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!(!s.p50.is_nan() && !s.p95.is_nan() && !s.p99.is_nan());

        // All-NaN degenerates to the empty result, not a panic.
        let s = LatencyStats::from_samples(vec![f64::NAN, f64::NAN]);
        assert_eq!(s, LatencyStats::default());
    }

    #[test]
    fn single_sample_statistics() {
        let s = LatencyStats::from_samples(vec![7.5]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.5);
        assert_eq!(s.p50, 7.5);
        assert_eq!(s.p95, 7.5);
        assert_eq!(s.p99, 7.5);
        assert_eq!(s.max, 7.5);
    }

    #[test]
    fn throughput_guarding_zero_time() {
        let r = PipelineReport::default();
        assert_eq!(r.throughput(), 0.0);
        let r = PipelineReport {
            completed: 100,
            makespan_s: 2.0,
            ..Default::default()
        };
        assert_eq!(r.throughput(), 50.0);
    }
}
