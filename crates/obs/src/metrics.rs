//! Live metrics: a locked histogram and a named [`MetricRegistry`] —
//! the device side of the live plane.
//!
//! [`StreamingHistogram`](crate::StreamingHistogram) takes `&mut self`;
//! [`AtomicHistogram`] puts one behind a mutex so its owner records
//! through a shared handle while a scraper thread clones it mid-run.
//! A [`MetricRegistry`] is the same design for a set of named metrics:
//! plain [`MetricValue`]s under one mutex, changed together by
//! [`MetricRegistry::update`] and copied together by
//! [`MetricRegistry::export`], so a scrape never sees half an update.
//!
//! The intended topology is **one registry per device**: each is written
//! by its own shard's thread, and cross-shard aggregation happens only at
//! scrape time by merging histogram snapshots (see
//! [`StreamingHistogram::merge`](crate::StreamingHistogram::merge)).

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::hist::StreamingHistogram;
use crate::prom::valid_metric_name;

/// A [`StreamingHistogram`] behind a mutex, so its owner records through
/// `&self` and a scraper snapshots it mid-run.
///
/// The bucket array is capped at `octaves × sub` buckets
/// ([`StreamingHistogram::with_octaves`]): values beyond the top bucket
/// clamp into it, values at or below `min_value` land in the underflow
/// bucket, NaN is rejected. [`snapshot`] clones the histogram under the
/// lock, so every snapshot is one the owner held between two records
/// (`count` always equals the underflow plus the bucket counts), and
/// snapshots from different shards merge with
/// [`merge`](crate::StreamingHistogram::merge).
///
/// The name predates the lock; it stays because the benchmark harness
/// (`benchmark/`) calls it.
///
/// [`snapshot`]: AtomicHistogram::snapshot
#[derive(Debug)]
pub struct AtomicHistogram(Mutex<StreamingHistogram>);

impl AtomicHistogram {
    /// A histogram with `sub` buckets per octave covering
    /// `[min_value, min_value · 2^octaves)`; larger values clamp into the
    /// top bucket.
    ///
    /// # Panics
    ///
    /// Panics unless `min_value` is positive and finite, `sub ≥ 1`, and
    /// `1 ≤ octaves ≤ 256`.
    pub fn new(min_value: f64, sub: u32, octaves: u32) -> Self {
        AtomicHistogram(Mutex::new(StreamingHistogram::with_octaves(
            min_value, sub, octaves,
        )))
    }

    /// The configuration used for request latencies in seconds: 1 µs
    /// floor, 8 sub-buckets per octave (≤ 9 % relative quantile error),
    /// 40 octaves (covers up to ~12 days).
    pub fn for_latency_seconds() -> Self {
        AtomicHistogram::new(1e-6, 8, 40)
    }

    /// The histogram, locked; a poisoned lock still guards a whole value,
    /// since each record is a few plain stores.
    fn lock(&self) -> MutexGuard<'_, StreamingHistogram> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one value.
    pub fn record(&self, value: f64) {
        self.lock().record(value);
    }

    /// Total recorded values (excluding rejected NaN samples).
    pub fn count(&self) -> u64 {
        self.lock().count()
    }

    /// A point-in-time copy, mergeable with other snapshots of the same
    /// bucket configuration.
    pub fn snapshot(&self) -> StreamingHistogram {
        self.lock().clone()
    }
}

/// What a registered metric is, for `# TYPE` exposition lines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Last-value-wins reading.
    Gauge,
    /// Bucketed value distribution.
    Histogram,
}

impl MetricKind {
    /// The exposition-format type keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A point-in-time reading of one registered metric.
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram snapshot.
    Histogram(StreamingHistogram),
}

impl MetricValue {
    /// The kind this value belongs to.
    pub fn kind(&self) -> MetricKind {
        match self {
            MetricValue::Counter(_) => MetricKind::Counter,
            MetricValue::Gauge(_) => MetricKind::Gauge,
            MetricValue::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// One exported metric: name, help text, and a point-in-time value.
#[derive(Clone, Debug)]
pub struct MetricExport {
    /// Metric name (validated at registration).
    pub name: String,
    /// `# HELP` text.
    pub help: String,
    /// The reading at export time.
    pub value: MetricValue,
}

/// The handle of one metric in its [`MetricRegistry`], returned by
/// registration and used to reach the metric inside
/// [`MetricRegistry::update`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MetricId(usize);

/// A registry's metrics, borrowed under its lock by
/// [`MetricRegistry::update`].
///
/// A [`MetricId`] indexes the registry that returned it. Each accessor
/// panics when `id` names a metric of another kind.
#[derive(Debug)]
pub struct MetricValues<'a>(&'a mut [MetricExport]);

impl MetricValues<'_> {
    /// The counter `id`.
    pub fn counter(&mut self, id: MetricId) -> &mut u64 {
        match &mut self.0[id.0].value {
            MetricValue::Counter(c) => c,
            other => panic!("metric {id:?} is a {}", other.kind().as_str()),
        }
    }

    /// The gauge `id`.
    pub fn gauge(&mut self, id: MetricId) -> &mut f64 {
        match &mut self.0[id.0].value {
            MetricValue::Gauge(g) => g,
            other => panic!("metric {id:?} is a {}", other.kind().as_str()),
        }
    }

    /// The histogram `id`.
    pub fn histogram(&mut self, id: MetricId) -> &mut StreamingHistogram {
        match &mut self.0[id.0].value {
            MetricValue::Histogram(h) => h,
            other => panic!("metric {id:?} is a {}", other.kind().as_str()),
        }
    }
}

/// A named collection of live metrics: plain values under one mutex.
///
/// Register once at setup and keep the returned [`MetricId`]s; the owner
/// then applies each batch of changes under one lock with
/// [`MetricRegistry::update`], and [`MetricRegistry::export`] copies every
/// value under the same lock, so a scrape sees each update whole or not
/// at all. The intended instantiation is one registry per device.
#[derive(Debug, Default)]
pub struct MetricRegistry(Mutex<Vec<MetricExport>>);

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    /// The metrics, locked; a poisoned lock still guards whole values,
    /// since every update is plain stores.
    fn lock(&self) -> MutexGuard<'_, Vec<MetricExport>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register `name` holding `value`, or fetch it if already registered
    /// with the same kind.
    fn register(&self, name: &str, help: &str, value: MetricValue) -> MetricId {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let mut metrics = self.lock();
        if let Some(i) = metrics.iter().position(|m| m.name == name) {
            assert!(
                metrics[i].value.kind() == value.kind(),
                "metric {name:?} already registered with another kind"
            );
            return MetricId(i);
        }
        metrics.push(MetricExport {
            name: name.to_string(),
            help: help.to_string(),
            value,
        });
        MetricId(metrics.len() - 1)
    }

    /// Register (or fetch) a counter.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name or if `name` is already
    /// registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> MetricId {
        self.register(name, help, MetricValue::Counter(0))
    }

    /// Register (or fetch) a gauge.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name or if `name` is already
    /// registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> MetricId {
        self.register(name, help, MetricValue::Gauge(0.0))
    }

    /// Register (or fetch) a histogram with the given bucket geometry
    /// (see [`AtomicHistogram::new`]).
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name, if `name` is already registered
    /// as a different kind, or on an invalid bucket configuration.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        min_value: f64,
        sub: u32,
        octaves: u32,
    ) -> MetricId {
        let hist = StreamingHistogram::with_octaves(min_value, sub, octaves);
        self.register(name, help, MetricValue::Histogram(hist))
    }

    /// Apply `f` to the metrics under one lock: a scrape sees all of its
    /// changes or none.
    pub fn update<T>(&self, f: impl FnOnce(&mut MetricValues<'_>) -> T) -> T {
        f(&mut MetricValues(&mut self.lock()))
    }

    /// Every registered metric's value, copied under one lock, sorted by
    /// name.
    pub fn export(&self) -> Vec<MetricExport> {
        let mut metrics = self.lock().clone();
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_histogram_matches_streaming_on_same_samples() {
        let a = AtomicHistogram::new(1e-9, 8, 64);
        let mut s = StreamingHistogram::new(1e-9, 8);
        for i in 1..=5000u32 {
            let v = i as f64 * 1e-6;
            a.record(v);
            s.record(v);
        }
        let snap = a.snapshot();
        assert_eq!(snap.count(), s.count());
        assert_eq!(snap.min(), s.min());
        assert_eq!(snap.max(), s.max());
        assert_eq!(snap.nonzero_buckets(), s.nonzero_buckets());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), s.quantile(q), "q{q}");
        }
    }

    #[test]
    fn atomic_histogram_concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(AtomicHistogram::for_latency_seconds());
        let threads = 4;
        let per = 10_000u64;
        std::thread::scope(|sc| {
            for t in 0..threads {
                let h = std::sync::Arc::clone(&h);
                sc.spawn(move || {
                    for i in 0..per {
                        h.record(((t * per + i) % 997 + 1) as f64 * 1e-5);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), threads * per);
        let bucket_total: u64 = snap.nonzero_buckets().iter().map(|&(_, _, c)| c).sum();
        assert_eq!(bucket_total, threads * per);
    }

    #[test]
    fn atomic_histogram_clamps_overflow_and_rejects_nan() {
        let h = AtomicHistogram::new(1.0, 1, 2); // buckets: [1,2) [2,4)
        h.record(1e12); // clamps into the top bucket
        h.record(f64::NAN);
        h.record(0.5); // underflow
        let snap = h.snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.rejected(), 1);
        assert_eq!(snap.max(), 1e12);
        let buckets = snap.nonzero_buckets();
        assert_eq!(buckets[0], (0.0, 1.0, 1), "underflow bucket");
        assert_eq!(buckets[1].2, 1, "clamped sample in top bucket");
    }

    #[test]
    fn registry_registers_and_exports_sorted() {
        let r = MetricRegistry::new();
        let c = r.counter("b_total", "a counter");
        let g = r.gauge("a_gauge", "a gauge");
        let h = r.histogram("c_seconds", "a histogram", 1e-6, 8, 40);
        r.update(|m| {
            *m.counter(c) += 3;
            *m.gauge(g) = 1.5;
            m.histogram(h).record(1e-3);
        });
        // Re-registration returns the same underlying metric.
        assert_eq!(r.counter("b_total", "ignored"), c);
        assert_eq!(r.update(|m| *m.counter(c) + 1), 4);
        let exports = r.export();
        let names: Vec<&str> = exports.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a_gauge", "b_total", "c_seconds"]);
        match &exports[0].value {
            MetricValue::Gauge(v) => assert_eq!(*v, 1.5),
            other => panic!("expected gauge, got {other:?}"),
        }
        match &exports[1].value {
            MetricValue::Counter(v) => assert_eq!(*v, 3),
            other => panic!("expected counter, got {other:?}"),
        }
        match &exports[2].value {
            MetricValue::Histogram(s) => assert_eq!(s.count(), 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "is a gauge")]
    fn registry_handle_of_another_kind_panics() {
        let r = MetricRegistry::new();
        let g = r.gauge("x", "gauge");
        r.update(|m| *m.counter(g) += 1);
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn registry_rejects_kind_clash() {
        let r = MetricRegistry::new();
        let _ = r.counter("x_total", "counter");
        let _ = r.gauge("x_total", "gauge");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn registry_rejects_invalid_name() {
        let r = MetricRegistry::new();
        let _ = r.counter("0bad-name", "nope");
    }

    #[test]
    fn atomic_histogram_snapshots_are_whole_under_a_concurrent_writer() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let h = Arc::new(AtomicHistogram::for_latency_seconds());
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (h, stop) = (Arc::clone(&h), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Every fifth sample underflows.
                    h.record((i % 5) as f64 * 1e-3);
                    i += 1;
                }
                i
            })
        };
        let (mut reads, mut seen) = (0u64, 0u64);
        // Keep reading until the writer has been seen at work: the reader
        // can finish 100 000 reads before the writer is scheduled.
        while reads < 100_000 || seen == 0 {
            reads += 1;
            let snap = h.snapshot();
            let in_buckets: u64 = snap.nonzero_buckets().iter().map(|&(_, _, c)| c).sum();
            assert_eq!(
                snap.count(),
                in_buckets,
                "torn snapshot after {reads} reads: count {} vs buckets {in_buckets}",
                snap.count()
            );
            seen = snap.count();
        }
        stop.store(true, Ordering::Relaxed);
        assert!(writer.join().unwrap() >= seen && seen > 0);
    }
}
