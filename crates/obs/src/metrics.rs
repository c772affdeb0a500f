//! Live metrics: lock-free atomic counters and gauges, a
//! shared-atomic-bucket streaming histogram, and a named
//! [`MetricRegistry`].
//!
//! [`StreamingHistogram`](crate::StreamingHistogram) is single-writer —
//! ideal for offline reports, useless for a metric another thread wants
//! to scrape mid-run. The types here are the live counterparts: every
//! mutation is a relaxed atomic RMW on state owned by one registry, so a
//! reactor shard (or a device handler) records on its hot path with no
//! locks and no cross-shard cache traffic, while a scraper thread reads
//! concurrently and at worst observes a value a few instructions stale.
//!
//! The intended topology is **one registry per reactor shard and one per
//! device**: writers never share a cache line with another writer, and
//! cross-shard aggregation happens only at scrape time by merging
//! [`AtomicHistogram::snapshot`]s (see
//! [`StreamingHistogram::merge`](crate::StreamingHistogram::merge)).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{Geometry, StreamingHistogram};
use crate::prom::valid_metric_name;

/// A monotonically increasing `u64` counter (relaxed atomics).
///
/// Mutators never observe each other's intermediate state; readers get a
/// value that was current at some recent instant.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrite with an absolute value. Intended for single-writer
    /// publication of an externally accumulated monotonic total (e.g. a
    /// process-wide cache's hit count); the writer is responsible for
    /// monotonicity.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// A last-value-wins `f64` gauge (stored as bits in an `AtomicU64`).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge reading `0.0`.
    pub const fn new() -> Self {
        // 0u64 is the bit pattern of +0.0.
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite the reading.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the reading to `v` if larger (CAS loop; peak tracking).
    pub fn fetch_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    /// Current reading.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// The shared-atomic-bucket variant of
/// [`StreamingHistogram`](crate::StreamingHistogram): identical geometric
/// bucket layout, but every bucket is an `AtomicU64`, so threads record
/// concurrently without locks and a scraper snapshots mid-run.
///
/// Unlike the single-writer histogram the bucket array is allocated up
/// front (`octaves × sub` buckets — resizing is not lock-free); values
/// beyond the top bucket clamp into it, values at or below `min_value`
/// land in the underflow bucket, NaN is rejected. [`snapshot`] yields a
/// [`StreamingHistogram`] with the same configuration, so snapshots from
/// different shards merge with
/// [`merge`](crate::StreamingHistogram::merge).
///
/// Concurrent reads are lock-free and may observe a count that includes a
/// sample whose `sum` contribution has not landed yet (or vice versa);
/// each individual field is always a value that existed at some recent
/// instant, and per-bucket counts are monotone.
///
/// [`snapshot`]: AtomicHistogram::snapshot
#[derive(Debug)]
pub struct AtomicHistogram {
    geo: Geometry,
    counts: Box<[AtomicU64]>,
    underflow: AtomicU64,
    rejected: AtomicU64,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

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
        let geo = Geometry::new(min_value, sub);
        assert!(
            (1..=256).contains(&octaves),
            "octaves must be in 1..=256 (256 covers any finite f64 ratio)"
        );
        let n = (octaves * sub) as usize;
        AtomicHistogram {
            geo,
            counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            underflow: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// The configuration used for request latencies in seconds: 1 µs
    /// floor, 8 sub-buckets per octave (≤ 9 % relative quantile error),
    /// 40 octaves (covers up to ~12 days).
    pub fn for_latency_seconds() -> Self {
        AtomicHistogram::new(1e-6, 8, 40)
    }

    /// Lower bound of bucket 0 (as in [`StreamingHistogram`]).
    pub fn min_value(&self) -> f64 {
        self.geo.min_value
    }

    /// Sub-buckets per octave (as in [`StreamingHistogram`]).
    pub fn sub(&self) -> u32 {
        self.geo.sub
    }

    /// Record one value (relaxed atomics; callable from `&self`).
    pub fn record(&self, value: f64) {
        if value.is_nan() {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        // f64 accumulation via CAS (uncontended in the one-registry-per-
        // shard topology, so the loop almost always succeeds first try).
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
        let mut cur = self.min_bits.load(Ordering::Relaxed);
        while value < f64::from_bits(cur) {
            match self.min_bits.compare_exchange_weak(
                cur,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
        let mut cur = self.max_bits.load(Ordering::Relaxed);
        while value > f64::from_bits(cur) {
            match self.max_bits.compare_exchange_weak(
                cur,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
        if value <= self.geo.min_value {
            self.underflow.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.counts[self.geo.index(value, self.counts.len())].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded values (excluding rejected NaN samples).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy as a mergeable [`StreamingHistogram`] with
    /// the same bucket configuration.
    pub fn snapshot(&self) -> StreamingHistogram {
        let mut counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        while counts.last() == Some(&0) {
            counts.pop();
        }
        StreamingHistogram::from_parts(
            self.geo.min_value,
            self.geo.sub,
            counts,
            self.underflow.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.count.load(Ordering::Relaxed),
            f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
            f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
        )
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

#[derive(Debug)]
enum Slot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<AtomicHistogram>),
}

/// A named collection of live metrics.
///
/// Registration takes a lock (a `Mutex` around a name map) and returns an
/// `Arc` handle; the hot path touches only the handle, never the
/// registry. Register once at setup, record through the handle forever —
/// the intended instantiation is one registry per reactor shard plus one
/// per device, with scrape-time export via [`MetricRegistry::export`].
#[derive(Debug, Default)]
pub struct MetricRegistry {
    slots: Mutex<BTreeMap<String, (String, Slot)>>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    /// Register (or fetch) a counter.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name or if `name` is already
    /// registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let mut slots = self.slots.lock().expect("registry poisoned");
        let (_, slot) = slots
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Slot::Counter(Arc::new(Counter::new()))));
        match slot {
            Slot::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with another kind"),
        }
    }

    /// Register (or fetch) a gauge.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name or if `name` is already
    /// registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let mut slots = self.slots.lock().expect("registry poisoned");
        let (_, slot) = slots
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Slot::Gauge(Arc::new(Gauge::new()))));
        match slot {
            Slot::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered with another kind"),
        }
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
    ) -> Arc<AtomicHistogram> {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let mut slots = self.slots.lock().expect("registry poisoned");
        let (_, slot) = slots.entry(name.to_string()).or_insert_with(|| {
            (
                help.to_string(),
                Slot::Histogram(Arc::new(AtomicHistogram::new(min_value, sub, octaves))),
            )
        });
        match slot {
            Slot::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with another kind"),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("registry poisoned").len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time readings of every registered metric, sorted by name.
    pub fn export(&self) -> Vec<MetricExport> {
        let slots = self.slots.lock().expect("registry poisoned");
        slots
            .iter()
            .map(|(name, (help, slot))| MetricExport {
                name: name.clone(),
                help: help.clone(),
                value: match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.get()),
                    Slot::Gauge(g) => MetricValue::Gauge(g.get()),
                    Slot::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.fetch_max(1.0);
        assert_eq!(g.get(), 2.5);
        g.fetch_max(7.0);
        assert_eq!(g.get(), 7.0);
    }

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
        c.add(3);
        g.set(1.5);
        h.record(1e-3);
        // Re-registration returns the same underlying metric.
        r.counter("b_total", "ignored").add(1);
        assert_eq!(c.get(), 4);
        assert_eq!(r.len(), 3);
        let exports = r.export();
        let names: Vec<&str> = exports.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a_gauge", "b_total", "c_seconds"]);
        match &exports[1].value {
            MetricValue::Counter(v) => assert_eq!(*v, 4),
            other => panic!("expected counter, got {other:?}"),
        }
        match &exports[2].value {
            MetricValue::Histogram(s) => assert_eq!(s.count(), 1),
            other => panic!("expected histogram, got {other:?}"),
        }
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
}
