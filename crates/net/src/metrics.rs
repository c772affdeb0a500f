//! The live telemetry plane: per-shard metric state and the cross-shard
//! [`Telemetry`] aggregate behind `GET /metrics` and `GET /trace`.
//!
//! Design rule: **every live value is a plain value under the lock of
//! the thread that writes it**. The reactor is the only writer of its
//! [`ShardMetrics`]; the only cross-thread traffic is a scraper taking
//! that shard's locks at `/metrics` or `/trace` time. One lock guards the
//! published [`LiveSnapshot`], the per-cohort-key slots and the
//! cohort-fill histogram, and every record takes it once; the shard's
//! event ring is a bounded [`TraceRecorder`] behind its own lock. Each
//! device's [`MetricRegistry`] is written by the same shard's thread, a
//! cohort's updates under one lock. The reactor publishes its counters
//! once per poll, at a consistent point, by overwriting the snapshot
//! whole, so the accounting invariant
//!
//! ```text
//! requests == responses + shed_503 + unclassified + in_cohort
//! ```
//!
//! holds on *every* [`LiveSnapshot`], not just at quiescence. (In the
//! issue's phrasing `requests = delivered + responses_dropped +
//! shed_total`: [`NetStats::responses`] already counts delivered and
//! dropped handler responses together, `shed_total = shed_503 +
//! unclassified`, and `in_cohort` is the in-flight term that reaches zero
//! once the pool drains.) A scrape renders each shard and each device
//! from one locked copy, so a shard's counters, launches and histograms
//! agree with each other, and so do a device's.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use rhythm_obs::{
    chrome_trace_json, MetricKind, MetricRegistry, MetricValue, PromText, StreamingHistogram,
    TraceRecorder,
};

use crate::server::NetStats;

/// Events each shard's ring retains.
const FLIGHT_CAPACITY: usize = 4096;
/// Distinct cohort keys with their own latency histogram and launch
/// counters; higher keys share the last slot. Cohort keys are request
/// type ids, so this covers the banking workload's 14 types with
/// headroom.
const KEY_SLOTS: usize = 32;

/// A consistent snapshot of one shard's live counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LiveSnapshot {
    /// The shard's counters as of its last completed poll.
    pub stats: NetStats,
    /// Requests currently held in open (PartiallyFull/Full) cohort
    /// contexts — the in-flight term of the accounting invariant.
    pub in_cohort: u64,
    /// Currently admitted connections.
    pub connections: u64,
}

impl LiveSnapshot {
    /// Requests answered without reaching a cohort: `503` sheds plus
    /// unclassified (`404`) requests.
    pub fn shed_total(&self) -> u64 {
        self.stats.shed_503 + self.stats.unclassified
    }

    /// `requests − responses − shed_total − in_cohort`; zero on every
    /// consistent snapshot.
    pub fn accounting_residual(&self) -> i64 {
        self.stats.requests as i64
            - self.stats.responses as i64
            - self.shed_total() as i64
            - self.in_cohort as i64
    }

    /// Whether the accounting invariant holds (it must, on any snapshot
    /// read through [`ShardMetrics::live`]).
    pub fn accounting_balanced(&self) -> bool {
        self.accounting_residual() == 0
    }

    /// Fold another shard's snapshot into this one.
    pub fn merge(&mut self, other: &LiveSnapshot) {
        self.stats.merge(&other.stats);
        self.in_cohort += other.in_cohort;
        self.connections += other.connections;
    }
}

/// One cohort key's launch counters, as reported by
/// [`ShardMetrics::launch_views`].
#[derive(Clone, Debug, PartialEq)]
pub struct LaunchView {
    /// The cohort key's label (the handler's `key_name`).
    pub name: String,
    /// Cohorts of this key launched full.
    pub full: u64,
    /// Cohorts of this key launched by the fill deadline.
    pub timeout: u64,
    /// Requests across this key's launches.
    pub requests: u64,
    /// Sum of launch fill ratios (mean fill = this / (full + timeout)).
    pub fill_sum: f64,
}

/// One cohort key's slot: its label (set the first time the key is
/// seen), its request-latency histogram, and its launch counters (full
/// vs timeout launch reason, requests, fill sum), which make the batching
/// policy's behavior observable per key from `/metrics`.
#[derive(Clone, Debug)]
struct KeySlot {
    name: Option<String>,
    latency: StreamingHistogram,
    full: u64,
    timeout: u64,
    requests: u64,
    fill_sum: f64,
}

impl KeySlot {
    fn label(&self, i: usize) -> String {
        self.name.clone().unwrap_or_else(|| format!("key_{i}"))
    }
}

/// Everything one shard's lock guards.
#[derive(Clone, Debug)]
struct ShardState {
    live: LiveSnapshot,
    keys: Vec<KeySlot>,
    fill: StreamingHistogram,
}

impl ShardState {
    /// The slot of cohort key `key`, labelled by `name` the first time.
    fn key(&mut self, key: u32, name: impl FnOnce() -> String) -> &mut KeySlot {
        let slot = &mut self.keys[(key as usize).min(KEY_SLOTS - 1)];
        slot.name.get_or_insert_with(name);
        slot
    }

    /// Per-key launch counters for keys that launched at least once.
    fn launch_views(&self) -> Vec<LaunchView> {
        self.keys
            .iter()
            .enumerate()
            .filter(|(_, s)| s.full + s.timeout > 0)
            .map(|(i, s)| LaunchView {
                name: s.label(i),
                full: s.full,
                timeout: s.timeout,
                requests: s.requests,
                fill_sum: s.fill_sum,
            })
            .collect()
    }

    /// Per-type latency histograms as `(type_name, histogram)`.
    fn latency_views(&self) -> Vec<(String, StreamingHistogram)> {
        self.keys
            .iter()
            .enumerate()
            .filter(|(_, s)| s.latency.count() > 0)
            .map(|(i, s)| (s.label(i), s.latency.clone()))
            .collect()
    }
}

/// One reactor shard's metrics: the published counter snapshot, the
/// per-key slots and the cohort-fill histogram under one lock, and the
/// shard's ring of recent events. Written only by the owning reactor;
/// read by anyone.
#[derive(Debug)]
pub struct ShardMetrics {
    state: Mutex<ShardState>,
    flight: TraceRecorder,
}

impl Default for ShardMetrics {
    fn default() -> Self {
        ShardMetrics::new()
    }
}

impl ShardMetrics {
    /// A fresh, zeroed registry.
    pub fn new() -> Self {
        let slot = KeySlot {
            name: None,
            // 1 µs floor, 8 sub-buckets per octave (≤ 9 % relative
            // quantile error), 40 octaves (up to ~12 days).
            latency: StreamingHistogram::with_octaves(1e-6, 8, 40),
            full: 0,
            timeout: 0,
            requests: 0,
            fill_sum: 0.0,
        };
        ShardMetrics {
            state: Mutex::new(ShardState {
                live: LiveSnapshot::default(),
                keys: vec![slot; KEY_SLOTS],
                // Fill is in (0, 1]: 1/256 floor, 4 sub-buckets per
                // octave, 9 octaves reach just past 1.0.
                fill: StreamingHistogram::with_octaves(1.0 / 256.0, 4, 9),
            }),
            flight: TraceRecorder::bounded(FLIGHT_CAPACITY),
        }
    }

    /// The shard's state, locked. A poisoned lock is still used, since
    /// every write under it leaves the values whole.
    fn lock(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish the owning reactor's counters (end of poll). The lock is
    /// held only to copy the snapshot in.
    pub fn publish(&self, stats: &NetStats, in_cohort: u64, connections: u64) {
        let snap = LiveSnapshot {
            stats: stats.clone(),
            in_cohort,
            connections,
        };
        self.lock().live = snap;
    }

    /// The last published snapshot.
    pub fn live(&self) -> LiveSnapshot {
        self.lock().live.clone()
    }

    /// Record one request's end-to-end latency under its cohort type
    /// (`name` is only invoked the first time `key` is seen).
    pub fn record_latency(&self, key: u32, name: impl FnOnce() -> String, latency_s: f64) {
        self.lock().key(key, name).latency.record(latency_s);
    }

    /// Record one cohort launch: its fill ratio in the cohort-fill
    /// histogram and, under its key, the launch reason (full vs fill
    /// deadline), the member count and the fill ratio (`name` is only
    /// invoked the first time `key` is seen).
    pub fn record_launch(
        &self,
        key: u32,
        name: impl FnOnce() -> String,
        by_timeout: bool,
        requests: u64,
        fill: f64,
    ) {
        let mut state = self.lock();
        state.fill.record(fill);
        let slot = state.key(key, name);
        if by_timeout {
            slot.timeout += 1;
        } else {
            slot.full += 1;
        }
        slot.requests += requests;
        slot.fill_sum += fill;
    }

    /// Per-key launch counters for keys that launched at least once.
    pub fn launch_views(&self) -> Vec<LaunchView> {
        self.lock().launch_views()
    }

    /// Per-type latency snapshots as `(type_name, histogram)`.
    pub fn latency_views(&self) -> Vec<(String, StreamingHistogram)> {
        self.lock().latency_views()
    }

    /// The shard's ring of recent events (the newest 4 096, kept whole).
    pub fn flight(&self) -> &TraceRecorder {
        &self.flight
    }
}

/// Per-shard `u64` counter families exported to Prometheus: `(suffix,
/// help, extractor)`.
type CounterFamily = (&'static str, &'static str, fn(&LiveSnapshot) -> u64);

const COUNTER_FAMILIES: &[CounterFamily] = &[
    ("accepted_total", "Connections admitted", |s| {
        s.stats.accepted
    }),
    (
        "rejected_over_cap_total",
        "Connections shed at admission (over the per-reactor cap)",
        |s| s.stats.rejected_over_cap,
    ),
    (
        "requests_total",
        "Complete requests parsed off sockets (excludes admin endpoints)",
        |s| s.stats.requests,
    ),
    (
        "responses_total",
        "Responses produced by the cohort handler (delivered or dropped)",
        |s| s.stats.responses,
    ),
    (
        "responses_dropped_total",
        "Responses whose connection vanished before delivery",
        |s| s.stats.responses_dropped,
    ),
    ("cohorts_total", "Cohorts launched", |s| s.stats.cohorts),
    ("full_launches_total", "Cohorts launched full", |s| {
        s.stats.full_launches
    }),
    (
        "timeout_launches_total",
        "Cohorts launched by the formation timeout",
        |s| s.stats.timeout_launches,
    ),
    (
        "launched_requests_total",
        "Requests across all cohort launches",
        |s| s.stats.launched_requests,
    ),
    (
        "shed_503_total",
        "Requests shed with 503 (pool exhausted or FSM refusal)",
        |s| s.stats.shed_503,
    ),
    ("too_large_413_total", "Requests rejected with 413", |s| {
        s.stats.too_large_413
    }),
    ("bad_request_400_total", "Requests rejected with 400", |s| {
        s.stats.bad_request_400
    }),
    (
        "unclassified_total",
        "Requests the handler refused to classify (404)",
        |s| s.stats.unclassified,
    ),
    (
        "fsm_rejections_total",
        "Fallible-FSM refusals survived without panicking",
        |s| s.stats.fsm_rejections,
    ),
    (
        "reaped_idle_total",
        "Idle/half-open connections reaped by the read deadline",
        |s| s.stats.reaped_idle,
    ),
    (
        "reaped_stalled_total",
        "Stalled readers reaped with queued output",
        |s| s.stats.reaped_stalled,
    ),
    (
        "idle_polls_total",
        "No-progress poll iterations that slept",
        |s| s.stats.idle_polls,
    ),
    (
        "reads_paused_total",
        "Socket reads skipped under write backpressure",
        |s| s.stats.reads_paused,
    ),
    ("bytes_in_total", "Bytes read off sockets", |s| {
        s.stats.bytes_in
    }),
    ("bytes_out_total", "Bytes written to sockets", |s| {
        s.stats.bytes_out
    }),
    (
        "admin_requests_total",
        "Admin-surface requests (/metrics, /healthz, /trace)",
        |s| s.stats.admin_requests,
    ),
];

type GaugeFamily = (&'static str, &'static str, fn(&LiveSnapshot) -> f64);

const GAUGE_FAMILIES: &[GaugeFamily] = &[
    ("connections", "Currently admitted connections", |s| {
        s.connections as f64
    }),
    (
        "in_cohort",
        "Requests held in open cohort contexts (in-flight accounting term)",
        |s| s.in_cohort as f64,
    ),
    (
        "peak_connections",
        "Peak simultaneous admitted connections",
        |s| s.stats.peak_connections as f64,
    ),
    (
        "peak_queued_bytes",
        "Largest per-connection queued-output backlog observed",
        |s| s.stats.peak_queued_bytes as f64,
    ),
];

/// The cross-shard telemetry plane: every shard's [`ShardMetrics`] plus
/// one generic [`MetricRegistry`] per device, aggregated **on demand** at
/// scrape time (shards never read each other on the hot path).
///
/// Create one with [`Telemetry::new`] before building handlers (device
/// handlers take their registry handles from [`Telemetry::device`]), then
/// hand it to the server; the admin endpoints render from it.
#[derive(Debug)]
pub struct Telemetry {
    shards: Vec<Arc<ShardMetrics>>,
    devices: Vec<Arc<MetricRegistry>>,
    started: Instant,
}

impl Telemetry {
    /// A telemetry plane for `shards` reactor shards (and as many
    /// devices).
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn new(shards: usize) -> Arc<Telemetry> {
        assert!(shards > 0, "need at least one shard");
        Arc::new(Telemetry {
            shards: (0..shards).map(|_| Arc::new(ShardMetrics::new())).collect(),
            devices: (0..shards)
                .map(|_| Arc::new(MetricRegistry::new()))
                .collect(),
            started: Instant::now(),
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`'s metric registry.
    pub fn shard(&self, i: usize) -> &Arc<ShardMetrics> {
        &self.shards[i]
    }

    /// Device `i`'s metric registry (device handlers register their
    /// counters here at construction).
    pub fn device(&self, i: usize) -> &Arc<MetricRegistry> {
        &self.devices[i]
    }

    /// Seconds since the plane was created.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Cross-shard aggregate of the latest per-shard snapshots. Each
    /// shard's contribution is individually consistent; the aggregate
    /// mixes polls that completed within microseconds of each other.
    pub fn total(&self) -> LiveSnapshot {
        let mut total = LiveSnapshot::default();
        for s in &self.shards {
            total.merge(&s.live());
        }
        total
    }

    /// Per-type latency histograms merged across shards.
    pub fn latency_merged(&self) -> Vec<(String, StreamingHistogram)> {
        merge_by_type(self.shards.iter().map(|s| s.latency_views()))
    }

    /// Render the whole plane as Prometheus text exposition: process
    /// gauges, per-shard counter/gauge families (`shard` label), merged
    /// latency and fill histograms, and every device registry's metrics.
    pub fn render_metrics(&self) -> String {
        let states: Vec<ShardState> = self.shards.iter().map(|s| s.lock().clone()).collect();
        let mut t = PromText::new();
        t.header(
            "rhythm_uptime_seconds",
            "Seconds since the telemetry plane was created",
            MetricKind::Gauge,
        );
        t.sample("rhythm_uptime_seconds", &[], self.uptime_s());
        t.header("rhythm_shards", "Reactor shard count", MetricKind::Gauge);
        t.sample("rhythm_shards", &[], self.shards.len() as f64);
        for (suffix, help, get) in COUNTER_FAMILIES {
            let name = format!("rhythm_{suffix}");
            t.header(&name, help, MetricKind::Counter);
            for (i, state) in states.iter().enumerate() {
                t.sample_u64(&name, &[("shard", &i.to_string())], get(&state.live));
            }
        }
        for (suffix, help, get) in GAUGE_FAMILIES {
            let name = format!("rhythm_{suffix}");
            t.header(&name, help, MetricKind::Gauge);
            for (i, state) in states.iter().enumerate() {
                t.sample(&name, &[("shard", &i.to_string())], get(&state.live));
            }
        }
        t.header(
            "rhythm_cohort_fill_sum_total",
            "Sum of cohort fills at launch (mean fill = this / rhythm_cohorts_total)",
            MetricKind::Counter,
        );
        for (i, state) in states.iter().enumerate() {
            t.sample(
                "rhythm_cohort_fill_sum_total",
                &[("shard", &i.to_string())],
                state.live.stats.fill_sum,
            );
        }
        // Per-cohort-key launch counters: how each key's cohorts
        // launched (full vs fill deadline) and how full they were.
        t.header(
            "rhythm_key_cohorts_total",
            "Cohorts launched by cohort key and reason (full = cohort size reached, timeout = fill deadline)",
            MetricKind::Counter,
        );
        for (i, state) in states.iter().enumerate() {
            let si = i.to_string();
            for v in state.launch_views() {
                t.sample_u64(
                    "rhythm_key_cohorts_total",
                    &[("shard", &si), ("type", &v.name), ("reason", "full")],
                    v.full,
                );
                t.sample_u64(
                    "rhythm_key_cohorts_total",
                    &[("shard", &si), ("type", &v.name), ("reason", "timeout")],
                    v.timeout,
                );
            }
        }
        t.header(
            "rhythm_key_launched_requests_total",
            "Requests across cohort launches, by cohort key",
            MetricKind::Counter,
        );
        for (i, state) in states.iter().enumerate() {
            let si = i.to_string();
            for v in state.launch_views() {
                t.sample_u64(
                    "rhythm_key_launched_requests_total",
                    &[("shard", &si), ("type", &v.name)],
                    v.requests,
                );
            }
        }
        t.header(
            "rhythm_key_fill_sum_total",
            "Sum of launch fill ratios by cohort key (mean = this / rhythm_key_cohorts_total)",
            MetricKind::Counter,
        );
        for (i, state) in states.iter().enumerate() {
            let si = i.to_string();
            for v in state.launch_views() {
                t.sample(
                    "rhythm_key_fill_sum_total",
                    &[("shard", &si), ("type", &v.name)],
                    v.fill_sum,
                );
            }
        }
        // Distributions are merged across shards at scrape time.
        let mut fill = StreamingHistogram::new(1.0 / 256.0, 4);
        for state in &states {
            fill.merge(&state.fill);
        }
        t.header(
            "rhythm_cohort_fill",
            "Cohort fill ratio at launch (1.0 = full), merged across shards",
            MetricKind::Histogram,
        );
        t.histogram("rhythm_cohort_fill", &[], &fill);
        t.header(
            "rhythm_request_latency_seconds",
            "End-to-end request latency by request type, merged across shards",
            MetricKind::Histogram,
        );
        for (ty, hist) in merge_by_type(states.iter().map(ShardState::latency_views)) {
            t.histogram("rhythm_request_latency_seconds", &[("type", &ty)], &hist);
        }
        self.render_devices(&mut t);
        t.finish()
    }

    /// Device registries: counters/gauges per shard (labelled), histogram
    /// families merged across shards.
    fn render_devices(&self, t: &mut PromText) {
        use std::collections::BTreeMap;
        // name -> (help, kind, per-shard values)
        type Family = (String, MetricKind, Vec<(usize, MetricValue)>);
        let mut families: BTreeMap<String, Family> = BTreeMap::new();
        for (i, device) in self.devices.iter().enumerate() {
            for e in device.export() {
                let kind = e.value.kind();
                families
                    .entry(e.name)
                    .or_insert_with(|| (e.help, kind, Vec::new()))
                    .2
                    .push((i, e.value));
            }
        }
        for (name, (help, kind, values)) in families {
            t.header(&name, &help, kind);
            match kind {
                MetricKind::Histogram => {
                    let mut merged: Option<StreamingHistogram> = None;
                    for (_, v) in values {
                        if let MetricValue::Histogram(h) = v {
                            match &mut merged {
                                Some(m) => m.merge(&h),
                                None => merged = Some(h),
                            }
                        }
                    }
                    if let Some(m) = merged {
                        t.histogram(&name, &[], &m);
                    }
                }
                _ => {
                    for (i, v) in values {
                        match v {
                            MetricValue::Counter(c) => {
                                t.sample_u64(&name, &[("shard", &i.to_string())], c);
                            }
                            MetricValue::Gauge(g) => {
                                t.sample(&name, &[("shard", &i.to_string())], g);
                            }
                            MetricValue::Histogram(_) => {}
                        }
                    }
                }
            }
        }
    }

    /// Render the `/healthz` body: a small JSON status document.
    pub fn render_healthz(&self) -> String {
        let total = self.total();
        format!(
            "{{\"status\":\"ok\",\"uptime_s\":{:.3},\"shards\":{},\"connections\":{},\
             \"requests\":{},\"responses\":{},\"shed\":{},\"in_cohort\":{},\"balanced\":{}}}\n",
            self.uptime_s(),
            self.shards.len(),
            total.connections,
            total.stats.requests,
            total.stats.responses,
            total.shed_total(),
            total.in_cohort,
            total.accounting_balanced(),
        )
    }

    /// Render the `/trace` body: every shard's event ring as one Chrome
    /// trace JSON document (one process per shard).
    pub fn render_trace(&self) -> String {
        let shards: Vec<_> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("reactor shard {i}"), s.flight().events()))
            .collect();
        chrome_trace_json(&shards)
    }
}

/// `(type_name, histogram)` views from every shard, merged by type and
/// sorted by name.
fn merge_by_type(
    shards: impl Iterator<Item = Vec<(String, StreamingHistogram)>>,
) -> Vec<(String, StreamingHistogram)> {
    let mut by_type: Vec<(String, StreamingHistogram)> = Vec::new();
    for (name, hist) in shards.flatten() {
        match by_type.iter_mut().find(|(n, _)| *n == name) {
            Some((_, acc)) => acc.merge(&hist),
            None => by_type.push((name, hist)),
        }
    }
    by_type.sort_by(|a, b| a.0.cmp(&b.0));
    by_type
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consistent_stats(step: u64) -> (NetStats, u64) {
        // Build counters that satisfy the invariant for any step:
        // requests = responses + shed_503 + unclassified + in_cohort.
        let in_cohort = step % 7;
        let stats = NetStats {
            requests: 10 * step + in_cohort,
            responses: 8 * step,
            shed_503: step,
            unclassified: step,
            responses_dropped: step / 2,
            ..NetStats::default()
        };
        (stats, in_cohort)
    }

    #[test]
    fn statscell_snapshot_is_never_torn() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let shard = Arc::new(ShardMetrics::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let shard = Arc::clone(&shard);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut step = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    step += 1;
                    let (stats, in_cohort) = consistent_stats(step);
                    shard.publish(&stats, in_cohort, step % 3);
                }
                step
            })
        };
        let mut last_requests = 0u64;
        let mut reads = 0u32;
        // Keep reading until the writer has been seen at work: an
        // optimised reader can finish 100 000 reads before the writer
        // thread is even scheduled.
        while reads < 100_000 || last_requests == 0 {
            reads += 1;
            let snap = shard.live();
            assert!(
                snap.accounting_balanced(),
                "torn snapshot: residual {} at requests {}",
                snap.accounting_residual(),
                snap.stats.requests
            );
            assert!(
                snap.stats.requests >= last_requests,
                "monotonicity violated"
            );
            last_requests = snap.stats.requests;
        }
        stop.store(true, Ordering::Relaxed);
        let steps = writer.join().unwrap();
        assert!(steps > 0);
    }

    #[test]
    fn poisoned_snapshot_lock_still_publishes_and_reads() {
        let shard = ShardMetrics::new();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shard.state.lock().unwrap();
            panic!("poison the snapshot lock");
        }));
        assert!(shard.state.is_poisoned());
        let (stats, in_cohort) = consistent_stats(4);
        shard.publish(&stats, in_cohort, 2);
        let snap = shard.live();
        assert_eq!(snap.stats, stats);
        assert!(snap.accounting_balanced());
    }

    #[test]
    fn telemetry_total_merges_shards() {
        let t = Telemetry::new(2);
        let (s0, ic0) = consistent_stats(5);
        let (s1, ic1) = consistent_stats(9);
        t.shard(0).publish(&s0, ic0, 1);
        t.shard(1).publish(&s1, ic1, 2);
        let total = t.total();
        assert_eq!(total.stats.requests, s0.requests + s1.requests);
        assert_eq!(total.connections, 3);
        assert!(total.accounting_balanced());
    }

    #[test]
    fn rendered_metrics_validate_and_carry_per_shard_labels() {
        let t = Telemetry::new(2);
        let (s0, ic0) = consistent_stats(3);
        t.shard(0).publish(&s0, ic0, 1);
        t.shard(0)
            .record_latency(1, || "login.php".to_string(), 2e-3);
        t.shard(1)
            .record_latency(1, || "login.php".to_string(), 4e-3);
        t.shard(0)
            .record_launch(1, || "login.php".to_string(), true, 16, 0.5);
        t.shard(0)
            .record_launch(1, || "login.php".to_string(), false, 32, 1.0);
        let hits = t.device(0).counter("rhythm_plan_cache_hits_total", "hits");
        t.device(0).update(|m| *m.counter(hits) += 7);
        let kern =
            t.device(1)
                .histogram("rhythm_device_kernel_seconds", "kernel time", 1e-9, 8, 64);
        t.device(1).update(|m| m.histogram(kern).record(3e-4));
        let text = t.render_metrics();
        let check = rhythm_obs::validate_prometheus_text(&text).expect("valid exposition");
        assert!(check.families > 20, "families: {}", check.families);
        assert!(text.contains("rhythm_requests_total{shard=\"0\"}"));
        assert!(text.contains("rhythm_requests_total{shard=\"1\"} 0"));
        assert!(text.contains("type=\"login.php\""));
        assert!(text.contains("rhythm_request_latency_seconds_count{type=\"login.php\"} 2"));
        assert!(text.contains(
            "rhythm_key_cohorts_total{shard=\"0\",type=\"login.php\",reason=\"full\"} 1"
        ));
        assert!(text.contains(
            "rhythm_key_cohorts_total{shard=\"0\",type=\"login.php\",reason=\"timeout\"} 1"
        ));
        assert!(
            text.contains("rhythm_key_launched_requests_total{shard=\"0\",type=\"login.php\"} 48")
        );
        assert!(text.contains("rhythm_key_fill_sum_total{shard=\"0\",type=\"login.php\"} 1.5"));
        let views = t.shard(0).launch_views();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].full, 1);
        assert_eq!(views[0].timeout, 1);
        assert_eq!(views[0].requests, 48);
        assert!(text.contains("rhythm_plan_cache_hits_total{shard=\"0\"} 7"));
        assert!(text.contains("rhythm_device_kernel_seconds_count 1"));

        let health = t.render_healthz();
        assert!(rhythm_obs::parse_json(&health).is_ok(), "{health}");
        assert!(health.contains("\"status\":\"ok\""));

        let trace = t.render_trace();
        rhythm_obs::validate_chrome_trace(&trace).expect("valid chrome trace");
    }
}
