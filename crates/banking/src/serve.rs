//! Network-facing cohort handlers: plug the Banking workload into
//! `rhythm-net`'s front end.
//!
//! [`ScalarHandler`] answers each request with the native (CPU) handler —
//! the paper's "standalone C version" serving path. [`SimtHandler`] runs
//! each cohort on the simulated data-parallel device, against a
//! [`DeviceContext`] that keeps the session array and the store image
//! resident — the paper's GPU serving path. Both implement
//! [`rhythm_net::CohortHandler`], so the same non-blocking TCP front end
//! drives either.

use std::sync::Arc;

use rhythm_http::HttpRequest;
use rhythm_net::CohortHandler;
use rhythm_obs::{MetricId, MetricRegistry, NoopRecorder};
use rhythm_simt::gpu::Gpu;
use rhythm_simt::{plan_cache_stats, wide_copy_stats, WARP_SIZE};

use crate::backend::BankStore;
use crate::genreq::{raw_http, GeneratedRequest};
use crate::kernels::Workload;
use crate::native::{handle_native, BankingRequest};
use crate::runner::{CohortOptions, CohortResult, DeviceContext};
use crate::session_array::SessionArrayHost;
use crate::templates::SESSION_COOKIE;
use crate::types::RequestType;

/// The one cohort key of every Banking request. The parser kernel, not
/// the host, splits a cohort by type; the type ids `0..14` below this key
/// label each member's latency instead ([`CohortHandler::label_key`]).
const BANKING_KEY: u32 = RequestType::ALL.len() as u32;

/// [`BANKING_KEY`] for a page of the 14 Banking types, `None` for any
/// other page (shared by both handlers' [`CohortHandler::classify`]).
fn banking_classify(req: &HttpRequest) -> Option<u32> {
    RequestType::from_file_name(req.file_name()).map(|_| BANKING_KEY)
}

/// A member's latency label: its request type's id (shared by both
/// handlers' [`CohortHandler::label_key`]).
fn banking_label_key(key: u32, req: &HttpRequest) -> u32 {
    RequestType::from_file_name(req.file_name()).map_or(key, RequestType::id)
}

/// Name the cohort key `banking` and each type id its page (shared by
/// both handlers' [`CohortHandler::key_name`]).
fn banking_key_name(key: u32) -> String {
    match RequestType::from_id(key) {
        Some(ty) => ty.file_name().to_string(),
        None if key == BANKING_KEY => "banking".to_string(),
        None => format!("key_{key}"),
    }
}

/// Live SIMT device counters, registered into one shard's device
/// [`MetricRegistry`] and updated after every cohort launch.
///
/// Each cohort's changes are applied under the registry's one lock, so a
/// `/metrics` scrape sees a cohort's counters, gauges and kernel-time
/// sample together or not at all. The `rhythm_plan_cache_*` and
/// `rhythm_wide_copy_*` counters mirror the executor's process-wide
/// totals by absolute assignment (every shard publishes the same process
/// total).
#[derive(Debug)]
pub struct DeviceMetrics {
    registry: Arc<MetricRegistry>,
    launches: MetricId,
    cohorts: MetricId,
    served: MetricId,
    faults: MetricId,
    warp_cycles: MetricId,
    warp_instructions: MetricId,
    lane_instructions: MetricId,
    branches: MetricId,
    divergent_branches: MetricId,
    plan_cache_hits: MetricId,
    plan_cache_misses: MetricId,
    wide_copy_commits: MetricId,
    wide_copy_fallbacks: MetricId,
    simd_efficiency: MetricId,
    divergence_rate: MetricId,
    kernel_seconds: MetricId,
}

impl DeviceMetrics {
    /// Register every device metric into `registry` (idempotent: a second
    /// registration returns handles to the same metrics).
    pub fn register(registry: &Arc<MetricRegistry>) -> Self {
        DeviceMetrics {
            registry: Arc::clone(registry),
            launches: registry.counter(
                "rhythm_device_launches_total",
                "Kernel launches executed on the device",
            ),
            cohorts: registry.counter(
                "rhythm_device_cohorts_total",
                "Cohorts run to completion on the device",
            ),
            served: registry.counter(
                "rhythm_device_requests_total",
                "Requests served across device cohorts",
            ),
            faults: registry.counter(
                "rhythm_device_faults_total",
                "Cohorts and sub-cohorts that faulted on the device (answered with 500s)",
            ),
            warp_cycles: registry.counter(
                "rhythm_device_warp_cycles_total",
                "Modelled warp cycles across kernel launches",
            ),
            warp_instructions: registry.counter(
                "rhythm_device_warp_instructions_total",
                "Warp instructions issued",
            ),
            lane_instructions: registry.counter(
                "rhythm_device_lane_instructions_total",
                "Active-lane instructions executed",
            ),
            branches: registry.counter("rhythm_device_branches_total", "Warp branches executed"),
            divergent_branches: registry.counter(
                "rhythm_device_divergent_branches_total",
                "Warp branches whose lanes took both sides",
            ),
            plan_cache_hits: registry.counter(
                "rhythm_plan_cache_hits_total",
                "Decode-plan cache hits (process-wide)",
            ),
            plan_cache_misses: registry.counter(
                "rhythm_plan_cache_misses_total",
                "Decode-plan cache misses (process-wide)",
            ),
            wide_copy_commits: registry.counter(
                "rhythm_wide_copy_commits_total",
                "Static byte-copy loops committed as one wide copy (process-wide)",
            ),
            wide_copy_fallbacks: registry.counter(
                "rhythm_wide_copy_fallbacks_total",
                "Static byte-copy loops interpreted byte by byte instead (process-wide; \
                 expected 0)",
            ),
            simd_efficiency: registry.gauge(
                "rhythm_device_simd_efficiency",
                "Cumulative SIMD efficiency: lane instructions over warp slots (1.0 = converged)",
            ),
            divergence_rate: registry.gauge(
                "rhythm_device_divergence_rate",
                "Cumulative divergent-branch fraction",
            ),
            // Kernel times: 100 ns floor, 8 sub-buckets/octave, 30
            // octaves reach ~100 s.
            kernel_seconds: registry.histogram(
                "rhythm_device_kernel_seconds",
                "Modelled device time per cohort",
                1e-7,
                8,
                30,
            ),
        }
    }

    /// Fold one completed cohort's launch results into the live counters.
    fn note_cohort(&self, result: &CohortResult, served: u64) {
        let cache = plan_cache_stats();
        let copies = wide_copy_stats();
        self.registry.update(|m| {
            *m.counter(self.cohorts) += 1;
            *m.counter(self.served) += served;
            *m.counter(self.faults) += result.faults.len() as u64;
            *m.counter(self.launches) += result.launches.len() as u64;
            for (_, launch) in &result.launches {
                let s = &launch.stats;
                *m.counter(self.warp_cycles) += s.warp_cycles;
                *m.counter(self.warp_instructions) += s.warp_instructions;
                *m.counter(self.lane_instructions) += s.lane_instructions;
                *m.counter(self.branches) += s.divergence.branches;
                *m.counter(self.divergent_branches) += s.divergence.divergent_branches;
            }
            m.histogram(self.kernel_seconds)
                .record(result.kernel_time_s());
            // Cumulative gauges derived from the counters just updated.
            let warp = *m.counter(self.warp_instructions);
            let lane = *m.counter(self.lane_instructions);
            if warp > 0 {
                *m.gauge(self.simd_efficiency) = lane as f64 / (warp as f64 * WARP_SIZE as f64);
            }
            let branches = *m.counter(self.branches);
            if branches > 0 {
                let divergent = *m.counter(self.divergent_branches);
                *m.gauge(self.divergence_rate) = divergent as f64 / branches as f64;
            }
            *m.counter(self.plan_cache_hits) = cache.hits;
            *m.counter(self.plan_cache_misses) = cache.misses;
            *m.counter(self.wide_copy_commits) = copies.hits;
            *m.counter(self.wide_copy_fallbacks) = copies.misses;
        });
    }

    /// Record a faulted cohort.
    fn note_fault(&self) {
        self.registry.update(|m| *m.counter(self.faults) += 1);
    }
}

/// Interpret a wire request as a Banking request: the page name selects
/// the [`RequestType`], the `SID` cookie carries the session token, and
/// `userid`/`a` parameters fill the positional params (the same fields
/// [`crate::genreq::raw_http`] renders).
///
/// `None` for pages outside the 14 Banking types.
pub fn banking_request_from_http(req: &HttpRequest) -> Option<BankingRequest> {
    let ty = RequestType::from_file_name(req.file_name())?;
    let token = req
        .cookies
        .get(SESSION_COOKIE)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let mut params = [0u32; 4];
    params[0] = req.params.get_u32("userid").unwrap_or(0);
    params[1] = req.params.get_u32("a").unwrap_or(0);
    Some(BankingRequest::new(ty, token, params))
}

/// The scalar serving path: each cohort member is answered by
/// [`handle_native`], one request at a time on the CPU. Cohort formation
/// still batches requests (useful for comparing overheads), but execution
/// is sequential.
#[derive(Debug)]
pub struct ScalarHandler {
    store: BankStore,
    sessions: SessionArrayHost,
    /// Requests served.
    pub served: u64,
}

impl ScalarHandler {
    /// A handler over `store`, with `sessions` as the live session table.
    pub fn new(store: BankStore, sessions: SessionArrayHost) -> Self {
        ScalarHandler {
            store,
            sessions,
            served: 0,
        }
    }

    /// The live session table (post-traffic state).
    pub fn sessions(&self) -> &SessionArrayHost {
        &self.sessions
    }
}

impl CohortHandler for ScalarHandler {
    fn classify(&self, req: &HttpRequest) -> Option<u32> {
        banking_classify(req)
    }

    fn label_key(&self, key: u32, req: &HttpRequest) -> u32 {
        banking_label_key(key, req)
    }

    fn key_name(&self, key: u32) -> String {
        banking_key_name(key)
    }

    fn execute(&mut self, _key: u32, requests: &[HttpRequest]) -> Vec<Vec<u8>> {
        requests
            .iter()
            .map(|r| match banking_request_from_http(r) {
                Some(b) => {
                    self.served += 1;
                    handle_native(&b, &self.store, &mut self.sessions)
                }
                // Unreachable for dispatched cohorts (classify gated
                // them); replies stay positional, so it costs one 500.
                None => rhythm_net::responses::internal_500(),
            })
            .collect()
    }
}

/// Re-render each wire request into the canonical ≤512 B slot text the
/// parser kernel consumes. A cohort mixes pages; the parser kernel splits
/// it into per-type sub-cohorts.
///
/// Replies are positional, so a request outside the 14 Banking types
/// (which `classify` never lets into a cohort) must not simply drop out:
/// every later member would be answered with its neighbour's page. It
/// voids the cohort instead — empty in, empty out, and the front end
/// answers each member with a `500`.
fn device_requests(requests: &[HttpRequest]) -> Vec<GeneratedRequest> {
    requests
        .iter()
        .map(|r| {
            banking_request_from_http(r).map(|b| GeneratedRequest {
                ty: b.ty,
                token: b.token,
                params: b.params,
                raw: raw_http(b.ty, b.token, &b.params),
            })
        })
        .collect::<Option<Vec<_>>>()
        .unwrap_or_default()
}

/// The SIMT serving path: each cohort becomes one device run through
/// parse → process → response kernels on this shard's resident
/// [`DeviceContext`] — the paper's end-to-end GPU pipeline behind a real
/// socket front end. The session array lives in the context's device
/// memory; only request bytes go up and response bytes come back per
/// cohort.
#[derive(Debug)]
pub struct SimtHandler {
    workload: Workload,
    store: BankStore,
    ctx: DeviceContext,
    /// Cohorts executed on the device.
    pub cohorts: u64,
    /// Requests answered across all cohorts.
    pub served: u64,
    /// Modelled device kernel time accumulated across cohorts.
    pub device_time_s: f64,
    /// Cohorts and sub-cohorts that faulted on the device (answered with
    /// 500s).
    pub faults: u64,
    /// Live device counters (when attached to a telemetry registry).
    metrics: Option<DeviceMetrics>,
}

impl SimtHandler {
    /// A device-backed handler: uploads `store` and `sessions` to the
    /// shard's device context.
    ///
    /// # Panics
    ///
    /// Panics if `sessions.capacity()` or `sessions.salt()` disagrees with
    /// `opts.session_capacity` or `opts.session_salt` (the device context
    /// requires them equal).
    pub fn new(
        workload: Workload,
        store: BankStore,
        sessions: SessionArrayHost,
        gpu: Gpu,
        opts: CohortOptions,
    ) -> Self {
        SimtHandler {
            ctx: DeviceContext::new(&store, &sessions, &gpu, &opts),
            workload,
            store,
            cohorts: 0,
            served: 0,
            device_time_s: 0.0,
            faults: 0,
            metrics: None,
        }
    }

    /// Publish this handler's device counters into `registry` (one shard's
    /// device registry from [`rhythm_net::Telemetry`]). Metric recording
    /// never alters responses: metered and bare execution stay
    /// bit-identical.
    #[must_use]
    pub fn with_metrics(mut self, registry: &Arc<MetricRegistry>) -> Self {
        self.metrics = Some(DeviceMetrics::register(registry));
        self
    }

    /// The live session table (post-traffic state), decoded from the
    /// device array on demand.
    pub fn sessions(&self) -> SessionArrayHost {
        self.ctx.sessions()
    }

    /// Mean modelled device time per cohort, in seconds.
    pub fn mean_cohort_device_s(&self) -> f64 {
        if self.cohorts == 0 {
            0.0
        } else {
            self.device_time_s / self.cohorts as f64
        }
    }
}

impl CohortHandler for SimtHandler {
    fn classify(&self, req: &HttpRequest) -> Option<u32> {
        banking_classify(req)
    }

    fn label_key(&self, key: u32, req: &HttpRequest) -> u32 {
        banking_label_key(key, req)
    }

    fn key_name(&self, key: u32) -> String {
        banking_key_name(key)
    }

    /// Run the cohort on this thread against the shard's resident context
    /// and book it.
    fn execute(&mut self, _key: u32, requests: &[HttpRequest]) -> Vec<Vec<u8>> {
        let reqs = device_requests(requests);
        if reqs.is_empty() {
            return Vec::new();
        }
        let run = self
            .ctx
            .run_cohort(&self.workload, &self.store, &reqs, &NoopRecorder);
        match run {
            Ok(result) => {
                // A faulted sub-cohort's members were left empty.
                let answered = result.responses.iter().filter(|r| !r.is_empty()).count();
                self.cohorts += 1;
                self.served += answered as u64;
                self.faults += result.faults.len() as u64;
                self.device_time_s += result.kernel_time_s();
                if let Some(m) = &self.metrics {
                    m.note_cohort(&result, answered as u64);
                }
                // They get 500s; the context has undone their session
                // writes.
                result
                    .responses
                    .into_iter()
                    .map(|r| {
                        if r.is_empty() {
                            rhythm_net::responses::internal_500()
                        } else {
                            r
                        }
                    })
                    .collect()
            }
            Err(_) => {
                // A device fault answers the whole cohort with 500s (the
                // front end pads the short vec) instead of killing the
                // server; the context has undone its session writes.
                self.faults += 1;
                if let Some(m) = &self.metrics {
                    m.note_fault();
                }
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_obs::MetricValue;
    use rhythm_simt::gpu::GpuConfig;

    fn parse(raw: &[u8]) -> HttpRequest {
        HttpRequest::parse(raw).expect("valid")
    }

    #[test]
    fn http_maps_to_banking_request() {
        let req =
            parse(b"GET /bank/account_summary.php?userid=7 HTTP/1.1\r\nCookie: SID=99\r\n\r\n");
        let b = banking_request_from_http(&req).expect("known page");
        assert_eq!(b.ty, RequestType::AccountSummary);
        assert_eq!(b.token, 99);
        assert_eq!(b.params[0], 7);

        let unknown = parse(b"GET /bank/nope.php HTTP/1.1\r\n\r\n");
        assert!(banking_request_from_http(&unknown).is_none());
    }

    #[test]
    fn scalar_handler_serves_login_and_summary() {
        let store = BankStore::generate(16, 1);
        let sessions = SessionArrayHost::new(64, 0xBEEF);
        let mut h = ScalarHandler::new(store, sessions);

        let login = parse(b"POST /bank/login.php HTTP/1.1\r\nContent-Length: 8\r\n\r\nuserid=3");
        let key = h.classify(&login).expect("login classifies");
        assert_eq!(h.label_key(key, &login), RequestType::Login.id());
        let resp = h.execute(key, std::slice::from_ref(&login));
        assert_eq!(resp.len(), 1);
        let text = String::from_utf8(resp[0].clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK"));
        let token: u32 = text
            .split("Set-Cookie: SID=")
            .nth(1)
            .and_then(|t| t.split_whitespace().next())
            .and_then(|t| t.parse().ok())
            .expect("login sets SID");

        let raw = format!(
            "GET /bank/account_summary.php?userid=3 HTTP/1.1\r\nCookie: SID={token}\r\n\r\n"
        );
        let summary = parse(raw.as_bytes());
        let key = h.classify(&summary).expect("summary classifies");
        let resp = h.execute(key, &[summary]);
        assert!(resp[0].starts_with(b"HTTP/1.1 200 OK"));
        assert_eq!(h.served, 2);
    }

    #[test]
    fn simt_handler_matches_native_modulo_padding() {
        let store = BankStore::generate(16, 1);
        let opts = CohortOptions {
            session_capacity: 64,
            ..CohortOptions::default()
        };
        let mut h = SimtHandler::new(
            Workload::build(),
            store.clone(),
            SessionArrayHost::new(64, opts.session_salt),
            Gpu::new(GpuConfig::gtx_titan()),
            opts,
        );
        let mut native_sessions = SessionArrayHost::new(64, CohortOptions::default().session_salt);

        let login = parse(b"POST /bank/login.php HTTP/1.1\r\nContent-Length: 8\r\n\r\nuserid=5");
        let key = h.classify(&login).expect("classifies");
        let device = h.execute(key, std::slice::from_ref(&login));
        let b = banking_request_from_http(&login).unwrap();
        let native = handle_native(&b, &store, &mut native_sessions);
        assert!(rhythm_http::padding::eq_modulo_padding(&device[0], &native));
        assert_eq!(h.cohorts, 1);
        assert!(h.device_time_s > 0.0);
    }

    fn simt_handler() -> SimtHandler {
        let opts = CohortOptions {
            session_capacity: 64,
            ..CohortOptions::default()
        };
        SimtHandler::new(
            Workload::build(),
            BankStore::generate(16, 1),
            SessionArrayHost::new(64, opts.session_salt),
            Gpu::new(GpuConfig::gtx_titan()),
            opts,
        )
    }

    /// Both handlers put every Banking page under one cohort key, named
    /// `banking`, and label each member's latency by its page; a page
    /// outside the 14 types has no key.
    #[test]
    fn both_handlers_classify_one_key_and_label_members_by_page() {
        let scalar = ScalarHandler::new(BankStore::generate(16, 1), SessionArrayHost::new(64, 1));
        let simt = simt_handler();
        let handlers: [&dyn CohortHandler; 2] = [&scalar, &simt];
        for h in handlers {
            assert_eq!(h.key_name(BANKING_KEY), "banking");
        }
        for ty in RequestType::ALL {
            let raw = raw_http(ty, 42, &[3, 5, 0, 0]);
            let req = parse(&raw);
            for h in handlers {
                assert_eq!(h.classify(&req), Some(BANKING_KEY), "{ty}");
                let label = h.label_key(BANKING_KEY, &req);
                assert_eq!(label, ty.id(), "{ty}");
                assert_eq!(h.key_name(label), ty.file_name(), "{ty}");
            }
        }
        let unknown = parse(b"GET /bank/nope.php?userid=3 HTTP/1.1\r\nCookie: SID=42\r\n\r\n");
        for h in handlers {
            assert_eq!(h.classify(&unknown), None);
        }
    }

    /// A non-banking request in the middle of a device cohort (which
    /// `classify` never admits, but `execute` must survive) may not shift
    /// the members behind it onto their neighbours' pages: the cohort is
    /// voided, and the front end pads the empty reply with 500s.
    #[test]
    fn non_banking_request_mid_cohort_misroutes_no_reply() {
        let mut h = simt_handler();
        let summary =
            |user: u32| parse(&raw_http(RequestType::AccountSummary, 0, &[user, 0, 0, 0]));
        let stray = parse(b"GET /bank/nope.php?userid=9 HTTP/1.1\r\n\r\n");
        let cohort = vec![summary(3), stray, summary(5)];
        let key = BANKING_KEY;

        // No reply at any position, so none at the wrong one. (Dropping
        // the stray alone would put user 5's page at position 1.)
        assert!(h.execute(key, &cohort).is_empty());
        let clean = vec![summary(3), summary(5)];
        let many = h.execute_many(&[(key, cohort), (key, clean.clone())]);
        assert!(many[0].is_empty(), "voided cohort");
        assert_eq!(many[1], h.execute(key, &clean), "its batch neighbour runs");
        assert_eq!((h.cohorts, h.served), (2, 4));
    }

    /// A scrape never sees half a cohort: one thread folds a fixed
    /// cohort result into the device registry over and over while this
    /// one exports it, and every export has as many kernel-time samples
    /// as cohorts and the cohort's launches for each.
    #[test]
    fn device_scrapes_are_whole_under_a_concurrent_writer() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::thread;

        let opts = CohortOptions {
            session_capacity: 64,
            ..CohortOptions::default()
        };
        let store = BankStore::generate(16, 1);
        let mut sessions = SessionArrayHost::new(64, opts.session_salt);
        let reqs = crate::genreq::RequestGenerator::new(16, 3).uniform(
            RequestType::AccountSummary,
            4,
            &mut sessions,
        );
        let gpu = Gpu::new(GpuConfig::gtx_titan());
        let result = crate::runner::run_cohort_traced(
            &Workload::build(),
            &store,
            &mut sessions,
            &reqs,
            &gpu,
            &opts,
            &NoopRecorder,
        )
        .expect("cohort runs");
        let per_cohort = result.launches.len() as u64;
        assert!(per_cohort > 1);

        let registry = Arc::new(MetricRegistry::new());
        let metrics = DeviceMetrics::register(&registry);
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut cohorts = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    metrics.note_cohort(&result, 4);
                    cohorts += 1;
                }
                cohorts
            })
        };
        let (mut reads, mut seen) = (0u64, 0u64);
        // Keep reading until the writer has been seen at work.
        while reads < 100_000 || seen == 0 {
            reads += 1;
            let (mut cohorts, mut launches, mut kernel) = (0, 0, 0);
            for e in registry.export() {
                match (e.name.as_str(), e.value) {
                    ("rhythm_device_cohorts_total", MetricValue::Counter(c)) => cohorts = c,
                    ("rhythm_device_launches_total", MetricValue::Counter(c)) => launches = c,
                    ("rhythm_device_kernel_seconds", MetricValue::Histogram(h)) => {
                        kernel = h.count()
                    }
                    _ => {}
                }
            }
            assert_eq!(cohorts, kernel, "torn scrape after {reads} exports");
            assert_eq!(launches, cohorts * per_cohort, "torn scrape after {reads}");
            seen = cohorts;
        }
        stop.store(true, Ordering::Relaxed);
        assert!(writer.join().unwrap() >= seen && seen > 0);
    }

    #[test]
    fn device_metrics_track_cohorts() {
        let registry = Arc::new(MetricRegistry::new());
        let mut h = simt_handler().with_metrics(&registry);

        let login = parse(b"POST /bank/login.php HTTP/1.1\r\nContent-Length: 8\r\n\r\nuserid=5");
        let key = h.classify(&login).expect("classifies");
        let resp = h.execute(key, std::slice::from_ref(&login));
        assert_eq!(resp.len(), 1);

        // A batch runs through the trait's `execute_many`, one cohort
        // after another.
        let summary =
            parse(b"GET /bank/account_summary.php?userid=3 HTTP/1.1\r\nCookie: SID=7\r\n\r\n");
        let batch = vec![
            (BANKING_KEY, vec![login.clone()]),
            (BANKING_KEY, vec![summary.clone()]),
            (BANKING_KEY, vec![summary]),
        ];
        let out = h.execute_many(&batch);
        assert_eq!(out.len(), 3);

        let metrics = DeviceMetrics::register(&registry);
        registry.update(|m| {
            assert_eq!(*m.counter(metrics.cohorts), 4);
            assert_eq!(*m.counter(metrics.served), 4);
            assert_eq!(*m.counter(metrics.faults), 0);
            assert!(*m.counter(metrics.launches) >= 4);
            assert!(*m.counter(metrics.warp_instructions) > 0);
            let eff = *m.gauge(metrics.simd_efficiency);
            assert!(eff > 0.0 && eff <= 1.0, "efficiency in (0, 1]: {eff}");
            assert_eq!(m.histogram(metrics.kernel_seconds).count(), 4);
        });
        assert_eq!(h.key_name(RequestType::Login.id()), "login.php");
        assert_eq!(h.key_name(999), "key_999");
    }
}
