//! The poll-style cohort reactor: non-blocking accept/read over
//! `std::net`, cohort formation via `rhythm-core`'s context pool, and
//! overload shedding.
//!
//! The connection/cohort state machine lives in [`Reactor`], which owns
//! admitted connections but no listener: streams are handed to it via
//! [`Reactor::admit`]. [`crate::shard::ShardedServer`] is the server: one
//! acceptor feeding one reactor thread per handler.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rhythm_core::{CohortPool, CohortState, ContextId};
use rhythm_http::{HttpRequest, ParseError};

use crate::admin;
use crate::conn::RequestAccumulator;
use crate::controller::{Controller, ControllerConfig};
use crate::metrics::{ShardMetrics, Telemetry};
use crate::responses;

/// Executes one uniform-key cohort of parsed requests.
///
/// `rhythm-net` forms cohorts; what a cohort *does* is the workload's
/// business. `rhythm-banking` implements this for the native (scalar) and
/// SIMT device paths.
pub trait CohortHandler {
    /// Map a request to its cohort key (the paper groups by request
    /// type). `None` means the request has no kernel — it is answered
    /// immediately with [`CohortHandler::reject`] and never batched.
    fn classify(&self, req: &HttpRequest) -> Option<u32>;

    /// Execute one cohort of same-key requests, returning one raw HTTP
    /// response per request, in order. Must not panic on odd inputs: a
    /// short return is padded with `500`s by the server.
    fn execute(&mut self, key: u32, requests: &[HttpRequest]) -> Vec<Vec<u8>>;

    /// Execute a batch of cohorts that became launchable in the same poll
    /// iteration, in launch order, returning one response vector per
    /// cohort (aligned with `cohorts`).
    ///
    /// The default runs each cohort through [`CohortHandler::execute`]
    /// sequentially. Device-backed handlers may override it to keep the
    /// device saturated with concurrent per-type launches (the HyperQ
    /// path), as long as results stay identical to sequential execution
    /// in launch order.
    fn execute_many(&mut self, cohorts: &[(u32, Vec<HttpRequest>)]) -> Vec<Vec<Vec<u8>>> {
        cohorts
            .iter()
            .map(|(key, reqs)| self.execute(*key, reqs))
            .collect()
    }

    /// Response for a request [`CohortHandler::classify`] refused.
    fn reject(&self, _req: &HttpRequest) -> Vec<u8> {
        responses::not_found_404()
    }

    /// Human-readable name for a cohort key, used as the `type` label on
    /// live latency histograms. Called at most once per key per shard.
    fn key_name(&self, key: u32) -> String {
        format!("key_{key}")
    }
}

/// Front-end configuration.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Admitted-connection cap **per reactor**; connections beyond it are
    /// shed with `503` + `Retry-After` at admission time.
    pub max_connections: usize,
    /// Per-request size cap (headers + declared body); larger gets `413`.
    pub max_request_bytes: usize,
    /// Idle connections (no bytes, no responses in flight) older than
    /// this are reaped — a stalled or half-open client cannot hold a slot
    /// forever. Connections with queued output that accept no bytes for
    /// this long (stalled readers) are reaped too.
    pub read_deadline: Duration,
    /// Target cohort size (requests per kernel launch).
    pub cohort_size: usize,
    /// Formation timeout: a PartiallyFull cohort launches at this age
    /// even if not full (paper: bounded extra delay).
    pub fill_timeout: Duration,
    /// Preallocated cohort contexts; running out sheds with `503`. One
    /// context is open per distinct cohort key inside a fill window, so
    /// the default (16) must cover the key population: the banking
    /// workload has 14 request types, and with fewer contexts its Table 2
    /// mix is shed at light load.
    pub pool_contexts: u32,
    /// Initial sleep between polls when nothing progressed. Grows
    /// exponentially up to [`NetConfig::idle_sleep_max`] while the loop
    /// stays idle and resets on any progress, so an idle reactor does not
    /// burn its core (with N reactors, N cores).
    pub idle_sleep: Duration,
    /// Cap for the idle-sleep exponential backoff.
    pub idle_sleep_max: Duration,
    /// Per-connection queued-output cap in bytes (write buffer plus
    /// out-of-order responses waiting for earlier sequences). A
    /// connection at or over the cap stops being **read** until the
    /// backlog drains, so a pipelining client that stops reading cannot
    /// grow server memory without bound.
    pub max_queued_bytes: usize,
    /// Max complete requests parsed per connection per poll. Responses
    /// are only produced for parsed requests, so together with
    /// [`NetConfig::max_queued_bytes`] this bounds how far a deep
    /// pipeline released from a backpressure pause can spike the queued
    /// backlog in a single poll; leftover bytes stay buffered and parse
    /// on later polls. Sized generously by default — it only binds on
    /// pipelines deeper than several cohorts per poll.
    pub max_parse_per_poll: usize,
    /// `Retry-After` seconds advertised on `503` sheds.
    pub retry_after_s: u32,
    /// Enable the live telemetry plane: seqlock counter publication, live
    /// latency/fill histograms, the flight recorder, and the in-band
    /// admin endpoints (`/metrics`, `/healthz`, `/trace`). With `false`
    /// the reactor runs bare — no publication, no admin interception —
    /// which is the baseline for the metering-overhead gate. Responses on
    /// the workload path are byte-identical either way.
    pub telemetry: bool,
    /// Declared end-to-end p99 latency SLO the adaptive controller
    /// steers against. Ignored unless [`NetConfig::adaptive`] is set.
    pub slo_p99: Duration,
    /// Enable SLO-aware adaptive batching: a per-shard
    /// [`crate::controller::Controller`] observes the live latency/fill
    /// histograms and drives target cohort depth and fill deadline in
    /// place of the fixed `cohort_size`/`fill_timeout` pair
    /// (`cohort_size` stays the capacity ceiling, `fill_timeout` the
    /// pre-first-tick deadline). Purely observational with respect to
    /// results: responses are byte-identical at any setting. Requires
    /// [`NetConfig::telemetry`].
    pub adaptive: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 256,
            max_request_bytes: 16 * 1024,
            read_deadline: Duration::from_secs(10),
            cohort_size: 32,
            fill_timeout: Duration::from_millis(2),
            pool_contexts: 16,
            idle_sleep: Duration::from_micros(200),
            idle_sleep_max: Duration::from_millis(5),
            max_queued_bytes: 256 * 1024,
            max_parse_per_poll: 256,
            retry_after_s: 1,
            telemetry: true,
            slo_p99: Duration::from_millis(20),
            adaptive: false,
        }
    }
}

/// Counters accumulated over one reactor run.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct NetStats {
    /// Connections admitted.
    pub accepted: u64,
    /// Connections shed at admission time (over the connection cap).
    pub rejected_over_cap: u64,
    /// Peak simultaneous admitted connections.
    pub peak_connections: usize,
    /// Complete requests parsed off sockets.
    pub requests: u64,
    /// Responses produced by the cohort handler.
    pub responses: u64,
    /// Responses whose connection vanished before delivery.
    pub responses_dropped: u64,
    /// Cohorts launched.
    pub cohorts: u64,
    /// Cohorts launched full.
    pub full_launches: u64,
    /// Cohorts launched by the formation timeout.
    pub timeout_launches: u64,
    /// Sum of launch fills (see [`NetStats::mean_fill`]).
    pub fill_sum: f64,
    /// Sum of cohort sizes at launch (requests per launch).
    pub launched_requests: u64,
    /// Requests shed with `503` (pool exhausted or FSM refusal).
    pub shed_503: u64,
    /// Requests rejected with `413` (size cap).
    pub too_large_413: u64,
    /// Requests rejected with `400` (malformed).
    pub bad_request_400: u64,
    /// Requests the handler refused to classify (`404` by default).
    pub unclassified: u64,
    /// Fallible-FSM refusals survived without panicking.
    pub fsm_rejections: u64,
    /// Idle/half-open connections reaped by the read deadline.
    pub reaped_idle: u64,
    /// Connections with queued output reaped because the peer stopped
    /// reading for a full read-deadline.
    pub reaped_stalled: u64,
    /// No-progress poll iterations that slept (idle backoff engaged).
    pub idle_polls: u64,
    /// Socket reads skipped because the connection's queued output was at
    /// or over [`NetConfig::max_queued_bytes`] (write backpressure).
    pub reads_paused: u64,
    /// Largest per-connection queued-output backlog observed, in bytes.
    pub peak_queued_bytes: u64,
    /// Bytes read off sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Admin-surface requests (`/metrics`, `/healthz`, `/trace`) answered
    /// in-band. Counted separately from [`NetStats::requests`] so
    /// workload accounting stays exact while a scraper polls.
    pub admin_requests: u64,
}

impl NetStats {
    /// Mean cohort fill at launch (1.0 = always full).
    pub fn mean_fill(&self) -> f64 {
        if self.cohorts == 0 {
            0.0
        } else {
            self.fill_sum / self.cohorts as f64
        }
    }

    /// Mean requests per cohort launch.
    pub fn mean_requests_per_launch(&self) -> f64 {
        if self.cohorts == 0 {
            0.0
        } else {
            self.launched_requests as f64 / self.cohorts as f64
        }
    }

    /// Fold another reactor's counters into this one (sums counters,
    /// maxes peaks) — the cross-shard aggregate of a sharded run.
    pub fn merge(&mut self, other: &NetStats) {
        self.accepted += other.accepted;
        self.rejected_over_cap += other.rejected_over_cap;
        self.peak_connections = self.peak_connections.max(other.peak_connections);
        self.requests += other.requests;
        self.responses += other.responses;
        self.responses_dropped += other.responses_dropped;
        self.cohorts += other.cohorts;
        self.full_launches += other.full_launches;
        self.timeout_launches += other.timeout_launches;
        self.fill_sum += other.fill_sum;
        self.launched_requests += other.launched_requests;
        self.shed_503 += other.shed_503;
        self.too_large_413 += other.too_large_413;
        self.bad_request_400 += other.bad_request_400;
        self.unclassified += other.unclassified;
        self.fsm_rejections += other.fsm_rejections;
        self.reaped_idle += other.reaped_idle;
        self.reaped_stalled += other.reaped_stalled;
        self.idle_polls += other.idle_polls;
        self.reads_paused += other.reads_paused;
        self.peak_queued_bytes = self.peak_queued_bytes.max(other.peak_queued_bytes);
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.admin_requests += other.admin_requests;
    }
}

/// One admitted connection's state.
#[derive(Debug)]
struct Connection {
    stream: TcpStream,
    acc: RequestAccumulator,
    /// Bytes queued for writing; `out_pos` marks how far we've written.
    out: Vec<u8>,
    out_pos: usize,
    /// Next request sequence number to assign.
    next_seq: u64,
    /// Next sequence number whose response goes on the wire (responses
    /// must leave in request order even when cohorts retire out of
    /// order).
    next_to_send: u64,
    /// Completed responses waiting for earlier sequences.
    ready: BTreeMap<u64, Vec<u8>>,
    /// Bytes held in `ready` (backpressure accounting).
    ready_bytes: usize,
    last_activity: Instant,
    /// Stop reading; close once drained (fatal parse error sent).
    closing: bool,
    /// Peer closed its write side.
    eof: bool,
    /// I/O error; drop without draining.
    dead: bool,
}

impl Connection {
    fn new(stream: TcpStream, max_request_bytes: usize) -> Self {
        Connection {
            stream,
            acc: RequestAccumulator::new(max_request_bytes),
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            next_to_send: 0,
            ready: BTreeMap::new(),
            ready_bytes: 0,
            last_activity: Instant::now(),
            closing: false,
            eof: false,
            dead: false,
        }
    }

    /// Responses assigned but not yet appended to the write buffer.
    fn outstanding(&self) -> u64 {
        self.next_seq - self.next_to_send
    }

    fn out_drained(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    /// Bytes queued toward this connection: unwritten output plus
    /// responses parked out of order. This is what the backpressure cap
    /// bounds.
    fn queued_bytes(&self) -> usize {
        (self.out.len() - self.out_pos) + self.ready_bytes
    }

    /// Record the response for `seq` and move every now-in-order response
    /// into the write buffer.
    fn complete(&mut self, seq: u64, bytes: Vec<u8>) {
        self.ready_bytes += bytes.len();
        self.ready.insert(seq, bytes);
        while let Some(b) = self.ready.remove(&self.next_to_send) {
            self.ready_bytes -= b.len();
            self.out.extend_from_slice(&b);
            self.next_to_send += 1;
        }
    }

    /// Assign a sequence number and complete it immediately (canned
    /// responses that never reach a cohort).
    fn respond_now(&mut self, bytes: Vec<u8>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.complete(seq, bytes);
    }
}

/// A parsed request waiting in a cohort context, remembering where its
/// response must go.
#[derive(Clone, Debug)]
struct Pending {
    conn: u64,
    seq: u64,
    req: HttpRequest,
    arrived: Instant,
}

/// The connection/cohort state machine of one reactor thread: admitted
/// connections, per-type cohort contexts, and the run's counters.
///
/// A reactor owns no listener — streams are pushed in through
/// [`Reactor::admit`] (by the [`crate::shard::ShardedServer`] acceptor, or
/// by a test stepping the reactor by hand). Each [`Reactor::poll`] reads
/// every readable socket,
/// parses complete requests, dispatches them into cohort contexts, marks
/// full or timed-out cohorts, launches the marked batch through the
/// [`CohortHandler`] (one `execute_many` call, so device handlers can
/// keep concurrent per-type launches in flight), and flushes responses.
#[derive(Debug)]
pub struct Reactor<H> {
    config: NetConfig,
    handler: H,
    pool: CohortPool<Pending>,
    conns: HashMap<u64, Connection>,
    next_conn_id: u64,
    stats: NetStats,
    epoch: Instant,
    /// Contexts marked launchable this poll: `(context, by_timeout)`.
    launchable: Vec<(ContextId, bool)>,
    /// The cross-shard telemetry plane this reactor publishes into (a
    /// standalone single-shard plane until
    /// [`Reactor::attach_telemetry`] rebinds it).
    telemetry: Arc<Telemetry>,
    /// This reactor's own shard registry within [`Reactor::telemetry`]
    /// (cached so the hot path never indexes through the plane).
    metrics: Arc<ShardMetrics>,
    /// Interned flight-recorder name ids (see [`FlightNames`]).
    flight_names: FlightNames,
    /// The adaptive batching controller (`None` runs the fixed
    /// `cohort_size`/`fill_timeout` policy).
    controller: Option<Controller>,
    /// Cohorts launch without waiting for the deadline once they hold
    /// this many requests. Fixed mode: `cohort_size` (so only the FSM's
    /// own Full transition triggers early launch).
    target_depth: usize,
    /// Current fill deadline, seconds. Fixed mode: `fill_timeout`.
    deadline_s: f64,
}

/// Interned flight-recorder event-name ids, re-interned whenever the
/// telemetry plane is rebound.
#[derive(Clone, Copy, Debug)]
struct FlightNames {
    /// "cohort batch" span (track 1; arg = requests in the batch).
    cohorts: u32,
    /// "shed 503" instant (track 0).
    shed: u32,
    /// "admin" instant (track 0).
    admin: u32,
    /// Sampled "poll" instant (track 0; arg = 1 when the poll progressed).
    poll: u32,
}

impl FlightNames {
    fn intern(metrics: &ShardMetrics) -> Self {
        let f = metrics.flight();
        FlightNames {
            cohorts: f.intern("cohort batch"),
            shed: f.intern("shed 503"),
            admin: f.intern("admin"),
            poll: f.intern("poll"),
        }
    }
}

impl<H: CohortHandler> Reactor<H> {
    /// A reactor over `handler`.
    ///
    /// # Panics
    ///
    /// Panics on a zero cohort size, context count, or connection cap.
    pub fn new(config: NetConfig, handler: H) -> Self {
        assert!(config.cohort_size > 0, "cohort size must be nonzero");
        assert!(config.pool_contexts > 0, "need at least one context");
        assert!(config.max_connections > 0, "need at least one connection");
        assert!(
            !config.adaptive || config.telemetry,
            "adaptive batching observes the live histograms; enable telemetry"
        );
        let pool = CohortPool::new(config.pool_contexts, config.cohort_size);
        let telemetry = Telemetry::new(1);
        let metrics = Arc::clone(telemetry.shard(0));
        let flight_names = FlightNames::intern(&metrics);
        let controller = config
            .adaptive
            .then(|| Controller::new(ControllerConfig::from_net(&config), config.fill_timeout));
        let target_depth = config.cohort_size;
        let deadline_s = config.fill_timeout.as_secs_f64();
        Reactor {
            config,
            handler,
            pool,
            conns: HashMap::new(),
            next_conn_id: 0,
            stats: NetStats::default(),
            epoch: Instant::now(),
            launchable: Vec::new(),
            telemetry,
            metrics,
            flight_names,
            controller,
            target_depth,
            deadline_s,
        }
    }

    /// Rebind this reactor to shard `shard` of a shared telemetry plane
    /// (the sharded server attaches every reactor to one plane so
    /// `/metrics` on any connection sees all shards).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range for the plane.
    pub fn attach_telemetry(&mut self, telemetry: &Arc<Telemetry>, shard: usize) {
        assert!(shard < telemetry.shards(), "shard out of range");
        self.telemetry = Arc::clone(telemetry);
        self.metrics = Arc::clone(telemetry.shard(shard));
        self.flight_names = FlightNames::intern(&self.metrics);
    }

    /// The telemetry plane this reactor publishes into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Counters so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The reactor's configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Borrow the workload handler.
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Consume the reactor, yielding the run's counters and the handler.
    pub fn into_parts(self) -> (NetStats, H) {
        (self.stats, self.handler)
    }

    /// Record one no-progress poll that slept (idle backoff accounting;
    /// run loops call this before sleeping).
    pub fn note_idle(&mut self) {
        self.stats.idle_polls += 1;
    }

    /// Take ownership of an accepted stream: admit it (non-blocking, slot
    /// accounting) or shed it with `503` when this reactor is at its
    /// connection cap.
    pub fn admit(&mut self, stream: TcpStream) {
        if self.conns.len() >= self.config.max_connections {
            // Over the cap: shed at the door with an explicit retry hint
            // rather than queueing unboundedly.
            self.stats.rejected_over_cap += 1;
            let mut s = stream;
            let _ = s.set_nonblocking(false);
            let _ = s.write_all(&responses::shed_503(self.config.retry_after_s));
            let _ = s.shutdown(Shutdown::Both);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        self.stats.accepted += 1;
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        self.conns
            .insert(id, Connection::new(stream, self.config.max_request_bytes));
        self.stats.peak_connections = self.stats.peak_connections.max(self.conns.len());
    }

    /// One non-blocking service iteration; returns whether anything
    /// progressed (callers should back off briefly when it did not).
    pub fn poll(&mut self) -> bool {
        let mut progress = false;
        let parsed = self.read_sockets(&mut progress);
        for p in parsed {
            self.dispatch(p);
            progress = true;
        }
        self.tick_controller();
        self.mark_launchable();
        progress |= self.flush_launches();
        progress |= self.write_sockets();
        self.reap();
        self.publish_metrics();
        if self.config.telemetry {
            // Sampled heartbeat on the flight recorder's shard track, so
            // a /trace dump shows the poll cadence without flooding the
            // ring at megahertz poll rates.
            let flight = self.metrics.flight();
            if flight.tick(256) {
                flight.instant(self.flight_names.poll, 0, flight.now_us(), progress as u64);
            }
        }
        progress
    }

    /// How many requests currently sit in open (PartiallyFull/Full)
    /// cohort contexts — the in-flight term of the accounting invariant.
    /// (No context is Busy at the call sites: launches complete within
    /// `flush_launches`.)
    fn in_cohort(&self) -> u64 {
        (0..self.pool.len() as ContextId)
            .filter(|&id| {
                matches!(
                    self.pool.get(id).state(),
                    CohortState::PartiallyFull | CohortState::Full
                )
            })
            .map(|id| self.pool.get(id).members().len() as u64)
            .sum()
    }

    /// Publish a consistent counter snapshot into the shard's seqlock
    /// cell (end of every poll, and after drain). This is the point at
    /// which `requests == responses + shed_503 + unclassified +
    /// in_cohort` must balance.
    fn publish_metrics(&self) {
        if !self.config.telemetry {
            return;
        }
        let in_cohort = self.in_cohort();
        debug_assert_eq!(
            self.stats.requests,
            self.stats.responses + self.stats.shed_503 + self.stats.unclassified + in_cohort,
            "accounting invariant broken at publish"
        );
        self.metrics
            .publish(&self.stats, in_cohort, self.conns.len() as u64);
    }

    /// After the stop flag: launch whatever is still partially formed and
    /// push out pending bytes (bounded, best effort).
    pub fn drain(&mut self) {
        for id in 0..self.pool.len() as ContextId {
            if self.pool.get(id).state() == CohortState::PartiallyFull {
                self.launchable.push((id, true));
            }
        }
        self.flush_launches();
        for _ in 0..64 {
            if !self.write_sockets() {
                break;
            }
        }
        self.publish_metrics();
    }

    /// Read every readable socket and parse complete requests. Requests
    /// are returned (rather than dispatched inline) so the borrow of the
    /// connection map ends before cohort dispatch begins.
    fn read_sockets(&mut self, progress: &mut bool) -> Vec<Pending> {
        let mut parsed = Vec::new();
        let mut chunk = [0u8; 4096];
        for (&id, conn) in self.conns.iter_mut() {
            if conn.closing || conn.dead || conn.eof {
                continue;
            }
            if conn.queued_bytes() >= self.config.max_queued_bytes {
                // Write backpressure: the peer is not draining its
                // responses, so stop reading (and thus stop creating
                // work) for this socket until the backlog clears.
                self.stats.reads_paused += 1;
                continue;
            }
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.acc.feed(&chunk[..n]);
                        self.stats.bytes_in += n as u64;
                        conn.last_activity = Instant::now();
                        *progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.dead {
                continue;
            }
            // Bounded parse quantum: the backpressure check above only
            // sees the backlog between polls, so without this cap a deep
            // pipeline released from a pause would be parsed (and
            // answered) all at once, spiking the queue to the whole
            // pipeline's response volume.
            let budget = self.config.max_parse_per_poll;
            let mut taken = 0usize;
            while taken < budget {
                match conn.acc.next_request() {
                    Ok(Some(req)) => {
                        taken += 1;
                        if self.config.telemetry {
                            if let Some(route) = admin::admin_route(&req) {
                                // Admin endpoints are answered here,
                                // before cohort formation: they never
                                // reach classify/dispatch and are counted
                                // apart from workload requests.
                                self.stats.admin_requests += 1;
                                let flight = self.metrics.flight();
                                flight.instant(self.flight_names.admin, 0, flight.now_us(), 0);
                                conn.respond_now(route.respond(&self.telemetry));
                                *progress = true;
                                continue;
                            }
                        }
                        self.stats.requests += 1;
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        parsed.push(Pending {
                            conn: id,
                            seq,
                            req,
                            arrived: Instant::now(),
                        });
                    }
                    Ok(None) => break,
                    Err(ParseError::TooLarge { .. }) => {
                        self.stats.too_large_413 += 1;
                        conn.respond_now(responses::too_large_413());
                        conn.closing = true;
                        break;
                    }
                    Err(e) => {
                        self.stats.bad_request_400 += 1;
                        conn.respond_now(responses::bad_request_400(&e.to_string()));
                        conn.closing = true;
                        break;
                    }
                }
            }
        }
        parsed
    }

    /// Dispatch one parsed request into a cohort context, shedding with
    /// `503` when no context can take it. Never panics: FSM refusals
    /// (which the guarded lookup makes unreachable) shed the request too.
    fn dispatch(&mut self, p: Pending) {
        let Some(key) = self.handler.classify(&p.req) else {
            self.stats.unclassified += 1;
            let resp = self.handler.reject(&p.req);
            self.route(p.conn, p.seq, resp);
            return;
        };
        let now_s = self.epoch.elapsed().as_secs_f64();
        let mut ctx = self.pool.open_for(key).or_else(|| self.pool.acquire());
        if ctx.is_none() {
            // Every context is occupied but some may only be waiting for
            // this poll's batched launch (already marked Full, past the
            // deadline, or at the adaptive target depth): flush the
            // batch to free them instead of shedding a request the old
            // immediate-launch server would have taken.
            self.mark_launchable();
            if !self.launchable.is_empty() {
                self.flush_launches();
                ctx = self.pool.open_for(key).or_else(|| self.pool.acquire());
            }
        }
        let Some(id) = ctx else {
            self.shed(p);
            return;
        };
        match self.pool.get_mut(id).add(p, key, now_s) {
            Ok(()) => {
                if self.pool.get(id).state() == CohortState::Full {
                    self.launchable.push((id, false));
                }
            }
            Err(rej) => {
                // One bad dispatch must never take down the loop: the
                // refused request is shed like a pool-exhaustion stall.
                self.stats.fsm_rejections += 1;
                self.shed(rej.request);
            }
        }
    }

    /// Answer `503` + `Retry-After` for a request no context can hold.
    fn shed(&mut self, p: Pending) {
        self.stats.shed_503 += 1;
        if self.config.telemetry {
            let flight = self.metrics.flight();
            flight.instant(self.flight_names.shed, 0, flight.now_us(), 1);
        }
        let resp = responses::shed_503(self.config.retry_after_s);
        self.route(p.conn, p.seq, resp);
    }

    /// Re-evaluate the adaptive controller (no-op between ticks and in
    /// fixed mode), updating the target depth and fill deadline the mark
    /// pass below launches against.
    fn tick_controller(&mut self) {
        let Some(ctl) = &mut self.controller else {
            return;
        };
        let now_s = self.epoch.elapsed().as_secs_f64();
        let d = ctl.observe(now_s, self.stats.requests, &self.metrics);
        self.target_depth = d.depth.min(self.config.cohort_size).max(1);
        self.deadline_s = d.deadline_s;
    }

    /// Mark PartiallyFull cohorts for this poll's launch batch: cohorts
    /// at or past the controller's target depth launch as "full" (in
    /// fixed mode depth equals capacity, so only the FSM's own Full
    /// transition in [`Reactor::dispatch`] fires that reason); cohorts
    /// older than the fill deadline launch as "timeout".
    fn mark_launchable(&mut self) {
        let now_s = self.epoch.elapsed().as_secs_f64();
        for id in 0..self.pool.len() as ContextId {
            if self.pool.get(id).state() != CohortState::PartiallyFull {
                continue;
            }
            if self.pool.get(id).members().len() >= self.target_depth {
                self.launchable.push((id, false));
            } else if now_s - self.pool.get(id).opened_at() >= self.deadline_s {
                self.launchable.push((id, true));
            }
        }
    }

    /// Time until the earliest PartiallyFull cohort's fill deadline, or
    /// `None` when no cohort is forming. Idle run loops clamp their
    /// backoff sleep to this so an exponentially grown idle sleep cannot
    /// overshoot a pending deadline and silently add queue latency.
    pub fn next_fill_deadline(&self) -> Option<Duration> {
        let now_s = self.epoch.elapsed().as_secs_f64();
        (0..self.pool.len() as ContextId)
            .filter(|&id| self.pool.get(id).state() == CohortState::PartiallyFull)
            .map(|id| self.deadline_s - (now_s - self.pool.get(id).opened_at()))
            .min_by(f64::total_cmp)
            .map(|s| Duration::from_secs_f64(s.max(0.0)))
    }

    /// The batching policy currently in force as `(target_depth,
    /// fill_deadline)` — the fixed config pair, or the adaptive
    /// controller's latest decision.
    pub fn batching(&self) -> (usize, Duration) {
        (self.target_depth, Duration::from_secs_f64(self.deadline_s))
    }

    /// Launch every context marked this poll through one
    /// [`CohortHandler::execute_many`] call and route the responses back
    /// onto their connections. Returns whether anything launched.
    fn flush_launches(&mut self) -> bool {
        if self.launchable.is_empty() {
            return false;
        }
        let marked = std::mem::take(&mut self.launchable);
        let mut batch: Vec<(u32, Vec<HttpRequest>)> = Vec::with_capacity(marked.len());
        // Per launched cohort: context id, member count, cohort key.
        let mut meta: Vec<(ContextId, usize, u32)> = Vec::with_capacity(marked.len());
        for (id, by_timeout) in marked {
            let fill = self.pool.get(id).fill();
            let n = self.pool.get(id).members().len();
            let key = self.pool.get(id).key();
            if self.pool.get_mut(id).launch().is_err() {
                // Unreachable (mark sites guard the state), but a refusal
                // only costs this launch attempt, not the server.
                self.stats.fsm_rejections += 1;
                continue;
            }
            self.stats.cohorts += 1;
            self.stats.launched_requests += n as u64;
            self.stats.fill_sum += fill;
            if by_timeout {
                self.stats.timeout_launches += 1;
            } else {
                self.stats.full_launches += 1;
            }
            if self.config.telemetry {
                self.metrics.record_fill(fill);
                let handler = &self.handler;
                self.metrics.record_launch(
                    key,
                    || handler.key_name(key),
                    by_timeout,
                    n as u64,
                    fill,
                );
            }
            let reqs: Vec<HttpRequest> = self
                .pool
                .get(id)
                .members()
                .iter()
                .map(|m| m.req.clone())
                .collect();
            batch.push((key, reqs));
            meta.push((id, n, key));
        }
        if batch.is_empty() {
            return false;
        }

        // The contexts stay Busy for the duration of the batched handler
        // call — the wall-clock analogue of the pipeline's execute phase.
        let total: usize = meta.iter().map(|&(_, n, _)| n).sum();
        let ft0 = if self.config.telemetry {
            self.metrics.flight().now_us()
        } else {
            0
        };
        let mut replies = self.handler.execute_many(&batch);
        if self.config.telemetry {
            let flight = self.metrics.flight();
            let ft1 = flight.now_us();
            flight.span(self.flight_names.cohorts, 1, ft0, ft1 - ft0, total as u64);
        }
        if replies.len() < batch.len() {
            // A handler that answered fewer cohorts than launched is a
            // bug it survives: the missing cohorts get padded 500s below.
            replies.resize_with(batch.len(), Vec::new);
        }

        for ((id, n, key), mut cohort_replies) in meta.into_iter().zip(replies) {
            if cohort_replies.len() < n {
                cohort_replies.resize_with(n, responses::internal_500);
            }
            let members = self.pool.get_mut(id).release().unwrap_or_default();
            for (m, resp) in members.into_iter().zip(cohort_replies) {
                self.stats.responses += 1;
                if self.config.telemetry {
                    let handler = &self.handler;
                    self.metrics.record_latency(
                        key,
                        || handler.key_name(key),
                        m.arrived.elapsed().as_secs_f64(),
                    );
                }
                self.route(m.conn, m.seq, resp);
            }
        }
        true
    }

    /// Deliver a response to its connection's ordered output queue.
    fn route(&mut self, conn: u64, seq: u64, bytes: Vec<u8>) {
        match self.conns.get_mut(&conn) {
            Some(c) => {
                c.complete(seq, bytes);
                self.stats.peak_queued_bytes =
                    self.stats.peak_queued_bytes.max(c.queued_bytes() as u64);
            }
            None => self.stats.responses_dropped += 1,
        }
    }

    fn write_sockets(&mut self) -> bool {
        let mut progress = false;
        for conn in self.conns.values_mut() {
            if conn.dead {
                continue;
            }
            while !conn.out_drained() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out_pos += n;
                        self.stats.bytes_out += n as u64;
                        conn.last_activity = Instant::now();
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.out_drained() && !conn.out.is_empty() {
                conn.out.clear();
                conn.out_pos = 0;
            } else if conn.out_pos >= 16 * 1024 {
                // Partial drain: reclaim the written prefix so a slowly
                // reading peer does not keep already-sent bytes resident.
                conn.out.drain(..conn.out_pos);
                conn.out_pos = 0;
            }
        }
        progress
    }

    /// Drop dead connections, finished `Connection: close` conversations,
    /// idle/half-open peers past the read deadline, and stalled readers
    /// that accepted no queued output for a full deadline.
    fn reap(&mut self) {
        let deadline = self.config.read_deadline;
        let stats = &mut self.stats;
        let now = Instant::now();
        self.conns.retain(|_, c| {
            if c.dead {
                return false;
            }
            let drained = c.out_drained() && c.outstanding() == 0;
            if (c.closing || c.eof) && drained {
                return false;
            }
            let stale = now.duration_since(c.last_activity) >= deadline;
            if drained && stale {
                // No response owed and nothing arriving: a stalled or
                // half-open client. Reap so it cannot hold a slot.
                stats.reaped_idle += 1;
                return false;
            }
            if !drained && stale && c.queued_bytes() > 0 {
                // Output queued but the peer accepted nothing for a full
                // deadline: a stalled reader. Reaping bounds how long the
                // backpressured backlog can sit in memory.
                stats.reaped_stalled += 1;
                return false;
            }
            true
        });
    }
}
