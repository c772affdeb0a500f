//! The readiness-driven cohort reactor: one level-triggered `epoll` wait
//! per turn over non-blocking `std::net` sockets, cohort formation via
//! `rhythm-core`'s context pool, and overload shedding.
//!
//! The connection/cohort state machine lives in [`Reactor`], which owns
//! admitted connections but no listener: streams are handed to it via
//! [`Reactor::admit`]. [`crate::shard::ShardedServer`] is the server: one
//! acceptor feeding one reactor thread per handler.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rhythm_core::{CohortPool, CohortState, ContextId};
use rhythm_http::{HttpRequest, ParseError};
use rhythm_obs::{ArgValue, Clock, Recorder};

use crate::admin;
use crate::conn::RequestAccumulator;
use crate::metrics::{LiveSnapshot, ShardMetrics, Telemetry};
use crate::responses;
use crate::sys::{Interest, Poller, Timer, Waker};

/// Executes one cohort of parsed requests that share a cohort key.
///
/// `rhythm-net` forms cohorts; what a cohort *does* is the workload's
/// business. `rhythm-banking` implements this for the native (scalar) and
/// SIMT device paths, with one key for every Banking page: its device path
/// parses a cohort on the device and splits it by type there.
pub trait CohortHandler {
    /// Map a request to its cohort key. `None` means the request has no
    /// kernel — it is answered immediately with [`CohortHandler::reject`]
    /// and never batched.
    fn classify(&self, req: &HttpRequest) -> Option<u32>;

    /// Execute one cohort of same-key requests, returning one raw HTTP
    /// response per request, in order. Must not panic on odd inputs: a
    /// short return is padded with `500`s by the server.
    fn execute(&mut self, key: u32, requests: &[HttpRequest]) -> Vec<Vec<u8>>;

    /// Execute a batch of cohorts that became launchable in the same
    /// reactor turn, in launch order, returning one response vector per
    /// cohort (aligned with `cohorts`).
    ///
    /// The default runs each cohort through [`CohortHandler::execute`]
    /// sequentially; both banking handlers use it. An override (a wrapper
    /// that times the batch, say) must return what sequential execution in
    /// launch order returns.
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

    /// The key that labels the latency of `req`, a member of a `key`
    /// cohort; [`CohortHandler::key_name`] names it. The default is the
    /// cohort key. A handler whose one key spans several pages can label
    /// each member by its page instead.
    fn label_key(&self, key: u32, _req: &HttpRequest) -> u32 {
        key
    }

    /// Human-readable name for a label key, used as the `type` label on
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
    /// context is open per distinct cohort key inside a fill window, and
    /// one more for each cohort that fills before its batch launches.
    pub pool_contexts: u32,
    /// Per-connection queued-output cap in bytes (write buffer plus
    /// out-of-order responses waiting for earlier sequences). A
    /// connection at or over the cap stops being **read** until the
    /// backlog drains, so a pipelining client that stops reading cannot
    /// grow server memory without bound.
    pub max_queued_bytes: usize,
    /// Max complete requests parsed per connection per turn. Responses
    /// are only produced for parsed requests, so together with
    /// [`NetConfig::max_queued_bytes`] this bounds how far a deep
    /// pipeline released from a backpressure pause can spike the queued
    /// backlog in a single turn; leftover bytes stay buffered and parse
    /// on the following turns, which do not wait. Sized generously by
    /// default — it only binds on pipelines deeper than several cohorts
    /// per turn.
    pub max_parse_per_poll: usize,
    /// Enable the live telemetry plane: per-poll counter publication, live
    /// latency/fill histograms, the event ring, and the in-band
    /// admin endpoints (`/metrics`, `/healthz`, `/trace`). With `false`
    /// the reactor runs bare — no publication, no admin interception —
    /// which is the baseline for the metering-overhead gate. Responses on
    /// the workload path are byte-identical either way.
    pub telemetry: bool,
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
            max_queued_bytes: 256 * 1024,
            max_parse_per_poll: 256,
            telemetry: true,
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
    /// Requests shed with `503` (no cohort context could take them).
    pub shed_503: u64,
    /// Requests rejected with `413` (size cap).
    pub too_large_413: u64,
    /// Requests rejected with `400` (malformed).
    pub bad_request_400: u64,
    /// Requests the handler refused to classify (`404` by default).
    pub unclassified: u64,
    /// Cohort launches the FSM refused, survived without panicking.
    pub fsm_rejections: u64,
    /// Idle/half-open connections reaped by the read deadline.
    pub reaped_idle: u64,
    /// Connections with queued output reaped because the peer stopped
    /// reading for a full read-deadline.
    pub reaped_stalled: u64,
    /// Turns that made no progress, whatever woke them: a timer firing
    /// with no cohort due (a reap pass included), or — the failure this
    /// counter exists to expose — readiness the reactor keeps being told
    /// about and does nothing with.
    pub idle_polls: u64,
    /// Times a connection entered the backpressure pause: its queued
    /// output reached [`NetConfig::max_queued_bytes`], so it stopped being
    /// read until the backlog drained.
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
    last_activity: f64,
    /// Stop reading; close once drained (fatal parse error sent).
    closing: bool,
    /// Peer closed its write side.
    eof: bool,
    /// I/O error; drop without draining.
    dead: bool,
    /// What the poller currently reports this socket for.
    armed: Interest,
    /// The parse quantum ran out with bytes still buffered: the
    /// connection is on the reactor's backlog and needs no readiness to
    /// be serviced again.
    unparsed: bool,
    /// On this turn's touched list (events arrived or a response was
    /// routed), so the end of the turn writes, re-arms and maybe closes
    /// it.
    touched: bool,
}

impl Connection {
    fn new(stream: TcpStream, max_request_bytes: usize, now_s: f64) -> Self {
        Connection {
            stream,
            acc: RequestAccumulator::new(max_request_bytes),
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            next_to_send: 0,
            ready: BTreeMap::new(),
            ready_bytes: 0,
            last_activity: now_s,
            closing: false,
            eof: false,
            dead: false,
            armed: Interest::READ,
            unparsed: false,
            touched: false,
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

    /// May requests be taken from this connection: not after a fatal
    /// parse error was answered, and not while its queued output is at or
    /// over the cap (write backpressure: the peer is not draining its
    /// responses, so stop creating work for it until the backlog clears).
    fn accepting(&self, max_queued_bytes: usize) -> bool {
        !self.closing && !self.dead && self.queued_bytes() < max_queued_bytes
    }

    /// What the poller should report this socket for — the one place
    /// interest is derived from state: readable while requests are being
    /// accepted and the peer has not finished sending, writable while
    /// output is undrained.
    fn interest(&self, max_queued_bytes: usize) -> Interest {
        Interest {
            readable: self.accepting(max_queued_bytes) && !self.eof,
            writable: !self.out_drained(),
        }
    }

    /// Nothing more will happen on this connection: it failed, or it is
    /// closing (ours or the peer's doing) and every response owed has
    /// been written.
    fn finished(&self) -> bool {
        self.dead
            || ((self.closing || (self.eof && !self.unparsed))
                && self.out_drained()
                && self.outstanding() == 0)
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

/// Where the response of a request waiting in a cohort context must go.
/// The request itself waits in [`Reactor::requests`] under the same
/// context id, so a launch can hand it to the handler without a copy.
#[derive(Clone, Copy, Debug)]
struct Pending {
    conn: u64,
    seq: u64,
    /// The wake that found the request, in the reactor's clock.
    arrived: f64,
}

/// Poller tokens of the reactor's own two descriptors; connection ids
/// count up from zero and never reach them.
const WAKE_TOKEN: u64 = u64::MAX;
const TIMER_TOKEN: u64 = u64::MAX - 1;

/// The acceptor's end of a reactor: hands streams over and ends the
/// reactor's wait.
#[derive(Clone, Debug)]
pub(crate) struct Handoff {
    streams: Sender<TcpStream>,
    waker: Arc<Waker>,
}

impl Handoff {
    /// Queue an accepted stream and wake the reactor to admit it.
    pub(crate) fn send(&self, stream: TcpStream) {
        // A send only fails if the reactor is gone; the stream drops and
        // the peer sees a reset.
        let _ = self.streams.send(stream);
        self.waker.wake();
    }

    /// End the reactor's wait so it looks at the stop flag.
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }
}

/// The connection/cohort state machine of one reactor thread: admitted
/// connections, per-key cohort contexts, and the run's counters.
///
/// A reactor owns no listener — streams reach it over its hand-off
/// channel from the [`crate::shard::ShardedServer`] acceptor, or through
/// [`Reactor::admit`] from a test stepping it by hand. Each
/// [`Reactor::turn`] takes one readiness report from the poller, reads
/// the sockets it names, parses complete requests, dispatches them into
/// cohort contexts, marks full or timed-out cohorts, launches the marked
/// batch through the [`CohortHandler`] (one `execute_many` call, run on
/// this thread), and writes the connections that were answered.
#[derive(Debug)]
pub struct Reactor<H> {
    config: NetConfig,
    handler: H,
    pool: CohortPool<Pending>,
    /// The parsed requests of each context's members, in member order,
    /// indexed by context id.
    requests: Vec<Vec<HttpRequest>>,
    conns: HashMap<u64, Connection>,
    next_conn_id: u64,
    stats: NetStats,
    epoch: Instant,
    /// The one clock: seconds since `epoch` at the last clock read.
    now_s: f64,
    /// Contexts marked launchable this turn: `(context, by_timeout)`.
    launchable: Vec<(ContextId, bool)>,
    poller: Poller,
    /// Fires at the earliest fill deadline or, if sooner, the next reap.
    timer: Timer,
    /// When the timer's current arming fires, in seconds since `epoch`;
    /// `None` once it has fired.
    timer_due_s: Option<f64>,
    /// Streams the acceptor has handed over but this reactor has not yet
    /// admitted.
    inbox: Receiver<TcpStream>,
    handoff: Handoff,
    /// Connections to write, re-arm and maybe close when the turn ends.
    touched: Vec<u64>,
    /// Connections whose parse quantum ran out with bytes left over.
    backlog: Vec<u64>,
    /// When the next pass checks connections against the read deadline.
    next_reap_s: f64,
    /// The cross-shard telemetry plane this reactor publishes into (a
    /// standalone single-shard plane until
    /// [`Reactor::attach_telemetry`] rebinds it).
    telemetry: Arc<Telemetry>,
    /// This reactor's own shard registry within [`Reactor::telemetry`]
    /// (cached so the hot path never indexes through the plane).
    metrics: Arc<ShardMetrics>,
    /// [`NetConfig::fill_timeout`] in seconds, the unit cohort ages are
    /// kept in.
    fill_s: f64,
    /// This turn's launch fills and responses' `(label key, latency)`,
    /// published with its counters (only with telemetry on).
    fills: Vec<f64>,
    latencies: Vec<(u32, f64)>,
    /// Turns taken, which sample the ring's `poll` heartbeat.
    turns: u64,
}

/// Put a connection on the turn's touched list (once).
fn touch(conn: &mut Connection, id: u64, touched: &mut Vec<u64>) {
    if !conn.touched {
        conn.touched = true;
        touched.push(id);
    }
}

/// Write as much queued output as the socket takes, stamping activity at
/// `now_s`; returns whether any went out.
fn write_out(conn: &mut Connection, now_s: f64, stats: &mut NetStats) -> bool {
    let mut progress = false;
    while !conn.out_drained() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.out_pos += n;
                stats.bytes_out += n as u64;
                conn.last_activity = now_s;
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
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
    progress
}

impl<H: CohortHandler> Reactor<H> {
    /// A reactor over `handler`.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create or register the reactor's poller,
    /// wake descriptor or timer (descriptor exhaustion).
    ///
    /// # Panics
    ///
    /// Panics on a zero cohort size, context count, or connection cap.
    pub fn new(config: NetConfig, handler: H) -> io::Result<Self> {
        assert!(config.cohort_size > 0, "cohort size must be nonzero");
        assert!(config.pool_contexts > 0, "need at least one context");
        assert!(config.max_connections > 0, "need at least one connection");
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        poller.add(&*waker, WAKE_TOKEN, Interest::READ)?;
        let timer = Timer::new()?;
        poller.add(&timer, TIMER_TOKEN, Interest::READ)?;
        let (streams, inbox) = std::sync::mpsc::channel();
        let pool = CohortPool::new(config.pool_contexts, config.cohort_size);
        let requests = (0..config.pool_contexts).map(|_| Vec::new()).collect();
        let telemetry = Telemetry::new(1);
        let metrics = Arc::clone(telemetry.shard(0));
        let fill_s = config.fill_timeout.as_secs_f64();
        Ok(Reactor {
            config,
            handler,
            pool,
            requests,
            conns: HashMap::new(),
            next_conn_id: 0,
            stats: NetStats::default(),
            epoch: Instant::now(),
            now_s: 0.0,
            launchable: Vec::new(),
            poller,
            timer,
            timer_due_s: None,
            inbox,
            handoff: Handoff { streams, waker },
            touched: Vec::new(),
            backlog: Vec::new(),
            next_reap_s: 0.0,
            telemetry,
            metrics,
            fill_s,
            fills: Vec::new(),
            latencies: Vec::new(),
            turns: 0,
        })
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
    }

    /// The telemetry plane this reactor publishes into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Counters so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Borrow the workload handler.
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Consume the reactor, yielding the run's counters and the handler.
    pub fn into_parts(self) -> (NetStats, H) {
        (self.stats, self.handler)
    }

    /// The acceptor's end of this reactor.
    pub(crate) fn handoff(&self) -> Handoff {
        self.handoff.clone()
    }

    /// Take ownership of an accepted stream: admit it (non-blocking, slot
    /// accounting, registered for reading, a reap pass due on the timer)
    /// or shed it with `503` when this reactor is at its connection cap.
    pub fn admit(&mut self, stream: TcpStream) {
        if self.conns.len() >= self.config.max_connections {
            // Over the cap: shed at the door with an explicit retry hint
            // rather than queueing unboundedly.
            self.stats.rejected_over_cap += 1;
            let mut s = stream;
            let _ = s.set_nonblocking(false);
            let _ = s.write_all(&responses::shed_503());
            let _ = s.shutdown(Shutdown::Both);
            return;
        }
        let id = self.next_conn_id;
        if stream.set_nonblocking(true).is_err()
            || self.poller.add(&stream, id, Interest::READ).is_err()
        {
            return;
        }
        let _ = stream.set_nodelay(true);
        self.read_clock();
        if self.conns.is_empty() {
            // A pass over no connection, to set when the next is due.
            self.reap_stale();
        }
        self.stats.accepted += 1;
        self.next_conn_id += 1;
        let conn = Connection::new(stream, self.config.max_request_bytes, self.now_s);
        self.conns.insert(id, conn);
        self.stats.peak_connections = self.stats.peak_connections.max(self.conns.len());
        self.arm_timer();
    }

    /// Set `now_s`: the reactor's one read of the time.
    fn read_clock(&mut self) {
        self.now_s = self.epoch.elapsed().as_secs_f64();
    }

    /// One service iteration that never waits: [`Reactor::turn`] with
    /// `block` off, for stepping a reactor by hand.
    pub fn poll(&mut self) -> bool {
        self.turn(false)
    }

    /// One service iteration; returns whether anything progressed.
    ///
    /// With `block` the turn first waits — with no timeout — until a
    /// socket is ready, its timer fires or the acceptor wakes it;
    /// without, and whenever work is already in hand (a marked cohort, a
    /// connection whose parse quantum ran out), it only collects what is
    /// ready now.
    pub fn turn(&mut self, block: bool) -> bool {
        let max_queued = self.config.max_queued_bytes;
        let in_hand = !self.launchable.is_empty()
            || self
                .backlog
                .iter()
                .any(|id| self.conns.get(id).is_some_and(|c| c.accepting(max_queued)));
        let timeout = (!block || in_hand).then_some(Duration::ZERO);

        // Backlogged connections are serviced whatever the poller says;
        // the others only when it reports them.
        let mut service = std::mem::take(&mut self.backlog);
        let mut progress = false;
        let mut woken = false;
        // A failed wait (only a bad descriptor causes one) is a turn
        // without reports.
        for ready in self.poller.wait(timeout).into_iter().flatten() {
            match ready.token {
                WAKE_TOKEN => woken = true,
                TIMER_TOKEN => {
                    self.timer.acknowledge();
                    self.timer_due_s = None;
                }
                id => {
                    let Some(conn) = self.conns.get_mut(&id) else {
                        continue;
                    };
                    touch(conn, id, &mut self.touched);
                    if ready.hangup && !conn.armed.readable {
                        // Nobody is going to read the error off this
                        // socket, and level-triggering would report it
                        // forever: the peer is gone.
                        conn.dead = true;
                        progress = true;
                    } else if (ready.readable || ready.hangup) && !conn.unparsed {
                        service.push(id);
                    }
                }
            }
        }
        self.read_clock();
        if woken {
            // Drained before the channel is emptied: a stream sent after
            // this point raises the wake again.
            self.handoff.waker.drain();
            while let Ok(stream) = self.inbox.try_recv() {
                self.admit(stream);
                progress = true;
            }
        }

        for (p, req) in self.read_sockets(&service, &mut progress) {
            self.dispatch(p, req);
            progress = true;
        }
        self.mark_launchable();
        progress |= self.flush_launches();
        progress |= self.settle_touched();
        self.reap_stale();
        self.arm_timer();
        if !progress {
            self.stats.idle_polls += 1;
        }
        self.publish_metrics();
        if self.config.telemetry && self.turns.is_multiple_of(256) {
            // Sampled heartbeat on the ring's shard track, so a /trace
            // dump shows the turn cadence without flooding the ring under
            // load.
            let flight = self.metrics.flight();
            flight.instant(
                Clock::Wall,
                "shard",
                "poll",
                flight.wall_now_us(),
                &[("progress", ArgValue::U64(progress as u64))],
            );
        }
        self.turns += 1;
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

    /// Publish a consistent counter snapshot and the turn's buffered
    /// samples into the shard's registry under one lock (end of every
    /// turn, and after drain), then empty the buffers. This is the point
    /// at which `requests == responses + shed_503 + unclassified +
    /// in_cohort` must balance.
    fn publish_metrics(&mut self) {
        if !self.config.telemetry {
            return;
        }
        let live = LiveSnapshot {
            stats: self.stats.clone(),
            in_cohort: self.in_cohort(),
            connections: self.conns.len() as u64,
        };
        debug_assert!(
            live.accounting_balanced(),
            "accounting invariant broken at publish: residual {}",
            live.accounting_residual()
        );
        let handler = &self.handler;
        self.metrics
            .publish(live, &self.fills, &self.latencies, |k| handler.key_name(k));
        self.fills.clear();
        self.latencies.clear();
    }

    /// After the stop flag: admit what the acceptor had already handed
    /// over (so those sockets close like any other), launch whatever is
    /// still partially formed and push out pending bytes (bounded, best
    /// effort).
    pub fn drain(&mut self) {
        while let Ok(stream) = self.inbox.try_recv() {
            self.admit(stream);
        }
        for id in 0..self.pool.len() as ContextId {
            if self.pool.get(id).state() == CohortState::PartiallyFull {
                self.launchable.push((id, true));
            }
        }
        self.flush_launches();
        for _ in 0..64 {
            let mut progress = false;
            for conn in self.conns.values_mut() {
                if !conn.dead {
                    progress |= write_out(conn, self.now_s, &mut self.stats);
                }
            }
            if !progress {
                break;
            }
        }
        self.publish_metrics();
    }

    /// Read the sockets in `service` and parse complete requests off
    /// them. Requests are returned (rather than dispatched inline) so the
    /// borrow of the connection map ends before cohort dispatch begins.
    fn read_sockets(
        &mut self,
        service: &[u64],
        progress: &mut bool,
    ) -> Vec<(Pending, HttpRequest)> {
        let mut parsed = Vec::new();
        let mut chunk = [0u8; 4096];
        for &id in service {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            if conn.closing || conn.dead {
                conn.unparsed = false;
                continue;
            }
            if conn.queued_bytes() >= self.config.max_queued_bytes {
                // Paused: leftover requests keep their place until the
                // backlog clears.
                if conn.unparsed {
                    self.backlog.push(id);
                }
                continue;
            }
            conn.unparsed = false;
            touch(conn, id, &mut self.touched);
            while !conn.eof {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.eof = true;
                        *progress = true;
                    }
                    Ok(n) => {
                        conn.acc.feed(&chunk[..n]);
                        self.stats.bytes_in += n as u64;
                        conn.last_activity = self.now_s;
                        *progress = true;
                        if n < chunk.len() {
                            // A short read emptied the socket; if more
                            // has arrived since, the poller says so.
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
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
            // sees the backlog between turns, so without this cap a deep
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
                                flight.instant(
                                    Clock::Wall,
                                    "shard",
                                    "admin",
                                    flight.wall_now_us(),
                                    &[],
                                );
                                conn.respond_now(route.respond(&self.telemetry));
                                *progress = true;
                                continue;
                            }
                        }
                        self.stats.requests += 1;
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        let routing = Pending {
                            conn: id,
                            seq,
                            arrived: self.now_s,
                        };
                        parsed.push((routing, req));
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
            if taken == budget && !conn.closing && !conn.acc.is_empty() {
                conn.unparsed = true;
                self.backlog.push(id);
            }
        }
        parsed
    }

    /// Dispatch one parsed request through [`CohortPool::admit`], which
    /// hands back what no context can take; that is shed with `503` if
    /// flushing this turn's launches frees no context for it either.
    fn dispatch(&mut self, p: Pending, req: HttpRequest) {
        let Some(key) = self.handler.classify(&req) else {
            self.stats.unclassified += 1;
            let resp = self.handler.reject(&req);
            self.route(p.conn, p.seq, resp);
            return;
        };
        let admitted = self.pool.admit(p, key, self.now_s).or_else(|p| {
            // Some occupied contexts may only be waiting for this turn's
            // batched launch (Full, or past the deadline): flush it to
            // free them rather than shed. The flush runs the batch and
            // reads the clock after it, so the retry stamps that time.
            self.mark_launchable();
            if self.flush_launches() {
                self.pool.admit(p, key, self.now_s)
            } else {
                Err(p)
            }
        });
        match admitted {
            Ok(a) => {
                self.requests[a.id as usize].push(req);
                if a.full {
                    self.launchable.push((a.id, false));
                }
            }
            Err(p) => self.shed(p),
        }
    }

    /// Answer `503` + `Retry-After` for a request no context can hold.
    fn shed(&mut self, p: Pending) {
        self.stats.shed_503 += 1;
        if self.config.telemetry {
            let flight = self.metrics.flight();
            flight.instant(Clock::Wall, "shard", "shed 503", flight.wall_now_us(), &[]);
        }
        self.route(p.conn, p.seq, responses::shed_503());
    }

    /// Mark the cohorts past their fill time-out ([`CohortPool::due`])
    /// for this turn's launch batch, as "timeout" launches. (A cohort
    /// launches as "full" only when [`Reactor::dispatch`] fills it.)
    fn mark_launchable(&mut self) {
        let due = self.pool.due(self.now_s, self.fill_s).map(|id| (id, true));
        self.launchable.extend(due);
    }

    /// Make sure the timer fires by [`CohortPool::next_due`] or, while a
    /// connection is held, the next reap, armed only when that is earlier
    /// than what is armed, or the last arming has fired: a forming cohort
    /// costs one arming (arming and cancelling are the expensive calls
    /// here), and a cohort that fills early leaves one spurious firing.
    fn arm_timer(&mut self) {
        let mut due_s = self.pool.next_due(self.fill_s).unwrap_or(f64::INFINITY);
        if !self.conns.is_empty() {
            due_s = due_s.min(self.next_reap_s);
        }
        if due_s == f64::INFINITY || self.timer_due_s.is_some_and(|armed_s| armed_s <= due_s) {
            return;
        }
        let wait_s = (due_s - self.now_s).max(0.0);
        // Late rather than early (from the last clock read, and 1 µs over):
        // firing before the mark pass agrees would waste the turn.
        let wait = Duration::from_secs_f64(wait_s) + Duration::from_micros(1);
        if self.timer.arm(wait).is_ok() {
            self.timer_due_s = Some(due_s);
        }
    }

    /// Launch every context marked this turn through one
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
                self.fills.push(fill);
            }
            // The members' requests move into the batch; only their
            // routing stays behind in the context.
            batch.push((key, std::mem::take(&mut self.requests[id as usize])));
            meta.push((id, n, key));
        }
        if batch.is_empty() {
            return false;
        }

        // The contexts stay Busy for the duration of the batched handler
        // call — the wall-clock analogue of the pipeline's execute phase.
        let total: usize = meta.iter().map(|&(_, n, _)| n).sum();
        let flight = self.metrics.flight();
        let t0 = if self.config.telemetry {
            flight.wall_now_us()
        } else {
            0.0
        };
        let mut replies = self.handler.execute_many(&batch);
        if self.config.telemetry {
            flight.span(
                Clock::Wall,
                "cohorts",
                "cohort batch",
                t0,
                flight.wall_now_us() - t0,
                &[("requests", ArgValue::U64(total as u64))],
            );
        }
        self.read_clock();
        if replies.len() < batch.len() {
            // A handler that answered fewer cohorts than launched is a
            // bug it survives: the missing cohorts get padded 500s below.
            replies.resize_with(batch.len(), Vec::new);
        }

        for (((id, n, key), mut cohort_replies), (_, mut reqs)) in
            meta.into_iter().zip(replies).zip(batch)
        {
            if cohort_replies.len() < n {
                cohort_replies.resize_with(n, responses::internal_500);
            }
            let members = self.pool.get_mut(id).release().unwrap_or_default();
            for (i, (m, resp)) in members.into_iter().zip(cohort_replies).enumerate() {
                self.stats.responses += 1;
                if self.config.telemetry {
                    let label = reqs
                        .get(i)
                        .map_or(key, |req| self.handler.label_key(key, req));
                    self.latencies.push((label, self.now_s - m.arrived));
                }
                self.route(m.conn, m.seq, resp);
            }
            // The emptied buffer goes back to its context for the next
            // cohort to fill.
            reqs.clear();
            self.requests[id as usize] = reqs;
        }
        true
    }

    /// Deliver a response to its connection's ordered output queue.
    fn route(&mut self, conn: u64, seq: u64, bytes: Vec<u8>) {
        match self.conns.get_mut(&conn) {
            Some(c) => {
                c.complete(seq, bytes);
                touch(c, conn, &mut self.touched);
                self.stats.peak_queued_bytes =
                    self.stats.peak_queued_bytes.max(c.queued_bytes() as u64);
            }
            None => self.stats.responses_dropped += 1,
        }
    }

    /// End of turn for every connection that had readiness reported or a
    /// response routed: write what is queued, drop it if it is finished,
    /// and otherwise re-register it if its interest is no longer what is
    /// armed. Returns whether any bytes went out.
    fn settle_touched(&mut self) -> bool {
        let max_queued = self.config.max_queued_bytes;
        let mut progress = false;
        let mut touched = std::mem::take(&mut self.touched);
        for id in touched.drain(..) {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            conn.touched = false;
            if !conn.dead {
                progress |= write_out(conn, self.now_s, &mut self.stats);
            }
            let mut keep = !conn.finished();
            if keep {
                let want = conn.interest(max_queued);
                if want != conn.armed {
                    if conn.armed.readable && !want.readable && !conn.closing && !conn.eof {
                        // Still open for requests, but no longer read:
                        // it has just entered the backpressure pause.
                        self.stats.reads_paused += 1;
                    }
                    keep = self.poller.modify(&conn.stream, id, want).is_ok();
                    conn.armed = want;
                }
            }
            if !keep {
                // Closing the socket takes it out of the poller.
                self.conns.remove(&id);
            }
        }
        self.touched = touched;
        progress
    }

    /// Drop idle/half-open peers past the read deadline and stalled
    /// readers that accepted no queued output for a full deadline. This
    /// is the only pass over every connection, so it runs once per eighth
    /// of the deadline; the timer guarantees a turn that often.
    fn reap_stale(&mut self) {
        let (now_s, deadline_s) = (self.now_s, self.config.read_deadline.as_secs_f64());
        if now_s < self.next_reap_s {
            return;
        }
        self.next_reap_s = now_s + deadline_s / 8.0;
        let stats = &mut self.stats;
        self.conns.retain(|_, c| {
            if now_s - c.last_activity < deadline_s {
                return true;
            }
            if c.out_drained() && c.outstanding() == 0 {
                // No response owed and nothing arriving: a stalled or
                // half-open client. Reap so it cannot hold a slot.
                stats.reaped_idle += 1;
                return false;
            }
            if c.queued_bytes() > 0 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    struct Echo;

    impl CohortHandler for Echo {
        fn classify(&self, _req: &HttpRequest) -> Option<u32> {
            Some(0)
        }

        fn execute(&mut self, _key: u32, requests: &[HttpRequest]) -> Vec<Vec<u8>> {
            requests
                .iter()
                .map(|r| {
                    format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nX-Path: {}\r\n\r\n",
                        r.path
                    )
                })
                .map(String::into_bytes)
                .collect()
        }
    }

    /// A cohort that fills before its deadline leaves the firing armed
    /// for it behind, and that costs one idle turn and nothing more: the
    /// next cohort's deadline is later than what is armed, so nothing is
    /// re-armed until the stale firing finds nothing due; the timer is
    /// then armed for the cohort that is forming, which launches on it.
    #[test]
    fn cohort_filled_early_costs_one_spurious_wake() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let config = NetConfig {
            cohort_size: 2,
            fill_timeout: Duration::from_millis(30),
            ..NetConfig::default()
        };
        let mut reactor = Reactor::new(config, Echo).unwrap();
        reactor.admit(accepted);
        let mut send = |path: &str| {
            let req = format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n");
            client.write_all(req.as_bytes()).unwrap();
            Instant::now()
        };

        let first_sent = send("/a");
        assert!(reactor.turn(true), "the request is read and joins a cohort");
        let armed_s = reactor
            .timer_due_s
            .expect("a forming cohort arms the timer");

        send("/b");
        assert!(reactor.turn(true), "the second request fills the cohort");
        assert_eq!(reactor.stats().full_launches, 1);

        // Half a time-out later, so the stale firing is handled well
        // before this cohort is due however late the wake is delivered.
        std::thread::sleep(Duration::from_millis(15));
        let third_sent = send("/late");
        assert!(reactor.turn(true), "the third request forms a new cohort");
        assert!(reactor.pool.next_due(reactor.fill_s).unwrap() > armed_s);
        assert_eq!(reactor.timer_due_s, Some(armed_s), "nothing was re-armed");

        assert!(!reactor.turn(true), "the stale firing finds nothing due");
        assert!(first_sent.elapsed() >= Duration::from_millis(30));
        assert_eq!(reactor.stats().cohorts, 1);

        assert!(reactor.turn(true), "the re-armed timer launches the cohort");
        assert!(third_sent.elapsed() >= Duration::from_millis(30));
        assert_eq!(reactor.stats().full_launches, 1);
        assert_eq!(reactor.stats().timeout_launches, 1);
        assert_eq!(reactor.stats().idle_polls, 1, "one spurious wake, no more");

        let mut got = Vec::new();
        let mut chunk = [0u8; 256];
        while got.windows(4).filter(|w| w == b"\r\n\r\n").count() < 3 {
            let n = client.read(&mut chunk).unwrap();
            assert!(n > 0, "connection closed early");
            got.extend_from_slice(&chunk[..n]);
        }
        assert!(got.ends_with(b"X-Path: /late\r\n\r\n"));
    }

    /// A silent connection is reaped by the reactor's own timer: no
    /// acceptor and no peer ever wakes this reactor, so every blocking
    /// turn after the admission is a reap pass's firing, and the
    /// connection goes at the first pass a deadline after it arrived.
    #[test]
    fn silent_connection_is_reaped_on_the_reactors_own_timer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let config = NetConfig {
            read_deadline: Duration::from_millis(40),
            ..NetConfig::default()
        };
        let mut reactor = Reactor::new(config, Echo).unwrap();
        reactor.admit(accepted);
        let (done, stats) = std::sync::mpsc::channel();
        let turning = std::thread::spawn(move || {
            while reactor.stats().reaped_idle == 0 {
                reactor.turn(true);
            }
            done.send(reactor.stats().clone()).unwrap();
        });
        let stats = stats
            .recv_timeout(Duration::from_secs(2))
            .expect("a blocking turn never returned: nothing woke the reactor");
        turning.join().unwrap();
        assert_eq!(stats.reaped_idle, 1);
        // Eight passes per deadline, one of which may come a little
        // early for a connection admitted just after the last.
        assert!(
            stats.idle_polls <= 8 + 2,
            "{} idle turns to reap one connection",
            stats.idle_polls
        );
    }

    /// Echo that takes a millisecond per launch and records when it ends.
    #[derive(Default)]
    struct SlowEcho {
        done: Option<Instant>,
    }

    impl CohortHandler for SlowEcho {
        fn classify(&self, _req: &HttpRequest) -> Option<u32> {
            Some(0)
        }

        fn execute(&mut self, key: u32, requests: &[HttpRequest]) -> Vec<Vec<u8>> {
            std::thread::sleep(Duration::from_millis(1));
            self.done = Some(Instant::now());
            Echo.execute(key, requests)
        }
    }

    /// A cohort opened by the retry after a pool-exhaustion flush is
    /// stamped after that flush ran, so its fill deadline is not early by
    /// the batch's duration.
    #[test]
    fn cohort_opened_after_an_exhaustion_flush_is_stamped_after_it() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let config = NetConfig {
            cohort_size: 2,
            pool_contexts: 1,
            fill_timeout: Duration::from_millis(30),
            ..NetConfig::default()
        };
        let mut reactor = Reactor::new(config, SlowEcho::default()).unwrap();
        reactor.admit(accepted);
        client
            .write_all(b"GET /a HTTP/1.1\r\nHost: t\r\n\r\nGET /b HTTP/1.1\r\nHost: t\r\n\r\nGET /c HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        // The third request finds the one context Full, and the flush that
        // frees it launches the first two.
        while reactor.stats().requests < 3 {
            assert!(reactor.turn(true));
        }
        assert_eq!(reactor.stats().full_launches, 1);
        assert_eq!(reactor.stats().shed_503, 0);
        let flushed_s =
            (reactor.handler().done.expect("the flush launched") - reactor.epoch).as_secs_f64();
        let opened_s = reactor.pool.next_due(reactor.fill_s).unwrap() - reactor.fill_s;
        assert!(
            opened_s >= flushed_s,
            "cohort stamped at {opened_s} s, before the flush ended at {flushed_s} s"
        );
    }
}
