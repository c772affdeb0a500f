//! Load generator for the networked cohort front end, closed- and
//! open-loop.
//!
//! Boots a sharded `rhythm-net` server on an ephemeral port with the
//! Banking workload (SIMT device path by default) and drives it in one of
//! two modes:
//!
//! * **Closed loop** (default): keep-alive client threads, each with
//!   exactly one outstanding request — the latency-bound baseline.
//! * **Open loop** (`--open-loop`): worker threads multiplex many
//!   pipelined non-blocking connections and inject requests on a Poisson
//!   (or `--paced` deterministic) arrival schedule at an aggregate
//!   `--rate`, independent of completions — this exposes the server's
//!   real throughput ceiling instead of the client count.
//!
//! Results are phase-separated: login warmup, the steady-state
//! measurement window, the post-window drain, and the overload probe are
//! reported (and asserted) independently, so steady-state throughput and
//! latency are never contaminated by warmup or overload traffic. The
//! emitted `BENCH_net.json` is schema version 7: each phase object
//! carries a `"phase"` field plus a `"degenerate"` flag (true when the
//! phase has no wall time or no completions, so its rate/latency
//! summaries are placeholders), the run records `mode` and `shards`,
//! a `"machine"` object names the box it ran on (as in `BENCH_simt.json`),
//! and `--scrape` adds a `"scrape"` object cross-checking the server's
//! `/metrics` request counters against the loadgen's own totals. (v5
//! added `slo_ms`, `controller` and `frontier` for the SLO batching
//! controller, v6 dropped the controller's sub-key field, and v7 dropped
//! all three with the controller itself: see DESIGN.md §5j.)
//!
//! Flags:
//!
//! * `--smoke` — small CI run asserting zero sheds, zero errors, and zero
//!   dropped responses at low load; skips the overload phase.
//! * `--scalar` — serve with the native CPU handlers instead of the SIMT
//!   device path.
//! * `--shards <n>` — reactor shard count (default 1).
//! * `--open-loop` — open-loop injection instead of closed-loop clients.
//! * `--conns <n>` — open-loop connection count (default 64).
//! * `--rate <rps>` — open-loop aggregate arrival rate (default 8000).
//! * `--duration <s>` — open-loop steady window seconds (default 3).
//! * `--paced` — deterministic arrival gaps instead of Poisson.
//! * `--clients <n>` / `--requests <n>` — closed-loop client count and
//!   per-client request count.
//! * `--gate <path>` — regression gate: after the run, compare steady
//!   throughput and mean cohort fill against the checked-in result at
//!   `<path>` and fail if either regressed beyond the noise threshold.
//! * `--scrape` — scrape the live `/metrics` endpoint twice after the
//!   traffic drains: asserts counter monotonicity and records the drift
//!   between server-side and loadgen-side request totals.
//! * `--no-telemetry` — run the server with the telemetry plane disabled
//!   (the bare baseline for overhead comparisons).
//! * `--out <path>` — result file (default `BENCH_net.json`).

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rhythm_banking::prelude::*;
use rhythm_bench::fmt::{json_f, machine_block};
use rhythm_core::LatencyStats;
use rhythm_net::{
    read_response, scan_response, send_request, CohortHandler, NetConfig, NetStats, ShardedServer,
};
use rhythm_simt::gpu::{Gpu, GpuConfig};

const NUM_USERS: u32 = 1024;
const SESSION_CAPACITY: u32 = 65536;
const SESSION_SALT: u32 = 0x5EED_0001;

struct Args {
    smoke: bool,
    scalar: bool,
    open_loop: bool,
    paced: bool,
    scrape: bool,
    no_telemetry: bool,
    gate: Option<String>,
    shards: usize,
    conns: usize,
    rate: f64,
    duration_s: f64,
    clients: usize,
    requests: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        smoke: false,
        scalar: false,
        open_loop: false,
        paced: false,
        scrape: false,
        no_telemetry: false,
        gate: None,
        shards: 1,
        conns: 64,
        rate: 8000.0,
        duration_s: 3.0,
        clients: 16,
        requests: 64,
        out: "BENCH_net.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                parsed.smoke = true;
                parsed.clients = 4;
                parsed.requests = 48;
                parsed.conns = 8;
                parsed.rate = 400.0;
                parsed.duration_s = 1.0;
            }
            "--scalar" => parsed.scalar = true,
            "--open-loop" => parsed.open_loop = true,
            "--paced" => parsed.paced = true,
            "--scrape" => parsed.scrape = true,
            "--no-telemetry" => parsed.no_telemetry = true,
            "--gate" => parsed.gate = Some(args.next().expect("--gate needs a path")),
            "--shards" => {
                parsed.shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .expect("--shards needs a positive integer")
            }
            "--conns" => {
                parsed.conns = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .expect("--conns needs a positive integer")
            }
            "--rate" => {
                parsed.rate = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r: &f64| r > 0.0)
                    .expect("--rate needs a positive number")
            }
            "--duration" => {
                parsed.duration_s = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&d: &f64| d > 0.0)
                    .expect("--duration needs a positive number")
            }
            "--clients" => {
                parsed.clients = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--clients needs a positive integer")
            }
            "--requests" => {
                parsed.requests = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--requests needs a positive integer")
            }
            "--out" => parsed.out = args.next().expect("--out needs a path"),
            other => panic!(
                "unknown flag {other:?} (expected --smoke, --scalar, --open-loop, --paced, \
                 --scrape, --no-telemetry, --gate <path>, --shards <n>, --conns <n>, \
                 --rate <rps>, --duration <s>, --clients <n>, --requests <n>, --out <path>)"
            ),
        }
    }
    assert!(
        !(parsed.scrape && parsed.no_telemetry),
        "--scrape needs the telemetry plane; drop --no-telemetry"
    );
    parsed
}

fn simt_handler() -> SimtHandler {
    let opts = CohortOptions {
        session_capacity: SESSION_CAPACITY,
        session_salt: SESSION_SALT,
        ..CohortOptions::default()
    };
    SimtHandler::new(
        Workload::build(),
        BankStore::generate(NUM_USERS, 1),
        SessionArrayHost::new(SESSION_CAPACITY, SESSION_SALT),
        Gpu::new(GpuConfig::gtx_titan()),
        opts,
    )
}

fn scalar_handler() -> ScalarHandler {
    ScalarHandler::new(
        BankStore::generate(NUM_USERS, 1),
        SessionArrayHost::new(SESSION_CAPACITY, SESSION_SALT),
    )
}

/// A booted server: bound address, stop flag, and the join handle
/// yielding per-shard `(stats, handler)` pairs.
type BootedServer<H> = (
    SocketAddr,
    Arc<AtomicBool>,
    std::thread::JoinHandle<Vec<(NetStats, H)>>,
);

/// Boot a sharded server with one handler per shard.
fn boot<H: CohortHandler + Send + 'static>(
    mk: impl Fn() -> H,
    config: NetConfig,
    shards: usize,
) -> BootedServer<H> {
    let handlers: Vec<H> = (0..shards).map(|_| mk()).collect();
    let server = ShardedServer::bind("127.0.0.1:0", config, handlers).expect("bind");
    let addr = server.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let join = std::thread::spawn(move || server.run(&flag).shards);
    (addr, stop, join)
}

/// One live `/metrics` scrape: GET the exposition off the still-running
/// server and sum the per-shard `rhythm_requests_total` samples.
fn scrape_requests_total(addr: SocketAddr) -> u64 {
    let mut conn = TcpStream::connect(addr).expect("scrape connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("scrape timeout");
    let mut carry = Vec::new();
    send_request(&mut conn, b"GET /metrics HTTP/1.1\r\nHost: loadgen\r\n\r\n")
        .expect("scrape send");
    let resp = read_response(&mut conn, &mut carry).expect("scrape read");
    assert_eq!(resp.status, 200, "/metrics must answer 200");
    let body = String::from_utf8(resp.body().to_vec()).expect("metrics body is UTF-8");
    body.lines()
        .filter(|l| l.starts_with("rhythm_requests_total{"))
        .filter_map(|l| l.split_whitespace().last())
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

/// One phase's client-side aggregate.
#[derive(Default)]
struct PhaseOutcome {
    latencies_s: Vec<f64>,
    completed: u64,
    shed: u64,
    errors: u64,
}

/// What one closed-loop client saw, phase-separated: the login is warmup,
/// the GETs are the steady measurement.
#[derive(Default)]
struct ClientOutcome {
    warmup: PhaseOutcome,
    steady: PhaseOutcome,
}

/// One closed-loop client: connect and log in (warmup), wait at the
/// barrier so every client starts the measured window together, then
/// issue `requests` keep-alive GETs with one outstanding at a time.
fn run_client(
    addr: SocketAddr,
    userid: u32,
    requests: usize,
    start_barrier: &Barrier,
) -> ClientOutcome {
    let mut outcome = ClientOutcome::default();
    // Warmup: login on a blocking connection. Any failure is recorded and
    // the client still reaches the barrier so nobody deadlocks.
    let session = (|| {
        let mut conn = TcpStream::connect(addr).ok()?;
        conn.set_read_timeout(Some(Duration::from_secs(30))).ok()?;
        let mut carry = Vec::new();
        let body = format!("userid={userid}");
        let login = format!(
            "POST /bank/login.php HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        send_request(&mut conn, login.as_bytes()).ok()?;
        match read_response(&mut conn, &mut carry) {
            Ok(resp) if resp.status == 200 => {
                let token: u32 = resp
                    .header("Set-Cookie")
                    .and_then(|v| v.strip_prefix("SID=").map(|t| t.trim().to_string()))
                    .and_then(|t| t.parse().ok())?;
                Some((conn, carry, token))
            }
            Ok(resp) if resp.status == 503 => {
                outcome.warmup.shed += 1;
                None
            }
            _ => None,
        }
    })();
    match &session {
        Some(_) => outcome.warmup.completed += 1,
        None if outcome.warmup.shed == 0 => outcome.warmup.errors += 1,
        None => {}
    }
    start_barrier.wait();
    let Some((mut conn, mut carry, token)) = session else {
        return outcome;
    };

    let get = format!(
        "GET /bank/account_summary.php?userid={userid} HTTP/1.1\r\nHost: loadgen\r\nCookie: SID={token}\r\n\r\n"
    );
    for _ in 0..requests {
        let t0 = Instant::now();
        if send_request(&mut conn, get.as_bytes()).is_err() {
            outcome.steady.errors += 1;
            return outcome;
        }
        match read_response(&mut conn, &mut carry) {
            Ok(resp) if resp.status == 200 => {
                outcome.steady.completed += 1;
                outcome.steady.latencies_s.push(t0.elapsed().as_secs_f64());
            }
            Ok(resp) if resp.status == 503 => outcome.steady.shed += 1,
            _ => {
                outcome.steady.errors += 1;
                return outcome;
            }
        }
    }
    outcome
}

/// One phase's load-side result, as emitted into the JSON `phases` array.
struct PhaseResult {
    phase: &'static str,
    completed: u64,
    shed: u64,
    errors: u64,
    wall_s: f64,
    throughput_rps: f64,
    latency: Option<LatencyStats>,
    /// True when the phase has no wall time or no completions — e.g. the
    /// instant phases of a `--smoke` run — so the rate and latency
    /// summaries are placeholders, not measurements. Consumers should
    /// skip degenerate phases when aggregating.
    degenerate: bool,
}

impl PhaseResult {
    fn from_outcome(phase: &'static str, o: PhaseOutcome, wall_s: f64) -> Self {
        PhaseResult {
            phase,
            completed: o.completed,
            shed: o.shed,
            errors: o.errors,
            wall_s,
            throughput_rps: if wall_s > 0.0 {
                o.completed as f64 / wall_s
            } else {
                0.0
            },
            degenerate: wall_s <= 0.0 || o.completed == 0,
            latency: (!o.latencies_s.is_empty()).then(|| LatencyStats::from_samples(o.latencies_s)),
        }
    }
}

struct LoadResult {
    stats: NetStats,
    per_shard: Vec<NetStats>,
    phases: Vec<PhaseResult>,
    panicked_clients: u64,
    /// `(first, second)` summed `rhythm_requests_total` from two live
    /// `/metrics` scrapes taken after the traffic drained (`--scrape`).
    scrape: Option<(u64, u64)>,
}

impl LoadResult {
    fn phase(&self, name: &str) -> &PhaseResult {
        self.phases
            .iter()
            .find(|p| p.phase == name)
            .expect("phase present")
    }

    /// Client-side count of requests the server answered (200s and 503s
    /// across every phase) — the number `/metrics` must agree with.
    fn answered(&self) -> u64 {
        self.phases.iter().map(|p| p.completed + p.shed).sum()
    }
}

/// Closed loop: run `clients` lock-step clients to completion.
fn run_closed<H: CohortHandler + Send + 'static>(
    mk: impl Fn() -> H,
    config: NetConfig,
    shards: usize,
    clients: usize,
    requests: usize,
    scrape: bool,
) -> (LoadResult, Vec<H>) {
    let (addr, stop, server) = boot(mk, config, shards);
    let warmup_start = Instant::now();
    let barrier = Arc::new(Barrier::new(clients + 1));
    let client_threads: Vec<_> = (0..clients)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || run_client(addr, (i as u32) % NUM_USERS, requests, &barrier))
        })
        .collect();
    barrier.wait();
    let warmup_s = warmup_start.elapsed().as_secs_f64();
    let steady_start = Instant::now();

    let mut warmup = PhaseOutcome::default();
    let mut steady = PhaseOutcome::default();
    let mut panicked = 0u64;
    for t in client_threads {
        match t.join() {
            Ok(o) => {
                warmup.completed += o.warmup.completed;
                warmup.shed += o.warmup.shed;
                warmup.errors += o.warmup.errors;
                steady.completed += o.steady.completed;
                steady.shed += o.steady.shed;
                steady.errors += o.steady.errors;
                let mut lat = o.steady.latencies_s;
                steady.latencies_s.append(&mut lat);
            }
            Err(_) => panicked += 1,
        }
    }
    let steady_s = steady_start.elapsed().as_secs_f64();
    // Scrape while the server is still live: the counters are read off
    // the in-band admin endpoint, not the post-join stats.
    let scraped = scrape.then(|| (scrape_requests_total(addr), scrape_requests_total(addr)));
    stop.store(true, Ordering::Relaxed);
    let shards_out = server.join().expect("server must not panic");
    let (per_shard, handlers): (Vec<NetStats>, Vec<H>) = shards_out.into_iter().unzip();
    let mut stats = NetStats::default();
    for s in &per_shard {
        stats.merge(s);
    }
    (
        LoadResult {
            stats,
            per_shard,
            phases: vec![
                PhaseResult::from_outcome("warmup", warmup, warmup_s),
                PhaseResult::from_outcome("steady", steady, steady_s),
            ],
            panicked_clients: panicked,
            scrape: scraped,
        },
        handlers,
    )
}

/// xorshift64* — deterministic arrival-gap randomness with no deps.
struct XorShift64(u64);

impl XorShift64 {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean (Poisson inter-arrival gap).
    fn next_exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }
}

/// First-injection stagger for one open-loop connection. Paced mode
/// spreads the starts uniformly over one mean gap; Poisson mode draws the
/// first exponential arrival. Both *advance* the generator — an earlier
/// version read the raw xorshift state without stepping it, which (a)
/// reused the near-affine seed as if it were output and (b) left every
/// connection's subsequent arrival stream correlated with its offset.
fn start_offset(rng: &mut XorShift64, per_conn_gap: f64, paced: bool) -> f64 {
    if paced {
        per_conn_gap * rng.next_f64()
    } else {
        rng.next_exp(per_conn_gap)
    }
}

/// One open-loop connection's in-flight state.
struct OpenConn {
    stream: TcpStream,
    get: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    /// Scheduled injection time of each outstanding request, in order.
    inflight: VecDeque<Instant>,
    next_send: Instant,
    rng: XorShift64,
    dead: bool,
}

/// Cap on outstanding pipelined requests per connection, bounding client
/// memory when the schedule outruns the server.
const MAX_INFLIGHT: usize = 64;

/// Open loop: `conns` non-blocking pipelined connections across a few
/// worker threads, injecting on the arrival schedule at `rate` aggregate
/// rps for `duration_s`, then draining. Latency is measured from the
/// *scheduled* injection time (coordinated-omission-free); completions
/// after the window land in the `drain` phase.
#[allow(clippy::too_many_arguments)]
fn run_open<H: CohortHandler + Send + 'static>(
    mk: impl Fn() -> H,
    config: NetConfig,
    shards: usize,
    conns: usize,
    rate: f64,
    duration_s: f64,
    paced: bool,
    scrape: bool,
) -> (LoadResult, Vec<H>) {
    let (addr, stop, server) = boot(mk, config, shards);

    // Warmup: log every connection in on a blocking socket.
    let warmup_start = Instant::now();
    let mut warmup = PhaseOutcome::default();
    let mut open_conns: Vec<OpenConn> = Vec::with_capacity(conns);
    for i in 0..conns {
        let userid = (i as u32) % NUM_USERS;
        let setup = (|| {
            let mut conn = TcpStream::connect(addr).ok()?;
            conn.set_read_timeout(Some(Duration::from_secs(30))).ok()?;
            let mut carry = Vec::new();
            let body = format!("userid={userid}");
            let login = format!(
                "POST /bank/login.php HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            send_request(&mut conn, login.as_bytes()).ok()?;
            let resp = read_response(&mut conn, &mut carry).ok()?;
            if resp.status != 200 {
                return None;
            }
            let token: u32 = resp
                .header("Set-Cookie")
                .and_then(|v| v.strip_prefix("SID=").map(|t| t.trim().to_string()))
                .and_then(|t| t.parse().ok())?;
            conn.set_nonblocking(true).ok()?;
            Some((conn, carry, token))
        })();
        match setup {
            Some((stream, carry, token)) => {
                warmup.completed += 1;
                let get = format!(
                    "GET /bank/account_summary.php?userid={userid} HTTP/1.1\r\nHost: loadgen\r\nCookie: SID={token}\r\n\r\n"
                );
                open_conns.push(OpenConn {
                    stream,
                    get: get.into_bytes(),
                    wbuf: Vec::new(),
                    wpos: 0,
                    rbuf: carry,
                    inflight: VecDeque::new(),
                    next_send: Instant::now(),
                    rng: XorShift64(0x9E37_79B9_7F4A_7C15 ^ (i as u64 + 1)),
                    dead: false,
                });
            }
            None => warmup.errors += 1,
        }
    }
    let warmup_s = warmup_start.elapsed().as_secs_f64();
    assert!(
        !open_conns.is_empty(),
        "open-loop warmup must log in at least one connection"
    );

    // Steady window: split the connections across a few workers; each
    // worker services its slice with non-blocking writes/reads.
    let workers = open_conns.len().min(2);
    let per_conn_gap = open_conns.len() as f64 / rate;
    let steady_start = Instant::now();
    let steady_end = steady_start + Duration::from_secs_f64(duration_s);
    for c in &mut open_conns {
        // First injections are staggered over one mean gap so shards see
        // a smooth ramp rather than a synchronized burst.
        let offset = start_offset(&mut c.rng, per_conn_gap, paced);
        c.next_send = steady_start + Duration::from_secs_f64(offset);
    }
    let mut slices: Vec<Vec<OpenConn>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, c) in open_conns.into_iter().enumerate() {
        slices[i % workers].push(c);
    }

    let outcomes: Vec<(PhaseOutcome, PhaseOutcome, u64)> = std::thread::scope(|scope| {
        let joins: Vec<_> = slices
            .into_iter()
            .map(|slice| scope.spawn(move || open_worker(slice, steady_end, per_conn_gap, paced)))
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("open-loop worker must not panic"))
            .collect()
    });
    let mut steady = PhaseOutcome::default();
    let mut drain = PhaseOutcome::default();
    let mut undrained = 0u64;
    for (s, d, u) in outcomes {
        steady.completed += s.completed;
        steady.shed += s.shed;
        steady.errors += s.errors;
        let mut lat = s.latencies_s;
        steady.latencies_s.append(&mut lat);
        drain.completed += d.completed;
        drain.shed += d.shed;
        drain.errors += d.errors;
        undrained += u;
    }
    let drain_s = (Instant::now() - steady_end).as_secs_f64().max(0.0);

    let scraped = scrape.then(|| (scrape_requests_total(addr), scrape_requests_total(addr)));
    stop.store(true, Ordering::Relaxed);
    let shards_out = server.join().expect("server must not panic");
    let (per_shard, handlers): (Vec<NetStats>, Vec<H>) = shards_out.into_iter().unzip();
    let mut stats = NetStats::default();
    for s in &per_shard {
        stats.merge(s);
    }
    drain.errors += undrained;
    (
        LoadResult {
            stats,
            per_shard,
            phases: vec![
                PhaseResult::from_outcome("warmup", warmup, warmup_s),
                PhaseResult::from_outcome("steady", steady, duration_s),
                PhaseResult::from_outcome("drain", drain, drain_s),
            ],
            panicked_clients: 0,
            scrape: scraped,
        },
        handlers,
    )
}

/// Service one worker's slice of open-loop connections through the steady
/// window, then drain. Returns (steady, drain, undrained-request count).
fn open_worker(
    mut conns: Vec<OpenConn>,
    steady_end: Instant,
    per_conn_gap: f64,
    paced: bool,
) -> (PhaseOutcome, PhaseOutcome, u64) {
    let mut steady = PhaseOutcome::default();
    let mut drain = PhaseOutcome::default();
    let mut chunk = [0u8; 16 * 1024];
    let drain_deadline = steady_end + Duration::from_secs(2);

    loop {
        let now = Instant::now();
        let injecting = now < steady_end;
        let mut live = false;
        let mut progress = false;
        for c in conns.iter_mut() {
            if c.dead {
                continue;
            }
            live = true;
            // Inject every request whose scheduled time has arrived (the
            // arrival process never waits for completions — open loop).
            // The inflight cap bounds memory if the server falls behind.
            while injecting && c.next_send <= now && c.inflight.len() < MAX_INFLIGHT {
                c.wbuf.extend_from_slice(&c.get);
                c.inflight.push_back(c.next_send);
                let gap = if paced {
                    per_conn_gap
                } else {
                    c.rng.next_exp(per_conn_gap)
                };
                c.next_send += Duration::from_secs_f64(gap);
            }
            while c.wpos < c.wbuf.len() {
                match c.stream.write(&c.wbuf[c.wpos..]) {
                    Ok(0) => {
                        c.dead = true;
                        break;
                    }
                    Ok(n) => {
                        c.wpos += n;
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                }
            }
            if c.wpos >= c.wbuf.len() {
                c.wbuf.clear();
                c.wpos = 0;
            }
            loop {
                match c.stream.read(&mut chunk) {
                    Ok(0) => {
                        c.dead = true;
                        break;
                    }
                    Ok(n) => {
                        c.rbuf.extend_from_slice(&chunk[..n]);
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                }
            }
            while let Some((status, total)) = scan_response(&c.rbuf) {
                c.rbuf.drain(..total);
                let done = Instant::now();
                let sent_at = c.inflight.pop_front();
                let phase = if done < steady_end {
                    &mut steady
                } else {
                    &mut drain
                };
                match status {
                    200 => {
                        phase.completed += 1;
                        if let Some(at) = sent_at {
                            phase.latencies_s.push((done - at).as_secs_f64());
                        }
                    }
                    503 => phase.shed += 1,
                    _ => phase.errors += 1,
                }
            }
            if c.dead && !c.inflight.is_empty() && injecting {
                // Responses lost with the connection count as errors in
                // the window they were scheduled for.
                steady.errors += c.inflight.len() as u64;
                c.inflight.clear();
            }
        }
        let all_drained = conns.iter().all(|c| c.dead || c.inflight.is_empty());
        if !injecting && (all_drained || Instant::now() > drain_deadline || !live) {
            break;
        }
        if !progress {
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    let undrained: u64 = conns
        .iter()
        .map(|c| if c.dead { 0 } else { c.inflight.len() as u64 })
        .sum();
    (steady, drain, undrained)
}

/// Overload phase: more clients than admitted connections; the excess
/// must be shed with `503`, with zero panics on either side.
fn run_overload(scalar: bool, shards: usize) -> LoadResult {
    let config = NetConfig {
        max_connections: 2,
        cohort_size: 4,
        fill_timeout: Duration::from_millis(1),
        ..NetConfig::default()
    };
    // The cap is per reactor, so overflow the whole sharded capacity
    // (shards × 2 slots) to guarantee sheds on every shard.
    let clients = shards * 2 + 8;
    let requests = 8;
    let mut result = if scalar {
        run_closed(scalar_handler, config, shards, clients, requests, false).0
    } else {
        run_closed(simt_handler, config, shards, clients, requests, false).0
    };
    for p in &mut result.phases {
        // Overload traffic is its own phase in the report; the inner
        // closed-loop phases are re-labelled so they can never be mistaken
        // for (or merged into) the steady-state measurement.
        p.phase = match p.phase {
            "warmup" => "overload_warmup",
            _ => "overload",
        };
    }
    result
}

/// Pull a top-level numeric field out of a previously emitted
/// `BENCH_net.json` (two-space-indented keys; phase objects are nested
/// on single lines and can never match).
fn extract_top_level_f64(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\n  \"{key}\": ");
    let start = text.find(&pat)? + pat.len();
    let rest = &text[start..];
    let end = rest.find([',', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Fractional noise the regression gate tolerates before failing.
const GATE_NOISE_FRAC: f64 = 0.2;

/// Regression gate: compare this run's steady throughput and mean cohort
/// fill against the checked-in baseline; panic if either regressed more
/// than the noise threshold.
fn run_gate(path: &str, throughput_rps: f64, mean_fill: f64) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("--gate: cannot read baseline {path}: {e}"));
    let base_tp = extract_top_level_f64(&text, "throughput_rps")
        .unwrap_or_else(|| panic!("--gate: no top-level throughput_rps in {path}"));
    let base_fill = extract_top_level_f64(&text, "mean_cohort_fill")
        .unwrap_or_else(|| panic!("--gate: no top-level mean_cohort_fill in {path}"));
    let tp_floor = base_tp * (1.0 - GATE_NOISE_FRAC);
    let fill_floor = base_fill * (1.0 - GATE_NOISE_FRAC);
    println!(
        "gate vs {path}: throughput {throughput_rps:.0} rps (floor {tp_floor:.0}, \
         baseline {base_tp:.0}), fill {mean_fill:.3} (floor {fill_floor:.3}, \
         baseline {base_fill:.3})"
    );
    assert!(
        throughput_rps >= tp_floor,
        "regression gate: steady throughput {throughput_rps:.0} rps fell below \
         {tp_floor:.0} ({}% of baseline {base_tp:.0})",
        (1.0 - GATE_NOISE_FRAC) * 100.0
    );
    assert!(
        mean_fill >= fill_floor,
        "regression gate: mean cohort fill {mean_fill:.3} fell below {fill_floor:.3} \
         ({}% of baseline {base_fill:.3})",
        (1.0 - GATE_NOISE_FRAC) * 100.0
    );
}

fn phase_json(p: &PhaseResult) -> String {
    let latency = match &p.latency {
        None => "null".to_string(),
        Some(l) => format!(
            "{{\"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
            json_f(l.mean * 1e3),
            json_f(l.p50 * 1e3),
            json_f(l.p95 * 1e3),
            json_f(l.p99 * 1e3),
            json_f(l.max * 1e3)
        ),
    };
    format!(
        "{{\"phase\": \"{}\", \"completed\": {}, \"shed\": {}, \"errors\": {}, \
         \"wall_s\": {}, \"throughput_rps\": {}, \"degenerate\": {}, \"latency_ms\": {latency}}}",
        p.phase,
        p.completed,
        p.shed,
        p.errors,
        json_f(p.wall_s),
        json_f(p.throughput_rps),
        p.degenerate
    )
}

fn main() {
    let args = parse_args();
    let path = if args.scalar { "scalar" } else { "simt" };
    let mode = if args.open_loop { "open" } else { "closed" };
    let config = NetConfig {
        cohort_size: if args.open_loop {
            32
        } else {
            args.clients.clamp(2, 32)
        },
        fill_timeout: Duration::from_millis(2),
        telemetry: !args.no_telemetry,
        ..NetConfig::default()
    };
    if args.open_loop {
        eprintln!(
            "[net_loadgen] {path} path, open loop: {} conns at {:.0} rps ({}) for {:.1}s, \
             {} shard(s), cohort_size {}",
            args.conns,
            args.rate,
            if args.paced { "paced" } else { "poisson" },
            args.duration_s,
            args.shards,
            config.cohort_size
        );
    } else {
        eprintln!(
            "[net_loadgen] {path} path, closed loop: {} clients x {} requests, {} shard(s), \
             cohort_size {}",
            args.clients, args.requests, args.shards, config.cohort_size
        );
    }

    let run = |scalar: bool| -> (LoadResult, f64, u64) {
        if scalar {
            let (load, _h) = if args.open_loop {
                run_open(
                    scalar_handler,
                    config.clone(),
                    args.shards,
                    args.conns,
                    args.rate,
                    args.duration_s,
                    args.paced,
                    args.scrape,
                )
            } else {
                run_closed(
                    scalar_handler,
                    config.clone(),
                    args.shards,
                    args.clients,
                    args.requests,
                    args.scrape,
                )
            };
            (load, 0.0, 0u64)
        } else {
            let (load, handlers) = if args.open_loop {
                run_open(
                    simt_handler,
                    config.clone(),
                    args.shards,
                    args.conns,
                    args.rate,
                    args.duration_s,
                    args.paced,
                    args.scrape,
                )
            } else {
                run_closed(
                    simt_handler,
                    config.clone(),
                    args.shards,
                    args.clients,
                    args.requests,
                    args.scrape,
                )
            };
            let cohorts: u64 = handlers.iter().map(|h| h.cohorts).sum();
            let device_s: f64 = handlers.iter().map(|h| h.device_time_s).sum();
            let mean = if cohorts == 0 {
                0.0
            } else {
                device_s / cohorts as f64
            };
            (load, mean, cohorts)
        }
    };
    let (load, mean_cohort_device_s, device_cohorts) = run(args.scalar);

    let steady = load.phase("steady");
    println!(
        "steady: {} completed in {:.2}s  ->  {:.0} req/s  ({} shed, {} errors)",
        steady.completed, steady.wall_s, steady.throughput_rps, steady.shed, steady.errors
    );
    if let Some(l) = &steady.latency {
        println!(
            "steady latency ms: mean {:.2}  p50 {:.2}  p95 {:.2}  p99 {:.2}  max {:.2}",
            l.mean * 1e3,
            l.p50 * 1e3,
            l.p95 * 1e3,
            l.p99 * 1e3,
            l.max * 1e3
        );
    }
    let warmup = load.phase("warmup");
    println!(
        "warmup: {} logins ({} errors) — excluded from steady stats",
        warmup.completed, warmup.errors
    );
    println!(
        "server: {} cohorts ({} full, {} by timeout), {:.2} requests/launch, mean fill {:.2}, \
         {} idle polls, {} paused reads, {} dropped responses",
        load.stats.cohorts,
        load.stats.full_launches,
        load.stats.timeout_launches,
        load.stats.mean_requests_per_launch(),
        load.stats.mean_fill(),
        load.stats.idle_polls,
        load.stats.reads_paused,
        load.stats.responses_dropped
    );
    for (i, s) in load.per_shard.iter().enumerate() {
        println!(
            "  shard {i}: {} accepted, {} requests, {} cohorts, fill {:.2}",
            s.accepted,
            s.requests,
            s.cohorts,
            s.mean_fill()
        );
    }

    assert_eq!(load.panicked_clients, 0, "client threads must not panic");
    assert_eq!(
        load.stats.responses_dropped, 0,
        "no responses may be dropped"
    );
    if !args.open_loop {
        let expected = (args.clients * args.requests) as u64;
        assert_eq!(steady.errors, 0, "no protocol errors at steady load");
        assert_eq!(
            steady.completed, expected,
            "every steady request must be answered 200"
        );
        assert_eq!(
            warmup.completed as usize, args.clients,
            "every client must log in"
        );
    }
    if !args.scalar {
        assert!(
            load.stats.mean_requests_per_launch() > 1.0 || args.open_loop,
            "SIMT path must batch: mean requests/launch {:.3} <= 1",
            load.stats.mean_requests_per_launch()
        );
    }
    if args.smoke {
        assert_eq!(steady.shed, 0, "no shedding at smoke load");
        assert_eq!(steady.errors, 0, "no errors at smoke load");
        assert_eq!(load.stats.shed_503, 0, "no 503s at smoke load");
        assert_eq!(
            load.stats.fsm_rejections, 0,
            "no FSM refusals at smoke load"
        );
    }

    // Scrape cross-check: the server's own /metrics counters, read live
    // over the wire, must agree with what the loadgen observed.
    let scrape_json = match load.scrape {
        None => "null".to_string(),
        Some((first, second)) => {
            assert!(
                second >= first,
                "scrape counters must be monotonic: {first} -> {second}"
            );
            assert_eq!(
                second, load.stats.requests,
                "live scrape must match the server's final request counter"
            );
            let answered = load.answered();
            let drift = second as i64 - answered as i64;
            let errors: u64 = load.phases.iter().map(|p| p.errors).sum();
            if errors == 0 {
                assert_eq!(
                    drift, 0,
                    "error-free run: server requests {second} != loadgen answered {answered}"
                );
            }
            println!(
                "scrape: server {second} requests vs loadgen {answered} answered \
                 (drift {drift}), counters monotonic"
            );
            format!(
                "{{\"first_requests\": {first}, \"second_requests\": {second}, \
                 \"monotonic\": true, \"loadgen_answered\": {answered}, \"drift\": {drift}}}"
            )
        }
    };

    // Overload: shed, don't break. Its traffic is a separate phase and
    // never merges into the steady numbers above.
    let overload = if args.smoke {
        None
    } else {
        let o = run_overload(args.scalar, args.shards);
        println!(
            "overload: {} admitted (cap 2/shard), {} connections shed 503, zero panics",
            o.stats.accepted, o.stats.rejected_over_cap
        );
        assert_eq!(o.panicked_clients, 0, "overload must not panic clients");
        assert!(
            o.stats.rejected_over_cap > 0 || o.phases.iter().map(|p| p.shed).sum::<u64>() > 0,
            "overload run must shed at least one connection"
        );
        Some(o)
    };

    let mut phases: Vec<String> = load.phases.iter().map(phase_json).collect();
    if let Some(o) = &overload {
        phases.extend(o.phases.iter().map(phase_json));
    }
    let overload_json = match &overload {
        None => "null".to_string(),
        Some(o) => format!(
            "{{\"accepted\": {}, \"rejected_over_cap\": {}, \"client_503s\": {}, \"panics\": 0}}",
            o.stats.accepted,
            o.stats.rejected_over_cap,
            o.phases.iter().map(|p| p.shed).sum::<u64>()
        ),
    };
    let json = format!(
        "{{\n  \"schema_version\": 7,\n  \"machine\": {},\n  \"path\": \"{path}\",\n  \"mode\": \"{mode}\",\n  \
         \"telemetry\": {},\n  \"shards\": {},\n  \"cohort_size\": {},\n  \"conns\": {},\n  \"rate_rps\": {},\n  \
         \"clients\": {},\n  \"requests_per_client\": {},\n  \"completed\": {},\n  \
         \"wall_s\": {},\n  \"throughput_rps\": {},\n  \"phases\": [\n    {}\n  ],\n  \
         \"cohorts\": {},\n  \"full_launches\": {},\n  \"timeout_launches\": {},\n  \
         \"mean_requests_per_launch\": {},\n  \"mean_cohort_fill\": {},\n  \
         \"device_cohorts\": {device_cohorts},\n  \"mean_cohort_device_s\": {},\n  \
         \"shed_503\": {},\n  \"responses_dropped\": {},\n  \"idle_polls\": {},\n  \
         \"reads_paused\": {},\n  \"scrape\": {scrape_json},\n  \
         \"overload\": {overload_json}\n}}\n",
        machine_block(),
        !args.no_telemetry,
        args.shards,
        config.cohort_size,
        if args.open_loop { args.conns } else { 0 },
        if args.open_loop {
            json_f(args.rate)
        } else {
            "0".to_string()
        },
        if args.open_loop { 0 } else { args.clients },
        if args.open_loop { 0 } else { args.requests },
        steady.completed,
        json_f(steady.wall_s),
        json_f(steady.throughput_rps),
        phases.join(",\n    "),
        load.stats.cohorts,
        load.stats.full_launches,
        load.stats.timeout_launches,
        json_f(load.stats.mean_requests_per_launch()),
        json_f(load.stats.mean_fill()),
        json_f(mean_cohort_device_s),
        load.stats.shed_503,
        load.stats.responses_dropped,
        load.stats.idle_polls,
        load.stats.reads_paused,
    );
    std::fs::write(&args.out, &json).expect("write result file");
    println!("results written to {}", args.out);

    // The gate runs last so the freshly written result survives for
    // inspection even when the gate trips.
    if let Some(gate_path) = &args.gate {
        run_gate(gate_path, steady.throughput_rps, load.stats.mean_fill());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paced start stagger must come from RNG *output*, not raw
    /// state, and must be distinct per connection: with the warmup seed
    /// schedule, no two of 256 connections may share an offset, every
    /// offset lies inside one mean gap, and drawing twice from the same
    /// generator advances it.
    #[test]
    fn open_loop_start_offsets_are_distinct_across_connections() {
        let gap = 0.125;
        let mut offsets: Vec<f64> = (0..256)
            .map(|i| {
                let mut rng = XorShift64(0x9E37_79B9_7F4A_7C15 ^ (i as u64 + 1));
                start_offset(&mut rng, gap, true)
            })
            .collect();
        for &o in &offsets {
            assert!((0.0..gap).contains(&o), "offset {o} outside [0, {gap})");
        }
        offsets.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        offsets.dedup();
        assert_eq!(offsets.len(), 256, "start offsets collided");

        // Poisson mode draws from the same stream and advances it too.
        let mut rng = XorShift64(0x9E37_79B9_7F4A_7C15 ^ 1);
        let a = start_offset(&mut rng, gap, false);
        let b = start_offset(&mut rng, gap, false);
        assert_ne!(a, b, "generator did not advance between draws");
    }

    /// A zero-duration / zero-completion phase (the `--smoke` shape) must
    /// be flagged `degenerate: true` in the JSON, with the guarded rate
    /// emitted as a plain 0 rather than a division blow-up; a real phase
    /// must not carry the flag.
    #[test]
    fn degenerate_phase_summary_is_flagged_and_parseable() {
        let empty = PhaseResult::from_outcome("drain", PhaseOutcome::default(), 0.0);
        assert!(empty.degenerate);
        assert_eq!(empty.throughput_rps, 0.0);
        let j = phase_json(&empty);
        assert!(j.contains("\"degenerate\": true"), "flag missing in {j}");
        assert!(
            j.contains("\"throughput_rps\": 0.000000"),
            "rate not guarded in {j}"
        );
        // Structural sanity without a JSON dependency: balanced braces,
        // key/value colon per field.
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced JSON: {j}"
        );

        let live = PhaseResult::from_outcome(
            "steady",
            PhaseOutcome {
                latencies_s: vec![0.001, 0.002],
                completed: 2,
                shed: 0,
                errors: 0,
            },
            1.0,
        );
        assert!(!live.degenerate);
        let j = phase_json(&live);
        assert!(j.contains("\"degenerate\": false"), "flag wrong in {j}");
    }

    /// The regression gate must read the baseline's *top-level* steady
    /// numbers, never the per-phase copies nested inside the `phases`
    /// array (those live on single indented lines).
    #[test]
    fn gate_extracts_top_level_fields_only() {
        let baseline = "{\n  \"schema_version\": 7,\n  \"phases\": [\n    \
                        {\"phase\": \"steady\", \"throughput_rps\": 999.0, \
                        \"mean_cohort_fill\": 0.9}\n  ],\n  \
                        \"throughput_rps\": 11983.333333,\n  \
                        \"mean_cohort_fill\": 0.235243,\n  \"overload\": null\n}\n";
        assert_eq!(
            extract_top_level_f64(baseline, "throughput_rps"),
            Some(11983.333333)
        );
        assert_eq!(
            extract_top_level_f64(baseline, "mean_cohort_fill"),
            Some(0.235243)
        );
        assert_eq!(extract_top_level_f64(baseline, "absent"), None);
    }
}
