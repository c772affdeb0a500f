//! Open-loop load generator for the networked cohort front end.
//!
//! Boots a sharded `rhythm-net` server on an ephemeral port with the
//! Banking workload (SIMT device path by default), logs a fixed set of
//! connections in, then has a few worker threads multiplex those
//! pipelined non-blocking connections and inject GETs on a Poisson
//! arrival schedule at an aggregate `--rate`, independent of completions.
//! That exposes the server's real throughput ceiling instead of a client
//! count.
//!
//! Results are phase-separated: login warmup, the steady-state
//! measurement window and the post-window drain are reported
//! independently, so steady-state throughput and latency are never
//! contaminated by warmup traffic. The emitted `BENCH_net.json` is schema
//! version 8: each phase object carries a `"phase"` field plus a
//! `"degenerate"` flag (true when the phase has no wall time or no
//! completions, so its rate/latency summaries are placeholders), the run
//! records `shards`, and a `"machine"` object names the box it ran on (as
//! in `BENCH_simt.json`). (v5 added `slo_ms`, `controller` and `frontier`
//! for the SLO batching controller, v6 dropped the controller's sub-key
//! field, v7 dropped all three with the controller itself (DESIGN.md
//! §5j), and v8 dropped `mode`, `clients`, `requests_per_client`,
//! `scrape` and `overload` with the closed loop, the scrape and the
//! overload phase.)
//!
//! Flags:
//!
//! * `--smoke` — small CI run (8 connections at 400 rps for 1 s)
//!   asserting, over every phase, zero errors, zero sheds, zero undrained
//!   requests, zero 503s and zero FSM refusals.
//! * `--scalar` — serve with the native CPU handlers instead of the SIMT
//!   device path.
//! * `--shards <n>` — reactor shard count (default 1).
//! * `--rate <rps>` — aggregate arrival rate (default 8000).
//! * `--duration <s>` — steady window seconds (default 3).
//! * `--gate <path>` — regression gate: after the run, compare steady
//!   throughput and mean cohort fill against the checked-in result at
//!   `<path>` and fail if either regressed beyond the noise threshold.
//! * `--no-telemetry` — run the server with the telemetry plane disabled
//!   (the bare baseline for overhead comparisons).
//! * `--out <path>` — result file (default `target/BENCH_net.json`; the
//!   checked-in baseline is regenerated with `--out BENCH_net.json`).
//!
//! Every run asserts zero dropped responses.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
    no_telemetry: bool,
    gate: Option<String>,
    shards: usize,
    conns: usize,
    rate: f64,
    duration_s: f64,
    out: String,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        smoke: false,
        scalar: false,
        no_telemetry: false,
        gate: None,
        shards: 1,
        conns: 64,
        rate: 8000.0,
        duration_s: 3.0,
        out: "target/BENCH_net.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                parsed.smoke = true;
                parsed.conns = 8;
                parsed.rate = 400.0;
                parsed.duration_s = 1.0;
            }
            "--scalar" => parsed.scalar = true,
            "--no-telemetry" => parsed.no_telemetry = true,
            "--gate" => parsed.gate = Some(args.next().expect("--gate needs a path")),
            "--shards" => {
                parsed.shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .expect("--shards needs a positive integer")
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
            "--out" => parsed.out = args.next().expect("--out needs a path"),
            other => panic!(
                "unknown flag {other:?} (expected --smoke, --scalar, --no-telemetry, \
                 --gate <path>, --shards <n>, --rate <rps>, --duration <s>, --out <path>)"
            ),
        }
    }
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

/// One phase's client-side aggregate.
#[derive(Default)]
struct PhaseOutcome {
    latencies_s: Vec<f64>,
    completed: u64,
    shed: u64,
    errors: u64,
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
    /// True when the phase has no wall time or no completions, so the
    /// rate and latency summaries are placeholders, not measurements.
    /// Consumers should skip degenerate phases when aggregating.
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
    /// Warmup, steady and drain, in that order.
    phases: [PhaseResult; 3],
    /// Requests still waiting for a response when the drain gave up,
    /// including those whose connection died after the window.
    undrained: u64,
}

/// xorshift64* — deterministic arrival-gap randomness with no deps.
struct XorShift64(u64);

impl XorShift64 {
    /// Connection `i`'s arrival stream.
    fn for_conn(i: usize) -> Self {
        XorShift64(0x9E37_79B9_7F4A_7C15 ^ (i as u64 + 1))
    }

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

/// Log connection `i` in on a blocking socket and switch it to
/// non-blocking for the steady window.
fn login(addr: SocketAddr, i: usize) -> Option<OpenConn> {
    let userid = (i as u32) % NUM_USERS;
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    let mut carry = Vec::new();
    let body = format!("userid={userid}");
    let post = format!(
        "POST /bank/login.php HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    send_request(&mut stream, post.as_bytes()).ok()?;
    let resp = read_response(&mut stream, &mut carry).ok()?;
    if resp.status != 200 {
        return None;
    }
    let token: u32 = resp
        .header("Set-Cookie")
        .and_then(|v| v.strip_prefix("SID=").map(|t| t.trim().to_string()))
        .and_then(|t| t.parse().ok())?;
    stream.set_nonblocking(true).ok()?;
    let get = format!(
        "GET /bank/account_summary.php?userid={userid} HTTP/1.1\r\nHost: loadgen\r\nCookie: SID={token}\r\n\r\n"
    );
    Some(OpenConn {
        stream,
        get: get.into_bytes(),
        wbuf: Vec::new(),
        wpos: 0,
        rbuf: carry,
        inflight: VecDeque::new(),
        next_send: Instant::now(),
        rng: XorShift64::for_conn(i),
        dead: false,
    })
}

/// Boot a server with one `mk()` handler per shard, log `args.conns`
/// connections in, and drive them across a few worker threads on the
/// arrival schedule at `args.rate` aggregate rps for `args.duration_s`,
/// then drain. Latency is measured from the *scheduled* injection time
/// (coordinated-omission-free); completions after the window land in the
/// `drain` phase.
fn run_open<H: CohortHandler + Send + 'static>(
    mk: impl Fn() -> H,
    config: NetConfig,
    args: &Args,
) -> (LoadResult, Vec<H>) {
    let handlers: Vec<H> = (0..args.shards).map(|_| mk()).collect();
    let server = ShardedServer::bind("127.0.0.1:0", config, handlers).expect("bind");
    let addr = server.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let server = std::thread::spawn(move || server.run(&flag).shards);

    let warmup_start = Instant::now();
    let mut warmup = PhaseOutcome::default();
    let mut open_conns: Vec<OpenConn> = Vec::with_capacity(args.conns);
    for i in 0..args.conns {
        match login(addr, i) {
            Some(c) => {
                warmup.completed += 1;
                open_conns.push(c);
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
    let per_conn_gap = open_conns.len() as f64 / args.rate;
    let steady_start = Instant::now();
    let steady_end = steady_start + Duration::from_secs_f64(args.duration_s);
    for c in &mut open_conns {
        // Each connection's first injection is its first exponential
        // arrival, so shards see a smooth ramp rather than a
        // synchronized burst.
        let offset = c.rng.next_exp(per_conn_gap);
        c.next_send = steady_start + Duration::from_secs_f64(offset);
    }
    let mut slices: Vec<Vec<OpenConn>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, c) in open_conns.into_iter().enumerate() {
        slices[i % workers].push(c);
    }

    let outcomes: Vec<(PhaseOutcome, PhaseOutcome, u64)> = std::thread::scope(|scope| {
        let joins: Vec<_> = slices
            .into_iter()
            .map(|slice| scope.spawn(move || open_worker(slice, steady_end, per_conn_gap)))
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
            phases: [
                PhaseResult::from_outcome("warmup", warmup, warmup_s),
                PhaseResult::from_outcome("steady", steady, args.duration_s),
                PhaseResult::from_outcome("drain", drain, drain_s),
            ],
            undrained,
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
                c.next_send += Duration::from_secs_f64(c.rng.next_exp(per_conn_gap));
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

    // Whatever is still in flight was never answered, whether its
    // connection is alive or died after the window.
    let undrained: u64 = conns.iter().map(|c| c.inflight.len() as u64).sum();
    (steady, drain, undrained)
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
    let config = NetConfig {
        cohort_size: 32,
        fill_timeout: Duration::from_millis(2),
        telemetry: !args.no_telemetry,
        ..NetConfig::default()
    };
    eprintln!(
        "[net_loadgen] {path} path, open loop: {} conns at {:.0} rps (poisson) for {:.1}s, \
         {} shard(s), cohort_size {}",
        args.conns, args.rate, args.duration_s, args.shards, config.cohort_size
    );

    let (load, mean_cohort_device_s, device_cohorts) = if args.scalar {
        (run_open(scalar_handler, config.clone(), &args).0, 0.0, 0u64)
    } else {
        let (load, handlers) = run_open(simt_handler, config.clone(), &args);
        let cohorts: u64 = handlers.iter().map(|h| h.cohorts).sum();
        let device_s: f64 = handlers.iter().map(|h| h.device_time_s).sum();
        let mean = if cohorts == 0 {
            0.0
        } else {
            device_s / cohorts as f64
        };
        (load, mean, cohorts)
    };

    let [warmup, steady, _] = &load.phases;
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

    assert_eq!(
        load.stats.responses_dropped, 0,
        "no responses may be dropped"
    );
    if args.smoke {
        // Summed over warmup, steady and drain: every login and every
        // injected GET was answered 200.
        let errors: u64 = load.phases.iter().map(|p| p.errors).sum();
        let shed: u64 = load.phases.iter().map(|p| p.shed).sum();
        assert_eq!(errors, 0, "no errors at smoke load");
        assert_eq!(shed, 0, "no shedding at smoke load");
        assert_eq!(load.undrained, 0, "every smoke request drained");
        assert_eq!(load.stats.shed_503, 0, "no 503s at smoke load");
        assert_eq!(
            load.stats.fsm_rejections, 0,
            "no FSM refusals at smoke load"
        );
    }

    let phases: Vec<String> = load.phases.iter().map(phase_json).collect();
    let json = format!(
        "{{\n  \"schema_version\": 8,\n  \"machine\": {},\n  \"path\": \"{path}\",\n  \
         \"telemetry\": {},\n  \"shards\": {},\n  \"cohort_size\": {},\n  \"conns\": {},\n  \
         \"rate_rps\": {},\n  \"completed\": {},\n  \
         \"wall_s\": {},\n  \"throughput_rps\": {},\n  \"phases\": [\n    {}\n  ],\n  \
         \"cohorts\": {},\n  \"full_launches\": {},\n  \"timeout_launches\": {},\n  \
         \"mean_requests_per_launch\": {},\n  \"mean_cohort_fill\": {},\n  \
         \"device_cohorts\": {device_cohorts},\n  \"mean_cohort_device_s\": {},\n  \
         \"shed_503\": {},\n  \"responses_dropped\": {},\n  \"idle_polls\": {},\n  \
         \"reads_paused\": {}\n}}\n",
        machine_block(),
        !args.no_telemetry,
        args.shards,
        config.cohort_size,
        args.conns,
        json_f(args.rate),
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
    // The default lies under `target/`, which a run outside the workspace
    // root may not have.
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        std::fs::create_dir_all(dir).expect("create the result file's directory");
    }
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

    /// The Poisson start stagger must come from RNG *output*, not raw
    /// state, and must be distinct per connection: with the per-connection
    /// seed schedule, no two of 256 connections may share a first arrival,
    /// every arrival is finite and non-negative, and drawing twice from
    /// the same generator advances it.
    #[test]
    fn open_loop_start_offsets_are_distinct_across_connections() {
        let gap = 0.125;
        let mut offsets: Vec<f64> = (0..256)
            .map(|i| XorShift64::for_conn(i).next_exp(gap))
            .collect();
        for &o in &offsets {
            assert!(o.is_finite() && o >= 0.0, "offset {o} is not an arrival");
        }
        offsets.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        offsets.dedup();
        assert_eq!(offsets.len(), 256, "start offsets collided");

        let mut rng = XorShift64::for_conn(0);
        let a = rng.next_exp(gap);
        let b = rng.next_exp(gap);
        assert_ne!(a, b, "generator did not advance between draws");
    }

    /// A zero-duration / zero-completion phase (the `--smoke` drain shape)
    /// must be flagged `degenerate: true` in the JSON, with the guarded
    /// rate emitted as a plain 0 rather than a division blow-up; a real
    /// phase must not carry the flag.
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
