//! End-to-end tests for the sharded multi-reactor front end and the
//! front-end bugfix sweep: response ordering under out-of-order cohort
//! retirement, the no-turns-while-idle bound, and write backpressure
//! against stalled readers — all over real TCP sockets.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rhythm_http::{HttpRequest, ResponseBuilder};
use rhythm_net::{
    read_response, send_request, CohortHandler, NetConfig, ShardedRun, ShardedServer,
};

/// Echo handler whose batched entry point retires the cohorts of each
/// flush in REVERSE order — an adversarial stand-in for a device that
/// completes concurrently launched cohorts out of order. The returned
/// replies stay aligned to the input batch, which is all the contract
/// requires; the front end's sequence numbers must do the rest.
struct ReverseEchoHandler {
    /// Cohorts per `execute_many` flush, in flush order.
    batches: Vec<usize>,
}

impl ReverseEchoHandler {
    fn new() -> Self {
        ReverseEchoHandler {
            batches: Vec::new(),
        }
    }
}

fn echo_response(path: &str) -> Vec<u8> {
    let mut b = ResponseBuilder::new(200, "OK");
    b.header("Content-Type", "text/plain");
    b.reserve_content_length();
    b.finish_headers();
    b.write_str(&format!("echo {path}"));
    b.finish()
}

impl CohortHandler for ReverseEchoHandler {
    fn classify(&self, req: &HttpRequest) -> Option<u32> {
        // Key by first path segment character, as in `server_e2e`.
        Some(req.path.as_bytes().get(1).copied().unwrap_or(0) as u32)
    }

    fn execute(&mut self, _key: u32, requests: &[HttpRequest]) -> Vec<Vec<u8>> {
        requests.iter().map(|r| echo_response(&r.path)).collect()
    }

    fn execute_many(&mut self, cohorts: &[(u32, Vec<HttpRequest>)]) -> Vec<Vec<Vec<u8>>> {
        self.batches.push(cohorts.len());
        let mut out: Vec<Vec<Vec<u8>>> = (0..cohorts.len()).map(|_| Vec::new()).collect();
        for (i, (key, requests)) in cohorts.iter().enumerate().rev() {
            out[i] = self.execute(*key, requests);
        }
        out
    }
}

/// Harness around a running [`ShardedServer`].
struct Sharded {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<ShardedRun<ReverseEchoHandler>>>,
}

impl Sharded {
    fn start(config: NetConfig, shards: usize) -> Self {
        let handlers: Vec<_> = (0..shards).map(|_| ReverseEchoHandler::new()).collect();
        let server = ShardedServer::bind("127.0.0.1:0", config, handlers).expect("bind");
        let addr = server.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::spawn(move || server.run(&flag));
        Sharded {
            addr,
            stop,
            join: Some(join),
        }
    }

    fn finish(mut self) -> ShardedRun<ReverseEchoHandler> {
        self.stop.store(true, Ordering::Relaxed);
        self.join
            .take()
            .expect("not yet joined")
            .join()
            .expect("sharded server threads")
    }
}

impl Drop for Sharded {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").into_bytes()
}

/// Two full same-size cohorts sent in one burst flush together as one
/// `execute_many` batch; the handler retires them in reverse order, yet
/// the connection still sees its responses in request order.
#[test]
fn reversed_batch_retirement_preserves_connection_order() {
    let server = Sharded::start(
        NetConfig {
            cohort_size: 4,
            fill_timeout: Duration::from_millis(50),
            ..NetConfig::default()
        },
        1,
    );
    let mut conn = connect(server.addr);
    let mut carry = Vec::new();
    // 4×key 'a' then 4×key 'b', all in one write: one read slurps the
    // burst, both cohorts fill in the same poll, and the flush hands the
    // handler a two-cohort batch (which it executes b-first).
    let mut burst = Vec::new();
    let paths: Vec<String> = (0..8)
        .map(|i| format!("/{}{i}", if i < 4 { 'a' } else { 'b' }))
        .collect();
    for p in &paths {
        burst.extend_from_slice(&get(p));
    }
    send_request(&mut conn, &burst).unwrap();
    for p in &paths {
        let resp = read_response(&mut conn, &mut carry).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body(),
            format!("echo {p}").as_bytes(),
            "responses must keep request order under reversed retirement"
        );
    }

    let run = server.finish();
    let total = run.total();
    assert_eq!(total.requests, 8);
    assert_eq!(total.full_launches, 2, "both cohorts launch full");
    assert_eq!(total.responses_dropped, 0);
    let (_, handler) = &run.shards[0];
    assert!(
        handler.batches.iter().any(|&b| b >= 2),
        "the burst must flush as one multi-cohort batch, got {:?}",
        handler.batches
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Affinity routing invariant: whatever the shard count and whatever
    /// mix of cohort keys each connection pipelines, every connection
    /// receives its responses in request order even though the handler
    /// retires each batch's cohorts in reverse.
    #[test]
    fn sharded_pipelining_preserves_per_connection_order(
        shards in 1usize..4,
        seqs in prop::collection::vec(prop::collection::vec(0u32..3, 1..10), 1..4),
    ) {
        let server = Sharded::start(
            NetConfig {
                cohort_size: 4,
                fill_timeout: Duration::from_millis(1),
                ..NetConfig::default()
            },
            shards,
        );
        // One connection per key sequence; each pipelines its whole
        // burst, then reads everything back.
        let mut conns: Vec<(TcpStream, Vec<String>)> = Vec::new();
        for (ci, keys) in seqs.iter().enumerate() {
            let mut conn = connect(server.addr);
            let paths: Vec<String> = keys
                .iter()
                .enumerate()
                .map(|(ri, k)| format!("/{k}c{ci}r{ri}"))
                .collect();
            let mut burst = Vec::new();
            for p in &paths {
                burst.extend_from_slice(&get(p));
            }
            send_request(&mut conn, &burst).unwrap();
            conns.push((conn, paths));
        }
        let total_sent: u64 = conns.iter().map(|(_, p)| p.len() as u64).sum();
        for (conn, paths) in &mut conns {
            let mut carry = Vec::new();
            for p in paths.iter() {
                let resp = read_response(conn, &mut carry).unwrap();
                prop_assert_eq!(resp.status, 200);
                prop_assert_eq!(
                    resp.body(),
                    format!("echo {p}").as_bytes(),
                    "per-connection order must survive sharding + reversal"
                );
            }
        }
        drop(conns);

        let total = server.finish().total();
        prop_assert_eq!(total.requests, total_sent);
        prop_assert_eq!(total.responses, total_sent);
        prop_assert_eq!(total.responses_dropped, 0);
        prop_assert_eq!(total.shed_503, 0);
    }
}

/// An idle server does not turn: with four connections open and silent
/// for 150 ms, nothing wakes the reactor but the acceptor's hand-offs
/// (which are progress) and the stop. A level-triggered interest left
/// armed with nothing to do for it would show up here as thousands.
#[test]
fn idle_server_with_open_connections_does_not_turn() {
    let server = Sharded::start(NetConfig::default(), 1);
    let conns: Vec<TcpStream> = (0..4).map(|_| connect(server.addr)).collect();
    std::thread::sleep(Duration::from_millis(150));
    let stats = server.finish().total();
    drop(conns);

    assert_eq!(stats.accepted, 4);
    assert!(
        stats.idle_polls <= 3,
        "{} no-progress turns in 150 ms of silence",
        stats.idle_polls
    );
}

/// The most no-progress turns a test below tolerates. A handful is
/// bookkeeping — the turn that reads an EOF, the one that sees the stop —
/// while readiness left armed with nothing to do for it turns the reactor
/// thousands of times in the 100 ms and more each test stays quiet.
const QUIET: u64 = 8;

/// A client that sends its request and half-closes while the cohort is
/// still filling gets its answer when the cohort launches, and the
/// reactor sleeps through the fill window: the EOF is read once and the
/// socket is then no longer watched for reading.
#[test]
fn half_closed_client_is_answered_when_its_cohort_launches() {
    let server = Sharded::start(
        NetConfig {
            cohort_size: 4,
            fill_timeout: Duration::from_millis(120),
            ..NetConfig::default()
        },
        1,
    );
    let mut conn = connect(server.addr);
    send_request(&mut conn, &get("/a0")).unwrap();
    conn.shutdown(Shutdown::Write).unwrap();

    let mut carry = Vec::new();
    let resp = read_response(&mut conn, &mut carry).unwrap();
    assert_eq!(resp.body(), b"echo /a0");
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "the server closes once it has answered");

    let stats = server.finish().total();
    assert_eq!((stats.requests, stats.responses), (1, 1));
    assert_eq!(stats.timeout_launches, 1, "the cohort filled for 120 ms");
    assert!(
        stats.idle_polls <= QUIET,
        "{} no-progress turns while a half-closed peer waited",
        stats.idle_polls
    );
}

/// A peer that resets while its response is still owed is dropped on the
/// spot. It had half-closed, so its socket was not being watched for
/// reading; the reset is reported anyway, on every wait, until the
/// connection is let go.
#[test]
fn reset_peer_with_a_response_outstanding_is_dropped() {
    let server = Sharded::start(
        NetConfig {
            cohort_size: 4,
            fill_timeout: Duration::from_millis(150),
            ..NetConfig::default()
        },
        1,
    );
    let mut doomed = connect(server.addr);
    // `/a0` waits in its cohort. The other request is answered at once
    // with a page the client never reads, and closing a socket with
    // unread input is what makes the kernel send a reset.
    let mut burst = get("/metrics");
    burst.extend_from_slice(&get("/a0"));
    send_request(&mut doomed, &burst).unwrap();
    doomed.shutdown(Shutdown::Write).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    drop(doomed);
    std::thread::sleep(Duration::from_millis(200));

    let mut healthy = connect(server.addr);
    let mut carry = Vec::new();
    send_request(&mut healthy, &get("/b0")).unwrap();
    let resp = read_response(&mut healthy, &mut carry).unwrap();
    assert_eq!(resp.body(), b"echo /b0");
    drop(healthy);

    let stats = server.finish().total();
    assert_eq!((stats.requests, stats.responses), (2, 2));
    assert_eq!(
        stats.responses_dropped, 1,
        "the reset connection was gone before its cohort launched"
    );
    assert!(
        stats.idle_polls <= QUIET,
        "{} no-progress turns: the reset kept being reported",
        stats.idle_polls
    );
}

/// A pipeline deeper than the parse quantum is answered in full although
/// nothing further arrives to wake the reactor: requests left buffered
/// make the next turn not wait. True of a client that has half-closed
/// too — the end of its input does not strand what it already sent.
#[test]
fn pipeline_deeper_than_the_parse_quantum_needs_no_further_input() {
    const DEPTH: usize = 19;
    let server = Sharded::start(
        NetConfig {
            cohort_size: 4,
            fill_timeout: Duration::from_millis(1),
            max_parse_per_poll: 4,
            // No reap pass inside the clients' 5 s read timeout, so no
            // firing of the reactor's timer can stand in for the backlog.
            read_deadline: Duration::from_secs(80),
            ..NetConfig::default()
        },
        1,
    );
    let mut conns: Vec<TcpStream> = (0..2).map(|_| connect(server.addr)).collect();
    for (c, conn) in conns.iter_mut().enumerate() {
        let mut burst = Vec::new();
        for r in 0..DEPTH {
            burst.extend_from_slice(&get(&format!("/a{c}r{r}")));
        }
        send_request(conn, &burst).unwrap();
    }
    conns[1].shutdown(Shutdown::Write).unwrap();
    for (c, conn) in conns.iter_mut().enumerate() {
        let mut carry = Vec::new();
        for r in 0..DEPTH {
            let resp = read_response(conn, &mut carry).unwrap();
            assert_eq!(resp.body(), format!("echo /a{c}r{r}").as_bytes());
        }
    }
    std::thread::sleep(Duration::from_millis(100));

    let stats = server.finish().total();
    assert_eq!(stats.requests, 2 * DEPTH as u64);
    assert_eq!(stats.responses, 2 * DEPTH as u64);
    assert!(
        stats.idle_polls <= QUIET,
        "{} no-progress turns around a buffered pipeline",
        stats.idle_polls
    );
}

/// A response larger than the socket buffers take: the write stops at
/// `WouldBlock`, the reactor waits (without turning) for the socket to
/// become writable, and the rest goes out as the peer reads.
#[test]
fn blocked_write_completes_once_the_peer_reads() {
    const BODY: usize = 24 * 1024 * 1024;
    let server = ShardedServer::bind(
        "127.0.0.1:0",
        NetConfig {
            cohort_size: 1,
            ..NetConfig::default()
        },
        vec![BulkHandler { body_bytes: BODY }],
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let join = std::thread::spawn(move || server.run(&flag));

    let mut conn = connect(addr);
    send_request(&mut conn, &get("/big")).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let mut carry = Vec::new();
    let resp = read_response(&mut conn, &mut carry).unwrap();
    let body = resp.body();
    assert!(body.starts_with(b"/big|"));
    assert_eq!(body.len(), "/big|".len() + BODY);
    assert!(body[5..].iter().all(|&b| b == b'x'));
    drop(conn);

    stop.store(true, Ordering::Relaxed);
    let stats = join.join().expect("server thread").total();
    assert_eq!(stats.bytes_out, resp.bytes.len() as u64);
    assert!(
        stats.idle_polls <= QUIET,
        "{} no-progress turns while the write was blocked",
        stats.idle_polls
    );
}

/// Raising the stop flag brings every shard home within the acceptor's
/// tick, idle or not: the acceptor wakes each reactor out of a wait that
/// has no timeout of its own.
#[test]
fn stop_reaches_every_idle_shard_promptly() {
    let server = Sharded::start(NetConfig::default(), 4);
    let _conns: Vec<TcpStream> = (0..4).map(|_| connect(server.addr)).collect();
    std::thread::sleep(Duration::from_millis(50));
    let asked = std::time::Instant::now();
    let run = server.finish();
    let took = asked.elapsed();
    assert_eq!(run.shards.len(), 4);
    assert_eq!(run.total().accepted, 4);
    // One 10 ms tick, with room for a loaded machine.
    assert!(took < Duration::from_millis(250), "stop took {took:?}");
}

/// Handler returning a large body per request — 256 KiB in the
/// backpressure tests, so a modest pipeline of queued responses dwarfs
/// `max_queued_bytes` and decisively exceeds what kernel socket buffers
/// (sndbuf autotunes to ~4 MiB here) can absorb.
struct BulkHandler {
    body_bytes: usize,
}

const BULK: BulkHandler = BulkHandler {
    body_bytes: 256 * 1024,
};

impl CohortHandler for BulkHandler {
    fn classify(&self, _req: &HttpRequest) -> Option<u32> {
        Some(1)
    }

    fn execute(&mut self, _key: u32, requests: &[HttpRequest]) -> Vec<Vec<u8>> {
        requests
            .iter()
            .map(|r| {
                let mut b = ResponseBuilder::new(200, "OK");
                b.header("Content-Type", "text/plain");
                b.reserve_content_length();
                b.finish_headers();
                b.write_str(&format!("{}|", r.path));
                b.write_str(&"x".repeat(self.body_bytes));
                b.finish()
            })
            .collect()
    }
}

/// A client that trickles requests but reads nothing until the end: the
/// per-connection queued-bytes cap must pause reads (bounding server
/// memory) instead of letting the backlog track the request stream, and
/// every response must still arrive intact and in order once the client
/// finally drains — the paused connection goes back to being read as its
/// queue clears, with requests still waiting in the kernel buffer and
/// nothing new arriving to announce them. While it is paused (120 ms of
/// it here) the reactor has nothing to do and must not turn.
#[test]
fn write_backpressure_pauses_reads_and_stays_bounded() {
    const REQUESTS: usize = 48;
    const RESPONSE_BYTES: u64 = 256 * 1024;
    let server = ShardedServer::bind(
        "127.0.0.1:0",
        NetConfig {
            cohort_size: 4,
            fill_timeout: Duration::from_millis(1),
            max_queued_bytes: 4096,
            max_parse_per_poll: 8,
            ..NetConfig::default()
        },
        vec![BULK],
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let join = std::thread::spawn(move || server.run(&flag));

    let mut conn = connect(addr);
    // Trickle the pipeline in small waves without reading: after the
    // first wave's responses blow past the 4 KiB cap, the reactor must
    // stop reading this socket, so later waves wait in the kernel
    // buffer instead of inflating the server-side backlog.
    for wave in 0..REQUESTS / 4 {
        let mut burst = Vec::new();
        for i in 0..4 {
            burst.extend_from_slice(&get(&format!("/p{:03}", wave * 4 + i)));
        }
        conn.write_all(&burst).unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    // Now drain: all responses, in order, bodies intact.
    let mut carry = Vec::new();
    for n in 0..REQUESTS {
        let resp = read_response(&mut conn, &mut carry).unwrap();
        assert_eq!(resp.status, 200);
        let body = resp.body();
        let prefix = format!("/p{n:03}|");
        assert!(
            body.starts_with(prefix.as_bytes()),
            "response {n} out of order or corrupt under backpressure"
        );
        assert_eq!(body.len(), prefix.len() + 256 * 1024);
    }
    drop(conn);

    stop.store(true, Ordering::Relaxed);
    let stats = join.join().expect("server thread").total();
    assert_eq!(stats.requests, REQUESTS as u64);
    assert_eq!(stats.responses, REQUESTS as u64);
    assert_eq!(stats.responses_dropped, 0);
    assert!(
        stats.reads_paused > 0,
        "the queued-bytes cap must pause reads at least once"
    );
    assert!(
        stats.idle_polls <= QUIET,
        "{} no-progress turns: a paused connection kept waking the reactor",
        stats.idle_polls
    );
    assert!(
        stats.peak_queued_bytes >= 4096,
        "a single 256 KiB response exceeds the cap, so the peak must too"
    );
    // Boundedness: without the pause + parse quantum the reactor would
    // slurp the whole pipeline and queue ~all of the 48×256 KiB of
    // responses at once. With them, one poll can add at most
    // `max_parse_per_poll` responses to a sub-cap backlog.
    let total_volume = REQUESTS as u64 * RESPONSE_BYTES;
    assert!(
        stats.peak_queued_bytes < total_volume / 3,
        "peak backlog {} of {} total bytes: backpressure did not bound \
         the queue",
        stats.peak_queued_bytes,
        total_volume
    );
}

/// A peer that pipelines a large response volume and then never reads
/// must not hold its slot forever: once its queued output makes no
/// progress for a full read deadline, the reactor reaps it as a stalled
/// reader, and the server keeps serving other connections.
#[test]
fn stalled_reader_is_reaped_and_server_stays_healthy() {
    let server = ShardedServer::bind(
        "127.0.0.1:0",
        NetConfig {
            cohort_size: 4,
            fill_timeout: Duration::from_millis(1),
            max_queued_bytes: 4096,
            read_deadline: Duration::from_millis(150),
            ..NetConfig::default()
        },
        vec![BULK],
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let join = std::thread::spawn(move || server.run(&flag));

    // ~12 MiB of responses against a reader that never reads: far more
    // than loopback socket buffers absorb, so the write side stalls.
    let mut stalled = connect(addr);
    let mut burst = Vec::new();
    for i in 0..48 {
        burst.extend_from_slice(&get(&format!("/s{i:03}")));
    }
    stalled.write_all(&burst).unwrap();
    std::thread::sleep(Duration::from_millis(600));

    // The stalled peer must not have wedged the reactor: a well-behaved
    // connection still gets served.
    let mut healthy = connect(addr);
    let mut carry = Vec::new();
    send_request(&mut healthy, &get("/ok")).unwrap();
    let resp = read_response(&mut healthy, &mut carry).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body().starts_with(b"/ok|"));
    drop(healthy);
    drop(stalled);

    stop.store(true, Ordering::Relaxed);
    let stats = join.join().expect("server thread").total();
    assert!(
        stats.reaped_stalled >= 1,
        "a never-reading peer with queued output must be reaped \
         (reaped_stalled={}, reaped_idle={})",
        stats.reaped_stalled,
        stats.reaped_idle
    );
    assert!(
        stats.reads_paused > 0,
        "backpressure must have paused reads before the reap"
    );
}
