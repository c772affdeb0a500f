//! End-to-end socket tests for a one-handler `ShardedServer` (the
//! single-reactor server) with a workload-agnostic echo
//! handler: cohort batching, pipelining, formation timeouts, overload
//! shedding (503), size caps (413), malformed input (400), and idle
//! reaping — all over real TCP connections.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rhythm_http::{HttpRequest, ResponseBuilder};
use rhythm_net::{
    read_response, send_request, CohortHandler, NetConfig, NetStats, Reactor, ShardedRun,
    ShardedServer,
};

/// Echoes each request's path back, recording every cohort's size.
struct EchoHandler {
    cohort_sizes: Vec<usize>,
}

impl CohortHandler for EchoHandler {
    fn classify(&self, req: &HttpRequest) -> Option<u32> {
        // Key by first path segment character so distinct "types" form
        // distinct cohorts; `/none*` is unclassifiable (404 path).
        if req.path.starts_with("/none") {
            None
        } else {
            Some(req.path.as_bytes().get(1).copied().unwrap_or(0) as u32)
        }
    }

    fn execute(&mut self, _key: u32, requests: &[HttpRequest]) -> Vec<Vec<u8>> {
        self.cohort_sizes.push(requests.len());
        requests
            .iter()
            .map(|r| {
                let mut b = ResponseBuilder::new(200, "OK");
                b.header("Content-Type", "text/plain");
                b.reserve_content_length();
                b.finish_headers();
                b.write_str(&format!("echo {}", r.path));
                b.finish()
            })
            .collect()
    }
}

/// Bind the single-reactor server: one echo handler, one shard.
fn bind(config: NetConfig) -> ShardedServer<EchoHandler> {
    let handler = EchoHandler {
        cohort_sizes: Vec::new(),
    };
    ShardedServer::bind("127.0.0.1:0", config, vec![handler]).expect("bind")
}

/// The one shard's counters and handler.
fn only_shard(mut run: ShardedRun<EchoHandler>) -> (NetStats, EchoHandler) {
    assert_eq!(run.shards.len(), 1);
    run.shards.pop().expect("one shard")
}

struct Server {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<ShardedRun<EchoHandler>>>,
}

impl Server {
    fn start(config: NetConfig) -> Self {
        let server = bind(config);
        let addr = server.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::spawn(move || server.run(&flag));
        Server {
            addr,
            stop,
            join: Some(join),
        }
    }

    fn finish(mut self) -> (NetStats, EchoHandler) {
        self.stop.store(true, Ordering::Relaxed);
        only_shard(
            self.join
                .take()
                .expect("not yet joined")
                .join()
                .expect("server thread"),
        )
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").into_bytes()
}

#[test]
fn single_request_round_trip() {
    let server = Server::start(NetConfig {
        cohort_size: 4,
        fill_timeout: Duration::from_millis(1),
        ..NetConfig::default()
    });
    let mut conn = connect(server.addr);
    let mut carry = Vec::new();
    send_request(&mut conn, &get("/alpha")).unwrap();
    let resp = read_response(&mut conn, &mut carry).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body(), b"echo /alpha");

    let (stats, _) = server.finish();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.responses, 1);
    assert_eq!(
        stats.timeout_launches, 1,
        "lone request launches by timeout"
    );
}

/// The shipped defaults hold the banking workload's 14 request types at
/// once: 14 distinct keys pipelined in one write are read and dispatched
/// by one poll — all inside one fill window — and none is shed. (With 8
/// contexts six of them were answered 503.)
#[test]
fn default_pool_holds_fourteen_keys_in_one_fill_window() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut client = connect(listener.local_addr().expect("addr"));
    let (accepted, _) = listener.accept().expect("accept");
    let mut reactor = Reactor::new(
        NetConfig::default(),
        EchoHandler {
            cohort_sizes: Vec::new(),
        },
    )
    .expect("reactor");
    reactor.admit(accepted);

    let keys = b'a'..=b'n';
    let mut burst = Vec::new();
    for k in keys.clone() {
        burst.extend_from_slice(&get(&format!("/{}", k as char)));
    }
    send_request(&mut client, &burst).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while reactor.stats().responses < 14 && std::time::Instant::now() < deadline {
        reactor.poll();
    }

    let mut carry = Vec::new();
    for k in keys {
        let resp = read_response(&mut client, &mut carry).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body(), format!("echo /{}", k as char).as_bytes());
    }
    let (stats, handler) = reactor.into_parts();
    assert_eq!((stats.requests, stats.responses), (14, 14));
    assert_eq!(stats.shed_503, 0);
    assert_eq!(handler.cohort_sizes, vec![1; 14], "14 cohorts of one");
}

#[test]
fn pipelined_same_type_requests_form_one_cohort() {
    let server = Server::start(NetConfig {
        cohort_size: 4,
        fill_timeout: Duration::from_millis(50),
        ..NetConfig::default()
    });
    let mut conn = connect(server.addr);
    let mut carry = Vec::new();
    // Four same-key requests back-to-back fill one cohort exactly.
    let mut burst = Vec::new();
    for i in 0..4 {
        burst.extend_from_slice(&get(&format!("/same{i}")));
    }
    send_request(&mut conn, &burst).unwrap();
    for i in 0..4 {
        let resp = read_response(&mut conn, &mut carry).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body(),
            format!("echo /same{i}").as_bytes(),
            "responses keep request order"
        );
    }

    let (stats, handler) = server.finish();
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.full_launches, 1, "the burst fills one full cohort");
    assert_eq!(handler.cohort_sizes, vec![4]);
    assert!((stats.mean_fill() - 1.0).abs() < 1e-9);
}

#[test]
fn mixed_types_split_into_per_key_cohorts() {
    let server = Server::start(NetConfig {
        cohort_size: 8,
        fill_timeout: Duration::from_millis(1),
        ..NetConfig::default()
    });
    let mut conn = connect(server.addr);
    let mut carry = Vec::new();
    let mut burst = Vec::new();
    burst.extend_from_slice(&get("/aa"));
    burst.extend_from_slice(&get("/bb"));
    burst.extend_from_slice(&get("/ab"));
    send_request(&mut conn, &burst).unwrap();
    let mut bodies = Vec::new();
    for _ in 0..3 {
        let resp = read_response(&mut conn, &mut carry).unwrap();
        assert_eq!(resp.status, 200);
        bodies.push(String::from_utf8(resp.body().to_vec()).unwrap());
    }
    // Responses come back in request order even though the two cohorts
    // (key 'a': /aa + /ab, key 'b': /bb) retire independently.
    assert_eq!(bodies, vec!["echo /aa", "echo /bb", "echo /ab"]);

    let (stats, handler) = server.finish();
    assert_eq!(stats.cohorts, 2, "one cohort per key");
    let mut sizes = handler.cohort_sizes.clone();
    sizes.sort_unstable();
    assert_eq!(sizes, vec![1, 2]);
}

#[test]
fn unclassified_request_gets_404_without_a_cohort() {
    let server = Server::start(NetConfig::default());
    let mut conn = connect(server.addr);
    let mut carry = Vec::new();
    send_request(&mut conn, &get("/none/such")).unwrap();
    let resp = read_response(&mut conn, &mut carry).unwrap();
    assert_eq!(resp.status, 404);

    let (stats, handler) = server.finish();
    assert_eq!(stats.unclassified, 1);
    assert_eq!(stats.cohorts, 0);
    assert!(handler.cohort_sizes.is_empty());
}

#[test]
fn oversized_request_gets_413_and_close() {
    let server = Server::start(NetConfig {
        max_request_bytes: 128,
        ..NetConfig::default()
    });
    let mut conn = connect(server.addr);
    let mut carry = Vec::new();
    let huge = format!(
        "GET /x HTTP/1.1\r\nHost: t\r\nX-Pad: {}\r\n\r\n",
        "p".repeat(200)
    );
    send_request(&mut conn, huge.as_bytes()).unwrap();
    let resp = read_response(&mut conn, &mut carry).unwrap();
    assert_eq!(resp.status, 413);

    let (stats, _) = server.finish();
    assert_eq!(stats.too_large_413, 1);
}

#[test]
fn lying_content_length_gets_413_not_a_hang() {
    let server = Server::start(NetConfig {
        max_request_bytes: 256,
        ..NetConfig::default()
    });
    let mut conn = connect(server.addr);
    let mut carry = Vec::new();
    // Declares far more body than the cap; only headers are sent.
    send_request(
        &mut conn,
        b"POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: 1000000\r\n\r\n",
    )
    .unwrap();
    let resp = read_response(&mut conn, &mut carry).unwrap();
    assert_eq!(resp.status, 413);

    let (stats, _) = server.finish();
    assert_eq!(stats.too_large_413, 1);
}

#[test]
fn malformed_request_gets_400() {
    let server = Server::start(NetConfig::default());
    let mut conn = connect(server.addr);
    let mut carry = Vec::new();
    send_request(&mut conn, b"BREW /pot HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let resp = read_response(&mut conn, &mut carry).unwrap();
    assert_eq!(resp.status, 400);

    let (stats, _) = server.finish();
    assert_eq!(stats.bad_request_400, 1);
}

#[test]
fn over_cap_connections_are_shed_with_503() {
    let server = Server::start(NetConfig {
        max_connections: 2,
        ..NetConfig::default()
    });
    // Two admitted connections hold their slots (keep-alive, no close).
    let mut held = Vec::new();
    let mut carry = Vec::new();
    for _ in 0..2 {
        let mut c = connect(server.addr);
        send_request(&mut c, &get("/held")).unwrap();
        let resp = read_response(&mut c, &mut carry).unwrap();
        assert_eq!(resp.status, 200);
        carry.clear();
        held.push(c);
    }
    // Further connections are over the cap: shed with 503 + Retry-After.
    let mut sheds = 0;
    for _ in 0..3 {
        let mut c = connect(server.addr);
        let mut carry = Vec::new();
        send_request(&mut c, &get("/extra")).unwrap();
        let resp = read_response(&mut c, &mut carry).unwrap();
        if resp.status == 503 {
            assert!(
                resp.header("Retry-After").is_some(),
                "503 carries Retry-After"
            );
            sheds += 1;
        }
    }
    assert!(sheds > 0, "over-cap connections must see 503");

    drop(held);
    let (stats, _) = server.finish();
    assert_eq!(stats.rejected_over_cap, sheds as u64);
    assert!(stats.peak_connections <= 2);
}

#[test]
fn half_open_connection_is_reaped_by_deadline() {
    let server = Server::start(NetConfig {
        read_deadline: Duration::from_millis(50),
        ..NetConfig::default()
    });
    // Connect and go silent — a half-open client holding a slot.
    let _silent = connect(server.addr);
    std::thread::sleep(Duration::from_millis(300));

    let (stats, _) = server.finish();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.reaped_idle, 1, "silent connection reaped by deadline");
}

#[test]
fn two_connections_interleave_into_shared_cohorts() {
    let server = Server::start(NetConfig {
        cohort_size: 2,
        fill_timeout: Duration::from_millis(100),
        ..NetConfig::default()
    });
    let mut a = connect(server.addr);
    let mut b = connect(server.addr);
    let (mut ca, mut cb) = (Vec::new(), Vec::new());
    // One same-key request from each connection: together they fill a
    // 2-wide cohort, and each response is transposed back to its own
    // connection.
    send_request(&mut a, &get("/shared/a")).unwrap();
    send_request(&mut b, &get("/shared/b")).unwrap();
    let ra = read_response(&mut a, &mut ca).unwrap();
    let rb = read_response(&mut b, &mut cb).unwrap();
    assert_eq!(ra.body(), b"echo /shared/a");
    assert_eq!(rb.body(), b"echo /shared/b");

    let (stats, handler) = server.finish();
    assert_eq!(stats.full_launches, 1, "cross-connection cohort filled");
    assert_eq!(handler.cohort_sizes, vec![2]);
}

/// The fill deadline is a timer, not a polling interval: a lone request
/// on an otherwise silent server — nothing else will ever wake the
/// reactor — is launched by the deadline's own firing. The request is
/// queued in the socket *before* the run loop starts, so the cohort's
/// fill wait is the only latency left to measure: 25 ms, where a reactor
/// that waited for any other firing would sit until its next reap pass
/// (1.25 s at the default read deadline).
#[test]
fn lone_request_launches_on_the_fill_timer() {
    let config = NetConfig {
        cohort_size: 32,
        fill_timeout: Duration::from_millis(25),
        ..NetConfig::default()
    };
    let server = bind(config);
    let addr = server.local_addr().expect("addr");

    let mut conn = connect(addr);
    send_request(&mut conn, &get("/timer")).expect("send");
    // Let the bytes land in the accept queue before the loop starts.
    std::thread::sleep(Duration::from_millis(20));

    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let start = std::time::Instant::now();
    let join = std::thread::spawn(move || server.run(&flag));

    let mut carry = Vec::new();
    let resp = read_response(&mut conn, &mut carry).expect("response");
    let elapsed = start.elapsed();
    assert_eq!(resp.body(), b"echo /timer");

    stop.store(true, Ordering::Relaxed);
    let (stats, _) = only_shard(join.join().expect("server thread"));
    assert_eq!(stats.timeout_launches, 1, "cohort must launch on deadline");
    assert!(
        elapsed >= Duration::from_millis(25),
        "launched before the fill deadline: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_millis(80),
        "the fill timer did not wake the reactor: response took {elapsed:?} \
         for a 25 ms deadline"
    );
}
