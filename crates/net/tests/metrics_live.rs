//! Live telemetry plane under load: the accounting invariant on every
//! concurrent scrape, counter monotonicity, in-band admin endpoints, and
//! the bare (`telemetry: false`) baseline.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rhythm_http::{HttpRequest, ResponseBuilder};
use rhythm_net::{
    read_response, send_request, CohortHandler, NetConfig, ShardedRun, ShardedServer,
};

/// Echoes the request path; classifies every path by its first character.
struct EchoHandler;

impl CohortHandler for EchoHandler {
    fn classify(&self, req: &HttpRequest) -> Option<u32> {
        Some(req.path.as_bytes().get(1).copied().unwrap_or(0) as u32)
    }

    fn execute(&mut self, _key: u32, requests: &[HttpRequest]) -> Vec<Vec<u8>> {
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

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").into_bytes()
}

fn config() -> NetConfig {
    NetConfig {
        cohort_size: 4,
        fill_timeout: Duration::from_millis(1),
        pool_contexts: 16,
        ..NetConfig::default()
    }
}

/// Drive a sharded server with concurrent closed-loop clients while a
/// scraper thread reads every shard's live snapshot as fast as it can:
/// the accounting invariant must hold on every single read, and
/// per-shard `requests` must be monotone.
#[test]
fn accounting_invariant_holds_on_every_concurrent_scrape() {
    let shards = 2;
    let clients = 4;
    let per_client = 50u64;
    let handlers: Vec<_> = (0..shards).map(|_| EchoHandler).collect();
    let server = ShardedServer::bind("127.0.0.1:0", config(), handlers).expect("bind");
    let telemetry = Arc::clone(server.telemetry());
    let addr = server.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));

    let scraper = {
        let telemetry = Arc::clone(&telemetry);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = vec![0u64; telemetry.shards()];
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for (i, seen) in last.iter_mut().enumerate() {
                    let snap = telemetry.shard(i).live();
                    assert!(
                        snap.accounting_balanced(),
                        "shard {i}: requests {} != responses {} + shed {} + in_cohort {}",
                        snap.stats.requests,
                        snap.stats.responses,
                        snap.shed_total(),
                        snap.in_cohort
                    );
                    assert!(
                        snap.stats.requests >= *seen,
                        "shard {i}: requests went backwards"
                    );
                    *seen = snap.stats.requests;
                }
                scrapes += 1;
            }
            scrapes
        })
    };

    let run: ShardedRun<EchoHandler> = std::thread::scope(|scope| {
        let flag = Arc::clone(&stop);
        let join = scope.spawn(move || server.run(&flag));
        let mut client_joins = Vec::new();
        for c in 0..clients {
            client_joins.push(scope.spawn(move || {
                let mut conn = connect(addr);
                let mut carry = Vec::new();
                for i in 0..per_client {
                    send_request(&mut conn, &get(&format!("/k{c}_{i}"))).unwrap();
                    let resp = read_response(&mut conn, &mut carry).unwrap();
                    assert_eq!(resp.status, 200);
                }
            }));
        }
        for j in client_joins {
            j.join().expect("client");
        }
        stop.store(true, Ordering::Relaxed);
        join.join().expect("server")
    });
    let scrapes = scraper.join().expect("scraper");
    assert!(scrapes > 0, "scraper never ran");

    // At quiescence the plane's totals equal the run's final counters and
    // every request is accounted as a delivered response.
    let sent = clients as u64 * per_client;
    let total = telemetry.total();
    assert_eq!(total.stats.requests, sent);
    assert_eq!(total.stats.responses, sent);
    assert_eq!(total.in_cohort, 0);
    assert!(total.accounting_balanced());
    assert_eq!(run.total().requests, sent);
    assert_eq!(run.total(), total.stats, "published == final counters");
}

/// The in-band admin endpoints answer on a workload connection, render
/// valid documents, and are counted apart from workload requests.
#[test]
fn admin_endpoints_serve_valid_documents_in_band() {
    let server = ShardedServer::bind("127.0.0.1:0", config(), vec![EchoHandler]).expect("bind");
    let telemetry = Arc::clone(server.telemetry());
    let addr = server.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let join = std::thread::spawn(move || server.run(&flag));

    let mut conn = connect(addr);
    let mut carry = Vec::new();
    for i in 0..4 {
        send_request(&mut conn, &get(&format!("/w{i}"))).unwrap();
        assert_eq!(read_response(&mut conn, &mut carry).unwrap().status, 200);
    }

    send_request(&mut conn, &get("/metrics")).unwrap();
    let metrics = read_response(&mut conn, &mut carry).unwrap();
    assert_eq!(metrics.status, 200);
    let body = String::from_utf8(metrics.body().to_vec()).unwrap();
    rhythm_obs::validate_prometheus_text(&body).expect("metrics body validates");
    assert!(body.contains("rhythm_requests_total{shard=\"0\"} 4"));
    assert!(body.contains("rhythm_request_latency_seconds_count"));
    assert!(body.contains("rhythm_cohort_fill_count"));

    send_request(&mut conn, &get("/healthz")).unwrap();
    let health = read_response(&mut conn, &mut carry).unwrap();
    assert_eq!(health.status, 200);
    let health_body = String::from_utf8(health.body().to_vec()).unwrap();
    rhythm_obs::parse_json(&health_body).expect("healthz is JSON");
    assert!(health_body.contains("\"status\":\"ok\""));
    assert!(health_body.contains("\"balanced\":true"));

    send_request(&mut conn, &get("/trace")).unwrap();
    let trace = read_response(&mut conn, &mut carry).unwrap();
    assert_eq!(trace.status, 200);
    let trace_body = String::from_utf8(trace.body().to_vec()).unwrap();
    let check = rhythm_obs::validate_chrome_trace(&trace_body).expect("trace validates");
    assert!(check.events > 0, "flight recorder captured events");
    assert!(
        check.names.iter().any(|n| n == "cohort batch"),
        "names: {:?}",
        check.names
    );
    assert!(trace_body.contains("\"name\":\"thread_name\",\"args\":{\"name\":\"cohorts\"}"));

    // A second scrape must be monotone against the first.
    send_request(&mut conn, &get("/metrics")).unwrap();
    let metrics2 = read_response(&mut conn, &mut carry).unwrap();
    let body2 = String::from_utf8(metrics2.body().to_vec()).unwrap();
    let requests_of = |b: &str| {
        b.lines()
            .find(|l| l.starts_with("rhythm_requests_total{shard=\"0\"}"))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse::<u64>().ok())
            .expect("requests sample")
    };
    assert!(requests_of(&body2) >= requests_of(&body));

    stop.store(true, Ordering::Relaxed);
    let stats = join.join().expect("server").total();
    // Admin hits never leak into workload accounting.
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.responses, 4);
    assert_eq!(stats.admin_requests, 4, "three endpoints + second scrape");
    assert_eq!(telemetry.total().stats.admin_requests, 4);
}

/// With `telemetry: false` the reactor runs bare: admin paths flow into
/// normal cohort dispatch (the echo handler answers them) and nothing is
/// ever published into the plane.
#[test]
fn telemetry_off_disables_admin_and_publication() {
    let config = NetConfig {
        telemetry: false,
        ..config()
    };
    let server = ShardedServer::bind("127.0.0.1:0", config, vec![EchoHandler]).expect("bind");
    let telemetry = Arc::clone(server.telemetry());
    let addr = server.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let join = std::thread::spawn(move || server.run(&flag));

    let mut conn = connect(addr);
    let mut carry = Vec::new();
    send_request(&mut conn, &get("/metrics")).unwrap();
    let resp = read_response(&mut conn, &mut carry).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.body(),
        b"echo /metrics",
        "bare mode: /metrics is just another workload path"
    );

    stop.store(true, Ordering::Relaxed);
    let stats = join.join().expect("server").total();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.admin_requests, 0);
    let snap = telemetry.shard(0).live();
    assert_eq!(snap.stats.requests, 0, "bare mode publishes nothing");
    assert_eq!(telemetry.shard(0).flight().recorded(), 0);
}
