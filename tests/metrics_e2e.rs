//! End-to-end acceptance of the live telemetry plane over real sockets:
//! `/metrics` counters must exactly match the loadgen's totals at shard
//! counts {1, 2, 4}, the admin documents must validate, closed-loop
//! clients on the device path must launch only full cohorts, the SIMT
//! device counters must surface per shard, and metered execution must stay
//! byte-identical to bare (`telemetry: false`) execution on both the
//! scalar and SIMT serving paths.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rhythm_banking::prelude::*;
use rhythm_net::{read_response, send_request, CohortHandler, NetConfig, ShardedServer, Telemetry};
use rhythm_simt::gpu::{Gpu, GpuConfig};

const NUM_USERS: u32 = 64;
const CAPACITY: u32 = 4096;
const SALT: u32 = 0x5EED_0001;

fn config(telemetry: bool) -> NetConfig {
    NetConfig {
        cohort_size: 4,
        fill_timeout: Duration::from_millis(1),
        pool_contexts: 16,
        telemetry,
        ..NetConfig::default()
    }
}

fn scalar_handler() -> ScalarHandler {
    ScalarHandler::new(
        BankStore::generate(NUM_USERS, 1),
        SessionArrayHost::new(CAPACITY, SALT),
    )
}

fn simt_handler() -> SimtHandler {
    let opts = CohortOptions {
        session_capacity: CAPACITY,
        session_salt: SALT,
        ..CohortOptions::default()
    };
    SimtHandler::new(
        Workload::build(),
        BankStore::generate(NUM_USERS, 1),
        SessionArrayHost::new(CAPACITY, SALT),
        Gpu::new(GpuConfig::gtx_titan()),
        opts,
    )
}

fn connect(addr: SocketAddr) -> TcpStream {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn
}

/// One closed-loop client conversation: login, then `gets` session-bearing
/// page fetches. Returns every raw response in order.
fn conversation(addr: SocketAddr, userid: u32, gets: usize) -> Vec<Vec<u8>> {
    let mut conn = connect(addr);
    let mut carry = Vec::new();
    let mut out = Vec::new();
    send_request(
        &mut conn,
        format!(
            "POST /bank/login.php HTTP/1.1\r\nHost: t\r\nContent-Length: 8\r\n\r\nuserid={userid}"
        )
        .as_bytes(),
    )
    .unwrap();
    let login = read_response(&mut conn, &mut carry).expect("login");
    assert_eq!(login.status, 200);
    let token: u32 = login
        .header("Set-Cookie")
        .and_then(|v| v.strip_prefix("SID=").map(|t| t.trim().to_string()))
        .and_then(|t| t.parse().ok())
        .expect("login sets SID");
    out.push(login.bytes);
    for i in 0..gets {
        let page = if i % 2 == 0 {
            "account_summary.php"
        } else {
            "profile.php"
        };
        send_request(
            &mut conn,
            format!(
                "GET /bank/{page}?userid={userid} HTTP/1.1\r\nHost: t\r\nCookie: SID={token}\r\n\r\n"
            )
            .as_bytes(),
        )
        .unwrap();
        let resp = read_response(&mut conn, &mut carry).expect("page");
        assert_eq!(resp.status, 200);
        out.push(resp.bytes);
    }
    out
}

/// GET one admin document off a live server.
fn admin_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut conn = connect(addr);
    let mut carry = Vec::new();
    send_request(
        &mut conn,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
    .unwrap();
    let resp = read_response(&mut conn, &mut carry).expect("admin response");
    (
        resp.status,
        String::from_utf8(resp.body().to_vec()).unwrap(),
    )
}

/// Sum every per-shard sample of a counter family in an exposition body.
fn sum_family(body: &str, family: &str) -> u64 {
    body.lines()
        .filter(|l| l.starts_with(&format!("{family}{{")))
        .filter_map(|l| l.split_whitespace().last())
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

/// The acceptance gate: after a fixed closed-loop run, the `/metrics`
/// request and response counters exactly equal the loadgen's sent totals
/// at every shard count, and the other admin documents validate.
#[test]
fn metrics_counters_match_loadgen_totals_across_shard_counts() {
    for shards in [1usize, 2, 4] {
        let handlers: Vec<_> = (0..shards).map(|_| scalar_handler()).collect();
        let server = ShardedServer::bind("127.0.0.1:0", config(true), handlers).expect("bind");
        let addr = server.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::spawn(move || server.run(&flag));

        let clients = shards * 2;
        let gets = 10usize;
        std::thread::scope(|scope| {
            for c in 0..clients {
                scope.spawn(move || conversation(addr, c as u32 % NUM_USERS, gets));
            }
        });
        let sent = (clients * (gets + 1)) as u64;

        // A shard publishes its counters at the end of the turn that wrote
        // the responses, so the last client can read its bytes a moment
        // before a scrape sees them counted: re-scrape until it does.
        let deadline = Instant::now() + Duration::from_secs(2);
        let (status, body) = loop {
            let (status, body) = admin_get(addr, "/metrics");
            if sum_family(&body, "rhythm_responses_total") >= sent || Instant::now() > deadline {
                break (status, body);
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(status, 200);
        rhythm_obs::validate_prometheus_text(&body).expect("exposition validates");
        assert_eq!(
            sum_family(&body, "rhythm_requests_total"),
            sent,
            "{shards} shard(s): server requests != loadgen sent"
        );
        assert_eq!(sum_family(&body, "rhythm_responses_total"), sent);
        assert_eq!(sum_family(&body, "rhythm_shed_503_total"), 0);
        // A second scrape of the live server reads no lower: the counters
        // are monotone.
        let (status, again) = admin_get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(
            sum_family(&again, "rhythm_requests_total")
                >= sum_family(&body, "rhythm_requests_total"),
            "{shards} shard(s): requests counter fell between scrapes"
        );

        let (status, health) = admin_get(addr, "/healthz");
        assert_eq!(status, 200);
        rhythm_obs::parse_json(&health).expect("healthz is JSON");
        assert!(health.contains("\"status\":\"ok\""));
        assert!(health.contains("\"balanced\":true"));

        let (status, trace) = admin_get(addr, "/trace");
        assert_eq!(status, 200);
        let check = rhythm_obs::validate_chrome_trace(&trace).expect("trace validates");
        assert!(check.events > 0, "flight recorder captured events");

        stop.store(true, Ordering::Relaxed);
        let run = join.join().expect("server");
        assert_eq!(run.total().requests, sent);
    }
}

/// Closed-loop clients on the device path: four synchronous clients each
/// log in and send 12 GETs to one shard whose cohorts hold four and whose
/// fill time-out (30 s) never expires in the run, so every cohort launches
/// full. Every answer is 200, every launch batches four requests, nothing
/// is shed, refused or dropped, and the reactor only turns when it has
/// work.
#[test]
fn closed_loop_simt_clients_launch_only_full_cohorts() {
    let config = NetConfig {
        cohort_size: 4,
        fill_timeout: Duration::from_secs(30),
        ..NetConfig::default()
    };
    let started = Instant::now();
    let server = ShardedServer::bind("127.0.0.1:0", config, vec![simt_handler()]).expect("bind");
    let addr = server.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let join = std::thread::spawn(move || server.run(&flag));

    let (clients, gets) = (4u32, 12usize);
    std::thread::scope(|scope| {
        for c in 0..clients {
            // `conversation` sets a read timeout and asserts each 200.
            scope.spawn(move || conversation(addr, c, gets));
        }
    });
    stop.store(true, Ordering::Relaxed);
    let run = join.join().expect("server");
    let wall_s = started.elapsed().as_secs_f64();

    let total = run.total();
    assert_eq!(total.requests, u64::from(clients) * (gets as u64 + 1));
    assert_eq!(total.full_launches, total.cohorts);
    assert_eq!(total.timeout_launches, 0);
    assert_eq!(total.mean_requests_per_launch(), 4.0);
    assert_eq!(total.shed_503, 0);
    assert_eq!(total.fsm_rejections, 0);
    assert_eq!(total.responses_dropped, 0);
    let idle_per_s = total.idle_polls as f64 / wall_s.max(1.0) / run.shards.len() as f64;
    assert!(
        idle_per_s < 50.0,
        "{idle_per_s:.0} idle polls per shard per second"
    );
}

/// SIMT device counters surface in the exposition when the handler is
/// wired into the shard's device registry.
#[test]
fn simt_device_counters_surface_in_metrics() {
    let telemetry = Arc::new(Telemetry::new(1));
    let handler = simt_handler().with_metrics(telemetry.device(0));
    let server = ShardedServer::bind("127.0.0.1:0", config(true), vec![handler]).expect("bind");
    let server = server.with_telemetry(&telemetry);
    let addr = server.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let join = std::thread::spawn(move || server.run(&flag));

    conversation(addr, 7, 4);

    let (status, body) = admin_get(addr, "/metrics");
    assert_eq!(status, 200);
    rhythm_obs::validate_prometheus_text(&body).expect("exposition validates");
    assert!(sum_family(&body, "rhythm_device_launches_total") > 0);
    assert!(sum_family(&body, "rhythm_device_cohorts_total") > 0);
    assert!(sum_family(&body, "rhythm_device_warp_instructions_total") > 0);
    assert!(body.contains("rhythm_device_simd_efficiency"));
    assert!(body.contains("rhythm_device_kernel_seconds_count"));
    // Every request of the conversation was served by a device cohort.
    assert_eq!(sum_family(&body, "rhythm_device_requests_total"), 5);
    assert!(body.contains("rhythm_plan_cache_hits_total"));
    // Every page's static fragments take the wide-copy path.
    assert!(sum_family(&body, "rhythm_wide_copy_commits_total") > 0);
    assert!(body.contains("rhythm_wide_copy_fallbacks_total"));
    // Latency histograms are tagged with real Banking page names.
    assert!(body.contains("rhythm_request_latency_seconds_count{type=\"login.php\"}"));

    stop.store(true, Ordering::Relaxed);
    let mut run = join.join().expect("server");
    let (stats, handler) = run.shards.pop().expect("one shard");
    assert_eq!(stats.requests, 5);
    assert!(handler.cohorts > 0);
}

/// Metered and bare execution must be byte-identical: the telemetry plane
/// observes, it never alters a response.
#[test]
fn metered_and_bare_responses_are_byte_identical_scalar_and_simt() {
    fn run<H: CohortHandler + Send + 'static>(handler: H, telemetry: bool) -> Vec<Vec<u8>> {
        let server =
            ShardedServer::bind("127.0.0.1:0", config(telemetry), vec![handler]).expect("bind");
        let addr = server.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::spawn(move || server.run(&flag));
        let out = conversation(addr, 7, 6);
        stop.store(true, Ordering::Relaxed);
        join.join().expect("server");
        out
    }

    let scalar_metered = run(scalar_handler(), true);
    let scalar_bare = run(scalar_handler(), false);
    assert_eq!(
        scalar_metered, scalar_bare,
        "scalar path: metering altered a response byte"
    );

    let simt_metered = run(simt_handler(), true);
    let simt_bare = run(simt_handler(), false);
    assert_eq!(
        simt_metered, simt_bare,
        "SIMT path: metering altered a response byte"
    );

    // Metering on the device registry is equally inert.
    let telemetry = Arc::new(Telemetry::new(1));
    let simt_wired = run(simt_handler().with_metrics(telemetry.device(0)), true);
    assert_eq!(simt_wired, simt_bare, "device metrics altered a response");
}
