//! A live TCP banking server on the Rhythm networked front end: the
//! non-blocking `rhythm-net` reader feeds per-type cohorts to either the
//! native (CPU) handlers or the full SIMT device pipeline.
//!
//! By default it runs a self-contained demo: it binds an ephemeral port,
//! spawns a client that logs in, fetches pages over one keep-alive
//! connection and logs out, then exits. Pass `--serve` to keep listening
//! so you can drive it with curl, `--simt` to serve cohorts on the
//! simulated data-parallel device instead of the scalar path,
//! `--shards <n>` to run more than one reactor (each shard owns its
//! connections, cohort pool, and device — on the SIMT path a resident
//! device context holding its session array and store image), and
//! `--stats-interval <secs>`
//! to print a one-line live summary (rps, p99 latency, shed counts) from
//! the telemetry plane every interval:
//!
//! ```sh
//! cargo run --release --example banking_server -- --serve --simt --shards 4 --stats-interval 2
//! # in another shell (replace PORT):
//! curl -s -X POST 'http://127.0.0.1:PORT/bank/login.php' -d 'userid=7'
//! curl -s 'http://127.0.0.1:PORT/metrics'   # Prometheus exposition
//! curl -s 'http://127.0.0.1:PORT/healthz'   # liveness + accounting
//! curl -s 'http://127.0.0.1:PORT/trace'     # Chrome trace JSON
//! ```
//!
//! Either way the front end is the same: requests are parsed off
//! non-blocking sockets, batched into per-type cohorts (Free →
//! PartiallyFull → Full → Busy), launched on fill or on the formation
//! timeout, and the responses are transposed back onto their connections.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rhythm_banking::prelude::*;
use rhythm_net::{
    read_response, send_request, CohortHandler, NetConfig, NetStats, ShardedServer, Telemetry,
};
use rhythm_obs::StreamingHistogram;
use rhythm_simt::gpu::{Gpu, GpuConfig};

const NUM_USERS: u32 = 256;
const SESSION_CAPACITY: u32 = 65536;
const SESSION_SALT: u32 = 0x5EED_0001;

fn config() -> NetConfig {
    NetConfig {
        cohort_size: 32,
        fill_timeout: Duration::from_millis(2),
        ..NetConfig::default()
    }
}

fn scalar_handler() -> ScalarHandler {
    ScalarHandler::new(
        BankStore::generate(NUM_USERS, 1),
        SessionArrayHost::new(SESSION_CAPACITY, SESSION_SALT),
    )
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

/// Print a one-line live summary every `interval` from the telemetry
/// plane: request rate over the interval, p99 latency from the merged
/// live histograms, and the accounting tail (shed, in-cohort, conns).
fn spawn_stats_printer(telemetry: Arc<Telemetry>, interval: Duration) {
    std::thread::spawn(move || {
        let mut last_requests = 0u64;
        loop {
            std::thread::sleep(interval);
            let total = telemetry.total();
            let rps = (total.stats.requests - last_requests) as f64 / interval.as_secs_f64();
            last_requests = total.stats.requests;
            let mut merged: Option<StreamingHistogram> = None;
            for (_, hist) in telemetry.latency_merged() {
                match &mut merged {
                    Some(m) => m.merge(&hist),
                    None => merged = Some(hist),
                }
            }
            let p99_ms = merged.map_or(0.0, |m| m.quantile(0.99) * 1e3);
            println!(
                "[stats] rps {rps:8.1} | p99 {p99_ms:7.3} ms | requests {} | shed {} | \
                 in_cohort {} | conns {}",
                total.stats.requests,
                total.shed_total(),
                total.in_cohort,
                total.connections,
            );
        }
    });
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let serve_forever = args.iter().any(|a| a == "--serve");
    let simt = args.iter().any(|a| a == "--simt");
    let shards: usize = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let stats_interval: u64 = args
        .iter()
        .position(|a| a == "--stats-interval")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    if serve_forever {
        // One telemetry plane up front, so each SIMT handler's device
        // counters land in its own shard's registry.
        let telemetry = Arc::new(Telemetry::new(shards));
        if stats_interval > 0 {
            spawn_stats_printer(Arc::clone(&telemetry), Duration::from_secs(stats_interval));
        }
        return if simt {
            let handlers = (0..shards)
                .map(|i| simt_handler().with_metrics(telemetry.device(i)))
                .collect();
            serve(handlers, &telemetry, "SIMT cohort")
        } else {
            let handlers = (0..shards).map(|_| scalar_handler()).collect();
            serve(handlers, &telemetry, "scalar")
        };
    }

    // Demo mode: run the server on a thread and drive it with one
    // keep-alive client connection.
    if simt {
        let (stats, handler) = demo(simt_handler())?;
        println!(
            "demo complete: {} requests in {} device cohorts (mean fill {:.2}), \
             {:.3} ms modelled device time, {} live sessions remain",
            stats.requests,
            handler.cohorts,
            stats.mean_fill(),
            handler.device_time_s * 1e3,
            // Decoded from the shard's device session array on demand.
            handler.sessions().len()
        );
    } else {
        let (stats, handler) = demo(scalar_handler())?;
        println!(
            "demo complete: {} requests in {} cohorts (mean fill {:.2}), \
             {} live sessions remain (logout cleaned up)",
            stats.requests,
            stats.cohorts,
            stats.mean_fill(),
            handler.sessions().len()
        );
    }
    Ok(())
}

/// Serve until killed: one reactor per handler, each owning its
/// connections, cohort pool, and handler (its own device on the SIMT
/// path). Ctrl-C exits the process, so the stop flag never fires.
fn serve<H: CohortHandler + Send>(
    handlers: Vec<H>,
    telemetry: &Arc<Telemetry>,
    path: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let shards = handlers.len();
    let server = ShardedServer::bind("127.0.0.1:0", config(), handlers)?.with_telemetry(telemetry);
    let addr = server.local_addr()?;
    println!("rhythm banking server ({path} path, {shards} shards) on http://{addr}/bank/");
    println!("  live endpoints: /metrics /healthz /trace");
    server.run(&AtomicBool::new(false));
    Ok(())
}

fn demo<H: CohortHandler + Send + 'static>(
    handler: H,
) -> Result<(NetStats, H), Box<dyn std::error::Error>> {
    let server = ShardedServer::bind("127.0.0.1:0", config(), vec![handler])?;
    let addr = server.local_addr()?;
    println!("rhythm banking server listening on http://{addr}/bank/");

    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let join = std::thread::spawn(move || server.run(&flag));

    // One keep-alive connection for the whole conversation.
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut carry = Vec::new();

    send_request(
        &mut conn,
        b"POST /bank/login.php HTTP/1.1\r\nHost: demo\r\nContent-Length: 8\r\n\r\nuserid=7",
    )?;
    let login = read_response(&mut conn, &mut carry)?;
    assert_eq!(login.status, 200, "login must succeed");
    let token: u32 = login
        .header("Set-Cookie")
        .and_then(|v| v.strip_prefix("SID=").map(|t| t.trim().to_string()))
        .and_then(|t| t.parse().ok())
        .expect("login sets a session cookie");
    println!("[client] logged in, session token {token}");

    for page in ["account_summary.php", "profile.php", "transfer.php"] {
        send_request(
            &mut conn,
            format!(
                "GET /bank/{page}?userid=7 HTTP/1.1\r\nHost: demo\r\nCookie: SID={token}\r\n\r\n"
            )
            .as_bytes(),
        )?;
        let resp = read_response(&mut conn, &mut carry)?;
        println!(
            "[client] {page:<22} -> {} ({} bytes)",
            resp.status,
            resp.bytes.len()
        );
        assert_eq!(resp.status, 200, "expected 200 for {page}");
    }

    send_request(
        &mut conn,
        format!(
            "GET /bank/logout.php?userid=7 HTTP/1.1\r\nHost: demo\r\nCookie: SID={token}\r\n\r\n"
        )
        .as_bytes(),
    )?;
    let logout = read_response(&mut conn, &mut carry)?;
    println!("[client] logout                 -> {}", logout.status);
    assert_eq!(logout.status, 200);
    drop(conn);

    stop.store(true, Ordering::Relaxed);
    let mut run = join.join().expect("server thread");
    let (stats, handler) = run.shards.pop().expect("one shard");
    assert_eq!(stats.requests, 5, "demo sends five requests");
    assert_eq!(stats.shed_503, 0, "no shedding at demo load");
    Ok((stats, handler))
}
