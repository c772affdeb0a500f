//! End-to-end equivalence of the networked front end: the same Banking
//! requests served over real sockets (scalar and SIMT cohort paths) must
//! produce responses byte-identical — modulo warp-alignment padding on
//! the device path — to the offline reference executions
//! (`handle_native` / `run_cohort_traced`).

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rhythm_banking::prelude::*;
use rhythm_net::{read_response, send_request, CohortHandler, NetConfig, ShardedServer};
use rhythm_obs::NoopRecorder;
use rhythm_simt::gpu::{Gpu, GpuConfig};

const NUM_USERS: u32 = 64;
const CAPACITY: u32 = 4096;
const SALT: u32 = 0x5EED_0001;

/// The conversation driven over the wire and replayed offline: a login
/// followed by session-bearing page fetches of several types.
const PAGES: [RequestType; 4] = [
    RequestType::AccountSummary,
    RequestType::Profile,
    RequestType::Transfer,
    RequestType::OrderCheck,
];
const USERID: u32 = 7;

/// Serve the conversation through the single-reactor server (one handler,
/// one shard) and return the raw responses in order (login first, then
/// each page).
fn serve_conversation<H: CohortHandler + Send + 'static>(handler: H) -> Vec<Vec<u8>> {
    serve_conversation_on(vec![handler])
}

/// Serve the conversation through the sharded multi-reactor front end.
/// The conversation rides one connection, so session-affinity routing
/// pins it (and its session) to one shard regardless of shard count.
fn serve_conversation_sharded<H, F>(mk: F, shards: usize) -> Vec<Vec<u8>>
where
    H: CohortHandler + Send + 'static,
    F: Fn() -> H,
{
    serve_conversation_on((0..shards).map(|_| mk()).collect())
}

/// The one conversation driver: a server with one reactor per handler.
fn serve_conversation_on<H>(handlers: Vec<H>) -> Vec<Vec<u8>>
where
    H: CohortHandler + Send + 'static,
{
    let config = NetConfig {
        cohort_size: 4,
        fill_timeout: Duration::from_millis(1),
        ..NetConfig::default()
    };
    let shards = handlers.len();
    let server = ShardedServer::bind("127.0.0.1:0", config, handlers).expect("bind");
    let addr = server.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let join = std::thread::spawn(move || server.run(&flag));

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut carry = Vec::new();
    let mut out = Vec::new();

    send_request(
        &mut conn,
        format!(
            "POST /bank/login.php HTTP/1.1\r\nHost: t\r\nContent-Length: 8\r\n\r\nuserid={USERID}"
        )
        .as_bytes(),
    )
    .unwrap();
    let login = read_response(&mut conn, &mut carry).expect("login response");
    assert_eq!(login.status, 200);
    let token: u32 = login
        .header("Set-Cookie")
        .and_then(|v| v.strip_prefix("SID=").map(|t| t.trim().to_string()))
        .and_then(|t| t.parse().ok())
        .expect("login sets SID");
    out.push(login.bytes);

    for ty in PAGES {
        send_request(
            &mut conn,
            format!(
                "GET /bank/{}?userid={USERID} HTTP/1.1\r\nHost: t\r\nCookie: SID={token}\r\n\r\n",
                ty.file_name()
            )
            .as_bytes(),
        )
        .unwrap();
        let resp = read_response(&mut conn, &mut carry).expect("page response");
        assert_eq!(resp.status, 200, "{ty} must succeed at {shards} shards");
        out.push(resp.bytes);
    }
    drop(conn);

    stop.store(true, Ordering::Relaxed);
    let run = join.join().expect("server threads");
    let total = run.total();
    assert_eq!(total.requests as usize, 1 + PAGES.len());
    assert_eq!(total.shed_503, 0, "no shedding at this load");
    assert_eq!(total.responses_dropped, 0, "no dropped responses");
    // One connection -> exactly one shard saw traffic (affinity pinning).
    assert_eq!(
        run.shards
            .iter()
            .filter(|(stats, _)| stats.requests > 0)
            .count(),
        1,
        "a single connection must stay pinned to one shard"
    );
    out
}

/// Replay the same conversation offline through `handle_native`.
fn native_conversation() -> Vec<Vec<u8>> {
    let store = BankStore::generate(NUM_USERS, 1);
    let mut sessions = SessionArrayHost::new(CAPACITY, SALT);
    let mut out = Vec::new();

    let login = BankingRequest::new(RequestType::Login, 0, [USERID, 0, 0, 0]);
    let resp = handle_native(&login, &store, &mut sessions);
    let text = String::from_utf8_lossy(&resp);
    let token: u32 = text
        .split("Set-Cookie: SID=")
        .nth(1)
        .and_then(|t| t.split_whitespace().next())
        .and_then(|t| t.parse().ok())
        .expect("native login sets SID");
    out.push(resp);

    for ty in PAGES {
        let req = BankingRequest::new(ty, token, [USERID, 0, 0, 0]);
        out.push(handle_native(&req, &store, &mut sessions));
    }
    out
}

/// Replay the same conversation offline through the device cohort runner
/// (cohorts of one, matching the wire conversation's serial order).
fn device_conversation() -> Vec<Vec<u8>> {
    let workload = Workload::build();
    let store = BankStore::generate(NUM_USERS, 1);
    let opts = CohortOptions {
        session_capacity: CAPACITY,
        session_salt: SALT,
        ..CohortOptions::default()
    };
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let mut sessions = SessionArrayHost::new(CAPACITY, SALT);
    let mut out = Vec::new();

    let login = GeneratedRequest {
        ty: RequestType::Login,
        token: 0,
        params: [USERID, 0, 0, 0],
        raw: rhythm_banking::genreq::raw_http(RequestType::Login, 0, &[USERID, 0, 0, 0]),
    };
    let result = run_cohort_traced(
        &workload,
        &store,
        &mut sessions,
        &[login],
        &gpu,
        &opts,
        &NoopRecorder,
    )
    .expect("device login");
    let text = String::from_utf8_lossy(&result.responses[0]);
    let token: u32 = text
        .split("Set-Cookie: SID=")
        .nth(1)
        .and_then(|t| t.split_whitespace().next())
        .and_then(|t| t.parse().ok())
        .expect("device login sets SID");
    out.push(result.responses[0].clone());

    for ty in PAGES {
        let req = GeneratedRequest {
            ty,
            token,
            params: [USERID, 0, 0, 0],
            raw: rhythm_banking::genreq::raw_http(ty, token, &[USERID, 0, 0, 0]),
        };
        let result = run_cohort_traced(
            &workload,
            &store,
            &mut sessions,
            &[req],
            &gpu,
            &opts,
            &NoopRecorder,
        )
        .expect("device page");
        out.push(result.responses[0].clone());
    }
    out
}

#[test]
fn scalar_net_path_matches_offline_native_exactly() {
    let store = BankStore::generate(NUM_USERS, 1);
    let sessions = SessionArrayHost::new(CAPACITY, SALT);
    let wire = serve_conversation(ScalarHandler::new(store, sessions));
    let offline = native_conversation();
    assert_eq!(wire.len(), offline.len());
    for (i, (w, o)) in wire.iter().zip(&offline).enumerate() {
        assert_eq!(w, o, "response {i} differs between socket and offline");
    }
}

#[test]
fn simt_net_path_matches_offline_cohort_runner_exactly() {
    let opts = CohortOptions {
        session_capacity: CAPACITY,
        session_salt: SALT,
        ..CohortOptions::default()
    };
    let handler = SimtHandler::new(
        Workload::build(),
        BankStore::generate(NUM_USERS, 1),
        SessionArrayHost::new(CAPACITY, SALT),
        Gpu::new(GpuConfig::gtx_titan()),
        opts,
    );
    let wire = serve_conversation(handler);
    let offline = device_conversation();
    assert_eq!(wire.len(), offline.len());
    for (i, (w, o)) in wire.iter().zip(&offline).enumerate() {
        assert_eq!(w, o, "response {i} differs between socket and offline");
    }
}

/// Socket-vs-offline byte identity must hold at every shard count: the
/// sharded front end may never perturb responses.
#[test]
fn sharded_scalar_path_matches_offline_at_every_shard_count() {
    let offline = native_conversation();
    for shards in [1usize, 2, 4] {
        let wire = serve_conversation_sharded(
            || {
                ScalarHandler::new(
                    BankStore::generate(NUM_USERS, 1),
                    SessionArrayHost::new(CAPACITY, SALT),
                )
            },
            shards,
        );
        assert_eq!(wire.len(), offline.len());
        for (i, (w, o)) in wire.iter().zip(&offline).enumerate() {
            assert_eq!(w, o, "response {i} differs at {shards} shards");
        }
    }
}

/// The SIMT device path through the sharded front end must also stay
/// byte-identical to the offline cohort runner at every shard count.
#[test]
fn sharded_simt_path_matches_offline_at_every_shard_count() {
    let offline = device_conversation();
    for shards in [1usize, 2, 4] {
        let wire = serve_conversation_sharded(
            || {
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
            },
            shards,
        );
        assert_eq!(wire.len(), offline.len());
        for (i, (w, o)) in wire.iter().zip(&offline).enumerate() {
            assert_eq!(w, o, "response {i} differs at {shards} shards");
        }
    }
}

#[test]
fn scalar_and_simt_net_paths_agree_modulo_padding() {
    let scalar = serve_conversation(ScalarHandler::new(
        BankStore::generate(NUM_USERS, 1),
        SessionArrayHost::new(CAPACITY, SALT),
    ));
    let opts = CohortOptions {
        session_capacity: CAPACITY,
        session_salt: SALT,
        ..CohortOptions::default()
    };
    let simt = serve_conversation(SimtHandler::new(
        Workload::build(),
        BankStore::generate(NUM_USERS, 1),
        SessionArrayHost::new(CAPACITY, SALT),
        Gpu::new(GpuConfig::gtx_titan()),
        opts,
    ));
    for (i, (a, b)) in scalar.iter().zip(&simt).enumerate() {
        assert!(
            rhythm_http::padding::eq_modulo_padding(a, b),
            "response {i}: scalar and SIMT paths disagree beyond padding"
        );
    }
}
