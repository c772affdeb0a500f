//! The serial device serving path under the footprint sanitizer, over
//! real sockets: a full banking conversation (login → mixed read-only
//! pages → logout → re-login) against the sharded SIMT server, with the
//! sanitizer checking every kernel launch, must produce a byte-identical
//! transcript at shard counts 1, 2, and 4. The pipelined page burst forms
//! a multi-cohort batch, which the handler runs one cohort after another
//! on its resident context, each under the session undo journal. (The
//! file name is historical.)

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rhythm_banking::genreq::raw_http;
use rhythm_banking::prelude::*;
use rhythm_net::{read_response, send_request, NetConfig, ShardedServer};
use rhythm_simt::gpu::{Gpu, GpuConfig};

const SALT: u32 = 0x5EED_0001;
const SESSION_CAPACITY: u32 = 256;

fn handler() -> SimtHandler {
    let opts = CohortOptions {
        session_capacity: SESSION_CAPACITY,
        session_salt: SALT,
        sanitize: true,
        ..CohortOptions::default()
    };
    SimtHandler::new(
        Workload::build(),
        BankStore::generate(64, 7),
        SessionArrayHost::new(SESSION_CAPACITY, SALT),
        Gpu::new(GpuConfig::gtx_titan()),
        opts,
    )
}

struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<rhythm_net::ShardedRun<SimtHandler>>>,
}

impl Server {
    fn start(shards: usize) -> Self {
        let handlers: Vec<_> = (0..shards).map(|_| handler()).collect();
        let config = NetConfig {
            cohort_size: 4,
            fill_timeout: Duration::from_millis(5),
            ..NetConfig::default()
        };
        let server = ShardedServer::bind("127.0.0.1:0", config, handlers).expect("bind");
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
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

fn sid_of(resp: &[u8]) -> u32 {
    let text = String::from_utf8_lossy(resp);
    text.lines()
        .find_map(|l| l.strip_prefix("Set-Cookie: SID="))
        .unwrap_or_else(|| panic!("no session cookie in:\n{text}"))
        .trim()
        .parse()
        .expect("numeric SID")
}

/// Run the scripted conversation against one server and return the full
/// response transcript (status + raw bytes per request, in order).
fn conversation(addr: SocketAddr) -> Vec<(u16, Vec<u8>)> {
    let userid = 3u32;
    let mut conn = connect(addr);
    let mut carry = Vec::new();
    let mut transcript: Vec<(u16, Vec<u8>)> = Vec::new();
    fn round_trip(
        transcript: &mut Vec<(u16, Vec<u8>)>,
        conn: &mut TcpStream,
        carry: &mut Vec<u8>,
        raw: &[u8],
    ) -> Vec<u8> {
        send_request(conn, raw).unwrap();
        let resp = read_response(conn, carry).unwrap();
        transcript.push((resp.status, resp.bytes.clone()));
        resp.bytes
    }

    // Login, establishing the session the pages ride on.
    let login = raw_http(RequestType::Login, 0, &[userid, 0, 0, 0]);
    let resp = round_trip(&mut transcript, &mut conn, &mut carry, &login);
    let token = sid_of(&resp);

    // A pipelined burst of read-only pages of three different types: they
    // split into per-type cohorts that flush as one batch, which the
    // effect proofs must launch as one concurrent stream group.
    let burst: Vec<Vec<u8>> = vec![
        raw_http(RequestType::AccountSummary, token, &[userid, 0, 0, 0]),
        raw_http(RequestType::Transfer, token, &[userid, 120, 0, 0]),
        raw_http(RequestType::AccountSummary, token, &[userid, 0, 0, 0]),
        raw_http(RequestType::BillPay, token, &[userid, 45, 0, 0]),
        raw_http(RequestType::Transfer, token, &[userid, 60, 0, 0]),
    ];
    let mut bytes = Vec::new();
    for r in &burst {
        bytes.extend_from_slice(r);
    }
    send_request(&mut conn, &bytes).unwrap();
    for _ in &burst {
        let resp = read_response(&mut conn, &mut carry).unwrap();
        transcript.push((resp.status, resp.bytes.clone()));
    }

    // Logout (a proven write barrier), then a fresh login and one more
    // page through the new session.
    let logout = raw_http(RequestType::Logout, token, &[userid, 0, 0, 0]);
    round_trip(&mut transcript, &mut conn, &mut carry, &logout);
    let resp = round_trip(&mut transcript, &mut conn, &mut carry, &login);
    let token2 = sid_of(&resp);
    let summary = raw_http(RequestType::AccountSummary, token2, &[userid, 0, 0, 0]);
    round_trip(&mut transcript, &mut conn, &mut carry, &summary);
    let logout2 = raw_http(RequestType::Logout, token2, &[userid, 0, 0, 0]);
    round_trip(&mut transcript, &mut conn, &mut carry, &logout2);

    transcript
}

#[test]
fn conversation_transcript_is_bit_identical_across_shard_counts() {
    let mut reference: Option<Vec<(u16, Vec<u8>)>> = None;
    for shards in [1usize, 2, 4] {
        let server = Server::start(shards);
        let transcript = conversation(server.addr);
        drop(server);

        for (i, (status, raw)) in transcript.iter().enumerate() {
            assert_eq!(
                *status,
                200,
                "shards={shards} request {i} failed:\n{}",
                String::from_utf8_lossy(raw)
            );
        }
        match &reference {
            None => reference = Some(transcript),
            Some(reference) => {
                assert_eq!(
                    reference, &transcript,
                    "transcript differs at shards={shards}"
                );
            }
        }
    }
}
