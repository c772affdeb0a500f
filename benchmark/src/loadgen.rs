//! The open-loop generator: one non-blocking thread multiplexing 16
//! keep-alive connections, at most 8 requests in flight on each.
//!
//! Arrivals follow the plan whatever the server does. A request is timed
//! from its *scheduled* send time, so the wait a stall imposes on later
//! requests is counted; one that finds its connection's window full, or
//! whose user's earlier requests must finish first, waits in the
//! generator and is late, not failed. Every response is matched to its
//! request (HTTP pipelining answers in order) and checked byte for byte
//! against the native handler.

use std::collections::{HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rhythm_banking::genreq::raw_http;
use rhythm_banking::prelude::*;
use rhythm_obs::{ArgValue, Clock, Recorder, TraceRecorder};

use crate::gen::{conn_of, Arrival};
use crate::spec::{
    CONNS, DRAIN_S, LATE_S, PER_CONN_INFLIGHT, SESSION_CAPACITY, SESSION_SALT, TRACE_REQUESTS,
    USERS,
};

/// Longest wait for the 512 set-up Logins, which a cold device path
/// (first kernel decodes, first verifier verdicts) answers slowly. Must
/// stay under the server's 10 s `read_deadline`, which reaps connections
/// that sit idle meanwhile.
const SETUP_DRAIN_S: f64 = 8.0;
/// Sleep between polls when nothing moved. Well under the 1 ms lateness
/// threshold and the ≥2 ms latencies measured.
const IDLE_SLEEP: Duration = Duration::from_micros(50);

#[derive(Clone, Copy, Debug, Default)]
struct UserState {
    /// Session token adopted from the latest Login's `Set-Cookie`; `None`
    /// from the moment a Logout is sent.
    token: Option<u32>,
    inflight: u32,
}

/// An arrival whose time has come but which is not on the wire yet.
#[derive(Clone, Copy, Debug)]
struct Due {
    arrival: Arrival,
    sched: Instant,
}

#[derive(Clone, Copy, Debug)]
struct Sent {
    arrival: Arrival,
    sched: Instant,
    /// Token the request carried (0 for a Login).
    token: u32,
    rid: u64,
    /// Which of the connection's 8 in-flight slots it holds; names its
    /// trace track so overlapping request spans never share one.
    slot: u8,
}

struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    rpos: usize,
    pending: VecDeque<Due>,
    inflight: VecDeque<Sent>,
    free_slots: u8,
}

/// What one window did, from the client's side.
#[derive(Clone, Debug, Default)]
pub struct WindowOutcome {
    pub scheduled: usize,
    /// Non-200, wrong bytes, or still unsent or unanswered when the drain
    /// ended.
    pub failed: usize,
    /// Injected more than 1 ms after the scheduled time.
    pub late: usize,
    /// Answered before the window closed (the rest came in the drain).
    pub answered_in_window: usize,
    /// Latency from scheduled send time, ms, one per answered request.
    pub latencies_ms: Vec<f64>,
    /// Window open → last answer (or drain time-out).
    pub wall_s: f64,
    /// Longest time between two passes of the generator loop, ms: a large
    /// value means the generator itself was stalled (descheduled), and the
    /// latencies around it are the host's, not the server's.
    pub max_loop_gap_ms: f64,
}

pub struct LoadGen<'a> {
    conns: Vec<Conn>,
    users: Vec<UserState>,
    /// Tokens valid on the server right now, leaked re-login slots
    /// included: a new Login must not be handed one of them.
    held: HashSet<u32>,
    store: &'a BankStore,
    same: fn(&[u8], &[u8]) -> bool,
    rec: &'a TraceRecorder,
    next_rid: u64,
    chunk: Vec<u8>,
    /// First few failures, for the report.
    pub failures: Vec<String>,
}

impl<'a> LoadGen<'a> {
    /// Open the 16 connections. `store` must equal the server's; `same`
    /// compares a served response with the oracle's.
    pub fn connect(
        addr: SocketAddr,
        store: &'a BankStore,
        same: fn(&[u8], &[u8]) -> bool,
        rec: &'a TraceRecorder,
    ) -> std::io::Result<Self> {
        let mut conns = Vec::with_capacity(CONNS);
        for _ in 0..CONNS {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            conns.push(Conn {
                stream,
                wbuf: Vec::new(),
                wpos: 0,
                rbuf: Vec::new(),
                rpos: 0,
                pending: VecDeque::new(),
                inflight: VecDeque::new(),
                free_slots: u8::MAX,
            });
        }
        Ok(LoadGen {
            conns,
            users: vec![UserState::default(); USERS as usize],
            held: HashSet::new(),
            store,
            same,
            rec,
            next_rid: 0,
            chunk: vec![0u8; 64 * 1024],
            failures: Vec::new(),
        })
    }

    /// Log every user in (set-up): 32 Logins per connection, as fast as
    /// the in-flight window allows.
    pub fn login_all(&mut self) -> WindowOutcome {
        let logins: Vec<Arrival> = (0..USERS)
            .map(|user| Arrival {
                at_s: 0.0,
                ty: RequestType::Login,
                user,
                p1: 0,
            })
            .collect();
        self.offer(&logins, 0.0, SETUP_DRAIN_S, false)
    }

    /// Offer `arrivals` on their schedule for `dur_s`, then wait (at most
    /// `DRAIN_S`) until everything in flight is answered, so one window's
    /// backlog never leaks into the next. With `traced`, each request
    /// carries a `rid` parameter and leaves a client-side span.
    pub fn run_window(&mut self, arrivals: &[Arrival], dur_s: f64, traced: bool) -> WindowOutcome {
        self.offer(arrivals, dur_s, DRAIN_S, traced)
    }

    fn offer(
        &mut self,
        arrivals: &[Arrival],
        dur_s: f64,
        drain_s: f64,
        traced: bool,
    ) -> WindowOutcome {
        let mut out = WindowOutcome {
            scheduled: arrivals.len(),
            latencies_ms: Vec::with_capacity(arrivals.len()),
            ..WindowOutcome::default()
        };
        if traced {
            // Request ids count from the start of the traced window.
            self.next_rid = 0;
        }
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(dur_s);
        let give_up = end + Duration::from_secs_f64(drain_s);
        let mut next = 0;
        let mut last_pass = start;
        loop {
            let now = Instant::now();
            out.max_loop_gap_ms = out
                .max_loop_gap_ms
                .max(now.duration_since(last_pass).as_secs_f64() * 1e3);
            last_pass = now;
            while next < arrivals.len() {
                let sched = start + Duration::from_secs_f64(arrivals[next].at_s);
                if sched > now {
                    break;
                }
                self.conns[conn_of(arrivals[next].user)]
                    .pending
                    .push_back(Due {
                        arrival: arrivals[next],
                        sched,
                    });
                next += 1;
            }
            let mut progress = false;
            for c in 0..self.conns.len() {
                progress |= self.pump(c, end, traced, &mut out);
            }
            let idle = self
                .conns
                .iter()
                .all(|c| c.pending.is_empty() && c.inflight.is_empty());
            let now = Instant::now();
            if next == arrivals.len() && idle && now >= end {
                break;
            }
            if now >= give_up {
                let lost: usize = self
                    .conns
                    .iter()
                    .map(|c| c.pending.len() + c.inflight.len())
                    .sum();
                self.fail(
                    &mut out,
                    lost,
                    format!("{lost} requests unanswered after the drain"),
                );
                self.abandon();
                break;
            }
            if !progress {
                // Sleep, but never past the next arrival.
                let until_next = arrivals.get(next).map(|a| {
                    (start + Duration::from_secs_f64(a.at_s)).saturating_duration_since(now)
                });
                match until_next {
                    Some(d) if d < IDLE_SLEEP => std::thread::yield_now(),
                    _ => std::thread::sleep(IDLE_SLEEP),
                }
            }
        }
        out.wall_s = start.elapsed().as_secs_f64();
        out
    }

    /// Forget everything outstanding after a drain time-out; the
    /// connections are no longer in a known state, so later windows fail
    /// too rather than mis-match responses.
    fn abandon(&mut self) {
        for c in &mut self.conns {
            c.pending.clear();
            c.inflight.clear();
            c.free_slots = u8::MAX;
        }
        for u in &mut self.users {
            u.inflight = 0;
        }
    }

    fn fail(&mut self, out: &mut WindowOutcome, n: usize, why: String) {
        out.failed += n;
        if self.failures.len() < 8 {
            eprintln!("rhythm-benchmark: failed: {why}");
            self.failures.push(why);
        }
    }

    /// One service pass over connection `c`: put sendable pending requests
    /// on the wire, write, read, and check complete responses.
    fn pump(
        &mut self,
        c: usize,
        window_end: Instant,
        traced: bool,
        out: &mut WindowOutcome,
    ) -> bool {
        let mut progress = false;

        // Send what may be sent, in schedule order per user. A request is
        // held back — and everything later of the same user behind it —
        // while (a) its user has no adopted token (Login in flight) or
        // (b) it is a Logout and the user still has requests in flight,
        // which could otherwise execute after it and be refused.
        let mut held_back: Vec<u32> = Vec::new();
        let mut i = 0;
        while i < self.conns[c].pending.len() && self.conns[c].inflight.len() < PER_CONN_INFLIGHT {
            let due = self.conns[c].pending[i];
            let a = due.arrival;
            let user = self.users[a.user as usize];
            let sendable = !held_back.contains(&a.user)
                && match a.ty {
                    RequestType::Login => true,
                    RequestType::Logout => user.token.is_some() && user.inflight == 0,
                    _ => user.token.is_some(),
                };
            if !sendable {
                held_back.push(a.user);
                i += 1;
                continue;
            }
            self.conns[c].pending.remove(i);
            let token = if a.ty.is_login() {
                0
            } else {
                user.token.expect("sendable implies a token")
            };
            if a.ty.is_logout() {
                // From here the server may free the slot and hand the
                // same token to any later Login, whose answer can overtake
                // this Logout's on another connection.
                self.users[a.user as usize].token = None;
                self.held.remove(&token);
            }
            self.users[a.user as usize].inflight += 1;
            let rid = self.next_rid;
            self.next_rid += 1;
            let raw = raw_http(a.ty, token, &a.params());
            let conn = &mut self.conns[c];
            if traced {
                conn.wbuf.extend_from_slice(&with_rid(&raw, rid));
            } else {
                conn.wbuf.extend_from_slice(&raw);
            }
            let slot = conn.free_slots.trailing_zeros() as u8;
            conn.free_slots &= !(1 << slot);
            conn.inflight.push_back(Sent {
                arrival: a,
                sched: due.sched,
                token,
                rid,
                slot,
            });
            if due.sched.elapsed().as_secs_f64() > LATE_S {
                out.late += 1;
            }
            progress = true;
        }

        let conn = &mut self.conns[c];
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => break,
                Ok(n) => {
                    conn.wpos += n;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // WouldBlock, or a dead socket: its requests stay
                // unanswered and fail at the drain time-out.
                Err(_) => break,
            }
        }
        if conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
        }

        if conn.inflight.is_empty() {
            return progress;
        }
        loop {
            match conn.stream.read(&mut self.chunk) {
                Ok(0) => break,
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&self.chunk[..n]);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        let now = Instant::now();
        loop {
            let conn = &mut self.conns[c];
            let Some((status, total)) = frame(&conn.rbuf[conn.rpos..]) else {
                break;
            };
            let Some(sent) = conn.inflight.pop_front() else {
                self.fail(out, 1, "response without a request".into());
                break;
            };
            conn.free_slots |= 1 << sent.slot;
            let range = conn.rpos..conn.rpos + total;
            conn.rpos += total;
            self.users[sent.arrival.user as usize].inflight -= 1;
            if let Err(why) = self.check(&sent, status, range, c) {
                self.fail(out, 1, why);
            }
            let latency = now.duration_since(sent.sched);
            out.latencies_ms.push(latency.as_secs_f64() * 1e3);
            if now <= window_end {
                out.answered_in_window += 1;
            }
            if traced && sent.rid < TRACE_REQUESTS {
                let dur_us = latency.as_secs_f64() * 1e6;
                self.rec.span(
                    Clock::Wall,
                    &format!("loadgen:c{c:02}:s{}", sent.slot),
                    sent.arrival.ty.file_name(),
                    self.rec.wall_now_us() - dur_us,
                    dur_us,
                    &[
                        ("rid", ArgValue::U64(sent.rid)),
                        ("user", ArgValue::U64(sent.arrival.user as u64)),
                    ],
                );
            }
        }
        let conn = &mut self.conns[c];
        if conn.rpos == conn.rbuf.len() {
            conn.rbuf.clear();
            conn.rpos = 0;
        } else if conn.rpos >= 256 * 1024 {
            conn.rbuf.drain(..conn.rpos);
            conn.rpos = 0;
        }
        progress
    }

    /// The correctness gate: status 200 and the bytes `handle_native`
    /// renders for the same (type, user, params).
    ///
    /// The response depends on the session token (pages print it), and
    /// which slot a Login gets depends on the order the server ran
    /// concurrent Logins in, which the client cannot see. So the token is
    /// taken from the server — a Login's `Set-Cookie`, checked to be in
    /// range and held by nobody else — and the oracle renders on a
    /// one-slot session table in which exactly that token belongs to
    /// exactly this user.
    fn check(
        &mut self,
        sent: &Sent,
        status: u16,
        range: std::ops::Range<usize>,
        c: usize,
    ) -> Result<(), String> {
        let a = sent.arrival;
        let served = &self.conns[c].rbuf[range];
        let what = || format!("{} user {} rid {}", a.ty.file_name(), a.user, sent.rid);
        if status != 200 {
            return Err(format!("{}: status {status}", what()));
        }
        let token = if a.ty.is_login() {
            let token = set_cookie_token(served)
                .ok_or_else(|| format!("{}: no Set-Cookie token", what()))?;
            if token ^ SESSION_SALT >= SESSION_CAPACITY {
                return Err(format!("{}: token {token} names no session slot", what()));
            }
            if !self.held.insert(token) {
                return Err(format!(
                    "{}: token {token} already held by a live session",
                    what()
                ));
            }
            token
        } else {
            sent.token
        };
        // `SessionArrayHost` hands out `slot ^ salt`: with one slot and the
        // token as salt, the only session it can create is this token.
        let mut table = SessionArrayHost::new(1, token);
        if !a.ty.is_login() {
            table.insert(a.user);
        }
        let native = handle_native(
            &BankingRequest::new(a.ty, sent.token, a.params()),
            self.store,
            &mut table,
        );
        if !(self.same)(served, &native) {
            return Err(format!(
                "{}: {} bytes differ from the native handler's {}",
                what(),
                served.len(),
                native.len()
            ));
        }
        if a.ty.is_login() {
            self.users[a.user as usize].token = Some(token);
        }
        Ok(())
    }

    /// Session slots the server must hold if it did what it answered.
    pub fn held_tokens(&self) -> usize {
        self.held.len()
    }
}

/// Frame one response at the start of `buf`: `(status, total length)` once
/// the header block and its `Content-Length` body are all there. Looks
/// for the header end in the first 512 bytes only — `rhythm_net`'s
/// `scan_response` searches the whole buffer for `\r\n\r\n` on every
/// call, which the pages (bare-LF headers) never contain, and at 200 MB/s
/// of pipelined 17 KB responses that made the generator the bottleneck.
fn frame(buf: &[u8]) -> Option<(u16, usize)> {
    let head = &buf[..buf.len().min(512)];
    let end = |sep: &[u8]| {
        head.windows(sep.len())
            .position(|w| w == sep)
            .map(|p| p + sep.len())
    };
    let head_end = match (end(b"\n\n"), end(b"\r\n\r\n")) {
        (Some(a), Some(b)) => a.min(b),
        (a, b) => a.or(b)?,
    };
    let text = std::str::from_utf8(&head[..head_end]).ok()?;
    let mut lines = text.lines();
    let status = lines.next()?.split_whitespace().nth(1)?.parse().ok()?;
    let body = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    (buf.len() >= head_end + body).then_some((status, head_end + body))
}

/// The token of a Login response's `Set-Cookie: SID=<token>` header (the
/// device path pads the digits with spaces).
fn set_cookie_token(response: &[u8]) -> Option<u32> {
    const KEY: &[u8] = b"Set-Cookie: SID=";
    let at = response.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits = response[at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    std::str::from_utf8(&response[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// The same request with an extra `rid=<n>` query/form parameter, which
/// `banking_request_from_http` ignores; only the traced window sends it.
fn with_rid(raw: &[u8], rid: u64) -> Vec<u8> {
    let find = |needle: &[u8]| raw.windows(needle.len()).position(|w| w == needle);
    let extra = format!("&rid={rid}");
    let mut out = Vec::with_capacity(raw.len() + extra.len() + 2);
    if raw.starts_with(b"GET ") {
        let at = find(b" HTTP/1.1").expect("request line");
        out.extend_from_slice(&raw[..at]);
        out.extend_from_slice(extra.as_bytes());
        out.extend_from_slice(&raw[at..]);
    } else {
        const CL: &[u8] = b"Content-Length: ";
        let cl = find(CL).expect("POST declares its length") + CL.len();
        let body = find(b"\r\n\r\n").expect("header end") + 4;
        let cl_end = cl + raw[cl..].iter().take_while(|b| b.is_ascii_digit()).count();
        out.extend_from_slice(&raw[..cl]);
        out.extend_from_slice((raw.len() - body + extra.len()).to_string().as_bytes());
        out.extend_from_slice(&raw[cl_end..]);
        out.extend_from_slice(extra.as_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_banking::serve::banking_request_from_http;
    use rhythm_http::HttpRequest;

    /// The `rid` parameter changes neither the framing nor what the
    /// server makes of the request.
    #[test]
    fn rid_parameter_is_ignored_by_the_server() {
        for ty in RequestType::ALL {
            let params = [7, 1234, 0, 0];
            let raw = raw_http(ty, 99, &params);
            let tagged = with_rid(&raw, 4242);
            let plain = HttpRequest::parse(&raw).expect("canonical parses");
            let req = HttpRequest::parse(&tagged).expect("tagged parses");
            assert_eq!(req.consumed, tagged.len(), "{ty}: framing");
            assert_eq!(req.params.get("rid"), Some("4242"), "{ty}");
            assert_eq!(
                banking_request_from_http(&req),
                banking_request_from_http(&plain),
                "{ty}"
            );
        }
    }

    /// Pages (bare LF) and the server's canned answers (CRLF) both frame,
    /// and only once the whole body is there.
    #[test]
    fn frames_both_line_endings() {
        let page = b"HTTP/1.1 200 OK\nContent-Length: 5   \n\nhelloHTTP/1.1 200";
        assert_eq!(frame(page), Some((200, 43)));
        assert_eq!(frame(&page[..42]), None);
        let shed =
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\ncontent-length: 2\r\n\r\nno";
        assert_eq!(frame(shed), Some((503, shed.len())));
        assert_eq!(frame(b"HTTP/1.1 200 OK\nContent-Le"), None);
    }

    #[test]
    fn set_cookie_token_reads_padded_digits() {
        assert_eq!(
            set_cookie_token(
                b"HTTP/1.1 200 OK\nSet-Cookie: SID=1592590337   \nContent-Length: 5\n\nhello"
            ),
            Some(1_592_590_337)
        );
        assert_eq!(set_cookie_token(b"HTTP/1.1 200 OK\n\n"), None);
    }

    /// A one-slot table salted with the token reproduces exactly that
    /// token for exactly that user — the oracle's premise.
    #[test]
    fn one_slot_table_reproduces_a_server_token() {
        let mut server = SessionArrayHost::new(SESSION_CAPACITY, SESSION_SALT);
        server.insert(40);
        let token = server.insert(40).expect("second slot of the same user");
        let mut oracle = SessionArrayHost::new(1, token);
        assert_eq!(oracle.insert(40), Some(token));
        assert_eq!(oracle.lookup(token), Some(40));
        assert_eq!(oracle.lookup(token ^ 1), None);
    }
}
