//! Boots the system under test — a one-shard `ShardedServer` on loopback,
//! configured as `examples/banking_server.rs` ships it — behind a `Timed`
//! handler wrapper, the harness's own span boundary around the call from
//! `rhythm-net` into `rhythm-banking`.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rhythm_banking::prelude::*;
use rhythm_http::HttpRequest;
use rhythm_net::{CohortHandler, NetConfig, NetStats, ShardedRun, ShardedServer, Telemetry};
use rhythm_obs::{ArgValue, Clock, Recorder, TraceRecorder};
use rhythm_simt::gpu::{Gpu, GpuConfig};

use crate::spec::{SESSION_CAPACITY, SESSION_SALT, TRACE_REQUESTS};

/// Users in the bank store. The 512 benchmark users are its first half,
/// so the store image the SIMT path re-serialises per cohort is larger
/// than the active set, as in `net_loadgen`.
pub const STORE_USERS: u32 = 1024;
const STORE_SEED: u64 = 1;

pub fn bank_store() -> BankStore {
    BankStore::generate(STORE_USERS, STORE_SEED)
}

/// What `examples/banking_server.rs` ships, with one change:
/// `pool_contexts: 16`. The default 8 cannot hold 14 request types and
/// sheds 0.2 % of Table 2 traffic at 6 000 rps, and a noisy non-zero
/// failure share would randomly reject later PRs.
pub fn net_config() -> NetConfig {
    NetConfig {
        cohort_size: 32,
        fill_timeout: Duration::from_millis(2),
        pool_contexts: 16,
        ..NetConfig::default()
    }
}

/// The two serving paths under test.
pub trait Served: CohortHandler + Send + Sized + 'static {
    /// Build the handler; device handlers publish into `telemetry`.
    fn build(telemetry: &Telemetry) -> Self;
    /// Is `served` the response the native oracle renders as `native`?
    fn same(served: &[u8], native: &[u8]) -> bool;
    /// Cohorts answered with 500s after a device fault.
    fn faults(&self) -> u64;
    /// Session slots held when the run ended.
    fn session_slots(&self) -> u32;
}

impl Served for ScalarHandler {
    fn build(_: &Telemetry) -> Self {
        ScalarHandler::new(
            bank_store(),
            SessionArrayHost::new(SESSION_CAPACITY, SESSION_SALT),
        )
    }

    fn same(served: &[u8], native: &[u8]) -> bool {
        served == native
    }

    fn faults(&self) -> u64 {
        0
    }

    fn session_slots(&self) -> u32 {
        self.sessions().len()
    }
}

impl Served for SimtHandler {
    fn build(telemetry: &Telemetry) -> Self {
        let opts = CohortOptions {
            session_capacity: SESSION_CAPACITY,
            session_salt: SESSION_SALT,
            ..CohortOptions::default()
        };
        SimtHandler::new(
            Workload::build(),
            bank_store(),
            SessionArrayHost::new(SESSION_CAPACITY, SESSION_SALT),
            Gpu::new(GpuConfig::gtx_titan()),
            opts,
        )
        .with_metrics(telemetry.device(0))
    }

    fn same(served: &[u8], native: &[u8]) -> bool {
        same_modulo_padding(served, native)
    }

    fn faults(&self) -> u64 {
        self.faults
    }

    fn session_slots(&self) -> u32 {
        self.sessions().len()
    }
}

/// Device responses carry warp-alignment padding (trailing spaces before
/// a newline) the native ones do not, and a `Content-Length` that counts
/// it. Equal line by line once both are set aside — the comparison of
/// `crates/banking/tests/differential.rs`, without its allocations. The
/// device's own `Content-Length` is checked by framing: a wrong one would
/// derail the next response on the connection.
pub fn same_modulo_padding(served: &[u8], native: &[u8]) -> bool {
    fn trimmed(line: &[u8]) -> &[u8] {
        let end = line.iter().rposition(|&b| b != b' ').map_or(0, |p| p + 1);
        &line[..end]
    }
    const LENGTH: &[u8] = b"Content-Length:";
    let mut a = served.split(|&b| b == b'\n');
    let mut b = native.split(|&b| b == b'\n');
    loop {
        match (a.next(), b.next()) {
            (None, None) => return true,
            (Some(x), Some(y)) => {
                let (x, y) = (trimmed(x), trimmed(y));
                if x != y && !(x.starts_with(LENGTH) && y.starts_with(LENGTH)) {
                    return false;
                }
            }
            _ => return false,
        }
    }
}

/// What the `Timed` wrapper counts on the reactor thread.
#[derive(Clone, Copy, Debug)]
pub enum Count {
    /// Wall time inside the handler, ns.
    BusyNs,
    /// Thread CPU inside the handler, ns; read only while tracing (two
    /// `/proc` reads per batch).
    BusyCpuNs,
    Batches,
    Cohorts,
    Requests,
    /// Σ over batches of `batch time × requests in the batch`: the time
    /// requests spent inside the handler, for the queue-time split.
    RequestBusyNs,
    ClassifyNs,
    ClassifyCalls,
}

const COUNTS: usize = Count::ClassifyCalls as usize + 1;

/// Counters the `Timed` wrapper keeps on the reactor thread and the
/// generator thread reads between windows.
#[derive(Debug, Default)]
pub struct Probe {
    /// Kernel thread id of the reactor (0 until its first batch).
    tid: AtomicU64,
    counts: [AtomicU64; COUNTS],
    /// Spans and per-call classify timing are recorded only while set.
    tracing: AtomicBool,
}

/// A reading of the probe; subtract two to get a window's share.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeReading([u64; COUNTS]);

impl ProbeReading {
    pub fn get(&self, count: Count) -> u64 {
        self.0[count as usize]
    }

    pub fn since(&self, earlier: &ProbeReading) -> ProbeReading {
        ProbeReading(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }
}

impl Probe {
    fn add(&self, count: Count, n: u64) {
        self.counts[count as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub fn read(&self) -> ProbeReading {
        ProbeReading(std::array::from_fn(|i| {
            self.counts[i].load(Ordering::Relaxed)
        }))
    }

    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// CPU time (user + system) the reactor thread has consumed, from the
    /// first field of its `schedstat`.
    pub fn reactor_cpu_ns(&self) -> u64 {
        let tid = self.tid.load(Ordering::Relaxed);
        assert!(tid != 0, "reactor thread has not run a batch yet");
        thread_cpu_ns(&format!("/proc/self/task/{tid}/schedstat"))
    }
}

/// On-CPU nanoseconds from a `schedstat` file.
pub fn thread_cpu_ns(path: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("cannot read thread CPU time from {path}"))
}

/// CPU the reactor thread is pinned to, and the generator thread's. The
/// reactor gets the one that does not serve this VM's device interrupts.
pub const REACTOR_CPU: usize = 1;
pub const GENERATOR_CPU: usize = 0;

extern "C" {
    /// glibc's wrapper of the Linux system call; `std` already links it.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread to one CPU; `false` if the kernel refuses (or
/// the machine has no such CPU), in which case nothing changes.
///
/// Left to the scheduler, the generator and the reactor now and then
/// share one of this box's two CPUs for a whole run while the other
/// idles: the generator then injects a third of its requests over 1 ms
/// late and every latency of the run doubles. Pinning the two threads
/// apart removes that mode.
pub fn pin_current_thread(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, correctly sized and aligned CPU set
    // (`cpu_set_t` is 1024 bits) for the whole call, pid 0 names the
    // calling thread, and the call only reads the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Kernel thread id of the calling thread (`/proc/thread-self` links to
/// `<pid>/task/<tid>`).
fn current_tid() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

/// The real handler plus the harness's measurements around it. It runs on
/// the reactor thread, which is how the harness learns that thread's id.
#[derive(Debug)]
pub struct Timed<H> {
    inner: H,
    probe: Arc<Probe>,
    rec: Arc<TraceRecorder>,
    /// Whether the generator thread was pinned (see `main`).
    pin: bool,
}

impl<H: CohortHandler> CohortHandler for Timed<H> {
    fn classify(&self, req: &HttpRequest) -> Option<u32> {
        if !self.probe.tracing.load(Ordering::Relaxed) {
            return self.inner.classify(req);
        }
        let t0 = Instant::now();
        let key = self.inner.classify(req);
        let ns = t0.elapsed().as_nanos() as u64;
        self.probe.add(Count::ClassifyNs, ns);
        self.probe.add(Count::ClassifyCalls, 1);
        key
    }

    fn execute(&mut self, key: u32, requests: &[HttpRequest]) -> Vec<Vec<u8>> {
        self.inner.execute(key, requests)
    }

    fn execute_many(&mut self, cohorts: &[(u32, Vec<HttpRequest>)]) -> Vec<Vec<Vec<u8>>> {
        let p = &self.probe;
        if p.tid.load(Ordering::Relaxed) == 0 {
            // First batch on this reactor thread (a set-up login): move
            // off the generator's CPU, which it inherited, before the
            // handler can spawn anything. One shard, one CPU.
            p.tid.store(current_tid(), Ordering::Relaxed);
            if self.pin {
                pin_current_thread(REACTOR_CPU);
            }
        }
        let tracing = p.tracing.load(Ordering::Relaxed);
        // The kernel brings a running thread's `schedstat` up to date at
        // scheduler ticks and context switches only; yielding forces one,
        // or each batch would read up to a tick (4 ms) short.
        let own_cpu = || {
            std::thread::yield_now();
            thread_cpu_ns("/proc/thread-self/schedstat")
        };
        let (start_us, cpu0) = if tracing {
            (self.rec.wall_now_us(), own_cpu())
        } else {
            (0.0, 0)
        };
        let t0 = Instant::now();
        let out = self.inner.execute_many(cohorts);
        let ns = t0.elapsed().as_nanos() as u64;
        if tracing {
            p.add(Count::BusyCpuNs, own_cpu() - cpu0);
        }
        let requests: u64 = cohorts.iter().map(|(_, r)| r.len() as u64).sum();
        p.add(Count::BusyNs, ns);
        p.add(Count::Batches, 1);
        p.add(Count::Cohorts, cohorts.len() as u64);
        p.add(Count::Requests, requests);
        p.add(Count::RequestBusyNs, ns * requests);
        // One span per batch, then one instant per cohort naming the
        // requests it carried (`rid` parameters of the traced window),
        // for the batches that carry one of the first `TRACE_REQUESTS`.
        let rid_of = |r: &HttpRequest| r.params.get("rid").and_then(|v| v.parse::<u64>().ok());
        let in_trace = |reqs: &[HttpRequest]| {
            reqs.iter()
                .filter_map(rid_of)
                .any(|rid| rid < TRACE_REQUESTS)
        };
        if tracing && cohorts.iter().any(|(_, reqs)| in_trace(reqs)) {
            self.rec.span(
                Clock::Wall,
                "banking:handler",
                "execute_many",
                start_us,
                ns as f64 / 1e3,
                &[
                    ("cohorts", ArgValue::U64(cohorts.len() as u64)),
                    ("requests", ArgValue::U64(requests)),
                ],
            );
            for (key, reqs) in cohorts {
                let rids: Vec<String> = reqs
                    .iter()
                    .filter_map(rid_of)
                    .map(|rid| rid.to_string())
                    .collect();
                self.rec.instant(
                    Clock::Wall,
                    "banking:handler",
                    &self.inner.key_name(*key),
                    start_us,
                    &[
                        ("requests", ArgValue::U64(reqs.len() as u64)),
                        ("rids", ArgValue::Str(&rids.join(","))),
                    ],
                );
            }
        }
        out
    }

    fn reject(&self, req: &HttpRequest) -> Vec<u8> {
        self.inner.reject(req)
    }

    fn key_name(&self, key: u32) -> String {
        self.inner.key_name(key)
    }
}

/// A running server and the handles the harness measures it through.
pub struct Server<H: Served> {
    pub addr: SocketAddr,
    pub telemetry: Arc<Telemetry>,
    pub probe: Arc<Probe>,
    stop: Arc<AtomicBool>,
    join: JoinHandle<ShardedRun<Timed<H>>>,
}

/// Counters and handler of a stopped server.
pub struct Stopped<H> {
    pub stats: NetStats,
    pub handler: H,
}

impl<H: Served> Server<H> {
    /// Build the handler, bind an ephemeral loopback port, and start the
    /// acceptor and the one reactor thread.
    pub fn boot(rec: &Arc<TraceRecorder>, pin: bool) -> std::io::Result<Self> {
        let telemetry = Telemetry::new(1);
        let probe = Arc::new(Probe::default());
        let handler = Timed {
            inner: H::build(&telemetry),
            probe: Arc::clone(&probe),
            rec: Arc::clone(rec),
            pin,
        };
        let server = ShardedServer::bind("127.0.0.1:0", net_config(), vec![handler])?
            .with_telemetry(&telemetry);
        let addr = server.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("acceptor".into())
            .spawn(move || server.run(&flag))?;
        Ok(Server {
            addr,
            telemetry,
            probe,
            stop,
            join,
        })
    }

    /// The reactor's counters as of its last completed poll.
    pub fn live(&self) -> NetStats {
        self.telemetry.shard(0).live().stats
    }

    /// Stop the server, wait for its threads, and check the books:
    /// `requests == responses + shed_503 + unclassified` and nothing
    /// dropped.
    pub fn stop(self) -> Result<Stopped<H>, String> {
        self.stop.store(true, Ordering::Relaxed);
        let run = self
            .join
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        let stats = run.total();
        let (_, timed) = run.shards.into_iter().next().expect("one shard was booted");
        let answered = stats.responses + stats.shed_503 + stats.unclassified;
        if stats.requests != answered {
            return Err(format!(
                "accounting: {} requests but {} answered ({} responses + {} shed + {} unclassified)",
                stats.requests, answered, stats.responses, stats.shed_503, stats.unclassified
            ));
        }
        if stats.responses_dropped != 0 {
            return Err(format!("{} responses dropped", stats.responses_dropped));
        }
        Ok(Stopped {
            stats,
            handler: timed.inner,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_and_its_length_are_set_aside_nothing_else() {
        let native = b"HTTP/1.1 200 OK\nContent-Length: 9\n\nab\ncd\nef\n";
        let device = b"HTTP/1.1 200 OK\nContent-Length: 14   \n\nab   \ncd\nef  \n";
        assert!(same_modulo_padding(device, native));
        assert!(same_modulo_padding(native, native));
        assert!(!same_modulo_padding(
            b"HTTP/1.1 200 OK\n\nab\ncx\n",
            b"HTTP/1.1 200 OK\n\nab\ncd\n"
        ));
        assert!(
            !same_modulo_padding(b"a\nb\n", b"a\nb\nc\n"),
            "a missing line"
        );
        assert!(
            !same_modulo_padding(b" a\n", b"a\n"),
            "leading space is content"
        );
    }
}
