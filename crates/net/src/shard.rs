//! The server: one acceptor thread feeding N [`Reactor`] threads over
//! channels. One handler gives the paper's single event loop; more give
//! the sharded multi-reactor front end. Either way it is this type and
//! this loop.
//!
//! Each reactor owns its accepted connections, its own `CohortPool`,
//! [`NetStats`], and — through its own [`CohortHandler`] instance — its
//! own device. A connection is pinned to one reactor for its whole life
//! (round-robin at accept time), which is also the session-affinity
//! policy: Banking sessions are created by a login on some connection and
//! used by later requests on that same connection, so pinning the
//! connection pins the session's device-resident state to its shard. No
//! cross-shard state, no cross-shard locks — the only shared structure is
//! the handoff channel (and the wake descriptor that says it has mail).
//!
//! Nothing here polls: every reactor waits in its poller until a socket,
//! its own timer (a fill deadline or a reap pass) or the acceptor (a
//! stream, or the stop) gives it something to do, and the acceptor waits
//! on the listener with the server's one periodic timer (`ACCEPT_TICK`,
//! 10 ms), which is how it notices the stop flag.
//!
//! ```text
//!             accept()        mpsc + eventfd (round-robin)
//! listener ─────────▶ acceptor ──┬─────▶ reactor 0 ── handler 0 / device 0
//!                                ├─────▶ reactor 1 ── handler 1 / device 1
//!                                └─────▶ reactor N ── handler N / device N
//! ```

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::metrics::Telemetry;
use crate::server::{CohortHandler, Handoff, NetConfig, NetStats, Reactor};
use crate::sys::{Interest, Poller};

/// How long the acceptor waits on a quiet listener before it looks at the
/// stop flag — the bound on how long `stop` takes to reach every shard.
const ACCEPT_TICK: Duration = Duration::from_millis(10);

/// Result of a sharded run: each shard's counters and handler, in shard
/// order.
#[derive(Debug)]
pub struct ShardedRun<H> {
    /// Per-shard `(stats, handler)` pairs, indexed by shard.
    pub shards: Vec<(NetStats, H)>,
}

impl<H> ShardedRun<H> {
    /// Cross-shard aggregate counters (sums, with peak fields maxed).
    pub fn total(&self) -> NetStats {
        let mut total = NetStats::default();
        for (stats, _) in &self.shards {
            total.merge(stats);
        }
        total
    }
}

/// The server: a listener plus one reactor per handler (a single handler
/// is the single-reactor server). Built with [`ShardedServer::bind`],
/// driven to completion by [`ShardedServer::run`].
#[derive(Debug)]
pub struct ShardedServer<H> {
    listener: TcpListener,
    /// The acceptor's own readiness set: the listener and nothing else.
    poller: Poller,
    reactors: Vec<Reactor<H>>,
    telemetry: Arc<Telemetry>,
}

impl<H: CohortHandler + Send> ShardedServer<H> {
    /// Bind a listener and build a reactor per handler (`handlers.len()`
    /// is the shard count). Every shard uses the same `config`; note
    /// `max_connections` is per reactor, so the server-wide cap is
    /// `shards × max_connections`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind/configure and the failure to
    /// create any reactor's poller, wake descriptor or timer, so nothing
    /// on the serving path has a descriptor left to create.
    ///
    /// # Panics
    ///
    /// Panics if `handlers` is empty, or on a zero cohort size, context
    /// count, or connection cap.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        config: NetConfig,
        handlers: Vec<H>,
    ) -> std::io::Result<Self> {
        assert!(!handlers.is_empty(), "need at least one shard handler");
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(&listener, 0, Interest::READ)?;
        let telemetry = Telemetry::new(handlers.len());
        let mut reactors = Vec::with_capacity(handlers.len());
        for (shard, handler) in handlers.into_iter().enumerate() {
            let mut reactor = Reactor::new(config.clone(), handler)?;
            reactor.attach_telemetry(&telemetry, shard);
            reactors.push(reactor);
        }
        Ok(ShardedServer {
            listener,
            poller,
            reactors,
            telemetry,
        })
    }

    /// Publish into a caller-created telemetry plane instead of the one
    /// [`ShardedServer::bind`] makes — lets the caller build per-shard
    /// device handlers against [`Telemetry::device`] before binding, and
    /// scrape the plane from outside while the server runs.
    ///
    /// # Panics
    ///
    /// Panics unless the plane's shard count matches the handler count.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Arc<Telemetry>) -> Self {
        assert_eq!(
            telemetry.shards(),
            self.reactors.len(),
            "telemetry shard count must match the handler count"
        );
        self.telemetry = Arc::clone(telemetry);
        for (shard, reactor) in self.reactors.iter_mut().enumerate() {
            reactor.attach_telemetry(telemetry, shard);
        }
        self
    }

    /// The telemetry plane every shard publishes into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Number of reactor shards.
    pub fn shards(&self) -> usize {
        self.reactors.len()
    }

    /// The bound address (use with an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until `stop` is raised, then drain every shard and return
    /// the per-shard counters and handlers.
    pub fn run(self, stop: &AtomicBool) -> ShardedRun<H> {
        let ShardedServer {
            listener,
            mut poller,
            reactors,
            ..
        } = self;
        let handoffs: Vec<Handoff> = reactors.iter().map(Reactor::handoff).collect();

        let shards = std::thread::scope(|scope| {
            let joins: Vec<_> = reactors
                .into_iter()
                .map(|reactor| scope.spawn(move || reactor_loop(reactor, stop)))
                .collect();

            // The calling thread is the acceptor: round-robin accepted
            // streams over the shard channels. Admission control (the
            // connection cap, 503 shed) happens in the owning reactor.
            let mut next = 0usize;
            while !stop.load(Ordering::Relaxed) {
                // Which descriptor is ready is not in question; a failed
                // wait just goes on to try the listener.
                let _ = poller.wait(Some(ACCEPT_TICK));
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            handoffs[next].send(stream);
                            next = (next + 1) % handoffs.len();
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            // Out of descriptors, or the peer gave up: the
                            // listener may stay readable, so sit a tick
                            // out rather than spin on it.
                            std::thread::sleep(ACCEPT_TICK);
                            break;
                        }
                    }
                }
            }
            handoffs.iter().for_each(Handoff::wake);

            joins
                .into_iter()
                .map(|j| j.join().expect("shard thread"))
                .collect()
        });
        ShardedRun { shards }
    }
}

/// One shard's service loop: turn the reactor, waiting whenever it has
/// nothing in hand, until the stop flag is up (the acceptor wakes it to
/// see that).
fn reactor_loop<H: CohortHandler>(mut reactor: Reactor<H>, stop: &AtomicBool) -> (NetStats, H) {
    while !stop.load(Ordering::Relaxed) {
        reactor.turn(true);
    }
    reactor.drain();
    reactor.into_parts()
}
