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
//! the handoff channel.
//!
//! ```text
//!             accept()            mpsc (round-robin)
//! listener ─────────▶ acceptor ──┬─────▶ reactor 0 ── handler 0 / device 0
//!                                ├─────▶ reactor 1 ── handler 1 / device 1
//!                                └─────▶ reactor N ── handler N / device N
//! ```

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use crate::metrics::Telemetry;
use crate::server::{CohortHandler, NetConfig, NetStats, Reactor};

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

/// The server: a listener plus one handler per reactor shard (a single
/// handler is the single-reactor server). Built with
/// [`ShardedServer::bind`], driven to completion by [`ShardedServer::run`].
#[derive(Debug)]
pub struct ShardedServer<H> {
    listener: TcpListener,
    config: NetConfig,
    handlers: Vec<H>,
    telemetry: Arc<Telemetry>,
}

impl<H: CohortHandler + Send> ShardedServer<H> {
    /// Bind a listener for a reactor per handler (`handlers.len()` is the
    /// shard count). Every shard uses the same `config`; note
    /// `max_connections` is per reactor, so the server-wide cap is
    /// `shards × max_connections`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind/configure.
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
        assert!(config.cohort_size > 0, "cohort size must be nonzero");
        assert!(config.pool_contexts > 0, "need at least one context");
        assert!(config.max_connections > 0, "need at least one connection");
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let telemetry = Telemetry::new(handlers.len());
        Ok(ShardedServer {
            listener,
            config,
            handlers,
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
            self.handlers.len(),
            "telemetry shard count must match the handler count"
        );
        self.telemetry = Arc::clone(telemetry);
        self
    }

    /// The telemetry plane every shard publishes into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Number of reactor shards.
    pub fn shards(&self) -> usize {
        self.handlers.len()
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
            config,
            handlers,
            telemetry,
        } = self;
        let shards = handlers.len();
        let mut senders: Vec<Sender<TcpStream>> = Vec::with_capacity(shards);
        let mut receivers: Vec<Receiver<TcpStream>> = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = std::sync::mpsc::channel();
            senders.push(tx);
            receivers.push(rx);
        }

        let mut results: Vec<Option<(NetStats, H)>> = std::thread::scope(|scope| {
            let mut joins = Vec::with_capacity(shards);
            for (shard, (handler, rx)) in handlers.into_iter().zip(receivers).enumerate() {
                let mut reactor = Reactor::new(config.clone(), handler);
                reactor.attach_telemetry(&telemetry, shard);
                joins.push(scope.spawn(move || reactor_loop(reactor, rx, stop)));
            }

            // The calling thread is the acceptor: round-robin accepted
            // streams over the shard channels. Admission control (the
            // connection cap, 503 shed) happens in the owning reactor.
            let mut next = 0usize;
            let mut idle = config.idle_sleep;
            while !stop.load(Ordering::Relaxed) {
                let mut progress = false;
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            progress = true;
                            // A send only fails if the reactor died; the
                            // stream drops (peer sees a reset). The unpark
                            // ends the reactor's idle backoff early.
                            let _ = senders[next].send(stream);
                            joins[next].thread().unpark();
                            next = (next + 1) % shards;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                }
                if progress {
                    idle = config.idle_sleep;
                } else {
                    std::thread::sleep(idle);
                    idle = (idle * 2).min(config.idle_sleep_max);
                }
            }
            drop(senders);

            joins.into_iter().map(|j| j.join().ok()).collect()
        });

        ShardedRun {
            shards: results
                .drain(..)
                .map(|r| r.expect("shard thread"))
                .collect(),
        }
    }
}

/// One shard's service loop: drain the handoff channel into the reactor,
/// poll, and back off exponentially while idle.
fn reactor_loop<H: CohortHandler>(
    mut reactor: Reactor<H>,
    rx: Receiver<TcpStream>,
    stop: &AtomicBool,
) -> (NetStats, H) {
    let idle_start = reactor.config().idle_sleep;
    let idle_max = reactor.config().idle_sleep_max;
    let mut idle = idle_start;
    while !stop.load(Ordering::Relaxed) {
        let mut progress = false;
        while let Ok(stream) = rx.try_recv() {
            reactor.admit(stream);
            progress = true;
        }
        progress |= reactor.poll();
        if progress {
            idle = idle_start;
        } else {
            reactor.note_idle();
            // Clamp the backoff to the earliest pending cohort fill
            // deadline: a grown idle sleep must not overshoot it and add
            // up to idle_sleep_max of queue latency.
            let sleep = match reactor.next_fill_deadline() {
                Some(d) => idle.min(d),
                None => idle,
            };
            // Parked, not asleep: the acceptor is another thread, and a
            // connection it hands over mid-backoff (its first request
            // often already in the socket) must not sit the backoff out.
            if !sleep.is_zero() {
                std::thread::park_timeout(sleep);
            }
            idle = (idle * 2).min(idle_max);
        }
    }
    // Streams still in flight on the channel at stop are admitted so
    // their sockets close through the normal drain path.
    while let Ok(stream) = rx.try_recv() {
        reactor.admit(stream);
    }
    reactor.drain();
    reactor.into_parts()
}
