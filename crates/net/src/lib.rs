//! # rhythm-net
//!
//! The networked front end of the Rhythm pipeline: the paper's
//! Reader → Parser → Dispatch path (§3–4) over **real sockets** instead of
//! the virtual-clock event loop in `rhythm-core`.
//!
//! * [`conn::RequestAccumulator`] is the resumable reader: it buffers
//!   socket bytes, retries [`rhythm_http::HttpRequest::parse`] on
//!   `Truncated`/`BodyTooShort`, uses `consumed` to resume at the next
//!   pipelined request, and enforces a per-connection size cap so an
//!   oversized or lying `Content-Length` gets 413 instead of unbounded
//!   buffering.
//! * [`server::Reactor`] is the readiness-driven connection/cohort state
//!   machine over nonblocking `std::net` sockets: each turn makes one
//!   level-triggered `epoll` wait (with no timeout, or none at all), reads
//!   what was reported readable and writes what was answered; it reads the
//!   clock once per wake, a one-shot `timerfd` stands for its next fill
//!   deadline or reap and an `eventfd` for the acceptor's hand-off. Parsed
//!   requests are dispatched by the handler's cohort key into cohort
//!   contexts from `rhythm-core`'s [`rhythm_core::CohortPool`] (the Free →
//!   PartiallyFull → Full → Busy FSM). The pool's formation rule decides
//!   where a request goes ([`rhythm_core::CohortPool::admit`]) and when a
//!   forming cohort is due ([`rhythm_core::CohortPool::due`]), the same
//!   rule the `rhythm-core` pipeline model follows; cohorts launch on fill
//!   or on the formation timeout, all launches marked in one turn go to
//!   the pluggable [`server::CohortHandler`] as a single batch, and
//!   responses are transposed back onto the originating connections in
//!   request order.
//! * [`shard::ShardedServer`] is the one server type: an acceptor hands
//!   connections round-robin to one reactor thread per handler. Bound
//!   with a single handler it is the paper's single event loop; with N,
//!   each shard owns its connections, cohort pool, stats, and handler
//!   (device), and connection pinning doubles as session-affinity
//!   routing. Every configuration runs the same service loop.
//! * Robustness under load: a connection cap (excess connections are shed
//!   with `503` + `Retry-After`), pool-exhaustion shedding (`503`),
//!   request size caps (`413`), malformed-input rejection (`400`), and a
//!   read deadline that reaps half-open connections. All FSM transitions
//!   use the fallible cohort API, so one bad dispatch can never panic the
//!   event loop.
//! * The live telemetry plane ([`metrics::Telemetry`]) is the crate's
//!   one event sink: it aggregates one registry per shard (a counter
//!   snapshot published whole under a mutex once per poll, per-key
//!   latency histograms and launch counters, a cohort-fill histogram,
//!   and an always-on ring of recent events — a bounded
//!   `rhythm_obs::TraceRecorder` — holding cohort-batch spans, sheds
//!   and a sampled poll heartbeat) and serves it through
//!   in-band admin endpoints ([`admin`]):
//!   `GET /metrics` (Prometheus text), `GET /healthz`, and `GET /trace`
//!   (Chrome trace of recent events). Admin requests are answered before
//!   cohort formation and counted separately, so workload accounting
//!   stays exact under scraping; `NetConfig::telemetry = false` runs the
//!   reactor bare for overhead baselines.
//!
//! The crate is std-only like the rest of the workspace and knows nothing
//! about the banking workload; `rhythm-banking` provides
//! [`server::CohortHandler`] implementations for the native and SIMT
//! device paths.
//!
//! **Linux only.** The reactor waits on `epoll`, `eventfd` and `timerfd`
//! through the glibc `std` already links (the private `sys` module: the
//! crate's only `unsafe`) which, with the reactor's one clock read, is
//! the seam a virtual-time transport would replace. No portable fallback.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(not(target_os = "linux"))]
compile_error!("rhythm-net waits on epoll, eventfd and timerfd: it builds on Linux only");

pub mod admin;
pub mod client;
pub mod conn;
pub mod metrics;
pub mod responses;
pub mod server;
pub mod shard;
mod sys;

pub use admin::{admin_route, AdminRoute};
pub use client::{read_response, scan_response, send_request, RawResponse};
pub use conn::RequestAccumulator;
pub use metrics::{LaunchView, LiveSnapshot, ShardMetrics, Telemetry};
pub use server::{CohortHandler, NetConfig, NetStats, Reactor};
pub use shard::{ShardedRun, ShardedServer};
