//! `rhythm-obs` — observability substrate for the Rhythm pipeline and
//! SIMT interpreter.
//!
//! The crate has four layers, all dependency-free:
//!
//! * **[`Recorder`]** — a zero-cost-when-disabled sink for span, instant,
//!   counter, and histogram events. Each instrumented operation is one
//!   function taking `rec: &R` with `R: Recorder + ?Sized` (the pipeline's
//!   `Pipeline::run`, the device's `Gpu::launch`, the executor's
//!   `execute_simt`); an untraced caller passes `&NoopRecorder`, whose
//!   every method is an empty `#[inline(always)]` body, so that call
//!   monomorphizes to untraced machine code. The trait is strictly
//!   observational, so a recorder can never perturb results — the
//!   pipeline's `PipelineReport` and the SIMT executor's responses stay
//!   bit-identical with tracing on or off. One back end collects events,
//!   [`TraceRecorder`]: unbounded for an offline run, or
//!   [`TraceRecorder::bounded`] as the always-on ring of recent events
//!   each reactor shard keeps and a live server reads mid-run.
//! * **[`StreamingHistogram`]** — HDR-style log-bucketed histograms
//!   (O(1) per sample, mergeable, bounded relative quantile error) that
//!   complement `rhythm-core`'s sorted-sample `LatencyStats`.
//! * **Live metrics** — plain values under their owner's lock:
//!   [`AtomicHistogram`] (a [`StreamingHistogram`] behind a mutex) and
//!   [`MetricRegistry`] (named counters, gauges and histograms behind one
//!   mutex, one registry per device, changed a cohort at a time by
//!   [`MetricRegistry::update`]). A snapshot or export is a clone taken
//!   under the lock, and scrapes aggregate by merging snapshots. Reactor
//!   shards keep their own metrics the same way, one lock per shard
//!   (`rhythm-net`). [`CacheCounters`] and [`PoolCounters`] are the one
//!   exception: relaxed atomics, because every thread of the process
//!   writes them. [`PromText`] renders a registry as Prometheus text
//!   exposition (checked by [`validate_prometheus_text`]).
//! * **Exporters** — [`chrome_trace_json`] is the one Chrome trace-event
//!   JSON writer, loadable in [Perfetto](https://ui.perfetto.dev) or
//!   `chrome://tracing`: [`TraceRecorder::chrome_json`] passes it
//!   virtual-time pipeline tracks as pid 1 and wall-time host/SIMT tracks
//!   as pid 2, and a server's `/trace` passes one process per shard's
//!   bounded ring. [`TraceRecorder::summary`] renders a plain-text
//!   report with every histogram. [`validate_chrome_trace`] checks an
//!   exported document (valid JSON, non-decreasing per-track
//!   timestamps) without external dependencies.
//!
//! # Example
//!
//! ```
//! use rhythm_obs::{ArgValue, Clock, Recorder, TraceRecorder, validate_chrome_trace};
//!
//! let rec = TraceRecorder::new();
//! rec.span(Clock::Virtual, "stage:parser", "parse", 0.0, 12.5, &[
//!     ("batch", ArgValue::U64(32)),
//! ]);
//! rec.sample("request_latency_s", 3.2e-3);
//! let json = rec.chrome_json();
//! assert!(validate_chrome_trace(&json).is_ok());
//! println!("{}", rec.summary());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chrome;
mod counters;
mod hist;
mod metrics;
mod prom;
mod recorder;
mod summary;

pub use chrome::{
    chrome_trace_json, json_escape, parse_json, validate_chrome_trace, Json, TraceCheck,
};
pub use counters::{CacheCounters, CacheSnapshot, PoolCounters, PoolSnapshot};
pub use hist::StreamingHistogram;
pub use metrics::{
    AtomicHistogram, MetricExport, MetricId, MetricKind, MetricRegistry, MetricValue, MetricValues,
};
pub use prom::{
    valid_label_name, valid_metric_name, validate_prometheus_text, PromCheck, PromText,
};
pub use recorder::{
    s_to_us, ArgValue, Clock, NoopRecorder, OwnedArg, Phase, Recorder, TraceEvent, TraceRecorder,
};
