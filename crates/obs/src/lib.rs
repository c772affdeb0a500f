//! `rhythm-obs` — observability substrate for the Rhythm pipeline and
//! SIMT interpreter.
//!
//! The crate has three layers, all dependency-free:
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
//!   bit-identical with tracing on or off. Two back ends collect events:
//!   [`TraceRecorder`], unbounded, for offline runs, and
//!   [`FlightRecorder`], an always-on fixed-size ring of recent
//!   wall-clock events that a live server reads mid-run.
//! * **[`StreamingHistogram`]** — HDR-style log-bucketed histograms
//!   (O(1) per sample, mergeable, bounded relative quantile error) that
//!   complement `rhythm-core`'s sorted-sample `LatencyStats`.
//! * **Live metrics** — [`Counter`] / [`Gauge`] / [`AtomicHistogram`]
//!   (the shared-atomic-bucket variant of [`StreamingHistogram`], with
//!   the same bucket geometry) grouped in a [`MetricRegistry`], one per
//!   reactor shard and one per device: lock-free relaxed atomics on the
//!   hot path, scrape-time aggregation by merging snapshots.
//!   [`PromText`] renders a registry as Prometheus text exposition
//!   (checked by [`validate_prometheus_text`]).
//! * **Exporters** — [`chrome_trace_json`] is the one Chrome trace-event
//!   JSON writer, loadable in [Perfetto](https://ui.perfetto.dev) or
//!   `chrome://tracing`: [`TraceRecorder::chrome_json`] passes it
//!   virtual-time pipeline tracks as pid 1 and wall-time host/SIMT tracks
//!   as pid 2, and a server's `/trace` passes one process per shard's
//!   [`FlightRecorder`]. [`TraceRecorder::summary`] renders a plain-text
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
mod flight;
mod hist;
mod metrics;
mod prom;
mod recorder;
mod summary;

pub use chrome::{
    chrome_trace_json, json_escape, parse_json, validate_chrome_trace, Json, TraceCheck,
};
pub use counters::{CacheCounters, CacheSnapshot, PoolCounters, PoolSnapshot};
pub use flight::FlightRecorder;
pub use hist::StreamingHistogram;
pub use metrics::{
    AtomicHistogram, Counter, Gauge, MetricExport, MetricKind, MetricRegistry, MetricValue,
};
pub use prom::{
    valid_label_name, valid_metric_name, validate_prometheus_text, PromCheck, PromText,
};
pub use recorder::{
    s_to_us, ArgValue, Clock, NoopRecorder, OwnedArg, Phase, Recorder, TraceEvent, TraceRecorder,
};
