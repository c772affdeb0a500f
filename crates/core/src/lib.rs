//! # rhythm-core
//!
//! The Rhythm cohort-scheduling pipeline (paper §3–4): an event-driven,
//! single-threaded server architecture that delays and batches similar
//! requests into **cohorts** and launches each cohort as a data-parallel
//! kernel.
//!
//! * [`cohort`] — cohort contexts, the Free → PartiallyFull → Full → Busy
//!   FSM, and the preallocated context pool;
//! * [`events`] — the deterministic virtual-time event queue standing in
//!   for the prototype's epoll/callback polling loop;
//! * [`service`] — the latency-model abstraction a workload plugs in
//!   (calibrate it from real kernel measurements, as `rhythm-bench` does
//!   with the banking workload);
//! * [`pipeline`] — the five-stage Reader/Parser/Dispatch/Process/Response
//!   pipeline as a discrete-event simulation with formation timeouts,
//!   double-buffered reading, device-slot (HyperQ) modelling and
//!   structural-hazard stalls;
//! * [`metrics`] — throughput/latency/occupancy reporting.
//!
//! ```
//! use rhythm_core::pipeline::{uniform_arrivals, Pipeline, PipelineConfig};
//! use rhythm_obs::NoopRecorder;
//! use rhythm_core::service::TableService;
//!
//! let config = PipelineConfig {
//!     cohort_size: 64,
//!     read_batch: 64,
//!     ..Default::default()
//! };
//! let pipeline = Pipeline::new(TableService::uniform(2, 2), config);
//! let arrivals = uniform_arrivals(1024, 1_000_000.0, &[0, 1]);
//! let report = pipeline.run(&arrivals, &NoopRecorder);
//! assert_eq!(report.completed, 1024);
//! println!("throughput: {:.0} req/s, mean latency {:.2} ms",
//!          report.throughput(), report.latency.mean * 1e3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cohort;
pub mod events;
pub mod metrics;
pub mod pipeline;
pub mod service;

pub use cohort::{CohortContext, CohortError, CohortPool, CohortRejected, CohortState, ContextId};
pub use metrics::{LatencyStats, PipelineReport};
pub use pipeline::{Pipeline, PipelineConfig};
pub use service::{Service, TableService};
