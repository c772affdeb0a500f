//! # rhythm
//!
//! Facade crate for the Rhythm workspace — a from-scratch Rust
//! reproduction of *"Rhythm: Harnessing Data Parallel Hardware for Server
//! Workloads"* (ASPLOS 2014). It re-exports the member crates:
//!
//! | crate | contents |
//! |---|---|
//! | [`simt`] | kernel IR, scalar + warp-lockstep executors, device model |
//! | [`http`] | HTTP substrate (parser, responses, padding, sessions) |
//! | [`core`] | the cohort-scheduling pipeline |
//! | [`banking`] | the SPECWeb2009 Banking workload (native + kernels) |
//! | [`platform`] | platform/power/PCIe/network models |
//! | [`trace`] | basic-block trace merging (Myers diff) |
//! | [`obs`] | tracing recorder, streaming histograms, Perfetto export |
//! | [`verify`] | pre-launch static analysis: divergence, races, bounds |
//!
//! See the repository README for a tour, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ```
//! use rhythm::banking::prelude::*;
//! use rhythm::obs::NoopRecorder;
//! use rhythm::simt::gpu::{Gpu, GpuConfig};
//!
//! let workload = Workload::build();
//! let store = BankStore::generate(32, 1);
//! let mut sessions = SessionArrayHost::new(256, 0xBEEF);
//! let mut generator = RequestGenerator::new(32, 2);
//! let cohort = generator.uniform(RequestType::Login, 32, &mut sessions);
//! let gpu = Gpu::new(GpuConfig::gtx_titan());
//! let opts = CohortOptions { session_capacity: 256, session_salt: 0xBEEF, ..Default::default() };
//! let out = run_cohort_traced(&workload, &store, &mut sessions, &cohort,
//!                             &gpu, &opts, &NoopRecorder)?;
//! assert_eq!(out.responses.len(), 32);
//! # Ok::<(), rhythm::simt::ExecError>(())
//! ```

#![warn(missing_docs)]

pub use rhythm_banking as banking;
pub use rhythm_core as core;
pub use rhythm_http as http;
pub use rhythm_obs as obs;
pub use rhythm_platform as platform;
pub use rhythm_simt as simt;
pub use rhythm_trace as trace;
pub use rhythm_verify as verify;
