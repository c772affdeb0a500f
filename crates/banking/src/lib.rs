//! # rhythm-banking
//!
//! The SPECWeb2009 Banking workload, implemented twice from one source of
//! truth — exactly as the Rhythm paper ships a standalone C version (for
//! CPUs) and a C+CUDA version (for the GPU):
//!
//! * [`templates`] defines each of the 14 request types as a
//!   [`templates::PageSpec`] — backend accesses plus HTML-emission
//!   actions;
//! * [`native`] interprets the specs directly in Rust (the CPU version,
//!   also used by the live TCP example);
//! * [`kernels`] compiles the specs to SIMT kernels (parser, per-type
//!   process stages, device backend) for `rhythm-simt`'s engine;
//! * [`backend`] is the BeSim-style bank store; [`session_array`] the
//!   device-resident session hash table; [`genreq`] the request
//!   generator; [`layout`] the cohort memory layout; and [`runner`] a
//!   reference single-cohort executor.
//!
//! Differential tests assert native and kernel outputs agree modulo
//! warp-alignment whitespace.
//!
//! ```
//! use rhythm_banking::prelude::*;
//! use rhythm_obs::NoopRecorder;
//! use rhythm_simt::gpu::{Gpu, GpuConfig};
//!
//! let workload = Workload::build();
//! let store = BankStore::generate(64, 1);
//! let mut sessions = SessionArrayHost::new(4096, 0x5EED_0001);
//! let mut generator = RequestGenerator::new(64, 2);
//! let cohort = generator.uniform(RequestType::AccountSummary, 32, &mut sessions);
//!
//! let gpu = Gpu::new(GpuConfig::gtx_titan());
//! let opts = CohortOptions::default();
//! let result = run_cohort_traced(&workload, &store, &mut sessions, &cohort,
//!                                &gpu, &opts, &NoopRecorder)?;
//! assert!(result.responses[0].starts_with(b"HTTP/1.1 200 OK"));
//! # Ok::<(), rhythm_simt::ExecError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod genreq;
pub mod images;
pub mod kernels;
pub mod layout;
pub mod native;
pub mod quickpay;
pub mod runner;
pub mod serve;
pub mod session_array;
pub mod templates;
pub mod types;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::backend::{BackendCmd, BankStore};
    pub use crate::genreq::{GeneratedRequest, RequestGenerator};
    pub use crate::images::{run_image_cohort, ImageStore};
    pub use crate::kernels::Workload;
    pub use crate::layout::CohortLayout;
    pub use crate::native::{handle_native, BankingRequest};
    pub use crate::quickpay::{handle_quickpay_native, run_quickpay_cohort, QuickPay};
    pub use crate::runner::{
        run_cohort_traced, run_cohorts_hyperq, run_parser_only, run_request_scalar, BackendMode,
        CohortOptions, DeviceContext, ScalarRunResult,
    };
    pub use crate::serve::{banking_request_from_http, DeviceMetrics, ScalarHandler, SimtHandler};
    pub use crate::session_array::SessionArrayHost;
    pub use crate::types::{RequestType, TypeInfo, TABLE2};
}
