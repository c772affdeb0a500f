//! # rhythm-simt
//!
//! SIMT execution substrate for the Rhythm cohort-server reproduction
//! (ASPLOS 2014). This crate replaces the paper's CUDA/GTX-Titan stack
//! with a deterministic, laptop-runnable simulator that preserves the
//! properties the paper's claims rest on:
//!
//! * **Lockstep amortization** — kernels written in a small IR
//!   ([`ir`]) execute 32 lanes per warp; one issue per warp instruction.
//! * **Control divergence** — a reconvergence stack with
//!   immediate-post-dominator rejoin ([`exec::simt`]) serializes divergent
//!   paths exactly as SIMT hardware does.
//! * **Memory coalescing** — warp accesses to global memory are grouped
//!   into aligned transactions; scattered (row-major) request buffers pay
//!   up to 32× the transactions of transposed (column-major) buffers.
//! * **Device timing** — [`gpu`] converts measured cycles and DRAM traffic
//!   into kernel latencies for a parameterized device (GTX Titan preset).
//!
//! The same IR also runs one lane at a time on the reference engine
//! ([`exec::legacy::execute_lanes`]), which models a CPU core and emits
//! dynamic basic-block traces — the paper's "standalone C implementation"
//! counterpart, and the input to the request-similarity study.
//!
//! ## Quick tour
//!
//! ```
//! use rhythm_obs::NoopRecorder;
//! use rhythm_simt::ir::{ProgramBuilder, BinOp};
//! use rhythm_simt::exec::LaunchConfig;
//! use rhythm_simt::gpu::{Gpu, GpuConfig};
//! use rhythm_simt::mem::{ConstPool, DeviceMemory};
//!
//! // Each lane doubles its slot of a global array.
//! let mut b = ProgramBuilder::new("double");
//! let gid = b.global_id();
//! let four = b.imm(4);
//! let addr = b.bin(BinOp::Mul, gid, four);
//! let v = b.ld_global_word(addr, 0);
//! let two = b.imm(2);
//! let doubled = b.bin(BinOp::Mul, v, two);
//! b.st_global_word(addr, 0, doubled);
//! b.halt();
//! let kernel = b.build()?;
//!
//! let mut mem = DeviceMemory::new(1024 * 4);
//! for i in 0..1024 {
//!     mem.write_word(i * 4, i)?;
//! }
//! let gpu = Gpu::new(GpuConfig::gtx_titan());
//! let result = gpu.launch(&kernel, &LaunchConfig::new(1024, []),
//!                         &mut mem, &ConstPool::new(), &NoopRecorder)?;
//! assert_eq!(mem.read_word(10 * 4)?, 20);
//! println!("kernel took {:.2} µs", result.time_s * 1e6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod exec;
pub mod gpu;
pub mod ir;
pub mod mem;
pub mod stats;
pub mod streams;

pub use exec::legacy::{execute_lanes, execute_simt_legacy};
pub use exec::plan::{plan_cache_stats, plan_for, ExecPlan};
pub use exec::simt::{warp_arena_stats, wide_copy_stats};
pub use exec::{AccessKind, ExecError, FootprintSpec, GateRejection, LaunchConfig, WARP_SIZE};
pub use gpu::{Gpu, GpuConfig, LaunchGate, LaunchResult};
pub use ir::{Program, ProgramBuilder};
pub use mem::{ConstPool, DeviceMemory, DeviceView, MemError};
pub use stats::{DivergenceStats, KernelStats};
