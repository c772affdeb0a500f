//! Device timing model: turns [`KernelStats`] into kernel latencies.
//!
//! The model is deliberately simple and fully parameterized:
//!
//! ```text
//! compute = max(max_warp_cycles, warp_cycles / (sm_count × issue_width)) / clock
//! memory  = dram_bytes / dram_bandwidth
//! time    = max(compute, memory) + launch_overhead
//! ```
//!
//! `warp_cycles / (sm_count × issue_width)` models a fully occupied device
//! (many warps hide each other's latency); `max_warp_cycles` bounds small
//! launches that cannot fill the machine.

use std::fmt;
use std::sync::Arc;

use rhythm_obs::{ArgValue, Clock, Recorder};
use serde::{Deserialize, Serialize};

use crate::exec::plan::{plan_cache_stats, plan_for};
use crate::exec::simt::{execute_plan, warp_arena_stats};
use crate::exec::{ExecError, GateRejection, LaunchConfig};
use crate::ir::Program;
use crate::mem::{ConstPool, DeviceMemory};
use crate::stats::KernelStats;

/// A pre-launch admission check run by [`Gpu::launch`] before any lane
/// executes.
///
/// Gates see the program plus the concrete launch environment (config,
/// memory image, const pool) and either admit the launch (`Ok`) or refuse
/// it with a structured [`GateRejection`], which the launch surfaces as
/// [`ExecError::Rejected`]. The canonical implementation is the
/// `rhythm-verify` static analyzer; the trait lives here so the device
/// crate stays free of analyzer dependencies.
pub trait LaunchGate: Send + Sync {
    /// Admit or reject `program` for this launch environment.
    ///
    /// # Errors
    ///
    /// Returns the rejection that should abort the launch.
    fn check(
        &self,
        program: &Program,
        cfg: &LaunchConfig,
        mem: &DeviceMemory,
        pool: &ConstPool,
    ) -> Result<(), GateRejection>;
}

/// Static description of a SIMT device.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Marketing name, for reports.
    pub name: String,
    /// Streaming multiprocessors.
    pub sm_count: u32,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Warp instructions issued per SM per cycle (Kepler SMX dual-issues
    /// from four schedulers; a sustained value of ~4 is realistic for
    /// ALU-heavy code).
    pub issue_width: f64,
    /// DRAM bandwidth in bytes/second.
    pub dram_bw: f64,
    /// Memory transaction size in bytes (coalescing granularity).
    pub tx_bytes: u32,
    /// Fixed per-kernel-launch overhead in seconds.
    pub launch_overhead_s: f64,
}

impl GpuConfig {
    /// NVIDIA GTX Titan (GK110), the paper's evaluation device:
    /// 14 SMX @ 837 MHz, 288 GB/s GDDR5.
    ///
    /// `issue_width` is the *sustained* warp-instruction rate per SMX for
    /// dependent integer/byte-processing code — roughly 40 % of the
    /// 6-warp ALU peak (192 cores / 32 lanes), calibrated once against
    /// the paper's Titan B/C operating points and then held fixed for
    /// every experiment.
    pub fn gtx_titan() -> Self {
        GpuConfig {
            name: "GTX Titan".into(),
            sm_count: 14,
            clock_hz: 837e6,
            issue_width: 2.5,
            dram_bw: 288e9,
            tx_bytes: 128,
            launch_overhead_s: 5e-6,
        }
    }

    /// NVIDIA GTX 690 (one GK104 die): 8 SMX @ 915 MHz, 192 GB/s.
    pub fn gtx_690() -> Self {
        GpuConfig {
            name: "GTX 690".into(),
            sm_count: 8,
            clock_hz: 915e6,
            issue_width: 2.5,
            dram_bw: 192e9,
            tx_bytes: 128,
            launch_overhead_s: 5e-6,
        }
    }
}

/// Result of a timed kernel launch.
#[derive(Clone, PartialEq, Debug)]
pub struct LaunchResult {
    /// Raw execution statistics.
    pub stats: KernelStats,
    /// Modelled kernel latency in seconds.
    pub time_s: f64,
    /// True when DRAM bandwidth, not issue bandwidth, set the latency.
    pub memory_bound: bool,
}

/// A simulated SIMT device.
///
/// # Example
///
/// ```
/// use rhythm_obs::NoopRecorder;
/// use rhythm_simt::gpu::{Gpu, GpuConfig};
/// use rhythm_simt::ir::ProgramBuilder;
/// use rhythm_simt::exec::LaunchConfig;
/// use rhythm_simt::mem::{ConstPool, DeviceMemory};
///
/// let gpu = Gpu::new(GpuConfig::gtx_titan());
/// let mut b = ProgramBuilder::new("nop");
/// b.halt();
/// let p = b.build()?;
/// let mut mem = DeviceMemory::new(16);
/// let cfg = LaunchConfig::new(32, []);
/// let res = gpu.launch(&p, &cfg, &mut mem, &ConstPool::new(), &NoopRecorder)?;
/// assert!(res.time_s > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct Gpu {
    config: GpuConfig,
    gate: Option<Arc<dyn LaunchGate>>,
}

impl fmt::Debug for Gpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gpu")
            .field("config", &self.config)
            .field("gate", &self.gate.as_ref().map(|_| "<LaunchGate>"))
            .finish()
    }
}

impl Gpu {
    /// Create a device from its configuration, with no launch gate.
    pub fn new(config: GpuConfig) -> Self {
        Gpu { config, gate: None }
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Same device with a pre-launch admission gate installed: every
    /// [`Gpu::launch`] first runs `gate`, and a rejection aborts the launch
    /// with [`ExecError::Rejected`] before any lane executes.
    pub fn with_gate(mut self, gate: Arc<dyn LaunchGate>) -> Self {
        self.gate = Some(gate);
        self
    }

    /// The installed launch gate, if any.
    pub fn gate(&self) -> Option<&Arc<dyn LaunchGate>> {
        self.gate.as_ref()
    }

    /// Execute a kernel and model its latency.
    ///
    /// The launch's `tx_bytes` is overridden by the device configuration.
    /// The warps execute in order on the caller's thread; the modelled time
    /// is what the device would take running them in parallel.
    ///
    /// An enabled recorder gets one wall-time span per kernel on the
    /// `simt:kernel` track (named after the program, carrying lane/warp
    /// counts and the modelled device time as args), the executor's
    /// per-warp spans on the `simt:warps` track, decode-cache and warp-arena
    /// counters on the `simt:cache` track, and a `kernel_time_s` histogram
    /// sample of the modelled latency. The recorder cannot perturb
    /// execution: results are bit-identical under [`rhythm_obs::NoopRecorder`].
    ///
    /// # Errors
    ///
    /// Propagates any [`ExecError`] from the SIMT executor, and
    /// [`ExecError::Rejected`] from the launch gate.
    pub fn launch<R: Recorder + ?Sized>(
        &self,
        program: &Program,
        cfg: &LaunchConfig,
        mem: &mut DeviceMemory,
        pool: &ConstPool,
        rec: &R,
    ) -> Result<LaunchResult, ExecError> {
        let mut cfg = cfg.clone();
        cfg.tx_bytes = self.config.tx_bytes;
        if let Some(gate) = &self.gate {
            gate.check(program, &cfg, mem, pool)
                .map_err(ExecError::Rejected)?;
        }
        let start_us = if rec.enabled() {
            rec.wall_now_us()
        } else {
            0.0
        };
        let stats = execute_plan(&plan_for(program), &cfg, mem, pool, rec)?;
        let result = self.time(stats);
        if rec.enabled() {
            let now = rec.wall_now_us();
            let cache = plan_cache_stats();
            let arena = warp_arena_stats();
            rec.counter(
                Clock::Wall,
                "simt:cache",
                "plan_cache_hits",
                now,
                cache.hits as f64,
            );
            rec.counter(
                Clock::Wall,
                "simt:cache",
                "plan_cache_misses",
                now,
                cache.misses as f64,
            );
            rec.counter(
                Clock::Wall,
                "simt:cache",
                "warp_arena_reused",
                now,
                arena.reused as f64,
            );
            rec.counter(
                Clock::Wall,
                "simt:cache",
                "warp_arena_allocated",
                now,
                arena.allocated as f64,
            );
            rec.span(
                Clock::Wall,
                "simt:kernel",
                program.name(),
                start_us,
                rec.wall_now_us() - start_us,
                &[
                    ("lanes", ArgValue::U64(result.stats.lanes as u64)),
                    ("warps", ArgValue::U64(result.stats.warps as u64)),
                    ("modelled_time_s", ArgValue::F64(result.time_s)),
                    (
                        "memory_bound",
                        ArgValue::Str(if result.memory_bound { "yes" } else { "no" }),
                    ),
                ],
            );
            rec.sample("kernel_time_s", result.time_s);
        }
        Ok(result)
    }

    /// Sustained-throughput time for a kernel's stats: the device cost
    /// when many independent kernels are in flight (steady-state
    /// pipeline), so the underfilled-device critical path
    /// (`max_warp_cycles`) does not apply. Use this for throughput
    /// accounting; use [`Gpu::time`] for the latency of one isolated
    /// launch.
    pub fn sustained_time(&self, stats: &KernelStats) -> f64 {
        let c = &self.config;
        let compute_s = stats.warp_cycles as f64 / (c.sm_count as f64 * c.issue_width) / c.clock_hz;
        let memory_s = stats.dram_bytes as f64 / c.dram_bw;
        compute_s.max(memory_s) + c.launch_overhead_s
    }

    /// Model latency for pre-computed stats (used when replaying stats for
    /// a different device configuration).
    pub fn time(&self, stats: KernelStats) -> LaunchResult {
        let c = &self.config;
        let throughput_cycles = stats.warp_cycles as f64 / (c.sm_count as f64 * c.issue_width);
        let compute_cycles = throughput_cycles.max(stats.max_warp_cycles as f64);
        let compute_s = compute_cycles / c.clock_hz;
        let memory_s = stats.dram_bytes as f64 / c.dram_bw;
        let memory_bound = memory_s > compute_s;
        LaunchResult {
            time_s: compute_s.max(memory_s) + c.launch_overhead_s,
            memory_bound,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, ProgramBuilder};
    use rhythm_obs::{NoopRecorder, TraceRecorder};

    #[test]
    fn bigger_kernel_takes_longer() {
        let gpu = Gpu::new(GpuConfig::gtx_titan());
        let mk = |n: u32| {
            let mut b = ProgramBuilder::new("k");
            let c = b.imm(n);
            b.for_loop(c, |b, _| {
                b.imm(0);
            });
            b.halt();
            b.build().unwrap()
        };
        let pool = ConstPool::new();
        let mut mem = DeviceMemory::new(16);
        let small = gpu
            .launch(
                &mk(10),
                &LaunchConfig::new(1024, []),
                &mut mem,
                &pool,
                &NoopRecorder,
            )
            .unwrap();
        let big = gpu
            .launch(
                &mk(1000),
                &LaunchConfig::new(1024, []),
                &mut mem,
                &pool,
                &NoopRecorder,
            )
            .unwrap();
        assert!(big.time_s > small.time_s);
    }

    #[test]
    fn scattered_access_can_be_memory_bound() {
        // Huge strided traffic with almost no compute.
        let gpu = Gpu::new(GpuConfig::gtx_titan());
        let mut b = ProgramBuilder::new("mem");
        let g = b.global_id();
        let stride = b.imm(4096);
        let addr = b.bin(BinOp::Mul, g, stride);
        let n = b.imm(64);
        b.for_loop(n, |b, i| {
            let a2 = b.bin(BinOp::Add, addr, i);
            let hop = b.imm(128);
            let a3 = b.bin(BinOp::Mul, i, hop);
            let a4 = b.bin(BinOp::Add, a2, a3);
            let v = b.ld_global_byte(a4, 0);
            b.st_global_byte(a4, 0, v);
        });
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(4096 * 1024 + 64 * 129 + 8);
        let pool = ConstPool::new();
        let res = gpu
            .launch(
                &p,
                &LaunchConfig::new(1024, []),
                &mut mem,
                &pool,
                &NoopRecorder,
            )
            .unwrap();
        assert!(res.stats.mem_transactions > res.stats.mem_accesses);
    }

    #[test]
    fn traced_launch_identical_to_untraced() {
        let mk = |b: &mut ProgramBuilder| {
            let g = b.global_id();
            let four = b.imm(4);
            let addr = b.bin(BinOp::Mul, g, four);
            let n = b.imm(16);
            b.for_loop(n, |b, i| {
                let v = b.ld_global_word(addr, 0);
                let v2 = b.bin(BinOp::Add, v, i);
                b.st_global_word(addr, 0, v2);
            });
            b.halt();
        };
        let mut b = ProgramBuilder::new("k");
        mk(&mut b);
        let p = b.build().unwrap();
        let pool = ConstPool::new();
        let cfg = LaunchConfig::new(512, []);
        let gpu = Gpu::new(GpuConfig::gtx_titan());

        let mut m1 = DeviceMemory::new(512 * 4);
        let r1 = gpu.launch(&p, &cfg, &mut m1, &pool, &NoopRecorder).unwrap();

        // The same launch under a live recorder: identical result and
        // memory, one `simt:kernel` span, one `simt:warps` span per warp,
        // and one `kernel_time_s` sample.
        let rec = TraceRecorder::new();
        let mut mem = DeviceMemory::new(512 * 4);
        let traced = gpu.launch(&p, &cfg, &mut mem, &pool, &rec).unwrap();
        assert_eq!(traced, r1, "tracing changed the launch result");
        assert_eq!(mem, m1, "tracing changed memory");
        let on = |track: &str| rec.events().iter().filter(|e| e.track == track).count();
        assert_eq!(on("simt:kernel"), 1);
        assert_eq!(on("simt:warps"), 16);
        assert_eq!(rec.histogram("kernel_time_s").map(|h| h.count()), Some(1));
    }

    /// A launch stops at its first faulting warp: of four warps where only
    /// warp 1 faults, warp 0's stores land, warp 1's error is returned, and
    /// warps 2 and 3 never run — on every run.
    #[test]
    fn launch_stops_at_the_first_faulting_warp() {
        // Lane g stores g + 1 at 4g; warp 1's lanes add an offset that
        // puts their stores past the image.
        let mut b = ProgramBuilder::new("warp1_faults");
        let g = b.global_id();
        let five = b.imm(5);
        let warp = b.bin(BinOp::Shr, g, five);
        let one = b.imm(1);
        let is1 = b.bin(BinOp::Eq, warp, one);
        let far = b.imm(0x1_0000);
        let off = b.bin(BinOp::Mul, is1, far);
        let four = b.imm(4);
        let slot = b.bin(BinOp::Mul, g, four);
        let addr = b.bin(BinOp::Add, slot, off);
        let v = b.bin(BinOp::Add, g, one);
        b.st_global_word(addr, 0, v);
        b.halt();
        let p = b.build().unwrap();

        let gpu = Gpu::new(GpuConfig::gtx_titan());
        let cfg = LaunchConfig::new(4 * 32, []);
        for run in 0..20 {
            let mut mem = DeviceMemory::new(4 * 32 * 4);
            let err = gpu
                .launch(&p, &cfg, &mut mem, &ConstPool::new(), &NoopRecorder)
                .unwrap_err();
            assert_eq!(
                err,
                ExecError::Mem(crate::mem::MemError::OutOfBounds {
                    space: crate::ir::MemSpace::Global,
                    addr: 32 * 4 + 0x1_0000,
                    len: 4,
                    size: 4 * 32 * 4,
                }),
                "run {run}: warp 1's first lane faults"
            );
            for lane in 0..32 {
                assert_eq!(mem.read_word(lane * 4).unwrap(), lane + 1, "run {run}");
            }
            assert!(
                mem.as_bytes()[32 * 4..].iter().all(|&b| b == 0),
                "run {run}: a byte of warp 1, 2 or 3 reached the image"
            );
        }
    }

    #[test]
    fn gate_rejects_before_any_lane_runs() {
        struct AlwaysReject;
        impl LaunchGate for AlwaysReject {
            fn check(
                &self,
                program: &Program,
                _cfg: &LaunchConfig,
                _mem: &DeviceMemory,
                _pool: &ConstPool,
            ) -> Result<(), GateRejection> {
                Err(GateRejection {
                    rule: "test-reject".into(),
                    program: program.name().to_string(),
                    block: Some(0),
                    op_index: Some(0),
                    message: "refused".into(),
                })
            }
        }

        // A kernel that would write to memory if it ran.
        let mut b = ProgramBuilder::new("poke");
        let a = b.imm(0);
        let v = b.imm(0xAB);
        b.st_global_byte(a, 0, v);
        b.halt();
        let p = b.build().unwrap();

        let gpu = Gpu::new(GpuConfig::gtx_titan()).with_gate(Arc::new(AlwaysReject));
        let mut mem = DeviceMemory::new(16);
        let err = gpu
            .launch(
                &p,
                &LaunchConfig::new(1, []),
                &mut mem,
                &ConstPool::new(),
                &NoopRecorder,
            )
            .unwrap_err();
        match err {
            ExecError::Rejected(r) => {
                assert_eq!(r.rule, "test-reject");
                assert_eq!(r.program, "poke");
                assert!(r.to_string().contains("bb0.0"));
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        // The store never happened.
        assert_eq!(mem.as_bytes()[0], 0);
        // Debug formatting does not try to print the gate itself.
        assert!(format!("{gpu:?}").contains("LaunchGate"));
    }

    #[test]
    fn time_includes_launch_overhead() {
        let gpu = Gpu::new(GpuConfig::gtx_titan());
        let res = gpu.time(KernelStats::default());
        assert!((res.time_s - gpu.config().launch_overhead_s).abs() < 1e-12);
    }

    #[test]
    fn underfilled_device_bounded_by_slowest_warp() {
        let gpu = Gpu::new(GpuConfig::gtx_titan());
        let stats = KernelStats {
            warps: 1,
            lanes: 32,
            warp_cycles: 1000,
            max_warp_cycles: 1000,
            ..Default::default()
        };
        let res = gpu.time(stats);
        let expect = 1000.0 / gpu.config().clock_hz + gpu.config().launch_overhead_s;
        assert!((res.time_s - expect).abs() / expect < 1e-9);
    }
}
