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
use std::sync::{Arc, OnceLock};

use rhythm_obs::{ArgValue, Clock, NoopRecorder, Recorder};
use serde::{Deserialize, Serialize};

use crate::exec::plan::{plan_cache_stats, plan_for};
use crate::exec::simt::{
    auto_worker_count, execute_plan_workers_traced, resolve_workers, warp_arena_stats,
};
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
    /// Device memory capacity in bytes (capacity planning only).
    pub memory_bytes: u64,
    /// Number of hardware work queues (1 = pre-HyperQ, 32 = HyperQ).
    pub hw_queues: u32,
    /// Host worker threads used to execute a launch's warps
    /// (simulation-speed knob only — modelled latencies are unaffected):
    /// `0` = one per available core (asked of the OS once per [`Gpu`], and
    /// never by a launch of a single warp), `1` = serial execution.
    pub workers: u32,
    /// Strict footprint-sanitizer policy: when `true`, every launch must
    /// carry a claimed static footprint ([`LaunchConfig::sanitize`]) or it
    /// is rejected before any lane runs. The device cannot compute
    /// footprints itself (that is the verifier's job); this flag only
    /// enforces that callers supplied one, turning "forgot to sanitize"
    /// into a loud rejection instead of a silently unchecked launch.
    pub sanitize: bool,
}

impl GpuConfig {
    /// NVIDIA GTX Titan (GK110), the paper's evaluation device:
    /// 14 SMX @ 837 MHz, 288 GB/s GDDR5, 6 GB, HyperQ (32 queues).
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
            memory_bytes: 6 * (1 << 30),
            hw_queues: 32,
            workers: 0,
            sanitize: false,
        }
    }

    /// NVIDIA GTX 690 (one GK104 die): 8 SMX @ 915 MHz, 192 GB/s, 2 GB,
    /// single hardware work queue (no HyperQ) — used by the paper to show
    /// false-dependency stalls.
    pub fn gtx_690() -> Self {
        GpuConfig {
            name: "GTX 690".into(),
            sm_count: 8,
            clock_hz: 915e6,
            issue_width: 2.5,
            dram_bw: 192e9,
            tx_bytes: 128,
            launch_overhead_s: 5e-6,
            memory_bytes: 2 * (1 << 30),
            hw_queues: 1,
            workers: 0,
            sanitize: false,
        }
    }

    /// Same configuration with the warp-execution worker count replaced.
    pub fn with_workers(mut self, workers: u32) -> Self {
        self.workers = workers;
        self
    }

    /// Same configuration with the strict footprint-sanitizer policy
    /// replaced.
    pub fn with_sanitize(mut self, sanitize: bool) -> Self {
        self.sanitize = sanitize;
        self
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
/// let res = gpu.launch(&p, &LaunchConfig::new(32, []), &mut mem, &ConstPool::new())?;
/// assert!(res.time_s > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct Gpu {
    config: GpuConfig,
    gate: Option<Arc<dyn LaunchGate>>,
    /// What `workers: 0` ("one per core") means on this host: asked of the
    /// OS by the first launch that has more than one unit of work, kept
    /// for every later one. [`GpuConfig::workers`] keeps reporting `0`.
    auto_workers: OnceLock<usize>,
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
        Gpu {
            config,
            gate: None,
            auto_workers: OnceLock::new(),
        }
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

    /// Host threads this device runs `units` independent units of work
    /// on under a `workers` knob ([`resolve_workers`], with the automatic
    /// count resolved once per device).
    pub(crate) fn worker_count(&self, workers: usize, units: usize) -> usize {
        let workers = match workers {
            0 if units > 1 => *self.auto_workers.get_or_init(auto_worker_count),
            n => n,
        };
        resolve_workers(workers, units)
    }

    /// Execute a kernel and model its latency.
    ///
    /// The launch's `tx_bytes` is overridden by the device configuration,
    /// and the warps execute on [`GpuConfig::workers`] host threads — in
    /// order on one, when the kernel contains an atomic. The result
    /// (memory image, stats, modelled time) is bit-identical at any worker
    /// count; only the host wall-clock time changes.
    ///
    /// # Errors
    ///
    /// Propagates any [`ExecError`] from the SIMT executor.
    pub fn launch(
        &self,
        program: &Program,
        cfg: &LaunchConfig,
        mem: &mut DeviceMemory,
        pool: &ConstPool,
    ) -> Result<LaunchResult, ExecError> {
        self.launch_traced(program, cfg, mem, pool, &NoopRecorder)
    }

    /// [`Gpu::launch`] with tracing: one wall-time span per kernel on the
    /// `simt:kernel` track (named after the program, carrying lane/warp
    /// counts and the modelled device time as args), per-warp spans on
    /// worker tracks via [`execute_plan_workers_traced`], decode-cache and
    /// warp-arena counters on the `simt:cache` track, and a
    /// `kernel_time_s` histogram sample of the modelled latency.
    ///
    /// The recorder cannot perturb execution: results are bit-identical
    /// to [`Gpu::launch`].
    ///
    /// # Errors
    ///
    /// Propagates any [`ExecError`] from the SIMT executor.
    pub fn launch_traced<R: Recorder + ?Sized>(
        &self,
        program: &Program,
        cfg: &LaunchConfig,
        mem: &mut DeviceMemory,
        pool: &ConstPool,
        rec: &R,
    ) -> Result<LaunchResult, ExecError> {
        let mut cfg = cfg.clone();
        cfg.tx_bytes = self.config.tx_bytes;
        if self.config.sanitize && cfg.sanitize.is_none() {
            return Err(ExecError::Rejected(GateRejection {
                rule: "sanitize-missing-footprint".into(),
                program: program.name().into(),
                block: None,
                op_index: None,
                message: "device requires every launch to carry a claimed static \
                          footprint (GpuConfig::sanitize), but this launch has none"
                    .into(),
            }));
        }
        if let Some(gate) = &self.gate {
            gate.check(program, &cfg, mem, pool)
                .map_err(ExecError::Rejected)?;
        }
        let start_us = if rec.enabled() {
            rec.wall_now_us()
        } else {
            0.0
        };
        let plan = plan_for(program);
        // A plan with an atomic is one unit: its warps run in order on one
        // worker, so what a cross-warp `AtomicAdd` observes never depends
        // on the host's scheduling.
        let warps = cfg.warps() as usize;
        let units = if plan.has_atomics() { 1 } else { warps };
        let workers = self.worker_count(self.config.workers as usize, units);
        let stats = execute_plan_workers_traced(&plan, &cfg, mem, pool, workers, rec)?;
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

    #[test]
    fn presets_differ() {
        let t = GpuConfig::gtx_titan();
        let g = GpuConfig::gtx_690();
        assert_eq!(t.hw_queues, 32);
        assert_eq!(g.hw_queues, 1);
        assert!(t.memory_bytes > g.memory_bytes);
    }

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
            .launch(&mk(10), &LaunchConfig::new(1024, []), &mut mem, &pool)
            .unwrap();
        let big = gpu
            .launch(&mk(1000), &LaunchConfig::new(1024, []), &mut mem, &pool)
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
            .launch(&p, &LaunchConfig::new(1024, []), &mut mem, &pool)
            .unwrap();
        assert!(res.stats.mem_transactions > res.stats.mem_accesses);
    }

    #[test]
    fn launch_identical_across_worker_counts() {
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

        let run = |workers: u32| {
            let gpu = Gpu::new(GpuConfig::gtx_titan().with_workers(workers));
            let mut mem = DeviceMemory::new(512 * 4);
            let res = gpu.launch(&p, &cfg, &mut mem, &pool).unwrap();
            (res, mem)
        };
        let (r1, m1) = run(1);
        for w in [2, 4] {
            let (rn, mn) = run(w);
            assert_eq!(rn, r1, "launch result differs at {w} workers");
            assert_eq!(mn, m1, "memory differs at {w} workers");
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
            .launch(&p, &LaunchConfig::new(1, []), &mut mem, &ConstPool::new())
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
