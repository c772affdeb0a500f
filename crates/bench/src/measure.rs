//! Shared measurement machinery for the experiment harness.
//!
//! All experiments are built from two primitives:
//!
//! * **scalar runs** of single requests (CPU model): dynamic instruction
//!   counts feed the calibrated CPU presets;
//! * **cohort runs** on the SIMT engine (GPU model): per-stage kernel
//!   latencies, transactions and divergence feed the Titan platform
//!   models.
//!
//! Cohorts are measured at [`MEASURE_COHORT`] lanes and scaled to the
//! paper's 4096 analytically — per-request stage cost is constant above a
//! few warps (verified by `cohort_size` sweeps), so this keeps simulation
//! time manageable without changing any conclusion.

use std::collections::HashMap;

use rhythm_banking::prelude::*;
use rhythm_obs::NoopRecorder;
use rhythm_platform::pcie::{titan_a_bytes_per_request, PcieModel};
use rhythm_platform::presets::{TitanPlatform, TitanPreset};
use rhythm_platform::PlatformResult;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_simt::stats::KernelStats;

/// Cohort size used for device measurements (scaled analytically to the
/// paper's operating point).
pub const MEASURE_COHORT: u32 = 512;
/// The paper's cohort size.
pub const PAPER_COHORT: u32 = 4096;
/// Session-array salt used across the harness.
pub const SALT: u32 = 0x5EED_0001;
/// Bank users in the measurement store.
pub const USERS: u32 = 256;

/// The measurement context.
#[derive(Debug)]
pub struct Harness {
    /// Compiled kernels.
    pub workload: Workload,
    /// Bank store.
    pub store: BankStore,
    /// The simulated device.
    pub gpu: Gpu,
}

impl Harness {
    /// Standard harness (GTX Titan, 256 users, seed 2014).
    pub fn new() -> Self {
        Harness {
            workload: Workload::build(),
            store: BankStore::generate(USERS, 2014),
            gpu: Gpu::new(GpuConfig::gtx_titan()),
        }
    }
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-type scalar (CPU) measurement.
#[derive(Clone, Debug)]
pub struct ScalarMeasurement {
    /// Request type.
    pub ty: RequestType,
    /// Mean dynamic IR instructions per request.
    pub instructions: f64,
    /// Mean response body bytes (unpadded).
    pub body_bytes: f64,
}

/// Measure mean scalar instructions per request for every type.
pub fn scalar_measurements(h: &Harness, samples: u32) -> Vec<ScalarMeasurement> {
    RequestType::ALL
        .iter()
        .map(|&ty| {
            let mut sessions = SessionArrayHost::new(4096, SALT);
            let mut generator = RequestGenerator::new(USERS, 1000 + ty.id() as u64);
            let mut instr = 0u64;
            let mut body = 0u64;
            for _ in 0..samples {
                let req = generator.one(ty, &mut sessions);
                let r = run_request_scalar(&h.workload, &h.store, &mut sessions, &req, false)
                    .expect("scalar run");
                instr += r.stats.instructions;
                let text = String::from_utf8_lossy(&r.response);
                let body_start = text.find("\n\n").map(|p| p + 2).unwrap_or(0);
                body += (r.response.len() - body_start) as u64;
            }
            ScalarMeasurement {
                ty,
                instructions: instr as f64 / samples as f64,
                body_bytes: body as f64 / samples as f64,
            }
        })
        .collect()
}

/// Workload-average scalar instructions (Table 2 mix weighted).
pub fn workload_avg_instructions(ms: &[ScalarMeasurement]) -> f64 {
    ms.iter()
        .map(|m| m.instructions * m.ty.info().mix_percent / 100.0)
        .sum()
}

/// Per-type device measurement for one Titan variant.
#[derive(Clone, Debug)]
pub struct TitanTypeResult {
    /// Request type.
    pub ty: RequestType,
    /// Device-resident time per cohort, seconds (all kernels incl.
    /// transposes chargeable to this variant).
    pub device_time_per_cohort: f64,
    /// Compute-side throughput (before any bus bound), req/s.
    pub compute_tput: f64,
    /// Final throughput after the variant's bus bound, req/s.
    pub tput: f64,
    /// Per-stage `(name, seconds)` at the measurement cohort.
    pub stage_times: Vec<(String, f64)>,
    /// Aggregate kernel stats over the cohort's process stages.
    pub stats: KernelStats,
    /// Bytes per request over PCIe (Titan A accounting).
    pub pcie_bytes: f64,
}

/// Measure one type under a Titan variant at `cohort` lanes.
pub fn titan_type_measurement(
    h: &Harness,
    ty: RequestType,
    variant: TitanPlatform,
    cohort: u32,
) -> TitanTypeResult {
    let mut sessions = SessionArrayHost::new(4 * cohort, SALT);
    let mut generator = RequestGenerator::new(USERS, 7000 + ty.id() as u64);
    let reqs = generator.uniform(ty, cohort as usize, &mut sessions);

    let opts = CohortOptions {
        transposed: true,
        backend: match variant {
            TitanPlatform::A => BackendMode::Host,
            _ => BackendMode::Device,
        },
        session_capacity: 4 * cohort,
        session_salt: SALT,
        verify: true,
        sanitize: false,
    };
    let mut s = sessions.clone();
    let result = run_cohort_traced(
        &h.workload,
        &h.store,
        &mut s,
        &reqs,
        &h.gpu,
        &opts,
        &NoopRecorder,
    )
    .expect("cohort run");

    // Sustained (steady-state) kernel costs: with 8 cohorts in flight the
    // device pipeline is full, so throughput follows aggregate issue and
    // DRAM bandwidth, not one cohort's critical path.
    let mut stage_times: Vec<(String, f64)> = result
        .launches
        .iter()
        .map(|(n, r)| (n.clone(), h.gpu.sustained_time(&r.stats)))
        .collect();
    let mut stats = KernelStats::default();
    for (_, r) in &result.launches {
        stats.merge(&r.stats);
    }

    // Request-buffer transpose: arrivals are row-major; the parser wants
    // them transposed (every variant pays this).
    let req_t = transpose_time(&h.gpu, cohort, rhythm_banking::layout::REQBUF_BYTES);
    stage_times.push(("reqbuf_transpose".into(), req_t));

    // Backend-data transposes: only Titan A moves backend text to/from
    // the row-major host side.
    if variant == TitanPlatform::A {
        let breq_t = transpose_time(&h.gpu, cohort, rhythm_banking::layout::BREQ_BYTES);
        let bresp_t = transpose_time(&h.gpu, cohort, rhythm_banking::layout::BRESP_BYTES);
        let n = ty.backend_requests() as f64;
        stage_times.push(("backend_transposes".into(), n * (breq_t + bresp_t)));
    }

    // Response transpose: A and B pay it on the device; C offloads it
    // (paper §5.3.2).
    if variant != TitanPlatform::C {
        let resp_t = transpose_time(&h.gpu, cohort, ty.response_buffer_bytes());
        stage_times.push(("response_transpose".into(), resp_t));
    }

    let device_time_per_cohort: f64 = stage_times.iter().map(|(_, t)| t).sum();
    let compute_tput = cohort as f64 / device_time_per_cohort;

    let pcie_bytes = titan_a_bytes_per_request(ty.response_buffer_bytes(), ty.backend_requests());
    let tput = match variant {
        TitanPlatform::A => PcieModel::gen3().achieved(compute_tput, pcie_bytes),
        _ => compute_tput,
    };

    TitanTypeResult {
        ty,
        device_time_per_cohort,
        compute_tput,
        tput,
        stage_times,
        stats,
        pcie_bytes,
    }
}

/// Device time of a `rows × cols` byte transpose under the *optimized*
/// transpose the paper builds on (Ruetsch & Micikevicius, "Optimizing Matrix Transpose in CUDA"): vectorized
/// accesses make it bandwidth-bound — one read plus one write of the
/// matrix at DRAM speed, with a modest compute floor (two instructions
/// per 4-byte vector). A byte-granular, loop-heavy IR transpose kernel,
/// which a production CUDA kernel would not be, would overstate the
/// transpose by ~50x.
pub fn transpose_time(gpu: &Gpu, rows: u32, cols: u32) -> f64 {
    let c = gpu.config();
    let bytes = rows as f64 * cols as f64;
    let memory_s = 2.0 * bytes / c.dram_bw;
    let warp_insts = bytes * 2.0 / (4.0 * 32.0);
    let compute_s = warp_insts / (c.sm_count as f64 * c.issue_width) / c.clock_hz;
    memory_s.max(compute_s) + c.launch_overhead_s
}

/// Workload-level Titan result: weighted-harmonic-mean throughput plus a
/// per-type table.
#[derive(Clone, Debug)]
pub struct TitanResult {
    /// Variant measured.
    pub variant: TitanPlatform,
    /// Workload throughput at the paper cohort size, req/s.
    pub tput: f64,
    /// Per-type measurements (at [`MEASURE_COHORT`], scaled).
    pub per_type: Vec<TitanTypeResult>,
}

/// Measure a Titan variant across all 14 types and combine.
pub fn titan_result(h: &Harness, variant: TitanPlatform) -> TitanResult {
    let per_type: Vec<TitanTypeResult> = RequestType::ALL
        .iter()
        .map(|&ty| titan_type_measurement(h, ty, variant, MEASURE_COHORT))
        .collect();
    let map: HashMap<RequestType, f64> = per_type.iter().map(|r| (r.ty, r.tput)).collect();
    let tput = rhythm_banking::types::weighted_harmonic_mean(|ty| map[&ty]);
    TitanResult {
        variant,
        tput,
        per_type,
    }
}

/// Convert a Titan measurement into a design-space platform result with
/// the paper's power figures and a pipeline-modelled latency.
pub fn titan_platform_result(r: &TitanResult, latency_s: f64) -> PlatformResult {
    let preset = TitanPreset::of(r.variant);
    PlatformResult {
        name: preset.name.clone(),
        throughput: r.tput,
        latency_s,
        idle_w: preset.idle_w,
        wall_w: preset.wall_w,
    }
}

/// CPU platform results from scalar instruction measurements.
///
/// The presets' effective instruction rates are calibrated in the
/// paper's x86 instruction units; our measurements are IR instructions,
/// which are "denser" (one IR op does less than an average x86
/// instruction of the paper's C build). The unit conversion anchors the
/// workload-average to the paper's 429,563 while keeping our measured
/// per-type *shape*.
pub fn cpu_platform_results(ms: &[ScalarMeasurement]) -> Vec<PlatformResult> {
    use rhythm_platform::presets::{CpuPreset, PAPER_AVG_INSTRUCTIONS};
    let scale = PAPER_AVG_INSTRUCTIONS / workload_avg_instructions(ms);
    let per_type: HashMap<RequestType, f64> =
        ms.iter().map(|m| (m.ty, m.instructions * scale)).collect();
    CpuPreset::all()
        .into_iter()
        .map(|p| {
            let tput =
                rhythm_banking::types::weighted_harmonic_mean(|ty| p.throughput(per_type[&ty]));
            PlatformResult {
                name: p.name.clone(),
                throughput: tput,
                latency_s: p.latency_s(PAPER_AVG_INSTRUCTIONS),
                idle_w: p.idle_w,
                wall_w: p.wall_w,
            }
        })
        .collect()
}
