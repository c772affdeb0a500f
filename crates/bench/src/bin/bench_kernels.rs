//! Per-kernel interpreter micro-throughput: legacy vs pre-decoded engine.
//!
//! Walks every banking kernel (parser, backend, image, and each request
//! type's process stages) in its real cohort launch environment — store
//! and session images loaded, request bytes written — and times repeated
//! launches of each kernel on the legacy masked engine and on the
//! pre-decoded warp-vectorized engine, from identical memory snapshots.
//!
//! Emits `BENCH_simt.json` with the machine it ran on (the block every
//! `benchmark/` result carries), per-kernel ops/s, warps/s, the
//! legacy→pre-decoded speedup, the process-wide decode-cache hit rate,
//! the wide-copy commit/fallback totals of each kernel's one bit-checked
//! reference launch (the same at any host speed), the host cost of a
//! launch that does nothing (`launch_floor_us`), plus a convergent-kernel
//! speedup summary (the convergent fast paths at least double
//! interpreter warp throughput).
//!
//! Every timed launch is bit-checked against the legacy engine's memory
//! image and stats, so the numbers are semantics-proven, not trusted.
//!
//! Flags:
//!
//! * `--smoke` — small CI run (tiny cohort, few iterations) that checks
//!   the two engines stay bit-identical in every measured environment
//!   and that the JSON is written (CI reads the wide-copy totals from
//!   it); makes no speed assertions (debug builds and CI noise make those
//!   meaningless).
//! * `--cohort <n>` / `--iters <n>` — launch width and timing repetitions.
//! * `--out <path>` — result file (default `BENCH_simt.json`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use rhythm_banking::backend::BankStore;
use rhythm_banking::genreq::RequestGenerator;
use rhythm_banking::kernels::Workload;
use rhythm_banking::layout::{CohortLayout, REQBUF_BYTES};
use rhythm_banking::session_array::SessionArrayHost;
use rhythm_banking::types::RequestType;
use rhythm_bench::fmt::{json_f, machine_block};
use rhythm_obs::{CacheSnapshot, NoopRecorder};
use rhythm_simt::exec::legacy::execute_simt_legacy;
use rhythm_simt::exec::simt::execute_simt;
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_simt::mem::{ConstPool, DeviceMemory};
use rhythm_simt::{plan_cache_stats, plan_for, wide_copy_stats, Program, ProgramBuilder};
use rhythm_verify::Verifier;

const SESSION_SALT: u32 = 0x5EED_0001;
const NUM_USERS: u32 = 2048;

struct Args {
    smoke: bool,
    cohort: u32,
    iters: u32,
    out: String,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        smoke: false,
        cohort: 1024,
        iters: 5,
        out: "BENCH_simt.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                parsed.smoke = true;
                parsed.cohort = 96;
                parsed.iters = 1;
            }
            "--cohort" => {
                parsed.cohort = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--cohort needs a positive integer")
            }
            "--iters" => {
                parsed.iters = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--iters needs a positive integer")
            }
            "--out" => parsed.out = args.next().expect("--out needs a path"),
            other => panic!(
                "unknown flag {other:?} (expected --smoke, --cohort <n>, --iters <n>, \
                 --out <path>)"
            ),
        }
    }
    parsed
}

/// One kernel measured in one concrete launch environment.
struct KernelRow {
    name: String,
    ty: String,
    warps: u32,
    warp_instructions: u64,
    lane_instructions: u64,
    simd_efficiency: f64,
    /// Launches per timed batch (calibrated inner repetitions); the
    /// reported times are the minimum batch over the outer iterations.
    runs: u32,
    legacy_s: f64,
    plan_s: f64,
    /// Wide copies the bit-checked reference launch committed (`hits`) and
    /// declined (`misses`): a property of the kernel, not of host speed.
    copies: CacheSnapshot,
}

impl KernelRow {
    fn legacy_warps_per_s(&self) -> f64 {
        self.warps as f64 * self.runs as f64 / self.legacy_s
    }
    fn plan_warps_per_s(&self) -> f64 {
        self.warps as f64 * self.runs as f64 / self.plan_s
    }
    fn plan_ops_per_s(&self) -> f64 {
        self.lane_instructions as f64 * self.runs as f64 / self.plan_s
    }
    fn speedup(&self) -> f64 {
        self.legacy_s / self.plan_s
    }
    /// Kernels that run ≥99% of lane-slots at full occupancy — i.e. the
    /// convergent fast paths handle essentially every issue. Divergent and
    /// narrow kernels run masked: both engines then walk the live lanes one
    /// at a time, so their ratio measures dispatch and control flow rather
    /// than the vector loops, and is left out of the convergent summary.
    fn convergent(&self) -> bool {
        self.simd_efficiency > 0.99
    }
}

/// Time one launch of `run` from a clone of `snapshot`, excluding the
/// clone from the measurement, and check the run reproduces `expect`.
fn time_once(
    snapshot: &DeviceMemory,
    expect: &DeviceMemory,
    run: impl FnOnce(&mut DeviceMemory),
) -> Duration {
    let mut m = snapshot.clone();
    let t0 = Instant::now();
    run(&mut m);
    let elapsed = t0.elapsed();
    assert_eq!(
        m.as_bytes(),
        expect.as_bytes(),
        "engines diverged during timing"
    );
    elapsed
}

#[allow(clippy::too_many_arguments)] // one measurement's full context; a struct would be ceremony
fn measure_kernel(
    name: &str,
    ty: String,
    kernel: &Program,
    cfg: &LaunchConfig,
    pool: &ConstPool,
    snapshot: &DeviceMemory,
    iters: u32,
    calibrate: bool,
) -> KernelRow {
    // Reference run fixes the expected output and the stats, and checks
    // the engines agree before any timing happens.
    let mut mem_plan = snapshot.clone();
    let copies_before = wide_copy_stats();
    let stats = execute_simt(kernel, cfg, &mut mem_plan, pool, &NoopRecorder)
        .unwrap_or_else(|e| panic!("{ty}/{name} pre-decoded fault: {e}"));
    let copies = wide_copy_stats().since(&copies_before);
    let mut mem_legacy = snapshot.clone();
    let legacy_stats = execute_simt_legacy(kernel, cfg, &mut mem_legacy, pool)
        .unwrap_or_else(|e| panic!("{ty}/{name} legacy fault: {e}"));
    assert_eq!(stats, legacy_stats, "{ty}/{name}: engine stats diverged");
    assert_eq!(
        mem_plan.as_bytes(),
        mem_legacy.as_bytes(),
        "{ty}/{name}: engine memory diverged"
    );

    // Calibrate inner repetitions so each timed sample covers at least
    // ~30 ms: sub-millisecond kernels are otherwise dominated by
    // scheduling noise. Interleave the engines each iteration so
    // machine-load drift hits both sides of the ratio equally.
    let inner = if calibrate {
        let probe = time_once(snapshot, &mem_plan, |m| {
            execute_simt(kernel, cfg, m, pool, &NoopRecorder).unwrap();
        });
        ((0.03 / probe.as_secs_f64().max(1e-9)).ceil().min(1000.0) as u32).max(1)
    } else {
        1
    };
    // Each iteration times one batch of `inner` launches per engine; the
    // minimum batch across iterations is the least-interference sample,
    // the robust throughput estimator on a machine with background load.
    let mut legacy = Duration::MAX;
    let mut plan = Duration::MAX;
    for _ in 0..iters {
        let mut batch = Duration::ZERO;
        for _ in 0..inner {
            batch += time_once(snapshot, &mem_plan, |m| {
                execute_simt_legacy(kernel, cfg, m, pool).unwrap();
            });
        }
        legacy = legacy.min(batch);
        let mut batch = Duration::ZERO;
        for _ in 0..inner {
            batch += time_once(snapshot, &mem_plan, |m| {
                execute_simt(kernel, cfg, m, pool, &NoopRecorder).unwrap();
            });
        }
        plan = plan.min(batch);
    }
    let legacy_s = legacy.as_secs_f64();
    let plan_s = plan.as_secs_f64();

    KernelRow {
        name: name.to_string(),
        ty,
        warps: cfg.warps(),
        warp_instructions: stats.warp_instructions,
        lane_instructions: stats.lane_instructions,
        simd_efficiency: stats.simd_efficiency(32),
        runs: inner,
        legacy_s,
        plan_s,
        copies,
    }
}

/// Median host time, in µs, of a 1-lane `halt` kernel through
/// [`Gpu::launch`] on the default device behind the verify gate, warm:
/// what a launch costs on the host before its first instruction, and so
/// what every kernel of a cohort pays whatever its lanes do.
fn launch_floor_us() -> f64 {
    let mut b = ProgramBuilder::new("halt");
    b.halt();
    let kernel = b.build().expect("assembles");
    let gpu = Gpu::new(GpuConfig::gtx_titan()).with_gate(Arc::new(Verifier::new()));
    let (pool, cfg) = (ConstPool::new(), LaunchConfig::new(1, []));
    let mut mem = DeviceMemory::new(64);
    let mut launch_us = || {
        let t0 = Instant::now();
        gpu.launch(&kernel, &cfg, &mut mem, &pool, &NoopRecorder)
            .expect("halt kernel launches");
        t0.elapsed().as_secs_f64() * 1e6
    };
    // The first launches decode the plan and fill the gate's verdict cache.
    for _ in 0..100 {
        launch_us();
    }
    let mut samples: Vec<f64> = (0..2001).map(|_| launch_us()).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let args = parse_args();
    let workload = Workload::build();
    let store = BankStore::generate(NUM_USERS, 1);
    let store_img = store.serialize_device();
    // Every non-login request pre-creates a session, and only the logout
    // cohort tears any down, so the table needs room for ~13 cohorts.
    let capacity = (16 * args.cohort).max(1024);

    // Pre-decode every kernel once so the timing loop measures execution,
    // not first-launch decode, and the cache-hit counters reflect reuse.
    let mut sessions = SessionArrayHost::new(capacity, SESSION_SALT);
    let mut generator = RequestGenerator::new(NUM_USERS, 0xBEC5);
    let mut rows: Vec<KernelRow> = Vec::new();

    for ty in RequestType::ALL {
        let reqs = generator.uniform(ty, args.cohort as usize, &mut sessions);
        let layout = CohortLayout::new(
            args.cohort,
            ty.response_buffer_bytes(),
            capacity,
            SESSION_SALT,
            store_img.len() as u32,
            true,
        );
        // Laid out as the cohort runner lays it: the response buffer
        // lane-major on the host.
        let mut mem = DeviceMemory::new(0);
        mem.recut(0, layout.total_bytes as usize, layout.response_lane_major());
        mem.load(layout.store_base, &store_img).unwrap();
        mem.load(layout.session_base, &sessions.to_device_bytes())
            .unwrap();
        for (lane, r) in reqs.iter().enumerate() {
            layout
                .write_lane(
                    &mut mem,
                    layout.reqbuf_base,
                    REQBUF_BYTES,
                    lane as u32,
                    &r.raw,
                )
                .unwrap();
        }
        let cfg = layout.launch_config();

        // The cohort runner's device-backend launch sequence; each kernel
        // is measured in the memory state it actually sees there, and
        // shared kernels (parser, backend) are measured once per type so
        // the report shows their behavior across environments.
        for step in workload.cohort_steps(ty) {
            let kernel = step.program();
            let _ = plan_for(kernel); // warm the decode cache
            let measured = rows.iter().any(|r| r.name == kernel.name());
            if !measured {
                rows.push(measure_kernel(
                    kernel.name(),
                    ty.to_string(),
                    kernel,
                    &cfg,
                    &workload.pool,
                    &mem,
                    args.iters,
                    !args.smoke,
                ));
            }
            // Advance the cohort state for the next kernel's snapshot.
            execute_simt(kernel, &cfg, &mut mem, &workload.pool, &NoopRecorder)
                .unwrap_or_else(|e| panic!("{ty:?}/{} fault: {e}", step.name()));
        }

        // Later types generate tokens against the device's session state.
        let sess_bytes = mem
            .slice(
                layout.session_base,
                SessionArrayHost::device_bytes(capacity),
            )
            .unwrap();
        sessions = SessionArrayHost::from_device_bytes(sess_bytes, SESSION_SALT);
    }

    let cache = plan_cache_stats();
    let copies = CacheSnapshot {
        hits: rows.iter().map(|r| r.copies.hits).sum(),
        misses: rows.iter().map(|r| r.copies.misses).sum(),
    };
    let launch_floor_us = launch_floor_us();
    let convergent: Vec<&KernelRow> = rows.iter().filter(|r| r.convergent()).collect();
    let min_speedup = convergent
        .iter()
        .map(|r| r.speedup())
        .fold(f64::INFINITY, f64::min);
    let mean_speedup = if convergent.is_empty() {
        f64::NAN
    } else {
        convergent.iter().map(|r| r.speedup()).sum::<f64>() / convergent.len() as f64
    };
    let mean_speedup_all = rows.iter().map(|r| r.speedup()).sum::<f64>() / rows.len() as f64;

    let mut kernels_json = Vec::new();
    for r in &rows {
        kernels_json.push(format!(
            "{{\"name\":\"{}\",\"type\":\"{}\",\"warps\":{},\"warp_instructions\":{},\
             \"lane_instructions\":{},\"simd_efficiency\":{},\"convergent\":{},\
             \"runs\":{},\"legacy_s\":{},\"plan_s\":{},\"legacy_warps_per_s\":{},\
             \"plan_warps_per_s\":{},\"plan_ops_per_s\":{},\"speedup\":{}}}",
            r.name,
            r.ty,
            r.warps,
            r.warp_instructions,
            r.lane_instructions,
            json_f(r.simd_efficiency),
            r.convergent(),
            r.runs,
            json_f(r.legacy_s),
            json_f(r.plan_s),
            json_f(r.legacy_warps_per_s()),
            json_f(r.plan_warps_per_s()),
            json_f(r.plan_ops_per_s()),
            json_f(r.speedup()),
        ));
    }
    let json = format!(
        "{{\"bench\":\"bench_kernels\",\"machine\":{},\"mode\":\"{}\",\"cohort\":{},\
         \"iters\":{},\"kernel_count\":{},\
         \"plan_cache\":{{\"hits\":{},\"misses\":{},\"hit_rate\":{}}},\
         \"wide_copy\":{{\"commits\":{},\"fallbacks\":{}}},\"launch_floor_us\":{},\
         \"convergent_kernels\":{},\"convergent_min_speedup\":{},\
         \"convergent_mean_speedup\":{},\"mean_speedup_all\":{},\"kernels\":[{}]}}",
        machine_block(),
        if args.smoke { "smoke" } else { "full" },
        args.cohort,
        args.iters,
        rows.len(),
        cache.hits,
        cache.misses,
        json_f(cache.hit_rate()),
        copies.hits,
        copies.misses,
        json_f(launch_floor_us),
        convergent.len(),
        json_f(min_speedup),
        json_f(mean_speedup),
        json_f(mean_speedup_all),
        kernels_json.join(",")
    );
    rhythm_obs::parse_json(&json).expect("result is valid JSON");
    std::fs::write(&args.out, &json).expect("write result json");

    println!(
        "bench_kernels: {} kernels, cohort {}, {} iters",
        rows.len(),
        args.cohort,
        args.iters
    );
    println!(
        "{:<22} {:>6} {:>9} {:>12} {:>12} {:>8}",
        "kernel", "eff", "warps", "legacy w/s", "plan w/s", "speedup"
    );
    for r in &rows {
        println!(
            "{:<22} {:>6.3} {:>9} {:>12.0} {:>12.0} {:>7.2}x",
            r.name,
            r.simd_efficiency,
            r.warps,
            r.legacy_warps_per_s(),
            r.plan_warps_per_s(),
            r.speedup()
        );
    }
    println!(
        "decode cache: {} hits / {} lookups ({:.1}% hit rate)",
        cache.hits,
        cache.lookups(),
        cache.hit_rate() * 100.0
    );
    println!(
        "wide copies: {} committed, {} fell back to interpretation",
        copies.hits, copies.misses
    );
    println!("launch floor: {launch_floor_us:.2} us of host time per 1-lane halt kernel");
    println!(
        "convergent kernels ({}): min speedup {:.2}x, mean {:.2}x; all {} kernels mean {:.2}x -> {}",
        convergent.len(),
        min_speedup,
        mean_speedup,
        rows.len(),
        mean_speedup_all,
        args.out
    );

    assert!(
        cache.hit_rate() > 0.5,
        "decode cache should serve repeated launches (hit rate {:.2})",
        cache.hit_rate()
    );
    assert!(!rows.is_empty(), "no kernels measured");
}
