//! Workspace-level integration tests: the full stack from raw HTTP bytes
//! through the SIMT kernels, the pipeline, and the platform models.

use rhythm_banking::prelude::*;
use rhythm_core::pipeline::{Pipeline, PipelineConfig};
use rhythm_core::service::TableService;
use rhythm_obs::NoopRecorder;
use rhythm_platform::presets::{CpuPreset, TitanPlatform, TitanPreset};
use rhythm_simt::gpu::{Gpu, GpuConfig};

const SALT: u32 = 0x5EED_0001;

/// The whole device path agrees with the whole host path, end to end,
/// starting from raw HTTP text.
#[test]
fn raw_http_to_padded_responses() {
    let workload = Workload::build();
    let store = BankStore::generate(64, 21);
    let gpu = Gpu::new(GpuConfig::gtx_titan());

    let mut sessions = SessionArrayHost::new(512, SALT);
    let mut generator = RequestGenerator::new(64, 9);
    let cohort = generator.uniform(RequestType::CheckDetailHtml, 32, &mut sessions);

    // Raw bytes parse identically with the host HTTP substrate.
    for r in &cohort {
        let parsed = rhythm_http::HttpRequest::parse(&r.raw).expect("valid http");
        assert_eq!(parsed.file_name(), r.ty.file_name());
    }

    let opts = CohortOptions {
        session_capacity: 512,
        ..Default::default()
    };
    let mut s = sessions.clone();
    let result = run_cohort_traced(
        &workload,
        &store,
        &mut s,
        &cohort,
        &gpu,
        &opts,
        &NoopRecorder,
    )
    .unwrap();
    for (lane, resp) in result.responses.iter().enumerate() {
        assert!(
            resp.starts_with(b"HTTP/1.1 200 OK"),
            "lane {lane}: {}",
            String::from_utf8_lossy(&resp[..40.min(resp.len())])
        );
    }
}

/// Measured kernel stats drive the platform model and produce a sane
/// design-space ordering: the GPU path beats the i7 on throughput.
#[test]
fn measured_stats_flow_into_platform_model() {
    let workload = Workload::build();
    let store = BankStore::generate(64, 3);
    let gpu = Gpu::new(GpuConfig::gtx_titan());

    let mut sessions = SessionArrayHost::new(1024, SALT);
    let mut generator = RequestGenerator::new(64, 5);
    let ty = RequestType::Login;
    let cohort = generator.uniform(ty, 256, &mut sessions);

    let opts = CohortOptions {
        session_capacity: 1024,
        ..Default::default()
    };
    let mut s = sessions.clone();
    let result = run_cohort_traced(
        &workload,
        &store,
        &mut s,
        &cohort,
        &gpu,
        &opts,
        &NoopRecorder,
    )
    .unwrap();
    let device_time: f64 = result
        .launches
        .iter()
        .map(|(_, l)| gpu.sustained_time(&l.stats))
        .sum();
    let gpu_tput = 256.0 / device_time;

    // The i7 at the paper's calibration, on this type's instruction count.
    let mut s2 = sessions.clone();
    let scalar = DeviceContext::new(&store, &sessions, &gpu, &opts)
        .run_request_scalar(&workload, &store, &mut s2, &cohort[0])
        .unwrap();
    let i7 = CpuPreset::i7_8w();
    // Unit conversion: IR instructions are denser than the paper's x86.
    let x86_equiv = scalar.instructions as f64 * 429_563.0 / 195_000.0;
    let i7_tput = i7.throughput(x86_equiv);

    assert!(
        gpu_tput > 2.0 * i7_tput,
        "cohort execution should beat the i7: gpu {gpu_tput:.0} vs i7 {i7_tput:.0}"
    );
}

/// The pipeline, the cohort FSM and the event queue cooperate: every
/// request injected completes exactly once, under every configuration.
#[test]
fn pipeline_conservation_across_configs() {
    for (cohort, slots, pool) in [(16u32, 1u32, 2u32), (64, 32, 8), (256, 4, 3)] {
        let config = PipelineConfig {
            cohort_size: cohort,
            read_batch: cohort,
            formation_timeout_s: 2e-3,
            reader_timeout_s: 1e-3,
            pool_contexts: pool,
            device_slots: slots,
        };
        let p = Pipeline::new(TableService::uniform(3, 2), config);
        let arrivals: Vec<(f64, u32)> = (0..1000)
            .map(|i| (i as f64 * 1e-6, (i % 3) as u32))
            .collect();
        let r = p.run(&arrivals, &NoopRecorder);
        assert_eq!(
            r.completed, 1000,
            "cohort={cohort} slots={slots} pool={pool}"
        );
        assert_eq!(r.latency.count, 1000);
        assert!(r.latency.max >= r.latency.mean);
    }
}

/// Paper Table 3 invariants hold for the calibrated presets.
#[test]
fn preset_sanity() {
    let i7 = CpuPreset::i7_8w();
    let a9 = CpuPreset::a9_2w();
    assert!(i7.paper_tput / a9.paper_tput > 20.0);
    assert!(a9.wall_w < 5.0);
    for t in [TitanPlatform::A, TitanPlatform::B, TitanPlatform::C] {
        let p = TitanPreset::of(t);
        assert_eq!(p.idle_w, 74.0);
        assert!(p.wall_w > p.idle_w);
    }
}

/// Sessions created on the device are visible to the native handlers and
/// vice versa — the two implementations share one session algorithm.
#[test]
fn sessions_interoperate_between_device_and_native() {
    let workload = Workload::build();
    let store = BankStore::generate(64, 8);
    let gpu = Gpu::new(GpuConfig::gtx_titan());

    // Log in on the device.
    let mut sessions = SessionArrayHost::new(512, SALT);
    let mut generator = RequestGenerator::new(64, 77);
    let logins = generator.uniform(RequestType::Login, 32, &mut sessions);
    let opts = CohortOptions {
        session_capacity: 512,
        ..Default::default()
    };
    let result = run_cohort_traced(
        &workload,
        &store,
        &mut sessions,
        &logins,
        &gpu,
        &opts,
        &NoopRecorder,
    )
    .unwrap();
    assert_eq!(sessions.len(), 32);

    // Use one of the device-created tokens with the native handler.
    let text = String::from_utf8_lossy(&result.responses[0]);
    let token: u32 = text
        .lines()
        .find(|l| l.starts_with("Set-Cookie: SID="))
        .unwrap()["Set-Cookie: SID=".len()..]
        .trim()
        .parse()
        .unwrap();
    let userid = sessions
        .lookup(token)
        .expect("device session valid on host");
    let req = BankingRequest::new(RequestType::Profile, token, [userid, 0, 0, 0]);
    let resp = handle_native(&req, &store, &mut sessions);
    assert!(resp.starts_with(b"HTTP/1.1 200 OK"));
}
