//! A traced banking cohort: the recorder only observes, and the exported
//! trace is valid.

use rhythm_banking::prelude::*;
use rhythm_obs::{NoopRecorder, Recorder, TraceRecorder};
use rhythm_simt::gpu::{Gpu, GpuConfig};

const SALT: u32 = 0x5EED_0001;

fn run_with<R: Recorder + ?Sized>(rec: &R) -> (Vec<Vec<u8>>, String, Vec<u8>) {
    let workload = Workload::build();
    let store = BankStore::generate(256, 1);
    let opts = CohortOptions {
        session_capacity: 1024,
        session_salt: SALT,
        ..Default::default()
    };
    let mut sessions = SessionArrayHost::new(1024, SALT);
    let mut generator = RequestGenerator::new(64, 2);
    let reqs = generator.uniform(RequestType::AccountSummary, 96, &mut sessions);
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let result =
        run_cohort_traced(&workload, &store, &mut sessions, &reqs, &gpu, &opts, rec).unwrap();
    (
        result.responses,
        format!("{:?}", result.launches),
        sessions.to_device_bytes(),
    )
}

/// Attaching the recorder is purely observational: responses, launch
/// stats, and session bytes stay bit-identical to the untraced run, and
/// the exported Chrome trace is valid JSON with non-decreasing per-track
/// timestamps, one `simt:kernel` span per launch and every warp on the
/// `simt:warps` track.
#[test]
fn traced_cohort_identical_and_trace_valid() {
    let untraced = run_with(&NoopRecorder);
    assert!(untraced.0[0].starts_with(b"HTTP/1.1 200 OK"));
    let rec = TraceRecorder::new();
    let traced = run_with(&rec);
    assert_eq!(traced, untraced, "tracing changed results");
    assert!(!rec.is_empty(), "recorder captured nothing");

    let json = rec.chrome_json();
    let check = rhythm_obs::validate_chrome_trace(&json)
        .expect("exported trace must be valid Chrome JSON with monotone tracks");
    assert!(check.events > 0);
    assert!(
        check.names.iter().any(|n| n.contains("warp")),
        "per-warp SIMT spans missing from trace"
    );
    assert!(rec.histogram("warp_cycles").is_some());

    let events = rec.events();
    let on = |track: &str| events.iter().filter(|e| e.track == track).count();
    let kernels = on("simt:kernel");
    assert!(kernels > 0, "no simt:kernel span");
    assert_eq!(
        on("simt:warps"),
        3 * kernels,
        "96 lanes: three warps a launch"
    );
    assert!(
        json.contains("\"simt:warps\""),
        "warp track missing from the trace"
    );
}
