//! The warp worker pool is a simulation-speed knob only: a banking
//! cohort must produce bit-identical responses, launch results (stats
//! and modelled times), and session state at every worker count.

use rhythm_banking::prelude::*;
use rhythm_obs::{Recorder, TraceRecorder};
use rhythm_simt::gpu::{Gpu, GpuConfig};

const SALT: u32 = 0x5EED_0001;

fn run_with(workers: u32) -> (Vec<Vec<u8>>, String, Vec<u8>) {
    run_traced_with(workers, &rhythm_obs::NoopRecorder)
}

fn run_traced_with<R: Recorder + ?Sized>(workers: u32, rec: &R) -> (Vec<Vec<u8>>, String, Vec<u8>) {
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
    let gpu = Gpu::new(GpuConfig::gtx_titan().with_workers(workers));
    let result =
        run_cohort_traced(&workload, &store, &mut sessions, &reqs, &gpu, &opts, rec).unwrap();
    (
        result.responses,
        format!("{:?}", result.launches),
        sessions.to_device_bytes(),
    )
}

#[test]
fn cohort_identical_across_worker_counts() {
    let base = run_with(1);
    assert!(base.0[0].starts_with(b"HTTP/1.1 200 OK"));
    for workers in [2, 4, 0] {
        let run = run_with(workers);
        assert_eq!(run.0, base.0, "responses differ at workers={workers}");
        assert_eq!(run.1, base.1, "launch stats differ at workers={workers}");
        assert_eq!(run.2, base.2, "sessions differ at workers={workers}");
    }
}

/// Attaching the recorder is purely observational: responses, launch
/// stats, and session bytes stay bit-identical to the untraced run at
/// every worker count, and the exported Chrome trace is valid JSON with
/// non-decreasing per-track timestamps.
#[test]
fn traced_cohort_identical_and_trace_valid() {
    let untraced = run_with(1);
    for workers in [1, 2, 4] {
        let rec = TraceRecorder::new();
        let traced = run_traced_with(workers, &rec);
        assert_eq!(
            traced, untraced,
            "tracing changed results at workers={workers}"
        );
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
    }
}

#[test]
fn parser_only_identical_across_worker_counts() {
    let workload = Workload::build();
    let run_with = |workers: u32| {
        let opts = CohortOptions {
            session_capacity: 1024,
            session_salt: SALT,
            ..Default::default()
        };
        let mut sessions = SessionArrayHost::new(1024, SALT);
        let mut generator = RequestGenerator::new(64, 5);
        let reqs = generator.mixed(128, &mut sessions);
        let gpu = Gpu::new(GpuConfig::gtx_titan().with_workers(workers));
        let (res, parsed) = run_parser_only(&workload, &reqs, &gpu, &opts).unwrap();
        (format!("{res:?}"), parsed)
    };
    let base = run_with(1);
    for workers in [2, 4] {
        assert_eq!(run_with(workers), base, "workers={workers}");
    }
}

/// A Login cohort wider than one warp claims session slots by
/// cross-warp `AtomicAdd` probing. On a table small enough that inserts
/// collide, which warp reaches a slot first would decide who gets which
/// token — so a launch whose plan holds a global atomic runs its warps
/// in order on one worker, whatever the device's worker count. Repeated
/// because a race only shows up on some schedules.
#[test]
fn colliding_login_cohort_is_identical_at_any_device_worker_count() {
    const SLOTS: u32 = 256;
    let workload = Workload::build();
    let store = BankStore::generate(256, 1);
    let run = |device_workers: u32| {
        let opts = CohortOptions {
            session_capacity: SLOTS,
            session_salt: SALT,
            ..Default::default()
        };
        let mut sessions = SessionArrayHost::new(SLOTS, SALT);
        let mut generator = RequestGenerator::new(128, 9);
        let reqs = generator.uniform(RequestType::Login, 96, &mut sessions);
        let gpu = Gpu::new(GpuConfig::gtx_titan().with_workers(device_workers));
        let result = run_cohort(&workload, &store, &mut sessions, &reqs, &gpu, &opts).unwrap();
        (result.responses, sessions.to_device_bytes())
    };
    let serial = run(1);
    assert!(serial.0[0].starts_with(b"HTTP/1.1 200 OK"));
    for device_workers in [2, 0] {
        for round in 0..50 {
            assert!(
                run(device_workers) == serial,
                "device workers={device_workers}, round {round}: login cohort differs from the serial run"
            );
        }
    }
}
