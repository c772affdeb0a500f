//! Tests for the scalar (CPU-model) single-request runner.

use rhythm_banking::prelude::*;
use rhythm_http::padding::eq_modulo_padding;
use rhythm_obs::NoopRecorder;

const SALT: u32 = 0x5EED_0001;

#[test]
fn scalar_matches_native_exactly() {
    let workload = Workload::build();
    let store = BankStore::generate(64, 3);
    for ty in RequestType::ALL {
        let mut sessions = SessionArrayHost::new(256, SALT);
        let mut generator = RequestGenerator::new(64, ty.id() as u64 + 40);
        let req = generator.one(ty, &mut sessions);

        let mut native_sessions = sessions.clone();
        let native = handle_native(&req.banking_request(), &store, &mut native_sessions);

        let mut scalar_sessions = sessions.clone();
        let result =
            run_request_scalar(&workload, &store, &mut scalar_sessions, &req, false).unwrap();

        // A cohort of one gets no padding, so equality is exact.
        assert_eq!(
            result.response,
            native,
            "{ty}: scalar vs native\n--scalar--\n{}\n--native--\n{}",
            String::from_utf8_lossy(&result.response[..result.response.len().min(400)]),
            String::from_utf8_lossy(&native[..native.len().min(400)])
        );
        assert_eq!(scalar_sessions.len(), native_sessions.len());
        assert!(result.stats.instructions > 1000, "{ty}: counted work");
    }
}

#[test]
fn instruction_counts_track_response_size() {
    let workload = Workload::build();
    let store = BankStore::generate(64, 3);
    let count = |ty: RequestType| -> f64 {
        let mut sessions = SessionArrayHost::new(256, SALT);
        let mut generator = RequestGenerator::new(64, 99);
        let mut total = 0u64;
        let n = 5;
        for _ in 0..n {
            let req = generator.one(ty, &mut sessions);
            let r = run_request_scalar(&workload, &store, &mut sessions, &req, false).unwrap();
            total += r.stats.instructions;
        }
        total as f64 / n as f64
    };
    let login = count(RequestType::Login); // 4 KB page
    let logout = count(RequestType::Logout); // 46 KB page
    assert!(
        logout > 5.0 * login,
        "logout ({logout}) should dwarf login ({login}), roughly with page size"
    );
}

#[test]
fn traces_are_captured_and_similar_across_requests() {
    let workload = Workload::build();
    let store = BankStore::generate(64, 3);
    let mut sessions = SessionArrayHost::new(256, SALT);
    let mut generator = RequestGenerator::new(64, 7);
    let mut traces = Vec::new();
    for _ in 0..3 {
        let req = generator.one(RequestType::Transfer, &mut sessions);
        let r = run_request_scalar(&workload, &store, &mut sessions, &req, true).unwrap();
        let t = r.trace.expect("trace requested");
        assert_eq!(t.len() as u64, r.stats.blocks, "trace length = blocks");
        traces.push(t);
    }
    let (merged, rep) = rhythm_trace::merge_traces(&traces, 20_000);
    assert!(rep.exact);
    assert!(merged.len() >= traces.iter().map(Vec::len).max().unwrap());
    assert!(
        rep.relative_to_ideal() > 0.7,
        "same-type requests are highly similar: {}",
        rep.relative_to_ideal()
    );
}

#[test]
fn scalar_equals_cohort_modulo_padding() {
    use rhythm_simt::gpu::{Gpu, GpuConfig};
    let workload = Workload::build();
    let store = BankStore::generate(64, 3);
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let ty = RequestType::Profile;

    let mut sessions = SessionArrayHost::new(1024, SALT);
    let mut generator = RequestGenerator::new(64, 21);
    let cohort = generator.uniform(ty, 32, &mut sessions);

    let mut s1 = sessions.clone();
    let opts = CohortOptions {
        session_capacity: 1024,
        ..Default::default()
    };
    let simt = run_cohort_traced(
        &workload,
        &store,
        &mut s1,
        &cohort,
        &gpu,
        &opts,
        &NoopRecorder,
    )
    .unwrap();

    let mut s2 = sessions.clone();
    let scalar = run_request_scalar(&workload, &store, &mut s2, &cohort[0], false).unwrap();

    // Mask the content-length digits (padding changes the kernel's) and
    // compare lane 0.
    let strip = |b: &[u8]| {
        String::from_utf8_lossy(b)
            .lines()
            .filter(|l| !l.starts_with("Content-Length:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(eq_modulo_padding(
        strip(&simt.responses[0]).as_bytes(),
        strip(&scalar.response).as_bytes()
    ));
}
