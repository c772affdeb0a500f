//! End-to-end dispatch semantics: a mixed arrival stream is parsed,
//! grouped by type into uniform cohorts (the dispatch stage's job), and
//! every cohort executes correctly — the full paper §3.2 flow on real
//! request bytes.

use std::collections::BTreeMap;

use rhythm_banking::prelude::*;
use rhythm_http::padding::eq_modulo_padding;
use rhythm_obs::NoopRecorder;
use rhythm_simt::gpu::{Gpu, GpuConfig};

const SALT: u32 = 0x5EED_0001;

fn mask_content_length(resp: &[u8]) -> Vec<u8> {
    String::from_utf8_lossy(resp)
        .lines()
        .map(|l| {
            if l.starts_with("Content-Length:") {
                "Content-Length: <masked>".to_string()
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        .into_bytes()
}

#[test]
fn mixed_stream_groups_into_correct_cohorts() {
    let workload = Workload::build();
    let store = BankStore::generate(128, 55);
    let gpu = Gpu::new(GpuConfig::gtx_titan());

    // A mixed arrival stream (Table 2 distribution).
    let mut sessions = SessionArrayHost::new(2048, SALT);
    let mut generator = RequestGenerator::new(128, 2014);
    let stream = generator.mixed(192, &mut sessions);

    // 1. Parser over the mixed cohort classifies every request.
    let opts = CohortOptions {
        session_capacity: 2048,
        ..Default::default()
    };
    let (_, parsed) = DeviceContext::new(&store, &sessions, &gpu, &opts)
        .parse(&workload, &stream)
        .unwrap();
    for (r, (ty_id, ..)) in stream.iter().zip(&parsed) {
        assert_eq!(*ty_id, r.ty.id());
    }

    // 2. Dispatch: group by type (what the dispatch stage does on the
    //    host), preserving arrival order within each group.
    let mut groups: BTreeMap<RequestType, Vec<GeneratedRequest>> = BTreeMap::new();
    for r in &stream {
        groups.entry(r.ty).or_default().push(r.clone());
    }

    // 3. Execute each uniform cohort; verify against the native handlers
    //    processing the same per-type order.
    let mut device_sessions = sessions.clone();
    let mut native_sessions = sessions.clone();
    let mut verified = 0usize;
    for (ty, cohort) in &groups {
        let result = run_cohort_traced(
            &workload,
            &store,
            &mut device_sessions,
            cohort,
            &gpu,
            &opts,
            &NoopRecorder,
        )
        .unwrap_or_else(|e| panic!("{ty}: {e}"));
        for (lane, req) in cohort.iter().enumerate() {
            let native = handle_native(&req.banking_request(), &store, &mut native_sessions);
            assert!(
                eq_modulo_padding(
                    &mask_content_length(&result.responses[lane]),
                    &mask_content_length(&native)
                ),
                "{ty} lane {lane}"
            );
            verified += 1;
        }
    }
    assert_eq!(verified, stream.len(), "every request verified once");

    // 4. Session state converges to the same population either way.
    assert_eq!(device_sessions.len(), native_sessions.len());
}

#[test]
fn per_group_order_preserves_login_token_assignment() {
    // Logins in a mixed stream must receive the same tokens on the device
    // as natively, because insertion order within the login cohort is the
    // stream order.
    let workload = Workload::build();
    let store = BankStore::generate(64, 9);
    let gpu = Gpu::new(GpuConfig::gtx_titan());

    let mut sessions = SessionArrayHost::new(1024, SALT);
    let mut generator = RequestGenerator::new(64, 31);
    let logins = generator.uniform(RequestType::Login, 48, &mut sessions);

    let opts = CohortOptions {
        session_capacity: 1024,
        ..Default::default()
    };
    let mut dev = sessions.clone();
    let result = run_cohort_traced(
        &workload,
        &store,
        &mut dev,
        &logins,
        &gpu,
        &opts,
        &NoopRecorder,
    )
    .unwrap();

    let mut nat = sessions.clone();
    for (lane, req) in logins.iter().enumerate() {
        let native = handle_native(&req.banking_request(), &store, &mut nat);
        let tok = |bytes: &[u8]| -> u32 {
            String::from_utf8_lossy(bytes)
                .lines()
                .find(|l| l.starts_with("Set-Cookie: SID="))
                .and_then(|l| l["Set-Cookie: SID=".len()..].trim().parse().ok())
                .unwrap_or(0)
        };
        assert_eq!(
            tok(&result.responses[lane]),
            tok(&native),
            "lane {lane}: token assignment must match"
        );
    }
}
