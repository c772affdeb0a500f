//! Effect-summary proofs over the real banking workload: every kernel
//! gets a non-⊤ footprint under its production launch environment, the
//! session-writer oracle classifies exactly Login/Logout, the shared
//! stream planner groups from those proofs, and the HyperQ path stays
//! bit-identical to serial execution with the footprint sanitizer
//! checking every global access (zero escapes).

use rhythm_banking::prelude::*;
use rhythm_banking::runner::CohortResult;
use rhythm_obs::NoopRecorder;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_verify::effects::infer_effects;
use rhythm_verify::LaunchSpec;

const SALT: u32 = 0x5EED_0001;
const SESSION_CAPACITY: u32 = 1024;

fn harness() -> (Workload, BankStore, Gpu) {
    (
        Workload::build(),
        BankStore::generate(128, 77),
        Gpu::new(GpuConfig::gtx_titan()),
    )
}

fn opts() -> CohortOptions {
    CohortOptions {
        session_capacity: SESSION_CAPACITY,
        session_salt: SALT,
        ..CohortOptions::default()
    }
}

/// Every banking kernel — parser, backend, image, and all per-type
/// stages — must infer a bounded (non-⊤) global footprint under the same
/// launch environment the cohort runner uses. A ⊤ kernel would turn the
/// sanitizer into a no-op and the HyperQ planner maximally conservative.
#[test]
fn all_banking_kernels_infer_bounded_footprints() {
    let workload = Workload::build();
    let store_bytes = BankStore::generate(128, 77).serialize_device().len() as u32;
    let mut seen = std::collections::BTreeSet::new();
    for ty in RequestType::ALL {
        let layout = CohortLayout::new(
            256,
            ty.response_buffer_bytes(),
            SESSION_CAPACITY,
            SALT,
            store_bytes,
            true,
        );
        let spec = LaunchSpec {
            lanes: 256,
            params: Some(layout.params()),
            global_bytes: Some(layout.total_bytes as u64),
            shared_bytes: Some(1024),
            local_bytes: Some(64),
            const_bytes: Some(workload.pool.len() as u64),
        };
        let regions = layout.regions();
        let programs = [&workload.parser, &workload.backend, &workload.image]
            .into_iter()
            .chain(workload.stages_of(ty).iter());
        for program in programs {
            let fx = infer_effects(program, &spec, &regions);
            assert!(
                !fx.is_top_anywhere(),
                "{} infers a ⊤ footprint for {ty:?}",
                program.name()
            );
            seen.insert(program.name().to_string());
        }
    }
    assert_eq!(seen.len(), 30, "expected the full 30-kernel workload");
}

/// The effect oracle classifies exactly the nominal session writers:
/// Login and Logout mutate the device session array, nothing else does.
/// This is the proof `plan_stream_groups` schedules from, so both
/// directions matter — a missed writer is a race, a spurious writer
/// serializes the batch.
#[test]
fn session_writer_oracle_matches_login_logout_exactly() {
    let workload = Workload::build();
    let store_bytes = BankStore::generate(128, 77).serialize_device().len() as u32;
    let opts = opts();
    for ty in RequestType::ALL {
        let writer = cohort_writes_sessions(&workload, store_bytes, ty, 64, &opts);
        assert_eq!(
            writer,
            ty.is_login() || ty.is_logout(),
            "session-writer verdict for {ty:?}"
        );
    }
}

/// The shared planner coalesces proven-read-only neighbours into maximal
/// concurrent groups, isolates proven writers as singleton barriers, and
/// degrades every cohort to serial when the options can't stream.
#[test]
fn stream_planner_groups_from_proofs() {
    let workload = Workload::build();
    let store_bytes = BankStore::generate(128, 77).serialize_device().len() as u32;
    let opts = opts();
    let shapes = [
        (RequestType::Login, 16),
        (RequestType::Transfer, 32),
        (RequestType::AccountSummary, 16),
        (RequestType::Logout, 8),
        (RequestType::Transfer, 8),
        (RequestType::BillPay, 8),
    ];
    let groups = plan_stream_groups(&workload, store_bytes, &shapes, &opts);
    let expect = |start, end, concurrent| StreamGroup {
        start,
        end,
        concurrent,
    };
    assert_eq!(
        groups,
        vec![
            expect(0, 1, false),
            expect(1, 3, true),
            expect(3, 4, false),
            expect(4, 6, true),
        ]
    );

    // Host-backend runs interleave host work between kernels, which
    // streams cannot express: everything becomes a serial singleton.
    let host_opts = CohortOptions {
        backend: BackendMode::Host,
        ..opts
    };
    let host_groups = plan_stream_groups(&workload, store_bytes, &shapes, &host_opts);
    assert_eq!(host_groups.len(), shapes.len());
    assert!(host_groups.iter().all(|g| !g.concurrent && g.len() == 1));
}

/// End to end: a mixed batch through the proof-scheduled HyperQ path,
/// with the footprint sanitizer checking every global access of every
/// kernel launch, is bit-identical to serial `run_cohort_traced` execution —
/// same responses, same launches with the same stats, same final session
/// state, zero footprint escapes.
#[test]
fn hyperq_with_sanitizer_matches_serial_bit_for_bit() {
    let (workload, store, gpu) = harness();
    let mut sessions = SessionArrayHost::new(SESSION_CAPACITY, SALT);
    let mut generator = RequestGenerator::new(128, 23);
    let cohorts: Vec<Vec<GeneratedRequest>> = vec![
        generator.uniform(RequestType::Transfer, 32, &mut sessions),
        generator.uniform(RequestType::AccountSummary, 16, &mut sessions),
        generator.uniform(RequestType::Login, 16, &mut sessions),
        generator.uniform(RequestType::BillPay, 16, &mut sessions),
        generator.uniform(RequestType::Transfer, 16, &mut sessions),
        generator.uniform(RequestType::Logout, 8, &mut sessions),
        generator.uniform(RequestType::AccountSummary, 8, &mut sessions),
    ];

    let base = opts();
    let mut serial_sessions = sessions.clone();
    let serial: Vec<CohortResult> = cohorts
        .iter()
        .map(|c| {
            run_cohort_traced(
                &workload,
                &store,
                &mut serial_sessions,
                c,
                &gpu,
                &base,
                &NoopRecorder,
            )
            .unwrap()
        })
        .collect();

    let sanitized = CohortOptions {
        sanitize: true,
        ..base
    };
    let mut hyperq_sessions = sessions.clone();
    let results = run_cohorts_hyperq(
        &workload,
        &store,
        &mut hyperq_sessions,
        &cohorts,
        &gpu,
        &sanitized,
    );
    for (i, (reference, result)) in serial.iter().zip(&results).enumerate() {
        let result = result
            .as_ref()
            .unwrap_or_else(|e| panic!("cohort {i}: sanitized HyperQ run failed: {e}"));
        assert_eq!(
            reference.responses, result.responses,
            "cohort {i} responses"
        );
        // Both paths run the one kernel sequence: same launches, in the
        // same order, with the same stats.
        assert_eq!(
            reference.launches.len(),
            result.launches.len(),
            "cohort {i}"
        );
        for ((ref_name, ref_launch), (name, launch)) in
            reference.launches.iter().zip(&result.launches)
        {
            assert_eq!(ref_name, name, "cohort {i} launch order");
            assert_eq!(ref_launch.stats, launch.stats, "cohort {i} {name} stats");
        }
    }
    assert_eq!(
        serial_sessions.to_device_bytes(),
        hyperq_sessions.to_device_bytes(),
        "final session state"
    );
}
