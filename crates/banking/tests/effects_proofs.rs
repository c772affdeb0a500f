//! Effect-summary proofs over the real banking workload: every kernel
//! gets a non-⊤ footprint under its production launch environment, the
//! session-writer oracle classifies exactly Login/Logout, and a batch run
//! with the footprint sanitizer checking every global access (zero
//! escapes) stays bit-identical to unsanitized cohorts run one by one,
//! with no read-only cohort touching a session byte.

use rhythm_banking::prelude::*;
use rhythm_banking::runner::CohortResult;
use rhythm_obs::NoopRecorder;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_simt::ir::MemSpace;
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

/// The launch environment the cohort runner gives a `cohort`-lane cohort
/// of `ty`: its layout and the matching `LaunchSpec`.
fn launch_env(
    workload: &Workload,
    store_bytes: u32,
    ty: RequestType,
    cohort: u32,
) -> (CohortLayout, LaunchSpec) {
    let layout = CohortLayout::new(
        cohort,
        ty.response_buffer_bytes(),
        SESSION_CAPACITY,
        SALT,
        store_bytes,
        true,
    );
    let spec = LaunchSpec {
        lanes: cohort,
        params: Some(layout.params()),
        global_bytes: Some(layout.total_bytes as u64),
        shared_bytes: Some(1024),
        local_bytes: Some(64),
        const_bytes: Some(workload.pool.len() as u64),
    };
    (layout, spec)
}

/// Does any kernel of a `cohort`-lane `ty` cohort write or atomically
/// update the session array? Inferred from the kernels' effect summaries,
/// as `kernel_lint` infers its session-writer column.
fn session_writer(workload: &Workload, store_bytes: u32, ty: RequestType, cohort: u32) -> bool {
    let (layout, spec) = launch_env(workload, store_bytes, ty, cohort);
    let regions = layout.regions();
    let (lo, hi) = layout.session_span();
    workload.cohort_steps(ty).any(|step| {
        infer_effects(step.program(), &spec, &regions).mutates(MemSpace::Global, lo, hi)
    })
}

/// Every banking kernel — parser, backend, image, and all per-type
/// stages — must infer a bounded (non-⊤) global footprint under the same
/// launch environment the cohort runner uses. A ⊤ kernel would turn the
/// sanitizer into a no-op.
#[test]
fn all_banking_kernels_infer_bounded_footprints() {
    let workload = Workload::build();
    let store_bytes = BankStore::generate(128, 77).device_bytes();
    let mut seen = std::collections::BTreeSet::new();
    for ty in RequestType::ALL {
        let (layout, spec) = launch_env(&workload, store_bytes, ty, 256);
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

/// The effect summaries classify exactly the nominal session writers:
/// Login and Logout mutate the device session array, nothing else does.
/// Both directions matter to the sanitizer's proof: a missed writer is a
/// footprint that does not cover the kernel's stores, and a spurious one
/// a footprint wider than they are.
#[test]
fn session_writer_oracle_matches_login_logout_exactly() {
    let workload = Workload::build();
    let store_bytes = BankStore::generate(128, 77).device_bytes();
    for ty in RequestType::ALL {
        let writer = session_writer(&workload, store_bytes, ty, 64);
        assert_eq!(
            writer,
            ty.is_login() || ty.is_logout(),
            "session-writer verdict for {ty:?}"
        );
    }
}

/// End to end: a mixed batch through `run_cohorts_hyperq` (one resident
/// context), with the footprint sanitizer checking every global access of
/// every kernel launch, is bit-identical to `run_cohort_traced` called back
/// to back — same responses, same launches with the same stats, same final
/// session state, zero footprint escapes. Under the same sanitizer, every
/// cohort the proofs call read-only leaves the session array untouched.
#[test]
fn sanitized_batch_matches_serial_bit_for_bit() {
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
    let mut batch_sessions = sessions.clone();
    let results = run_cohorts_hyperq(
        &workload,
        &store,
        &mut batch_sessions,
        &cohorts,
        &gpu,
        &sanitized,
    );
    for (i, (reference, result)) in serial.iter().zip(&results).enumerate() {
        let result = result
            .as_ref()
            .unwrap_or_else(|e| panic!("cohort {i}: sanitized batch run failed: {e}"));
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
        batch_sessions.to_device_bytes(),
        "final session state"
    );

    // What a read-only verdict promises: the cohort leaves every session
    // byte of the resident context as it found it.
    let store_bytes = store.device_bytes();
    let mut ctx = DeviceContext::new(&store, &sessions, &gpu, &sanitized);
    let mut read_only = 0;
    for (i, c) in cohorts.iter().enumerate() {
        let (ty, n) = (c[0].ty, c.len() as u32);
        let writer = session_writer(&workload, store_bytes, ty, n);
        let before = ctx.session_bytes().to_vec();
        ctx.run_cohort(&workload, &store, c, &NoopRecorder)
            .unwrap_or_else(|e| panic!("cohort {i}: sanitized run failed: {e}"));
        if !writer {
            assert!(
                ctx.session_bytes() == before,
                "read-only cohort {i} ({ty:?}) changed the session array"
            );
            read_only += 1;
        }
    }
    assert_eq!(read_only, 5, "every cohort but Login and Logout");
}
