//! The default-on static-verification gate: every banking kernel must be
//! admitted (zero `Error` findings against real cohort launch
//! environments), gating must not perturb results, and a gated device —
//! explicitly, or by a context's options — must reject a defective kernel
//! before it runs.

use std::sync::Arc;

use rhythm_banking::prelude::*;
use rhythm_obs::NoopRecorder;
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_simt::ir::ProgramBuilder;
use rhythm_simt::mem::{ConstPool, DeviceMemory};
use rhythm_simt::{ExecError, Program};
use rhythm_verify::Verifier;

const SALT: u32 = 0x5EED_0001;

/// Every lane stores its id to the same word: a lost update the verifier
/// rejects (`race-uniform-store`).
fn lost_update() -> Program {
    let mut b = ProgramBuilder::new("lost_update");
    let lane = b.lane_id();
    let addr = b.imm(0);
    b.st_global_word(addr, 0, lane);
    b.halt();
    b.build().unwrap()
}

fn run_with(verify: bool, ty: RequestType) -> (Vec<Vec<u8>>, Vec<u8>) {
    let workload = Workload::build();
    let store = BankStore::generate(256, 1);
    let opts = CohortOptions {
        session_capacity: 1024,
        session_salt: SALT,
        verify,
        ..Default::default()
    };
    let mut sessions = SessionArrayHost::new(1024, SALT);
    let mut generator = RequestGenerator::new(64, 2);
    let reqs = generator.uniform(ty, 64, &mut sessions);
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let result = run_cohort_traced(
        &workload,
        &store,
        &mut sessions,
        &reqs,
        &gpu,
        &opts,
        &NoopRecorder,
    )
    .unwrap();
    (result.responses, sessions.to_device_bytes())
}

#[test]
fn gated_cohorts_run_and_match_ungated_results() {
    for ty in [RequestType::Login, RequestType::AccountSummary] {
        let gated = run_with(true, ty);
        assert!(
            gated.0[0].starts_with(b"HTTP/1.1 200 OK"),
            "gated {ty:?} cohort must still serve"
        );
        let ungated = run_with(false, ty);
        assert_eq!(gated, ungated, "verification changed {ty:?} results");
    }
}

#[test]
fn default_options_enable_verification() {
    assert!(CohortOptions::default().verify);
}

#[test]
fn gated_device_rejects_a_defective_kernel_but_admits_banking() {
    // The same Verifier instance that admits every banking kernel must
    // reject a lost-update kernel, with no lane having run.
    let gpu = Gpu::new(GpuConfig::gtx_titan()).with_gate(Arc::new(Verifier::new()));

    let workload = Workload::build();
    let store = BankStore::generate(256, 1);
    let opts = CohortOptions {
        session_capacity: 1024,
        session_salt: SALT,
        verify: true,
        ..Default::default()
    };
    let mut sessions = SessionArrayHost::new(1024, SALT);
    let mut generator = RequestGenerator::new(64, 2);
    let reqs = generator.uniform(RequestType::Login, 32, &mut sessions);
    run_cohort_traced(
        &workload,
        &store,
        &mut sessions,
        &reqs,
        &gpu,
        &opts,
        &NoopRecorder,
    )
    .expect("banking kernels must pass the gate");

    let bad = lost_update();
    let mut mem = DeviceMemory::new(64);
    let err = gpu
        .launch(
            &bad,
            &LaunchConfig::new(32, []),
            &mut mem,
            &ConstPool::new(),
            &NoopRecorder,
        )
        .unwrap_err();
    let ExecError::Rejected(r) = err else {
        panic!("expected rejection, got {err:?}");
    };
    assert_eq!(r.rule, "race-uniform-store");
    assert!(
        mem.as_bytes().iter().all(|&x| x == 0),
        "no lane may have run"
    );
}

/// A context resolves `verify` into its device itself: over an ungated
/// device, default options reject a Login cohort whose last stage is the
/// lost-update kernel before that kernel runs, and put back the sessions
/// the earlier stages inserted; with `verify: false` the same cohort runs
/// the kernel.
#[test]
fn context_gates_an_ungated_device_by_its_options() {
    let ty = RequestType::Login;
    let mut workload = Workload::build();
    workload.stages[ty.id() as usize].push(lost_update());
    let store = BankStore::generate(256, 1);
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let gated = CohortOptions::default();
    let mut sessions = SessionArrayHost::new(gated.session_capacity, gated.session_salt);
    let reqs = RequestGenerator::new(64, 2).uniform(ty, 32, &mut sessions);

    let mut ctx = DeviceContext::new(&store, &sessions, &gpu, &gated);
    let before = ctx.session_bytes().to_vec();
    let err = ctx
        .run_cohort(&workload, &store, &reqs, &NoopRecorder)
        .unwrap_err();
    let ExecError::Rejected(r) = err else {
        panic!("expected rejection, got {err:?}");
    };
    assert_eq!(r.program, "lost_update");
    assert_eq!(ctx.session_bytes(), &before[..], "session writes undone");

    let ungated = CohortOptions {
        verify: false,
        ..gated
    };
    let mut ctx = DeviceContext::new(&store, &sessions, &gpu, &ungated);
    let result = ctx
        .run_cohort(&workload, &store, &reqs, &NoopRecorder)
        .expect("an ungated context runs the stage");
    assert_eq!(result.launches.last().unwrap().0, "lost_update");
}
