//! No served cohort asks the OS for the core count: a cohort is at most
//! one warp, and one unit of work runs serially whatever `workers` says.
//!
//! Reads the process-wide [`auto_worker_resolutions`] counter, so this
//! file holds one test and nothing else launches kernels beside it.

use rhythm_banking::prelude::*;
use rhythm_obs::NoopRecorder;
use rhythm_simt::auto_worker_resolutions;
use rhythm_simt::gpu::{Gpu, GpuConfig};

#[test]
fn cohorts_of_every_type_resolve_no_worker_count() {
    const CAPACITY: u32 = 4096;
    let workload = Workload::build();
    let store = BankStore::generate(128, 77);
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    assert_eq!(
        gpu.config().workers,
        0,
        "the default is one worker per core"
    );

    let opts = CohortOptions {
        session_capacity: CAPACITY,
        ..CohortOptions::default()
    };
    let mut sessions = SessionArrayHost::new(CAPACITY, opts.session_salt);
    let mut generator = RequestGenerator::new(128, 9);
    let cohorts: Vec<_> = RequestType::ALL
        .into_iter()
        .flat_map(|ty| [1, 5, 32].map(|n| (ty, n)))
        .map(|(ty, n)| generator.uniform(ty, n, &mut sessions))
        .collect();
    let mut ctx = DeviceContext::new(&store, &sessions, &opts);

    let before = auto_worker_resolutions();
    for reqs in &cohorts {
        ctx.run_cohort(&workload, &store, reqs, &gpu, &NoopRecorder)
            .expect("cohort runs");
    }
    assert_eq!(
        auto_worker_resolutions(),
        before,
        "a cohort launch asked for the core count"
    );
}
