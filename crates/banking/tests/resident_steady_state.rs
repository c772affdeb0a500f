//! Steady state of the resident device context, by counts: once every
//! cohort shape has been seen, running them again grows neither the
//! context's device allocation nor the warp arena.
//!
//! Alone in its file — the warp arena's counters are process-wide, and
//! tests of one file share a process.

use rhythm_banking::prelude::*;
use rhythm_obs::NoopRecorder;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_simt::warp_arena_stats;

#[test]
fn second_pass_allocates_nothing() {
    const CAPACITY: u32 = 4096;
    let workload = Workload::build();
    let store = BankStore::generate(128, 77);
    let opts = CohortOptions {
        session_capacity: CAPACITY,
        ..CohortOptions::default()
    };
    let gpu = Gpu::new(GpuConfig::gtx_titan());

    let mut generator = RequestGenerator::new(128, 9);
    let mut sessions = SessionArrayHost::new(CAPACITY, opts.session_salt);
    let cohorts: Vec<_> = RequestType::ALL
        .iter()
        .flat_map(|&ty| [1usize, 7, 32].map(|n| (ty, n)))
        .map(|(ty, n)| generator.uniform(ty, n, &mut sessions))
        .collect();

    let mut ctx = DeviceContext::new(&store, &sessions, &gpu, &opts);
    let pass = |ctx: &mut DeviceContext| {
        for reqs in &cohorts {
            ctx.run_cohort(&workload, &store, reqs, &NoopRecorder)
                .expect("cohort runs");
        }
    };
    pass(&mut ctx);
    let (capacity, arena) = (ctx.memory_capacity(), warp_arena_stats());
    pass(&mut ctx);
    assert_eq!(ctx.memory_capacity(), capacity, "device allocation grew");
    let arena = warp_arena_stats().since(&arena);
    assert_eq!(arena.allocated, 0, "warp arena allocated again");
    assert!(arena.reused > 0);
}
