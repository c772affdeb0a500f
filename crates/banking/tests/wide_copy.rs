//! Static page fragments never leave the executor's wide-copy path.
//!
//! The dynamic half reads the process-wide [`wide_copy_stats`] counters,
//! so this file holds one test and nothing else runs kernels beside it.

use rhythm_banking::prelude::*;
use rhythm_banking::templates::{page_spec, Action, RowAction};
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_simt::ir::{MemSpace, Op, Width};
use rhythm_simt::{wide_copy_stats, ExecPlan};

#[test]
fn static_fragments_are_annotated_and_always_commit() {
    let workload = Workload::build();

    // Decode time: a kernel reads a constant-pool byte only inside a
    // `write_const_str` loop, and every one of those loops in every
    // response kernel is recognized as a wide copy.
    for ty in RequestType::ALL {
        let kernel = workload.response_stage(ty);
        let const_loops = kernel
            .blocks()
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|op| {
                matches!(
                    op,
                    Op::Ld {
                        width: Width::Byte,
                        space: MemSpace::Const,
                        ..
                    }
                )
            })
            .count();
        assert!(const_loops > 0, "{ty}: response kernel copies no template");
        assert_eq!(
            ExecPlan::build(kernel).num_wide_copies(),
            const_loops,
            "{ty}: a write_const_str loop is not annotated"
        );
    }

    // Run time: a full-warp account_summary cohort whose members hold
    // different numbers of accounts, so every fragment after the table is
    // copied from diverged cursors. Warm (second run of the same cohort),
    // each static action commits at least once and nothing falls back.
    let store = BankStore::generate(128, 77);
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let ty = RequestType::AccountSummary;
    let mut sessions = SessionArrayHost::new(1024, 0x5EED_0001);
    let cohort = RequestGenerator::new(128, 5).uniform(ty, 32, &mut sessions);
    let accounts: std::collections::BTreeSet<usize> = cohort
        .iter()
        .map(|r| store.user(r.params[0]).expect("user").accounts.len())
        .collect();
    assert!(
        accounts.len() >= 2,
        "cohort must mix row counts: {accounts:?}"
    );

    let opts = CohortOptions {
        session_capacity: 1024,
        ..CohortOptions::default()
    };
    let run = || {
        let mut s = sessions.clone();
        run_cohort(&workload, &store, &mut s, &cohort, &gpu, &opts).expect("cohort runs")
    };
    let cold = run();
    let before = wide_copy_stats();
    let warm = run();
    let delta = wide_copy_stats().since(&before);
    assert_eq!(warm.responses, cold.responses);

    let static_actions: usize = page_spec(ty)
        .actions
        .iter()
        .map(|a| match a {
            Action::Static(_) => 1,
            Action::Rows { body, .. } => body
                .iter()
                .filter(|r| matches!(r, RowAction::Static(_)))
                .count(),
            _ => 0,
        })
        .sum();
    assert!(static_actions > 0);
    assert!(
        delta.hits >= static_actions as u64,
        "{} commits for {static_actions} static actions",
        delta.hits
    );
    assert_eq!(delta.misses, 0, "a static fragment was interpreted");

    // Commits and fallbacks share a unit, one per loop entered: on a
    // device whose transaction size is not a power of two no copy can
    // commit, and the same cohort reads as many fallbacks as it read
    // commits above, not one per interpreted byte.
    let odd_gpu = Gpu::new(GpuConfig {
        tx_bytes: 96,
        ..GpuConfig::gtx_titan()
    });
    let before = wide_copy_stats();
    let mut s = sessions.clone();
    let odd = run_cohort(&workload, &store, &mut s, &cohort, &odd_gpu, &opts).expect("cohort runs");
    let odd_delta = wide_copy_stats().since(&before);
    assert_eq!(odd.responses, cold.responses);
    assert_eq!((odd_delta.hits, odd_delta.misses), (0, delta.hits));
}
