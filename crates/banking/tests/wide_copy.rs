//! Static page fragments never leave the executor's wide-copy path.
//!
//! The dynamic half reads the process-wide [`wide_copy_stats`] counters,
//! so this file holds one test and nothing else runs kernels beside it.

use rhythm_banking::prelude::*;
use rhythm_banking::templates::{page_spec, Action, RowAction};
use rhythm_obs::NoopRecorder;
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_simt::ir::{BinOp, MemSpace, Op, Program, ProgramBuilder, Width};
use rhythm_simt::mem::{ConstPool, DeviceMemory};
use rhythm_simt::{execute_simt_legacy, wide_copy_stats, ExecPlan};

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
        run_cohort_traced(
            &workload,
            &store,
            &mut s,
            &cohort,
            &gpu,
            &opts,
            &NoopRecorder,
        )
        .expect("cohort runs")
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

    // Commits and fallbacks share a unit, one per loop entered: copy loops
    // whose length differs across a warp's lanes cannot commit, and read
    // one fallback per loop per warp, not one per interpreted byte.
    let (loops, lanes) = (3u32, 64u32);
    let mut pool = ConstPool::new();
    let ragged = ragged_copy_kernel(&mut pool, loops, lanes);
    let cfg = LaunchConfig::new(lanes, []);
    let size = (lanes * loops * 32) as usize;
    let mut mem_legacy = DeviceMemory::new(size);
    let legacy = execute_simt_legacy(&ragged, &cfg, &mut mem_legacy, &pool).expect("legacy runs");
    let before = wide_copy_stats();
    let mut mem = DeviceMemory::new(size);
    let res = gpu
        .launch(&ragged, &cfg, &mut mem, &pool, &NoopRecorder)
        .expect("ragged copies run");
    let ragged_delta = wide_copy_stats().since(&before);
    assert_eq!(res.stats, legacy);
    assert!(
        mem.as_bytes() == mem_legacy.as_bytes(),
        "fallback memory diverged"
    );
    assert_eq!(
        (ragged_delta.hits, ragged_delta.misses),
        (0, (loops * cfg.warps()) as u64)
    );
}

/// `loops` copy loops of the shape [`ProgramBuilder::write_const_str`]
/// emits, into a transposed buffer of `lanes` slots, except that odd lanes
/// copy one byte more than even ones. Every header visit under the full
/// mask sees two lengths, so the wide copy declines; once the even lanes
/// leave, the odd lanes have nothing left to copy.
fn ragged_copy_kernel(pool: &mut ConstPool, loops: u32, lanes: u32) -> Program {
    let (off, len) = pool.intern_str("HTTP/1.1 200 OK\r\n");
    let mut b = ProgramBuilder::new("ragged_copy");
    let base = b.imm(0);
    let gid = b.global_id();
    let ls = b.imm(1);
    let es = b.imm(lanes);
    let cur = b.cursor(base, gid, ls, es);
    let two = b.imm(2);
    let odd = b.bin(BinOp::RemU, gid, two);
    let short = b.imm(len - 1);
    let n = b.bin(BinOp::Add, short, odd);
    let src = b.imm(off);
    for _ in 0..loops {
        b.for_loop(n, |b, i| {
            let a = b.bin(BinOp::Add, src, i);
            let ch = b.ld_const_byte(a, 0);
            b.cursor_write_byte(&cur, ch);
        });
    }
    b.halt();
    b.build().expect("ragged copy kernel builds")
}
