//! Exact accounting for the decode-plan cache and the warp arena.
//!
//! These assertions need sole ownership of the process-global counters
//! (`plan_cache_stats`, `warp_arena_stats`), so they live in one stateful
//! integration test: integration tests get their own process, and a single
//! `#[test]` fn serializes every counter-sensitive step.

use std::sync::Arc;

use rhythm_obs::NoopRecorder;
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_simt::ir::{BinOp, ProgramBuilder};
use rhythm_simt::mem::{ConstPool, DeviceMemory};
use rhythm_simt::{plan_cache_stats, plan_for, warp_arena_stats};

fn kernel(name: &str) -> rhythm_simt::Program {
    let mut b = ProgramBuilder::new(name);
    let g = b.global_id();
    let three = b.imm(3);
    let n = b.bin(BinOp::RemU, g, three);
    let acc = b.imm(0);
    b.for_loop(n, |b, i| {
        b.bin_into(acc, BinOp::Add, acc, i);
    });
    let four = b.imm(4);
    let addr = b.bin(BinOp::Mul, g, four);
    b.st_global_word(addr, 0, acc);
    b.halt();
    b.build().unwrap()
}

#[test]
fn plan_cache_and_warp_arena_exact_accounting() {
    let p = kernel("accounting_kernel");
    let lanes = 256u32; // 8 warps
    let cfg = LaunchConfig::new(lanes, []);
    let pool = ConstPool::new();

    // --- Plan cache: first fetch decodes, every later fetch hits. ---
    let c0 = plan_cache_stats();
    let plan_a = plan_for(&p);
    let c1 = plan_cache_stats().since(&c0);
    assert_eq!((c1.hits, c1.misses), (0, 1), "first fetch is the only miss");

    let plan_b = plan_for(&p);
    assert!(Arc::ptr_eq(&plan_a, &plan_b), "refetch shares the plan");
    let c2 = plan_cache_stats().since(&c0);
    assert_eq!((c2.hits, c2.misses), (1, 1));
    assert!(c2.hit_rate() > 0.49 && c2.hit_rate() < 0.51);

    // --- Launching through a Gpu uses the same cache (no re-decode). ---
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let mut mem = DeviceMemory::new(lanes as usize * 4);
    gpu.launch(&p, &cfg, &mut mem, &pool, &NoopRecorder)
        .unwrap();
    let c3 = plan_cache_stats().since(&c0);
    assert_eq!(c3.misses, 1, "launch must not decode again");
    assert_eq!(c3.hits, 2);

    // --- Warp arena: steady state allocates nothing. ---
    // One warm-up launch grows a pooled context to this kernel's buffer
    // sizes.
    let mut mem3 = DeviceMemory::new(lanes as usize * 4);
    gpu.launch(&p, &cfg, &mut mem3, &pool, &NoopRecorder)
        .unwrap();

    let a0 = warp_arena_stats();
    let mut results = Vec::new();
    for _ in 0..5 {
        let mut m = DeviceMemory::new(lanes as usize * 4);
        let r = gpu.launch(&p, &cfg, &mut m, &pool, &NoopRecorder).unwrap();
        results.push((r, m));
    }
    let steady = warp_arena_stats().since(&a0);
    assert_eq!(
        steady.acquired, 5,
        "a launch of 8 warps checks out exactly one warp context"
    );
    assert_eq!(
        steady.allocated, 0,
        "steady-state cached launches must run allocation-free \
         (every warp context recycled from the arena)"
    );
    assert_eq!(steady.reused, steady.acquired);
    assert!((steady.reuse_rate() - 1.0).abs() < 1e-12);

    // And the recycled contexts still produce bit-identical results.
    for (r, m) in &results {
        assert_eq!(r, &results[0].0);
        assert_eq!(m.as_bytes(), results[0].1.as_bytes());
    }
    assert_eq!(mem3.as_bytes(), mem.as_bytes());
}
