//! End-to-end launch gating: a [`Verifier`]-gated [`Gpu`] rejects defective
//! kernels with a structured diagnostic *before* any lane executes, admits
//! clean kernels, and admits repeats through the fingerprint cache.

use std::sync::Arc;

use rhythm_obs::NoopRecorder;
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_simt::ir::{BinOp, Program, ProgramBuilder};
use rhythm_simt::mem::{ConstPool, DeviceMemory};
use rhythm_simt::ExecError;
use rhythm_verify::Verifier;

fn gated_gpu() -> Gpu {
    Gpu::new(GpuConfig::gtx_titan()).with_gate(Arc::new(Verifier::new()))
}

fn lost_update_kernel() -> Program {
    let mut b = ProgramBuilder::new("lost_update");
    let lane = b.lane_id();
    let addr = b.imm(0);
    b.st_global_word(addr, 0, lane);
    b.halt();
    b.build().unwrap()
}

fn oob_kernel() -> Program {
    let mut b = ProgramBuilder::new("oob");
    let gid = b.global_id();
    let four = b.imm(4);
    let addr = b.bin(BinOp::Mul, gid, four);
    b.st_global_word(addr, 4, gid); // lane N-1 straddles the end
    b.halt();
    b.build().unwrap()
}

fn clean_kernel() -> Program {
    let mut b = ProgramBuilder::new("clean");
    let gid = b.global_id();
    let four = b.imm(4);
    let addr = b.bin(BinOp::Mul, gid, four);
    let v = b.ld_global_word(addr, 0);
    let one = b.imm(1);
    let v1 = b.bin(BinOp::Add, v, one);
    b.st_global_word(addr, 0, v1);
    b.halt();
    b.build().unwrap()
}

#[test]
fn raced_kernel_is_rejected_before_execution() {
    let gpu = gated_gpu();
    let mut mem = DeviceMemory::new(256);
    let err = gpu
        .launch(
            &lost_update_kernel(),
            &LaunchConfig::new(32, []),
            &mut mem,
            &ConstPool::new(),
            &NoopRecorder,
        )
        .unwrap_err();
    let ExecError::Rejected(r) = err else {
        panic!("expected Rejected, got {err:?}");
    };
    assert_eq!(r.rule, "race-uniform-store");
    assert_eq!(r.program, "lost_update");
    assert_eq!(r.block, Some(0));
    assert!(r.message.contains("lost"), "message: {}", r.message);
    // Nothing executed: device memory still zero.
    assert!(mem.as_bytes().iter().all(|&b| b == 0));
}

#[test]
fn oob_kernel_is_rejected_with_bounds_diagnostic() {
    let gpu = gated_gpu();
    let mut mem = DeviceMemory::new(128); // exactly 32 lanes * 4 bytes
    let err = gpu
        .launch(
            &oob_kernel(),
            &LaunchConfig::new(32, []),
            &mut mem,
            &ConstPool::new(),
            &NoopRecorder,
        )
        .unwrap_err();
    let ExecError::Rejected(r) = err else {
        panic!("expected Rejected, got {err:?}");
    };
    assert_eq!(r.rule, "bounds-oob");
    assert!(mem.as_bytes().iter().all(|&b| b == 0));
}

#[test]
fn clean_kernel_is_admitted_and_cached_repeats_run() {
    let gpu = gated_gpu();
    let pool = ConstPool::new();
    let program = clean_kernel();
    let cfg = LaunchConfig::new(32, []);
    let mut mem = DeviceMemory::new(128);
    for round in 1..=3u8 {
        gpu.launch(&program, &cfg, &mut mem, &pool, &NoopRecorder)
            .expect("clean kernel must be admitted");
        for lane in 0..32usize {
            let w = u32::from_le_bytes(mem.as_bytes()[lane * 4..lane * 4 + 4].try_into().unwrap());
            assert_eq!(w, round as u32, "lane {lane} after round {round}");
        }
    }
}

#[test]
fn same_kernel_is_rejudged_when_the_launch_extent_shrinks() {
    // Admission is per (program, launch environment): the kernel that is
    // clean at 128 bytes is out of bounds at 64 bytes even after the
    // 128-byte verdict was cached.
    let gpu = gated_gpu();
    let pool = ConstPool::new();
    let program = clean_kernel();
    let cfg = LaunchConfig::new(32, []);
    let mut big = DeviceMemory::new(128);
    gpu.launch(&program, &cfg, &mut big, &pool, &NoopRecorder)
        .unwrap();
    let mut small = DeviceMemory::new(64);
    let err = gpu
        .launch(&program, &cfg, &mut small, &pool, &NoopRecorder)
        .unwrap_err();
    assert!(matches!(&err, ExecError::Rejected(r) if r.rule == "bounds-oob"));
}
