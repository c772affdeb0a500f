//! Integration tests for the device model: program serialization,
//! disassembly, timing-model algebra, and the launch API surface.

use rhythm_obs::NoopRecorder;
use rhythm_simt::exec::simt::TX_BYTES;
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_simt::ir::{BinOp, Program, ProgramBuilder};
use rhythm_simt::mem::{ConstPool, DeviceMemory};
use rhythm_simt::stats::KernelStats;

fn sample_program() -> Program {
    let mut b = ProgramBuilder::new("sample");
    let gid = b.global_id();
    let n = b.imm(8);
    let acc = b.imm(0);
    b.for_loop(n, |b, i| {
        b.bin_into(acc, BinOp::Add, acc, i);
    });
    let four = b.imm(4);
    let addr = b.bin(BinOp::Mul, gid, four);
    b.st_global_word(addr, 0, acc);
    b.halt();
    b.build().unwrap()
}

#[test]
fn disassembly_lists_every_block() {
    let p = sample_program();
    let d = p.disassemble();
    for i in 0..p.blocks().len() {
        assert!(d.contains(&format!("bb{i}:")), "missing bb{i} in\n{d}");
    }
    assert!(d.contains("kernel sample"));
    assert!(d.contains("Halt"));
}

#[test]
fn timing_model_is_monotone_in_cycles_and_bytes() {
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let mk = |cycles: u64, bytes: u64| KernelStats {
        warp_cycles: cycles,
        max_warp_cycles: cycles / 10,
        dram_bytes: bytes,
        ..Default::default()
    };
    let base = gpu.sustained_time(&mk(1_000_000, 1_000_000));
    assert!(gpu.sustained_time(&mk(2_000_000, 1_000_000)) > base);
    assert!(gpu.sustained_time(&mk(1_000_000, 1_000_000_000)) > base);
    // Isolated-launch time is at least the sustained time.
    let res = gpu.time(mk(1_000_000, 1_000_000));
    assert!(res.time_s >= base - 1e-12);
}

#[test]
fn memory_bound_flag_tracks_regime() {
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let compute_heavy = KernelStats {
        warp_cycles: 100_000_000,
        dram_bytes: 1_000,
        ..Default::default()
    };
    assert!(!gpu.time(compute_heavy).memory_bound);
    let memory_heavy = KernelStats {
        warp_cycles: 1_000,
        dram_bytes: 10_000_000_000,
        ..Default::default()
    };
    assert!(gpu.time(memory_heavy).memory_bound);
}

#[test]
fn launch_counts_128_byte_transactions() {
    // Transaction counts are the modelled device's: 128-byte segments
    // (`TX_BYTES`), whatever launch config the caller passes.
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let mut b = ProgramBuilder::new("stride64");
    let gid = b.global_id();
    let stride = b.imm(64);
    let addr = b.bin(BinOp::Mul, gid, stride);
    b.st_global_byte(addr, 0, gid);
    b.halt();
    let p = b.build().unwrap();
    let mut mem = DeviceMemory::new(64 * 32);
    let cfg = LaunchConfig::new(32, []);
    let res = gpu
        .launch(&p, &cfg, &mut mem, &ConstPool::new(), &NoopRecorder)
        .unwrap();
    // 32 lanes at stride 64 over 128-byte segments → 16 transactions.
    assert_eq!(TX_BYTES, 128);
    assert_eq!(res.stats.mem_transactions, 16);
}

#[test]
fn underfilled_launches_cost_at_least_one_warp_critical_path() {
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let p = sample_program();
    let mut mem = DeviceMemory::new(4 * 32);
    let res = gpu
        .launch(
            &p,
            &LaunchConfig::new(1, []),
            &mut mem,
            &ConstPool::new(),
            &NoopRecorder,
        )
        .unwrap();
    let expected_floor =
        res.stats.max_warp_cycles as f64 / gpu.config().clock_hz + gpu.config().launch_overhead_s;
    assert!(res.time_s >= expected_floor - 1e-12);
}
