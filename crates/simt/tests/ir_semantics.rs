//! Pin the IR doc-comment contracts to actual executor behavior, so the
//! docs in `ir/mod.rs` cannot silently drift from `exec/`:
//!
//! * `Shl`/`Shr` take shift amounts modulo 32 (not saturate, not trap).
//! * `DivU` by zero yields `u32::MAX`; `RemU` by zero yields the dividend.
//! * `Width::Byte` loads zero-extend and stores write the low byte only.
//! * `WarpRedMax` reduces over the *active* lanes of the warp, broadcasts
//!   to those lanes, is the identity on the scalar executor, and costs
//!   `log2(warp) = 5` warp issues.
//! * `AtomicAdd` returns the old value, with same-address lanes
//!   serialized in lane order.

use rhythm_obs::NoopRecorder;
use rhythm_simt::exec::scalar::{execute_scalar, ScalarRun};
use rhythm_simt::exec::simt::execute_simt;
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::ir::{BinOp, MemSpace, Program, ProgramBuilder};
use rhythm_simt::mem::{ConstPool, DeviceMemory};

fn run(p: &Program, lanes: u32, bytes: usize) -> DeviceMemory {
    let mut mem = DeviceMemory::new(bytes);
    execute_simt(
        p,
        &LaunchConfig::new(lanes, []),
        &mut mem,
        &ConstPool::new(),
        1,
        &NoopRecorder,
    )
    .unwrap();
    mem
}

fn word(mem: &DeviceMemory, addr: usize) -> u32 {
    u32::from_le_bytes(mem.as_bytes()[addr..addr + 4].try_into().unwrap())
}

#[test]
fn shifts_take_amount_modulo_32_in_the_executor() {
    let mut b = ProgramBuilder::new("shifts");
    let one = b.imm(1);
    let thirty_three = b.imm(33);
    let l = b.bin(BinOp::Shl, one, thirty_three); // 1 << (33 % 32) == 2
    let four = b.imm(4);
    let r = b.bin(BinOp::Shr, four, thirty_three); // 4 >> 1 == 2
    let a0 = b.imm(0);
    b.st_global_word(a0, 0, l);
    b.st_global_word(a0, 4, r);
    b.halt();
    let mem = run(&b.build().unwrap(), 1, 8);
    assert_eq!(word(&mem, 0), 2);
    assert_eq!(word(&mem, 4), 2);
}

#[test]
fn division_by_zero_follows_gpu_semantics_in_the_executor() {
    let mut b = ProgramBuilder::new("divzero");
    let seven = b.imm(7);
    let zero = b.imm(0);
    let q = b.bin(BinOp::DivU, seven, zero); // u32::MAX, no trap
    let r = b.bin(BinOp::RemU, seven, zero); // the dividend
    let a0 = b.imm(0);
    b.st_global_word(a0, 0, q);
    b.st_global_word(a0, 4, r);
    b.halt();
    let mem = run(&b.build().unwrap(), 1, 8);
    assert_eq!(word(&mem, 0), u32::MAX);
    assert_eq!(word(&mem, 4), 7);
}

#[test]
fn byte_accesses_zero_extend_loads_and_truncate_stores() {
    let mut b = ProgramBuilder::new("bytes");
    let v = b.imm(0x1234_56FE);
    let a0 = b.imm(0);
    b.st_global_byte(a0, 0, v); // only 0xFE lands
    let back = b.ld_global_byte(a0, 0); // 0x0000_00FE, high bits zero
    b.st_global_word(a0, 4, back);
    b.halt();
    let mem = run(&b.build().unwrap(), 1, 8);
    assert_eq!(mem.as_bytes()[0], 0xFE);
    assert_eq!(&mem.as_bytes()[1..4], &[0, 0, 0], "store is one byte wide");
    assert_eq!(word(&mem, 4), 0xFE, "load zero-extends");
}

#[test]
fn warp_red_max_reduces_over_active_lanes_only() {
    // Odd lanes branch into the reduction; even lanes are masked off.
    // Active lanes see max(lane | odd) = 31; inactive slots stay zero.
    let mut b = ProgramBuilder::new("active_max");
    let lane = b.lane_id();
    let one = b.imm(1);
    let odd = b.bin(BinOp::And, lane, one);
    b.if_then(odd, |b| {
        let m = b.warp_red_max(lane);
        let four = b.imm(4);
        let addr = b.bin(BinOp::Mul, lane, four);
        b.st_global_word(addr, 0, m);
    });
    b.halt();
    let mem = run(&b.build().unwrap(), 32, 128);
    for lane in 0..32usize {
        let expect = if lane % 2 == 1 { 31 } else { 0 };
        assert_eq!(word(&mem, lane * 4), expect, "lane {lane}");
    }
}

#[test]
fn warp_red_max_is_identity_on_the_scalar_executor() {
    let mut b = ProgramBuilder::new("scalar_identity");
    let gid = b.global_id();
    let three = b.imm(3);
    let v = b.bin(BinOp::Mul, gid, three);
    let m = b.warp_red_max(v);
    let four = b.imm(4);
    let addr = b.bin(BinOp::Mul, gid, four);
    b.st_global_word(addr, 0, m);
    b.halt();
    let p = b.build().unwrap();

    let pool = ConstPool::new();
    let mut mem = DeviceMemory::new(128);
    let cfg = LaunchConfig::new(1, []);
    for id in 0..32 {
        execute_scalar(&ScalarRun::new(&p, id), &cfg, &mut mem, &pool, None).unwrap();
    }
    // Identity: each lane keeps its own value, nobody sees the max.
    for lane in 0..32usize {
        assert_eq!(word(&mem, lane * 4), lane as u32 * 3, "lane {lane}");
    }
}

#[test]
fn warp_red_max_costs_five_warp_issues() {
    let build = |reduce: bool| {
        let mut b = ProgramBuilder::new("cost");
        let lane = b.lane_id();
        let v = if reduce {
            b.warp_red_max(lane)
        } else {
            let z = b.imm(0);
            b.bin(BinOp::Or, lane, z)
        };
        let four = b.imm(4);
        let addr = b.bin(BinOp::Mul, lane, four);
        b.st_global_word(addr, 0, v);
        b.halt();
        b.build().unwrap()
    };
    let stats = |p: &Program| {
        let mut mem = DeviceMemory::new(128);
        execute_simt(
            p,
            &LaunchConfig::new(32, []),
            &mut mem,
            &ConstPool::new(),
            1,
            &NoopRecorder,
        )
        .unwrap()
    };
    let with = stats(&build(true));
    let without = stats(&build(false));
    // Doc contract: log2(32) = 5 issues total for the butterfly, i.e. 4
    // beyond the single issue any op costs (the baseline uses Or+Imm, so
    // subtract that extra Imm issue).
    assert_eq!(
        with.warp_instructions,
        without.warp_instructions - 1 + 4,
        "WarpRedMax should cost 5 warp issues where a plain ALU op costs 1"
    );
}

#[test]
fn atomic_add_serializes_same_address_lanes_in_lane_order() {
    // Every lane adds (lane+1) to one counter and records the old value
    // it observed. Serialization in lane order makes the old values the
    // exact prefix sums — any other interleaving would break some lane.
    let mut b = ProgramBuilder::new("prefix");
    let lane = b.lane_id();
    let one = b.imm(1);
    let inc = b.bin(BinOp::Add, lane, one);
    let counter = b.imm(0);
    let old = b.atomic_add(MemSpace::Global, counter, 0, inc);
    let four = b.imm(4);
    let slot = b.bin(BinOp::Mul, lane, four);
    b.st_global_word(slot, 4, old);
    b.halt();
    let mem = run(&b.build().unwrap(), 32, 4 + 128);

    let mut prefix = 0u32;
    for lane in 0..32u32 {
        assert_eq!(
            word(&mem, 4 + lane as usize * 4),
            prefix,
            "lane {lane} old value"
        );
        prefix += lane + 1;
    }
    assert_eq!(word(&mem, 0), prefix, "counter holds the full sum");
}
