//! Random lint-clean kernel corpus for differential testing.
//!
//! [`build_kernel`] turns a seed plus a step recipe into a structured
//! kernel that is memory-safe and race-free *by construction*: every lane
//! mutates a private accumulator (arithmetic, parity branches, short
//! counted loops) and finally stores it to its own global word. That makes
//! the corpus doubly useful:
//!
//! * the analyzer property tests assert these kernels lint clean (the gate
//!   never rejects a constructively safe program), and
//! * executor differential tests run them lane by lane and in lockstep on
//!   the legacy engine and on the pre-decoded engine, asserting
//!   bit-identical memory and stats.
//!
//! The recipe bytes map to step kinds via `step % 6`, so any byte vector —
//! e.g. one drawn by proptest — is a valid recipe.

use rhythm_simt::ir::{BinOp, Program, ProgramBuilder, Reg};

/// Build a random structured kernel over per-lane slots: `steps.len()`
/// accumulator mutations chosen by [`apply_step`], ending with a store of
/// the accumulator to the lane's own word (`global[gid * 4]`).
///
/// Launch it with at least `lanes * 4` bytes of global memory and no
/// params.
pub fn build_kernel(seed: u32, steps: &[u8]) -> Program {
    let mut b = ProgramBuilder::new("random_clean");
    let gid = b.global_id();
    let four = b.imm(4);
    let addr = b.bin(BinOp::Mul, gid, four);
    let acc = b.reg();
    let s = b.imm(seed | 1);
    b.bin_into(acc, BinOp::Mul, gid, s);
    for &step in steps {
        apply_step(&mut b, acc, step);
    }
    b.st_global_word(addr, 0, acc);
    b.halt();
    b.build().expect("builder emits valid programs")
}

/// Append one accumulator mutation chosen by `step % 6`: add/multiply a
/// constant, a parity-guarded xor (`if_then`), a parity-selected
/// multiply-or-add (`if_then_else`), a short counted loop, or a
/// shift-and-xor mix.
pub fn apply_step(b: &mut ProgramBuilder, acc: Reg, step: u8) {
    match step % 6 {
        0 => {
            let c = b.imm(0x9E37_79B9);
            b.bin_into(acc, BinOp::Add, acc, c);
        }
        1 => {
            let c = b.imm((step as u32).wrapping_mul(2654435761) | 1);
            b.bin_into(acc, BinOp::Mul, acc, c);
        }
        2 => {
            let one = b.imm(1);
            let parity = b.bin(BinOp::And, acc, one);
            b.if_then(parity, |b| {
                let c = b.imm(0x5bd1);
                b.bin_into(acc, BinOp::Xor, acc, c);
            });
        }
        3 => {
            let one = b.imm(1);
            let parity = b.bin(BinOp::And, acc, one);
            b.if_then_else(
                parity,
                |b| {
                    let c = b.imm(3);
                    b.bin_into(acc, BinOp::Mul, acc, c);
                },
                |b| {
                    let c = b.imm(7);
                    b.bin_into(acc, BinOp::Add, acc, c);
                },
            );
        }
        4 => {
            let n = b.imm((step as u32 % 3) + 1);
            b.for_loop(n, |b, i| {
                b.bin_into(acc, BinOp::Add, acc, i);
            });
        }
        _ => {
            let sh = b.imm(step as u32 % 31);
            let rot = b.bin(BinOp::Shl, acc, sh);
            b.bin_into(acc, BinOp::Xor, acc, rot);
        }
    }
}

/// Effect-inference firing kernel: a store whose address is exactly
/// lane-affine (`global[gid * stride + offset]`), so its summary is a
/// single exact strided region `[offset, offset + stride·(lanes-1) + 4)`.
pub fn strided_writer(name: &str, stride: u32, offset: u32) -> Program {
    let mut b = ProgramBuilder::new(name);
    let gid = b.global_id();
    let s = b.imm(stride);
    let scaled = b.bin(BinOp::Mul, gid, s);
    let v = b.imm(0xC0FF_EE00 | offset);
    b.st_global_word(scaled, offset, v);
    b.halt();
    b.build().expect("builder emits valid programs")
}

/// Effect-inference near-miss kernel: the stored-to address is *loaded*
/// from memory (`global[global[gid * 4]] = gid`), so no static bound
/// exists. Without a declared-region anchor or a known global extent the
/// write footprint is forced to ⊤; with an anchor it degrades to a
/// claimed (sanitizer-checked) region instead.
pub fn data_dependent_writer() -> Program {
    let mut b = ProgramBuilder::new("data_dependent_writer");
    let gid = b.global_id();
    let four = b.imm(4);
    let slot = b.bin(BinOp::Mul, gid, four);
    let target = b.ld_global_word(slot, 0);
    b.st_global_word(target, 0, gid);
    b.halt();
    b.build().expect("builder emits valid programs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_step_kind_builds() {
        // One kernel exercising all six step kinds, plus divergent shapes.
        let p = build_kernel(42, &[0, 1, 2, 3, 4, 5]);
        assert!(p.blocks().len() > 1, "branches and loops add blocks");
        assert_eq!(p.name(), "random_clean");
    }

    #[test]
    fn recipes_are_deterministic() {
        let a = build_kernel(7, &[9, 8, 7]);
        let b = build_kernel(7, &[9, 8, 7]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = build_kernel(8, &[9, 8, 7]);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
