//! The Rhythm kernel intermediate representation (IR).
//!
//! Server request handlers are written once in this small, explicit IR and
//! then executed by two interpreters:
//!
//! * [`crate::exec::scalar`] — one lane at a time, modelling a general
//!   purpose CPU core and emitting dynamic basic-block traces, and
//! * [`crate::exec::simt`] — a warp of 32 lanes in lockstep, modelling a
//!   GPU-style accelerator with a divergence stack and a memory-coalescing
//!   transaction model.
//!
//! The IR is deliberately low level: all loops and string operations are
//! expressed as explicit basic blocks so that dynamic instruction counts,
//! control divergence, and memory access patterns are *measured* rather than
//! assumed.
//!
//! # Example
//!
//! ```
//! use rhythm_simt::ir::{ProgramBuilder, BinOp};
//!
//! // A kernel that writes `lane_id * 2` into global memory word `lane_id`.
//! let mut b = ProgramBuilder::new("double_lane");
//! let lane = b.global_id();
//! let two = b.imm(2);
//! let v = b.bin(BinOp::Mul, lane, two);
//! let four = b.imm(4);
//! let addr = b.bin(BinOp::Mul, lane, four);
//! b.st_global_word(addr, 0, v);
//! b.halt();
//! let program = b.build().expect("valid program");
//! assert_eq!(program.name(), "double_lane");
//! ```

mod builder;
mod dom;
mod program;

pub use builder::{BufCursor, BuildError, ProgramBuilder};
pub use dom::{immediate_post_dominators, CfgInfo, EXIT_BLOCK};
pub use program::{Block, Program, ValidateError};

use serde::{Deserialize, Serialize};

/// Identifier of a basic block within a [`Program`].
pub type BlockId = u32;

/// A virtual register, local to one lane.
///
/// Registers hold 32-bit unsigned words — the native device word of the
/// simulated accelerator. Address arithmetic, comparisons (producing 0/1)
/// and character data all flow through `Reg`s.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Reg(pub u16);

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Memory spaces visible to a kernel, mirroring the CUDA memory hierarchy.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum MemSpace {
    /// Device DRAM, shared by all lanes. Accesses are analysed for
    /// coalescing: the warp's lane addresses are grouped into aligned
    /// segments and each distinct segment costs one memory transaction.
    Global,
    /// Per-warp scratchpad (CUDA "shared"). No coalescing cost.
    Shared,
    /// Read-only broadcast memory (CUDA "constant"). A warp read where all
    /// active lanes hit the same address costs one cycle; divergent
    /// addresses serialize.
    Const,
    /// Per-lane private memory (CUDA "local"). Modelled as interleaved, so
    /// accesses are always coalesced.
    Local,
}

impl MemSpace {
    /// All memory spaces, in declaration order.
    pub const ALL: [MemSpace; 4] = [
        MemSpace::Global,
        MemSpace::Shared,
        MemSpace::Const,
        MemSpace::Local,
    ];
}

/// Access width for loads and stores.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Width {
    /// One byte; loads zero-extend, stores write the value's low byte.
    Byte,
    /// Four bytes, little endian. Addresses need not be aligned (the
    /// simulator allows it) but aligned access coalesces better.
    Word,
}

impl Width {
    /// Size of the access in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            Width::Byte => 1,
            Width::Word => 4,
        }
    }
}

/// Two-operand ALU operations.
///
/// Comparison operators produce `1` for true and `0` for false. All
/// arithmetic is unsigned 32-bit with wrap-around, matching the device
/// word model.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[allow(missing_docs)] // variants are the standard ALU operations
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Unsigned division. Division by zero yields `u32::MAX` (the simulator
    /// does not trap, mirroring GPU semantics).
    DivU,
    /// Unsigned remainder. Remainder by zero yields the dividend.
    RemU,
    And,
    Or,
    Xor,
    /// Logical shift left; shift amounts are taken modulo 32.
    Shl,
    /// Logical shift right; shift amounts are taken modulo 32.
    Shr,
    Min,
    Max,
    Eq,
    Ne,
    LtU,
    LeU,
    GtU,
    GeU,
}

impl BinOp {
    /// Evaluate the operation on two device words.
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::DivU => a.checked_div(b).unwrap_or(u32::MAX),
            BinOp::RemU => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b),
            BinOp::Shr => a.wrapping_shr(b),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
            BinOp::Eq => (a == b) as u32,
            BinOp::Ne => (a != b) as u32,
            BinOp::LtU => (a < b) as u32,
            BinOp::LeU => (a <= b) as u32,
            BinOp::GtU => (a > b) as u32,
            BinOp::GeU => (a >= b) as u32,
        }
    }
}

/// Single-operand ALU operations.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum UnOp {
    /// Bitwise complement.
    Not,
    /// `1` if the operand is zero, else `0`.
    IsZero,
}

impl UnOp {
    /// Evaluate the operation on a device word.
    pub fn eval(self, a: u32) -> u32 {
        match self {
            UnOp::Not => !a,
            UnOp::IsZero => (a == 0) as u32,
        }
    }
}

/// A straight-line IR instruction (everything except control flow).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[allow(missing_docs)] // field names are self-describing
pub enum Op {
    /// `dst = value`
    Imm { dst: Reg, value: u32 },
    /// `dst = src`
    Mov { dst: Reg, src: Reg },
    /// `dst = a <op> b`
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst = <op> a`
    Un { op: UnOp, dst: Reg, a: Reg },
    /// `dst = space[addr + offset]`
    Ld {
        width: Width,
        space: MemSpace,
        dst: Reg,
        addr: Reg,
        offset: u32,
    },
    /// `space[addr + offset] = src`
    St {
        width: Width,
        space: MemSpace,
        src: Reg,
        addr: Reg,
        offset: u32,
    },
    /// `dst = lane index within the warp` (0 for the scalar executor).
    LaneId { dst: Reg },
    /// `dst = global lane index within the launch` (the request slot).
    GlobalId { dst: Reg },
    /// `dst = launch parameter[index]`, broadcast to all lanes.
    Param { dst: Reg, index: u16 },
    /// Butterfly max-reduction across the active lanes of the warp:
    /// every active lane receives `max(src)` over active lanes. The scalar
    /// executor treats this as identity. Costs `log2(warp)` = 5 steps.
    WarpRedMax { dst: Reg, src: Reg },
    /// Atomic fetch-and-add on memory; `dst` receives the old value.
    /// Lanes hitting the same address serialize.
    AtomicAdd {
        dst: Reg,
        space: MemSpace,
        addr: Reg,
        offset: u32,
        src: Reg,
    },
}

impl Op {
    /// The destination register written by this op, if any.
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            Op::Imm { dst, .. }
            | Op::Mov { dst, .. }
            | Op::Bin { dst, .. }
            | Op::Un { dst, .. }
            | Op::Ld { dst, .. }
            | Op::LaneId { dst }
            | Op::GlobalId { dst }
            | Op::Param { dst, .. }
            | Op::WarpRedMax { dst, .. }
            | Op::AtomicAdd { dst, .. } => Some(dst),
            Op::St { .. } => None,
        }
    }

    /// Registers read by this op.
    pub fn sources(&self) -> Vec<Reg> {
        match *self {
            Op::Imm { .. } | Op::LaneId { .. } | Op::GlobalId { .. } | Op::Param { .. } => {
                Vec::new()
            }
            Op::Mov { src, .. } => vec![src],
            Op::Bin { a, b, .. } => vec![a, b],
            Op::Un { a, .. } => vec![a],
            Op::Ld { addr, .. } => vec![addr],
            Op::St { addr, src, .. } => vec![addr, src],
            Op::WarpRedMax { src, .. } => vec![src],
            Op::AtomicAdd { addr, src, .. } => vec![addr, src],
        }
    }
}

/// Block terminator: every basic block ends in exactly one of these.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[allow(missing_docs)] // field names are self-describing
pub enum Terminator {
    /// Unconditional jump.
    Jmp(BlockId),
    /// Conditional branch: nonzero `cond` goes to `then_bb`.
    Br {
        cond: Reg,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// The lane finishes kernel execution.
    Halt,
}

impl Terminator {
    /// Successor block ids (empty for [`Terminator::Halt`]).
    pub fn successors(&self) -> Vec<BlockId> {
        match *self {
            Terminator::Jmp(t) => vec![t],
            Terminator::Br {
                then_bb, else_bb, ..
            } => vec![then_bb, else_bb],
            Terminator::Halt => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_basic() {
        assert_eq!(BinOp::Add.eval(2, 3), 5);
        assert_eq!(BinOp::Sub.eval(2, 3), u32::MAX);
        assert_eq!(BinOp::Mul.eval(1 << 31, 2), 0);
        assert_eq!(BinOp::DivU.eval(7, 2), 3);
        assert_eq!(BinOp::DivU.eval(7, 0), u32::MAX);
        assert_eq!(BinOp::RemU.eval(7, 0), 7);
        assert_eq!(BinOp::Min.eval(4, 9), 4);
        assert_eq!(BinOp::Max.eval(4, 9), 9);
    }

    #[test]
    fn binop_eval_compare() {
        assert_eq!(BinOp::Eq.eval(5, 5), 1);
        assert_eq!(BinOp::Ne.eval(5, 5), 0);
        assert_eq!(BinOp::LtU.eval(1, 2), 1);
        assert_eq!(BinOp::LeU.eval(2, 2), 1);
        assert_eq!(BinOp::GtU.eval(3, 2), 1);
        assert_eq!(BinOp::GeU.eval(1, 2), 0);
    }

    #[test]
    fn binop_shift_wraps_amount() {
        assert_eq!(BinOp::Shl.eval(1, 33), 2);
        assert_eq!(BinOp::Shr.eval(4, 33), 2);
    }

    #[test]
    fn unop_eval() {
        assert_eq!(UnOp::Not.eval(0), u32::MAX);
        assert_eq!(UnOp::IsZero.eval(0), 1);
        assert_eq!(UnOp::IsZero.eval(7), 0);
    }

    #[test]
    fn op_dst_and_sources() {
        let op = Op::Bin {
            op: BinOp::Add,
            dst: Reg(3),
            a: Reg(1),
            b: Reg(2),
        };
        assert_eq!(op.dst(), Some(Reg(3)));
        assert_eq!(op.sources(), vec![Reg(1), Reg(2)]);
        let st = Op::St {
            width: Width::Byte,
            space: MemSpace::Global,
            src: Reg(4),
            addr: Reg(5),
            offset: 1,
        };
        assert_eq!(st.dst(), None);
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Jmp(4).successors(), vec![4]);
        assert_eq!(
            Terminator::Br {
                cond: Reg(0),
                then_bb: 1,
                else_bb: 2
            }
            .successors(),
            vec![1, 2]
        );
        assert!(Terminator::Halt.successors().is_empty());
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::Byte.bytes(), 1);
        assert_eq!(Width::Word.bytes(), 4);
    }
}
