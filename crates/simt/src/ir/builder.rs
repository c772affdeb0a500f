//! Assembler/builder for kernel [`Program`]s.
//!
//! [`ProgramBuilder`] provides register allocation, block management,
//! structured control flow (`if_then`, `while_loop`, counted loops), and a
//! small standard library of string/data routines (byte copies, decimal
//! conversion, hashing) that the banking workload kernels are written with.
//!
//! All library routines expand to explicit IR loops, so dynamic instruction
//! counts and divergence are measured, never estimated.

use super::{
    BinOp, Block, BlockId, MemSpace, Op, Program, Reg, Terminator, UnOp, ValidateError, Width,
};
use std::fmt;

/// Error building a [`Program`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BuildError {
    /// A block was created but never given a terminator.
    Unterminated(BlockId),
    /// The assembled program failed structural validation.
    Invalid(ValidateError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Unterminated(b) => write!(f, "block {b} has no terminator"),
            BuildError::Invalid(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ValidateError> for BuildError {
    fn from(e: ValidateError) -> Self {
        BuildError::Invalid(e)
    }
}

struct OpenBlock {
    label: Option<String>,
    ops: Vec<Op>,
    term: Option<Terminator>,
}

/// A write cursor over a cohort-strided output buffer.
///
/// Response buffers are 2-D arrays `[lane][offset]` that can be laid out
/// row-major (each request's buffer contiguous) or transposed/column-major
/// (lane buffers interleaved so that warp writes coalesce). The cursor
/// abstracts the address computation:
///
/// ```text
/// addr = base + lane_term + pos * elem_stride
/// ```
///
/// where `lane_term = lane * lane_stride` is computed once at kernel start.
/// Row-major layout uses `elem_stride = 1`, `lane_stride = buffer_size`;
/// transposed layout uses `elem_stride = cohort_size`, `lane_stride = 1`.
/// Both layouts execute the *same* instruction sequence, so layout changes
/// affect only the memory system — exactly the paper's experiment.
#[derive(Copy, Clone, Debug)]
pub struct BufCursor {
    /// Base address of the 2-D buffer in global memory.
    pub base: Reg,
    /// Current element offset (`pos`); advanced by writes.
    pub pos: Reg,
    /// Stride between consecutive elements of one lane's stream.
    pub elem_stride: Reg,
    /// Precomputed `lane * lane_stride`.
    pub lane_term: Reg,
}

/// Builder for kernel programs. See the module-level documentation.
pub struct ProgramBuilder {
    name: String,
    blocks: Vec<OpenBlock>,
    current: BlockId,
    next_reg: u16,
}

impl ProgramBuilder {
    /// Start a new program with an open entry block.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            blocks: vec![OpenBlock {
                label: Some("entry".into()),
                ops: Vec::new(),
                term: None,
            }],
            current: 0,
            next_reg: 0,
        }
    }

    /// Allocate a fresh virtual register.
    pub fn reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg = self
            .next_reg
            .checked_add(1)
            .expect("register file exhausted");
        r
    }

    /// Create a new (empty, unterminated) block and return its id.
    pub fn new_block(&mut self, label: impl Into<String>) -> BlockId {
        self.blocks.push(OpenBlock {
            label: Some(label.into()),
            ops: Vec::new(),
            term: None,
        });
        (self.blocks.len() - 1) as BlockId
    }

    /// Make `block` the current insertion point.
    ///
    /// # Panics
    ///
    /// Panics if the block does not exist or is already terminated.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(
            (block as usize) < self.blocks.len(),
            "switch_to: no such block {block}"
        );
        assert!(
            self.blocks[block as usize].term.is_none(),
            "switch_to: block {block} already terminated"
        );
        self.current = block;
    }

    fn push(&mut self, op: Op) {
        let cur = self.current as usize;
        assert!(
            self.blocks[cur].term.is_none(),
            "emitting into terminated block {cur}"
        );
        self.blocks[cur].ops.push(op);
    }

    fn terminate(&mut self, term: Terminator) {
        let cur = self.current as usize;
        assert!(
            self.blocks[cur].term.is_none(),
            "block {cur} already terminated"
        );
        self.blocks[cur].term = Some(term);
    }

    // ---- straight-line emission ------------------------------------------

    /// `dst = value` into a fresh register.
    pub fn imm(&mut self, value: u32) -> Reg {
        let dst = self.reg();
        self.push(Op::Imm { dst, value });
        dst
    }

    /// `dst = value` into an existing register.
    pub fn imm_into(&mut self, dst: Reg, value: u32) {
        self.push(Op::Imm { dst, value });
    }

    /// `dst = src`.
    pub fn mov(&mut self, dst: Reg, src: Reg) {
        self.push(Op::Mov { dst, src });
    }

    /// Fresh register = `a <op> b`.
    pub fn bin(&mut self, op: BinOp, a: Reg, b: Reg) -> Reg {
        let dst = self.reg();
        self.push(Op::Bin { op, dst, a, b });
        dst
    }

    /// `dst = a <op> b` into an existing register.
    pub fn bin_into(&mut self, dst: Reg, op: BinOp, a: Reg, b: Reg) {
        self.push(Op::Bin { op, dst, a, b });
    }

    /// Fresh register = `<op> a`.
    pub fn un(&mut self, op: UnOp, a: Reg) -> Reg {
        let dst = self.reg();
        self.push(Op::Un { op, dst, a });
        dst
    }

    /// Fresh register = lane id within the warp.
    pub fn lane_id(&mut self) -> Reg {
        let dst = self.reg();
        self.push(Op::LaneId { dst });
        dst
    }

    /// Fresh register = global lane (request slot) index.
    pub fn global_id(&mut self) -> Reg {
        let dst = self.reg();
        self.push(Op::GlobalId { dst });
        dst
    }

    /// Fresh register = launch parameter `index`.
    pub fn param(&mut self, index: u16) -> Reg {
        let dst = self.reg();
        self.push(Op::Param { dst, index });
        dst
    }

    /// Generic load.
    pub fn ld(&mut self, width: Width, space: MemSpace, addr: Reg, offset: u32) -> Reg {
        let dst = self.reg();
        self.push(Op::Ld {
            width,
            space,
            dst,
            addr,
            offset,
        });
        dst
    }

    /// Generic store.
    pub fn st(&mut self, width: Width, space: MemSpace, addr: Reg, offset: u32, src: Reg) {
        self.push(Op::St {
            width,
            space,
            src,
            addr,
            offset,
        });
    }

    /// Load a byte from global memory.
    pub fn ld_global_byte(&mut self, addr: Reg, offset: u32) -> Reg {
        self.ld(Width::Byte, MemSpace::Global, addr, offset)
    }

    /// Store a byte to global memory.
    pub fn st_global_byte(&mut self, addr: Reg, offset: u32, src: Reg) {
        self.st(Width::Byte, MemSpace::Global, addr, offset, src)
    }

    /// Load a word from global memory.
    pub fn ld_global_word(&mut self, addr: Reg, offset: u32) -> Reg {
        self.ld(Width::Word, MemSpace::Global, addr, offset)
    }

    /// Store a word to global memory.
    pub fn st_global_word(&mut self, addr: Reg, offset: u32, src: Reg) {
        self.st(Width::Word, MemSpace::Global, addr, offset, src)
    }

    /// Load a byte from constant memory.
    pub fn ld_const_byte(&mut self, addr: Reg, offset: u32) -> Reg {
        self.ld(Width::Byte, MemSpace::Const, addr, offset)
    }

    /// Store a byte to per-lane local memory.
    pub fn st_local_byte(&mut self, addr: Reg, offset: u32, src: Reg) {
        self.st(Width::Byte, MemSpace::Local, addr, offset, src)
    }

    /// Load a byte from per-lane local memory.
    pub fn ld_local_byte(&mut self, addr: Reg, offset: u32) -> Reg {
        self.ld(Width::Byte, MemSpace::Local, addr, offset)
    }

    /// Butterfly max-reduction across the warp's active lanes.
    pub fn warp_red_max(&mut self, src: Reg) -> Reg {
        let dst = self.reg();
        self.push(Op::WarpRedMax { dst, src });
        dst
    }

    /// Atomic fetch-and-add; returns the old value.
    pub fn atomic_add(&mut self, space: MemSpace, addr: Reg, offset: u32, src: Reg) -> Reg {
        let dst = self.reg();
        self.push(Op::AtomicAdd {
            dst,
            space,
            addr,
            offset,
            src,
        });
        dst
    }

    // ---- control flow ----------------------------------------------------

    /// Terminate the current block with an unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.terminate(Terminator::Jmp(target));
    }

    /// Terminate the current block with a conditional branch.
    pub fn branch(&mut self, cond: Reg, then_bb: BlockId, else_bb: BlockId) {
        self.terminate(Terminator::Br {
            cond,
            then_bb,
            else_bb,
        });
    }

    /// Terminate the current block with a lane halt.
    pub fn halt(&mut self) {
        self.terminate(Terminator::Halt);
    }

    /// Structured `if cond { then }`: creates the then and join blocks,
    /// runs `then` with the insertion point in the then block, and leaves
    /// the insertion point at the join block.
    pub fn if_then(&mut self, cond: Reg, then: impl FnOnce(&mut Self)) {
        let then_bb = self.new_block("then");
        let join = self.new_block("join");
        self.branch(cond, then_bb, join);
        self.switch_to(then_bb);
        then(self);
        if self.blocks[self.current as usize].term.is_none() {
            self.jump(join);
        }
        self.switch_to(join);
    }

    /// Structured `if cond { then } else { els }`, leaving the insertion
    /// point at the join block.
    pub fn if_then_else(
        &mut self,
        cond: Reg,
        then: impl FnOnce(&mut Self),
        els: impl FnOnce(&mut Self),
    ) {
        let then_bb = self.new_block("then");
        let else_bb = self.new_block("else");
        let join = self.new_block("join");
        self.branch(cond, then_bb, else_bb);
        self.switch_to(then_bb);
        then(self);
        if self.blocks[self.current as usize].term.is_none() {
            self.jump(join);
        }
        self.switch_to(else_bb);
        els(self);
        if self.blocks[self.current as usize].term.is_none() {
            self.jump(join);
        }
        self.switch_to(join);
    }

    /// Structured `while cond(b) != 0 { body }`. The condition closure runs
    /// in the loop-header block and returns the condition register; the
    /// body closure runs in the body block. Leaves the insertion point at
    /// the exit block.
    pub fn while_loop(
        &mut self,
        cond: impl FnOnce(&mut Self) -> Reg,
        body: impl FnOnce(&mut Self),
    ) {
        let header = self.new_block("while.header");
        let body_bb = self.new_block("while.body");
        let exit = self.new_block("while.exit");
        self.jump(header);
        self.switch_to(header);
        let c = cond(self);
        self.branch(c, body_bb, exit);
        self.switch_to(body_bb);
        body(self);
        if self.blocks[self.current as usize].term.is_none() {
            self.jump(header);
        }
        self.switch_to(exit);
    }

    /// Counted loop `for i in 0..count { body(b, i) }` where `count` is a
    /// register. The induction variable register is passed to the body.
    pub fn for_loop(&mut self, count: Reg, body: impl FnOnce(&mut Self, Reg)) {
        let i = self.imm(0);
        let one = self.imm(1);
        self.while_loop(
            |b| b.bin(BinOp::LtU, i, count),
            |b| {
                body(b, i);
                b.bin_into(i, BinOp::Add, i, one);
            },
        );
    }

    /// Finish construction, sealing and validating the program.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Unterminated`] for any block missing a
    /// terminator, or [`BuildError::Invalid`] on validation failure.
    pub fn build(self) -> Result<Program, BuildError> {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (i, b) in self.blocks.into_iter().enumerate() {
            let term = b.term.ok_or(BuildError::Unterminated(i as BlockId))?;
            blocks.push(Block {
                label: b.label,
                ops: b.ops,
                term,
            });
        }
        Ok(Program::from_parts(self.name, blocks, self.next_reg, 0)?)
    }

    // ---- cursor / string library ------------------------------------------

    /// Create a write cursor (see [`BufCursor`]).
    ///
    /// `lane_stride` and `elem_stride` are layout parameters, typically
    /// loaded from launch params so one program serves both layouts.
    pub fn cursor(
        &mut self,
        base: Reg,
        lane: Reg,
        lane_stride: Reg,
        elem_stride: Reg,
    ) -> BufCursor {
        let lane_term = self.bin(BinOp::Mul, lane, lane_stride);
        let pos = self.imm(0);
        BufCursor {
            base,
            pos,
            elem_stride,
            lane_term,
        }
    }

    /// Effective address of the cursor's current element.
    pub fn cursor_addr(&mut self, cur: &BufCursor) -> Reg {
        let scaled = self.bin(BinOp::Mul, cur.pos, cur.elem_stride);
        let a = self.bin(BinOp::Add, cur.base, cur.lane_term);
        self.bin(BinOp::Add, a, scaled)
    }

    /// Write one byte at the cursor and advance it.
    pub fn cursor_write_byte(&mut self, cur: &BufCursor, byte: Reg) {
        let addr = self.cursor_addr(cur);
        self.st_global_byte(addr, 0, byte);
        let one = self.imm(1);
        self.bin_into(cur.pos, BinOp::Add, cur.pos, one);
    }

    /// Copy `len` bytes from constant memory at `const_off` to the cursor.
    /// Expands to an explicit byte loop (≈10 dynamic instructions/byte).
    pub fn write_const_str(&mut self, cur: &BufCursor, const_off: u32, len: u32) {
        let src = self.imm(const_off);
        let n = self.imm(len);
        self.for_loop(n, |b, i| {
            let a = b.bin(BinOp::Add, src, i);
            let ch = b.ld_const_byte(a, 0);
            b.cursor_write_byte(cur, ch);
        });
    }

    /// Copy `len` bytes from global memory starting at `src` to the cursor.
    pub fn write_global_str(&mut self, cur: &BufCursor, src: Reg, len: Reg) {
        self.for_loop(len, |b, i| {
            let a = b.bin(BinOp::Add, src, i);
            let ch = b.ld_global_byte(a, 0);
            b.cursor_write_byte(cur, ch);
        });
    }

    /// Write the decimal representation of `value` at the cursor; returns a
    /// register holding the digit count. Digits are staged in per-lane
    /// local memory at `scratch_off` (needs up to 10 bytes).
    pub fn write_decimal(&mut self, cur: &BufCursor, value: Reg, scratch_off: u32) -> Reg {
        let v = self.reg();
        self.mov(v, value);
        let ndig = self.imm(0);
        let ten = self.imm(10);
        let one = self.imm(1);
        let zero_ch = self.imm(b'0' as u32);
        let scratch = self.imm(scratch_off);
        // do { digit = v % 10; v /= 10 } while v != 0 — emitted as
        // first-iteration-peeled while so 0 prints "0".
        let d0 = self.bin(BinOp::RemU, v, ten);
        let c0 = self.bin(BinOp::Add, d0, zero_ch);
        let a0 = self.bin(BinOp::Add, scratch, ndig);
        self.st_local_byte(a0, 0, c0);
        self.bin_into(ndig, BinOp::Add, ndig, one);
        self.bin_into(v, BinOp::DivU, v, ten);
        self.while_loop(
            |b| {
                let zero = b.zero_reg();
                b.bin(BinOp::Ne, v, zero)
            },
            |b| {
                let d = b.bin(BinOp::RemU, v, ten);
                let c = b.bin(BinOp::Add, d, zero_ch);
                let a = b.bin(BinOp::Add, scratch, ndig);
                b.st_local_byte(a, 0, c);
                b.bin_into(ndig, BinOp::Add, ndig, one);
                b.bin_into(v, BinOp::DivU, v, ten);
            },
        );
        // Emit digits most-significant first.
        let i = self.reg();
        self.mov(i, ndig);
        self.while_loop(
            |b| {
                let zero = b.zero_reg();
                b.bin(BinOp::GtU, i, zero)
            },
            |b| {
                b.bin_into(i, BinOp::Sub, i, one);
                let a = b.bin(BinOp::Add, scratch, i);
                let ch = b.ld_local_byte(a, 0);
                b.cursor_write_byte(cur, ch);
            },
        );
        ndig
    }

    /// A register permanently holding zero (allocated on first use per
    /// builder; cached).
    pub fn zero_reg(&mut self) -> Reg {
        // Emitting a fresh Imm 0 each call keeps the builder simple; the
        // one-instruction cost models a register initialization.
        self.imm(0)
    }

    /// Multiplicative xor-shift hash of `x` (4 instructions), used by the
    /// session array and backend record addressing.
    pub fn hash_u32(&mut self, x: Reg) -> Reg {
        let c1 = self.imm(0x9E37_79B9);
        let h = self.bin(BinOp::Mul, x, c1);
        let sh = self.imm(17);
        let hs = self.bin(BinOp::Shr, h, sh);
        self.bin(BinOp::Xor, h, hs)
    }
}

impl fmt::Debug for ProgramBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgramBuilder")
            .field("name", &self.name)
            .field("blocks", &self.blocks.len())
            .field("regs", &self.next_reg)
            .field("current", &self.current)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_minimal() {
        let mut b = ProgramBuilder::new("k");
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.blocks().len(), 1);
        assert_eq!(p.name(), "k");
    }

    #[test]
    fn unterminated_block_is_error() {
        let mut b = ProgramBuilder::new("k");
        let _ = b.imm(1);
        assert!(matches!(b.build(), Err(BuildError::Unterminated(0))));
    }

    #[test]
    fn if_then_else_shapes_cfg() {
        let mut b = ProgramBuilder::new("k");
        let c = b.imm(1);
        b.if_then_else(
            c,
            |b| {
                b.imm(10);
            },
            |b| {
                b.imm(20);
            },
        );
        b.halt();
        let p = b.build().unwrap();
        // entry + then + else + join = 4 blocks
        assert_eq!(p.blocks().len(), 4);
    }

    #[test]
    fn while_loop_shapes_cfg() {
        let mut b = ProgramBuilder::new("k");
        let n = b.imm(3);
        b.for_loop(n, |b, _i| {
            b.imm(0);
        });
        b.halt();
        let p = b.build().unwrap();
        assert!(p.blocks().len() >= 4);
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn switch_to_terminated_block_panics() {
        let mut b = ProgramBuilder::new("k");
        b.halt();
        b.switch_to(0);
    }

    #[test]
    #[should_panic(expected = "emitting into terminated block")]
    fn emit_after_terminate_panics() {
        let mut b = ProgramBuilder::new("k");
        let j = b.new_block("next");
        b.jump(j);
        // current still points at the sealed entry block
        b.imm(1);
    }

    #[test]
    fn cursor_roundtrip_builds() {
        let mut b = ProgramBuilder::new("k");
        let base = b.imm(0);
        let lane = b.lane_id();
        let ls = b.imm(64);
        let es = b.imm(1);
        let cur = b.cursor(base, lane, ls, es);
        let ch = b.imm(b'x' as u32);
        b.cursor_write_byte(&cur, ch);
        b.write_const_str(&cur, 0, 5);
        let v = b.imm(1234);
        b.write_decimal(&cur, v, 0);
        b.halt();
        assert!(b.build().is_ok());
    }
}
