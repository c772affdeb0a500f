//! Program and basic-block containers, plus structural validation.

use serde::{Deserialize, Serialize};
use std::fmt;

use super::{BlockId, Op, Terminator};

/// A basic block: straight-line [`Op`]s followed by one [`Terminator`].
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Block {
    /// Optional human-readable label, used in disassembly and traces.
    pub label: Option<String>,
    /// Straight-line instructions.
    pub ops: Vec<Op>,
    /// The unique terminator.
    pub term: Terminator,
}

impl Block {
    /// Number of instructions including the terminator.
    pub fn len(&self) -> usize {
        self.ops.len() + 1
    }

    /// A block always contains at least its terminator.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A validated kernel program: a CFG of basic blocks over a register file.
///
/// Construct with [`super::ProgramBuilder`]; direct construction is possible
/// for tests via [`Program::from_parts`] followed by validation.
///
/// Deliberately not `Deserialize`: the memoised fingerprint is a cache key
/// for verifier verdicts and decoded plans, so it is only ever computed
/// from the blocks in [`Program::from_parts`], never read from input.
/// Ship the parts ([`Block`] is serialisable) and reassemble.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    name: String,
    blocks: Vec<Block>,
    num_regs: u16,
    entry: BlockId,
    /// Structural hash of the fields above; fixed at construction (a
    /// program is immutable afterwards).
    fingerprint: u64,
}

/// Structural validation failure for a [`Program`].
#[derive(Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)] // field names are self-describing
pub enum ValidateError {
    /// The program contains no blocks.
    Empty,
    /// The entry block id is out of range.
    BadEntry(BlockId),
    /// A terminator targets a nonexistent block.
    BadTarget { block: BlockId, target: BlockId },
    /// An instruction references a register `>= num_regs`.
    BadRegister { block: BlockId, op_index: usize },
    /// A `Param` op references an index above the supported maximum.
    BadParamIndex { block: BlockId, op_index: usize },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::Empty => write!(f, "program has no basic blocks"),
            ValidateError::BadEntry(e) => write!(f, "entry block {e} does not exist"),
            ValidateError::BadTarget { block, target } => {
                write!(f, "block {block} targets nonexistent block {target}")
            }
            ValidateError::BadRegister { block, op_index } => {
                write!(f, "block {block} op {op_index} uses out-of-range register")
            }
            ValidateError::BadParamIndex { block, op_index } => {
                write!(f, "block {block} op {op_index} uses out-of-range parameter")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// Maximum number of launch parameters a kernel may read.
pub const MAX_PARAMS: u16 = 64;

impl Program {
    /// Assemble a program from raw parts and validate it.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] describing the first structural problem
    /// found (dangling branch target, out-of-range register, bad entry).
    pub fn from_parts(
        name: impl Into<String>,
        blocks: Vec<Block>,
        num_regs: u16,
        entry: BlockId,
    ) -> Result<Self, ValidateError> {
        let mut p = Program {
            name: name.into(),
            blocks,
            num_regs,
            entry,
            fingerprint: 0,
        };
        p.validate()?;
        p.fingerprint = p.compute_fingerprint();
        Ok(p)
    }

    fn compute_fingerprint(&self) -> u64 {
        use std::hash::{Hash as _, Hasher as _};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.name.hash(&mut h);
        self.num_regs.hash(&mut h);
        self.entry.hash(&mut h);
        self.blocks.hash(&mut h);
        h.finish()
    }

    fn validate(&self) -> Result<(), ValidateError> {
        if self.blocks.is_empty() {
            return Err(ValidateError::Empty);
        }
        if self.entry as usize >= self.blocks.len() {
            return Err(ValidateError::BadEntry(self.entry));
        }
        for (bi, block) in self.blocks.iter().enumerate() {
            for target in block.term.successors() {
                if target as usize >= self.blocks.len() {
                    return Err(ValidateError::BadTarget {
                        block: bi as BlockId,
                        target,
                    });
                }
            }
            for (oi, op) in block.ops.iter().enumerate() {
                let mut regs = op.sources();
                regs.extend(op.dst());
                if regs.iter().any(|r| r.0 >= self.num_regs) {
                    return Err(ValidateError::BadRegister {
                        block: bi as BlockId,
                        op_index: oi,
                    });
                }
                if let Op::Param { index, .. } = op {
                    if *index >= MAX_PARAMS {
                        return Err(ValidateError::BadParamIndex {
                            block: bi as BlockId,
                            op_index: oi,
                        });
                    }
                }
            }
            if let Terminator::Br { cond, .. } = &block.term {
                if cond.0 >= self.num_regs {
                    return Err(ValidateError::BadRegister {
                        block: bi as BlockId,
                        op_index: block.ops.len(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Kernel name (used in stats and disassembly).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The basic blocks, indexed by [`BlockId`].
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// One block by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (programs are validated, so ids
    /// obtained during execution are always in range).
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id as usize]
    }

    /// Size of the per-lane register file.
    pub fn num_regs(&self) -> u16 {
        self.num_regs
    }

    /// Entry block id.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Total static instruction count (ops + terminators).
    pub fn static_len(&self) -> usize {
        self.blocks.iter().map(Block::len).sum()
    }

    /// A structural fingerprint of the whole program (name, blocks, ops,
    /// register-file size), suitable as a cache key for per-program
    /// analyses. Two equal programs hash equal; distinct programs collide
    /// only with ordinary 64-bit-hash probability. Computed once in
    /// [`Program::from_parts`]; this is a field read.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Render a human-readable disassembly listing.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "kernel {} (regs={})", self.name, self.num_regs);
        for (bi, b) in self.blocks.iter().enumerate() {
            let label = b.label.as_deref().unwrap_or("");
            let _ = writeln!(out, "bb{bi}: {label}");
            for op in &b.ops {
                let _ = writeln!(out, "    {op:?}");
            }
            let _ = writeln!(out, "    {:?}", b.term);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, MemSpace, Reg, Width};

    fn halt_block() -> Block {
        Block {
            label: None,
            ops: vec![],
            term: Terminator::Halt,
        }
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(
            Program::from_parts("k", vec![], 0, 0).unwrap_err(),
            ValidateError::Empty
        );
    }

    #[test]
    fn bad_entry_rejected() {
        let err = Program::from_parts("k", vec![halt_block()], 0, 3).unwrap_err();
        assert_eq!(err, ValidateError::BadEntry(3));
    }

    #[test]
    fn dangling_target_rejected() {
        let b = Block {
            label: None,
            ops: vec![],
            term: Terminator::Jmp(9),
        };
        let err = Program::from_parts("k", vec![b], 0, 0).unwrap_err();
        assert_eq!(
            err,
            ValidateError::BadTarget {
                block: 0,
                target: 9
            }
        );
    }

    #[test]
    fn out_of_range_register_rejected() {
        let b = Block {
            label: None,
            ops: vec![Op::Bin {
                op: BinOp::Add,
                dst: Reg(5),
                a: Reg(0),
                b: Reg(1),
            }],
            term: Terminator::Halt,
        };
        let err = Program::from_parts("k", vec![b], 2, 0).unwrap_err();
        assert!(matches!(err, ValidateError::BadRegister { .. }));
    }

    #[test]
    fn branch_cond_register_checked() {
        let b = Block {
            label: None,
            ops: vec![],
            term: Terminator::Br {
                cond: Reg(7),
                then_bb: 0,
                else_bb: 0,
            },
        };
        let err = Program::from_parts("k", vec![b], 1, 0).unwrap_err();
        assert!(matches!(err, ValidateError::BadRegister { .. }));
    }

    #[test]
    fn valid_program_accepted() {
        let b0 = Block {
            label: Some("entry".into()),
            ops: vec![
                Op::Imm {
                    dst: Reg(0),
                    value: 4,
                },
                Op::St {
                    width: Width::Word,
                    space: MemSpace::Global,
                    src: Reg(0),
                    addr: Reg(0),
                    offset: 0,
                },
            ],
            term: Terminator::Jmp(1),
        };
        let p = Program::from_parts("k", vec![b0, halt_block()], 1, 0).unwrap();
        assert_eq!(p.static_len(), 4);
        assert_eq!(p.entry(), 0);
        assert!(p.disassemble().contains("bb1"));
    }

    #[test]
    fn display_for_errors() {
        let s = ValidateError::BadTarget {
            block: 1,
            target: 2,
        }
        .to_string();
        assert!(s.contains("block 1"));
    }
}
