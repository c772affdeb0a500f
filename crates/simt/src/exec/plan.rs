//! Pre-decoded execution plans for the SIMT interpreter.
//!
//! The legacy interpreter walks the boxed [`Op`] enum straight out of
//! [`Program`]: every dynamic instruction re-reads `Reg` indices, re-computes
//! `lane * num_regs + r` addressing, and re-runs [`crate::ir::CfgInfo`]
//! analysis once per launch. For cohort servers the same ~30 banking kernels
//! are launched thousands of times, so all of that work is pure overhead.
//!
//! An [`ExecPlan`] flattens a validated program once:
//!
//! * every basic block's ops land in one dense [`DecodedOp`] array
//!   (`PlanBlock` holds a `[start, end)` window into it) — no per-block
//!   `Vec<Op>` pointer chasing in the inner loop;
//! * register operands are pre-multiplied by [`WARP_SIZE`] so the executor's
//!   structure-of-arrays register file (`regs[r * 32 + lane]`) is indexed
//!   with a single add, and a register's 32 lanes form one contiguous,
//!   vectorizable slice;
//! * branch reconvergence points (immediate post-dominators) are resolved at
//!   decode time into [`DecodedTerm::Br::reconv`], eliminating the per-launch
//!   CFG analysis entirely.
//!
//! Plans are immutable and shared: [`plan_for`] memoizes them in a
//! process-wide cache keyed by [`Program::fingerprint`] (the same key
//! `rhythm-verify` uses for verdicts), so steady-state launches skip decode.
//! Cache hit/miss totals are exported through [`plan_cache_stats`] as a
//! [`rhythm_obs::CacheSnapshot`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rhythm_obs::{CacheCounters, CacheSnapshot};

use crate::ir::{BinOp, BlockId, CfgInfo, MemSpace, Op, Program, Terminator, UnOp, Width};

use super::WARP_SIZE;

/// A register operand resolved for the executor's SoA register file: the
/// IR register index pre-multiplied by [`WARP_SIZE`], so lane `l` of the
/// register lives at `regs[slot + l]`.
pub type RegSlot = u32;

/// One pre-decoded straight-line instruction.
///
/// Mirrors [`Op`] one-to-one (the decode is a pure representation change;
/// semantics, faults, and cost accounting are defined by the executor), but
/// with register operands as [`RegSlot`]s and no heap indirection.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)] // field meanings match `crate::ir::Op`
pub enum DecodedOp {
    Imm {
        dst: RegSlot,
        value: u32,
    },
    Mov {
        dst: RegSlot,
        src: RegSlot,
    },
    Bin {
        op: BinOp,
        dst: RegSlot,
        a: RegSlot,
        b: RegSlot,
    },
    Un {
        op: UnOp,
        dst: RegSlot,
        a: RegSlot,
    },
    LaneId {
        dst: RegSlot,
    },
    GlobalId {
        dst: RegSlot,
    },
    Param {
        dst: RegSlot,
        index: u16,
    },
    Ld {
        width: Width,
        space: MemSpace,
        dst: RegSlot,
        addr: RegSlot,
        offset: u32,
    },
    St {
        width: Width,
        space: MemSpace,
        src: RegSlot,
        addr: RegSlot,
        offset: u32,
    },
    WarpRedMax {
        dst: RegSlot,
        src: RegSlot,
    },
    AtomicAdd {
        dst: RegSlot,
        space: MemSpace,
        addr: RegSlot,
        offset: u32,
        src: RegSlot,
    },
}

/// A pre-decoded block terminator.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DecodedTerm {
    /// Unconditional jump.
    Jmp(BlockId),
    /// Conditional branch with its reconvergence point (the branch block's
    /// immediate post-dominator, [`crate::ir::EXIT_BLOCK`] when control only
    /// rejoins at kernel exit) resolved at decode time.
    Br {
        /// Condition register slot (nonzero = taken).
        cond: RegSlot,
        /// Target when the condition is nonzero.
        then_bb: BlockId,
        /// Target when the condition is zero.
        else_bb: BlockId,
        /// Immediate post-dominator of the branch block.
        reconv: BlockId,
    },
    /// The lane finishes kernel execution.
    Halt,
}

/// One basic block of an [`ExecPlan`]: a window into the plan's flat op
/// array plus the decoded terminator.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PlanBlock {
    /// First op index in the plan's flat op array.
    pub start: u32,
    /// One past the last op index in the plan's flat op array.
    pub end: u32,
    /// The block terminator.
    pub term: DecodedTerm,
}

/// A byte-copy loop recognized at decode time: the exact header + body
/// shape [`crate::ir::ProgramBuilder::write_const_str`] emits (a
/// `for_loop` whose body loads one constant-pool byte and stores it
/// through a `BufCursor`). The executor may commit the whole loop as one
/// wide copy — a `memcpy`-style block operation — instead of
/// interpreting ~12 warp instructions per byte, provided the runtime
/// preconditions hold (see `exec::simt::try_wide_copy`); otherwise it
/// falls back to byte-at-a-time interpretation with identical faults.
///
/// All register fields are [`RegSlot`]s. Detection requires every one of
/// the fifteen registers to be pairwise distinct, so the closed-form
/// register commit at loop exit cannot clobber a reused slot; the
/// builder always emits fresh registers, and any aliasing simply leaves
/// the loop un-annotated (correct, just slower).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct WideCopy {
    /// Loop condition `c = i <u n` (the header's branch register).
    pub cond: RegSlot,
    /// Induction variable / constant-pool cursor offset `i`.
    pub idx: RegSlot,
    /// Trip-count bound `n` (loop runs while `i <u n`).
    pub len: RegSlot,
    /// Constant-pool base offset of the source string.
    pub src: RegSlot,
    /// Cursor element stride (distance between consecutive elements of
    /// one lane's buffer).
    pub elem_stride: RegSlot,
    /// Cursor buffer base address.
    pub base: RegSlot,
    /// Cursor per-lane term (`lane * lane_stride`).
    pub lane_term: RegSlot,
    /// Cursor element position, advanced by one per byte written.
    pub pos: RegSlot,
    /// The `for_loop` increment constant (must hold 1 at runtime).
    pub one: RegSlot,
    /// Body temp `a = src + i` (constant-pool byte address).
    pub src_addr: RegSlot,
    /// Body temp: the loaded byte.
    pub ch: RegSlot,
    /// Body temp `scaled = pos * elem_stride`.
    pub scaled: RegSlot,
    /// Body temp `t = base + lane_term`.
    pub lane_base: RegSlot,
    /// Body temp `addr = t + scaled` (the store address).
    pub addr: RegSlot,
    /// Body temp: `cursor_write_byte`'s own `imm(1)`.
    pub one2: RegSlot,
    /// The loop body block.
    pub body: BlockId,
    /// The loop exit block (the header branch's else target).
    pub exit: BlockId,
}

/// A fully pre-decoded, immutable execution plan for one [`Program`].
///
/// Build once with [`ExecPlan::build`] (or fetch a shared cached instance
/// with [`plan_for`]) and execute any number of launches against it.
#[derive(Clone, Debug)]
pub struct ExecPlan {
    name: String,
    fingerprint: u64,
    entry: BlockId,
    num_regs: u16,
    ops: Vec<DecodedOp>,
    blocks: Vec<PlanBlock>,
    /// Parallel to `blocks`: the wide-copy annotation for blocks that are
    /// recognized byte-copy loop headers.
    wide_copies: Vec<Option<WideCopy>>,
}

#[inline]
fn slot(r: crate::ir::Reg) -> RegSlot {
    r.0 as u32 * WARP_SIZE
}

impl ExecPlan {
    /// Decode a validated program into a flat execution plan.
    ///
    /// Runs the immediate-post-dominator analysis once and bakes each
    /// branch's reconvergence block into its [`DecodedTerm`].
    pub fn build(program: &Program) -> ExecPlan {
        let cfg = CfgInfo::analyze(program);
        let total_ops: usize = program.blocks().iter().map(|b| b.ops.len()).sum();
        let mut ops = Vec::with_capacity(total_ops);
        let mut blocks = Vec::with_capacity(program.blocks().len());
        for (bi, block) in program.blocks().iter().enumerate() {
            let start = ops.len() as u32;
            for op in &block.ops {
                ops.push(decode_op(op));
            }
            let term = match block.term {
                Terminator::Jmp(t) => DecodedTerm::Jmp(t),
                Terminator::Halt => DecodedTerm::Halt,
                Terminator::Br {
                    cond,
                    then_bb,
                    else_bb,
                } => DecodedTerm::Br {
                    cond: slot(cond),
                    then_bb,
                    else_bb,
                    reconv: cfg.ipdom(bi as BlockId),
                },
            };
            blocks.push(PlanBlock {
                start,
                end: ops.len() as u32,
                term,
            });
        }
        let wide_copies = (0..blocks.len())
            .map(|h| detect_wide_copy(&blocks, &ops, h as BlockId))
            .collect();
        ExecPlan {
            name: program.name().to_string(),
            fingerprint: program.fingerprint(),
            entry: program.entry(),
            num_regs: program.num_regs(),
            ops,
            blocks,
            wide_copies,
        }
    }

    /// Kernel name, for traces and reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fingerprint of the source program (the plan-cache key).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Entry block id.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Size of the per-lane register file.
    pub fn num_regs(&self) -> u16 {
        self.num_regs
    }

    /// All decoded blocks, indexed by [`BlockId`].
    pub fn blocks(&self) -> &[PlanBlock] {
        &self.blocks
    }

    /// One decoded block by id.
    #[inline]
    pub fn block(&self, id: BlockId) -> &PlanBlock {
        &self.blocks[id as usize]
    }

    /// The decoded ops of one block.
    #[inline]
    pub fn block_ops(&self, b: &PlanBlock) -> &[DecodedOp] {
        &self.ops[b.start as usize..b.end as usize]
    }

    /// Total static op count (terminators excluded).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// The wide-copy annotation for block `id`, when it is a recognized
    /// byte-copy loop header.
    #[inline]
    pub fn wide_copy(&self, id: BlockId) -> Option<&WideCopy> {
        self.wide_copies[id as usize].as_ref()
    }

    /// Number of blocks annotated as wide-copy loop headers.
    pub fn num_wide_copies(&self) -> usize {
        self.wide_copies.iter().flatten().count()
    }
}

/// Match block `h` (plus its loop body) against the exact byte-copy
/// template `ProgramBuilder::write_const_str` expands to:
///
/// ```text
/// header h: c = LtU i, n            br c, body, exit (reconv = exit)
/// body:     a      = Add src, i
///           ch     = Ld Const Byte [a+0]
///           scaled = Mul pos, elem_stride
///           t      = Add base, lane_term
///           addr   = Add t, scaled
///                    St Global Byte [addr+0], ch
///           one2   = Imm 1
///           pos    = Add pos, one2
///           i      = Add i, one     jmp h
/// ```
///
/// Only the constant-pool load variant is matched (`write_global_str`
/// and `write_decimal` load from Global/Local and stay interpreted).
/// Any structural mismatch — including register aliasing between the
/// fifteen slots — returns `None`, leaving the loop on the byte-at-a-time
/// path.
fn detect_wide_copy(blocks: &[PlanBlock], ops: &[DecodedOp], h: BlockId) -> Option<WideCopy> {
    let hb = &blocks[h as usize];
    let DecodedTerm::Br {
        cond,
        then_bb: body,
        else_bb: exit,
        ..
    } = hb.term
    else {
        return None;
    };
    // A self-looping or degenerate branch (body == exit) never matches:
    // the interpreted loop would not terminate through the header.
    if body == exit || (body as usize) >= blocks.len() {
        return None;
    }
    let &[DecodedOp::Bin {
        op: BinOp::LtU,
        dst: c,
        a: i,
        b: n,
    }] = &ops[hb.start as usize..hb.end as usize]
    else {
        return None;
    };
    if c != cond {
        return None;
    }
    let bb = &blocks[body as usize];
    if bb.term != DecodedTerm::Jmp(h) {
        return None;
    }
    let &[DecodedOp::Bin {
        op: BinOp::Add,
        dst: src_addr,
        a: src,
        b: i2,
    }, DecodedOp::Ld {
        width: Width::Byte,
        space: MemSpace::Const,
        dst: ch,
        addr: src_addr2,
        offset: 0,
    }, DecodedOp::Bin {
        op: BinOp::Mul,
        dst: scaled,
        a: pos,
        b: elem_stride,
    }, DecodedOp::Bin {
        op: BinOp::Add,
        dst: lane_base,
        a: base,
        b: lane_term,
    }, DecodedOp::Bin {
        op: BinOp::Add,
        dst: addr,
        a: lane_base2,
        b: scaled2,
    }, DecodedOp::St {
        width: Width::Byte,
        space: MemSpace::Global,
        src: ch2,
        addr: addr2,
        offset: 0,
    }, DecodedOp::Imm {
        dst: one2,
        value: 1,
    }, DecodedOp::Bin {
        op: BinOp::Add,
        dst: pos2,
        a: pos3,
        b: one2b,
    }, DecodedOp::Bin {
        op: BinOp::Add,
        dst: i3,
        a: i4,
        b: one,
    }] = &ops[bb.start as usize..bb.end as usize]
    else {
        return None;
    };
    // Dataflow consistency: each temp feeds exactly the op the template
    // expects, and the two `bin_into` updates write their own sources.
    if i2 != i
        || src_addr2 != src_addr
        || lane_base2 != lane_base
        || scaled2 != scaled
        || ch2 != ch
        || addr2 != addr
        || pos2 != pos
        || pos3 != pos
        || one2b != one2
        || i3 != i
        || i4 != i
    {
        return None;
    }
    let regs = [
        c,
        i,
        n,
        src,
        elem_stride,
        base,
        lane_term,
        pos,
        one,
        src_addr,
        ch,
        scaled,
        lane_base,
        addr,
        one2,
    ];
    for (k, &r) in regs.iter().enumerate() {
        if regs[k + 1..].contains(&r) {
            return None;
        }
    }
    Some(WideCopy {
        cond: c,
        idx: i,
        len: n,
        src,
        elem_stride,
        base,
        lane_term,
        pos,
        one,
        src_addr,
        ch,
        scaled,
        lane_base,
        addr,
        one2,
        body,
        exit,
    })
}

fn decode_op(op: &Op) -> DecodedOp {
    match *op {
        Op::Imm { dst, value } => DecodedOp::Imm {
            dst: slot(dst),
            value,
        },
        Op::Mov { dst, src } => DecodedOp::Mov {
            dst: slot(dst),
            src: slot(src),
        },
        Op::Bin { op, dst, a, b } => DecodedOp::Bin {
            op,
            dst: slot(dst),
            a: slot(a),
            b: slot(b),
        },
        Op::Un { op, dst, a } => DecodedOp::Un {
            op,
            dst: slot(dst),
            a: slot(a),
        },
        Op::LaneId { dst } => DecodedOp::LaneId { dst: slot(dst) },
        Op::GlobalId { dst } => DecodedOp::GlobalId { dst: slot(dst) },
        Op::Param { dst, index } => DecodedOp::Param {
            dst: slot(dst),
            index,
        },
        Op::Ld {
            width,
            space,
            dst,
            addr,
            offset,
        } => DecodedOp::Ld {
            width,
            space,
            dst: slot(dst),
            addr: slot(addr),
            offset,
        },
        Op::St {
            width,
            space,
            src,
            addr,
            offset,
        } => DecodedOp::St {
            width,
            space,
            src: slot(src),
            addr: slot(addr),
            offset,
        },
        Op::WarpRedMax { dst, src } => DecodedOp::WarpRedMax {
            dst: slot(dst),
            src: slot(src),
        },
        Op::AtomicAdd {
            dst,
            space,
            addr,
            offset,
            src,
        } => DecodedOp::AtomicAdd {
            dst: slot(dst),
            space,
            addr: slot(addr),
            offset,
            src: slot(src),
        },
    }
}

/// Process-wide decode cache: `Program::fingerprint() -> Arc<ExecPlan>`.
static PLAN_CACHE: OnceLock<Mutex<HashMap<u64, Arc<ExecPlan>>>> = OnceLock::new();
/// Cumulative hit/miss totals for [`plan_for`].
static PLAN_CACHE_COUNTERS: CacheCounters = CacheCounters::new();

/// Fetch the shared pre-decoded plan for `program`, building and caching it
/// on first use.
///
/// Keyed by [`Program::fingerprint`]; two structurally equal programs share
/// one plan. The cache lives for the process (kernels are a small, fixed
/// set in the cohort-server workloads this models), and every lookup is
/// counted in [`plan_cache_stats`].
pub fn plan_for(program: &Program) -> Arc<ExecPlan> {
    let key = program.fingerprint();
    let cache = PLAN_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("plan cache poisoned");
    if let Some(plan) = map.get(&key) {
        PLAN_CACHE_COUNTERS.record_hit();
        return Arc::clone(plan);
    }
    // Decode outside the fast path; holding the lock while decoding keeps
    // duplicate concurrent decodes of the same kernel from racing.
    let plan = Arc::new(ExecPlan::build(program));
    map.insert(key, Arc::clone(&plan));
    PLAN_CACHE_COUNTERS.record_miss();
    plan
}

/// Cumulative decode-cache hit/miss totals for this process.
pub fn plan_cache_stats() -> CacheSnapshot {
    PLAN_CACHE_COUNTERS.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ProgramBuilder, EXIT_BLOCK};

    fn diamond(name: &str) -> Program {
        let mut b = ProgramBuilder::new(name);
        let g = b.global_id();
        let one = b.imm(1);
        let odd = b.bin(BinOp::And, g, one);
        let out = b.reg();
        b.if_then_else(odd, |b| b.imm_into(out, 7), |b| b.imm_into(out, 9));
        let four = b.imm(4);
        let addr = b.bin(BinOp::Mul, g, four);
        b.st_global_word(addr, 0, out);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn decode_preserves_structure() {
        let p = diamond("plan_structure");
        let plan = ExecPlan::build(&p);
        assert_eq!(plan.name(), p.name());
        assert_eq!(plan.fingerprint(), p.fingerprint());
        assert_eq!(plan.entry(), p.entry());
        assert_eq!(plan.num_regs(), p.num_regs());
        assert_eq!(plan.blocks().len(), p.blocks().len());
        let static_ops: usize = p.blocks().iter().map(|b| b.ops.len()).sum();
        assert_eq!(plan.num_ops(), static_ops);
        // Per-block windows tile the flat array exactly.
        let mut expect_start = 0u32;
        for (pb, b) in plan.blocks().iter().zip(p.blocks()) {
            assert_eq!(pb.start, expect_start);
            assert_eq!((pb.end - pb.start) as usize, b.ops.len());
            assert_eq!(plan.block_ops(pb).len(), b.ops.len());
            expect_start = pb.end;
        }
    }

    #[test]
    fn register_slots_are_premultiplied() {
        let mut b = ProgramBuilder::new("plan_slots");
        let x = b.imm(5);
        let y = b.bin(BinOp::Add, x, x);
        let _ = y;
        b.halt();
        let p = b.build().unwrap();
        let plan = ExecPlan::build(&p);
        let entry = plan.block(p.entry());
        match plan.block_ops(entry)[1] {
            DecodedOp::Bin { op, dst, a, b } => {
                assert_eq!(op, BinOp::Add);
                assert_eq!(dst % WARP_SIZE, 0);
                assert_eq!(a % WARP_SIZE, 0);
                assert_eq!(a, b, "both operands read the same register");
            }
            other => panic!("expected decoded Bin, got {other:?}"),
        }
    }

    #[test]
    fn branch_reconvergence_is_baked_in() {
        let p = diamond("plan_reconv");
        let cfg = CfgInfo::analyze(&p);
        let plan = ExecPlan::build(&p);
        let mut saw_br = false;
        for (bi, pb) in plan.blocks().iter().enumerate() {
            if let DecodedTerm::Br { reconv, .. } = pb.term {
                saw_br = true;
                assert_eq!(reconv, cfg.ipdom(bi as BlockId));
                assert_ne!(reconv, EXIT_BLOCK, "diamond rejoins before exit");
            }
        }
        assert!(saw_br, "diamond kernel must contain a branch");
    }

    #[test]
    fn plan_cache_hits_on_refetch() {
        // A unique kernel name gives a fingerprint this process has never
        // cached, so the first fetch is a miss and the second is a hit.
        let p = diamond("plan_cache_hit_test_kernel");
        let before = plan_cache_stats();
        let a = plan_for(&p);
        let b = plan_for(&p);
        assert!(Arc::ptr_eq(&a, &b), "refetch must share the cached plan");
        // Counters are process-global and other tests in this binary run
        // concurrently, so assert lower bounds here; the exact-delta checks
        // live in the `exec_plan` integration test (own process).
        let delta = plan_cache_stats().since(&before);
        assert!(delta.misses >= 1, "first fetch of a fresh kernel misses");
        assert!(delta.hits >= 1, "refetch hits");
    }

    /// A kernel whose whole body is one `write_const_str` copy loop:
    /// each lane writes `len` bytes at `base + lane * len`.
    fn const_copy(name: &str, len: u32) -> Program {
        let mut b = ProgramBuilder::new(name);
        let lane = b.lane_id();
        let base = b.imm(0);
        let lane_stride = b.imm(len);
        let elem_stride = b.imm(1);
        let cur = b.cursor(base, lane, lane_stride, elem_stride);
        b.write_const_str(&cur, 0, len);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn wide_copy_detected_on_const_str_loop() {
        let p = const_copy("plan_wide_copy_detect", 24);
        let plan = ExecPlan::build(&p);
        assert_eq!(plan.num_wide_copies(), 1, "exactly one copy-loop header");
        let (h, wc) = plan
            .blocks()
            .iter()
            .enumerate()
            .find_map(|(bi, _)| plan.wide_copy(bi as BlockId).map(|w| (bi as BlockId, *w)))
            .expect("annotated header");
        // The annotation points back at the real loop structure.
        assert_eq!(plan.block(wc.body).term, DecodedTerm::Jmp(h));
        match plan.block(h).term {
            DecodedTerm::Br {
                cond,
                then_bb,
                else_bb,
                ..
            } => {
                assert_eq!(cond, wc.cond);
                assert_eq!(then_bb, wc.body);
                assert_eq!(else_bb, wc.exit);
            }
            other => panic!("header must branch, got {other:?}"),
        }
        // All fifteen captured registers are pairwise distinct.
        let regs = [
            wc.cond,
            wc.idx,
            wc.len,
            wc.src,
            wc.elem_stride,
            wc.base,
            wc.lane_term,
            wc.pos,
            wc.one,
            wc.src_addr,
            wc.ch,
            wc.scaled,
            wc.lane_base,
            wc.addr,
            wc.one2,
        ];
        for (k, &r) in regs.iter().enumerate() {
            assert!(!regs[k + 1..].contains(&r), "register aliasing in capture");
        }
    }

    #[test]
    fn wide_copy_rejects_global_source_loop() {
        // `write_global_str` has the same shape but loads from Global —
        // its bytes are mutable during the loop, so it must stay on the
        // interpreted path.
        let mut b = ProgramBuilder::new("plan_wide_copy_global_miss");
        let lane = b.lane_id();
        let base = b.imm(512);
        let lane_stride = b.imm(16);
        let elem_stride = b.imm(1);
        let cur = b.cursor(base, lane, lane_stride, elem_stride);
        let src = b.imm(0);
        let n = b.imm(16);
        b.write_global_str(&cur, src, n);
        b.halt();
        let p = b.build().unwrap();
        let plan = ExecPlan::build(&p);
        assert_eq!(plan.num_wide_copies(), 0);
    }
}
