//! The analyzer's dataflow engine: an abstract-value lattice tracking
//! lane-affine address arithmetic and divergence taint, computed
//! flow-insensitively to a fixpoint, plus the CFG facts (reachability,
//! forward dominators, back edges, tainted-guard regions) the rule passes
//! consume.
//!
//! # The lattice
//!
//! Every register is abstracted as a [`Shape`] plus a taint bit:
//!
//! * `Const(c)` — the register holds `c` whenever any of its defs has
//!   executed (exact modulo 2³²).
//! * `Affine { sym, coeff, base }` — the register holds
//!   `base + coeff·sym` (wrapping) where `sym` is the lane id or the
//!   global lane id. `coeff` is nonzero, so an affine value provably
//!   differs between some lanes. `base` may be unknown (still affine in
//!   the symbol, offset by a launch-uniform unknown).
//! * `Any` — no structural fact.
//!
//! The taint bit is a *may* analysis: `tainted == false` means the value
//! is proven launch-uniform (identical in every lane); `true` means it may
//! differ across lanes. Taint enters at `LaneId`/`GlobalId`, at loads from
//! lane-varying memory, and — via control dependence — at any definition
//! executed under a lane-divergent branch (the implicit-flow rule that
//! catches `while (cont)` loops whose `cont` flag is cleared under a
//! data-dependent condition).
//!
//! Values are joined over **all** definitions of a register, ignoring
//! control flow. This is deliberately coarse: banking kernels have
//! thousands of registers and hundreds of blocks, and per-block dense
//! states would cost tens of megabytes. Imprecision only ever widens a
//! value toward `Any`/tainted, which suppresses `Error`-severity claims
//! rather than fabricating them.

use rhythm_simt::exec::WARP_SIZE;
use rhythm_simt::ir::{BinOp, CfgInfo, Op, Program, Reg, Terminator, EXIT_BLOCK};

use crate::LaunchSpec;

/// The lane symbol an affine value varies over.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Sym {
    /// Lane index within the warp (`Op::LaneId`), range `0..32`.
    Lane,
    /// Global lane index within the launch (`Op::GlobalId`).
    Gid,
}

/// Structural abstraction of a register value. See the module docs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Shape {
    /// No definition seen yet.
    Bottom,
    /// Exactly this constant.
    Const(u32),
    /// `base + coeff·sym` (wrapping); `coeff != 0`; `base == None` means
    /// the base is an unknown launch-uniform value.
    Affine {
        /// The varying symbol.
        sym: Sym,
        /// Per-lane stride (nonzero).
        coeff: u32,
        /// Known base, or `None` for "uniform but unknown".
        base: Option<u32>,
    },
    /// Anything.
    Any,
}

/// A register's abstract value: shape plus divergence taint.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Abs {
    /// Structural value.
    pub shape: Shape,
    /// `true` when the value may differ across lanes.
    pub tainted: bool,
}

impl Abs {
    /// The bottom element (no defs seen).
    pub const BOTTOM: Abs = Abs {
        shape: Shape::Bottom,
        tainted: false,
    };

    fn konst(c: u32) -> Abs {
        Abs {
            shape: Shape::Const(c),
            tainted: false,
        }
    }

    fn affine(sym: Sym, coeff: u32, base: Option<u32>) -> Abs {
        debug_assert_ne!(coeff, 0);
        Abs {
            shape: Shape::Affine { sym, coeff, base },
            tainted: true,
        }
    }

    fn any(tainted: bool) -> Abs {
        Abs {
            shape: Shape::Any,
            tainted,
        }
    }

    /// Least upper bound of two abstractions.
    pub fn join(self, other: Abs) -> Abs {
        let tainted = self.tainted || other.tainted;
        let shape = match (self.shape, other.shape) {
            (Shape::Bottom, s) | (s, Shape::Bottom) => s,
            (a, b) if a == b => a,
            (
                Shape::Affine {
                    sym: s1,
                    coeff: c1,
                    base: b1,
                },
                Shape::Affine {
                    sym: s2,
                    coeff: c2,
                    base: b2,
                },
            ) if s1 == s2 && c1 == c2 => {
                // Same stride, different base: still affine, base unknown.
                debug_assert_ne!(b1, b2);
                Shape::Affine {
                    sym: s1,
                    coeff: c1,
                    base: None,
                }
            }
            _ => Shape::Any,
        };
        Abs { shape, tainted }
    }
}

fn add_shapes(a: Shape, b: Shape) -> Shape {
    match (a, b) {
        (Shape::Const(x), Shape::Const(y)) => Shape::Const(x.wrapping_add(y)),
        (Shape::Affine { sym, coeff, base }, Shape::Const(c))
        | (Shape::Const(c), Shape::Affine { sym, coeff, base }) => Shape::Affine {
            sym,
            coeff,
            base: base.map(|b| b.wrapping_add(c)),
        },
        (
            Shape::Affine {
                sym: s1,
                coeff: c1,
                base: b1,
            },
            Shape::Affine {
                sym: s2,
                coeff: c2,
                base: b2,
            },
        ) if s1 == s2 => {
            let coeff = c1.wrapping_add(c2);
            let base = match (b1, b2) {
                (Some(x), Some(y)) => Some(x.wrapping_add(y)),
                _ => None,
            };
            if coeff == 0 {
                match base {
                    Some(b) => Shape::Const(b),
                    None => Shape::Any,
                }
            } else {
                Shape::Affine {
                    sym: s1,
                    coeff,
                    base,
                }
            }
        }
        // Affine + unknown-uniform keeps the stride with an unknown base.
        (Shape::Affine { sym, coeff, .. }, Shape::Any)
        | (Shape::Any, Shape::Affine { sym, coeff, .. }) => Shape::Affine {
            sym,
            coeff,
            base: None,
        },
        _ => Shape::Any,
    }
}

fn neg_shape(s: Shape) -> Shape {
    match s {
        Shape::Const(c) => Shape::Const(c.wrapping_neg()),
        Shape::Affine { sym, coeff, base } => Shape::Affine {
            sym,
            coeff: coeff.wrapping_neg(),
            base: base.map(|b| b.wrapping_neg()),
        },
        s => s,
    }
}

fn mul_shapes(a: Shape, b: Shape) -> Shape {
    match (a, b) {
        (Shape::Const(x), Shape::Const(y)) => Shape::Const(x.wrapping_mul(y)),
        (Shape::Affine { sym, coeff, base }, Shape::Const(c))
        | (Shape::Const(c), Shape::Affine { sym, coeff, base }) => {
            let coeff = coeff.wrapping_mul(c);
            if coeff == 0 {
                match base {
                    Some(b) => Shape::Const(b.wrapping_mul(c)),
                    None => Shape::Any,
                }
            } else {
                Shape::Affine {
                    sym,
                    coeff,
                    base: base.map(|b| b.wrapping_mul(c)),
                }
            }
        }
        _ => Shape::Any,
    }
}

/// Results of the dataflow + CFG analysis for one program.
pub struct Analysis {
    env: Vec<Abs>,
    /// Per-block: reachable from the entry.
    pub reachable: Vec<bool>,
    /// Per-block: executes under some lane-divergent branch (strictly
    /// inside a tainted branch's divergent region, reconvergence point
    /// excluded).
    pub guarded: Vec<bool>,
    /// Immediate post-dominators (the executor's reconvergence points).
    pub cfg: CfgInfo,
    /// Back edges `(from, to)` under forward dominance (`to` dominates
    /// `from`), i.e. natural-loop latches and their headers.
    pub back_edges: Vec<(u32, u32)>,
    /// Whether the launch has more than one lane (race rules are inert
    /// for single-lane launches).
    pub multi_lane: bool,
}

impl Analysis {
    /// Abstract value of a register.
    pub fn abs(&self, r: Reg) -> Abs {
        self.env.get(r.0 as usize).copied().unwrap_or(Abs::BOTTOM)
    }

    /// Shorthand: may the register differ across lanes?
    pub fn tainted(&self, r: Reg) -> bool {
        self.abs(r).tainted
    }

    /// Inclusive range of values the lane symbol takes in this launch.
    pub fn sym_range(sym: Sym, lanes: u32) -> u32 {
        let lanes = lanes.max(1);
        match sym {
            Sym::Lane => lanes.min(WARP_SIZE),
            Sym::Gid => lanes,
        }
    }

    /// Run the analysis.
    pub fn run(program: &Program, spec: &LaunchSpec) -> Analysis {
        let n = program.blocks().len();
        let cfg = CfgInfo::analyze(program);
        let reachable = reachable_from_entry(program);
        let back_edges = find_back_edges(program, &reachable);

        let mut env = vec![Abs::BOTTOM; program.num_regs() as usize];
        let mut guarded = vec![false; n];

        // Alternate value sweeps with guard-region recomputation until
        // both stabilize. Every step is monotone (values climb a
        // height-3 lattice, the guarded set only grows), so this
        // terminates quickly in practice (a handful of sweeps).
        loop {
            let mut changed = false;
            for (b, block) in program.blocks().iter().enumerate() {
                if !reachable[b] {
                    continue;
                }
                for op in &block.ops {
                    let mut v = transfer(op, &env, spec);
                    if guarded[b] {
                        // Implicit flow: a def under a divergent branch
                        // may or may not execute per lane.
                        v.tainted = true;
                    }
                    if let Some(dst) = op.dst() {
                        let slot = &mut env[dst.0 as usize];
                        let joined = slot.join(v);
                        if joined != *slot {
                            *slot = joined;
                            changed = true;
                        }
                    }
                }
            }
            let new_guarded = guarded_blocks(program, &cfg, &reachable, &env);
            if new_guarded != guarded {
                guarded = new_guarded;
                changed = true;
            }
            if !changed {
                break;
            }
        }

        Analysis {
            env,
            reachable,
            guarded,
            cfg,
            back_edges,
            multi_lane: spec.lanes > 1,
        }
    }
}

fn transfer(op: &Op, env: &[Abs], spec: &LaunchSpec) -> Abs {
    let get = |r: Reg| env.get(r.0 as usize).copied().unwrap_or(Abs::BOTTOM);
    match *op {
        Op::Imm { value, .. } => Abs::konst(value),
        Op::Mov { src, .. } => get(src),
        Op::LaneId { .. } => Abs::affine(Sym::Lane, 1, Some(0)),
        Op::GlobalId { .. } => Abs::affine(Sym::Gid, 1, Some(0)),
        Op::Param { index, .. } => match &spec.params {
            Some(p) => match p.get(index as usize) {
                Some(&v) => Abs::konst(v),
                // Out-of-range: the bounds pass reports it; the value
                // itself never materializes (launch faults first).
                None => Abs::any(false),
            },
            None => Abs::any(false),
        },
        Op::Ld { space, addr, .. } => {
            use rhythm_simt::ir::MemSpace;
            let a = get(addr);
            if a.shape == Shape::Bottom {
                return Abs::BOTTOM;
            }
            match space {
                // Read-only broadcast memory: a uniform address yields a
                // uniform value.
                MemSpace::Const => Abs::any(a.tainted),
                // Global/Shared contents may have been written per-lane;
                // Local is private per-lane state. All lane-varying.
                _ => Abs::any(true),
            }
        }
        Op::St { .. } => Abs::BOTTOM, // no dst
        Op::Bin { op, a, b, .. } => {
            let (x, y) = (get(a), get(b));
            if x.shape == Shape::Bottom || y.shape == Shape::Bottom {
                return Abs::BOTTOM;
            }
            let shape = match op {
                BinOp::Add => add_shapes(x.shape, y.shape),
                BinOp::Sub => add_shapes(x.shape, neg_shape(y.shape)),
                BinOp::Mul => mul_shapes(x.shape, y.shape),
                // A constant left shift is multiplication by a power of
                // two modulo 2³², which distributes over affine forms.
                BinOp::Shl => {
                    if let Shape::Const(k) = y.shape {
                        mul_shapes(x.shape, Shape::Const(1u32.wrapping_shl(k)))
                    } else {
                        Shape::Any
                    }
                }
                other => match (x.shape, y.shape) {
                    (Shape::Const(p), Shape::Const(q)) => Shape::Const(other.eval(p, q)),
                    _ => Shape::Any,
                },
            };
            let tainted = match shape {
                Shape::Const(_) if !x.tainted && !y.tainted => false,
                Shape::Affine { .. } => true,
                _ => x.tainted || y.tainted,
            };
            Abs { shape, tainted }
        }
        Op::Un { op, a, .. } => {
            let x = get(a);
            if x.shape == Shape::Bottom {
                return Abs::BOTTOM;
            }
            match x.shape {
                Shape::Const(c) => Abs::konst(op.eval(c)),
                _ => Abs::any(x.tainted),
            }
        }
        // Butterfly reduction broadcasts one value to every active lane
        // of the warp: warp-uniform (taint tracks intra-warp divergence).
        Op::WarpRedMax { src, .. } => {
            let x = get(src);
            if x.shape == Shape::Bottom {
                Abs::BOTTOM
            } else {
                Abs::any(false)
            }
        }
        // Old value at a contended location: serialization order makes it
        // lane-dependent by construction.
        Op::AtomicAdd { .. } => Abs::any(true),
    }
}

/// Blocks reachable from the entry.
pub fn reachable_from_entry(program: &Program) -> Vec<bool> {
    let n = program.blocks().len();
    let mut seen = vec![false; n];
    let mut stack = vec![program.entry() as usize];
    while let Some(b) = stack.pop() {
        if seen[b] {
            continue;
        }
        seen[b] = true;
        for s in program.blocks()[b].term.successors() {
            stack.push(s as usize);
        }
    }
    seen
}

/// Back edges `(latch, header)` of the reachable CFG under forward
/// dominance: edge `u -> v` where `v` dominates `u`.
fn find_back_edges(program: &Program, reachable: &[bool]) -> Vec<(u32, u32)> {
    let n = program.blocks().len();
    // Iterative bitset dominator computation (forward CFG).
    let words = n.div_ceil(64);
    let full = vec![u64::MAX; words];
    let mut dom: Vec<Vec<u64>> = vec![full; n];
    let entry = program.entry() as usize;
    dom[entry] = vec![0; words];
    dom[entry][entry / 64] |= 1 << (entry % 64);

    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (b, block) in program.blocks().iter().enumerate() {
        if !reachable[b] {
            continue;
        }
        for s in block.term.successors() {
            preds[s as usize].push(b);
        }
    }

    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..n {
            if b == entry || !reachable[b] {
                continue;
            }
            let mut inter = vec![u64::MAX; words];
            let mut any_pred = false;
            for &p in &preds[b] {
                any_pred = true;
                for (w, i) in inter.iter_mut().enumerate() {
                    *i &= dom[p][w];
                }
            }
            if !any_pred {
                continue;
            }
            inter[b / 64] |= 1 << (b % 64);
            if inter != dom[b] {
                dom[b] = inter;
                changed = true;
            }
        }
    }

    let dominates = |v: usize, u: usize| dom[u][v / 64] & (1 << (v % 64)) != 0;
    let mut edges = Vec::new();
    for (u, block) in program.blocks().iter().enumerate() {
        if !reachable[u] {
            continue;
        }
        for s in block.term.successors() {
            let v = s as usize;
            if reachable[v] && dominates(v, u) {
                edges.push((u as u32, v as u32));
            }
        }
    }
    edges
}

/// Blocks strictly inside the divergent region of some tainted branch:
/// reachable from either branch target without passing through the
/// branch's reconvergence point (the region is unbounded when the branch
/// reconverges only at kernel exit).
fn guarded_blocks(program: &Program, cfg: &CfgInfo, reachable: &[bool], env: &[Abs]) -> Vec<bool> {
    let n = program.blocks().len();
    let mut guarded = vec![false; n];
    for (b, block) in program.blocks().iter().enumerate() {
        if !reachable[b] {
            continue;
        }
        let Terminator::Br { cond, .. } = block.term else {
            continue;
        };
        let tainted = env.get(cond.0 as usize).map(|a| a.tainted).unwrap_or(false);
        if !tainted {
            continue;
        }
        let stop = cfg.try_ipdom(b as u32).unwrap_or(EXIT_BLOCK);
        let mut stack: Vec<usize> = block
            .term
            .successors()
            .iter()
            .map(|&s| s as usize)
            .collect();
        let mut seen = vec![false; n];
        while let Some(x) = stack.pop() {
            if x as u32 == stop || seen[x] {
                continue;
            }
            seen[x] = true;
            guarded[x] = true;
            for s in program.blocks()[x].term.successors() {
                stack.push(s as usize);
            }
        }
    }
    guarded
}
