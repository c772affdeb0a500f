//! Kernel memory-effect summaries: per-space read/write/atomic footprints.
//!
//! This is the analyzer's answer to "what memory does this kernel touch?",
//! computed once per (program, launch environment) and consumed by the
//! `kernel_lint` tool (footprints and the session-writer column CI
//! checks) and, through [`crate::Verifier::effects`], the runtime
//! footprint sanitizer the cohort runner arms in the plan executor.
//!
//! # The region domain
//!
//! Every global/shared/local/const access is abstracted as a symbolic
//! strided [`Region`]: the address pattern `lo + lane·lane_stride +
//! gid·gid_stride`, materialized over the launch's lane/gid ranges as the
//! byte interval `[lo, hi)`. Regions come in two precision tiers:
//!
//! * **Exact** — the address decomposes entirely into known constants and
//!   lane/gid-affine terms (over the [`crate::dataflow`] domain), so
//!   `[lo, hi)` is the exact closure of the pattern.
//! * **Claimed** — the decomposition contains a data-dependent additive
//!   term (a loaded value, a hash, a cursor position). Unsigned terms are
//!   nonnegative, so the *lower* bound (sum of the known terms' minima) is
//!   sound modulo u32 wrap; the *upper* bound is a **claim**: the end of
//!   the enclosing declared region from the caller's [`RegionMap`] (e.g.
//!   "cursor writes stay inside the response buffer"), or the space extent
//!   when no declared region contains `lo`. Claims are exactly what the
//!   runtime footprint sanitizer discharges: every executed access is
//!   checked against the claimed footprint, so an escape is a loud
//!   soundness failure rather than a silently wrong proof.
//!
//! When an access has neither a decomposable address nor an anchor nor a
//! known extent, the whole (space, kind) footprint collapses to an
//! explicit ⊤ ([`SpaceFootprint::Top`]): the kernel may touch anything,
//! and every disjointness query involving it conservatively fails.

use std::sync::Arc;

use rhythm_simt::exec::FootprintSpec;
use rhythm_simt::ir::{BinOp, MemSpace, Op, Program, Reg, Width};

pub use rhythm_simt::exec::AccessKind;

use crate::dataflow::{Analysis, Shape, Sym};
use crate::rules::rule_id;
use crate::{Diagnostic, LaunchSpec, Severity};

/// Strides (and the decomposition chain generally) are only trusted below
/// this bound: a coefficient of 2³¹ or more is indistinguishable from a
/// negative stride under wrapping u32 arithmetic, so such terms are
/// treated as data-dependent instead.
const MAX_COEFF: u32 = 1 << 31;

/// Recursion bound for the address-decomposition walk; chains deeper than
/// this degrade to a data-dependent leaf.
const MAX_DEPTH: u32 = 64;

/// One symbolic strided region of a footprint: the access pattern
/// `lo + lane·lane_stride + gid·gid_stride` (each symbol ranging over the
/// launch per [`Analysis::sym_range`]), materialized as the byte interval
/// `[lo, hi)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Region {
    /// Lowest byte the pattern can touch. For claimed regions this is the
    /// sum of the known terms' minima (sound modulo u32 wrap).
    pub lo: u64,
    /// One past the highest byte. For exact regions, the closure of the
    /// pattern; for claimed regions, the end of the enclosing declared
    /// region (or the space extent).
    pub hi: u64,
    /// Known per-lane stride of the pattern (0 when lane-invariant).
    pub lane_stride: u32,
    /// Known per-global-id stride of the pattern (0 when gid-invariant).
    pub gid_stride: u32,
    /// Bytes per access (1 or 4).
    pub width: u32,
    /// `true` when `[lo, hi)` is exactly the closure of the pattern;
    /// `false` when `hi` is a claim discharged by the runtime sanitizer.
    pub exact: bool,
}

impl Region {
    /// Does this region's interval overlap `[lo, hi)`?
    pub fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.lo < hi && lo < self.hi
    }
}

/// The footprint of one (memory space, access kind) pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SpaceFootprint {
    /// Unknown: the kernel may touch any byte of the space.
    Top,
    /// The union of these regions (empty = provably no such accesses).
    Regions(Vec<Region>),
}

impl Default for SpaceFootprint {
    fn default() -> Self {
        SpaceFootprint::Regions(Vec::new())
    }
}

impl SpaceFootprint {
    /// Is this the ⊤ fallback?
    pub fn is_top(&self) -> bool {
        matches!(self, SpaceFootprint::Top)
    }

    /// Provably no accesses of this kind in this space?
    pub fn is_empty(&self) -> bool {
        matches!(self, SpaceFootprint::Regions(r) if r.is_empty())
    }

    /// Any region whose `[lo, hi)` is a claim rather than an exact
    /// closure?
    pub fn has_claimed(&self) -> bool {
        match self {
            SpaceFootprint::Top => false,
            SpaceFootprint::Regions(r) => r.iter().any(|g| !g.exact),
        }
    }

    /// The regions, when not ⊤.
    pub fn regions(&self) -> Option<&[Region]> {
        match self {
            SpaceFootprint::Top => None,
            SpaceFootprint::Regions(r) => Some(r),
        }
    }

    /// May this footprint touch a byte in `[lo, hi)`? ⊤ touches
    /// everything (non-empty); an empty range is never touched.
    pub fn overlaps_range(&self, lo: u64, hi: u64) -> bool {
        if hi <= lo {
            return false;
        }
        match self {
            SpaceFootprint::Top => true,
            SpaceFootprint::Regions(r) => r.iter().any(|g| g.overlaps(lo, hi)),
        }
    }

    /// The materialized byte intervals, or `None` for ⊤. Not normalized;
    /// [`FootprintSpec::new`] normalizes on lowering.
    pub fn intervals(&self) -> Option<Vec<(u64, u64)>> {
        self.regions()
            .map(|r| r.iter().map(|g| (g.lo, g.hi)).collect())
    }

    fn add(&mut self, region: Region) {
        if let SpaceFootprint::Regions(r) = self {
            if !r.contains(&region) {
                r.push(region);
            }
        }
    }

    fn join(&mut self, other: &SpaceFootprint) {
        match other {
            SpaceFootprint::Top => *self = SpaceFootprint::Top,
            SpaceFootprint::Regions(rs) => {
                for g in rs {
                    self.add(g.clone());
                }
            }
        }
    }
}

/// Read/write/atomic footprints of one memory space.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SpaceEffects {
    /// Bytes the kernel may load.
    pub reads: SpaceFootprint,
    /// Bytes the kernel may store.
    pub writes: SpaceFootprint,
    /// Bytes the kernel may read-modify-write atomically.
    pub atomics: SpaceFootprint,
}

impl SpaceEffects {
    /// Footprint of one access kind.
    pub fn of(&self, kind: AccessKind) -> &SpaceFootprint {
        match kind {
            AccessKind::Read => &self.reads,
            AccessKind::Write => &self.writes,
            AccessKind::Atomic => &self.atomics,
        }
    }

    fn of_mut(&mut self, kind: AccessKind) -> &mut SpaceFootprint {
        match kind {
            AccessKind::Read => &mut self.reads,
            AccessKind::Write => &mut self.writes,
            AccessKind::Atomic => &mut self.atomics,
        }
    }

    /// May the kernel mutate (write or atomically update) a byte in
    /// `[lo, hi)` of this space?
    pub fn mutates_range(&self, lo: u64, hi: u64) -> bool {
        self.writes.overlaps_range(lo, hi) || self.atomics.overlaps_range(lo, hi)
    }
}

/// The full effect summary of one kernel under one launch environment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KernelEffects {
    /// Name of the summarized program.
    pub program: String,
    spaces: [SpaceEffects; 4],
}

fn space_index(space: MemSpace) -> usize {
    match space {
        MemSpace::Global => 0,
        MemSpace::Shared => 1,
        MemSpace::Const => 2,
        MemSpace::Local => 3,
    }
}

impl KernelEffects {
    /// The footprints of one memory space.
    pub fn space(&self, space: MemSpace) -> &SpaceEffects {
        &self.spaces[space_index(space)]
    }

    /// Is any (space, kind) footprint the ⊤ fallback?
    pub fn is_top_anywhere(&self) -> bool {
        self.spaces
            .iter()
            .any(|s| s.reads.is_top() || s.writes.is_top() || s.atomics.is_top())
    }

    /// Does any footprint carry a sanitizer-discharged claim?
    pub fn has_claimed(&self) -> bool {
        self.spaces
            .iter()
            .any(|s| s.reads.has_claimed() || s.writes.has_claimed() || s.atomics.has_claimed())
    }

    /// May the kernel mutate a byte in `[lo, hi)` of `space`? This is the
    /// session-array query behind `kernel_lint`'s session-writer column.
    pub fn mutates(&self, space: MemSpace, lo: u64, hi: u64) -> bool {
        self.space(space).mutates_range(lo, hi)
    }

    /// Join `other` into this summary (union of regions, ⊤ absorbing).
    /// Used to merge summaries of one kernel across several launch
    /// environments.
    pub fn join(&mut self, other: &KernelEffects) {
        for (mine, theirs) in self.spaces.iter_mut().zip(&other.spaces) {
            mine.reads.join(&theirs.reads);
            mine.writes.join(&theirs.writes);
            mine.atomics.join(&theirs.atomics);
        }
    }

    /// Lower the **global-space** summary to the executor's claimed
    /// footprint for the runtime sanitizer. ⊤ footprints lower to
    /// unrestricted claims (the sanitizer cannot check what the analyzer
    /// could not bound).
    pub fn footprint_spec(&self) -> FootprintSpec {
        let g = self.space(MemSpace::Global);
        FootprintSpec::new(
            g.reads.intervals(),
            g.writes.intervals(),
            g.atomics.intervals(),
        )
    }
}

/// Declared memory regions of a launch's **global** space: disjoint
/// `[lo, hi)` byte spans (e.g. the banking cohort layout's buffers) used
/// to anchor the upper bound of data-dependent accesses. An empty map
/// disables anchoring, so data-dependent addresses fall back to the space
/// extent (or ⊤).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RegionMap {
    spans: Vec<(u64, u64)>,
}

impl RegionMap {
    /// Build a map from `[lo, hi)` spans; empty spans are dropped and the
    /// rest sorted. Spans are expected to be disjoint (a declared layout).
    pub fn new(mut spans: Vec<(u64, u64)>) -> Self {
        spans.retain(|&(lo, hi)| hi > lo);
        spans.sort_unstable();
        RegionMap { spans }
    }

    /// The declared span containing `addr`, if any.
    pub fn enclosing(&self, addr: u64) -> Option<(u64, u64)> {
        let i = self.spans.partition_point(|&(lo, _)| lo <= addr);
        (i > 0 && self.spans[i - 1].1 > addr).then(|| self.spans[i - 1])
    }

    /// The declared spans, sorted.
    pub fn spans(&self) -> &[(u64, u64)] {
        &self.spans
    }

    /// Stable hash of the spans, for cache keys.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.spans.hash(&mut h);
        h.finish()
    }
}

/// An address decomposed into `base + lane·lane + gid·gid (+ unknown ≥ 0)`.
/// All components are exact sums of the known terms; `unknown` records
/// whether any data-dependent (but still nonnegative) term was dropped.
#[derive(Copy, Clone, Default)]
struct Parts {
    base: u64,
    lane: u64,
    gid: u64,
    unknown: bool,
}

impl Parts {
    const UNKNOWN: Parts = Parts {
        base: 0,
        lane: 0,
        gid: 0,
        unknown: true,
    };

    fn add(self, o: Parts) -> Parts {
        Parts {
            base: self.base.saturating_add(o.base),
            lane: self.lane.saturating_add(o.lane),
            gid: self.gid.saturating_add(o.gid),
            unknown: self.unknown || o.unknown,
        }
    }

    fn scale(self, c: u32) -> Parts {
        if c == 0 {
            // 0·(known + unknown) = 0 exactly, even for unknown terms.
            return Parts::default();
        }
        Parts {
            base: self.base.saturating_mul(c as u64),
            lane: self.lane.saturating_mul(c as u64),
            gid: self.gid.saturating_mul(c as u64),
            unknown: self.unknown,
        }
    }
}

/// Unique-definition map: for each register, its single defining op, or
/// `None` when it has zero or several defs (then only the joined abstract
/// value is trusted).
fn unique_defs(program: &Program, reachable: &[bool]) -> Vec<Option<Op>> {
    #[derive(Clone, PartialEq)]
    enum D {
        None,
        One(Op),
        Many,
    }
    let mut defs = vec![D::None; program.num_regs() as usize];
    for (b, block) in program.blocks().iter().enumerate() {
        if !reachable.get(b).copied().unwrap_or(false) {
            continue;
        }
        for op in &block.ops {
            if let Some(dst) = op.dst() {
                let slot = &mut defs[dst.0 as usize];
                *slot = match slot {
                    D::None => D::One(op.clone()),
                    _ => D::Many,
                };
            }
        }
    }
    defs.into_iter()
        .map(|d| match d {
            D::One(op) => Some(op),
            _ => None,
        })
        .collect()
}

struct Inference<'a> {
    an: &'a Analysis,
    defs: &'a [Option<Op>],
    spec: &'a LaunchSpec,
}

impl Inference<'_> {
    /// Decompose a register's value into [`Parts`]. Sound modulo u32
    /// wrap: the runtime value is `base + lane·l + gid·g + u` for some
    /// nonnegative `u` (zero unless `unknown`), as long as no
    /// intermediate u32 arithmetic wrapped. The wrap caveat is exactly
    /// what the bounds rules and the runtime sanitizer cover.
    fn resolve(&self, reg: Reg, depth: u32) -> Parts {
        // Abstract-value fast path: a fully known shape needs no walk,
        // and is also the only sound answer for multi-def registers.
        let abs = self.an.abs(reg);
        match abs.shape {
            Shape::Const(c) => {
                return Parts {
                    base: c as u64,
                    ..Parts::default()
                }
            }
            Shape::Affine {
                sym,
                coeff,
                base: Some(b),
            } if coeff < MAX_COEFF => {
                let mut p = Parts {
                    base: b as u64,
                    ..Parts::default()
                };
                match sym {
                    Sym::Lane => p.lane = coeff as u64,
                    Sym::Gid => p.gid = coeff as u64,
                }
                return p;
            }
            _ => {}
        }
        if depth >= MAX_DEPTH {
            return Parts::UNKNOWN;
        }
        let Some(op) = self.defs.get(reg.0 as usize).and_then(|d| d.as_ref()) else {
            // Zero or several defs: keep the joined stride when the shape
            // is affine with unknown base (min of the unknown uniform
            // base is 0), else a plain unknown leaf.
            return match abs.shape {
                Shape::Affine { sym, coeff, .. } if coeff < MAX_COEFF => {
                    let mut p = Parts::UNKNOWN;
                    match sym {
                        Sym::Lane => p.lane = coeff as u64,
                        Sym::Gid => p.gid = coeff as u64,
                    }
                    p
                }
                _ => Parts::UNKNOWN,
            };
        };
        match *op {
            Op::Mov { src, .. } => self.resolve(src, depth + 1),
            Op::Bin { op, a, b, .. } => {
                let konst = |r: Reg| match self.an.abs(r).shape {
                    Shape::Const(c) => Some(c),
                    _ => None,
                };
                match op {
                    BinOp::Add => self.resolve(a, depth + 1).add(self.resolve(b, depth + 1)),
                    BinOp::Mul => match (konst(a), konst(b)) {
                        (Some(c), _) if c < MAX_COEFF => self.resolve(b, depth + 1).scale(c),
                        (_, Some(c)) if c < MAX_COEFF => self.resolve(a, depth + 1).scale(c),
                        _ => Parts::UNKNOWN,
                    },
                    BinOp::Shl => match konst(b) {
                        Some(k) => {
                            let c = 1u32.wrapping_shl(k);
                            if c != 0 && c < MAX_COEFF {
                                self.resolve(a, depth + 1).scale(c)
                            } else {
                                Parts::UNKNOWN
                            }
                        }
                        None => Parts::UNKNOWN,
                    },
                    BinOp::Sub => {
                        // Only a provably in-range constant subtrahend
                        // from an exact minuend keeps nonnegativity.
                        match konst(b) {
                            Some(c) => {
                                let p = self.resolve(a, depth + 1);
                                if !p.unknown && p.base >= c as u64 {
                                    Parts {
                                        base: p.base - c as u64,
                                        ..p
                                    }
                                } else {
                                    Parts::UNKNOWN
                                }
                            }
                            None => Parts::UNKNOWN,
                        }
                    }
                    _ => Parts::UNKNOWN,
                }
            }
            // Everything else (loads, atomics, Param with unknown vector,
            // reductions) is a data-dependent-but-unsigned leaf.
            _ => Parts::UNKNOWN,
        }
    }

    /// Turn one access into a region, or `None` for the ⊤ fallback.
    fn access_region(
        &self,
        space: MemSpace,
        addr: Reg,
        offset: u32,
        width: Width,
        regions: &RegionMap,
    ) -> Option<Region> {
        let p = self.resolve(addr, 0);
        let lanes = self.spec.lanes;
        let lane_n = Analysis::sym_range(Sym::Lane, lanes) as u64;
        let gid_n = Analysis::sym_range(Sym::Gid, lanes) as u64;
        let lo = p.base.saturating_add(offset as u64);
        let span = p
            .lane
            .saturating_mul(lane_n - 1)
            .saturating_add(p.gid.saturating_mul(gid_n - 1));
        let wb = width.bytes() as u64;
        let hi;
        let exact;
        if !p.unknown {
            hi = lo.saturating_add(span).saturating_add(wb);
            exact = true;
        } else if space == MemSpace::Global {
            if let Some((_, end)) = regions.enclosing(lo) {
                hi = end;
                exact = false;
            } else if let Some(extent) = self.spec.extent(space) {
                hi = extent;
                exact = false;
            } else {
                return None;
            }
        } else if let Some(extent) = self.spec.extent(space) {
            hi = extent;
            exact = false;
        } else {
            return None;
        }
        Some(Region {
            lo,
            hi,
            lane_stride: p.lane.min(u32::MAX as u64) as u32,
            gid_stride: p.gid.min(u32::MAX as u64) as u32,
            width: width.bytes(),
            exact,
        })
    }
}

/// Walk every reachable memory access of `program`, yielding
/// `(block, op_index, space, kind, width, region)` with `region == None`
/// for the ⊤ fallback. Shared by [`infer_effects`] and [`effect_lints`].
fn walk_accesses(
    program: &Program,
    spec: &LaunchSpec,
    regions: &RegionMap,
    mut f: impl FnMut(u32, usize, MemSpace, AccessKind, Width, Option<Region>),
) {
    let an = Analysis::run(program, spec);
    let defs = unique_defs(program, &an.reachable);
    let inf = Inference {
        an: &an,
        defs: &defs,
        spec,
    };
    for (b, block) in program.blocks().iter().enumerate() {
        if !an.reachable.get(b).copied().unwrap_or(false) {
            continue;
        }
        for (i, op) in block.ops.iter().enumerate() {
            let (space, kind, addr, offset, width) = match *op {
                Op::Ld {
                    width,
                    space,
                    addr,
                    offset,
                    ..
                } => (space, AccessKind::Read, addr, offset, width),
                Op::St {
                    width,
                    space,
                    addr,
                    offset,
                    ..
                } => (space, AccessKind::Write, addr, offset, width),
                Op::AtomicAdd {
                    space,
                    addr,
                    offset,
                    ..
                } => (space, AccessKind::Atomic, addr, offset, Width::Word),
                _ => continue,
            };
            let region = inf.access_region(space, addr, offset, width, regions);
            f(b as u32, i, space, kind, width, region);
        }
    }
}

/// Infer the effect summary of `program` under `spec`, anchoring
/// data-dependent global addresses to the declared `regions`.
pub fn infer_effects(program: &Program, spec: &LaunchSpec, regions: &RegionMap) -> KernelEffects {
    let mut out = KernelEffects {
        program: program.name().to_string(),
        spaces: Default::default(),
    };
    walk_accesses(program, spec, regions, |_, _, space, kind, _, region| {
        let fp = out.spaces[space_index(space)].of_mut(kind);
        match region {
            Some(r) => fp.add(r),
            None => *fp = SpaceFootprint::Top,
        }
    });
    out
}

/// Summary-powered lints: a warning for every access that degrades a
/// footprint to ⊤, and an error for every *exact* region that provably
/// exceeds the declared space extent.
pub fn effect_lints(program: &Program, spec: &LaunchSpec, regions: &RegionMap) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    walk_accesses(
        program,
        spec,
        regions,
        |b, i, space, kind, _, region| match region {
            None => out.push(Diagnostic {
                severity: Severity::Warning,
                rule: rule_id::EFFECTS_TOP,
                block: Some(b),
                op_index: Some(i),
                message: format!(
                    "{kind} address in {space:?} is data-dependent with no enclosing \
                     declared region and no known extent; footprint degrades to ⊤"
                ),
            }),
            Some(r) if r.exact => {
                if let Some(extent) = spec.extent(space) {
                    if r.hi > extent {
                        out.push(Diagnostic {
                            severity: Severity::Error,
                            rule: rule_id::EFFECTS_OOB,
                            block: Some(b),
                            op_index: Some(i),
                            message: format!(
                                "inferred {kind} region [{}, {}) exceeds the {space:?} \
                                 extent of {extent} bytes",
                                r.lo, r.hi
                            ),
                        });
                    }
                }
            }
            Some(_) => {}
        },
    );
    out
}

/// A cached effect summary plus its lowered sanitizer spec, as returned
/// by [`crate::Verifier::effects`].
#[derive(Debug)]
pub struct CachedEffects {
    /// The inferred summary.
    pub effects: KernelEffects,
    /// [`KernelEffects::footprint_spec`], lowered once and shared.
    pub footprint: Arc<FootprintSpec>,
}

impl CachedEffects {
    /// Build from a freshly inferred summary.
    pub fn new(effects: KernelEffects) -> Self {
        let footprint = Arc::new(effects.footprint_spec());
        CachedEffects { effects, footprint }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_simt::ir::ProgramBuilder;

    fn spec(lanes: u32, global: u64) -> LaunchSpec {
        LaunchSpec {
            global_bytes: Some(global),
            ..LaunchSpec::lanes(lanes)
        }
    }

    #[test]
    fn exact_strided_store() {
        let mut b = ProgramBuilder::new("strided");
        let gid = b.global_id();
        let four = b.imm(4);
        let addr = b.bin(BinOp::Mul, gid, four);
        let v = b.imm(7);
        b.st_global_word(addr, 16, v);
        b.halt();
        let p = b.build().unwrap();
        let fx = infer_effects(&p, &spec(8, 4096), &RegionMap::default());
        let w = fx.space(MemSpace::Global).writes.regions().unwrap();
        assert_eq!(
            w,
            &[Region {
                lo: 16,
                hi: 16 + 7 * 4 + 4,
                lane_stride: 0,
                gid_stride: 4,
                width: 4,
                exact: true,
            }]
        );
        assert!(!fx.is_top_anywhere());
    }

    #[test]
    fn data_dependent_store_anchors_or_tops() {
        let mut b = ProgramBuilder::new("indirect");
        let gid = b.global_id();
        let four = b.imm(4);
        let slot = b.bin(BinOp::Mul, gid, four);
        let v = b.ld_global_word(slot, 0);
        let one = b.imm(1);
        b.st_global_word(v, 0, one);
        b.halt();
        let p = b.build().unwrap();

        // No extent, no regions: ⊤.
        let fx = infer_effects(&p, &LaunchSpec::lanes(4), &RegionMap::default());
        assert!(fx.space(MemSpace::Global).writes.is_top());

        // Extent known: claimed region over the whole space.
        let fx = infer_effects(&p, &spec(4, 1 << 20), &RegionMap::default());
        let w = fx.space(MemSpace::Global).writes.regions().unwrap();
        assert_eq!((w[0].lo, w[0].hi, w[0].exact), (0, 1 << 20, false));

        // Declared region containing the anchor: claimed within it.
        let fx = infer_effects(&p, &spec(4, 1 << 20), &RegionMap::new(vec![(0, 256)]));
        let w = fx.space(MemSpace::Global).writes.regions().unwrap();
        assert_eq!((w[0].lo, w[0].hi, w[0].exact), (0, 256, false));
    }
}
