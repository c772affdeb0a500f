//! SIMT executor: warps of 32 lanes in lockstep with stack-based
//! reconvergence and a memory-coalescing transaction model.
//!
//! This is the substitute for real CUDA hardware: it executes the same
//! kernel IR the scalar executor runs, but 32 lanes at a time, charging
//! * one issue cycle per warp instruction (the SIMT amortization win),
//! * one extra cycle per global-memory transaction after coalescing
//!   lane addresses into aligned segments (the data-layout effect), and
//! * serialization cycles for divergent constant reads and same-address
//!   atomics.
//!
//! Divergent branches push entries onto a per-warp reconvergence stack and
//! rejoin at the branch block's immediate post-dominator, the scheme used
//! by real hardware and by GPGPU-Sim.
//!
//! This module is the **pre-decoded engine** ([`execute_simt`]): it runs
//! [`ExecPlan`]s — flat decoded-op arrays with SoA register addressing
//! (`regs[r * 32 + lane]`), decode-time reconvergence points, convergent
//! full-mask fast paths that process a register's 32 contiguous lanes in
//! straight auto-vectorizable loops, masked ALU, move and branch loops
//! that stop at the highest active lane (a 1-request cohort pays for one
//! lane, not 32), and per-warp buffers leased from a process-wide
//! [`warp arena`](warp_arena_stats) so steady-state launches allocate
//! nothing. The warp scheduler and the memory cost model defined here are
//! also what the legacy masked engine ([`super::legacy`], the
//! differential-testing oracle and `bench_kernels` baseline) runs on, so
//! the two produce bit-identical memory, stats, and errors.
//!
//! A launch runs its warps one after another, in warp order, on the
//! caller's thread. On the modelled device warps run in parallel; here
//! that parallelism is the timing model's business ([`crate::gpu`]), and
//! serial execution makes every result, faults included, a function of
//! the launch alone.

use std::sync::{Mutex, OnceLock};

use rhythm_obs::{
    ArgValue, CacheCounters, CacheSnapshot, Clock, PoolCounters, PoolSnapshot, Recorder,
};

use crate::ir::{BinOp, MemSpace, Program, UnOp, Width, EXIT_BLOCK};
use crate::mem::{ConstPool, DeviceMemory, DeviceView, MemError};
use crate::stats::KernelStats;

use super::plan::{plan_for, DecodedOp, DecodedTerm, ExecPlan, RegSlot, WideCopy};
use super::scalar::{read_buf, write_buf};
use super::{AccessKind, ExecError, LaunchConfig, WARP_SIZE};

/// DRAM sector granularity for traffic accounting (GDDR5 32-byte sectors).
pub const SECTOR_BYTES: u32 = 32;

/// Memory-transaction size of the modelled device's coalescing unit (the
/// GTX Titan's 128-byte line). A power of two no smaller than a sector, so
/// a transaction id is a sector id shifted right.
pub const TX_BYTES: u32 = 128;

/// [`WARP_SIZE`] as a usize, for slice arithmetic.
pub(super) const LANES: usize = WARP_SIZE as usize;

/// One entry of the per-warp reconvergence stack.
#[derive(Copy, Clone, Debug)]
pub(super) struct StackEntry {
    /// Next block to execute for this entry's lanes.
    pub(super) block: u32,
    /// Active lanes (bit i = lane i of the warp).
    pub(super) mask: u32,
    /// Block at which this entry pops and its lanes rejoin the entry
    /// below; [`EXIT_BLOCK`] for the bottom entry and branches whose paths
    /// only rejoin at kernel exit.
    pub(super) reconv: u32,
}

/// Execute a kernel launch on the SIMT engine, its warps in warp order on
/// the caller's thread.
///
/// Lanes within a warp run in lockstep; the warps' cycle counts are
/// combined by the device timing model in [`crate::gpu`]. The launch runs
/// on the pre-decoded engine: the program's [`ExecPlan`] is fetched from
/// (or inserted into) the process-wide decode cache, so repeated launches
/// of the same kernel skip decode and CFG analysis entirely.
///
/// With an enabled recorder each warp becomes a wall-time span on the
/// `simt:warps` track named `"<kernel> warp <w>"`, carrying instruction,
/// divergence, and cycle counters as span args, plus `warp_cycles` and
/// `warp_exec_ns` streaming histogram samples. Tracing never touches
/// execution state: pass [`rhythm_obs::NoopRecorder`] and the results are
/// bit-identical.
///
/// # Errors
///
/// Fails on memory faults, missing params, a tripped instruction budget,
/// or a divergence-stack invariant violation (which would indicate a bug).
/// The launch stops at the first faulting warp and returns its error: the
/// warps before it have run to completion and their stores stay in `mem`,
/// and no warp after it has run.
///
/// # Example
///
/// ```
/// use rhythm_obs::NoopRecorder;
/// use rhythm_simt::ir::{ProgramBuilder, BinOp};
/// use rhythm_simt::exec::{simt::execute_simt, LaunchConfig};
/// use rhythm_simt::mem::{ConstPool, DeviceMemory};
///
/// // Every lane stores its global id to global[id*4].
/// let mut b = ProgramBuilder::new("ids");
/// let g = b.global_id();
/// let four = b.imm(4);
/// let addr = b.bin(BinOp::Mul, g, four);
/// b.st_global_word(addr, 0, g);
/// b.halt();
/// let p = b.build()?;
///
/// let mut mem = DeviceMemory::new(64 * 4);
/// let pool = ConstPool::new();
/// let cfg = LaunchConfig::new(64, []);
/// let stats = execute_simt(&p, &cfg, &mut mem, &pool, &NoopRecorder)?;
/// assert_eq!(stats.warps, 2);
/// assert_eq!(mem.read_word(63 * 4)?, 63);
/// assert!(stats.simd_efficiency(32) > 0.99, "no divergence here");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn execute_simt<R: Recorder + ?Sized>(
    program: &Program,
    cfg: &LaunchConfig,
    mem: &mut DeviceMemory,
    pool: &ConstPool,
    rec: &R,
) -> Result<KernelStats, ExecError> {
    execute_plan(&plan_for(program), cfg, mem, pool, rec)
}

/// [`execute_simt`] on a pre-decoded [`ExecPlan`] the caller already holds.
/// Per-warp register files and scratch buffers are leased from the
/// process-wide warp arena, making steady-state launches allocation-free
/// (see [`warp_arena_stats`]).
pub(crate) fn execute_plan<R: Recorder + ?Sized>(
    plan: &ExecPlan,
    cfg: &LaunchConfig,
    mem: &mut DeviceMemory,
    pool: &ConstPool,
    rec: &R,
) -> Result<KernelStats, ExecError> {
    let mut gmem = mem.view();
    let mut lease = WarpLease::acquire();
    dispatch_warps(cfg, plan.name(), rec, |base, count| {
        run_plan_warp(plan, cfg, &mut gmem, pool, lease.bufs(), base, count)
    })
}

/// Emit one per-warp wall-time span on the `simt:warps` track. The
/// recorder only *observes* execution (the stats are copied out after the
/// warp finishes), so traced and untraced runs stay bit-identical.
fn trace_warp<R: Recorder + ?Sized>(
    rec: &R,
    kernel: &str,
    warp: u32,
    start_us: f64,
    result: &Result<KernelStats, ExecError>,
) {
    let dur_us = rec.wall_now_us() - start_us;
    match result {
        Ok(s) => {
            rec.span(
                Clock::Wall,
                "simt:warps",
                &format!("{kernel} warp {warp}"),
                start_us,
                dur_us,
                &[
                    ("warp", ArgValue::U64(warp as u64)),
                    ("warp_instructions", ArgValue::U64(s.warp_instructions)),
                    ("lane_instructions", ArgValue::U64(s.lane_instructions)),
                    (
                        "divergent_branches",
                        ArgValue::U64(s.divergence.divergent_branches),
                    ),
                    ("warp_cycles", ArgValue::U64(s.warp_cycles)),
                ],
            );
            rec.sample("warp_cycles", s.warp_cycles as f64);
            rec.sample("warp_exec_ns", dur_us * 1e3);
        }
        Err(_) => {
            rec.span(
                Clock::Wall,
                "simt:warps",
                &format!("{kernel} warp {warp} (fault)"),
                start_us,
                dur_us,
                &[("warp", ArgValue::U64(warp as u64))],
            );
        }
    }
}

/// Run every warp of a launch through `run_warp(base, count)`, in warp
/// order, folding each warp's stats into the launch total as it finishes.
///
/// This is the one scheduler both engines share. The first faulting warp
/// ends the launch with its error; no later warp runs. `run_warp` returns
/// the warp's instruction, memory, divergence and cycle counters; the
/// scheduler stamps them as one warp of `count` lanes that is its own
/// slowest warp, and [`KernelStats::merge`] folds that into the total.
pub(super) fn dispatch_warps<R: Recorder + ?Sized>(
    cfg: &LaunchConfig,
    kernel: &str,
    rec: &R,
    mut run_warp: impl FnMut(u32, u32) -> Result<KernelStats, ExecError>,
) -> Result<KernelStats, ExecError> {
    let mut total = KernelStats::default();
    for w in 0..cfg.warps() {
        let base = w * WARP_SIZE;
        let count = (cfg.lanes - base).min(WARP_SIZE);
        let start_us = if rec.enabled() {
            rec.wall_now_us()
        } else {
            0.0
        };
        let r = run_warp(base, count);
        if rec.enabled() {
            trace_warp(rec, kernel, w, start_us, &r);
        }
        let warp = r?;
        total.merge(&KernelStats {
            lanes: count,
            warps: 1,
            max_warp_cycles: warp.warp_cycles,
            ..warp
        });
    }
    Ok(total)
}

// ---------------------------------------------------------------------------
// Warp arena: pooled per-warp execution buffers.
// ---------------------------------------------------------------------------

/// The full per-warp working set, pooled across warps and launches by the
/// process-wide warp arena.
///
/// Buffer *lengths* are set per warp (`clear` + zero `resize`), but the
/// underlying capacity survives release/acquire cycles, so once leases have
/// grown to a kernel's sizes every later launch runs without touching the
/// allocator.
#[derive(Default, Debug)]
struct WarpBuffers {
    /// SoA register file: `regs[slot + lane]` where `slot = r * WARP_SIZE`.
    regs: Vec<u32>,
    /// Flat per-lane local memory: `local[lane * local_bytes ..]`.
    local: Vec<u8>,
    /// Per-warp shared memory.
    shared: Vec<u8>,
    /// Scratch for gathering lane addresses on memory ops.
    addrs: Vec<(u32, u32)>,
    /// Scratch for segment ids and sorted-address dedup.
    segs: Vec<u32>,
    /// Reconvergence stack.
    stack: Vec<StackEntry>,
}

static WARP_ARENA: OnceLock<Mutex<Vec<WarpBuffers>>> = OnceLock::new();
static WARP_ARENA_COUNTERS: PoolCounters = PoolCounters::new();

fn warp_arena() -> &'static Mutex<Vec<WarpBuffers>> {
    WARP_ARENA.get_or_init(|| Mutex::new(Vec::new()))
}

/// Cumulative warp-arena checkout totals for this process.
///
/// A window (see [`rhythm_obs::PoolSnapshot::since`]) in which `allocated`
/// did not move proves the launches inside it ran with fully recycled warp
/// contexts — the pre-decoded engine's steady state.
pub fn warp_arena_stats() -> PoolSnapshot {
    WARP_ARENA_COUNTERS.snapshot()
}

/// A checked-out [`WarpBuffers`]; returns the buffers to the arena on drop.
struct WarpLease(Option<WarpBuffers>);

impl WarpLease {
    fn acquire() -> WarpLease {
        let recycled = warp_arena().lock().expect("warp arena poisoned").pop();
        match recycled {
            Some(bufs) => {
                WARP_ARENA_COUNTERS.record_reused();
                WarpLease(Some(bufs))
            }
            None => {
                WARP_ARENA_COUNTERS.record_allocated();
                WarpLease(Some(WarpBuffers::default()))
            }
        }
    }

    fn bufs(&mut self) -> &mut WarpBuffers {
        self.0.as_mut().expect("lease taken")
    }
}

impl Drop for WarpLease {
    fn drop(&mut self) {
        if let Some(bufs) = self.0.take() {
            warp_arena().lock().expect("warp arena poisoned").push(bufs);
        }
    }
}

// ---------------------------------------------------------------------------
// Pre-decoded engine.
// ---------------------------------------------------------------------------

/// Execute one warp of a pre-decoded plan against leased buffers.
fn run_plan_warp(
    plan: &ExecPlan,
    launch: &LaunchConfig,
    gmem: &mut DeviceView<'_>,
    pool: &ConstPool,
    bufs: &mut WarpBuffers,
    base: u32,
    count: u32,
) -> Result<KernelStats, ExecError> {
    let num_regs = plan.num_regs() as usize;
    let local_bytes = launch.local_bytes as usize;
    // Fresh zeroed state per warp; clear + resize keeps capacity so the
    // steady state never allocates.
    bufs.regs.clear();
    bufs.regs.resize(num_regs * LANES, 0);
    bufs.local.clear();
    bufs.local.resize(local_bytes * LANES, 0);
    bufs.shared.clear();
    bufs.shared.resize(launch.shared_bytes as usize, 0);

    let full = if count >= WARP_SIZE {
        u32::MAX
    } else {
        (1u32 << count) - 1
    };
    bufs.stack.clear();
    bufs.stack.push(StackEntry {
        block: plan.entry(),
        mask: full,
        reconv: EXIT_BLOCK,
    });
    let mut stats = KernelStats::default();
    let mut halted: u32 = 0;

    while let Some(top) = bufs.stack.last_mut() {
        top.mask &= !halted;
        if top.mask == 0 {
            bufs.stack.pop();
            continue;
        }
        if top.block == top.reconv {
            stats.divergence.reconvergences += 1;
            bufs.stack.pop();
            continue;
        }
        if top.block == EXIT_BLOCK {
            return Err(ExecError::Reconvergence(
                "union entry surfaced at exit with live lanes",
            ));
        }
        let mask = top.mask;
        let cur = top.block;

        // Recognized byte-copy loop header: commit the whole loop as one
        // wide copy when the runtime preconditions hold (any failure falls
        // through to byte-at-a-time interpretation, faults included).
        if let Some(wc) = plan.wide_copy(cur) {
            if try_wide_copy(wc, mask, launch, gmem, pool, bufs, &mut stats)? {
                bufs.stack.last_mut().expect("stack nonempty").block = wc.exit;
                continue;
            }
        }

        let block = *plan.block(cur);
        let ops = plan.block_ops(&block);
        let nops = ops.len() as u64;
        let lanes_on = mask.count_ones() as u64;
        if stats.warp_instructions + nops <= launch.max_instructions {
            // Whole block fits in the budget: batch the per-issue
            // accounting. A prefix of per-op checks can only fail if the
            // block total would, so this is exactly the per-op semantics.
            stats.warp_instructions += nops;
            stats.lane_instructions += nops * lanes_on;
            stats.warp_cycles += nops;
            for op in ops {
                exec_decoded(
                    op,
                    mask,
                    base,
                    local_bytes,
                    launch,
                    gmem,
                    pool,
                    bufs,
                    &mut stats,
                )?;
            }
        } else {
            // Budget trips inside this block: per-op accounting pins the
            // fault to the exact instruction, matching the legacy engine.
            for op in ops {
                stats.warp_instructions += 1;
                stats.lane_instructions += lanes_on;
                stats.warp_cycles += 1;
                if stats.warp_instructions > launch.max_instructions {
                    return Err(ExecError::Budget {
                        executed: stats.warp_instructions,
                    });
                }
                exec_decoded(
                    op,
                    mask,
                    base,
                    local_bytes,
                    launch,
                    gmem,
                    pool,
                    bufs,
                    &mut stats,
                )?;
            }
        }

        // Terminator: also one issue.
        stats.warp_instructions += 1;
        stats.lane_instructions += lanes_on;
        stats.warp_cycles += 1;

        match block.term {
            DecodedTerm::Jmp(t) => {
                let top = bufs.stack.last_mut().expect("stack nonempty");
                top.block = t;
            }
            DecodedTerm::Halt => {
                halted |= mask;
            }
            DecodedTerm::Br {
                cond,
                then_bb,
                else_bb,
                reconv,
            } => {
                stats.divergence.branches += 1;
                // Condition scan over the live width: an inactive lane
                // below it is read anyway (the AND with `mask` discards
                // it), which keeps the loop branchless.
                let mut mask_t = 0u32;
                let c = lanes_of(&bufs.regs, cond, live_width(mask));
                for (lane, &v) in c.iter().enumerate() {
                    mask_t |= ((v != 0) as u32) << lane;
                }
                mask_t &= mask;
                let mask_f = mask & !mask_t;
                let top = bufs.stack.last_mut().expect("stack nonempty");
                if mask_f == 0 {
                    top.block = then_bb;
                } else if mask_t == 0 {
                    top.block = else_bb;
                } else {
                    stats.divergence.divergent_branches += 1;
                    top.block = reconv;
                    if else_bb != reconv {
                        bufs.stack.push(StackEntry {
                            block: else_bb,
                            mask: mask_f,
                            reconv,
                        });
                    }
                    if then_bb != reconv {
                        bufs.stack.push(StackEntry {
                            block: then_bb,
                            mask: mask_t,
                            reconv,
                        });
                    }
                    stats.divergence.max_stack_depth = stats
                        .divergence
                        .max_stack_depth
                        .max(bufs.stack.len() as u32);
                }
            }
        }
    }
    Ok(stats)
}

/// Cumulative [`try_wide_copy`] outcomes (see [`wide_copy_stats`]).
static WIDE_COPY_COUNTERS: CacheCounters = CacheCounters::new();

/// Cumulative wide-copy outcomes for this process, both counted once per
/// loop a warp enters: a *hit* is one recognized byte-copy loop
/// ([`WideCopy`]) committed whole, a *miss* is one such loop, with bytes
/// to copy, that had to be interpreted instead. Serving traffic is
/// expected to read zero misses: every static page fragment of every
/// cohort then takes the fast path.
pub fn wide_copy_stats() -> CacheSnapshot {
    WIDE_COPY_COUNTERS.snapshot()
}

/// The register's value when every active lane agrees on it.
#[inline]
fn uniform_reg(regs: &[u32], slot: RegSlot, mask: u32) -> Option<u32> {
    let lanes = &regs[slot as usize..slot as usize + LANES];
    let mut it = iter_lanes(mask);
    let first = lanes[it.next()? as usize];
    if it.all(|l| lanes[l as usize] == first) {
        Some(first)
    } else {
        None
    }
}

/// Try to retire a recognized byte-copy loop (see [`WideCopy`]) in one shot.
///
/// Returns `Ok(true)` when the whole loop was committed — memory bytes,
/// final register values, and every statistic bit-identical to interpreting
/// it — and `Ok(false)` when any runtime precondition fails, in which case
/// *nothing* was touched and the caller falls back to byte-at-a-time
/// interpretation (which reproduces faults, budget trips, and wrap-around
/// arithmetic exactly). Both outcomes are counted in [`wide_copy_stats`].
///
/// Preconditions proved before committing anything:
/// - loop counter, length, source offset, element stride, and increment are
///   uniform over the active lanes, the increment is literally 1, and at
///   least one iteration remains;
/// - the whole loop (12 issues per iteration + 2 for the final header pass)
///   fits in the remaining instruction budget;
/// - every constant read and every lane's whole store walk stay in bounds
///   with no u32 wrap-around, so u64 address math equals the interpreter's
///   wrapping math;
/// - under the footprint sanitizer, every lane's walk lies inside one
///   claimed write interval.
///
/// Lane `l` stores `src[t]` at `start_l + t * es` in iteration `t`; the
/// lanes' starts need not be adjacent, ordered, or in step (cursors
/// diverge after any per-lane variable-length output). The stores are one
/// iteration-major [`DeviceView::store_strided`], so overlapping walks end
/// as lockstep execution leaves them. The memory system is charged through
/// the interpreter's own [`global_access_counts`], but only for one period:
/// with `G = TX_BYTES` and `P = G / gcd(es, G)`, every
/// address moves by `P * es`, a multiple of both granularities, each `P`
/// iterations, so every transaction and sector id shifts by one constant
/// and iteration `t + P` touches as many of each as iteration `t`. Only
/// the first `min(P, trip)` iterations are counted, each weighted by how
/// often it recurs — `trip / P` whole periods plus the first `trip % P`
/// iterations of one more.
fn try_wide_copy(
    wc: &WideCopy,
    mask: u32,
    launch: &LaunchConfig,
    gmem: &mut DeviceView<'_>,
    pool: &ConstPool,
    bufs: &mut WarpBuffers,
    stats: &mut KernelStats,
) -> Result<bool, ExecError> {
    let regs = &bufs.regs;
    // A fallback is counted on the loop's first header visit only, not on
    // the one per byte that follows: `for_loop` starts its index at 0.
    let decline = || {
        if iter_lanes(mask).any(|l| regs[wc.idx as usize + l as usize] == 0) {
            WIDE_COPY_COUNTERS.record_miss();
        }
        Ok(false)
    };
    let (Some(i0), Some(n), Some(src), Some(es), Some(one)) = (
        uniform_reg(regs, wc.idx, mask),
        uniform_reg(regs, wc.len, mask),
        uniform_reg(regs, wc.src, mask),
        uniform_reg(regs, wc.elem_stride, mask),
        uniform_reg(regs, wc.one, mask),
    ) else {
        return decline();
    };
    if i0 >= n {
        // Nothing left to copy (an empty string, or the exit pass of an
        // interpreted loop): the header is interpreted, not a fallback.
        return Ok(false);
    }
    if one != 1 {
        return decline();
    }
    let trip = n - i0;
    let cost = trip as u64 * 12 + 2;
    match stats.warp_instructions.checked_add(cost) {
        Some(total) if total <= launch.max_instructions => {}
        _ => return decline(),
    }
    // Constant source: addresses src+i0 .. src+n-1, ascending. Bounds or
    // wrap failures fall back so interpretation faults at the right issue.
    let src_last = src as u64 + n as u64 - 1;
    if src_last > u32::MAX as u64 || src_last >= pool.len() as u64 {
        return decline();
    }

    // Per-lane store walk: lane writes start_l + t*es for t in 0..trip.
    // u128 math (pos + trip can reach 2^33, times a u32 stride) proves no
    // intermediate wraps u32, hence equals the interpreter's arithmetic.
    let mut addrs = std::mem::take(&mut bufs.addrs);
    addrs.clear();
    let glen = gmem.len() as u128;
    for lane in iter_lanes(mask) {
        let l = lane as usize;
        let lane_base =
            regs[wc.base as usize + l] as u128 + regs[wc.lane_term as usize + l] as u128;
        let p0 = regs[wc.pos as usize + l] as u128;
        let start = lane_base + p0 * es as u128;
        let end = lane_base + (p0 + trip as u128 - 1) * es as u128;
        // Footprint sanitizer: prove the lane's whole store walk lies
        // inside one claimed write interval, else fall back to
        // interpretation, which checks each access exactly (and reports
        // the precise escaping address).
        let covered = launch
            .sanitize
            .as_ref()
            .is_none_or(|spec| spec.covers(AccessKind::Write, start as u64, end as u64 + 1));
        if end > u32::MAX as u128 || end >= glen || !covered {
            bufs.addrs = addrs;
            return decline();
        }
        addrs.push((lane, start as u32));
    }

    // All preconditions hold: the interpreted loop would run to completion
    // without faulting. Ascending starts stay ascending in every iteration
    // (all move by the same `t * es`), so sorting once keeps the accounting
    // below on the single-pass path; the stores do not care about order.
    addrs.sort_unstable_by_key(|&(_, a)| a);
    let cbytes = pool.as_bytes();
    let starts = &mut bufs.segs;
    starts.clear();
    starts.extend(addrs.iter().map(|&(_, a)| a));
    gmem.store_strided(starts, es, &cbytes[(src + i0) as usize..=src_last as usize])?;

    // Issue accounting, batched (12 per iteration: header op + branch + 9
    // body ops + jump; the final header pass is 2 more). The uniform
    // constant load broadcasts at zero charge, so only the store is billed
    // to the memory system, exactly like the interpreter.
    let nact = mask.count_ones() as u64;
    stats.warp_instructions += cost;
    stats.lane_instructions += cost * nact;
    stats.warp_cycles += cost;
    stats.divergence.branches += trip as u64 + 1;

    // gcd(es, TX_BYTES) for the power-of-two TX_BYTES is es's lowest set
    // bit capped at TX_BYTES (es = 0 gives TX_BYTES itself, hence a period
    // of 1).
    let period = TX_BYTES >> es.trailing_zeros().min(TX_BYTES.trailing_zeros());
    // Iteration `t` of the first period stands for `t, t + P, t + 2P, ...`:
    // once per whole period, and once more if the last, partial period
    // reaches it.
    let (whole, partial) = ((trip / period) as u64, trip % period);
    let measured = period.min(trip);
    let (mut ntx, mut nsec) = (0u64, 0u64);
    for t in 0..measured {
        let (tx, sec) = global_access_counts(&addrs, Width::Byte, &mut bufs.segs);
        let times = whole + (t < partial) as u64;
        ntx += times * tx;
        nsec += times * sec;
        if t + 1 < measured {
            for e in &mut addrs {
                e.1 += es;
            }
        }
    }
    stats.mem_accesses += trip as u64;
    stats.mem_transactions += ntx;
    stats.warp_cycles += ntx;
    stats.dram_bytes += nsec * SECTOR_BYTES as u64;
    bufs.addrs = addrs;

    // Final register state for the active lanes, matching the interpreted
    // loop's last writes (wrapping where the interpreter wraps: `pos` and
    // `scaled` may legitimately wrap when the stride is 0).
    let trip_m1 = trip - 1;
    let last_src = src + (n - 1);
    let last_byte = cbytes[last_src as usize] as u32;
    let regs = &mut bufs.regs;
    for lane in iter_lanes(mask) {
        let l = lane as usize;
        let base_l = regs[wc.base as usize + l];
        let term_l = regs[wc.lane_term as usize + l];
        let p0 = regs[wc.pos as usize + l];
        let p_last = p0.wrapping_add(trip_m1);
        let scaled = p_last.wrapping_mul(es);
        let lane_base = base_l.wrapping_add(term_l);
        regs[wc.idx as usize + l] = n;
        regs[wc.cond as usize + l] = 0;
        regs[wc.one2 as usize + l] = 1;
        regs[wc.src_addr as usize + l] = last_src;
        regs[wc.ch as usize + l] = last_byte;
        regs[wc.scaled as usize + l] = scaled;
        regs[wc.lane_base as usize + l] = lane_base;
        regs[wc.addr as usize + l] = lane_base.wrapping_add(scaled);
        regs[wc.pos as usize + l] = p0.wrapping_add(trip);
    }
    WIDE_COPY_COUNTERS.record_hit();
    Ok(true)
}

/// Copy a register's 32 lanes into a stack array — one bounds check, and a
/// by-value source that lets the fast-path loops vectorize without dst/src
/// aliasing concerns.
#[inline(always)]
fn read_lanes(regs: &[u32], slot: RegSlot) -> [u32; LANES] {
    let mut v = [0u32; LANES];
    v.copy_from_slice(&regs[slot as usize..slot as usize + LANES]);
    v
}

/// The number of lanes a masked per-lane loop must visit: lanes `0..w`,
/// where `w` is one past the highest active lane. Lanes from `w` up are
/// inactive, so they cost nothing. A served cohort fills lanes `0..n`, so
/// `w` is its width.
#[inline(always)]
fn live_width(mask: u32) -> usize {
    (WARP_SIZE - mask.leading_zeros()) as usize
}

/// ALU evaluation into `d`, lane `l` from `va[l]` and `vb[l]`: dispatch on
/// the operator once, then run a straight lane loop (auto-vectorizable).
/// Shared by the convergent fast path ([`bin_full`], 32 lanes) and the
/// masked path ([`blend_masked`], the live width).
#[inline(always)]
fn bin_eval(d: &mut [u32], va: &[u32], vb: &[u32], op: BinOp) {
    macro_rules! lanes {
        ($f:expr) => {{
            let f = $f;
            for ((dl, &x), &y) in d.iter_mut().zip(va).zip(vb) {
                *dl = f(x, y);
            }
        }};
    }
    match op {
        BinOp::Add => lanes!(|x: u32, y: u32| x.wrapping_add(y)),
        BinOp::Sub => lanes!(|x: u32, y: u32| x.wrapping_sub(y)),
        BinOp::Mul => lanes!(|x: u32, y: u32| x.wrapping_mul(y)),
        BinOp::DivU => lanes!(|x: u32, y: u32| x.checked_div(y).unwrap_or(u32::MAX)),
        BinOp::RemU => lanes!(|x: u32, y: u32| if y == 0 { x } else { x % y }),
        BinOp::And => lanes!(|x: u32, y: u32| x & y),
        BinOp::Or => lanes!(|x: u32, y: u32| x | y),
        BinOp::Xor => lanes!(|x: u32, y: u32| x ^ y),
        BinOp::Shl => lanes!(|x: u32, y: u32| x.wrapping_shl(y)),
        BinOp::Shr => lanes!(|x: u32, y: u32| x.wrapping_shr(y)),
        BinOp::Min => lanes!(|x: u32, y: u32| x.min(y)),
        BinOp::Max => lanes!(|x: u32, y: u32| x.max(y)),
        BinOp::Eq => lanes!(|x: u32, y: u32| (x == y) as u32),
        BinOp::Ne => lanes!(|x: u32, y: u32| (x != y) as u32),
        BinOp::LtU => lanes!(|x: u32, y: u32| (x < y) as u32),
        BinOp::LeU => lanes!(|x: u32, y: u32| (x <= y) as u32),
        BinOp::GtU => lanes!(|x: u32, y: u32| (x > y) as u32),
        BinOp::GeU => lanes!(|x: u32, y: u32| (x >= y) as u32),
    }
}

/// Unary ALU evaluation into `d` (see [`bin_eval`]).
#[inline(always)]
fn un_eval(d: &mut [u32], va: &[u32], op: UnOp) {
    match op {
        UnOp::Not => {
            for (dl, &x) in d.iter_mut().zip(va) {
                *dl = !x;
            }
        }
        UnOp::IsZero => {
            for (dl, &x) in d.iter_mut().zip(va) {
                *dl = (x == 0) as u32;
            }
        }
    }
}

/// Convergent ALU fast path over contiguous SoA register slices.
fn bin_full(regs: &mut [u32], op: BinOp, dst: RegSlot, a: RegSlot, b: RegSlot) {
    let va = read_lanes(regs, a);
    let vb = read_lanes(regs, b);
    bin_eval(&mut regs[dst as usize..dst as usize + LANES], &va, &vb, op);
}

/// Convergent unary-ALU fast path (see [`bin_full`]).
fn un_full(regs: &mut [u32], op: UnOp, dst: RegSlot, a: RegSlot) {
    let va = read_lanes(regs, a);
    un_eval(&mut regs[dst as usize..dst as usize + LANES], &va, op);
}

/// Masked register write: `eval(regs, v)` fills lanes `0..w` of a scratch
/// array ([`live_width`]), and a branchless select blends them into `dst`
/// under `mask`. ALU ops are total functions, so evaluating an inactive
/// lane below `w` on stale inputs is harmless — the select discards it —
/// and the straight loop plus select vectorizes where a sparse
/// `iter_lanes` walk cannot.
#[inline(always)]
fn blend_masked(regs: &mut [u32], dst: RegSlot, mask: u32, eval: impl FnOnce(&[u32], &mut [u32])) {
    let w = live_width(mask);
    let mut v = [0u32; LANES];
    eval(regs, &mut v[..w]);
    let d = &mut regs[dst as usize..dst as usize + w];
    for (lane, (dl, &x)) in d.iter_mut().zip(&v[..w]).enumerate() {
        let keep = 0u32.wrapping_sub((mask >> lane) & 1);
        *dl = (x & keep) | (*dl & !keep);
    }
}

/// Lanes `0..w` of register `slot`.
#[inline(always)]
fn lanes_of(regs: &[u32], slot: RegSlot, w: usize) -> &[u32] {
    &regs[slot as usize..slot as usize + w]
}

/// Gather `(lane, address)` pairs for the active lanes of a memory op into
/// `bufs.addrs`, in ascending lane order (the order faults and atomic
/// services are observed in).
#[inline(always)]
fn gather_addrs(bufs: &mut WarpBuffers, mask: u32, addr: RegSlot, offset: u32) {
    bufs.addrs.clear();
    if mask == u32::MAX {
        let src = &bufs.regs[addr as usize..addr as usize + LANES];
        for (lane, &a) in src.iter().enumerate() {
            bufs.addrs.push((lane as u32, a.wrapping_add(offset)));
        }
    } else {
        for lane in iter_lanes(mask) {
            let a = bufs.regs[(addr + lane) as usize].wrapping_add(offset);
            bufs.addrs.push((lane, a));
        }
    }
}

/// The single address shared by every lane of a memory op, if uniform.
#[inline(always)]
fn uniform_addr(addrs: &[(u32, u32)]) -> Option<u32> {
    let (&(_, first), rest) = addrs.split_first()?;
    rest.iter().all(|&(_, a)| a == first).then_some(first)
}

/// The out-of-bounds error `read_buf`/`write_buf` would produce, for fast
/// paths that hoist the bounds check out of the lane loop.
fn oob(space: MemSpace, addr: u32, width: Width, size: usize) -> ExecError {
    MemError::OutOfBounds {
        space,
        addr,
        len: width.bytes(),
        size,
    }
    .into()
}

/// Per-lane loads with the space/width dispatch hoisted out of the lane
/// loop.
#[allow(clippy::too_many_arguments)] // internal hot loop; grouping would cost indirection
fn load_lanes(
    space: MemSpace,
    width: Width,
    dst: RegSlot,
    addrs: &[(u32, u32)],
    local_bytes: usize,
    gmem: &DeviceView<'_>,
    pool: &ConstPool,
    bufs: &mut WarpBuffers,
) -> Result<(), ExecError> {
    match (space, width) {
        (MemSpace::Global, Width::Word) => {
            for &(lane, a) in addrs {
                bufs.regs[(dst + lane) as usize] = gmem.read_word(a)?;
            }
        }
        (MemSpace::Global, Width::Byte) => {
            for &(lane, a) in addrs {
                bufs.regs[(dst + lane) as usize] = gmem.read_byte(a)?;
            }
        }
        (MemSpace::Const, Width::Word) => {
            // Template reads broadcast one address to the whole warp.
            if let Some(a) = uniform_addr(addrs) {
                let v = pool.read_word(a)?;
                for &(lane, _) in addrs {
                    bufs.regs[(dst + lane) as usize] = v;
                }
            } else {
                for &(lane, a) in addrs {
                    bufs.regs[(dst + lane) as usize] = pool.read_word(a)?;
                }
            }
        }
        (MemSpace::Const, Width::Byte) => {
            if let Some(a) = uniform_addr(addrs) {
                let v = pool.read_byte(a)?;
                for &(lane, _) in addrs {
                    bufs.regs[(dst + lane) as usize] = v;
                }
            } else {
                for &(lane, a) in addrs {
                    bufs.regs[(dst + lane) as usize] = pool.read_byte(a)?;
                }
            }
        }
        (MemSpace::Local, _) => {
            // Scratch access is usually at one uniform offset across the
            // warp (every lane runs the same formatting loop): validate
            // the offset once, then walk the lane strides directly.
            if let Some(a) = uniform_addr(addrs) {
                let w = width.bytes() as usize;
                let start = a as usize;
                if start + w > local_bytes {
                    return Err(oob(MemSpace::Local, a, width, local_bytes));
                }
                for &(lane, _) in addrs {
                    let lo = lane as usize * local_bytes + start;
                    let v = match width {
                        Width::Byte => bufs.local[lo] as u32,
                        Width::Word => u32::from_le_bytes(
                            bufs.local[lo..lo + 4].try_into().expect("4-byte slice"),
                        ),
                    };
                    bufs.regs[(dst + lane) as usize] = v;
                }
            } else {
                for &(lane, a) in addrs {
                    let lo = lane as usize * local_bytes;
                    let v = read_buf(&bufs.local[lo..lo + local_bytes], MemSpace::Local, width, a)?;
                    bufs.regs[(dst + lane) as usize] = v;
                }
            }
        }
        (MemSpace::Shared, _) => {
            for &(lane, a) in addrs {
                let v = read_buf(&bufs.shared, MemSpace::Shared, width, a)?;
                bufs.regs[(dst + lane) as usize] = v;
            }
        }
    }
    Ok(())
}

/// Per-lane stores, dual of [`load_lanes`].
fn store_lanes(
    space: MemSpace,
    width: Width,
    src: RegSlot,
    addrs: &[(u32, u32)],
    local_bytes: usize,
    gmem: &mut DeviceView<'_>,
    bufs: &mut WarpBuffers,
) -> Result<(), ExecError> {
    match (space, width) {
        (MemSpace::Global, Width::Word) => {
            for &(lane, a) in addrs {
                gmem.write_word(a, bufs.regs[(src + lane) as usize])?;
            }
        }
        (MemSpace::Global, Width::Byte) => {
            for &(lane, a) in addrs {
                gmem.write_byte(a, bufs.regs[(src + lane) as usize])?;
            }
        }
        (MemSpace::Const, _) => {
            if !addrs.is_empty() {
                return Err(MemError::ReadOnly {
                    space: MemSpace::Const,
                }
                .into());
            }
        }
        (MemSpace::Local, _) => {
            // Uniform scratch offset: validate once, walk lane strides.
            if let Some(a) = uniform_addr(addrs) {
                let w = width.bytes() as usize;
                let start = a as usize;
                if start + w > local_bytes {
                    return Err(oob(MemSpace::Local, a, width, local_bytes));
                }
                for &(lane, _) in addrs {
                    let v = bufs.regs[(src + lane) as usize];
                    let lo = lane as usize * local_bytes + start;
                    match width {
                        Width::Byte => bufs.local[lo] = v as u8,
                        Width::Word => bufs.local[lo..lo + 4].copy_from_slice(&v.to_le_bytes()),
                    }
                }
            } else {
                for &(lane, a) in addrs {
                    let v = bufs.regs[(src + lane) as usize];
                    let lo = lane as usize * local_bytes;
                    write_buf(
                        &mut bufs.local[lo..lo + local_bytes],
                        MemSpace::Local,
                        width,
                        a,
                        v,
                    )?;
                }
            }
        }
        (MemSpace::Shared, _) => {
            for &(lane, a) in addrs {
                let v = bufs.regs[(src + lane) as usize];
                write_buf(&mut bufs.shared, MemSpace::Shared, width, a, v)?;
            }
        }
    }
    Ok(())
}

/// Footprint-sanitizer check for one warp-wide global access: every
/// gathered lane address must lie inside the launch's claimed static
/// footprint for this access kind. Non-global spaces and unsanitized
/// launches pass trivially. Runs before the memory op executes, so the
/// first escape aborts the launch without committing the offending access.
#[inline]
fn sanitize_addrs(
    launch: &LaunchConfig,
    space: MemSpace,
    kind: AccessKind,
    width: Width,
    addrs: &[(u32, u32)],
) -> Result<(), ExecError> {
    let Some(spec) = &launch.sanitize else {
        return Ok(());
    };
    if space != MemSpace::Global {
        return Ok(());
    }
    for &(_, a) in addrs {
        if !spec.allows(kind, a, width.bytes()) {
            return Err(ExecError::FootprintEscape {
                kind,
                addr: a,
                width: width.bytes(),
            });
        }
    }
    Ok(())
}

/// Execute one decoded op for the active lanes.
///
/// When the mask covers the whole warp, ALU/broadcast ops take the dense
/// fast paths; the masked `iter_lanes` fallback handles divergence and the
/// partial last warp of a launch.
#[allow(clippy::too_many_arguments)] // internal hot loop; grouping would cost indirection
fn exec_decoded(
    op: &DecodedOp,
    mask: u32,
    base: u32,
    local_bytes: usize,
    launch: &LaunchConfig,
    gmem: &mut DeviceView<'_>,
    pool: &ConstPool,
    bufs: &mut WarpBuffers,
    stats: &mut KernelStats,
) -> Result<(), ExecError> {
    let full = mask == u32::MAX;
    match *op {
        DecodedOp::Imm { dst, value } => {
            if full {
                bufs.regs[dst as usize..dst as usize + LANES].fill(value);
            } else {
                for lane in iter_lanes(mask) {
                    bufs.regs[(dst + lane) as usize] = value;
                }
            }
        }
        DecodedOp::Mov { dst, src } => {
            if full {
                let v = read_lanes(&bufs.regs, src);
                bufs.regs[dst as usize..dst as usize + LANES].copy_from_slice(&v);
            } else {
                blend_masked(&mut bufs.regs, dst, mask, |r, v| {
                    v.copy_from_slice(lanes_of(r, src, v.len()))
                });
            }
        }
        DecodedOp::Bin { op, dst, a, b } => {
            if full {
                bin_full(&mut bufs.regs, op, dst, a, b);
            } else {
                blend_masked(&mut bufs.regs, dst, mask, |r, v| {
                    let w = v.len();
                    bin_eval(v, lanes_of(r, a, w), lanes_of(r, b, w), op)
                });
            }
        }
        DecodedOp::Un { op, dst, a } => {
            if full {
                un_full(&mut bufs.regs, op, dst, a);
            } else {
                blend_masked(&mut bufs.regs, dst, mask, |r, v| {
                    un_eval(v, lanes_of(r, a, v.len()), op)
                });
            }
        }
        DecodedOp::LaneId { dst } => {
            if full {
                let d = &mut bufs.regs[dst as usize..dst as usize + LANES];
                for (lane, dl) in d.iter_mut().enumerate() {
                    *dl = lane as u32;
                }
            } else {
                for lane in iter_lanes(mask) {
                    bufs.regs[(dst + lane) as usize] = lane;
                }
            }
        }
        DecodedOp::GlobalId { dst } => {
            if full {
                let d = &mut bufs.regs[dst as usize..dst as usize + LANES];
                for (lane, dl) in d.iter_mut().enumerate() {
                    *dl = base + lane as u32;
                }
            } else {
                for lane in iter_lanes(mask) {
                    bufs.regs[(dst + lane) as usize] = base + lane;
                }
            }
        }
        DecodedOp::Param { dst, index } => {
            let v = launch
                .params
                .get(index as usize)
                .copied()
                .ok_or(ExecError::MissingParam { index })?;
            if full {
                bufs.regs[dst as usize..dst as usize + LANES].fill(v);
            } else {
                for lane in iter_lanes(mask) {
                    bufs.regs[(dst + lane) as usize] = v;
                }
            }
        }
        DecodedOp::Ld {
            width,
            space,
            dst,
            addr,
            offset,
        } => {
            gather_addrs(bufs, mask, addr, offset);
            let addrs = std::mem::take(&mut bufs.addrs);
            sanitize_addrs(launch, space, AccessKind::Read, width, &addrs)?;
            load_lanes(space, width, dst, &addrs, local_bytes, gmem, pool, bufs)?;
            charge_access(space, width, &addrs, &mut bufs.segs, stats);
            bufs.addrs = addrs;
        }
        DecodedOp::St {
            width,
            space,
            src,
            addr,
            offset,
        } => {
            gather_addrs(bufs, mask, addr, offset);
            let addrs = std::mem::take(&mut bufs.addrs);
            sanitize_addrs(launch, space, AccessKind::Write, width, &addrs)?;
            store_lanes(space, width, src, &addrs, local_bytes, gmem, bufs)?;
            charge_access(space, width, &addrs, &mut bufs.segs, stats);
            bufs.addrs = addrs;
        }
        DecodedOp::WarpRedMax { dst, src } => {
            // Butterfly reduction over active lanes: log2(32) = 5 steps
            // through shared memory.
            if full {
                let v = read_lanes(&bufs.regs, src);
                let mut m = 0u32;
                for &x in &v {
                    m = m.max(x);
                }
                bufs.regs[dst as usize..dst as usize + LANES].fill(m);
            } else {
                let mut m = 0u32;
                for lane in iter_lanes(mask) {
                    m = m.max(bufs.regs[(src + lane) as usize]);
                }
                for lane in iter_lanes(mask) {
                    bufs.regs[(dst + lane) as usize] = m;
                }
            }
            // 5 extra warp issues beyond the one already charged.
            stats.warp_instructions += 4;
            stats.lane_instructions += 4 * mask.count_ones() as u64;
            stats.warp_cycles += 4;
        }
        DecodedOp::AtomicAdd {
            dst,
            space,
            addr,
            offset,
            src,
        } => {
            gather_addrs(bufs, mask, addr, offset);
            let addrs = std::mem::take(&mut bufs.addrs);
            sanitize_addrs(launch, space, AccessKind::Atomic, Width::Word, &addrs)?;
            // Lanes are serviced in lane order; same-address lanes
            // serialize (each sees the previous lane's update).
            match space {
                MemSpace::Global => {
                    for &(lane, a) in &addrs {
                        let add = bufs.regs[(src + lane) as usize];
                        let old = gmem.atomic_add_word(a, add)?;
                        bufs.regs[(dst + lane) as usize] = old;
                    }
                }
                MemSpace::Shared => {
                    for &(lane, a) in &addrs {
                        let add = bufs.regs[(src + lane) as usize];
                        let old = read_buf(&bufs.shared, MemSpace::Shared, Width::Word, a)?;
                        write_buf(
                            &mut bufs.shared,
                            MemSpace::Shared,
                            Width::Word,
                            a,
                            old.wrapping_add(add),
                        )?;
                        bufs.regs[(dst + lane) as usize] = old;
                    }
                }
                MemSpace::Local => {
                    for &(lane, a) in &addrs {
                        let add = bufs.regs[(src + lane) as usize];
                        let lo = lane as usize * local_bytes;
                        let old = read_buf(
                            &bufs.local[lo..lo + local_bytes],
                            MemSpace::Local,
                            Width::Word,
                            a,
                        )?;
                        write_buf(
                            &mut bufs.local[lo..lo + local_bytes],
                            MemSpace::Local,
                            Width::Word,
                            a,
                            old.wrapping_add(add),
                        )?;
                        bufs.regs[(dst + lane) as usize] = old;
                    }
                }
                MemSpace::Const => {
                    // Matches the legacy lane order: the read may fault
                    // first; otherwise the write-back faults read-only.
                    if let Some(&(_, a)) = addrs.first() {
                        let _ = pool.read_word(a)?;
                        return Err(MemError::ReadOnly {
                            space: MemSpace::Const,
                        }
                        .into());
                    }
                }
            }
            // Cost: transactions as a word access plus serialization of
            // duplicate addresses.
            charge_access(space, Width::Word, &addrs, &mut bufs.segs, stats);
            bufs.segs.clear();
            bufs.segs.extend(addrs.iter().map(|&(_, a)| a));
            bufs.segs.sort_unstable();
            let distinct = count_distinct(&bufs.segs);
            let dups = addrs.len() as u64 - distinct as u64;
            stats.atomic_serializations += dups;
            stats.warp_cycles += dups;
            bufs.addrs = addrs;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Shared cost model.
// ---------------------------------------------------------------------------

/// Charge memory-system cost for one warp access. `segs` is reusable
/// scratch; both engines route through this one implementation so the cost
/// model cannot drift between them.
pub(super) fn charge_access(
    space: MemSpace,
    width: Width,
    addrs: &[(u32, u32)],
    segs: &mut Vec<u32>,
    stats: &mut KernelStats,
) {
    match space {
        MemSpace::Global => {
            stats.mem_accesses += 1;
            // Transactions at `TX_BYTES` granularity drive issue
            // replays; DRAM traffic is counted in 32 B sectors so a
            // coalesced byte access is not charged a full line.
            let (ntx, nsec) = global_access_counts(addrs, width, segs);
            stats.mem_transactions += ntx;
            stats.warp_cycles += ntx;
            stats.dram_bytes += nsec * SECTOR_BYTES as u64;
        }
        MemSpace::Const => {
            // Broadcast is free; divergent addresses replay. The common
            // shapes — one template address across the warp, or ascending
            // per-lane offsets — count in a single pass.
            let d = if addrs.windows(2).all(|w| w[0].1 <= w[1].1) {
                let mut d = 0u64;
                let mut prev = None;
                for &(_, a) in addrs {
                    if prev != Some(a) {
                        d += 1;
                        prev = Some(a);
                    }
                }
                d
            } else {
                segs.clear();
                segs.extend(addrs.iter().map(|&(_, a)| a));
                segs.sort_unstable();
                count_distinct(segs) as u64
            };
            if d > 1 {
                stats.const_replays += d - 1;
                stats.warp_cycles += d - 1;
            }
        }
        MemSpace::Local => {
            // Interleaved per-lane storage: always coalesced; charge one
            // extra cycle like an L1 hit.
            stats.warp_cycles += 1;
        }
        MemSpace::Shared => {
            // Bank conflicts are not modelled.
        }
    }
}

/// Distinct `(transactions, sectors)` one warp access to global memory
/// touches: [`TX_BYTES`]-sized segments and [`SECTOR_BYTES`]-sized sectors.
/// `segs` is reusable scratch.
///
/// Ascending addresses count in one pass. Anything else is sorted, once:
/// a transaction id is a sector id shifted right, so the sorted sector ids
/// are also sorted by transaction and one walk counts both.
fn global_access_counts(addrs: &[(u32, u32)], width: Width, segs: &mut Vec<u32>) -> (u64, u64) {
    if let Some(counts) = fused_segment_counts(addrs, width) {
        return counts;
    }
    const SEC_SH: u32 = SECTOR_BYTES.trailing_zeros();
    const TX_SH: u32 = TX_BYTES.trailing_zeros() - SEC_SH;
    segs.clear();
    for &(_, a) in addrs {
        let first = a >> SEC_SH;
        let last = a.wrapping_add(width.bytes() - 1) >> SEC_SH;
        segs.push(first);
        if last != first {
            segs.push(last);
        }
    }
    segs.sort_unstable();
    let (mut ntx, mut nsec) = (0u64, 0u64);
    let mut prev = None;
    for &sec in segs.iter() {
        if prev == Some(sec) {
            continue;
        }
        nsec += 1;
        ntx += (prev.map(|p: u32| p >> TX_SH) != Some(sec >> TX_SH)) as u64;
        prev = Some(sec);
    }
    (ntx, nsec)
}

/// Single-pass transaction and DRAM-sector counts for an access whose lane
/// addresses are ascending — the coalesced common case. Returns `None` for
/// descending/scattered addresses, which take the sort-based fallback.
///
/// Correctness of transition counting under ascending addresses: segment
/// ids grow with the addresses and each access covers a contiguous id
/// range, so an access touches a *new* segment only when it reaches past
/// the highest id seen so far — any id at or below the running maximum
/// that a later lane lands on was already counted.
#[inline]
fn fused_segment_counts(addrs: &[(u32, u32)], width: Width) -> Option<(u64, u64)> {
    const TX_SH: u32 = TX_BYTES.trailing_zeros();
    const SEC_SH: u32 = SECTOR_BYTES.trailing_zeros();
    let w = width.bytes() - 1;
    let Some((&(_, first), rest)) = addrs.split_first() else {
        return Some((0, 0));
    };
    let end = first.wrapping_add(w);
    let mut prev = first;
    let mut max_tx = end >> TX_SH;
    let mut ntx = 1 + ((first >> TX_SH) != max_tx) as u64;
    let mut max_sec = end >> SEC_SH;
    let mut nsec = 1 + ((first >> SEC_SH) != max_sec) as u64;
    for &(_, a) in rest {
        if a < prev {
            return None;
        }
        prev = a;
        let e = a.wrapping_add(w);
        let f = a >> TX_SH;
        let l = e >> TX_SH;
        if f > max_tx {
            ntx += 1 + (l != f) as u64;
            max_tx = l;
        } else if l > max_tx {
            ntx += 1;
            max_tx = l;
        }
        let f = a >> SEC_SH;
        let l = e >> SEC_SH;
        if f > max_sec {
            nsec += 1 + (l != f) as u64;
            max_sec = l;
        } else if l > max_sec {
            nsec += 1;
            max_sec = l;
        }
    }
    Some((ntx, nsec))
}

pub(super) fn count_distinct(sorted: &[u32]) -> usize {
    let mut n = 0;
    let mut last = None;
    for &a in sorted {
        if last != Some(a) {
            n += 1;
            last = Some(a);
        }
    }
    n
}

/// Iterate over set lane bits.
pub(super) fn iter_lanes(mask: u32) -> impl Iterator<Item = u32> {
    let mut m = mask;
    std::iter::from_fn(move || {
        if m == 0 {
            None
        } else {
            let lane = m.trailing_zeros();
            m &= m - 1;
            Some(lane)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::super::legacy::execute_simt_legacy;
    use super::*;
    use crate::ir::{BinOp, ProgramBuilder, Reg};
    use rhythm_obs::NoopRecorder;

    /// Reference counter for the cost model: distinct `gran`-byte segment
    /// ids touched by `addrs` (each access spans `width.bytes()`),
    /// materialized in `segs`, sorted and deduplicated.
    fn distinct_segments_sorted(
        addrs: &[(u32, u32)],
        width: Width,
        gran: u32,
        segs: &mut Vec<u32>,
    ) -> u64 {
        segs.clear();
        for &(_, a) in addrs {
            let first = a / gran;
            let last = a.wrapping_add(width.bytes() - 1) / gran;
            segs.push(first);
            if last != first {
                segs.push(last);
            }
        }
        segs.sort_unstable();
        segs.dedup();
        segs.len() as u64
    }

    fn launch(p: &Program, lanes: u32, params: Vec<u32>, mem: &mut DeviceMemory) -> KernelStats {
        let pool = ConstPool::new();
        execute_simt(
            p,
            &LaunchConfig::new(lanes, params),
            mem,
            &pool,
            &NoopRecorder,
        )
        .unwrap()
    }

    /// Lane i stores its id at byte i (coalesced) — one transaction per
    /// warp access.
    #[test]
    fn coalesced_byte_store_is_one_transaction() {
        let mut b = ProgramBuilder::new("c");
        let g = b.global_id();
        b.st_global_byte(g, 0, g);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(64);
        let stats = launch(&p, 32, vec![], &mut mem);
        assert_eq!(stats.mem_accesses, 1);
        assert_eq!(stats.mem_transactions, 1);
        assert_eq!(mem.read_byte(31).unwrap(), 31);
    }

    /// Lane i stores at stride 256 (row-major layout) — every lane hits a
    /// different 128 B segment: 32 transactions.
    #[test]
    fn strided_store_explodes_transactions() {
        let mut b = ProgramBuilder::new("s");
        let g = b.global_id();
        let stride = b.imm(256);
        let a = b.bin(BinOp::Mul, g, stride);
        b.st_global_byte(a, 0, g);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(256 * 32);
        let stats = launch(&p, 32, vec![], &mut mem);
        assert_eq!(stats.mem_accesses, 1);
        assert_eq!(stats.mem_transactions, 32);
    }

    /// Divergent if/else: both sides execute, SIMD efficiency drops, and
    /// lanes reconverge to produce correct results.
    #[test]
    fn divergent_branch_reconverges() {
        let mut b = ProgramBuilder::new("d");
        let g = b.global_id();
        let one = b.imm(1);
        let odd = b.bin(BinOp::And, g, one);
        let out = b.reg();
        b.if_then_else(
            odd,
            |b| {
                b.imm_into(out, 100);
            },
            |b| {
                b.imm_into(out, 200);
            },
        );
        let four = b.imm(4);
        let addr = b.bin(BinOp::Mul, g, four);
        b.st_global_word(addr, 0, out);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(32 * 4);
        let stats = launch(&p, 32, vec![], &mut mem);
        assert_eq!(stats.divergence.divergent_branches, 1);
        // Each divergent side pops at the join block: two reconvergence
        // events per divergent branch.
        assert_eq!(stats.divergence.reconvergences, 2);
        assert_eq!(mem.read_word(0).unwrap(), 200);
        assert_eq!(mem.read_word(4).unwrap(), 100);
        assert!(stats.simd_efficiency(32) < 1.0);
    }

    /// Data-dependent loop trip counts: all lanes finish, result correct,
    /// divergence recorded on loop exit.
    #[test]
    fn variable_trip_count_loop() {
        let mut b = ProgramBuilder::new("v");
        let g = b.global_id();
        let acc = b.imm(0);
        let one = b.imm(1);
        // for i in 0..lane_id: acc += 1
        b.for_loop(g, |b, _i| {
            b.bin_into(acc, BinOp::Add, acc, one);
        });
        let four = b.imm(4);
        let addr = b.bin(BinOp::Mul, g, four);
        b.st_global_word(addr, 0, acc);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(32 * 4);
        let stats = launch(&p, 32, vec![], &mut mem);
        for i in 0..32 {
            assert_eq!(mem.read_word(i * 4).unwrap(), i, "lane {i}");
        }
        assert!(stats.divergence.divergent_branches > 0);
    }

    /// The scalar and SIMT executors must produce identical memory.
    #[test]
    fn scalar_simt_equivalence() {
        use crate::exec::scalar::{execute_scalar, ScalarRun};
        let mut b = ProgramBuilder::new("eq");
        let g = b.global_id();
        let three = b.imm(3);
        let n = b.bin(BinOp::RemU, g, three);
        let acc = b.imm(0);
        b.for_loop(n, |b, i| {
            b.bin_into(acc, BinOp::Add, acc, i);
        });
        let four = b.imm(4);
        let addr = b.bin(BinOp::Mul, g, four);
        b.st_global_word(addr, 0, acc);
        b.halt();
        let p = b.build().unwrap();

        let pool = ConstPool::new();
        let lanes = 48u32;
        let mut mem_simt = DeviceMemory::new(lanes as usize * 4);
        execute_simt(
            &p,
            &LaunchConfig::new(lanes, []),
            &mut mem_simt,
            &pool,
            &NoopRecorder,
        )
        .unwrap();

        let mut mem_scalar = DeviceMemory::new(lanes as usize * 4);
        let cfg = LaunchConfig::new(1, []);
        for id in 0..lanes {
            execute_scalar(&ScalarRun::new(&p, id), &cfg, &mut mem_scalar, &pool, None).unwrap();
        }
        assert_eq!(mem_simt.as_bytes(), mem_scalar.as_bytes());
    }

    #[test]
    fn warp_red_max_broadcasts() {
        let mut b = ProgramBuilder::new("r");
        let g = b.global_id();
        let m = b.warp_red_max(g);
        let four = b.imm(4);
        let addr = b.bin(BinOp::Mul, g, four);
        b.st_global_word(addr, 0, m);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(64 * 4);
        launch(&p, 64, vec![], &mut mem);
        assert_eq!(mem.read_word(0).unwrap(), 31, "warp 0 max is lane 31");
        assert_eq!(mem.read_word(32 * 4).unwrap(), 63, "warp 1 max is lane 63");
    }

    #[test]
    fn atomic_add_serializes_same_address() {
        let mut b = ProgramBuilder::new("a");
        let zero = b.imm(0);
        let one = b.imm(1);
        b.atomic_add(MemSpace::Global, zero, 0, one);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(4);
        let stats = launch(&p, 32, vec![], &mut mem);
        assert_eq!(mem.read_word(0).unwrap(), 32);
        assert_eq!(stats.atomic_serializations, 31);
    }

    #[test]
    fn atomic_add_distinct_addresses_parallel() {
        let mut b = ProgramBuilder::new("a2");
        let g = b.global_id();
        let four = b.imm(4);
        let addr = b.bin(BinOp::Mul, g, four);
        let one = b.imm(1);
        b.atomic_add(MemSpace::Global, addr, 0, one);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(32 * 4);
        let stats = launch(&p, 32, vec![], &mut mem);
        assert_eq!(stats.atomic_serializations, 0);
        assert_eq!(mem.read_word(4).unwrap(), 1);
    }

    #[test]
    fn const_broadcast_free_divergent_replays() {
        let mut pool = ConstPool::new();
        let (off, _) = pool.intern(&[1, 2, 3, 4, 5, 6, 7, 8]);
        // Divergent const read: each lane reads const[off + lane % 4].
        let mut b = ProgramBuilder::new("cst");
        let g = b.global_id();
        let fourm = b.imm(4);
        let idx = b.bin(BinOp::RemU, g, fourm);
        let o = b.imm(off);
        let a = b.bin(BinOp::Add, o, idx);
        b.ld_const_byte(a, 0);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(4);
        let stats = execute_simt(
            &p,
            &LaunchConfig::new(32, []),
            &mut mem,
            &pool,
            &NoopRecorder,
        )
        .unwrap();
        assert_eq!(stats.const_replays, 3, "4 distinct addresses = 3 replays");
    }

    #[test]
    fn partial_last_warp() {
        let mut b = ProgramBuilder::new("p");
        let g = b.global_id();
        b.st_global_byte(g, 0, g);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(64);
        let stats = launch(&p, 40, vec![], &mut mem);
        assert_eq!(stats.warps, 2);
        assert_eq!(mem.read_byte(39).unwrap(), 39);
        assert_eq!(mem.read_byte(40).unwrap(), 0, "lane 40 never ran");
    }

    #[test]
    fn word_access_straddling_segments_counts_two() {
        let mut b = ProgramBuilder::new("w");
        let a = b.imm(126); // crosses the 128-byte boundary
        let v = b.imm(0xAABBCCDD);
        b.st_global_word(a, 0, v);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(256);
        let stats = launch(&p, 1, vec![], &mut mem);
        assert_eq!(stats.mem_transactions, 2);
    }

    /// The legacy and pre-decoded engines must agree bit-for-bit — memory
    /// and every stats counter — on a kernel mixing divergence, loops,
    /// atomics, reductions, and a partial last warp.
    #[test]
    fn legacy_and_plan_engines_bit_identical() {
        let mut b = ProgramBuilder::new("engines_eq");
        let g = b.global_id();
        let three = b.imm(3);
        let n = b.bin(BinOp::RemU, g, three);
        let acc = b.imm(0);
        b.for_loop(n, |b, i| {
            b.bin_into(acc, BinOp::Add, acc, i);
        });
        let m = b.warp_red_max(acc);
        let merged = b.bin(BinOp::Xor, acc, m);
        let four = b.imm(4);
        let addr = b.bin(BinOp::Mul, g, four);
        b.st_global_word(addr, 0, merged);
        let one = b.imm(1);
        b.atomic_add(MemSpace::Global, addr, 0, one);
        b.halt();
        let p = b.build().unwrap();

        let lanes = 300u32; // partial last warp exercises the masked paths
        let pool = ConstPool::new();
        let cfg = LaunchConfig::new(lanes, []);

        let mut mem_legacy = DeviceMemory::new(lanes as usize * 4);
        let legacy = execute_simt_legacy(&p, &cfg, &mut mem_legacy, &pool).unwrap();
        let mut mem_plan = DeviceMemory::new(lanes as usize * 4);
        let plan = execute_simt(&p, &cfg, &mut mem_plan, &pool, &NoopRecorder).unwrap();
        assert_eq!(plan, legacy, "stats diverge");
        assert_eq!(
            mem_plan.as_bytes(),
            mem_legacy.as_bytes(),
            "memory diverges"
        );
    }

    /// A kernel whose masked region runs a masked `Bin`, `Un` and `Mov`
    /// and a branch, for the lanes `live(b, gid)` selects, over registers
    /// that hold a distinct value in every lane. Each lane stores four
    /// words, so a write to an inactive lane shows in memory.
    fn masked_alu_kernel(live: impl FnOnce(&mut ProgramBuilder, Reg) -> Reg) -> Program {
        let mut b = ProgramBuilder::new("masked_alu");
        let g = b.global_id();
        let seven = b.imm(7);
        let x = b.bin(BinOp::Add, g, seven);
        let y = b.un(UnOp::Not, x);
        let z = b.reg();
        b.mov(z, g);
        let nx = b.reg();
        let cond = live(&mut b, g);
        b.if_then(cond, |b| {
            let three = b.imm(3);
            b.bin_into(x, BinOp::Mul, x, three);
            let not_x = b.un(UnOp::Not, x);
            b.mov(nx, not_x);
            b.mov(y, x);
            let two = b.imm(2);
            let bit1 = b.bin(BinOp::And, g, two);
            b.if_then_else(
                bit1,
                |b| b.imm_into(z, 100),
                |b| b.bin_into(z, BinOp::Add, z, x),
            );
        });
        let sixteen = b.imm(16);
        let addr = b.bin(BinOp::Mul, g, sixteen);
        for (off, r) in [(0, x), (4, y), (8, nx), (12, z)] {
            b.st_global_word(addr, off, r);
        }
        b.halt();
        b.build().unwrap()
    }

    /// Run `p` on both engines; memory and every `KernelStats` field must
    /// agree. Returns the plan engine's image.
    fn plan_matches_legacy(p: &Program, lanes: u32) -> DeviceMemory {
        let pool = ConstPool::new();
        let cfg = LaunchConfig::new(lanes, []);
        let mut mem_legacy = DeviceMemory::new(lanes as usize * 16);
        let legacy = execute_simt_legacy(p, &cfg, &mut mem_legacy, &pool).unwrap();
        let mut mem_plan = DeviceMemory::new(lanes as usize * 16);
        let plan = execute_simt(p, &cfg, &mut mem_plan, &pool, &NoopRecorder).unwrap();
        assert_eq!(plan, legacy, "stats diverge");
        assert_eq!(
            mem_plan.as_bytes(),
            mem_legacy.as_bytes(),
            "memory diverges"
        );
        mem_plan
    }

    /// Masked loops run lanes `0..w`, `w` one past the highest live lane.
    /// A hole below `w` (lanes {0, 2} of 3: lane 1 is inside the bound but
    /// inactive) must keep its registers, and the branch inside must
    /// diverge on the two live lanes only.
    #[test]
    fn masked_ops_keep_an_inactive_lane_below_the_live_width() {
        assert_eq!(live_width(0b101), 3);
        let p = masked_alu_kernel(|b, g| {
            let one = b.imm(1);
            b.bin(BinOp::Ne, g, one)
        });
        let mem = plan_matches_legacy(&p, 3);
        let words = |lane: u32| [0, 4, 8, 12].map(|o| mem.read_word(lane * 16 + o).unwrap());
        assert_eq!(words(0), [21, 21, !21, 21], "lane 0 ran the else side");
        assert_eq!(words(1), [8, !8, 0, 1], "lane 1 was masked off");
        assert_eq!(words(2), [27, 27, !27, 100], "lane 2 ran the then side");
    }

    /// A branch that leaves only lane 31 live: one bit in the mask, yet
    /// the live width is the whole warp, so the masked ops and the branch
    /// scan must still reach lane 31 and leave lanes 0..31 alone.
    #[test]
    fn masked_ops_reach_lane_31_under_a_one_bit_mask() {
        assert_eq!(live_width(1 << 31), 32);
        let p = masked_alu_kernel(|b, g| {
            let last = b.imm(31);
            b.bin(BinOp::Eq, g, last)
        });
        let mem = plan_matches_legacy(&p, 32);
        let words = |lane: u32| [0, 4, 8, 12].map(|o| mem.read_word(lane * 16 + o).unwrap());
        assert_eq!(words(31), [114, 114, !114, 100]);
        for lane in 0..31 {
            assert_eq!(words(lane), [lane + 7, !(lane + 7), 0, lane], "lane {lane}");
        }
    }

    /// Both engines report the same error for the same faulting kernel.
    #[test]
    fn legacy_and_plan_engines_agree_on_faults() {
        let mut b = ProgramBuilder::new("engines_oob");
        let g = b.global_id();
        let four = b.imm(4);
        let addr = b.bin(BinOp::Mul, g, four);
        b.st_global_word(addr, 0, g);
        b.halt();
        let p = b.build().unwrap();

        let cfg = LaunchConfig::new(256, []);
        let pool = ConstPool::new();
        let mut mem_legacy = DeviceMemory::new(32 * 4);
        let legacy = execute_simt_legacy(&p, &cfg, &mut mem_legacy, &pool).unwrap_err();
        let mut mem_plan = DeviceMemory::new(32 * 4);
        let plan = execute_simt(&p, &cfg, &mut mem_plan, &pool, &NoopRecorder).unwrap_err();
        assert_eq!(plan, legacy);
        assert_eq!(mem_plan, mem_legacy, "both stop after the same warp");
    }

    /// Tracing a launch must not change stats or memory, and must record
    /// one wall-time span plus one `warp_cycles` sample per warp.
    #[test]
    fn traced_execution_bit_identical_and_records_warps() {
        use rhythm_obs::TraceRecorder;
        let mut b = ProgramBuilder::new("traced");
        let g = b.global_id();
        let three = b.imm(3);
        let n = b.bin(BinOp::RemU, g, three);
        let acc = b.imm(0);
        b.for_loop(n, |b, i| {
            b.bin_into(acc, BinOp::Add, acc, i);
        });
        let four = b.imm(4);
        let addr = b.bin(BinOp::Mul, g, four);
        b.st_global_word(addr, 0, acc);
        b.halt();
        let p = b.build().unwrap();

        let lanes = 300u32; // 10 warps, partial last warp
        let pool = ConstPool::new();
        let cfg = LaunchConfig::new(lanes, []);
        let mut mem_base = DeviceMemory::new(lanes as usize * 4);
        let base = execute_simt(&p, &cfg, &mut mem_base, &pool, &NoopRecorder).unwrap();

        let rec = TraceRecorder::new();
        let mut mem = DeviceMemory::new(lanes as usize * 4);
        let traced = execute_simt(&p, &cfg, &mut mem, &pool, &rec).unwrap();
        assert_eq!(traced, base, "tracing changed stats");
        assert_eq!(
            mem.as_bytes(),
            mem_base.as_bytes(),
            "tracing changed memory"
        );
        let spans = rec
            .events()
            .iter()
            .filter(|e| e.track == "simt:warps" && e.name.contains("traced warp"))
            .count();
        assert_eq!(spans, 10, "one span per warp");
        let h = rec.histogram("warp_cycles").expect("warp cycle histogram");
        assert_eq!(h.count(), 10);
        let ns = rec.histogram("warp_exec_ns").expect("warp time histogram");
        assert_eq!(ns.count(), 10);
    }

    /// Nested divergence exercises stack depth > 2.
    #[test]
    fn nested_divergence() {
        let mut b = ProgramBuilder::new("n");
        let g = b.global_id();
        let one = b.imm(1);
        let two = b.imm(2);
        let bit0 = b.bin(BinOp::And, g, one);
        let bit1v = b.bin(BinOp::And, g, two);
        let out = b.reg();
        b.if_then_else(
            bit0,
            |b| {
                b.if_then_else(bit1v, |b| b.imm_into(out, 3), |b| b.imm_into(out, 1));
            },
            |b| {
                b.if_then_else(bit1v, |b| b.imm_into(out, 2), |b| b.imm_into(out, 0));
            },
        );
        let four = b.imm(4);
        let addr = b.bin(BinOp::Mul, g, four);
        b.st_global_word(addr, 0, out);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(32 * 4);
        let stats = launch(&p, 32, vec![], &mut mem);
        for i in 0..32u32 {
            assert_eq!(mem.read_word(i * 4).unwrap(), i % 4, "lane {i}");
        }
        assert!(stats.divergence.max_stack_depth >= 3);
    }

    /// Arena leases go back to the pool: checkouts stay balanced and the
    /// snapshot invariant `acquired == reused + allocated` holds.
    #[test]
    fn warp_arena_counters_balance() {
        let mut b = ProgramBuilder::new("arena_smoke");
        let g = b.global_id();
        b.st_global_byte(g, 0, g);
        b.halt();
        let p = b.build().unwrap();
        let pool = ConstPool::new();
        let before = warp_arena_stats();
        let mut mem = DeviceMemory::new(64);
        execute_simt(
            &p,
            &LaunchConfig::new(64, []),
            &mut mem,
            &pool,
            &NoopRecorder,
        )
        .unwrap();
        let delta = warp_arena_stats().since(&before);
        assert!(delta.acquired >= 1, "serial launch leases one context");
        assert_eq!(delta.acquired, delta.reused + delta.allocated);
    }

    /// A response-template kernel: copy an interned string to every lane's
    /// output slot through a layout-parameterized cursor.
    fn const_copy_kernel(pool: &mut ConstPool, lane_stride: u32, elem_stride: u32) -> Program {
        let (off, len) = pool.intern_str("HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n");
        let mut b = ProgramBuilder::new("wide_copy");
        let base = b.imm(0);
        let lane = b.lane_id();
        let ls = b.imm(lane_stride);
        let es = b.imm(elem_stride);
        let cur = b.cursor(base, lane, ls, es);
        b.write_const_str(&cur, off, len);
        b.halt();
        b.build().unwrap()
    }

    /// The wide-copy fast path must be bit-identical to the legacy engine
    /// on both cohort layouts: transposed (a dense lane run per iteration,
    /// period 2 at stride 64) and row-major (starts a slot apart, period
    /// 128 at stride 1, longer than the copy). Memory bytes and every
    /// stats counter must match.
    #[test]
    fn wide_copy_bit_identical_on_both_layouts() {
        for (lane_stride, elem_stride, label) in [(1u32, 64u32, "transposed"), (64, 1, "row-major")]
        {
            let mut pool = ConstPool::new();
            let p = const_copy_kernel(&mut pool, lane_stride, elem_stride);
            let lanes = 90u32; // three warps, partial last warp
            let cfg = LaunchConfig::new(lanes, []);
            let size = 64 * lanes as usize;

            let mut mem_legacy = DeviceMemory::new(size);
            let legacy = execute_simt_legacy(&p, &cfg, &mut mem_legacy, &pool).unwrap();
            let mut mem_plan = DeviceMemory::new(size);
            let plan = execute_simt(&p, &cfg, &mut mem_plan, &pool, &NoopRecorder).unwrap();
            assert_eq!(plan, legacy, "stats diverge on {label} layout");
            assert_eq!(
                mem_plan.as_bytes(),
                mem_legacy.as_bytes(),
                "memory diverges on {label} layout"
            );
            // The fast path must actually engage: the plan path recognizes
            // the loop statically.
            let exec_plan = ExecPlan::build(&p);
            assert!(exec_plan.num_wide_copies() > 0, "copy loop not detected");
        }
    }

    /// When the instruction budget trips inside the copy loop, the fast
    /// path must decline and interpretation must reproduce the legacy
    /// fault — same error, same partially-written memory.
    #[test]
    fn wide_copy_budget_fault_identical() {
        let mut pool = ConstPool::new();
        let p = const_copy_kernel(&mut pool, 1, 64);
        let mut cfg = LaunchConfig::new(64, []);
        cfg.max_instructions = 150; // trips mid-copy
        let size = 64 * 64;

        let mut mem_legacy = DeviceMemory::new(size);
        let legacy = execute_simt_legacy(&p, &cfg, &mut mem_legacy, &pool).unwrap_err();
        let mut mem_plan = DeviceMemory::new(size);
        let plan = execute_simt(&p, &cfg, &mut mem_plan, &pool, &NoopRecorder).unwrap_err();
        assert_eq!(plan, legacy);
        assert!(matches!(plan, ExecError::Budget { .. }));
        assert_eq!(mem_plan.as_bytes(), mem_legacy.as_bytes());
    }

    /// The sorted fallback of [`global_access_counts`] sorts sector ids once
    /// and reads the transaction count off the same sorted run. On random
    /// scattered accesses of both widths — word accesses straddling sector
    /// and transaction boundaries and wrapping the address space included —
    /// it must equal two independent sort-and-dedup counts.
    #[test]
    fn one_sort_counts_match_two_sorts() {
        let mut x = 0x9E37_79B9u32;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        let mut segs = Vec::new();
        for round in 0..400 {
            let n = 1 + next() % 32;
            // Alternate wide-ranging addresses with ones clustered around a
            // boundary, where neighbouring lanes share segments.
            let spread = if round % 2 == 0 { u32::MAX } else { 700 };
            let origin = next();
            let mut addrs: Vec<(u32, u32)> = (0..n)
                .map(|lane| (lane, origin.wrapping_add(next() % spread)))
                .collect();
            if addrs.windows(2).all(|w| w[0].1 <= w[1].1) {
                addrs.reverse(); // keep it off the ascending single-pass path
            }
            for width in [Width::Byte, Width::Word] {
                let two_sorts = (
                    distinct_segments_sorted(&addrs, width, TX_BYTES, &mut segs),
                    distinct_segments_sorted(&addrs, width, SECTOR_BYTES, &mut segs),
                );
                assert_eq!(
                    global_access_counts(&addrs, width, &mut segs),
                    two_sorts,
                    "{width:?}, addrs {addrs:?}"
                );
            }
        }
    }

    /// Regression (cost-model audit): `fused_segment_counts`'s sort-free
    /// fast path must refuse interleaved per-request ascending runs. Each
    /// run is ascending but the interleaving is not globally ascending, so
    /// the fused path must return `None` and the sorted fallback must
    /// produce the true distinct-segment counts.
    #[test]
    fn charge_access_interleaved_streams_use_sorted_path() {
        // Two interleaved ascending runs (requests at 0.. and 4096..), as
        // lane-major (lane, addr) pairs.
        let mut addrs: Vec<(u32, u32)> = Vec::new();
        for i in 0..16u32 {
            addrs.push((2 * i, i));
            addrs.push((2 * i + 1, 4096 + i));
        }
        assert_eq!(
            fused_segment_counts(&addrs, Width::Byte),
            None,
            "interleaved runs must not take the ascending fast path"
        );

        // charge_access (which picks the path internally) must agree with
        // an explicit sorted-dedup reference on every counter.
        let mut segs = Vec::new();
        let mut stats = KernelStats::default();
        charge_access(MemSpace::Global, Width::Byte, &addrs, &mut segs, &mut stats);
        let ntx = distinct_segments_sorted(&addrs, Width::Byte, TX_BYTES, &mut segs);
        let nsec = distinct_segments_sorted(&addrs, Width::Byte, SECTOR_BYTES, &mut segs);
        assert_eq!(stats.mem_accesses, 1);
        assert_eq!(stats.mem_transactions, ntx);
        assert_eq!(stats.warp_cycles, ntx);
        assert_eq!(stats.dram_bytes, nsec * SECTOR_BYTES as u64);
        // Two distant 16-byte runs: one 128 B transaction and one 32 B
        // sector each.
        assert_eq!(ntx, 2);
        assert_eq!(nsec, 2);

        // Sanity: the same addresses sorted into one globally ascending
        // stream do take the fast path and agree with the fallback.
        let mut sorted = addrs.clone();
        sorted.sort_unstable_by_key(|&(_, a)| a);
        let fused = fused_segment_counts(&sorted, Width::Byte)
            .expect("ascending stream should take the fast path");
        assert_eq!(fused, (ntx, nsec));
    }
}
