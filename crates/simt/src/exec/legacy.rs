//! The legacy masked SIMT engine: walks the boxed IR directly, lane-major
//! and fully masked, with per-launch CFG analysis.
//!
//! Retained as the independently implemented oracle for differential tests
//! and as the `bench_kernels` baseline; production paths use the
//! pre-decoded engine in [`super::simt`]. It shares that module's warp
//! scheduler and memory cost model, so memory, stats, and errors are
//! bit-identical between the two engines.

use rhythm_obs::NoopRecorder;

use crate::ir::{CfgInfo, MemSpace, Op, Program, Reg, Terminator, Width, EXIT_BLOCK};
use crate::mem::{ConstPool, DeviceMemory, DeviceView, MemError};
use crate::stats::KernelStats;

use super::scalar::{read_buf, write_buf};
use super::simt::{charge_access, count_distinct, dispatch_warps, iter_lanes, StackEntry, LANES};
use super::{ExecError, LaunchConfig};

/// Execute a launch on the legacy (non-pre-decoded) engine: lane-major
/// registers, per-launch CFG analysis, fully masked lane iteration.
///
/// Kept as the independently implemented oracle for differential tests and
/// as the `bench_kernels` baseline; production paths use the pre-decoded
/// engine. Memory, stats, and errors are bit-identical to
/// [`execute_simt`].
///
/// # Errors
///
/// Same failures as [`execute_simt`].
///
/// [`execute_simt`]: super::simt::execute_simt
pub fn execute_simt_legacy(
    program: &Program,
    cfg: &LaunchConfig,
    mem: &mut DeviceMemory,
    pool: &ConstPool,
) -> Result<KernelStats, ExecError> {
    let cfginfo = CfgInfo::analyze(program);
    let mut gmem = mem.view();
    let mut warp = WarpState::new(program, cfg);
    dispatch_warps(cfg, program.name(), &NoopRecorder, |base, count| {
        warp.reset(base, count);
        warp.run(program, &cfginfo, cfg, &mut gmem, pool)
    })
}

/// Reusable per-warp execution state of the legacy engine (lane-major
/// register file, local/shared memory).
struct WarpState {
    /// Flat register file: `regs[lane * num_regs + r]`.
    regs: Vec<u32>,
    /// Flat per-lane local memory: `local[lane * local_bytes ..]`.
    local: Vec<u8>,
    /// Per-warp shared memory.
    shared: Vec<u8>,
    num_regs: usize,
    local_bytes: usize,
    base: u32,
    count: u32,
    /// Scratch for gathering lane addresses on memory ops.
    addrs: Vec<(u32, u32)>,
    /// Scratch for segment ids and sorted-address dedup.
    segs: Vec<u32>,
}

impl WarpState {
    fn new(program: &Program, cfg: &LaunchConfig) -> Self {
        let num_regs = program.num_regs() as usize;
        WarpState {
            regs: vec![0; num_regs * LANES],
            local: vec![0; cfg.local_bytes as usize * LANES],
            shared: vec![0; cfg.shared_bytes as usize],
            num_regs,
            local_bytes: cfg.local_bytes as usize,
            base: 0,
            count: 0,
            addrs: Vec::with_capacity(LANES),
            segs: Vec::with_capacity(LANES * 2),
        }
    }

    fn reset(&mut self, base: u32, count: u32) {
        self.base = base;
        self.count = count;
        self.regs.fill(0);
        self.local.fill(0);
        self.shared.fill(0);
    }

    #[inline]
    fn reg(&self, lane: u32, r: Reg) -> u32 {
        self.regs[lane as usize * self.num_regs + r.0 as usize]
    }

    #[inline]
    fn set_reg(&mut self, lane: u32, r: Reg, v: u32) {
        self.regs[lane as usize * self.num_regs + r.0 as usize] = v;
    }

    fn full_mask(&self) -> u32 {
        if self.count >= 32 {
            u32::MAX
        } else {
            (1u32 << self.count) - 1
        }
    }

    fn run(
        &mut self,
        program: &Program,
        cfg: &CfgInfo,
        launch: &LaunchConfig,
        gmem: &mut DeviceView<'_>,
        pool: &ConstPool,
    ) -> Result<KernelStats, ExecError> {
        let mut stats = KernelStats::default();
        let mut stack: Vec<StackEntry> = vec![StackEntry {
            block: program.entry(),
            mask: self.full_mask(),
            reconv: EXIT_BLOCK,
        }];
        let mut halted: u32 = 0;

        while let Some(top) = stack.last_mut() {
            top.mask &= !halted;
            if top.mask == 0 {
                stack.pop();
                continue;
            }
            if top.block == top.reconv {
                stats.divergence.reconvergences += 1;
                stack.pop();
                continue;
            }
            if top.block == EXIT_BLOCK {
                return Err(ExecError::Reconvergence(
                    "union entry surfaced at exit with live lanes",
                ));
            }
            let mask = top.mask;
            let cur = top.block;
            let block = program.block(cur);

            for op in &block.ops {
                stats.warp_instructions += 1;
                stats.lane_instructions += mask.count_ones() as u64;
                stats.warp_cycles += 1;
                if stats.warp_instructions > launch.max_instructions {
                    return Err(ExecError::Budget {
                        executed: stats.warp_instructions,
                    });
                }
                self.exec_op(op, mask, launch, gmem, pool, &mut stats)?;
            }

            // Terminator: also one issue.
            stats.warp_instructions += 1;
            stats.lane_instructions += mask.count_ones() as u64;
            stats.warp_cycles += 1;

            match block.term {
                Terminator::Jmp(t) => {
                    let top = stack.last_mut().expect("stack nonempty");
                    top.block = t;
                }
                Terminator::Halt => {
                    halted |= mask;
                }
                Terminator::Br {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    stats.divergence.branches += 1;
                    let mut mask_t = 0u32;
                    for lane in iter_lanes(mask) {
                        if self.reg(lane, cond) != 0 {
                            mask_t |= 1 << lane;
                        }
                    }
                    let mask_f = mask & !mask_t;
                    let top = stack.last_mut().expect("stack nonempty");
                    if mask_f == 0 {
                        top.block = then_bb;
                    } else if mask_t == 0 {
                        top.block = else_bb;
                    } else {
                        stats.divergence.divergent_branches += 1;
                        let r = cfg.ipdom(cur);
                        top.block = r;
                        if else_bb != r {
                            stack.push(StackEntry {
                                block: else_bb,
                                mask: mask_f,
                                reconv: r,
                            });
                        }
                        if then_bb != r {
                            stack.push(StackEntry {
                                block: then_bb,
                                mask: mask_t,
                                reconv: r,
                            });
                        }
                        stats.divergence.max_stack_depth =
                            stats.divergence.max_stack_depth.max(stack.len() as u32);
                    }
                }
            }
        }
        Ok(stats)
    }

    fn exec_op(
        &mut self,
        op: &Op,
        mask: u32,
        launch: &LaunchConfig,
        gmem: &mut DeviceView<'_>,
        pool: &ConstPool,
        stats: &mut KernelStats,
    ) -> Result<(), ExecError> {
        match *op {
            Op::Imm { dst, value } => {
                for lane in iter_lanes(mask) {
                    self.set_reg(lane, dst, value);
                }
            }
            Op::Mov { dst, src } => {
                for lane in iter_lanes(mask) {
                    let v = self.reg(lane, src);
                    self.set_reg(lane, dst, v);
                }
            }
            Op::Bin { op, dst, a, b } => {
                for lane in iter_lanes(mask) {
                    let v = op.eval(self.reg(lane, a), self.reg(lane, b));
                    self.set_reg(lane, dst, v);
                }
            }
            Op::Un { op, dst, a } => {
                for lane in iter_lanes(mask) {
                    let v = op.eval(self.reg(lane, a));
                    self.set_reg(lane, dst, v);
                }
            }
            Op::LaneId { dst } => {
                for lane in iter_lanes(mask) {
                    self.set_reg(lane, dst, lane);
                }
            }
            Op::GlobalId { dst } => {
                for lane in iter_lanes(mask) {
                    self.set_reg(lane, dst, self.base + lane);
                }
            }
            Op::Param { dst, index } => {
                let v = launch
                    .params
                    .get(index as usize)
                    .copied()
                    .ok_or(ExecError::MissingParam { index })?;
                for lane in iter_lanes(mask) {
                    self.set_reg(lane, dst, v);
                }
            }
            Op::Ld {
                width,
                space,
                dst,
                addr,
                offset,
            } => {
                self.addrs.clear();
                for lane in iter_lanes(mask) {
                    let a = self.reg(lane, addr).wrapping_add(offset);
                    self.addrs.push((lane, a));
                }
                let addrs = std::mem::take(&mut self.addrs);
                for &(lane, a) in &addrs {
                    let lo = lane as usize * self.local_bytes;
                    let v = warp_load(
                        space,
                        width,
                        a,
                        &self.local[lo..lo + self.local_bytes],
                        &self.shared,
                        gmem,
                        pool,
                    )?;
                    self.set_reg(lane, dst, v);
                }
                charge_access(space, width, &addrs, launch, &mut self.segs, stats);
                self.addrs = addrs;
            }
            Op::St {
                width,
                space,
                src,
                addr,
                offset,
            } => {
                self.addrs.clear();
                for lane in iter_lanes(mask) {
                    let a = self.reg(lane, addr).wrapping_add(offset);
                    self.addrs.push((lane, a));
                }
                let addrs = std::mem::take(&mut self.addrs);
                for &(lane, a) in &addrs {
                    let v = self.reg(lane, src);
                    let lo = lane as usize * self.local_bytes;
                    warp_store(
                        space,
                        width,
                        a,
                        v,
                        &mut self.local[lo..lo + self.local_bytes],
                        &mut self.shared,
                        gmem,
                    )?;
                }
                charge_access(space, width, &addrs, launch, &mut self.segs, stats);
                self.addrs = addrs;
            }
            Op::WarpRedMax { dst, src } => {
                // Butterfly reduction over active lanes: log2(32) = 5 steps
                // through shared memory.
                let mut m = 0u32;
                for lane in iter_lanes(mask) {
                    m = m.max(self.reg(lane, src));
                }
                for lane in iter_lanes(mask) {
                    self.set_reg(lane, dst, m);
                }
                // 5 extra warp issues beyond the one already charged.
                stats.warp_instructions += 4;
                stats.lane_instructions += 4 * mask.count_ones() as u64;
                stats.warp_cycles += 4;
            }
            Op::AtomicAdd {
                dst,
                space,
                addr,
                offset,
                src,
            } => {
                self.addrs.clear();
                for lane in iter_lanes(mask) {
                    let a = self.reg(lane, addr).wrapping_add(offset);
                    self.addrs.push((lane, a));
                }
                let addrs = std::mem::take(&mut self.addrs);
                // Lanes are serviced in lane order; same-address lanes
                // serialize (each sees the previous lane's update).
                for &(lane, a) in &addrs {
                    let add = self.reg(lane, src);
                    let old = if space == MemSpace::Global {
                        gmem.atomic_add_word(a, add)?
                    } else {
                        let lo = lane as usize * self.local_bytes;
                        let old = warp_load(
                            space,
                            Width::Word,
                            a,
                            &self.local[lo..lo + self.local_bytes],
                            &self.shared,
                            gmem,
                            pool,
                        )?;
                        warp_store(
                            space,
                            Width::Word,
                            a,
                            old.wrapping_add(add),
                            &mut self.local[lo..lo + self.local_bytes],
                            &mut self.shared,
                            gmem,
                        )?;
                        old
                    };
                    self.set_reg(lane, dst, old);
                }
                // Cost: transactions as a word access plus serialization of
                // duplicate addresses.
                charge_access(space, Width::Word, &addrs, launch, &mut self.segs, stats);
                self.segs.clear();
                self.segs.extend(addrs.iter().map(|&(_, a)| a));
                self.segs.sort_unstable();
                let distinct = count_distinct(&self.segs);
                let dups = addrs.len() as u64 - distinct as u64;
                stats.atomic_serializations += dups;
                stats.warp_cycles += dups;
                self.addrs = addrs;
            }
        }
        Ok(())
    }
}

/// Lane load used by the legacy engine: identical to the scalar path but
/// global memory goes through the launch's [`DeviceView`].
fn warp_load(
    space: MemSpace,
    width: Width,
    addr: u32,
    local: &[u8],
    shared: &[u8],
    gmem: &DeviceView<'_>,
    pool: &ConstPool,
) -> Result<u32, ExecError> {
    let out = match space {
        MemSpace::Global => match width {
            Width::Byte => gmem.read_byte(addr)?,
            Width::Word => gmem.read_word(addr)?,
        },
        MemSpace::Const => match width {
            Width::Byte => pool.read_byte(addr)?,
            Width::Word => pool.read_word(addr)?,
        },
        MemSpace::Local => read_buf(local, MemSpace::Local, width, addr)?,
        MemSpace::Shared => read_buf(shared, MemSpace::Shared, width, addr)?,
    };
    Ok(out)
}

/// Lane store counterpart of [`warp_load`].
fn warp_store(
    space: MemSpace,
    width: Width,
    addr: u32,
    value: u32,
    local: &mut [u8],
    shared: &mut [u8],
    gmem: &mut DeviceView<'_>,
) -> Result<(), ExecError> {
    match space {
        MemSpace::Global => match width {
            Width::Byte => gmem.write_byte(addr, value)?,
            Width::Word => gmem.write_word(addr, value)?,
        },
        MemSpace::Const => {
            return Err(MemError::ReadOnly {
                space: MemSpace::Const,
            }
            .into())
        }
        MemSpace::Local => write_buf(local, MemSpace::Local, width, addr, value)?,
        MemSpace::Shared => write_buf(shared, MemSpace::Shared, width, addr, value)?,
    }
    Ok(())
}
