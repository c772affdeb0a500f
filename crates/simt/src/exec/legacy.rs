//! The legacy masked SIMT engine: walks the boxed IR directly, lane-major
//! and fully masked, with per-launch CFG analysis.
//!
//! It is the project's reference semantics. Production paths use the
//! pre-decoded engine in [`super::simt`]; this one is the independently
//! implemented oracle for differential tests and the `bench_kernels`
//! baseline. It shares that module's warp scheduler and memory cost
//! model, so memory, stats, and errors are bit-identical between the two
//! engines.
//!
//! [`execute_lanes`] runs the same engine one lane at a time, each lane a
//! one-lane warp. That is the CPU model (the paper's "standalone C
//! implementation", one core running the handler sequentially) and the
//! source of the dynamic basic-block traces behind Figure 2's
//! request-similarity study.

use rhythm_obs::NoopRecorder;

use crate::ir::{BlockId, CfgInfo, MemSpace, Op, Program, Reg, Terminator, Width, EXIT_BLOCK};
use crate::mem::{ConstPool, DeviceMemory, DeviceView, MemError};
use crate::stats::KernelStats;

use super::simt::{charge_access, count_distinct, dispatch_warps, iter_lanes, StackEntry, LANES};
use super::{read_buf, write_buf, ExecError, LaunchConfig};

/// Execute a launch on the legacy engine, warps in lockstep. Memory,
/// stats, and errors are bit-identical to [`execute_simt`].
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
        warp.run(program, &cfginfo, cfg, &mut gmem, pool, None)
    })
}

/// Execute a launch one lane at a time: each of `cfg.lanes` lanes runs to
/// completion, in lane order, as a one-lane warp whose `GlobalId` is the
/// lane's index (and whose `LaneId` is 0). This is the CPU model: the
/// same kernel, run sequentially with no lockstep.
///
/// `trace`, when supplied, receives the dynamic sequence of [`BlockId`]s
/// entered, lane after lane — the basic-block trace `rhythm-trace` merges.
/// The returned stats sum the one-lane warps, so `max_instructions` is a
/// per-lane budget and a `WarpRedMax` is charged as a warp's five issues.
///
/// # Errors
///
/// Same failures as [`execute_simt_legacy`]; the first faulting lane stops
/// the launch.
///
/// # Example
///
/// ```
/// use rhythm_simt::ir::ProgramBuilder;
/// use rhythm_simt::exec::{legacy::execute_lanes, LaunchConfig};
/// use rhythm_simt::mem::{ConstPool, DeviceMemory};
///
/// let mut b = ProgramBuilder::new("store42");
/// let v = b.imm(42);
/// let a = b.imm(0);
/// b.st_global_word(a, 0, v);
/// b.halt();
/// let p = b.build()?;
///
/// let mut mem = DeviceMemory::new(16);
/// let pool = ConstPool::new();
/// let cfg = LaunchConfig::new(1, []);
/// let mut trace = Vec::new();
/// let stats = execute_lanes(&p, &cfg, &mut mem, &pool, Some(&mut trace))?;
/// assert_eq!(mem.read_word(0)?, 42);
/// assert_eq!(trace, [p.entry()]);
/// assert_eq!(stats.warp_instructions, 4); // 3 ops + halt
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn execute_lanes(
    program: &Program,
    cfg: &LaunchConfig,
    mem: &mut DeviceMemory,
    pool: &ConstPool,
    mut trace: Option<&mut Vec<BlockId>>,
) -> Result<KernelStats, ExecError> {
    let cfginfo = CfgInfo::analyze(program);
    let mut gmem = mem.view();
    let mut warp = WarpState::new(program, cfg);
    let mut total = KernelStats::default();
    for lane in 0..cfg.lanes {
        warp.reset(lane, 1);
        let s = warp.run(
            program,
            &cfginfo,
            cfg,
            &mut gmem,
            pool,
            trace.as_deref_mut(),
        )?;
        total.merge(&KernelStats {
            lanes: 1,
            warps: 1,
            max_warp_cycles: s.warp_cycles,
            ..s
        });
    }
    Ok(total)
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

    /// Start a warp of `count` lanes: zero the registers and local memory
    /// of those lanes (no mask reaches a lane past them) and all of shared
    /// memory.
    fn reset(&mut self, base: u32, count: u32) {
        self.base = base;
        self.count = count;
        self.regs[..count as usize * self.num_regs].fill(0);
        self.local[..count as usize * self.local_bytes].fill(0);
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

    /// Every live lane's `(lane, reg(addr) + offset)`, in lane order, in
    /// the `addrs` scratch taken out of `self` (the caller puts it back).
    fn gather_addrs(&mut self, mask: u32, addr: Reg, offset: u32) -> Vec<(u32, u32)> {
        let mut addrs = std::mem::take(&mut self.addrs);
        addrs.clear();
        addrs
            .extend(iter_lanes(mask).map(|lane| (lane, self.reg(lane, addr).wrapping_add(offset))));
        addrs
    }

    /// Lane `lane`'s load: global memory through the launch's
    /// [`DeviceView`], constant memory from the pool, local and shared
    /// memory from the warp's buffers.
    fn load(
        &self,
        lane: u32,
        space: MemSpace,
        width: Width,
        addr: u32,
        gmem: &DeviceView<'_>,
        pool: &ConstPool,
    ) -> Result<u32, ExecError> {
        let lo = lane as usize * self.local_bytes;
        Ok(match (space, width) {
            (MemSpace::Global, Width::Byte) => gmem.read_byte(addr)?,
            (MemSpace::Global, Width::Word) => gmem.read_word(addr)?,
            (MemSpace::Const, Width::Byte) => pool.read_byte(addr)?,
            (MemSpace::Const, Width::Word) => pool.read_word(addr)?,
            (MemSpace::Local, _) => {
                read_buf(&self.local[lo..lo + self.local_bytes], space, width, addr)?
            }
            (MemSpace::Shared, _) => read_buf(&self.shared, space, width, addr)?,
        })
    }

    /// Store counterpart of [`Self::load`]; constant memory is read-only.
    fn store(
        &mut self,
        lane: u32,
        space: MemSpace,
        width: Width,
        addr: u32,
        value: u32,
        gmem: &mut DeviceView<'_>,
    ) -> Result<(), ExecError> {
        let lo = lane as usize * self.local_bytes;
        match (space, width) {
            (MemSpace::Global, Width::Byte) => gmem.write_byte(addr, value)?,
            (MemSpace::Global, Width::Word) => gmem.write_word(addr, value)?,
            (MemSpace::Const, _) => return Err(MemError::ReadOnly { space }.into()),
            (MemSpace::Local, _) => write_buf(
                &mut self.local[lo..lo + self.local_bytes],
                space,
                width,
                addr,
                value,
            )?,
            (MemSpace::Shared, _) => write_buf(&mut self.shared, space, width, addr, value)?,
        }
        Ok(())
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
        mut trace: Option<&mut Vec<BlockId>>,
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
            if let Some(t) = trace.as_deref_mut() {
                t.push(cur);
            }

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
                let addrs = self.gather_addrs(mask, addr, offset);
                for &(lane, a) in &addrs {
                    let v = self.load(lane, space, width, a, gmem, pool)?;
                    self.set_reg(lane, dst, v);
                }
                charge_access(space, width, &addrs, &mut self.segs, stats);
                self.addrs = addrs;
            }
            Op::St {
                width,
                space,
                src,
                addr,
                offset,
            } => {
                let addrs = self.gather_addrs(mask, addr, offset);
                for &(lane, a) in &addrs {
                    let v = self.reg(lane, src);
                    self.store(lane, space, width, a, v, gmem)?;
                }
                charge_access(space, width, &addrs, &mut self.segs, stats);
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
                let addrs = self.gather_addrs(mask, addr, offset);
                // Lanes are serviced in lane order; same-address lanes
                // serialize (each sees the previous lane's update).
                for &(lane, a) in &addrs {
                    let add = self.reg(lane, src);
                    let old = if space == MemSpace::Global {
                        gmem.atomic_add_word(a, add)?
                    } else {
                        let old = self.load(lane, space, Width::Word, a, gmem, pool)?;
                        self.store(lane, space, Width::Word, a, old.wrapping_add(add), gmem)?;
                        old
                    };
                    self.set_reg(lane, dst, old);
                }
                // Cost: transactions as a word access plus serialization of
                // duplicate addresses.
                charge_access(space, Width::Word, &addrs, &mut self.segs, stats);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, ProgramBuilder};

    fn run(p: &Program, mem: &mut DeviceMemory, lanes: u32, params: Vec<u32>) -> KernelStats {
        let pool = ConstPool::new();
        let mut cfg = LaunchConfig::new(lanes, params);
        cfg.max_instructions = 1_000_000;
        execute_lanes(p, &cfg, mem, &pool, None).unwrap()
    }

    #[test]
    fn loop_executes_n_times() {
        let mut b = ProgramBuilder::new("sum");
        let n = b.param(0);
        let acc = b.imm(0);
        b.for_loop(n, |b, i| {
            b.bin_into(acc, BinOp::Add, acc, i);
        });
        let a = b.imm(0);
        b.st_global_word(a, 0, acc);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(8);
        run(&p, &mut mem, 1, vec![5]);
        assert_eq!(mem.read_word(0).unwrap(), 10); // 0+1+2+3+4
    }

    #[test]
    fn global_id_visible() {
        let mut b = ProgramBuilder::new("gid");
        let g = b.global_id();
        let four = b.imm(4);
        let a = b.bin(BinOp::Mul, g, four);
        b.st_global_word(a, 0, g);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(8 * 4);
        run(&p, &mut mem, 8, vec![]);
        for lane in 0..8 {
            assert_eq!(mem.read_word(lane * 4).unwrap(), lane);
        }
    }

    #[test]
    fn trace_records_blocks() {
        let mut b = ProgramBuilder::new("t");
        let n = b.imm(2);
        b.for_loop(n, |b, _| {
            b.imm(0);
        });
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(4);
        let pool = ConstPool::new();
        let cfg = LaunchConfig::new(1, []);
        let mut trace = Vec::new();
        execute_lanes(&p, &cfg, &mut mem, &pool, Some(&mut trace)).unwrap();
        assert_eq!(trace[0], p.entry());
        // header visits = 3 (two taken + one exit), body visits = 2
        let headers = trace.iter().filter(|&&x| x == 1).count();
        assert_eq!(headers, 3);
    }

    #[test]
    fn budget_guard_trips() {
        let mut b = ProgramBuilder::new("inf");
        let loop_bb = b.new_block("loop");
        b.jump(loop_bb);
        b.switch_to(loop_bb);
        b.imm(0);
        b.jump(loop_bb);
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(4);
        let pool = ConstPool::new();
        let mut cfg = LaunchConfig::new(1, []);
        cfg.max_instructions = 1000;
        let err = execute_lanes(&p, &cfg, &mut mem, &pool, None).unwrap_err();
        assert!(matches!(err, ExecError::Budget { .. }));
    }

    #[test]
    fn missing_param_reported() {
        let mut b = ProgramBuilder::new("p");
        b.param(3);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(4);
        let pool = ConstPool::new();
        let cfg = LaunchConfig::new(1, vec![1, 2]);
        let err = execute_lanes(&p, &cfg, &mut mem, &pool, None).unwrap_err();
        assert_eq!(err, ExecError::MissingParam { index: 3 });
    }

    #[test]
    fn const_store_rejected() {
        let mut b = ProgramBuilder::new("w");
        let a = b.imm(0);
        let v = b.imm(1);
        b.st(Width::Byte, MemSpace::Const, a, 0, v);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(4);
        let pool = ConstPool::new();
        let cfg = LaunchConfig::new(1, []);
        let err = execute_lanes(&p, &cfg, &mut mem, &pool, None).unwrap_err();
        assert!(matches!(err, ExecError::Mem(MemError::ReadOnly { .. })));
    }

    #[test]
    fn atomic_add_returns_old() {
        let mut b = ProgramBuilder::new("a");
        let a = b.imm(0);
        let v = b.imm(5);
        let old = b.atomic_add(MemSpace::Global, a, 0, v);
        let out = b.imm(4);
        b.st_global_word(out, 0, old);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(8);
        mem.write_word(0, 10).unwrap();
        run(&p, &mut mem, 1, vec![]);
        assert_eq!(mem.read_word(0).unwrap(), 15);
        assert_eq!(mem.read_word(4).unwrap(), 10);
    }

    #[test]
    fn write_decimal_and_read_back() {
        let mut b = ProgramBuilder::new("dec");
        let base = b.imm(0);
        let lane = b.lane_id();
        let ls = b.imm(32);
        let es = b.imm(1);
        let cur = b.cursor(base, lane, ls, es);
        let v = b.imm(9041);
        b.write_decimal(&cur, v, 0);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(32);
        run(&p, &mut mem, 1, vec![]);
        assert_eq!(mem.slice(0, 4).unwrap(), b"9041");
    }

    #[test]
    fn write_decimal_zero() {
        let mut b = ProgramBuilder::new("dec0");
        let base = b.imm(0);
        let lane = b.lane_id();
        let ls = b.imm(32);
        let es = b.imm(1);
        let cur = b.cursor(base, lane, ls, es);
        let v = b.imm(0);
        b.write_decimal(&cur, v, 0);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(32);
        run(&p, &mut mem, 1, vec![]);
        assert_eq!(mem.slice(0, 1).unwrap(), b"0");
    }

    /// Every lane starts from zeroed registers and local memory: lane k
    /// leaves a nonzero register and local byte in the one-lane warp's
    /// slots, and lane k + 1 reads both as zero.
    #[test]
    fn each_lane_starts_zeroed() {
        let mut b = ProgramBuilder::new("fresh");
        let r = b.reg();
        let zero = b.imm(0);
        let byte = b.ld_local_byte(zero, 0);
        let g = b.global_id();
        let eight = b.imm(8);
        let out = b.bin(BinOp::Mul, g, eight);
        b.st_global_word(out, 0, r);
        b.st_global_word(out, 4, byte);
        let one = b.imm(1);
        let mark = b.bin(BinOp::Add, g, one);
        b.mov(r, mark);
        b.st_local_byte(zero, 0, mark);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(4 * 8);
        mem.load(0, &[0xFF; 4 * 8]).unwrap();
        run(&p, &mut mem, 4, vec![]);
        assert_eq!(mem.as_bytes(), [0; 4 * 8]);
    }

    #[test]
    fn const_str_copy() {
        let mut pool = ConstPool::new();
        let (off, len) = pool.intern_str("HTTP/1.1 200 OK");
        let mut b = ProgramBuilder::new("c");
        let base = b.imm(0);
        let lane = b.lane_id();
        let ls = b.imm(64);
        let es = b.imm(1);
        let cur = b.cursor(base, lane, ls, es);
        b.write_const_str(&cur, off, len);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = DeviceMemory::new(64);
        let cfg = LaunchConfig::new(1, []);
        execute_lanes(&p, &cfg, &mut mem, &pool, None).unwrap();
        assert_eq!(mem.slice(0, len).unwrap(), b"HTTP/1.1 200 OK");
    }
}
