//! Property tests for the SIMT substrate: CFG analysis, executor
//! equivalence, coalescing monotonicity, and the stream scheduler.

use proptest::prelude::*;

use rhythm_obs::NoopRecorder;
use rhythm_simt::exec::scalar::{execute_scalar, ScalarRun};
use rhythm_simt::exec::simt::execute_simt;
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::ir::{
    immediate_post_dominators, BinOp, Block, Op, Program, ProgramBuilder, Reg, Terminator,
    EXIT_BLOCK,
};
use rhythm_simt::mem::{ConstPool, DeviceMemory};
use rhythm_simt::streams::{schedule, StreamOp};

/// Build a random but structurally valid CFG: every block jumps or
/// branches to blocks, the last block halts.
fn arb_program(max_blocks: usize) -> impl Strategy<Value = Program> {
    (2..max_blocks)
        .prop_flat_map(|n| {
            (
                Just(n),
                prop::collection::vec((0..n as u32, 0..n as u32, any::<bool>()), n - 1),
            )
        })
        .prop_map(|(n, edges)| {
            let mut blocks = Vec::with_capacity(n);
            for (i, &(t, f, cond)) in edges.iter().enumerate() {
                let term = if cond {
                    Terminator::Br {
                        cond: Reg(0),
                        then_bb: t,
                        else_bb: f,
                    }
                } else {
                    Terminator::Jmp(t)
                };
                blocks.push(Block {
                    label: None,
                    ops: vec![Op::Imm {
                        dst: Reg(0),
                        value: i as u32,
                    }],
                    term,
                });
            }
            blocks.push(Block {
                label: None,
                ops: vec![],
                term: Terminator::Halt,
            });
            Program::from_parts("arb", blocks, 1, 0).expect("structurally valid")
        })
}

proptest! {
    /// Every block's IPDom is either EXIT or a block that post-dominates
    /// it: removing the ipdom from the CFG must disconnect the block from
    /// exit (checked by reachability).
    #[test]
    fn ipdom_postdominates(p in arb_program(10)) {
        let ip = immediate_post_dominators(&p);
        let n = p.blocks().len();
        // Reachability to exit avoiding a removed node.
        let reaches_exit = |from: usize, removed: Option<usize>| -> bool {
            let mut seen = vec![false; n];
            let mut stack = vec![from];
            while let Some(b) = stack.pop() {
                if Some(b) == removed {
                    continue;
                }
                if seen[b] {
                    continue;
                }
                seen[b] = true;
                match &p.block(b as u32).term {
                    Terminator::Halt => return true,
                    t => stack.extend(t.successors().iter().map(|&s| s as usize)),
                }
            }
            false
        };
        for (b, &d) in ip.iter().enumerate().take(n) {
            if d == EXIT_BLOCK {
                continue;
            }
            let d = d as usize;
            prop_assert_ne!(d, b, "ipdom is strict");
            if reaches_exit(b, None) {
                prop_assert!(
                    !reaches_exit(b, Some(d)),
                    "block {} reaches exit without its ipdom {}",
                    b,
                    d
                );
            }
        }
    }

    /// Scalar and SIMT executors write identical memory for arbitrary
    /// (terminating) control flow driven by lane-dependent data.
    #[test]
    fn executors_agree_on_branchy_kernels(
        lanes in 1u32..66,
        seed in any::<u32>(),
        iters in 1u32..8,
    ) {
        let mut b = ProgramBuilder::new("p");
        let gid = b.global_id();
        let s = b.imm(seed | 1);
        let acc = b.bin(BinOp::Mul, gid, s);
        let n = b.imm(iters);
        b.for_loop(n, |b, i| {
            let three = b.imm(3);
            let m = b.bin(BinOp::RemU, acc, three);
            let zero = b.imm(0);
            let is0 = b.bin(BinOp::Eq, m, zero);
            b.if_then_else(
                is0,
                |b| {
                    let c = b.imm(0x9E37);
                    b.bin_into(acc, BinOp::Add, acc, c);
                },
                |b| {
                    let one = b.imm(1);
                    let m1 = b.bin(BinOp::Eq, m, one);
                    b.if_then_else(
                        m1,
                        |b| {
                            let c = b.imm(3);
                            b.bin_into(acc, BinOp::Mul, acc, c);
                        },
                        |b| {
                            let c = b.imm(7);
                            b.bin_into(acc, BinOp::Xor, acc, c);
                        },
                    );
                },
            );
            b.bin_into(acc, BinOp::Add, acc, i);
        });
        let four = b.imm(4);
        let addr = b.bin(BinOp::Mul, gid, four);
        b.st_global_word(addr, 0, acc);
        b.halt();
        let p = b.build().unwrap();

        let pool = ConstPool::new();
        let mut simt = DeviceMemory::new(lanes as usize * 4);
        execute_simt(&p, &LaunchConfig::new(lanes, []), &mut simt, &pool, 1, &NoopRecorder).unwrap();
        let mut scalar = DeviceMemory::new(lanes as usize * 4);
        let cfg = LaunchConfig::new(1, []);
        for id in 0..lanes {
            execute_scalar(&ScalarRun::new(&p, id), &cfg, &mut scalar, &pool, None).unwrap();
        }
        prop_assert_eq!(simt.as_bytes(), scalar.as_bytes());
    }

    /// Coalescing: a warp byte-store at stride k needs a number of
    /// transactions that never decreases with the stride (up to the
    /// transaction size).
    #[test]
    fn transactions_monotone_in_stride(strides in prop::collection::vec(1u32..512, 2..6)) {
        let tx = |stride: u32| -> u64 {
            let mut b = ProgramBuilder::new("s");
            let gid = b.global_id();
            let k = b.imm(stride);
            let addr = b.bin(BinOp::Mul, gid, k);
            b.st_global_byte(addr, 0, gid);
            b.halt();
            let p = b.build().unwrap();
            let mut mem = DeviceMemory::new(512 * 32 + 8);
            let pool = ConstPool::new();
            let stats = execute_simt(&p, &LaunchConfig::new(32, []), &mut mem, &pool, 1, &NoopRecorder).unwrap();
            stats.mem_transactions
        };
        let mut sorted = strides.clone();
        sorted.sort_unstable();
        let txs: Vec<u64> = sorted.iter().map(|&s| tx(s)).collect();
        for w in txs.windows(2) {
            prop_assert!(w[0] <= w[1], "coalescing cannot improve with larger stride: {txs:?} for {sorted:?}");
        }
    }

    /// Stream scheduling: a single hardware queue is the worst case (any
    /// queue count beats it); with at least as many queues as stream ids,
    /// streams never collide (zero false-dependency stalls). Note that
    /// between two multi-queue configurations the modulo assignment can
    /// go either way — exactly the hash-collision behaviour of the real
    /// CUDA driver's stream-to-queue mapping.
    #[test]
    fn hyperq_never_hurts(
        ops in prop::collection::vec((0u32..6, 1u32..100), 1..24),
        q2 in 2u32..33,
    ) {
        let ops: Vec<StreamOp> = ops
            .into_iter()
            .map(|(stream, d)| StreamOp {
                stream,
                duration_s: d as f64 * 1e-6,
                label: "k",
            })
            .collect();
        let few = schedule(&ops, 1, 16);
        let many = schedule(&ops, q2, 16);
        prop_assert!(many.makespan_s <= few.makespan_s + 1e-12);
        let ample = schedule(&ops, 33, 16);
        prop_assert_eq!(ample.false_dependency_stalls, 0, "one queue per stream");
        prop_assert!(ample.makespan_s <= many.makespan_s + 1e-12);

        // Same-stream ops never overlap.
        for (i, a) in ops.iter().enumerate() {
            for (j, b) in ops.iter().enumerate().skip(i + 1) {
                if a.stream == b.stream {
                    let (ta, tb) = (&many.timings[i], &many.timings[j]);
                    prop_assert!(tb.start_s >= ta.end_s - 1e-12);
                }
            }
        }
    }

    /// DeviceMemory loads/slices round-trip arbitrary data at arbitrary
    /// in-range offsets.
    #[test]
    fn device_memory_roundtrip(
        data in prop::collection::vec(any::<u8>(), 1..256),
        pad in 0u32..64,
    ) {
        let mut mem = DeviceMemory::new(data.len() + pad as usize);
        mem.load(pad.min(mem.len() as u32 - data.len() as u32), &data).unwrap();
        let off = pad.min(mem.len() as u32 - data.len() as u32);
        prop_assert_eq!(mem.slice(off, data.len() as u32).unwrap(), &data[..]);
    }
}
