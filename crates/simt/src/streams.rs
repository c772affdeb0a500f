//! Stream scheduling model: HyperQ vs single hardware work queue.
//!
//! Rhythm keeps many cohorts in flight, each as a CUDA stream of dependent
//! kernels. Pre-Kepler devices expose a single hardware queue, so kernels
//! from *different* streams that happen to be enqueued back-to-back create
//! false dependencies and serialize. Kepler's HyperQ provides 32 hardware
//! queues, eliminating the false dependencies (paper §6.4 "HyperQ").
//!
//! [`schedule`] replays an enqueue-ordered list of kernel launches under a
//! given queue count and concurrency limit and reports the makespan and
//! per-op timing, letting `rhythm-bench` reproduce the GTX 690 vs Titan
//! comparison.
//!
//! [`execute_streams`] is the execution counterpart of the timing model:
//! it actually runs kernel launches from independent streams concurrently
//! on a host worker pool, serializing only the true (same-stream)
//! dependencies.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

use rhythm_obs::NoopRecorder;

use crate::exec::{ExecError, LaunchConfig};
use crate::gpu::{Gpu, GpuConfig, LaunchResult};
use crate::ir::Program;
use crate::mem::{ConstPool, DeviceMemory};

/// One kernel launch in enqueue order.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct StreamOp {
    /// Logical stream (cohort pipeline) id; ops in one stream serialize.
    pub stream: u32,
    /// Modelled execution time of this kernel, in seconds.
    pub duration_s: f64,
    /// Label for reports (e.g. `"parse"`, `"process0"`, `"response"`).
    pub label: &'static str,
}

/// Timing assigned to one op by [`schedule`].
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct OpTiming {
    /// Start time in seconds from queue-empty.
    pub start_s: f64,
    /// End time in seconds.
    pub end_s: f64,
}

/// Result of replaying a launch sequence.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Schedule {
    /// Per-op start/end, in input order.
    pub timings: Vec<OpTiming>,
    /// Total time until the last kernel completes.
    pub makespan_s: f64,
    /// Ops whose start was delayed by a *false* dependency (head-of-line
    /// blocking behind an unrelated stream in the same hardware queue).
    pub false_dependency_stalls: u64,
}

/// Replay `ops` (in enqueue order) onto a device with `hw_queues` hardware
/// queues and at most `concurrency` kernels resident at once.
///
/// Streams are assigned to hardware queues round-robin (`stream %
/// hw_queues`), as the CUDA driver does. Within a hardware queue, a kernel
/// cannot start before the previous kernel in that queue has *completed* —
/// this is the false-dependency behaviour when the queue multiplexes
/// several streams. True (same-stream) dependencies always hold.
///
/// # Panics
///
/// Panics if `hw_queues == 0` or `concurrency == 0`.
pub fn schedule(ops: &[StreamOp], hw_queues: u32, concurrency: u32) -> Schedule {
    assert!(hw_queues > 0, "need at least one hardware queue");
    assert!(concurrency > 0, "need concurrency of at least one");

    let mut timings = Vec::with_capacity(ops.len());
    let mut stream_free: std::collections::HashMap<u32, f64> = Default::default();
    let mut queue_free: Vec<f64> = vec![0.0; hw_queues as usize];
    // End times of currently modelled executions, for the concurrency cap.
    let mut running: Vec<f64> = Vec::new();
    let mut false_stalls = 0u64;
    let mut makespan = 0.0f64;
    // Which stream last used each hw queue (to classify stalls).
    let mut queue_last_stream: Vec<Option<u32>> = vec![None; hw_queues as usize];

    for op in ops {
        let q = (op.stream % hw_queues) as usize;
        let stream_ready = stream_free.get(&op.stream).copied().unwrap_or(0.0);
        let queue_ready = queue_free[q];

        // Concurrency cap: if `concurrency` kernels are running at the
        // candidate start, wait for the earliest completion.
        let mut start = stream_ready.max(queue_ready);
        loop {
            let active = running.iter().filter(|&&e| e > start).count();
            if active < concurrency as usize {
                break;
            }
            let next_end = running
                .iter()
                .copied()
                .filter(|&e| e > start)
                .fold(f64::INFINITY, f64::min);
            start = next_end;
        }

        if queue_ready > stream_ready
            && queue_last_stream[q].is_some_and(|s| s != op.stream)
            && start == queue_ready
        {
            false_stalls += 1;
        }

        let end = start + op.duration_s;
        timings.push(OpTiming {
            start_s: start,
            end_s: end,
        });
        stream_free.insert(op.stream, end);
        queue_free[q] = end;
        queue_last_stream[q] = Some(op.stream);
        running.push(end);
        makespan = makespan.max(end);
    }

    Schedule {
        timings,
        makespan_s: makespan,
        false_dependency_stalls: false_stalls,
    }
}

/// One execution stream: a memory image plus the kernels that run against
/// it in order. Mirrors a CUDA stream holding one cohort's pipeline of
/// dependent kernels.
#[derive(Debug)]
pub struct ExecStream<'a> {
    /// Logical stream (cohort pipeline) id, for reports.
    pub stream: u32,
    /// The stream's device image; every kernel of this stream runs
    /// against it, so true (same-stream) dependencies chain naturally.
    pub mem: DeviceMemory,
    /// Constant pool shared by the stream's kernels.
    pub pool: &'a ConstPool,
    /// Kernels in enqueue order: `(label, program, launch config)`.
    pub kernels: Vec<(&'static str, &'a Program, LaunchConfig)>,
}

/// Result of one stream executed by [`execute_streams`].
#[derive(Debug)]
pub struct StreamExecResult {
    /// The stream id.
    pub stream: u32,
    /// The memory image after all of the stream's kernels ran.
    pub mem: DeviceMemory,
    /// Per-kernel stats and modelled latency, in enqueue order.
    pub launches: Vec<(&'static str, LaunchResult)>,
}

/// Execute independent streams concurrently on `workers` host threads
/// (`0` = one per available core), each stream's kernels in order.
///
/// This is the execution counterpart of [`schedule`]: streams are claimed
/// by workers through a dynamic counter and run truly concurrently (the
/// HyperQ behaviour), while kernels within a stream serialize on the
/// stream's memory image. Kernels execute with serial warps here —
/// stream-level parallelism already occupies the pool — and each stream
/// owns its image, so results are bit-identical at any worker count.
///
/// Results come back in the input order of `streams`.
///
/// # Errors
///
/// Returns the error of the earliest (by input order) faulting stream.
/// Later kernels of a faulting stream never run; other streams always run
/// to completion, so the reported error does not depend on scheduling.
pub fn execute_streams(
    config: &GpuConfig,
    streams: Vec<ExecStream<'_>>,
    workers: usize,
) -> Result<Vec<StreamExecResult>, ExecError> {
    // Stream-level parallelism is the point here; run warps serially.
    let gpu = Gpu::new(config.clone().with_workers(1));
    let mut results = execute_streams_on(&gpu, streams, workers);
    // Per-stream outcomes collapse to the earliest (by input order) fault.
    let mut outcomes = Vec::with_capacity(results.len());
    for r in results.drain(..) {
        outcomes.push(r?);
    }
    Ok(outcomes)
}

/// [`execute_streams`] against a caller-prepared [`Gpu`] (keeping its
/// verification gate and worker configuration), with per-stream outcomes
/// instead of a collapsed first error.
///
/// Results come back in the input order of `streams`; a faulting stream
/// yields `Err` in its own slot and never perturbs the other streams.
/// This is the entry point for serving paths that launch many cohorts
/// concurrently and must answer each cohort's connections individually.
pub fn execute_streams_on(
    gpu: &Gpu,
    streams: Vec<ExecStream<'_>>,
    workers: usize,
) -> Vec<Result<StreamExecResult, ExecError>> {
    let nstreams = streams.len();
    let workers = gpu.worker_count(workers, nstreams);

    let run_stream = |s: ExecStream<'_>| -> Result<StreamExecResult, ExecError> {
        let ExecStream {
            stream,
            mut mem,
            pool,
            kernels,
        } = s;
        let mut launches = Vec::with_capacity(kernels.len());
        for (label, program, cfg) in kernels {
            let result = gpu.launch(program, &cfg, &mut mem, pool, &NoopRecorder)?;
            launches.push((label, result));
        }
        Ok(StreamExecResult {
            stream,
            mem,
            launches,
        })
    };

    let mut results: Vec<(usize, Result<StreamExecResult, ExecError>)> = if workers <= 1 {
        streams
            .into_iter()
            .enumerate()
            .map(|(i, s)| (i, run_stream(s)))
            .collect()
    } else {
        let slots: Vec<std::sync::Mutex<Option<(usize, ExecStream<'_>)>>> = streams
            .into_iter()
            .enumerate()
            .map(|p| std::sync::Mutex::new(Some(p)))
            .collect();
        let next = AtomicUsize::new(0);
        let outs: Vec<Vec<(usize, Result<StreamExecResult, ExecError>)>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let next = &next;
                        let slots = &slots;
                        let run_stream = &run_stream;
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= nstreams {
                                    break;
                                }
                                let (idx, s) = slots[i]
                                    .lock()
                                    .expect("stream slot lock")
                                    .take()
                                    .expect("stream claimed once");
                                out.push((idx, run_stream(s)));
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("stream worker panicked"))
                    .collect()
            });
        outs.into_iter().flatten().collect()
    };

    results.sort_unstable_by_key(|&(idx, _)| idx);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, ProgramBuilder};

    fn op(stream: u32, duration_s: f64) -> StreamOp {
        StreamOp {
            stream,
            duration_s,
            label: "k",
        }
    }

    #[test]
    fn single_stream_serializes() {
        let ops = vec![op(0, 1.0), op(0, 1.0), op(0, 1.0)];
        let s = schedule(&ops, 32, 16);
        assert!((s.makespan_s - 3.0).abs() < 1e-12);
        assert_eq!(s.false_dependency_stalls, 0);
    }

    #[test]
    fn independent_streams_overlap_with_hyperq() {
        let ops = vec![op(0, 1.0), op(1, 1.0), op(2, 1.0), op(3, 1.0)];
        let s = schedule(&ops, 32, 16);
        assert!((s.makespan_s - 1.0).abs() < 1e-12, "fully concurrent");
        assert_eq!(s.false_dependency_stalls, 0);
    }

    #[test]
    fn single_queue_creates_false_dependencies() {
        // Interleaved enqueues of two independent streams on one queue.
        let ops = vec![op(0, 1.0), op(1, 1.0), op(0, 1.0), op(1, 1.0)];
        let s = schedule(&ops, 1, 16);
        assert!((s.makespan_s - 4.0).abs() < 1e-12, "fully serialized");
        assert!(s.false_dependency_stalls >= 2);

        let hyperq = schedule(&ops, 32, 16);
        assert!((hyperq.makespan_s - 2.0).abs() < 1e-12, "streams overlap");
        assert_eq!(hyperq.false_dependency_stalls, 0);
    }

    #[test]
    fn concurrency_cap_limits_overlap() {
        let ops: Vec<_> = (0..8).map(|s| op(s, 1.0)).collect();
        let s = schedule(&ops, 32, 2);
        assert!((s.makespan_s - 4.0).abs() < 1e-12, "pairs of two");
    }

    #[test]
    fn timings_are_per_op_and_ordered() {
        let ops = vec![op(0, 2.0), op(0, 1.0)];
        let s = schedule(&ops, 32, 16);
        assert_eq!(s.timings.len(), 2);
        assert!((s.timings[0].end_s - 2.0).abs() < 1e-12);
        assert!((s.timings[1].start_s - 2.0).abs() < 1e-12);
        assert!((s.timings[1].end_s - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "hardware queue")]
    fn zero_queues_panics() {
        schedule(&[], 0, 1);
    }

    /// Build a kernel adding `delta` to every word of its image.
    fn add_kernel(delta: u32) -> Program {
        let mut b = ProgramBuilder::new("add");
        let g = b.global_id();
        let four = b.imm(4);
        let addr = b.bin(BinOp::Mul, g, four);
        let v = b.ld_global_word(addr, 0);
        let d = b.imm(delta);
        let v2 = b.bin(BinOp::Add, v, d);
        b.st_global_word(addr, 0, v2);
        b.halt();
        b.build().unwrap()
    }

    fn outcome_fingerprint(o: &[StreamExecResult]) -> Vec<(u32, Vec<u8>, u64)> {
        o.iter()
            .map(|x| {
                (
                    x.stream,
                    x.mem.as_bytes().to_vec(),
                    x.launches
                        .iter()
                        .map(|(_, r)| r.stats.warp_instructions)
                        .sum(),
                )
            })
            .collect()
    }

    /// Dependent kernels within a stream chain through the stream's
    /// image; results are identical at any worker count and in input
    /// order.
    #[test]
    fn execute_streams_chains_and_is_deterministic() {
        let k1 = add_kernel(1);
        let k10 = add_kernel(10);
        let pool = ConstPool::new();
        let mk_streams = || {
            (0..4u32)
                .map(|stream| ExecStream {
                    stream,
                    mem: DeviceMemory::new(64 * 4),
                    pool: &pool,
                    kernels: vec![
                        ("a", &k1, LaunchConfig::new(64, [])),
                        ("b", &k10, LaunchConfig::new(64, [])),
                    ],
                })
                .collect::<Vec<_>>()
        };
        let cfg = GpuConfig::gtx_titan();
        let serial = execute_streams(&cfg, mk_streams(), 1).unwrap();
        assert_eq!(serial.len(), 4);
        // The second kernel saw the first one's writes: 0 + 1 + 10.
        assert_eq!(serial[0].mem.read_word(0).unwrap(), 11);
        assert_eq!(serial[0].launches.len(), 2);
        assert_eq!(serial[0].launches[1].0, "b");
        let base = outcome_fingerprint(&serial);
        for workers in [2usize, 4, 8] {
            let par = execute_streams(&cfg, mk_streams(), workers).unwrap();
            assert_eq!(
                outcome_fingerprint(&par),
                base,
                "stream outcomes differ at {workers} workers"
            );
        }
    }

    /// A fault stops the faulting stream but the error is the same at any
    /// worker count.
    #[test]
    fn execute_streams_error_deterministic() {
        let k = add_kernel(1);
        let pool = ConstPool::new();
        let mk = |stream: u32, mem_words: usize| ExecStream {
            stream,
            mem: DeviceMemory::new(mem_words * 4),
            pool: &pool,
            kernels: vec![("x", &k, LaunchConfig::new(64, []))],
        };
        // Stream 1: 64 lanes vs 8 words -> faults.
        let mk_streams = || vec![mk(0, 64), mk(1, 8), mk(2, 64)];
        let cfg = GpuConfig::gtx_titan();
        let serial = execute_streams(&cfg, mk_streams(), 1).unwrap_err();
        for workers in [2usize, 4] {
            let err = execute_streams(&cfg, mk_streams(), workers).unwrap_err();
            assert_eq!(err, serial, "error differs at {workers} workers");
        }
    }
}
