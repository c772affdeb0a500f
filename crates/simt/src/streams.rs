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
//! This is a timing model only. Executed cohorts run one after another on
//! the caller's thread (`rhythm-banking`'s `DeviceContext::run_cohort`);
//! what overlapping them on a device buys is modelled here and in
//! `rhythm-core`'s pipeline (`device_slots`).

use serde::{Deserialize, Serialize};

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
