//! The Rhythm pipeline: Reader → Parser → Dispatch → Process (n backend +
//! n+1 process stages) → Response, executed as a deterministic
//! discrete-event simulation over virtual time (paper §3–4).
//!
//! * The **reader** accumulates arrivals in order; a full read batch (or
//!   a reader timeout) hands a double-buffered batch to the parser.
//! * The **parser** is a device kernel; its output is dispatched into
//!   per-type cohort contexts from the fixed [`CohortPool`].
//! * A context launches when **Full** or when its formation **timeout**
//!   fires (paper: "requests can be delayed for a limited amount of time
//!   and still achieve acceptable response times").
//! * Process stages are device kernels; the device runs at most
//!   `device_slots` kernels concurrently (HyperQ-style), and stages of one
//!   cohort are serialized by true dependencies. Backend accesses and the
//!   response send add non-device latency.
//! * Running out of Free contexts is a structural hazard: dispatch stalls
//!   until a context is released (paper §3.1).

use crate::cohort::{CohortPool, CohortState, ContextId};
use crate::events::EventQueue;
use crate::metrics::{LatencyStats, PipelineReport};
use crate::service::Service;

use rhythm_obs::{s_to_us, ArgValue, Clock, Recorder};

use std::collections::VecDeque;

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Target cohort size (requests per kernel launch).
    pub cohort_size: u32,
    /// Read-batch size handed to the parser (defaults to cohort size).
    pub read_batch: u32,
    /// Cohort formation timeout in seconds.
    pub formation_timeout_s: f64,
    /// Reader flush timeout in seconds.
    pub reader_timeout_s: f64,
    /// Preallocated cohort contexts ("cohorts in flight", paper §6.3).
    pub pool_contexts: u32,
    /// Concurrent kernels the device sustains (32 with HyperQ, 1 on
    /// single-queue parts).
    pub device_slots: u32,
    /// Concurrent parser instances (paper §3.1: "there may be one or more
    /// instances, allowing for parallelism across and within stages";
    /// §6.4: "multiple parsers … would further help in hiding parser
    /// latency").
    pub parser_instances: u32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            cohort_size: 4096,
            read_batch: 4096,
            formation_timeout_s: 10e-3,
            reader_timeout_s: 10e-3,
            pool_contexts: 8,
            device_slots: 32,
            parser_instances: 1,
        }
    }
}

#[derive(Copy, Clone, Debug)]
struct Req {
    ty: u32,
    arrived: f64,
}

#[derive(Copy, Clone, Debug)]
enum Event {
    Arrival { ty: u32 },
    ReaderFlush { epoch: u64 },
    ParserDone { batch: u64 },
    CohortTimeout { ctx: ContextId, generation: u64 },
    StageDone { ctx: ContextId, stage: u32 },
    BackendDone { ctx: ContextId, stage: u32 },
    ResponseDone { ctx: ContextId },
}

/// The pipeline simulator. Construct, then [`Pipeline::run`] a finite
/// arrival schedule.
#[derive(Debug)]
pub struct Pipeline<S> {
    service: S,
    config: PipelineConfig,
}

impl<S: Service> Pipeline<S> {
    /// Create a pipeline over a service latency model.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized cohorts, pools, or device slots.
    pub fn new(service: S, config: PipelineConfig) -> Self {
        assert!(config.cohort_size > 0, "cohort size must be nonzero");
        assert!(config.read_batch > 0, "read batch must be nonzero");
        assert!(config.pool_contexts > 0, "need at least one context");
        assert!(config.device_slots > 0, "need at least one device slot");
        assert!(config.parser_instances > 0, "need at least one parser");
        Pipeline { service, config }
    }

    /// Run a finite arrival schedule (`(time, type)` pairs, any order) to
    /// completion and report metrics, streaming trace events into `rec`.
    ///
    /// All timestamps are in the pipeline's **virtual** time
    /// ([`Clock::Virtual`], microseconds). The recorder sees:
    ///
    /// * complete spans on per-stage tracks — `stage:reader` (batch
    ///   accumulation), `stage:parser` (parse kernels, stamped when they
    ///   actually claim a device slot), `stage:process` (process kernels),
    ///   `stage:backend`, and `stage:response`;
    /// * per-context tracks (`ctx0`, `ctx1`, ...) with nested
    ///   `form`/`execute` spans and instant events for every cohort FSM
    ///   transition (`Free→PartiallyFull`, `PartiallyFull→Full`,
    ///   `Full→Busy`, `PartiallyFull→Busy (timeout)`, `Busy→Free`), each
    ///   carrying the cohort fill at that moment;
    /// * `backlog_depth` and `dispatch_stalls` gauges on the `dispatch`
    ///   track and a `queued_kernels` gauge on the `device` track;
    /// * `request_latency_s` and `cohort_fill` streaming histograms.
    ///
    /// The recorder cannot influence the simulation: the returned
    /// [`PipelineReport`] is bit-identical under [`rhythm_obs::NoopRecorder`].
    pub fn run<R: Recorder + ?Sized>(&self, arrivals: &[(f64, u32)], rec: &R) -> PipelineReport {
        let cfg = &self.config;
        let mut q: EventQueue<Event> = EventQueue::new();
        for &(t, ty) in arrivals {
            q.schedule(t, Event::Arrival { ty });
        }

        let mut pool: CohortPool<Req> =
            CohortPool::new(cfg.pool_contexts, cfg.cohort_size as usize);

        // Reader state (double buffered: the front buffer keeps filling
        // while parser instances drain read batches).
        let mut reader: VecDeque<Req> = VecDeque::new();
        let mut reader_epoch: u64 = 0;
        let mut parsers_busy: u32 = 0;
        let mut next_batch_id: u64 = 0;
        let mut inflight_batches: std::collections::HashMap<u64, Vec<Req>> =
            std::collections::HashMap::new();

        // Device slots.
        let mut device_busy: u32 = 0;
        let mut device_queue: VecDeque<(f64, Event)> = VecDeque::new();

        // Dispatch overflow when the pool is exhausted.
        let mut backlog: VecDeque<Req> = VecDeque::new();

        // Per-context open generation: bumped each time a Free context is
        // opened for a new cohort. A CohortTimeout only fires for the
        // generation it was armed against, so a timeout scheduled for a
        // released-and-reopened context can never launch the new cohort
        // early, even when both opens happen at the same virtual time.
        let mut generations: Vec<u64> = vec![0; cfg.pool_contexts as usize];

        // Epoch for which a ReaderFlush event is currently in the queue,
        // if any. One pending flush per reader epoch is enough: the
        // deadline depends only on the front request, which changes only
        // when the epoch does.
        let mut flush_armed: Option<u64> = None;

        // Metrics.
        let mut latencies: Vec<f64> = Vec::new();
        let mut report = PipelineReport::default();
        let mut fill_sum = 0.0;

        // A kernel span covers the device-slot occupancy [now, now + dur]:
        // it is emitted at the moment a kernel actually claims a slot —
        // immediately in `submit_kernel!` or later at a device-queue pop.
        macro_rules! trace_kernel {
            ($now:expr, $dur:expr, $ev:expr) => {{
                if rec.enabled() {
                    match $ev {
                        Event::ParserDone { batch } => {
                            let n = inflight_batches.get(batch).map_or(0, |b| b.len() as u64);
                            rec.span(
                                Clock::Virtual,
                                "stage:parser",
                                "parse",
                                s_to_us($now),
                                s_to_us($dur),
                                &[("requests", ArgValue::U64(n))],
                            );
                        }
                        Event::StageDone { ctx, stage } => {
                            let cohort = pool.get(*ctx).members().len() as u64;
                            rec.span(
                                Clock::Virtual,
                                "stage:process",
                                &format!("stage {stage}"),
                                s_to_us($now),
                                s_to_us($dur),
                                &[
                                    ("ctx", ArgValue::U64(*ctx as u64)),
                                    ("requests", ArgValue::U64(cohort)),
                                ],
                            );
                        }
                        _ => {}
                    }
                }
            }};
        }

        macro_rules! submit_kernel {
            ($q:expr, $dur:expr, $ev:expr) => {{
                let dur = $dur;
                let ev = $ev;
                report.kernels_launched += 1;
                if device_busy < cfg.device_slots {
                    device_busy += 1;
                    trace_kernel!($q.now(), dur, &ev);
                    $q.schedule_in(dur, ev);
                } else {
                    device_queue.push_back((dur, ev));
                    report.device_queue_peak =
                        report.device_queue_peak.max(device_queue.len() as u64);
                    if rec.enabled() {
                        rec.counter(
                            Clock::Virtual,
                            "device",
                            "queued_kernels",
                            s_to_us($q.now()),
                            device_queue.len() as f64,
                        );
                    }
                }
            }};
        }

        // The two device-queue pop sites share this: a queued kernel
        // finally claims a slot, so its span starts now.
        macro_rules! pop_device_queue {
            ($q:expr) => {{
                if let Some((dur, ev)) = device_queue.pop_front() {
                    device_busy += 1;
                    trace_kernel!($q.now(), dur, &ev);
                    $q.schedule_in(dur, ev);
                    if rec.enabled() {
                        rec.counter(
                            Clock::Virtual,
                            "device",
                            "queued_kernels",
                            s_to_us($q.now()),
                            device_queue.len() as f64,
                        );
                    }
                }
            }};
        }

        // The reader span covers accumulation: first arrival of the batch
        // to the moment it is handed to a parser instance.
        macro_rules! trace_read_batch {
            ($q:expr, $batch:expr) => {{
                if rec.enabled() {
                    if let Some(first) = $batch.first() {
                        rec.span(
                            Clock::Virtual,
                            "stage:reader",
                            "read batch",
                            s_to_us(first.arrived),
                            s_to_us($q.now() - first.arrived),
                            &[("requests", ArgValue::U64($batch.len() as u64))],
                        );
                    }
                }
            }};
        }

        macro_rules! maybe_start_parse {
            ($q:expr) => {{
                while parsers_busy < cfg.parser_instances && reader.len() as u32 >= cfg.read_batch {
                    let n = cfg.read_batch as usize;
                    let batch: Vec<Req> = reader.drain(..n).collect();
                    reader_epoch += 1;
                    parsers_busy += 1;
                    let dur = self.service.parse_latency(batch.len() as u32);
                    let id = next_batch_id;
                    next_batch_id += 1;
                    trace_read_batch!($q, batch);
                    inflight_batches.insert(id, batch);
                    submit_kernel!($q, dur, Event::ParserDone { batch: id });
                }
                // Arm at most one flush timer per reader epoch. Arming on
                // every arrival scheduled O(arrivals) redundant events for
                // the same deadline.
                if flush_armed != Some(reader_epoch) {
                    if let Some(front) = reader.front() {
                        let deadline = front.arrived + cfg.reader_timeout_s;
                        let epoch = reader_epoch;
                        flush_armed = Some(epoch);
                        $q.schedule(deadline.max($q.now()), Event::ReaderFlush { epoch });
                    }
                }
            }};
        }

        macro_rules! flush_reader {
            ($q:expr) => {{
                if parsers_busy < cfg.parser_instances && !reader.is_empty() {
                    let batch: Vec<Req> = reader.drain(..).collect();
                    reader_epoch += 1;
                    parsers_busy += 1;
                    let dur = self.service.parse_latency(batch.len() as u32);
                    let id = next_batch_id;
                    next_batch_id += 1;
                    trace_read_batch!($q, batch);
                    inflight_batches.insert(id, batch);
                    submit_kernel!($q, dur, Event::ParserDone { batch: id });
                }
            }};
        }

        macro_rules! launch_cohort {
            ($q:expr, $ctx:expr, $timeout:expr) => {{
                let id = $ctx;
                let len = pool.get(id).members().len() as u32;
                let key = pool.get(id).key();
                // Both launch sites guard the state (Full on dispatch,
                // PartiallyFull on timeout), so this cannot fail; if it
                // ever did, skipping the launch leaves the context to a
                // later timeout instead of crashing the event loop.
                let launched = pool.get_mut(id).launch().is_ok();
                debug_assert!(launched, "guarded launch cannot fail");
                if launched {
                    report.cohorts_launched += 1;
                    if $timeout {
                        report.timeout_launches += 1;
                    }
                    let fill = len as f64 / cfg.cohort_size as f64;
                    fill_sum += fill;
                    if rec.enabled() {
                        let track = format!("ctx{id}");
                        let ts = s_to_us($q.now());
                        rec.end(Clock::Virtual, &track, ts); // close "form"
                        let name = if $timeout {
                            "PartiallyFull→Busy (timeout)"
                        } else {
                            "Full→Busy"
                        };
                        rec.instant(
                            Clock::Virtual,
                            &track,
                            name,
                            ts,
                            &[("fill", ArgValue::F64(fill))],
                        );
                        rec.begin(
                            Clock::Virtual,
                            &track,
                            "execute",
                            ts,
                            &[
                                ("type", ArgValue::U64(key as u64)),
                                ("requests", ArgValue::U64(len as u64)),
                            ],
                        );
                        rec.sample("cohort_fill", fill);
                    }
                    let dur = self.service.stage_latency(key, 0, len);
                    submit_kernel!($q, dur, Event::StageDone { ctx: id, stage: 0 });
                }
            }};
        }

        // `$from_backlog = false`: a newly parsed request; a stall counts
        // once and queues it at the back (arrival order).
        // `$from_backlog = true`: a request popped off the backlog during
        // drain; a re-stall puts it back at the FRONT (it is still the
        // oldest stalled request) and does not count a second stall.
        macro_rules! dispatch_one {
            ($q:expr, $req:expr, $from_backlog:expr) => {{
                let req: Req = $req;
                let ctx = match pool.open_for(req.ty) {
                    Some(c) => Some(c),
                    None => pool.acquire(),
                };
                // A request the chosen context refuses (defensively
                // unreachable: open_for/acquire guarantee an accepting
                // context) is re-queued exactly like a pool-exhaustion
                // stall instead of panicking the event loop.
                let mut requeue: Option<Req> = None;
                let mut dispatched = false;
                match ctx {
                    Some(id) => {
                        let fresh = pool.get(id).state() == CohortState::Free;
                        match pool.get_mut(id).add(req, req.ty, $q.now()) {
                            Err(rej) => requeue = Some(rej.request),
                            Ok(()) => {
                                dispatched = true;
                                if fresh {
                                    generations[id as usize] += 1;
                                    let generation = generations[id as usize];
                                    $q.schedule_in(
                                        cfg.formation_timeout_s,
                                        Event::CohortTimeout {
                                            ctx: id,
                                            generation,
                                        },
                                    );
                                }
                                if rec.enabled() {
                                    let track = format!("ctx{id}");
                                    let ts = s_to_us($q.now());
                                    let full = pool.get(id).state() == CohortState::Full;
                                    let fill = pool.get(id).members().len() as f64
                                        / cfg.cohort_size as f64;
                                    if fresh {
                                        rec.begin(
                                            Clock::Virtual,
                                            &track,
                                            "form",
                                            ts,
                                            &[("type", ArgValue::U64(req.ty as u64))],
                                        );
                                    }
                                    let name = match (fresh, full) {
                                        (true, true) => "Free→Full",
                                        (true, false) => "Free→PartiallyFull",
                                        (false, true) => "PartiallyFull→Full",
                                        (false, false) => "",
                                    };
                                    if !name.is_empty() {
                                        rec.instant(
                                            Clock::Virtual,
                                            &track,
                                            name,
                                            ts,
                                            &[("fill", ArgValue::F64(fill))],
                                        );
                                    }
                                }
                                if pool.get(id).state() == CohortState::Full {
                                    launch_cohort!($q, id, false);
                                }
                            }
                        }
                    }
                    None => requeue = Some(req),
                }
                if let Some(req) = requeue {
                    if $from_backlog {
                        backlog.push_front(req);
                    } else {
                        report.dispatch_stalls += 1;
                        backlog.push_back(req);
                    }
                    if rec.enabled() {
                        let ts = s_to_us($q.now());
                        rec.counter(
                            Clock::Virtual,
                            "dispatch",
                            "backlog_depth",
                            ts,
                            backlog.len() as f64,
                        );
                        if !$from_backlog {
                            rec.counter(
                                Clock::Virtual,
                                "dispatch",
                                "dispatch_stalls",
                                ts,
                                report.dispatch_stalls as f64,
                            );
                        }
                    }
                }
                dispatched
            }};
        }

        while let Some((now, event)) = q.pop() {
            match event {
                Event::Arrival { ty } => {
                    reader.push_back(Req { ty, arrived: now });
                    report.reader_peak = report.reader_peak.max(reader.len() as u64);
                    maybe_start_parse!(q);
                }
                Event::ReaderFlush { epoch } => {
                    if epoch == reader_epoch {
                        // The one pending flush for this epoch has fired;
                        // if the parsers were all busy, ParserDone re-arms.
                        flush_armed = None;
                        flush_reader!(q);
                    }
                }
                Event::ParserDone { batch } => {
                    device_busy -= 1;
                    parsers_busy -= 1;
                    let batch = inflight_batches.remove(&batch).expect("batch in flight");
                    for req in batch {
                        dispatch_one!(q, req, false);
                    }
                    pop_device_queue!(q);
                    // Starts new parses if batches are ready, and re-arms
                    // the flush timer for whatever remains in the reader.
                    maybe_start_parse!(q);
                }
                Event::CohortTimeout { ctx, generation } => {
                    let c = pool.get(ctx);
                    if c.state() == CohortState::PartiallyFull
                        && generations[ctx as usize] == generation
                    {
                        launch_cohort!(q, ctx, true);
                    }
                }
                Event::StageDone { ctx, stage } => {
                    device_busy -= 1;
                    pop_device_queue!(q);
                    let key = pool.get(ctx).key();
                    let cohort = pool.get(ctx).members().len() as u32;
                    let stages = self.service.stages(key);
                    if stage + 1 < stages {
                        let dur = self.service.backend_latency(key, stage, cohort);
                        if rec.enabled() {
                            rec.span(
                                Clock::Virtual,
                                "stage:backend",
                                &format!("backend {stage}"),
                                s_to_us(now),
                                s_to_us(dur),
                                &[
                                    ("ctx", ArgValue::U64(ctx as u64)),
                                    ("requests", ArgValue::U64(cohort as u64)),
                                ],
                            );
                        }
                        q.schedule_in(dur, Event::BackendDone { ctx, stage });
                    } else {
                        let dur = self.service.response_latency(key, cohort);
                        if rec.enabled() {
                            rec.span(
                                Clock::Virtual,
                                "stage:response",
                                "response",
                                s_to_us(now),
                                s_to_us(dur),
                                &[
                                    ("ctx", ArgValue::U64(ctx as u64)),
                                    ("requests", ArgValue::U64(cohort as u64)),
                                ],
                            );
                        }
                        q.schedule_in(dur, Event::ResponseDone { ctx });
                    }
                }
                Event::BackendDone { ctx, stage } => {
                    let key = pool.get(ctx).key();
                    let cohort = pool.get(ctx).members().len() as u32;
                    let dur = self.service.stage_latency(key, stage + 1, cohort);
                    submit_kernel!(
                        q,
                        dur,
                        Event::StageDone {
                            ctx,
                            stage: stage + 1
                        }
                    );
                }
                Event::ResponseDone { ctx } => {
                    // ResponseDone is only scheduled for a Busy context,
                    // so release cannot fail; an empty fallback keeps the
                    // loop alive rather than crashing it.
                    let members = pool.get_mut(ctx).release().unwrap_or_default();
                    for m in &members {
                        latencies.push(now - m.arrived);
                    }
                    if rec.enabled() {
                        let track = format!("ctx{ctx}");
                        let ts = s_to_us(now);
                        rec.end(Clock::Virtual, &track, ts); // close "execute"
                        rec.instant(Clock::Virtual, &track, "Busy→Free", ts, &[]);
                        for m in &members {
                            rec.sample("request_latency_s", now - m.arrived);
                        }
                    }
                    report.completed += members.len() as u64;
                    report.makespan_s = now;
                    // Structural hazard cleared: drain backlog into the
                    // newly freed context, preserving arrival order. A
                    // re-stall puts the request back at the front (not the
                    // back, which would rotate the queue) and is not a new
                    // stall for accounting.
                    while let Some(req) = backlog.pop_front() {
                        if !dispatch_one!(q, req, true) {
                            break;
                        }
                    }
                    if rec.enabled() {
                        rec.counter(
                            Clock::Virtual,
                            "dispatch",
                            "backlog_depth",
                            s_to_us(now),
                            backlog.len() as f64,
                        );
                    }
                }
            }
        }

        report.latency = LatencyStats::from_samples(latencies);
        if report.cohorts_launched > 0 {
            report.mean_fill = fill_sum / report.cohorts_launched as f64;
        }
        report
    }

    /// The configured cohort size.
    pub fn cohort_size(&self) -> u32 {
        self.config.cohort_size
    }

    /// Borrow the service model.
    pub fn service(&self) -> &S {
        &self.service
    }
}

/// Build a uniform-rate arrival schedule: `count` requests of types drawn
/// round-robin from `mix` at `rate` requests/second starting at time 0.
pub fn uniform_arrivals(count: u64, rate: f64, mix: &[u32]) -> Vec<(f64, u32)> {
    assert!(rate > 0.0, "rate must be positive");
    assert!(!mix.is_empty(), "mix must be nonempty");
    (0..count)
        .map(|i| (i as f64 / rate, mix[(i % mix.len() as u64) as usize]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::TableService;
    use rhythm_obs::NoopRecorder;

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            cohort_size: 8,
            read_batch: 8,
            formation_timeout_s: 1e-3,
            reader_timeout_s: 1e-3,
            pool_contexts: 4,
            device_slots: 32,
            parser_instances: 1,
        }
    }

    #[test]
    fn all_requests_complete() {
        let p = Pipeline::new(TableService::uniform(2, 2), small_config());
        let arrivals = uniform_arrivals(256, 1e6, &[0, 1]);
        let r = p.run(&arrivals, &NoopRecorder);
        assert_eq!(r.completed, 256);
        assert!(r.makespan_s > 0.0);
        assert_eq!(r.latency.count, 256);
        assert!(r.cohorts_launched >= 256 / 8);
    }

    #[test]
    fn full_cohorts_at_high_rate() {
        let p = Pipeline::new(TableService::uniform(1, 1), small_config());
        let arrivals = uniform_arrivals(512, 1e8, &[0]);
        let r = p.run(&arrivals, &NoopRecorder);
        assert_eq!(r.completed, 512);
        assert!(
            r.mean_fill > 0.99,
            "high arrival rate fills cohorts: {}",
            r.mean_fill
        );
        assert_eq!(r.timeout_launches, 0);
    }

    #[test]
    fn timeouts_fire_at_low_rate() {
        let p = Pipeline::new(TableService::uniform(1, 1), small_config());
        // 100 requests at 1k req/s: inter-arrival 1 ms = reader timeout;
        // cohorts can never fill before the formation timeout.
        let arrivals = uniform_arrivals(100, 1e3, &[0]);
        let r = p.run(&arrivals, &NoopRecorder);
        assert_eq!(r.completed, 100);
        assert!(r.timeout_launches > 0, "low rate must launch by timeout");
        assert!(r.mean_fill < 1.0);
    }

    #[test]
    fn latency_grows_with_cohort_size() {
        let mk = |cohort: u32| {
            let mut cfg = small_config();
            cfg.cohort_size = cohort;
            cfg.read_batch = cohort;
            let p = Pipeline::new(TableService::uniform(1, 1), cfg);
            // Rate high enough to fill even the large cohort quickly.
            let arrivals = uniform_arrivals(4096, 1e7, &[0]);
            p.run(&arrivals, &NoopRecorder).latency.mean
        };
        let small = mk(16);
        let large = mk(1024);
        assert!(
            large > small,
            "bigger cohorts wait longer to form and execute: {small} vs {large}"
        );
    }

    #[test]
    fn single_slot_serializes_and_hurts_throughput() {
        let mut cfg = small_config();
        cfg.device_slots = 32;
        let p = Pipeline::new(TableService::uniform(4, 2), cfg.clone());
        let arrivals = uniform_arrivals(2048, 5e6, &[0, 1, 2, 3]);
        let hyperq = p.run(&arrivals, &NoopRecorder);

        cfg.device_slots = 1;
        let p1 = Pipeline::new(TableService::uniform(4, 2), cfg);
        let single = p1.run(&arrivals, &NoopRecorder);

        assert_eq!(hyperq.completed, single.completed);
        assert!(
            single.makespan_s > hyperq.makespan_s,
            "hyperq {} vs single {}",
            hyperq.makespan_s,
            single.makespan_s
        );
        assert!(single.device_queue_peak > 0);
    }

    #[test]
    fn pool_exhaustion_stalls_dispatch() {
        let mut cfg = small_config();
        cfg.pool_contexts = 1;
        cfg.formation_timeout_s = 10.0; // effectively never
        let p = Pipeline::new(TableService::uniform(4, 1), cfg);
        // Many types at once with one context: later types must stall.
        let arrivals = uniform_arrivals(64, 1e7, &[0, 1, 2, 3]);
        let r = p.run(&arrivals, &NoopRecorder);
        assert!(r.dispatch_stalls > 0);
        assert_eq!(r.completed, 64, "stalled requests complete eventually");
    }

    #[test]
    fn deterministic_runs() {
        let p = Pipeline::new(TableService::uniform(3, 2), small_config());
        let arrivals = uniform_arrivals(300, 2e6, &[0, 1, 2]);
        let a = p.run(&arrivals, &NoopRecorder);
        let b = p.run(&arrivals, &NoopRecorder);
        assert_eq!(a, b);
    }

    /// The recorder is observational: tracing a run must not change the
    /// report in any field, at any rate, including under backlog stalls.
    #[test]
    fn tracing_does_not_change_report() {
        use rhythm_obs::TraceRecorder;
        let mut cfg = small_config();
        cfg.pool_contexts = 1; // force dispatch stalls too
        let p = Pipeline::new(TableService::uniform(4, 2), cfg);
        let arrivals = uniform_arrivals(512, 5e6, &[0, 1, 2, 3]);
        let untraced = p.run(&arrivals, &NoopRecorder);
        let rec = TraceRecorder::new();
        let traced = p.run(&arrivals, &rec);
        assert_eq!(untraced, traced, "recorder must be invisible");
        assert!(!rec.is_empty(), "trace recorded events");
    }

    /// The trace carries the full cohort lifecycle: stage spans, FSM
    /// transitions with fill, gauges, and histograms — and exports as a
    /// valid Chrome trace with per-track monotone timestamps.
    #[test]
    fn trace_contains_stages_fsm_and_histograms() {
        use rhythm_obs::{validate_chrome_trace, TraceRecorder};
        let mut cfg = small_config();
        cfg.pool_contexts = 1;
        let p = Pipeline::new(TableService::uniform(4, 2), cfg);
        // Mixed rate: full launches, timeout launches, and stalls.
        let mut arrivals = uniform_arrivals(256, 5e6, &[0, 1, 2, 3]);
        arrivals.extend(
            uniform_arrivals(8, 1e3, &[0])
                .iter()
                .map(|&(t, ty)| (t + 1.0, ty)),
        );
        let rec = TraceRecorder::new();
        let report = p.run(&arrivals, &rec);
        assert_eq!(report.completed, 264);
        assert!(
            report.timeout_launches > 0,
            "need a timeout launch in trace"
        );
        assert!(report.dispatch_stalls > 0, "need a stall in trace");

        let check = validate_chrome_trace(&rec.chrome_json()).expect("valid Chrome trace");
        for name in [
            "read batch",
            "parse",
            "stage 0",
            "response",
            "form",
            "execute",
            "Free→PartiallyFull",
            "PartiallyFull→Full",
            "Full→Busy",
            "PartiallyFull→Busy (timeout)",
            "Busy→Free",
        ] {
            assert!(
                check.names.iter().any(|n| n == name),
                "trace missing {name:?}; has {:?}",
                check.names
            );
        }
        let lat = rec
            .histogram("request_latency_s")
            .expect("latency histogram");
        assert_eq!(lat.count(), 264);
        let fill = rec.histogram("cohort_fill").expect("fill histogram");
        assert_eq!(fill.count(), report.cohorts_launched);
        assert!(rec.summary().contains("histogram request_latency_s"));
    }

    #[test]
    fn uniform_arrivals_shape() {
        let a = uniform_arrivals(4, 2.0, &[7, 9]);
        assert_eq!(a.len(), 4);
        assert_eq!(a[0], (0.0, 7));
        assert_eq!(a[1], (0.5, 9));
        assert_eq!(a[3].0, 1.5);
    }

    #[test]
    #[should_panic(expected = "cohort size")]
    fn zero_cohort_rejected() {
        let mut cfg = small_config();
        cfg.cohort_size = 0;
        let _ = Pipeline::new(TableService::uniform(1, 1), cfg);
    }

    /// With a parse-dominated service, more parser instances raise
    /// throughput (paper §6.4: "multiple parsers … would further help in
    /// hiding parser latency").
    #[test]
    fn multiple_parsers_hide_parser_latency() {
        let mut svc = TableService::uniform(1, 1);
        svc.parse_per_req = 5e-6; // parse-bound
        svc.stage_per_req = 100e-9;
        let run = |parsers: u32| {
            let mut cfg = small_config();
            cfg.parser_instances = parsers;
            let p = Pipeline::new(svc.clone(), cfg);
            let arrivals = uniform_arrivals(2048, 1e8, &[0]);
            p.run(&arrivals, &NoopRecorder).makespan_s
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four < one * 0.6,
            "4 parsers should overlap parse latency: 1 -> {one:.6}, 4 -> {four:.6}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one parser")]
    fn zero_parsers_rejected() {
        let mut cfg = small_config();
        cfg.parser_instances = 0;
        let _ = Pipeline::new(TableService::uniform(1, 1), cfg);
    }

    /// A [`TableService`] wrapper that logs every stage-0 launch as
    /// `(key, cohort_len)`, so tests can observe cohort composition.
    #[derive(Clone, Debug)]
    struct LogService {
        inner: TableService,
        launches: std::rc::Rc<std::cell::RefCell<Vec<(u32, u32)>>>,
    }

    impl Service for LogService {
        fn stages(&self, key: u32) -> u32 {
            self.inner.stages(key)
        }
        fn parse_latency(&self, batch: u32) -> f64 {
            self.inner.parse_latency(batch)
        }
        fn stage_latency(&self, key: u32, stage: u32, cohort: u32) -> f64 {
            if stage == 0 {
                self.launches.borrow_mut().push((key, cohort));
            }
            self.inner.stage_latency(key, stage, cohort)
        }
        fn backend_latency(&self, key: u32, stage: u32, cohort: u32) -> f64 {
            self.inner.backend_latency(key, stage, cohort)
        }
        fn response_latency(&self, key: u32, cohort: u32) -> f64 {
            self.inner.response_latency(key, cohort)
        }
    }

    /// Regression: draining the backlog after a context release must keep
    /// FIFO order. A request that re-stalls goes back to the FRONT of the
    /// backlog and is not counted as a second dispatch stall. (The old
    /// code pushed it to the back, rotating the queue: cohorts of the
    /// same type fragmented into singletons, and `dispatch_stalls`
    /// counted the same request once per drain attempt.)
    #[test]
    fn backlog_drain_preserves_fifo_order() {
        let launches = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let svc = LogService {
            inner: TableService::uniform(3, 1),
            launches: launches.clone(),
        };
        let cfg = PipelineConfig {
            cohort_size: 4,
            read_batch: 12,
            formation_timeout_s: 1e-3,
            reader_timeout_s: 1e-3,
            pool_contexts: 1,
            device_slots: 32,
            parser_instances: 1,
        };
        let p = Pipeline::new(svc, cfg);
        // One parse batch; types 1 and 2 arrive interleaved in pairs and
        // all stall behind the type-0 cohort that claims the only context.
        let types = [0, 0, 0, 0, 1, 1, 2, 2, 1, 1, 2, 2];
        let arrivals: Vec<(f64, u32)> = types
            .iter()
            .enumerate()
            .map(|(i, &ty)| (i as f64 * 1e-8, ty))
            .collect();
        let r = p.run(&arrivals, &NoopRecorder);

        assert_eq!(r.completed, 12);
        // Each of the 8 stalled requests is counted exactly once.
        assert_eq!(r.dispatch_stalls, 8);
        // FIFO drain keeps arrival-order pairs together; the rotating
        // backlog produced singleton cohorts here.
        assert_eq!(
            *launches.borrow(),
            vec![(0, 4), (1, 2), (2, 2), (1, 2), (2, 2)],
            "cohorts must form in arrival order without fragmenting"
        );
    }

    /// Regression: a formation timeout armed for an earlier occupancy of
    /// a context must not fire for a later cohort in the same context.
    /// With a zero-latency service and `read_batch = 1`, a context can be
    /// opened, filled, launched, completed, released, and reopened at the
    /// same virtual time — the old `opened_at` f64 comparison aliased the
    /// two occupancies, so the stale timer passed the identity check. The
    /// per-context generation counter keeps stale timers inert by
    /// construction.
    #[test]
    fn stale_timeout_does_not_alias_reopened_context() {
        let mut svc = TableService::uniform(1, 1);
        svc.parse_per_req = 0.0;
        svc.stage_per_req = 0.0;
        svc.backend_fixed = 0.0;
        svc.response_fixed = 0.0;
        svc.launch_overhead = 0.0;
        let cfg = PipelineConfig {
            cohort_size: 2,
            read_batch: 1,
            formation_timeout_s: 1e-3,
            reader_timeout_s: 1e-3,
            pool_contexts: 1,
            device_slots: 32,
            parser_instances: 1,
        };
        let p = Pipeline::new(svc, cfg);
        // r1 + r2 fill and retire a cohort at t = 0; r3 reopens the same
        // context at t = 0 with the first occupancy's timer still queued.
        let arrivals = [(0.0, 0), (0.0, 0), (0.0, 0)];
        let a = p.run(&arrivals, &NoopRecorder);
        assert_eq!(a.completed, 3);
        assert_eq!(a.cohorts_launched, 2);
        // Only the second occupancy's own timer launches the partial
        // cohort; the stale timer is a no-op.
        assert_eq!(a.timeout_launches, 1);
        let b = p.run(&arrivals, &NoopRecorder);
        assert_eq!(a, b, "aliased-timer schedule must stay deterministic");
    }

    /// Regression: arming the reader-flush timer once per epoch must not
    /// change behaviour relative to arming it on every arrival — and the
    /// timer must still fire when a flush attempt finds all parser
    /// instances busy (ParserDone re-arms it).
    #[test]
    fn reader_flush_fires_once_per_epoch() {
        let p = Pipeline::new(TableService::uniform(2, 2), small_config());
        // Below-batch trickle: every batch needs the flush timer.
        let arrivals = uniform_arrivals(30, 2e3, &[0, 1]);
        let r = p.run(&arrivals, &NoopRecorder);
        assert_eq!(r.completed, 30);
        assert!(r.timeout_launches > 0 || r.cohorts_launched > 0);

        // Parse-bound: flush deadlines pass while the parser is busy, so
        // completion depends on the ParserDone re-arm path.
        let mut svc = TableService::uniform(1, 1);
        svc.parse_per_req = 5e-3; // ≫ reader timeout
        let p = Pipeline::new(svc, small_config());
        let r = p.run(&uniform_arrivals(20, 1e3, &[0]), &NoopRecorder);
        assert_eq!(r.completed, 20, "busy-parser flushes must be re-armed");
    }
}
