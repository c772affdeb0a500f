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

use crate::cohort::{Admitted, CohortPool, ContextId};
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
    ParserDone,
    CohortTimeout { ctx: ContextId },
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
        let mut run = Run::new(&self.service, &self.config, rec);
        for &(t, ty) in arrivals {
            run.q.schedule(t, Event::Arrival { ty });
        }
        while let Some((now, event)) = run.q.pop() {
            run.handle(now, event);
        }
        run.finish()
    }
}

/// The state of one [`Pipeline::run`]. The event loop hands every event
/// to [`Run::handle`]; each action on the reader, parser, device, pool or
/// backlog is one method.
struct Run<'a, S, R: ?Sized> {
    service: &'a S,
    cfg: &'a PipelineConfig,
    rec: &'a R,
    q: EventQueue<Event>,
    pool: CohortPool<Req>,
    /// The reader's front buffer: it keeps filling while the parser
    /// drains a read batch (double buffering).
    reader: VecDeque<Req>,
    reader_epoch: u64,
    /// Epoch for which a ReaderFlush event is currently in the queue, if
    /// any. One pending flush per reader epoch is enough: the deadline
    /// depends only on the front request, which changes only when the
    /// epoch does.
    flush_armed: Option<u64>,
    /// The batch on the parser. Every parse start requires an idle
    /// parser, so it holds at most one.
    parsing: Option<Vec<Req>>,
    device_busy: u32,
    device_queue: VecDeque<(f64, Event)>,
    /// Dispatch overflow while the pool is exhausted, oldest first.
    backlog: VecDeque<Req>,
    latencies: Vec<f64>,
    fill_sum: f64,
    report: PipelineReport,
}

impl<'a, S: Service, R: Recorder + ?Sized> Run<'a, S, R> {
    fn new(service: &'a S, cfg: &'a PipelineConfig, rec: &'a R) -> Self {
        Run {
            service,
            cfg,
            rec,
            q: EventQueue::new(),
            pool: CohortPool::new(cfg.pool_contexts, cfg.cohort_size as usize),
            reader: VecDeque::new(),
            reader_epoch: 0,
            flush_armed: None,
            parsing: None,
            device_busy: 0,
            device_queue: VecDeque::new(),
            backlog: VecDeque::new(),
            latencies: Vec::new(),
            fill_sum: 0.0,
            report: PipelineReport::default(),
        }
    }

    fn handle(&mut self, now: f64, event: Event) {
        match event {
            Event::Arrival { ty } => {
                self.reader.push_back(Req { ty, arrived: now });
                self.report.reader_peak = self.report.reader_peak.max(self.reader.len() as u64);
                self.read();
            }
            // Only the one pending flush of the current epoch acts; if it
            // finds the parser busy, ParserDone re-arms.
            Event::ReaderFlush { epoch } if epoch == self.reader_epoch => {
                self.flush_armed = None;
                self.start_parse(self.reader.len());
            }
            Event::ReaderFlush { .. } => {}
            Event::ParserDone => {
                // The freed slot goes to the oldest queued kernel before a
                // cohort this batch fills can claim it.
                self.free_slot();
                for req in self.parsing.take().unwrap_or_default() {
                    self.dispatch(req, false);
                }
                // Starts the next parse if a batch is ready, and re-arms
                // the flush timer for whatever remains in the reader.
                self.read();
            }
            // A stale timer launches a reopened cohort only at its deadline.
            Event::CohortTimeout { ctx } => {
                if self.pool.is_due(ctx, now, self.cfg.formation_timeout_s) {
                    self.launch_cohort(ctx, true);
                }
            }
            Event::StageDone { ctx, stage } => {
                self.free_slot();
                self.stage_done(now, ctx, stage);
            }
            Event::BackendDone { ctx, stage } => {
                let (key, len) = self.cohort(ctx);
                let dur = self.service.stage_latency(key, stage + 1, len);
                let stage = stage + 1;
                self.submit_kernel(dur, Event::StageDone { ctx, stage });
            }
            Event::ResponseDone { ctx } => self.response_done(now, ctx),
        }
    }

    /// The cohort key and member count of context `ctx`.
    fn cohort(&self, ctx: ContextId) -> (u32, u32) {
        let c = self.pool.get(ctx);
        (c.key(), c.members().len() as u32)
    }

    /// After the reader grows or the parser frees: start a full read
    /// batch, and arm the flush timer for the reader's front request.
    fn read(&mut self) {
        if self.reader.len() as u32 >= self.cfg.read_batch {
            self.start_parse(self.cfg.read_batch as usize);
        }
        // Arm at most one flush timer per reader epoch. Arming on every
        // arrival scheduled O(arrivals) redundant events for the same
        // deadline.
        if self.flush_armed != Some(self.reader_epoch) {
            if let Some(front) = self.reader.front() {
                let deadline = (front.arrived + self.cfg.reader_timeout_s).max(self.q.now());
                let epoch = self.reader_epoch;
                self.flush_armed = Some(epoch);
                self.q.schedule(deadline, Event::ReaderFlush { epoch });
            }
        }
    }

    /// Hand the reader's oldest `n` requests to an idle parser as one
    /// batch; a busy parser or an empty batch starts nothing.
    fn start_parse(&mut self, n: usize) {
        if self.parsing.is_some() || n == 0 {
            return;
        }
        let batch: Vec<Req> = self.reader.drain(..n).collect();
        self.reader_epoch += 1;
        let dur = self.service.parse_latency(n as u32);
        // The reader span covers accumulation: first arrival of the batch
        // to the moment it is handed to the parser.
        if self.rec.enabled() {
            let first = batch[0].arrived;
            self.rec.span(
                Clock::Virtual,
                "stage:reader",
                "read batch",
                s_to_us(first),
                s_to_us(self.q.now() - first),
                &[("requests", ArgValue::U64(n as u64))],
            );
        }
        self.parsing = Some(batch);
        self.submit_kernel(dur, Event::ParserDone);
    }

    /// Run a kernel on a free device slot, or queue it for the next one.
    fn submit_kernel(&mut self, dur: f64, ev: Event) {
        self.report.kernels_launched += 1;
        if self.device_busy < self.cfg.device_slots {
            self.start_kernel(dur, ev);
        } else {
            self.device_queue.push_back((dur, ev));
            self.report.device_queue_peak = self
                .report
                .device_queue_peak
                .max(self.device_queue.len() as u64);
            self.counter("device", "queued_kernels", self.device_queue.len() as f64);
        }
    }

    /// A kernel finished: the oldest queued kernel, if any, claims its
    /// slot.
    fn free_slot(&mut self) {
        self.device_busy -= 1;
        if let Some((dur, ev)) = self.device_queue.pop_front() {
            self.start_kernel(dur, ev);
            self.counter("device", "queued_kernels", self.device_queue.len() as f64);
        }
    }

    /// A kernel claims a device slot now. Its span covers the slot's
    /// occupancy `[now, now + dur]`.
    fn start_kernel(&mut self, dur: f64, ev: Event) {
        self.device_busy += 1;
        if self.rec.enabled() {
            let (ts, dur) = (s_to_us(self.q.now()), s_to_us(dur));
            match ev {
                Event::ParserDone => {
                    let n = self.parsing.as_ref().map_or(0, Vec::len) as u64;
                    let args = [("requests", ArgValue::U64(n))];
                    self.rec
                        .span(Clock::Virtual, "stage:parser", "parse", ts, dur, &args);
                }
                Event::StageDone { ctx, stage } => {
                    let (_, len) = self.cohort(ctx);
                    self.rec.span(
                        Clock::Virtual,
                        "stage:process",
                        &format!("stage {stage}"),
                        ts,
                        dur,
                        &[
                            ("ctx", ArgValue::U64(ctx as u64)),
                            ("requests", ArgValue::U64(len as u64)),
                        ],
                    );
                }
                _ => {}
            }
        }
        self.q.schedule_in(dur, ev);
    }

    /// A gauge sample on `track`, stamped now.
    fn counter(&self, track: &str, name: &str, value: f64) {
        if self.rec.enabled() {
            let ts = s_to_us(self.q.now());
            self.rec.counter(Clock::Virtual, track, name, ts, value);
        }
    }

    /// Dispatch one parsed request into a cohort context; `false` when it
    /// stalled into the backlog.
    ///
    /// With `from_backlog = false` the request is newly parsed: a stall
    /// counts once and queues it at the back (arrival order). With
    /// `from_backlog = true` it was popped off the backlog during a drain:
    /// a re-stall puts it back at the FRONT (it is still the oldest
    /// stalled request) and does not count a second stall.
    fn dispatch(&mut self, req: Req, from_backlog: bool) -> bool {
        if let Ok(admitted) = self.pool.admit(req, req.ty, self.q.now()) {
            self.added(admitted, req.ty);
            return true;
        }
        if from_backlog {
            self.backlog.push_front(req);
        } else {
            self.report.dispatch_stalls += 1;
            self.backlog.push_back(req);
        }
        self.counter("dispatch", "backlog_depth", self.backlog.len() as f64);
        if !from_backlog {
            let stalls = self.report.dispatch_stalls as f64;
            self.counter("dispatch", "dispatch_stalls", stalls);
        }
        false
    }

    /// A request of type `ty` was admitted. Arms the formation timeout of
    /// a cohort it opened and launches one it filled.
    fn added(&mut self, Admitted { id, opened, full }: Admitted, ty: u32) {
        if opened {
            let timeout = Event::CohortTimeout { ctx: id };
            self.q.schedule_in(self.cfg.formation_timeout_s, timeout);
        }
        if self.rec.enabled() {
            let track = format!("ctx{id}");
            let ts = s_to_us(self.q.now());
            let fill = self.pool.get(id).fill();
            if opened {
                let args = [("type", ArgValue::U64(ty as u64))];
                self.rec.begin(Clock::Virtual, &track, "form", ts, &args);
            }
            let name = match (opened, full) {
                (true, true) => "Free→Full",
                (true, false) => "Free→PartiallyFull",
                (false, true) => "PartiallyFull→Full",
                (false, false) => "",
            };
            if !name.is_empty() {
                let args = [("fill", ArgValue::F64(fill))];
                self.rec.instant(Clock::Virtual, &track, name, ts, &args);
            }
        }
        if full {
            self.launch_cohort(id, false);
        }
    }

    /// Launch context `id`'s cohort: Full on dispatch, PartiallyFull when
    /// its formation `timeout` fires.
    fn launch_cohort(&mut self, id: ContextId, timeout: bool) {
        let (key, len) = self.cohort(id);
        // Both launch sites guard the state, so this cannot fail; if it
        // ever did, skipping the launch leaves the context to a later
        // timeout instead of crashing the event loop.
        let launched = self.pool.get_mut(id).launch().is_ok();
        debug_assert!(launched, "guarded launch cannot fail");
        if !launched {
            return;
        }
        self.report.cohorts_launched += 1;
        self.report.timeout_launches += u64::from(timeout);
        let fill = self.pool.get(id).fill();
        self.fill_sum += fill;
        if self.rec.enabled() {
            let track = format!("ctx{id}");
            let ts = s_to_us(self.q.now());
            self.rec.end(Clock::Virtual, &track, ts); // close "form"
            let name = if timeout {
                "PartiallyFull→Busy (timeout)"
            } else {
                "Full→Busy"
            };
            let args = [("fill", ArgValue::F64(fill))];
            self.rec.instant(Clock::Virtual, &track, name, ts, &args);
            let args = [
                ("type", ArgValue::U64(key as u64)),
                ("requests", ArgValue::U64(len as u64)),
            ];
            self.rec.begin(Clock::Virtual, &track, "execute", ts, &args);
            self.rec.sample("cohort_fill", fill);
        }
        let dur = self.service.stage_latency(key, 0, len);
        self.submit_kernel(dur, Event::StageDone { ctx: id, stage: 0 });
    }

    /// Process stage `stage` of context `ctx` finished: a backend round
    /// trip follows every stage but the last, the response send the last.
    fn stage_done(&mut self, now: f64, ctx: ContextId, stage: u32) {
        let (key, len) = self.cohort(ctx);
        let backend = stage + 1 < self.service.stages(key);
        let (dur, next) = if backend {
            let dur = self.service.backend_latency(key, stage, len);
            (dur, Event::BackendDone { ctx, stage })
        } else {
            (
                self.service.response_latency(key, len),
                Event::ResponseDone { ctx },
            )
        };
        if self.rec.enabled() {
            let (track, name) = if backend {
                ("stage:backend", format!("backend {stage}"))
            } else {
                ("stage:response", "response".to_string())
            };
            self.rec.span(
                Clock::Virtual,
                track,
                &name,
                s_to_us(now),
                s_to_us(dur),
                &[
                    ("ctx", ArgValue::U64(ctx as u64)),
                    ("requests", ArgValue::U64(len as u64)),
                ],
            );
        }
        self.q.schedule_in(dur, next);
    }

    /// Context `ctx`'s responses are sent: record latencies, free the
    /// context and drain the backlog into it.
    fn response_done(&mut self, now: f64, ctx: ContextId) {
        // ResponseDone is only scheduled for a Busy context, so release
        // cannot fail; an empty fallback keeps the loop alive rather than
        // crashing it.
        let members = self.pool.get_mut(ctx).release().unwrap_or_default();
        self.latencies
            .extend(members.iter().map(|m| now - m.arrived));
        if self.rec.enabled() {
            let track = format!("ctx{ctx}");
            let ts = s_to_us(now);
            self.rec.end(Clock::Virtual, &track, ts); // close "execute"
            self.rec
                .instant(Clock::Virtual, &track, "Busy→Free", ts, &[]);
            for m in &members {
                self.rec.sample("request_latency_s", now - m.arrived);
            }
        }
        self.report.completed += members.len() as u64;
        self.report.makespan_s = now;
        // Structural hazard cleared: drain the backlog into the freed
        // context in arrival order, until a request re-stalls.
        while let Some(req) = self.backlog.pop_front() {
            if !self.dispatch(req, true) {
                break;
            }
        }
        self.counter("dispatch", "backlog_depth", self.backlog.len() as f64);
    }

    fn finish(self) -> PipelineReport {
        let mut report = self.report;
        report.latency = LatencyStats::from_samples(self.latencies);
        if report.cohorts_launched > 0 {
            report.mean_fill = self.fill_sum / report.cohorts_launched as f64;
        }
        report
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

    /// Regression: the device never runs more than `device_slots` kernels.
    /// Parse and process spans cover each kernel's slot occupancy, so at
    /// no instant may more of them overlap than there are slots. (A parse
    /// completion used to let a cohort it filled take the freed slot and
    /// then start the oldest queued kernel too, one over the limit.)
    #[test]
    fn device_never_exceeds_its_slots() {
        use rhythm_obs::{Phase, TraceRecorder};
        let arrivals = uniform_arrivals(2048, 5e6, &[0, 1, 2, 3]);
        for slots in [1, 2, 4] {
            let mut cfg = small_config();
            cfg.device_slots = slots;
            let rec = TraceRecorder::new();
            Pipeline::new(TableService::uniform(4, 2), cfg).run(&arrivals, &rec);
            // A span's `ts + dur` can pass the next span's start by float
            // error, so an end sorts a picosecond early; at one instant
            // ends sort before starts.
            let mut edges: Vec<(f64, i32)> = Vec::new();
            for e in rec.events() {
                if let Phase::Span { dur_us } = e.phase {
                    if e.track == "stage:parser" || e.track == "stage:process" {
                        edges.push((e.ts_us, 1));
                        edges.push((e.ts_us + dur_us - 1e-6, -1));
                    }
                }
            }
            edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut running = 0;
            let mut peak = 0;
            for (_, step) in edges {
                running += step;
                peak = peak.max(running);
            }
            assert!(
                peak <= slots as i32,
                "{peak} kernels overlap on {slots} device slots"
            );
        }
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

    /// One context of cohort 2 fed one request per parse, over a service
    /// that takes no time: a cohort can open, fill, run and be released
    /// at one virtual instant.
    fn instant_one_context() -> Pipeline<TableService> {
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
        };
        Pipeline::new(svc, cfg)
    }

    /// Regression: a formation timeout armed for an earlier occupancy of
    /// a context must not fire early for a later cohort in the same
    /// context. Here the context is opened, filled, launched, completed,
    /// released and reopened at the same virtual time. The timeout checks
    /// the pool's deadline for the context's current occupancy
    /// (`CohortPool::is_due`), so the stale timer can launch the reopened
    /// cohort no earlier than that cohort's own timer would.
    #[test]
    fn stale_timeout_does_not_alias_reopened_context() {
        let p = instant_one_context();
        // r1 + r2 fill and retire a cohort at t = 0; r3 reopens the same
        // context at t = 0 with the first occupancy's timer still queued.
        let arrivals = [(0.0, 0), (0.0, 0), (0.0, 0)];
        let a = p.run(&arrivals, &NoopRecorder);
        assert_eq!(a.completed, 3);
        assert_eq!(a.cohorts_launched, 2);
        // The partial cohort launches once, at its own deadline.
        assert_eq!(a.timeout_launches, 1);
        assert_eq!(a.makespan_s, 1e-3);
        let b = p.run(&arrivals, &NoopRecorder);
        assert_eq!(a, b, "aliased-timer schedule must stay deterministic");
    }

    /// Regression: a context reopened *later* than the occupancy a
    /// pending timer was armed for. The stale timer fires at 1 ms, before
    /// the reopened cohort is due, and must leave it forming; the cohort
    /// launches at its own deadline, 1.4 ms.
    #[test]
    fn stale_timeout_leaves_a_later_cohort_forming() {
        let p = instant_one_context();
        let arrivals = [(0.0, 0), (0.0, 0), (0.4e-3, 0)];
        let r = p.run(&arrivals, &NoopRecorder);
        assert_eq!(r.completed, 3);
        assert_eq!(r.cohorts_launched, 2);
        assert_eq!(r.timeout_launches, 1);
        assert_eq!(r.makespan_s, 0.4e-3 + 1e-3, "launched at its deadline");
        assert!(
            r.latency.max >= 1e-3,
            "the third request waited its full time-out: {}",
            r.latency.max
        );
    }

    /// Regression: arming the reader-flush timer once per epoch must not
    /// change behaviour relative to arming it on every arrival — and the
    /// timer must still fire when a flush attempt finds the parser busy
    /// (ParserDone re-arms it).
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
