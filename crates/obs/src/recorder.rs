//! The [`Recorder`] trait, the zero-cost [`NoopRecorder`] and the one
//! collecting back end, [`TraceRecorder`]: unbounded for an offline run,
//! or [`TraceRecorder::bounded`] as a live server's ring of recent events.
//!
//! The trait is deliberately *observational*: a recorder can only be told
//! about events, never queried by instrumented code for anything that
//! could alter control flow (the one exception, [`Recorder::enabled`], is
//! a constant per implementation). This is what lets the pipeline and the
//! SIMT executor guarantee bit-identical results with and without a
//! recorder attached.
//!
//! Two clock domains coexist in one trace (see [`Clock`]):
//!
//! * **Virtual** — the pipeline simulation's discrete-event clock,
//!   stamped by the caller in microseconds of virtual time;
//! * **Wall** — host wall time of launches and warps, measured against
//!   the recorder's own origin via [`Recorder::wall_now_us`].

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::hist::StreamingHistogram;

/// Which clock an event's timestamp belongs to.
///
/// The Chrome exporter maps each domain to its own process group so the
/// two timelines never visually interleave.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Clock {
    /// The pipeline simulation's virtual time.
    Virtual,
    /// Host wall time relative to the recorder's origin.
    Wall,
}

/// One argument value attached to an event.
#[derive(Copy, Clone, Debug)]
pub enum ArgValue<'a> {
    /// Unsigned counter-like argument.
    U64(u64),
    /// Floating-point argument.
    F64(f64),
    /// String argument (kernel names, FSM states, ...).
    Str(&'a str),
}

/// Owned counterpart of [`ArgValue`] stored by the collecting recorder.
#[derive(Clone, Debug)]
pub enum OwnedArg {
    /// Unsigned counter-like argument.
    U64(u64),
    /// Floating-point argument.
    F64(f64),
    /// String argument.
    Str(String),
}

impl ArgValue<'_> {
    fn to_owned_arg(self) -> OwnedArg {
        match self {
            ArgValue::U64(v) => OwnedArg::U64(v),
            ArgValue::F64(v) => OwnedArg::F64(v),
            ArgValue::Str(s) => OwnedArg::Str(s.to_string()),
        }
    }
}

/// Event phase, mirroring the Chrome trace-event phases we emit.
#[derive(Clone, Debug)]
pub enum Phase {
    /// A complete span with a known duration (`ph: "X"`).
    Span {
        /// Span duration in microseconds.
        dur_us: f64,
    },
    /// Span begin (`ph: "B"`); paired with a later [`Phase::End`] on the
    /// same track.
    Begin,
    /// Span end (`ph: "E"`).
    End,
    /// A zero-duration instant (`ph: "i"`).
    Instant,
    /// A counter sample (`ph: "C"`).
    Counter {
        /// The sampled value.
        value: f64,
    },
}

/// One recorded event, as the collecting back ends return it.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Insertion sequence number (stable tie-break for equal timestamps).
    pub seq: u64,
    /// Clock domain of `ts_us`.
    pub clock: Clock,
    /// Track (rendered as one row/thread in the viewer).
    pub track: String,
    /// Event name (empty for [`Phase::End`]).
    pub name: String,
    /// Phase.
    pub phase: Phase,
    /// Timestamp in microseconds on `clock`.
    pub ts_us: f64,
    /// Attached arguments.
    pub args: Vec<(String, OwnedArg)>,
}

/// Sink for trace events and histogram samples.
///
/// Implementations must be cheap to call and must never panic on odd
/// inputs (NaN timestamps are dropped by the collecting recorder rather
/// than corrupting the trace). Instrumented code should guard argument
/// construction with [`Recorder::enabled`]:
///
/// ```
/// use rhythm_obs::{ArgValue, Clock, NoopRecorder, Recorder};
///
/// fn work<R: Recorder + ?Sized>(rec: &R) {
///     if rec.enabled() {
///         rec.instant(Clock::Virtual, "demo", "tick", 1.0, &[
///             ("n", ArgValue::U64(7)),
///         ]);
///     }
/// }
/// work(&NoopRecorder);
/// ```
pub trait Recorder: Sync {
    /// `false` for the no-op recorder: lets call sites skip argument
    /// construction entirely (and lets the optimizer erase the calls).
    fn enabled(&self) -> bool;

    /// A complete span `[start_us, start_us + dur_us]` on `track`.
    fn span(
        &self,
        clock: Clock,
        track: &str,
        name: &str,
        start_us: f64,
        dur_us: f64,
        args: &[(&str, ArgValue<'_>)],
    );

    /// Open a span on `track`; close it with [`Recorder::end`].
    fn begin(
        &self,
        clock: Clock,
        track: &str,
        name: &str,
        ts_us: f64,
        args: &[(&str, ArgValue<'_>)],
    );

    /// Close the innermost open span on `track`.
    fn end(&self, clock: Clock, track: &str, ts_us: f64);

    /// A zero-duration instant event.
    fn instant(
        &self,
        clock: Clock,
        track: &str,
        name: &str,
        ts_us: f64,
        args: &[(&str, ArgValue<'_>)],
    );

    /// A counter (gauge) sample.
    fn counter(&self, clock: Clock, track: &str, name: &str, ts_us: f64, value: f64);

    /// Feed one value into the named streaming histogram.
    fn sample(&self, hist: &str, value: f64);

    /// Microseconds of wall time since the recorder's origin (0 for
    /// recorders that don't keep a wall clock).
    fn wall_now_us(&self) -> f64;
}

/// The do-nothing recorder: every method is an empty inline body, so
/// instrumented code monomorphized against it compiles to the untraced
/// code exactly.
#[derive(Copy, Clone, Default, Debug)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn span(&self, _: Clock, _: &str, _: &str, _: f64, _: f64, _: &[(&str, ArgValue<'_>)]) {}
    #[inline(always)]
    fn begin(&self, _: Clock, _: &str, _: &str, _: f64, _: &[(&str, ArgValue<'_>)]) {}
    #[inline(always)]
    fn end(&self, _: Clock, _: &str, _: f64) {}
    #[inline(always)]
    fn instant(&self, _: Clock, _: &str, _: &str, _: f64, _: &[(&str, ArgValue<'_>)]) {}
    #[inline(always)]
    fn counter(&self, _: Clock, _: &str, _: &str, _: f64, _: f64) {}
    #[inline(always)]
    fn sample(&self, _: &str, _: f64) {}
    #[inline(always)]
    fn wall_now_us(&self) -> f64 {
        0.0
    }
}

/// Convert a virtual-time instant in seconds (the pipeline's unit) to the
/// microseconds used by trace timestamps.
#[inline]
pub fn s_to_us(seconds: f64) -> f64 {
    seconds * 1e6
}

/// The collecting recorder: buffers events and histogram samples behind
/// mutexes (one short critical section per event), then exports a Chrome
/// trace ([`TraceRecorder::chrome_json`]) and a plain-text summary
/// ([`TraceRecorder::summary`]).
///
/// [`TraceRecorder::new`] keeps every event, for an offline run.
/// [`TraceRecorder::bounded`] keeps only the newest events, for a live
/// server: each reactor shard owns one ring, and `/trace` reads it
/// mid-run. Either keeps each event whole — every argument, every name,
/// both clocks.
#[derive(Debug)]
pub struct TraceRecorder {
    inner: Mutex<Inner>,
    hists: Mutex<BTreeMap<String, StreamingHistogram>>,
    origin: Instant,
}

#[derive(Debug)]
struct Inner {
    /// The kept events, oldest first.
    events: VecDeque<TraceEvent>,
    /// Events recorded over the recorder's lifetime (the next event's
    /// sequence number).
    seq: u64,
    /// Events kept before the oldest is dropped.
    capacity: usize,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A fresh recorder that keeps every event; its wall-clock origin is
    /// `now`.
    pub fn new() -> Self {
        Self::bounded(usize::MAX)
    }

    /// A fresh recorder that keeps the newest `capacity` events (min 1)
    /// and drops the oldest; it still counts every event recorded.
    pub fn bounded(capacity: usize) -> Self {
        TraceRecorder {
            inner: Mutex::new(Inner {
                events: VecDeque::new(),
                seq: 0,
                capacity: capacity.max(1),
            }),
            hists: Mutex::new(BTreeMap::new()),
            origin: Instant::now(),
        }
    }

    /// The event buffer, locked; a poisoned lock still guards whole
    /// events, since each is pushed complete.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(
        &self,
        clock: Clock,
        track: &str,
        name: &str,
        phase: Phase,
        ts_us: f64,
        args: &[(&str, ArgValue<'_>)],
    ) {
        if ts_us.is_nan() {
            return; // never corrupt the trace with unordered timestamps
        }
        let mut inner = self.lock();
        let seq = inner.seq;
        inner.seq += 1;
        if inner.events.len() == inner.capacity {
            inner.events.pop_front();
        }
        inner.events.push_back(TraceEvent {
            seq,
            clock,
            track: track.to_string(),
            name: name.to_string(),
            phase,
            ts_us,
            args: args
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_owned_arg()))
                .collect(),
        });
    }

    /// Snapshot of the kept events, ordered by clock, track, then
    /// timestamp (the order the Chrome exporter writes them in).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self.lock().events.iter().cloned().collect();
        // Stable per-track time order: spans are pushed when they end, so
        // buffer order is not time order within a track.
        events.sort_by(|a, b| {
            (a.clock, &a.track)
                .cmp(&(b.clock, &b.track))
                .then(a.ts_us.total_cmp(&b.ts_us))
                .then(a.seq.cmp(&b.seq))
        });
        events
    }

    /// Number of events kept.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events recorded over the recorder's lifetime, kept or dropped.
    pub fn recorded(&self) -> u64 {
        self.lock().seq
    }

    /// Events dropped to keep the newest within the capacity.
    pub fn dropped(&self) -> u64 {
        let inner = self.lock();
        inner.seq - inner.events.len() as u64
    }

    /// Snapshot of the named histogram, if any value was recorded for it.
    pub fn histogram(&self, name: &str) -> Option<StreamingHistogram> {
        self.hists
            .lock()
            .expect("histograms poisoned")
            .get(name)
            .cloned()
    }

    /// Snapshot of all histograms (name → histogram), sorted by name.
    pub fn histograms(&self) -> Vec<(String, StreamingHistogram)> {
        self.hists
            .lock()
            .expect("histograms poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span(
        &self,
        clock: Clock,
        track: &str,
        name: &str,
        start_us: f64,
        dur_us: f64,
        args: &[(&str, ArgValue<'_>)],
    ) {
        self.push(
            clock,
            track,
            name,
            Phase::Span {
                dur_us: dur_us.max(0.0),
            },
            start_us,
            args,
        );
    }

    fn begin(
        &self,
        clock: Clock,
        track: &str,
        name: &str,
        ts_us: f64,
        args: &[(&str, ArgValue<'_>)],
    ) {
        self.push(clock, track, name, Phase::Begin, ts_us, args);
    }

    fn end(&self, clock: Clock, track: &str, ts_us: f64) {
        self.push(clock, track, "", Phase::End, ts_us, &[]);
    }

    fn instant(
        &self,
        clock: Clock,
        track: &str,
        name: &str,
        ts_us: f64,
        args: &[(&str, ArgValue<'_>)],
    ) {
        self.push(clock, track, name, Phase::Instant, ts_us, args);
    }

    fn counter(&self, clock: Clock, track: &str, name: &str, ts_us: f64, value: f64) {
        self.push(clock, track, name, Phase::Counter { value }, ts_us, &[]);
    }

    fn sample(&self, hist: &str, value: f64) {
        let mut hists = self.hists.lock().expect("histograms poisoned");
        hists
            .entry(hist.to_string())
            .or_insert_with(StreamingHistogram::for_positive_values)
            .record(value);
    }

    fn wall_now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_inert() {
        let r = NoopRecorder;
        assert!(!r.enabled());
        r.span(Clock::Virtual, "t", "s", 0.0, 1.0, &[]);
        r.sample("h", 1.0);
        assert_eq!(r.wall_now_us(), 0.0);
    }

    #[test]
    fn events_sorted_per_track() {
        let r = TraceRecorder::new();
        r.span(Clock::Virtual, "b", "second", 5.0, 1.0, &[]);
        r.span(Clock::Virtual, "a", "first", 9.0, 1.0, &[]);
        r.span(Clock::Virtual, "b", "first", 1.0, 1.0, &[]);
        let ev = r.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].track, "a");
        assert_eq!(ev[1].track, "b");
        assert_eq!(ev[1].name, "first");
        assert_eq!(ev[2].name, "second");
    }

    #[test]
    fn nan_timestamps_dropped() {
        let r = TraceRecorder::new();
        r.instant(Clock::Wall, "t", "bad", f64::NAN, &[]);
        assert!(r.is_empty());
    }

    #[test]
    fn histograms_accumulate_by_name() {
        let r = TraceRecorder::new();
        r.sample("lat", 1e-3);
        r.sample("lat", 2e-3);
        r.sample("other", 5.0);
        let h = r.histogram("lat").expect("recorded");
        assert_eq!(h.count(), 2);
        assert_eq!(r.histograms().len(), 2);
        assert!(r.histogram("missing").is_none());
    }

    #[test]
    fn wall_clock_monotonic() {
        let r = TraceRecorder::new();
        let a = r.wall_now_us();
        let b = r.wall_now_us();
        assert!(b >= a);
        assert!(a >= 0.0);
    }

    #[test]
    fn ring_keeps_most_recent_events() {
        let r = TraceRecorder::bounded(4);
        for i in 0..10u64 {
            r.span(
                Clock::Wall,
                "t",
                "launch",
                i as f64 * 10.0,
                5.0,
                &[("n", ArgValue::U64(i))],
            );
        }
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.dropped(), 6);
        let events = r.events();
        assert_eq!(events.len(), 4);
        let args: Vec<u64> = events
            .iter()
            .map(|e| match e.args[..] {
                [(ref k, OwnedArg::U64(n))] if k == "n" => n,
                _ => panic!("one U64 argument under its key: {:?}", e.args),
            })
            .collect();
        assert_eq!(args, [6, 7, 8, 9], "oldest overwritten, order by ts");
        assert!(events.iter().all(|e| e.name == "launch" && e.track == "t"));
        assert_eq!(events[0].seq, 6, "sequence numbers count dropped events");
    }

    /// The ring keeps what it is given: any number of distinct names,
    /// every argument of every type, and both clocks.
    #[test]
    fn bounded_ring_keeps_every_name_argument_and_clock() {
        let r = TraceRecorder::bounded(1024);
        for i in 0..300 {
            r.instant(Clock::Wall, "t", &format!("e{i}"), i as f64, &[]);
        }
        r.span(
            Clock::Wall,
            "t",
            "args",
            400.0,
            1.0,
            &[
                ("f", ArgValue::F64(2.5)),
                ("s", ArgValue::Str("full")),
                ("n", ArgValue::U64(7)),
            ],
        );
        r.span(
            Clock::Virtual,
            "device",
            "parser",
            0.0,
            3.0,
            &[("modelled_time_s", ArgValue::F64(3e-6))],
        );
        assert_eq!((r.recorded(), r.dropped()), (302, 0));
        let events = r.events();
        assert_eq!(events.len(), 302);
        assert!(matches!(events[0].clock, Clock::Virtual));
        assert_eq!(events[0].name, "parser");
        assert!(matches!(events[0].phase, Phase::Span { dur_us } if dur_us == 3.0));
        assert!(matches!(events[0].args[..], [(ref k, OwnedArg::F64(v))]
            if k == "modelled_time_s" && v == 3e-6));
        for i in 0..300 {
            assert_eq!(events[1 + i].name, format!("e{i}"));
        }
        let args = &events[301];
        assert_eq!(args.name, "args");
        assert!(matches!(args.args[..], [
            (ref f, OwnedArg::F64(2.5)),
            (ref s, OwnedArg::Str(ref full)),
            (ref n, OwnedArg::U64(7)),
        ] if f == "f" && s == "s" && full == "full" && n == "n"));
    }

    #[test]
    fn dump_is_a_valid_chrome_trace() {
        use crate::chrome::{chrome_trace_json, validate_chrome_trace};
        let a = TraceRecorder::bounded(16);
        let b = TraceRecorder::bounded(16);
        a.span(
            Clock::Wall,
            "cohorts",
            "cohorts x2",
            100.0,
            50.0,
            &[("requests", ArgValue::U64(64))],
        );
        a.instant(Clock::Wall, "shard", "shed \"503\"", 120.0, &[]);
        b.span(Clock::Wall, "shard", "poll", 10.0, 2.0, &[]);
        let json = chrome_trace_json(&[
            ("shard 0".to_string(), a.events()),
            ("shard 1".to_string(), b.events()),
        ]);
        let check = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(check.events, 3);
        assert_eq!(check.tracks, 3);
        assert!(check.names.iter().any(|n| n == "cohorts x2"));
        assert!(check.names.iter().any(|n| n == "shed \"503\""));
        assert!(json.contains("\"thread_name\",\"args\":{\"name\":\"cohorts\"}"));
        assert!(json.contains("\"args\":{\"requests\":64}"));
    }

    #[test]
    fn concurrent_dump_never_sees_torn_slots() {
        let r = std::sync::Arc::new(TraceRecorder::bounded(8));
        let writer = {
            let r = std::sync::Arc::clone(&r);
            std::thread::spawn(move || {
                for i in 0..50_000u64 {
                    // ts and arg move together; a torn read would pair a
                    // new ts with an old arg.
                    r.span(
                        Clock::Wall,
                        "t",
                        "spin",
                        i as f64,
                        1.0,
                        &[("i", ArgValue::U64(i))],
                    );
                }
            })
        };
        for _ in 0..200 {
            for e in r.events() {
                let [(_, OwnedArg::U64(arg))] = e.args[..] else {
                    panic!("argument lost: {:?}", e.args);
                };
                assert_eq!(e.ts_us, arg as f64, "torn event");
            }
        }
        writer.join().unwrap();
    }
}
