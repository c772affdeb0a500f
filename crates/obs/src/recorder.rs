//! The [`Recorder`] trait, the zero-cost [`NoopRecorder`] and the
//! collecting [`TraceRecorder`] (the live ring,
//! [`FlightRecorder`](crate::FlightRecorder), is the third back end).
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

use std::collections::BTreeMap;
use std::sync::Mutex;
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
#[derive(Debug)]
pub struct TraceRecorder {
    inner: Mutex<Inner>,
    hists: Mutex<BTreeMap<String, StreamingHistogram>>,
    origin: Instant,
}

#[derive(Debug)]
struct Inner {
    events: Vec<TraceEvent>,
    seq: u64,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A fresh recorder; its wall-clock origin is `now`.
    pub fn new() -> Self {
        TraceRecorder {
            inner: Mutex::new(Inner {
                events: Vec::new(),
                seq: 0,
            }),
            hists: Mutex::new(BTreeMap::new()),
            origin: Instant::now(),
        }
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
        let mut inner = self.inner.lock().expect("trace buffer poisoned");
        let seq = inner.seq;
        inner.seq += 1;
        inner.events.push(TraceEvent {
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

    /// Snapshot of the recorded events, ordered by track then timestamp
    /// (the order the Chrome exporter writes them in).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut events = self
            .inner
            .lock()
            .expect("trace buffer poisoned")
            .events
            .clone();
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

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("trace buffer poisoned")
            .events
            .len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
}
