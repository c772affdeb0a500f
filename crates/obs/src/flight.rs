//! The flight recorder: an always-on, fixed-size ring buffer of recent
//! events, the live [`Recorder`] back end next to the offline
//! [`TraceRecorder`](crate::TraceRecorder).
//!
//! A `TraceRecorder` captures a whole run but grows without bound and is
//! only read at shutdown. The flight recorder is the live complement:
//! each reactor shard owns one, records a bounded sample of recent
//! events into preallocated slots, and overwrites the oldest event when
//! full. A scraper thread can read the ring at any time; per-slot
//! sequence numbers (a seqlock) let the reader detect and skip slots that
//! were mid-overwrite, so a dump taken under load never shows torn
//! events. Both back ends render through the one Chrome writer,
//! [`chrome_trace_json`](crate::chrome_trace_json).
//!
//! The ring interns names, tracks and argument keys the first time it
//! sees them, so a slot stores `u32` ids instead of strings; a name seen
//! before costs a read-locked scan of a short table, no allocation.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Instant;

use crate::recorder::{ArgValue, Clock, OwnedArg, Phase, Recorder, TraceEvent};

/// Distinct names, tracks and argument keys one ring can intern; events
/// that would need another are not recorded.
const MAX_NAMES: usize = 256;
/// Argument-key id of an event that carries no `U64` argument.
const NO_ARG: u32 = u32::MAX;

const KIND_SPAN: u32 = 0;
const KIND_INSTANT: u32 = 1;
const KIND_BEGIN: u32 = 2;
const KIND_END: u32 = 3;
const KIND_COUNTER: u32 = 4;

#[derive(Debug, Default)]
struct Slot {
    /// Seqlock: odd while a writer is mid-update; bumped twice per write.
    seq: AtomicU64,
    name: AtomicU32,
    track: AtomicU32,
    kind: AtomicU32,
    arg_key: AtomicU32,
    ts_bits: AtomicU64,
    /// Span duration or counter value (f64 bits).
    value_bits: AtomicU64,
    arg: AtomicU64,
}

/// A fixed-capacity single-writer ring buffer of recent wall-clock events.
///
/// One recorder per reactor shard: the owning shard records, any thread
/// may call [`FlightRecorder::events`] concurrently. (With multiple
/// concurrent writers the per-slot seqlock still prevents torn reads,
/// but two writers that lap each other onto the same slot may interleave
/// fields; the single-writer-per-shard topology avoids that by
/// construction.)
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    /// Total events ever recorded; `head % capacity` is the next slot.
    head: AtomicU64,
    /// Sampling tick counter (see [`FlightRecorder::tick`]).
    ticks: AtomicU64,
    names: RwLock<Vec<String>>,
    epoch: Instant,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            names: RwLock::new(Vec::new()),
            epoch: Instant::now(),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Sampling helper: returns `true` on every `every`-th call (always
    /// `true` for `every ≤ 1`). Lets callers keep high-frequency events
    /// (per-poll ticks) at a bounded rate while low-frequency events
    /// (cohort launches) record unconditionally.
    pub fn tick(&self, every: u64) -> bool {
        if every <= 1 {
            return true;
        }
        self.ticks
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(every)
    }

    /// Total events recorded over the recorder's lifetime.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events overwritten (lifetime total minus capacity, floored at 0).
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity() as u64)
    }

    /// The id of `name`, interning it on first sight; `None` once the
    /// table is full. A known name takes only the read lock.
    fn intern(&self, name: &str) -> Option<u32> {
        let names = self.names.read().unwrap_or_else(|e| e.into_inner());
        if let Some(i) = names.iter().position(|n| n == name) {
            return Some(i as u32);
        }
        drop(names);
        let mut names = self.names.write().unwrap_or_else(|e| e.into_inner());
        if let Some(i) = names.iter().position(|n| n == name) {
            return Some(i as u32);
        }
        if names.len() == MAX_NAMES {
            return None;
        }
        names.push(name.to_string());
        Some(names.len() as u32 - 1)
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        clock: Clock,
        kind: u32,
        track: &str,
        name: &str,
        ts_us: f64,
        value: f64,
        args: &[(&str, ArgValue<'_>)],
    ) {
        if clock == Clock::Virtual || ts_us.is_nan() {
            return;
        }
        let arg = args.iter().find_map(|&(k, v)| match v {
            ArgValue::U64(n) => Some((k, n)),
            _ => None,
        });
        let (Some(track), Some(name)) = (self.intern(track), self.intern(name)) else {
            return;
        };
        let (arg_key, arg) = match arg {
            Some((k, n)) => match self.intern(k) {
                Some(k) => (k, n),
                None => return,
            },
            None => (NO_ARG, 0),
        };
        let i = self.head.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        let slot = &self.slots[i];
        // Odd: in progress. The fence keeps the field stores below from
        // becoming visible before the odd number (a Release RMW orders
        // only earlier accesses).
        slot.seq.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.name.store(name, Ordering::Relaxed);
        slot.track.store(track, Ordering::Relaxed);
        slot.kind.store(kind, Ordering::Relaxed);
        slot.arg_key.store(arg_key, Ordering::Relaxed);
        slot.ts_bits.store(ts_us.to_bits(), Ordering::Relaxed);
        slot.value_bits.store(value.to_bits(), Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
        slot.seq.fetch_add(1, Ordering::Release); // even: stable
    }

    /// Copy the ring's stable events out, ordered by track, then
    /// timestamp. Slots that are mid-overwrite at read time are skipped
    /// rather than returned torn.
    pub fn events(&self) -> Vec<TraceEvent> {
        let live = (self.recorded() as usize).min(self.slots.len());
        let mut stable = Vec::with_capacity(live);
        for (i, slot) in self.slots.iter().enumerate().take(live) {
            // Seqlock read: retry a few times, skip if the writer keeps
            // lapping us (it can only be mid-write on one slot at once).
            for _ in 0..4 {
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 == 0 || s1 % 2 != 0 {
                    continue; // first write, or any write, in progress
                }
                let fields = (
                    slot.name.load(Ordering::Relaxed),
                    slot.track.load(Ordering::Relaxed),
                    slot.kind.load(Ordering::Relaxed),
                    slot.arg_key.load(Ordering::Relaxed),
                    f64::from_bits(slot.ts_bits.load(Ordering::Relaxed)),
                    f64::from_bits(slot.value_bits.load(Ordering::Relaxed)),
                    slot.arg.load(Ordering::Relaxed),
                );
                // Keeps the field loads above from being performed after
                // the sequence re-check below.
                fence(Ordering::Acquire);
                if slot.seq.load(Ordering::Relaxed) == s1 {
                    // The slot's latest write is its (s1 / 2)-th, which
                    // gives the event's global index.
                    let seq = (s1 / 2 - 1) * self.slots.len() as u64 + i as u64;
                    stable.push((seq, fields));
                    break;
                }
            }
        }
        // Names are looked up after the slots are read: a writer interns
        // before it fills a slot, so every id read above is in the table,
        // and a writer interning a new name never waits on a whole dump.
        let names = self.names.read().unwrap_or_else(|e| e.into_inner());
        let name = |id: u32| names.get(id as usize).cloned().unwrap_or_default();
        let mut out: Vec<TraceEvent> = stable
            .into_iter()
            .map(
                |(seq, (name_id, track, kind, arg_key, ts_us, value, arg))| TraceEvent {
                    seq,
                    clock: Clock::Wall,
                    track: name(track),
                    name: name(name_id),
                    phase: match kind {
                        KIND_SPAN => Phase::Span { dur_us: value },
                        KIND_BEGIN => Phase::Begin,
                        KIND_END => Phase::End,
                        KIND_COUNTER => Phase::Counter { value },
                        _ => Phase::Instant,
                    },
                    ts_us,
                    args: if arg_key == NO_ARG {
                        Vec::new()
                    } else {
                        vec![(name(arg_key), OwnedArg::U64(arg))]
                    },
                },
            )
            .collect();
        out.sort_by(|a, b| {
            a.track
                .cmp(&b.track)
                .then(a.ts_us.total_cmp(&b.ts_us))
                .then(a.seq.cmp(&b.seq))
        });
        out
    }
}

/// The live back end keeps `Clock::Wall` span, instant, begin, end and
/// counter events, each with its first `U64` argument under that
/// argument's key; other arguments are dropped. It does not keep
/// `Clock::Virtual` events (a live ring runs on wall-clock time, against
/// its own epoch) or [`Recorder::sample`] calls (a shard's live
/// distributions are its [`AtomicHistogram`](crate::AtomicHistogram)s).
impl Recorder for FlightRecorder {
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
        let dur_us = dur_us.max(0.0);
        self.record(clock, KIND_SPAN, track, name, start_us, dur_us, args);
    }

    fn begin(
        &self,
        clock: Clock,
        track: &str,
        name: &str,
        ts_us: f64,
        args: &[(&str, ArgValue<'_>)],
    ) {
        self.record(clock, KIND_BEGIN, track, name, ts_us, 0.0, args);
    }

    fn end(&self, clock: Clock, track: &str, ts_us: f64) {
        self.record(clock, KIND_END, track, "", ts_us, 0.0, &[]);
    }

    fn instant(
        &self,
        clock: Clock,
        track: &str,
        name: &str,
        ts_us: f64,
        args: &[(&str, ArgValue<'_>)],
    ) {
        self.record(clock, KIND_INSTANT, track, name, ts_us, 0.0, args);
    }

    fn counter(&self, clock: Clock, track: &str, name: &str, ts_us: f64, value: f64) {
        self.record(clock, KIND_COUNTER, track, name, ts_us, value, &[]);
    }

    fn sample(&self, _: &str, _: f64) {}

    fn wall_now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::{chrome_trace_json, validate_chrome_trace};

    #[test]
    fn ring_keeps_most_recent_events() {
        let r = FlightRecorder::new(4);
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
    }

    #[test]
    fn keeps_wall_events_only_and_the_first_u64_argument() {
        let r = FlightRecorder::new(16);
        r.span(Clock::Virtual, "t", "virtual", 1.0, 1.0, &[]);
        r.sample("hist", 1.0);
        r.instant(Clock::Wall, "t", "nan", f64::NAN, &[]);
        assert_eq!(r.recorded(), 0, "virtual, sample and NaN are not kept");
        r.begin(Clock::Wall, "t", "open", 1.0, &[]);
        r.end(Clock::Wall, "t", 2.0);
        r.counter(Clock::Wall, "c", "depth", 3.0, 2.5);
        r.instant(
            Clock::Wall,
            "t",
            "shed",
            4.0,
            &[
                ("why", ArgValue::Str("full")),
                ("n", ArgValue::U64(7)),
                ("m", ArgValue::U64(8)),
            ],
        );
        let events = r.events();
        assert_eq!(events.len(), 4);
        assert!(matches!(events[0].phase, Phase::Counter { value } if value == 2.5));
        assert!(matches!(events[1].phase, Phase::Begin));
        assert!(matches!(events[2].phase, Phase::End));
        assert!(matches!(events[3].phase, Phase::Instant));
        assert!(matches!(events[3].args[..], [(ref k, OwnedArg::U64(7))] if k == "n"));
    }

    #[test]
    fn name_table_is_bounded() {
        let r = FlightRecorder::new(8);
        for i in 0..MAX_NAMES + 10 {
            r.instant(Clock::Wall, "t", &format!("e{i}"), i as f64, &[]);
        }
        assert_eq!(r.recorded() as usize, MAX_NAMES - 1, "track takes one slot");
        r.instant(Clock::Wall, "t", "e0", 1e6, &[]);
        assert_eq!(r.recorded() as usize, MAX_NAMES, "known names still record");
    }

    #[test]
    fn sampling_tick() {
        let r = FlightRecorder::new(1);
        assert!(r.tick(0) && r.tick(1), "every<=1 always samples");
        let hits = (0..100).filter(|_| r.tick(10)).count();
        assert_eq!(hits, 10);
    }

    #[test]
    fn dump_is_a_valid_chrome_trace() {
        let a = FlightRecorder::new(16);
        let b = FlightRecorder::new(16);
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
        let r = std::sync::Arc::new(FlightRecorder::new(8));
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
                assert_eq!(e.ts_us, arg as f64, "torn slot escaped the seqlock");
            }
        }
        writer.join().unwrap();
    }
}
