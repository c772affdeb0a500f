//! The Chrome trace-event golden file: freezes the JSON a fixed
//! `TraceRecorder` renders, byte for byte, so a change to the writer
//! (metadata order, tid assignment, escaping, number formatting) fails
//! CI instead of silently changing every exported trace.

use rhythm_obs::{validate_chrome_trace, ArgValue, Clock, Recorder, TraceRecorder};

/// Record the frozen event set: both clocks with explicit timestamps,
/// one argument of each kind, a begin/end pair, a counter, and names
/// that need escaping.
fn golden_recorder() -> TraceRecorder {
    let r = TraceRecorder::new();
    r.span(
        Clock::Virtual,
        "stage:parser",
        "parse",
        10.0,
        5.5,
        &[
            ("batch", ArgValue::U64(64)),
            ("fill", ArgValue::F64(0.75)),
            ("kind", ArgValue::Str("login.php")),
        ],
    );
    r.begin(
        Clock::Virtual,
        "ctx0",
        "form",
        2.0,
        &[("key", ArgValue::U64(3))],
    );
    r.end(Clock::Virtual, "ctx0", 9.25);
    r.instant(Clock::Virtual, "ctx0", "launch", 9.25, &[]);
    r.counter(Clock::Virtual, "dispatch", "backlog_depth", 4.0, 2.0);
    r.span(
        Clock::Wall,
        "simt:w0",
        "warp \"0\"\tback\\slash\u{1}",
        100.0,
        12.0,
        &[("path", ArgValue::Str("a\"b\\c\nd"))],
    );
    r.instant(
        Clock::Wall,
        "simt:w0",
        "done",
        112.0,
        &[("lanes", ArgValue::U64(32))],
    );
    r.counter(Clock::Wall, "simt:cache", "plan_cache_hits", 50.0, 7.0);
    r
}

#[test]
fn chrome_trace_matches_golden_file() {
    let rendered = golden_recorder().chrome_json();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file present");
    assert_eq!(
        rendered, golden,
        "Chrome trace format drifted from tests/golden/trace.json \
         (run with UPDATE_GOLDEN=1 to regenerate intentionally)"
    );
    let check = validate_chrome_trace(&rendered).expect("golden document is valid");
    assert_eq!(check.events, 8);
    assert_eq!(check.tracks, 5);
    assert!(check
        .names
        .iter()
        .any(|n| n == "warp \"0\"\tback\\slash\u{1}"));
}
