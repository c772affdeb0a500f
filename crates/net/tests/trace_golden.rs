//! The `/trace` golden file: freezes the whole document
//! [`Telemetry::render_trace`] renders over a fixed two-shard event set —
//! spans, instants, a begin/end pair and a counter on each shard's ring,
//! out of time order, with equal timestamps and names that need escaping
//! — byte for byte. Every event is wall-clock, stamped explicitly, and
//! carries at most one `U64` argument.

use rhythm_net::Telemetry;
use rhythm_obs::{ArgValue, Clock, Recorder};

fn golden_telemetry() -> std::sync::Arc<Telemetry> {
    let t = Telemetry::new(2);
    let a = t.shard(0).flight();
    a.instant(
        Clock::Wall,
        "shard",
        "poll",
        40.0,
        &[("progress", ArgValue::U64(1))],
    );
    a.span(
        Clock::Wall,
        "cohorts",
        "cohort batch",
        12.5,
        30.25,
        &[("requests", ArgValue::U64(32))],
    );
    a.instant(Clock::Wall, "shard", "shed 503", 41.0, &[]);
    a.instant(Clock::Wall, "shard", "admin", 41.0, &[]);
    a.span(
        Clock::Wall,
        "cohorts",
        "cohort batch",
        2.0,
        0.5,
        &[("requests", ArgValue::U64(1))],
    );
    a.begin(Clock::Wall, "drain", "drain \"all\"", 50.0, &[]);
    a.end(Clock::Wall, "drain", 75.125);
    let b = t.shard(1).flight();
    b.counter(Clock::Wall, "depth", "queued", 3.0, 2.5);
    b.instant(
        Clock::Wall,
        "shard",
        "poll",
        1.0,
        &[("progress", ArgValue::U64(0))],
    );
    b.span(Clock::Wall, "cohorts", "cohort batch", 5.0, 0.0, &[]);
    b.counter(Clock::Wall, "depth", "queued", 1.0, 7.0);
    t
}

#[test]
fn render_trace_matches_golden_file() {
    let trace = golden_telemetry().render_trace();
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/render_trace.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &trace).expect("write golden");
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file present");
    assert_eq!(
        trace, golden,
        "/trace drifted from tests/golden/render_trace.json \
         (run with UPDATE_GOLDEN=1 to regenerate intentionally)"
    );
    let check = rhythm_obs::validate_chrome_trace(&trace).expect("golden document is valid");
    assert_eq!(check.events, 11);
}
