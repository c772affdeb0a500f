//! Chrome trace-event JSON export (loadable in Perfetto and
//! `chrome://tracing`) and a dependency-free validator used by tests and
//! the CI smoke step.
//!
//! [`chrome_trace_json`] is the one writer: every recorder back end hands
//! it `(process name, events)` groups. Each group becomes a trace
//! *process* and each of its tracks a named *thread*, so Perfetto renders
//! one row per pipeline stage / cohort context / SIMT kernel or warp / reactor
//! track. [`TraceRecorder::chrome_json`] passes its two clock domains as
//! two groups — pid 1 "pipeline (virtual time)" and pid 2
//! "host (wall time)"; a live server's `/trace` passes one group per
//! reactor shard's bounded ring ([`TraceRecorder::bounded`]). Events
//! arrive sorted by track and timestamp, so per-track timestamps are
//! non-decreasing by construction (a property the validator checks).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::recorder::{Clock, OwnedArg, Phase, TraceEvent, TraceRecorder};

/// Append `s` escaped for a JSON string literal (quotes not included).
/// The workspace's one JSON string escaper.
pub fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Format a finite f64 as JSON (JSON has no NaN/inf; callers guarantee
/// finiteness, with a 0 fallback to keep the document well-formed).
fn number(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

fn arg_value(v: &OwnedArg, out: &mut String) {
    match v {
        OwnedArg::U64(n) => {
            let _ = write!(out, "{n}");
        }
        OwnedArg::F64(f) => number(*f, out),
        OwnedArg::Str(s) => {
            out.push('"');
            json_escape(s, out);
            out.push('"');
        }
    }
}

fn event(e: &TraceEvent, pid: usize, tid: u64, out: &mut String) {
    let ph = match e.phase {
        Phase::Span { .. } => "X",
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Instant => "i",
        Phase::Counter { .. } => "C",
    };
    let _ = write!(out, "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":");
    number(e.ts_us, out);
    match e.phase {
        Phase::Span { dur_us } => {
            out.push_str(",\"dur\":");
            number(dur_us, out);
        }
        Phase::Instant => out.push_str(",\"s\":\"t\""),
        _ => {}
    }
    out.push_str(",\"name\":\"");
    json_escape(&e.name, out);
    out.push('"');
    if let Phase::Counter { value } = e.phase {
        out.push_str(",\"args\":{\"value\":");
        number(value, out);
        out.push('}');
    } else if !e.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in e.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(k, out);
            out.push_str("\":");
            arg_value(v, out);
        }
        out.push('}');
    }
    out.push('}');
}

/// Render `(process name, events)` groups as one Chrome trace-event JSON
/// document: group `i` is process `i + 1`, and each distinct track in it
/// a named thread (tids numbered across the document, in group order and
/// then track order). Each group's events must be ordered by track, then
/// timestamp — the order [`TraceRecorder::events`] returns.
pub fn chrome_trace_json(processes: &[(String, Vec<TraceEvent>)]) -> String {
    let mut next_tid = 0;
    let tids: Vec<BTreeMap<&str, u64>> = processes
        .iter()
        .map(|(_, events)| {
            let mut tracks: BTreeMap<&str, u64> =
                events.iter().map(|e| (e.track.as_str(), 0)).collect();
            for tid in tracks.values_mut() {
                next_tid += 1;
                *tid = next_tid;
            }
            tracks
        })
        .collect();
    let n_events: usize = processes.iter().map(|(_, events)| events.len()).sum();
    let mut out = String::with_capacity(n_events * 96 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let head = out.len();
    let sep = |out: &mut String| out.push_str(if out.len() == head { "\n" } else { ",\n" });

    for (i, (name, _)) in processes.iter().enumerate() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"",
            i + 1
        );
        json_escape(name, &mut out);
        out.push_str("\"}}");
    }
    for (i, tracks) in tids.iter().enumerate() {
        for (track, tid) in tracks {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"",
                i + 1
            );
            json_escape(track, &mut out);
            out.push_str("\"}}");
        }
    }
    for (i, (_, events)) in processes.iter().enumerate() {
        for e in events {
            sep(&mut out);
            event(e, i + 1, tids[i][e.track.as_str()], &mut out);
        }
    }
    out.push_str("\n]}");
    out
}

impl TraceRecorder {
    /// Render the recorded events as a Chrome trace-event JSON document.
    ///
    /// Open the result in [Perfetto](https://ui.perfetto.dev) ("Open trace
    /// file") or `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let (virtual_events, wall_events) = self
            .events()
            .into_iter()
            .partition(|e| e.clock == Clock::Virtual);
        chrome_trace_json(&[
            ("pipeline (virtual time)".to_string(), virtual_events),
            ("host (wall time)".to_string(), wall_events),
        ])
    }
}

// ---------------------------------------------------------------------------
// Validation: a minimal JSON reader, enough to check trace well-formedness
// without external dependencies.
// ---------------------------------------------------------------------------

/// A parsed JSON value (validator-internal shape, exposed for tests).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (insertion order not preserved).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are not emitted by our exporter;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(lead) => {
                    // Consume one UTF-8 scalar. Its length is in the lead
                    // byte, so only those ≤ 4 bytes are validated — never
                    // the rest of the document.
                    let len = match lead {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(self.err("invalid utf-8")),
                    };
                    let scalar = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push_str(scalar);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parse a JSON document (full input must be one value plus whitespace).
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Summary of a validated Chrome trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceCheck {
    /// Non-metadata events.
    pub events: usize,
    /// Distinct `(pid, tid)` tracks carrying events.
    pub tracks: usize,
    /// Names seen on span/instant events (sorted, deduplicated).
    pub names: Vec<String>,
}

/// Validate a Chrome trace-event JSON document: parses the JSON, checks
/// the `traceEvents` shape, and checks that timestamps are non-decreasing
/// within every `(pid, tid)` track.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = parse_json(text)?;
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(a)) => a,
        _ => return Err("missing traceEvents array".into()),
    };
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut names: Vec<String> = Vec::new();
    let mut count = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue; // metadata carries no timeline timestamp
        }
        count += 1;
        let pid = e
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing pid"))? as u64;
        let tid = e
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing tid"))? as u64;
        let ts = e
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if !ts.is_finite() {
            return Err(format!("event {i}: non-finite ts"));
        }
        if let Some(&prev) = last_ts.get(&(pid, tid)) {
            if ts < prev {
                return Err(format!(
                    "event {i}: ts {ts} decreases on track ({pid},{tid}) after {prev}"
                ));
            }
        }
        last_ts.insert((pid, tid), ts);
        if matches!(ph, "X" | "B" | "i") {
            if let Some(n) = e.get("name").and_then(Json::as_str) {
                names.push(n.to_string());
            }
        }
    }
    names.sort();
    names.dedup();
    Ok(TraceCheck {
        events: count,
        tracks: last_ts.len(),
        names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{ArgValue, Recorder};

    #[test]
    fn export_round_trips_through_validator() {
        let r = TraceRecorder::new();
        r.span(
            Clock::Virtual,
            "stage:parser",
            "parse",
            10.0,
            5.0,
            &[
                ("batch", ArgValue::U64(64)),
                ("kind", ArgValue::Str("k\"x")),
            ],
        );
        r.begin(
            Clock::Virtual,
            "ctx0",
            "form",
            0.0,
            &[("fill", ArgValue::F64(0.25))],
        );
        r.end(Clock::Virtual, "ctx0", 4.0);
        r.instant(Clock::Virtual, "ctx0", "launch", 4.0, &[]);
        r.counter(Clock::Virtual, "dispatch", "backlog_depth", 2.0, 3.0);
        r.span(Clock::Wall, "simt:w0", "warp 0", 0.0, 9.0, &[]);

        let json = r.chrome_json();
        let check = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(check.events, 6);
        assert_eq!(check.tracks, 4, "parser, ctx0, dispatch + one wall track");
        assert!(check.names.iter().any(|n| n == "parse"));
        assert!(check.names.iter().any(|n| n == "warp 0"));
    }

    #[test]
    fn validator_rejects_decreasing_timestamps() {
        let bad = r#"{"traceEvents":[
            {"ph":"X","pid":1,"tid":1,"ts":10,"dur":1,"name":"a"},
            {"ph":"X","pid":1,"tid":1,"ts":5,"dur":1,"name":"b"}
        ]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("decreases"), "{err}");
    }

    #[test]
    fn validator_rejects_syntax_errors() {
        assert!(validate_chrome_trace("{\"traceEvents\":[").is_err());
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err(), "missing traceEvents");
        assert!(parse_json("{\"a\":1} x").is_err(), "trailing garbage");
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"s":"q\"\\\nA","b":true,"n":null}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("q\"\\\nA"));
        match v.get("a") {
            Some(Json::Arr(a)) => {
                assert_eq!(a.len(), 3);
                assert_eq!(a[2].as_f64(), Some(-300.0));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(v.get("b"), Some(&Json::Bool(true)));
        assert_eq!(v.get("n"), Some(&Json::Null));
    }

    fn string_of(bytes: &[u8]) -> Result<String, String> {
        Parser { bytes, pos: 0 }.string()
    }

    #[test]
    fn strings_decode_multibyte_scalars() {
        let text = "\"é€😀 — naïve\"";
        assert_eq!(string_of(text.as_bytes()).unwrap(), "é€😀 — naïve");
        let v = parse_json("{\"k\":\"日本語\"}").unwrap();
        assert_eq!(v.get("k").and_then(Json::as_str), Some("日本語"));
    }

    #[test]
    fn strings_reject_truncated_and_invalid_utf8() {
        // '€' is e2 82 ac: cut short by the closing quote, and by the end
        // of input.
        let err = string_of(b"\"\xe2\x82\"").unwrap_err();
        assert!(err.contains("invalid utf-8 at byte 1"), "{err}");
        assert!(string_of(b"\"\xe2\x82").is_err());
        // A lone continuation byte, an overlong '/', a surrogate, and a
        // lead byte no scalar starts with.
        for bad in [
            &b"\"\x80\""[..],
            b"\"\xc0\xaf\"",
            b"\"\xed\xa0\x80\"",
            b"\"\xff\"",
        ] {
            assert!(string_of(bad).is_err(), "{bad:?}");
        }
    }

    /// Parse time is linear in the document: a 2 MB trace used to take
    /// minutes (every string character re-validated the rest of it).
    #[test]
    fn large_trace_validates() {
        let r = TraceRecorder::new();
        let mut n = 0u64;
        let json = loop {
            for _ in 0..2_000 {
                r.span(
                    Clock::Wall,
                    "loadgen:c0:s0",
                    "account_summary.php — résumé",
                    n as f64,
                    0.5,
                    &[("rid", ArgValue::U64(n)), ("kind", ArgValue::Str("x\"y"))],
                );
                n += 1;
            }
            let json = r.chrome_json();
            if json.len() >= 2 << 20 {
                break json;
            }
        };
        let check = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(check.events as u64, n);
    }

    #[test]
    fn empty_recorder_exports_valid_trace() {
        let r = TraceRecorder::new();
        let check = validate_chrome_trace(&r.chrome_json()).expect("valid");
        assert_eq!(check.events, 0);
    }
}
