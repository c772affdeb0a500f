//! What a run prints and writes: the machine block, every metric by name
//! with its unit and clock, and — last line of standard output — the one
//! JSON object the benchmark contract asks for.

use std::fmt::Write as _;

use crate::run::{RunArgs, RunResult};
use crate::server::{GENERATOR_CPU, REACTOR_CPU};
use crate::spec::{
    MetricSpec, CONNS, END_TO_END, INFORMATIONAL, PER_CONN_INFLIGHT, PER_LAYER, RUNGS, USERS,
};

/// A finite number with all its digits, or `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The commit of the checkout, read from `.git` without running git; the
/// driver's checkouts are not repositories and report `unknown`.
fn git_commit() -> String {
    let head = match read_trimmed(".git/HEAD") {
        Some(h) => h,
        None => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => {
            read_trimmed(&format!(".git/{reference}")).unwrap_or_else(|| "unknown".into())
        }
        None => head,
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Machine and run-shape metadata, as a JSON object. Every result
/// carries it: a number without its machine did not happen.
pub fn machine_block(args: &RunArgs, nproc: usize, pinned: bool) -> String {
    let shape = args.shape();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into());
    let fields = [
        ("nproc", nproc.to_string()),
        ("cpu", json_string(&cpu)),
        ("kernel", json_string(&kernel)),
        ("rustc", json_string(&rustc_version())),
        ("commit", json_string(&git_commit())),
        ("workload", json_string(args.spec.name)),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("quick", args.quick.to_string()),
        ("seconds", json_number(args.seconds)),
        ("window_requests", shape.window_requests.to_string()),
        ("rounds", shape.rounds.to_string()),
        ("rungs_rps", format!("{:?}", args.spec.rungs)),
        ("p99_limit_ms", json_number(args.spec.p99_limit_ms)),
        ("setups", shape.setups.to_string()),
        ("conns", CONNS.to_string()),
        ("inflight_per_conn", PER_CONN_INFLIGHT.to_string()),
        ("users", USERS.to_string()),
        ("shards", "1".into()),
        (
            "generator",
            json_string("co-resident, 1 thread, open loop, latency from scheduled send time"),
        ),
        (
            "placement",
            json_string(&if pinned {
                format!("generator pinned to cpu {GENERATOR_CPU}, reactor to cpu {REACTOR_CPU}")
            } else {
                "unpinned (one CPU, or sched_setaffinity refused)".to_string()
            }),
        ),
        ("link", json_string("loopback (127.0.0.1), no real network")),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The metrics the contract's result line carries for this kind of run,
/// in `spec.rs` order.
pub fn table(trace: bool) -> &'static [MetricSpec] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// What the run measured besides: unbounded, printed and written to the
/// result document, absent from the contract line.
fn informational(trace: bool) -> &'static [MetricSpec] {
    if trace {
        &[]
    } else {
        &INFORMATIONAL
    }
}

fn value_of(result: &RunResult, name: &str) -> Option<f64> {
    result
        .values
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, v)| v)
}

/// Every metric as `{"name": {"value", "unit", "clock"[, "bound"]}}`.
fn metrics_json(
    result: &RunResult,
    specs: &[MetricSpec],
    with_clock: bool,
) -> Result<String, String> {
    let mut items = Vec::with_capacity(specs.len());
    for m in specs {
        let v = value_of(result, m.name)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        let mut item = format!(
            "{}: {{\"value\": {}, \"unit\": {}",
            json_string(m.name),
            json_number(v),
            json_string(m.unit)
        );
        if with_clock {
            let _ = write!(item, ", \"clock\": {}", json_string(m.clock.as_str()));
            if let Some(b) = m.bound {
                let _ = write!(item, ", \"bound\": {}", json_number(b));
            }
        }
        item.push('}');
        items.push(item);
    }
    Ok(format!("{{{}}}", items.join(", ")))
}

/// The full result document (`benchmark/out/<workload>.<kind>.json`, and
/// the checked-in `benchmark/seed/` summaries): machine block, counts,
/// and every metric with unit, clock and bound.
pub fn document(args: &RunArgs, result: &RunResult, machine: &str) -> Result<String, String> {
    let list = |items: &[String]| -> String {
        let quoted: Vec<String> = items.iter().map(|n| json_string(n)).collect();
        format!("[\n    {}\n  ]", quoted.join(",\n    "))
    };
    let one_per_line = |json: String| json.replace("}, \"", "},\n    \"");
    Ok(format!(
        "{{\n  \"machine\": {machine},\n  \"correct\": {},\n  \"attempted\": {},\n  \
         \"failed\": {},\n  \"min_window_samples\": {},\n  \"metrics\": {},\n  \
         \"informational\": {},\n  \"notes\": {},\n  \"failures\": {}\n}}\n",
        result.failed == 0,
        result.attempted,
        result.failed,
        result.samples,
        one_per_line(metrics_json(result, table(args.trace), true)?),
        one_per_line(metrics_json(result, informational(args.trace), true)?),
        list(&result.notes),
        list(&result.failures),
    ))
}

/// Human-readable report on standard output, one metric per line.
pub fn print_table(args: &RunArgs, result: &RunResult) {
    println!(
        "{:<34} {:>16} {:<9} {:<6} bound",
        "metric", "value", "unit", "clock"
    );
    for m in table(args.trace).iter().chain(informational(args.trace)) {
        let v = value_of(result, m.name).unwrap_or(f64::NAN);
        let bound = match m.bound {
            Some(b) => format!("{:.0} %", b * 100.0),
            None if args.trace => String::new(),
            None => "informational".into(),
        };
        println!(
            "{:<34} {:>16.4} {:<9} {:<6} {}",
            m.name,
            v,
            m.unit,
            m.clock.as_str(),
            bound
        );
    }
    println!(
        "attempted {}  failed {}  smallest window {} samples ({} rungs)",
        result.attempted, result.failed, result.samples, RUNGS
    );
    for n in &result.notes {
        println!("note: {n}");
    }
    for f in &result.failures {
        println!("FAILED: {f}");
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics` (name → value and unit).
pub fn contract_line(args: &RunArgs, result: &RunResult) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics_json(result, table(args.trace), false)?
    ))
}
