//! `repeat`: two full sets of runs of the same commit on the same
//! machine, back to back, compared metric by metric against the
//! benchmark's own bounds. A benchmark that cannot reproduce itself
//! within a bound cannot hold a later change to it.

use std::process::{Command, Stdio};

use rhythm_obs::{parse_json, Json};

use crate::spec::{END_TO_END, WORKLOADS};

/// Run one workload untraced in a child process and return its contract
/// line, parsed. A child keeps process-wide caches and peak RSS from
/// leaking between runs.
fn run_child(workload: &str, flags: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(flags)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no output (exit {})", out.status))?;
    let doc = parse_json(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: exit {}: {line}", out.status));
    }
    Ok(doc)
}

fn metric(doc: &Json, name: &str) -> Result<f64, String> {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("result has no metric {name}"))
}

/// Returns whether every end-to-end metric of every workload agreed
/// within its bound between the two sets.
pub fn repeat(flags: &[String]) -> Result<bool, String> {
    let mut sets: Vec<Vec<Json>> = Vec::new();
    for set in 1..=2 {
        let mut docs = Vec::new();
        for w in &WORKLOADS {
            eprintln!("[repeat] set {set}: {}", w.name);
            docs.push(run_child(w.name, flags)?);
        }
        sets.push(docs);
    }
    println!(
        "{:<16} {:<16} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    let mut breaches = Vec::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        for m in &END_TO_END {
            let (a, b) = (metric(&sets[0][i], m.name)?, metric(&sets[1][i], m.name)?);
            let diff = (b - a) / a;
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let breach = diff.abs() > bound;
            println!(
                "{:<16} {:<16} {:>12.4} {:>12.4} {:>8.1}% {:>6.0}%{}",
                w.name,
                m.name,
                a,
                b,
                diff * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
            if breach {
                breaches.push(format!("{} on {}", m.name, w.name));
            }
        }
    }
    if breaches.is_empty() {
        println!("repeat: the two sets agree within every bound");
    } else {
        println!(
            "repeat: propose demoting to informational (bounds are not widened): {}",
            breaches.join(", ")
        );
    }
    Ok(breaches.is_empty())
}
