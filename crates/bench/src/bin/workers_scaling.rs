//! Worker-pool scaling sweep for the SIMT interpreter.
//!
//! Runs the same banking cohort at several `GpuConfig::workers` settings,
//! verifies that responses, session state, and merged kernel stats are
//! bit-identical to the serial (`workers = 1`) run, and reports the host
//! wall-clock speedup. The worker count is a simulation-speed knob only:
//! modelled device latencies never change.
//!
//! Note: speedup over serial requires real cores. On a single-core host
//! the sweep still validates determinism but reports ~1.0x throughout.
//!
//! Flags:
//!
//! * `--trace <out.json>` — after the sweep, re-run one cohort with the
//!   `rhythm-obs` recorder attached and write a Chrome trace-event file
//!   (loadable in Perfetto / `chrome://tracing`) with one track per SIMT
//!   worker plus the virtual-time device track; a plain-text summary with
//!   histograms goes to stdout.
//! * `--cohort <n>` — override the cohort size (default 1024); useful for
//!   quick smoke runs in CI.

use std::time::Instant;

use rhythm_banking::prelude::*;
use rhythm_bench::fmt::render_table;
use rhythm_obs::{NoopRecorder, TraceRecorder};
use rhythm_simt::gpu::{Gpu, GpuConfig};

const SALT: u32 = 0x5EED_0001;
const DEFAULT_COHORT: usize = 1024;
const REPS: usize = 4;

struct RunOutcome {
    responses: Vec<Vec<u8>>,
    sessions: Vec<u8>,
    stats_fingerprint: String,
    elapsed_s: f64,
}

fn run_at(workers: u32, workload: &Workload, store: &BankStore, cohort: usize) -> RunOutcome {
    let gpu = Gpu::new(GpuConfig::gtx_titan().with_workers(workers));
    let opts = CohortOptions {
        session_capacity: 4 * cohort as u32,
        session_salt: SALT,
        ..Default::default()
    };
    let mut sessions0 = SessionArrayHost::new(opts.session_capacity, opts.session_salt);
    let mut generator = RequestGenerator::new(4 * cohort as u32, 7);
    // Uniform cohort: run_cohort_traced drives one type-specific pipeline.
    let reqs = generator.uniform(RequestType::AccountSummary, cohort, &mut sessions0);

    let mut responses = Vec::new();
    let mut sessions = sessions0.clone();
    let mut stats_fingerprint = String::new();
    let start = Instant::now();
    for rep in 0..REPS {
        let mut s = sessions0.clone();
        let result = run_cohort_traced(workload, store, &mut s, &reqs, &gpu, &opts, &NoopRecorder)
            .expect("cohort");
        if rep == 0 {
            responses = result.responses;
            stats_fingerprint = format!("{:?}", result.launches);
            sessions = s;
        }
    }
    RunOutcome {
        responses,
        sessions: sessions.to_device_bytes(),
        stats_fingerprint,
        elapsed_s: start.elapsed().as_secs_f64() / REPS as f64,
    }
}

/// Re-run one cohort with the recorder attached and export the timeline.
fn export_trace(
    path: &str,
    workers: u32,
    workload: &Workload,
    store: &BankStore,
    cohort: usize,
    baseline: &RunOutcome,
) {
    let gpu = Gpu::new(GpuConfig::gtx_titan().with_workers(workers));
    let opts = CohortOptions {
        session_capacity: 4 * cohort as u32,
        session_salt: SALT,
        ..Default::default()
    };
    let mut sessions = SessionArrayHost::new(opts.session_capacity, opts.session_salt);
    let mut generator = RequestGenerator::new(4 * cohort as u32, 7);
    let reqs = generator.uniform(RequestType::AccountSummary, cohort, &mut sessions);

    let rec = TraceRecorder::new();
    let result = run_cohort_traced(workload, store, &mut sessions, &reqs, &gpu, &opts, &rec)
        .expect("traced cohort");
    assert_eq!(
        result.responses, baseline.responses,
        "tracing changed the responses"
    );

    let json = rec.chrome_json();
    rhythm_obs::validate_chrome_trace(&json).expect("exported trace must be valid");
    std::fs::write(path, &json).expect("write trace file");
    println!("\n{}", rec.summary());
    println!(
        "trace written to {path} ({} bytes); open it in Perfetto",
        json.len()
    );
}

fn main() {
    let mut trace_path: Option<String> = None;
    let mut cohort = DEFAULT_COHORT;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace_path = Some(args.next().expect("--trace needs a path")),
            "--cohort" => {
                cohort = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--cohort needs a positive integer")
            }
            other => panic!("unknown flag {other:?} (expected --trace <path> or --cohort <n>)"),
        }
    }

    let workload = Workload::build();
    let store = BankStore::generate(4 * cohort as u32, 1);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("[workers] host has {cores} core(s); cohort = {cohort}, {REPS} reps per point");

    let baseline = run_at(1, &workload, &store, cohort);
    let mut rows = vec![vec![
        "1".to_string(),
        format!("{:.1}", baseline.elapsed_s * 1e3),
        "1.00x".to_string(),
        "baseline".to_string(),
    ]];

    for workers in [2u32, 4, 8] {
        let run = run_at(workers, &workload, &store, cohort);
        let identical = run.responses == baseline.responses
            && run.sessions == baseline.sessions
            && run.stats_fingerprint == baseline.stats_fingerprint;
        assert!(identical, "workers={workers} diverged from serial run");
        rows.push(vec![
            format!("{workers}"),
            format!("{:.1}", run.elapsed_s * 1e3),
            format!("{:.2}x", baseline.elapsed_s / run.elapsed_s),
            "bit-identical".to_string(),
        ]);
    }

    println!("\nworker-pool scaling, banking cohort of {cohort} ({cores}-core host)\n");
    println!(
        "{}",
        render_table(
            &["workers", "host ms/cohort", "speedup", "vs serial"],
            &rows
        )
    );
    println!("\nModelled device latency is identical at every worker count;");
    println!("only host wall-clock changes. Speedup saturates at physical cores.");

    if let Some(path) = trace_path {
        let workers = cores.min(4) as u32;
        export_trace(&path, workers, &workload, &store, cohort, &baseline);
    }
}
