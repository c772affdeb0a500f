//! **Figure 10** — Throughput–efficiency for individual request types on
//! Titan B (dynamic power).
//!
//! The paper's point: types whose Rhythm buffer is close to the required
//! response size (low padding overhead) perform well — the
//! power-of-two rounding makes the response transpose exponentially more
//! expensive for types just past a boundary. We reproduce the per-type
//! scatter and the buffer-overhead correlation.
//!
//! Flags:
//!
//! * `--trace <out.json>` — feed the per-type measurements into the
//!   `rhythm-core` pipeline with the `rhythm-obs` recorder attached and
//!   write a Chrome trace-event timeline (stage spans, cohort FSM
//!   transitions, latency histograms) loadable in Perfetto.

use rhythm_banking::prelude::RequestType;
use rhythm_bench::fmt::{ratio, render_table};
use rhythm_bench::latency::pipeline_report;
use rhythm_bench::measure::{
    scalar_measurements, titan_type_measurement, Harness, TitanResult, MEASURE_COHORT,
};
use rhythm_obs::TraceRecorder;
use rhythm_platform::presets::{CpuPreset, TitanPlatform, TitanPreset};

/// Run the mixed-traffic pipeline over the measured latencies with the
/// recorder attached and export the Chrome trace.
fn export_trace(path: &str, per_type: Vec<rhythm_bench::measure::TitanTypeResult>) {
    use std::collections::HashMap;
    let map: HashMap<RequestType, f64> = per_type.iter().map(|r| (r.ty, r.tput)).collect();
    let result = TitanResult {
        variant: TitanPlatform::B,
        tput: rhythm_banking::types::weighted_harmonic_mean(|ty| map[&ty]),
        per_type,
    };
    eprintln!("[fig10] tracing pipeline at 70% load ...");
    let rec = TraceRecorder::new();
    let report = pipeline_report(&result, 0.7, 60_000, &rec);
    let json = rec.chrome_json();
    rhythm_obs::validate_chrome_trace(&json).expect("exported trace must be valid");
    std::fs::write(path, &json).expect("write trace file");
    println!("\n{}", rec.summary());
    println!(
        "trace written to {path} ({} bytes, {} requests completed); open it in Perfetto",
        json.len(),
        report.completed
    );
}

fn main() {
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace_path = Some(args.next().expect("--trace needs a path")),
            other => panic!("unknown flag {other:?} (expected --trace <path>)"),
        }
    }

    let h = Harness::new();
    eprintln!("[fig10] measuring CPU baselines ...");
    let ms = scalar_measurements(&h, 10);

    // Per-type CPU baselines: i7 throughput and A9 dynamic efficiency for
    // the same type.
    let i7 = CpuPreset::i7_8w();
    let a9 = CpuPreset::a9_2w();
    let titan_b = TitanPreset::of(TitanPlatform::B);

    // IR-to-x86 instruction unit conversion (see measure::cpu_platform_results).
    let scale = rhythm_platform::presets::PAPER_AVG_INSTRUCTIONS
        / rhythm_bench::measure::workload_avg_instructions(&ms);

    let mut rows = Vec::new();
    let mut per_type = Vec::new();
    let mut low_overhead_better = 0.0;
    let mut low_overhead_count: f64 = 0.0;
    let mut high_overhead_better = 0.0;
    let mut high_overhead_count: f64 = 0.0;
    for ty in RequestType::ALL {
        eprintln!("[fig10] {ty} ...");
        let r = titan_type_measurement(&h, ty, TitanPlatform::B, MEASURE_COHORT);
        let m = ms.iter().find(|m| m.ty == ty).expect("measured");
        let i7_tput = i7.throughput(m.instructions * scale);
        let a9_eff = a9.throughput(m.instructions * scale) / a9.dynamic_w();
        let b_eff = r.tput / titan_b.dynamic_w();
        let tput_norm = r.tput / i7_tput;
        let eff_norm = b_eff / a9_eff;

        // Padding overhead: buffer bytes vs actual (padded) body bytes.
        let overhead = ty.response_buffer_bytes() as f64 / m.body_bytes - 1.0;
        if overhead < 0.5 {
            low_overhead_better += eff_norm;
            low_overhead_count += 1.0;
        } else {
            high_overhead_better += eff_norm;
            high_overhead_count += 1.0;
        }
        rows.push(vec![
            ty.to_string(),
            format!("{}", ty.response_buffer_bytes() / 1024),
            format!("{:.0}%", overhead * 100.0),
            ratio(tput_norm),
            ratio(eff_norm),
        ]);
        per_type.push(r);
    }

    println!("\nFigure 10: per-type throughput-efficiency on Titan B (dynamic power)\n");
    println!(
        "{}",
        render_table(
            &[
                "request",
                "buf KB",
                "buffer overhead",
                "tput vs i7-8w",
                "dyn eff vs A9-2w"
            ],
            &rows
        )
    );
    println!(
        "mean efficiency (norm) — low-overhead types: {:.2}, high-overhead types: {:.2}",
        low_overhead_better / low_overhead_count.max(1.0),
        high_overhead_better / high_overhead_count.max(1.0),
    );
    println!(
        "paper: buffer sizes close to required sizes perform well (3.5x-5x i7, 105-120% of A9)"
    );

    if let Some(path) = trace_path {
        export_trace(&path, per_type);
    }
}
