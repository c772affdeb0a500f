//! **§6.4 "Cohort Size sensitivity"** — throughput, memory and formation
//! latency across cohort sizes.
//!
//! The paper sweeps 256–8192 and picks 4096 as the balance between
//! throughput (more work per launch amortizes overheads) and memory /
//! formation latency. We measure device throughput at increasing sizes on
//! the SIMT engine and model formation latency with the pipeline.

use rhythm_banking::prelude::*;
use rhythm_bench::fmt::{kreqs, render_table, time_s};
use rhythm_bench::latency::{latency, paper_config};
use rhythm_bench::measure::{titan_result, titan_type_measurement, Harness};
use rhythm_obs::NoopRecorder;
use rhythm_platform::presets::TitanPlatform;

fn main() {
    let h = Harness::new();
    let ty = RequestType::AccountSummary;

    // Device-side throughput for one representative type at increasing
    // cohort sizes (larger sizes simulated directly; the trend is what
    // matters).
    println!("cohort-size sensitivity ({ty} on Titan B)\n");
    let mut rows = Vec::new();
    for cohort in [64u32, 128, 256, 512, 1024, 2048] {
        eprintln!("[cohort] measuring cohort {cohort} ...");
        let r = titan_type_measurement(&h, ty, TitanPlatform::B, cohort);
        let layout = rhythm_banking::layout::CohortLayout::new(
            cohort,
            ty.response_buffer_bytes(),
            0,
            0,
            0,
            true,
        );
        rows.push(vec![
            format!("{cohort}"),
            kreqs(r.tput),
            format!("{:.1}", layout.cohort_bytes() as f64 / 1e6),
            time_s(r.device_time_per_cohort),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["cohort", "tput K/s", "MB/cohort", "device time/cohort"],
            &rows
        )
    );
    println!("paper: larger cohorts improve throughput but cost memory; 4096 is the balance\n");

    // Formation latency at 1.5 M req/s arrival for various cohort sizes,
    // via the pipeline with Titan B stage latencies.
    eprintln!("[cohort] measuring Titan B for the pipeline model ...");
    let tr = titan_result(&h, TitanPlatform::B);
    let mut rows = Vec::new();
    for cohort in [256u32, 1024, 4096, 8192] {
        let config = paper_config(cohort, 50e-3, 32);
        let report = latency(&tr, config, 0.8, 400_000, 7, &NoopRecorder);
        rows.push(vec![
            format!("{cohort}"),
            time_s(report.latency.mean),
            time_s(report.latency.p99),
            format!("{:.2}", report.mean_fill),
            format!("{}", report.timeout_launches),
        ]);
    }
    println!("pipeline latency at 80% of Titan B load, by cohort size:\n");
    println!(
        "{}",
        render_table(
            &[
                "cohort",
                "mean latency",
                "p99",
                "mean fill",
                "timeout launches"
            ],
            &rows
        )
    );
    println!("paper: at ~1M req/s arrival rates, cohort formation times are negligible;");
    println!("       larger cohorts raise response latency");
}
