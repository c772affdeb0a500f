//! **§6.3** — System resource requirements: network bandwidth per Titan
//! platform and device memory capacity.

use rhythm_banking::prelude::RequestType;
use rhythm_banking::session_array::{SessionArrayHost, NODE_BYTES};
use rhythm_bench::fmt::render_table;
use rhythm_bench::measure::{titan_result, Harness, PAPER_COHORT};
use rhythm_platform::network::{compressed_bits_per_s, required_bits_per_s, NetworkLink};
use rhythm_platform::presets::TitanPlatform;

fn main() {
    let h = Harness::new();

    // Average response buffer, weighted by the mix (paper: 26.4 KB).
    let avg_resp: f64 = RequestType::ALL
        .iter()
        .map(|t| t.response_buffer_bytes() as f64 * t.info().mix_percent / 100.0)
        .sum();
    println!("§6.3: system resource requirements\n");
    println!("-- network bandwidth --");
    let mut rows = Vec::new();
    for variant in [TitanPlatform::A, TitanPlatform::B, TitanPlatform::C] {
        eprintln!("[resources] measuring Titan {variant:?} ...");
        let tr = titan_result(&h, variant);
        let raw = required_bits_per_s(tr.tput, 512.0, avg_resp);
        let compressed = compressed_bits_per_s(tr.tput, 512.0, avg_resp, 0.8);
        let link = [
            NetworkLink::gbe10(),
            NetworkLink::gbe100(),
            NetworkLink::gbe400(),
        ]
        .into_iter()
        .find(|l| l.bits_per_s >= compressed)
        .map(|l| l.name)
        .unwrap_or_else(|| "beyond 400GbE".into());
        rows.push(vec![
            format!("Titan {variant:?}"),
            format!("{:.0}K", tr.tput / 1e3),
            format!("{:.0}", raw / 1e9),
            format!("{:.0}", compressed / 1e9),
            link,
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "platform",
                "tput req/s",
                "raw Gb/s",
                "80%-compressed Gb/s",
                "smallest link"
            ],
            &rows
        )
    );
    println!("paper: Titan A 67 Gb/s, B 258 Gb/s, C 517 Gb/s raw; C fits 100GbE compressed\n");

    println!("-- device memory capacity --");
    let active_sessions: u64 = 16 * 1024 * 1024;
    let alloc_sessions: u64 = 64 * 1024 * 1024;
    let ours_active = active_sessions * NODE_BYTES as u64;
    let ours_alloc = alloc_sessions * NODE_BYTES as u64;
    println!(
        "session array: {} B/node (ours) — 16M active = {:.2} GB, 64M allocated (25% collision target) = {:.1} GB",
        NODE_BYTES,
        ours_active as f64 / 1e9,
        ours_alloc as f64 / 1e9
    );
    println!("paper: 40 B/session — 640 MB active, 2.5 GB allocated");

    // Per-cohort buffer memory at the paper's cohort size.
    let mut rows = Vec::new();
    let mut worst = 0u64;
    for ty in RequestType::ALL {
        let layout = rhythm_banking::layout::CohortLayout::new(
            PAPER_COHORT,
            ty.response_buffer_bytes(),
            0,
            0,
            0,
            true,
        );
        // Exclude sessions/store: those are shared, not per cohort.
        let per_cohort = layout.cohort_bytes() as u64;
        worst = worst.max(per_cohort);
        rows.push(vec![
            ty.to_string(),
            format!("{}", ty.response_buffer_bytes() / 1024),
            format!("{:.1}", per_cohort as f64 / 1e6),
        ]);
    }
    println!(
        "\n{}",
        render_table(&["request", "resp buf KB", "MB per 4096-cohort"], &rows)
    );
    let budget: f64 = 6e9 - ours_alloc as f64; // GTX Titan memory minus sessions
    println!(
        "worst-case cohort footprint {:.1} MB -> {} cohorts of 4096 fit in the Titan's remaining {:.1} GB",
        worst as f64 / 1e6,
        (budget / worst as f64) as u64,
        budget / 1e9
    );
    println!("paper: limited to 8 inflight cohorts of 4096 on the 6 GB GTX Titan");

    let _ = SessionArrayHost::device_bytes(1); // keep the type exercised
}
