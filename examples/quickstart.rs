//! Quickstart: batch a cohort of banking requests and execute it on the
//! simulated SIMT device.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rhythm_banking::prelude::*;
use rhythm_obs::NoopRecorder;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_simt::WARP_SIZE;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Compile the workload: HTTP parser, per-type process stages, and
    //    the device backend — all as kernels for the SIMT engine.
    let workload = Workload::build();
    println!(
        "compiled {} kernels ({} KiB of HTML templates in constant memory)",
        2 + workload.stages.iter().map(Vec::len).sum::<usize>(),
        workload.pool.len() / 1024
    );

    // 2. A bank with 64 customers and a device session array.
    let store = BankStore::generate(64, 42);
    let mut sessions = SessionArrayHost::new(4096, 0x5EED_0001);

    // 3. Generate a cohort of 64 account-summary requests (raw HTTP).
    let mut generator = RequestGenerator::new(64, 7);
    let cohort = generator.uniform(RequestType::AccountSummary, 64, &mut sessions);
    println!(
        "first request on the wire:\n---\n{}---",
        String::from_utf8_lossy(&cohort[0].raw)
    );

    // 4. Launch: parse → process → backend → padded HTML responses.
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let result = run_cohort_traced(
        &workload,
        &store,
        &mut sessions,
        &cohort,
        &gpu,
        &CohortOptions::default(),
        &NoopRecorder,
    )?;

    // 5. Inspect.
    let first = String::from_utf8_lossy(&result.responses[0]);
    println!(
        "\nfirst response ({} bytes):\n---\n{}...\n---",
        result.responses[0].len(),
        &first[..first.len().min(400)]
    );
    println!("\nper-kernel breakdown:");
    for (name, launch) in &result.launches {
        println!(
            "  {:<28} {:>9.1} µs   simd-eff {:>5.2}   tx/access {:>5.2}",
            name,
            launch.time_s * 1e6,
            launch.stats.simd_efficiency(WARP_SIZE),
            launch.stats.transactions_per_access(),
        );
    }
    println!(
        "\ncohort of {} done in {:.1} µs of device time",
        cohort.len(),
        result.kernel_time_s() * 1e6
    );
    Ok(())
}
