//! **Ablation** — whitespace padding for lane alignment (paper §4.3.2).
//!
//! Rhythm pads every dynamic HTML fragment to the warp-wide maximum so
//! lane write pointers stay aligned and response-buffer writes coalesce.
//! This ablation compiles the response kernels *without* the padding
//! (output remains correct; pointers drift after the first dynamic
//! fragment) and measures the memory-system damage and the extra
//! reduction/padding work the mechanism costs.

use rhythm_banking::prelude::*;
use rhythm_bench::fmt::{render_table, time_s};
use rhythm_bench::measure::{Harness, SALT, USERS};
use rhythm_obs::NoopRecorder;
use rhythm_simt::gpu::Gpu;

fn response_stats(
    workload: &Workload,
    h: &Harness,
    ty: RequestType,
    cohort: usize,
) -> (f64, f64, f64) {
    let mut sessions = SessionArrayHost::new(4 * cohort as u32, SALT);
    let mut generator = RequestGenerator::new(USERS, 42 + ty.id() as u64);
    let reqs = generator.uniform(ty, cohort, &mut sessions);
    let opts = CohortOptions {
        session_capacity: 4 * cohort as u32,
        session_salt: SALT,
        ..Default::default()
    };
    let mut s = sessions.clone();
    let result = run_cohort_traced(
        workload,
        &h.store,
        &mut s,
        &reqs,
        &h.gpu,
        &opts,
        &NoopRecorder,
    )
    .expect("cohort");
    let (_, launch) = result
        .launches
        .iter()
        .find(|(n, _)| n.ends_with("_response"))
        .expect("response stage");
    let gpu: &Gpu = &h.gpu;
    (
        launch.stats.transactions_per_access(),
        gpu.sustained_time(&launch.stats),
        launch.stats.warp_instructions as f64,
    )
}

fn main() {
    let h = Harness::new();
    let padded = Workload::build_opts(true);
    let unpadded = Workload::build_opts(false);
    let cohort = 256;

    let mut rows = Vec::new();
    let mut worst_ratio: f64 = 0.0;
    for ty in [
        RequestType::Login,
        RequestType::AccountSummary,
        RequestType::BillPayStatusOutput,
        RequestType::Profile,
        RequestType::Logout,
    ] {
        eprintln!("[ablation] {ty} ...");
        let (tx_p, t_p, wi_p) = response_stats(&padded, &h, ty, cohort);
        let (tx_u, t_u, wi_u) = response_stats(&unpadded, &h, ty, cohort);
        worst_ratio = worst_ratio.max(tx_u / tx_p);
        rows.push(vec![
            ty.to_string(),
            format!("{tx_p:.2}"),
            format!("{tx_u:.2}"),
            format!("{:.2}x", tx_u / tx_p),
            time_s(t_p),
            time_s(t_u),
            format!("{:+.1}%", (wi_p / wi_u - 1.0) * 100.0),
        ]);
    }

    println!("\nablation: warp-alignment whitespace padding (response stage, cohort {cohort})\n");
    println!(
        "{}",
        render_table(
            &[
                "request",
                "tx/access padded",
                "tx/access unpadded",
                "coalescing damage",
                "time padded",
                "time unpadded",
                "instr cost of padding"
            ],
            &rows
        )
    );
    println!("padding costs a few percent of instructions (butterfly reductions + spaces)");
    println!("and buys up to {worst_ratio:.1}x fewer memory transactions per access — the paper's");
    println!("rationale for spending HTML whitespace on alignment (§4.3.2).");
}
