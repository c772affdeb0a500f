//! **§6.4 "Parser divergence"** — parser throughput on uniform vs mixed
//! cohorts.
//!
//! The paper measures 556 µs parser latency (7.4 M req/s) for a mixed
//! cohort of 4096 and argues the parser stays far from the bottleneck
//! even with full divergence. We run the real parser kernel both ways.

use rhythm_banking::prelude::*;
use rhythm_bench::fmt::{kreqs, render_table, time_s};
use rhythm_bench::measure::{Harness, SALT, USERS};
use rhythm_simt::WARP_SIZE;

fn main() {
    let h = Harness::new();
    let cohort = 2048usize;
    let mut ctx = h.context(4 * cohort as u32);

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (label, mixed) in [("uniform (login only)", false), ("mixed (Table 2)", true)] {
        let mut sessions = SessionArrayHost::new(4 * cohort as u32, SALT);
        let mut generator = RequestGenerator::new(USERS, 31);
        let reqs = if mixed {
            generator.mixed(cohort, &mut sessions)
        } else {
            generator.uniform(RequestType::Login, cohort, &mut sessions)
        };
        eprintln!("[parser] running {label} ...");
        let (res, parsed) = ctx.parse(&h.workload, &reqs).expect("parser");
        // Verify correctness on the way.
        for (r, (ty_id, ..)) in reqs.iter().zip(&parsed) {
            assert_eq!(*ty_id, r.ty.id(), "parser must classify correctly");
        }
        let tput = cohort as f64 / res.time_s;
        rows.push(vec![
            label.to_string(),
            time_s(res.time_s),
            kreqs(tput),
            format!("{:.2}", res.stats.simd_efficiency(WARP_SIZE)),
            format!("{:.3}", res.stats.divergence.divergence_rate()),
        ]);
        results.push((label, res, tput));
    }

    println!("\n§6.4: parser divergence (cohort of {cohort})\n");
    println!(
        "{}",
        render_table(
            &[
                "cohort mix",
                "parser latency",
                "tput K/s",
                "SIMD efficiency",
                "divergent branch rate"
            ],
            &rows
        )
    );
    let slowdown = results[0].2 / results[1].2;
    println!("mixed-cohort slowdown vs uniform: {slowdown:.2}x");
    println!("paper: mixed parser still achieves 7.4M req/s (556 µs @4096) — fast enough;");
    println!("       Rhythm also allows multiple concurrent parsers to hide parser latency");
}
