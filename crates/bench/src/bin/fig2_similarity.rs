//! **Figure 2** — Potential speedup of the Banking workload on data
//! parallel hardware, relative to ideal speedup.
//!
//! Methodology (paper §2.3): collect dynamic basic-block traces for
//! several independent requests of each type, merge them pairwise with a
//! Myers diff (the paper uses UNIX `diff`), and report
//! `Σ|trace| / |merged| / N` — 1.0 means perfectly identical executions.

use rhythm_banking::prelude::*;
use rhythm_bench::fmt::render_table;
use rhythm_bench::measure::{Harness, SALT, USERS};
use rhythm_trace::merge_traces;

fn main() {
    let h = Harness::new();
    // Paper: "between 2 and 6 traces per request are merged, with most
    // requests having 5 unique traces".
    let traces_per_type = 5usize;

    let mut rows = Vec::new();
    let mut min_rel: f64 = 1.0;
    let mut ctx = h.context(1024);
    for ty in RequestType::ALL {
        let mut sessions = SessionArrayHost::new(1024, SALT);
        let mut generator = RequestGenerator::new(USERS, 500 + ty.id() as u64);
        let mut traces = Vec::new();
        for _ in 0..traces_per_type {
            let req = generator.one(ty, &mut sessions);
            let r = ctx
                .run_request_scalar(&h.workload, &h.store, &mut sessions, &req)
                .expect("scalar trace run");
            traces.push(r.trace);
        }
        let (_, rep) = merge_traces(&traces, 200_000);
        let rel = rep.relative_to_ideal();
        min_rel = min_rel.min(rel);
        rows.push(vec![
            ty.to_string(),
            format!("{}", rep.traces),
            format!("{}", rep.total_blocks),
            format!("{}", rep.merged_blocks),
            format!("{:.2}", rep.speedup()),
            format!("{:.3}", rel),
            if rep.exact { "yes" } else { "no" }.into(),
        ]);
    }

    println!("Figure 2: request-similarity speedup relative to ideal");
    println!("(5 randomized traces per type, Myers-diff SCS merge)\n");
    println!(
        "{}",
        render_table(
            &[
                "request",
                "traces",
                "total blocks",
                "merged blocks",
                "speedup",
                "rel. to ideal",
                "exact"
            ],
            &rows
        )
    );
    println!("paper: \"nearly linear speedup (i.e., nearly identical executions) for each request type\"");
    println!("ours:  minimum relative-to-ideal across types = {min_rel:.3}");
}
