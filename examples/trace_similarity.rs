//! Request-similarity study in miniature (the paper's Figure 2
//! methodology): trace a few requests of one type on the CPU model (one
//! lane at a time on the reference engine), merge the basic-block traces
//! with a Myers diff, and see how
//! close lockstep execution gets to ideal speedup.
//!
//! ```sh
//! cargo run --release --example trace_similarity
//! ```

use rhythm_banking::prelude::*;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_trace::merge_traces;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::build();
    let store = BankStore::generate(64, 11);
    let opts = CohortOptions {
        session_capacity: 512,
        session_salt: 0xBEEF,
        ..Default::default()
    };
    let empty = SessionArrayHost::new(opts.session_capacity, opts.session_salt);
    // The CPU model runs on the context's resident store image; the
    // device itself is not launched on.
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let mut ctx = DeviceContext::new(&store, &empty, &gpu, &opts);

    for ty in [
        RequestType::Login,
        RequestType::AccountSummary,
        RequestType::BillPayStatusOutput,
    ] {
        let mut sessions = empty.clone();
        let mut generator = RequestGenerator::new(64, ty.id() as u64);

        let mut traces = Vec::new();
        for _ in 0..4 {
            let req = generator.one(ty, &mut sessions);
            let run = ctx.run_request_scalar(&workload, &store, &mut sessions, &req)?;
            traces.push(run.trace);
        }

        let (merged, report) = merge_traces(&traces, 100_000);
        println!("{ty}:");
        println!(
            "  {} traces of {:?} blocks",
            report.traces,
            traces.iter().map(Vec::len).collect::<Vec<_>>()
        );
        println!(
            "  merged {} blocks -> speedup {:.2} of ideal {:.0} ({:.1}% of ideal)",
            merged.len(),
            report.speedup(),
            report.ideal(),
            report.relative_to_ideal() * 100.0
        );
        println!(
            "  interpretation: {:.1}% of the merged execution is shared lockstep work\n",
            report.relative_to_ideal() * 100.0
        );
    }
    println!("the paper observes nearly linear speedup for every type — same-type");
    println!("requests share almost all control flow, which is what makes cohort");
    println!("scheduling on SIMT hardware viable.");
    Ok(())
}
