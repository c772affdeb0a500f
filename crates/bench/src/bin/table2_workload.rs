//! **Table 2** — SPECWeb Banking workload characteristics.
//!
//! Per request type: measured dynamic instructions per request (the CPU
//! model, one lane at a time on the reference engine; random requests),
//! measured response body size, the Rhythm
//! response-buffer size, the request mix, and backend accesses — next to
//! the paper's reported columns.

use rhythm_banking::types::TABLE2;
use rhythm_bench::fmt::render_table;
use rhythm_bench::measure::{scalar_measurements, workload_avg_instructions, Harness};

fn main() {
    let h = Harness::new();
    let ms = scalar_measurements(&h, 20);

    let rows: Vec<Vec<String>> = ms
        .iter()
        .map(|m| {
            let info = m.ty.info();
            vec![
                info.file_name.trim_end_matches(".php").to_string(),
                format!("{:.0}", m.instructions),
                format!("{}", info.paper_x86_instructions),
                format!("{:.1}", m.body_bytes / 1024.0),
                format!("{:.0}", info.paper_specweb_kb),
                format!("{}", m.ty.response_buffer_bytes() / 1024),
                format!("{}", info.paper_rhythm_kb),
                format!("{:.2}", info.mix_percent),
                format!("{}", info.backend_requests),
            ]
        })
        .collect();

    println!("Table 2: SPECWeb Banking workload characteristics");
    println!("(ours = IR instructions on the scalar executor; paper = x86 instructions)\n");
    println!(
        "{}",
        render_table(
            &[
                "request",
                "instr (ours)",
                "instr (paper)",
                "body KB (ours)",
                "KB (paper)",
                "buf KB (ours)",
                "buf KB (paper)",
                "mix %",
                "backend"
            ],
            &rows
        )
    );

    let avg = workload_avg_instructions(&ms);
    let avg_paper: f64 = TABLE2
        .iter()
        .map(|i| i.paper_x86_instructions as f64 * i.mix_percent / 100.0)
        .sum();
    println!("weighted average instructions/request: ours {avg:.0}, paper {avg_paper:.0}");

    // Shape check: Spearman-ish rank agreement between our counts and the
    // paper's across types.
    let mut ours: Vec<(usize, f64)> = ms
        .iter()
        .enumerate()
        .map(|(i, m)| (i, m.instructions))
        .collect();
    let mut paper: Vec<(usize, f64)> = TABLE2
        .iter()
        .enumerate()
        .map(|(i, t)| (i, t.paper_x86_instructions as f64))
        .collect();
    ours.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    paper.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let rank = |v: &[(usize, f64)]| {
        let mut r = vec![0usize; v.len()];
        for (pos, (idx, _)) in v.iter().enumerate() {
            r[*idx] = pos;
        }
        r
    };
    let (ro, rp) = (rank(&ours), rank(&paper));
    let n = ro.len() as f64;
    let d2: f64 = ro
        .iter()
        .zip(&rp)
        .map(|(a, b)| (*a as f64 - *b as f64).powi(2))
        .sum();
    let rho = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
    println!("rank correlation (ours vs paper instruction counts): rho = {rho:.2}");
}
