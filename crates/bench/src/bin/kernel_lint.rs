//! Lint every banking kernel with the `rhythm-verify` static analyzer.
//!
//! Each kernel is checked against the same launch environment the cohort
//! runner uses (the [`CohortLayout`] parameter vector and memory extents
//! for its request type), so the diagnostics describe real launches, not
//! a synthetic context. Exits nonzero if any kernel has an
//! `Error`-severity finding — this is the CI gate.
//!
//! The effect-summary engine ([`rhythm_verify::effects`]) runs alongside:
//! each kernel's global read/write/atomic footprint — anchored to the
//! layout's declared regions — is joined across environments into the
//! `effects` column (`r`/`w`/`a` exact, uppercase claimed, `T` ⊤, `-`
//! absent), its lints (`effects-top-footprint` warning,
//! `effects-out-of-extent` error) merge into the diagnostics, and
//! `--effects-json` dumps the full per-kernel summaries plus whether each
//! kernel writes the session array (CI checks that exactly the Login and
//! Logout kernels do).
//!
//! Usage: `kernel_lint [--json] [--effects-json] [--cohort N] [--verbose]`

use std::collections::BTreeMap;
use std::process::ExitCode;

use rhythm_banking::backend::BankStore;
use rhythm_banking::kernels::Workload;
use rhythm_banking::layout::CohortLayout;
use rhythm_banking::types::RequestType;
use rhythm_bench::fmt::json_str;
use rhythm_simt::exec::AccessKind;
use rhythm_simt::ir::MemSpace;
use rhythm_verify::effects::{effect_lints, infer_effects, KernelEffects, SpaceFootprint};
use rhythm_verify::{verify_program, Diagnostic, LaunchSpec, Report, Severity};

const DEFAULT_COHORT: u32 = 1024;
const SESSION_CAPACITY: u32 = 4096;
const SESSION_SALT: u32 = 0x5EED_0001;
const NUM_USERS: u32 = 2048;

fn main() -> ExitCode {
    let mut json = false;
    let mut effects_json = false;
    let mut verbose = false;
    let mut cohort = DEFAULT_COHORT;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--effects-json" => effects_json = true,
            "--verbose" => verbose = true,
            "--cohort" => {
                cohort = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--cohort needs a positive integer");
            }
            "--help" | "-h" => {
                eprintln!("usage: kernel_lint [--json] [--effects-json] [--cohort N] [--verbose]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other}; see --help");
                return ExitCode::FAILURE;
            }
        }
    }

    let workload = Workload::build();
    let store_bytes = BankStore::generate(NUM_USERS, 1).device_bytes();

    // Lint each kernel against every launch environment it can actually
    // see (the layout differs per request type via the response slot
    // size), merging duplicate findings so shared kernels such as the
    // parser get one row. Effect summaries join across environments the
    // same way; the session-writer verdict is an OR (a kernel that writes
    // the session array in any environment is a writer).
    let mut merged: BTreeMap<String, Report> = BTreeMap::new();
    let mut effects: BTreeMap<String, KernelEffects> = BTreeMap::new();
    let mut session_writers: BTreeMap<String, bool> = BTreeMap::new();
    for ty in RequestType::ALL {
        let layout = CohortLayout::new(
            cohort,
            ty.response_buffer_bytes(),
            SESSION_CAPACITY,
            SESSION_SALT,
            store_bytes,
            true,
        );
        let cfg = layout.launch_config();
        let spec = LaunchSpec {
            lanes: cfg.lanes,
            params: Some(cfg.params),
            global_bytes: Some(layout.total_bytes as u64),
            shared_bytes: Some(cfg.shared_bytes as u64),
            local_bytes: Some(cfg.local_bytes as u64),
            const_bytes: Some(workload.pool.len() as u64),
        };
        let regions = layout.regions();
        let (sess_lo, sess_hi) = layout.session_span();
        let programs = [&workload.parser, &workload.backend, &workload.image]
            .into_iter()
            .chain(workload.stages_of(ty).iter());
        for program in programs {
            let mut report = verify_program(program, &spec);
            report
                .diagnostics
                .extend(effect_lints(program, &spec, &regions));
            let fx = infer_effects(program, &spec, &regions);
            let writes_sessions = fx.mutates(MemSpace::Global, sess_lo, sess_hi);
            effects
                .entry(report.program.clone())
                .and_modify(|e| e.join(&fx))
                .or_insert_with(|| fx.clone());
            session_writers
                .entry(report.program.clone())
                .and_modify(|w| *w |= writes_sessions)
                .or_insert(writes_sessions);
            let entry = merged
                .entry(report.program.clone())
                .or_insert_with(|| Report {
                    program: report.program.clone(),
                    diagnostics: Vec::new(),
                });
            for d in report.diagnostics {
                if !entry.diagnostics.contains(&d) {
                    entry.diagnostics.push(d);
                }
            }
        }
    }

    let total_errors: usize = merged.values().map(|r| r.count(Severity::Error)).sum();
    if effects_json {
        print_effects_json(cohort, &effects, &session_writers);
    } else if json {
        print_json(cohort, &merged, &effects, total_errors);
    } else {
        print_table(cohort, &merged, &effects, total_errors, verbose);
    }
    if total_errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Compact global-footprint code: one character per access kind
/// (read/write/atomic) — `-` no accesses, lowercase all-exact regions,
/// uppercase some claimed (sanitizer-discharged) region, `T` ⊤.
fn effects_code(fx: &KernelEffects) -> String {
    let g = fx.space(MemSpace::Global);
    [AccessKind::Read, AccessKind::Write, AccessKind::Atomic]
        .into_iter()
        .map(|kind| {
            let fp = g.of(kind);
            let lower = match kind {
                AccessKind::Read => 'r',
                AccessKind::Write => 'w',
                AccessKind::Atomic => 'a',
            };
            if fp.is_top() {
                'T'
            } else if fp.is_empty() {
                '-'
            } else if fp.has_claimed() {
                lower.to_ascii_uppercase()
            } else {
                lower
            }
        })
        .collect()
}

fn print_table(
    cohort: u32,
    merged: &BTreeMap<String, Report>,
    effects: &BTreeMap<String, KernelEffects>,
    total_errors: usize,
    verbose: bool,
) {
    println!("kernel lint (cohort={cohort}, {} kernels)", merged.len());
    println!(
        "{:<24} {:>6} {:>8} {:>6} {:>7}",
        "kernel", "errors", "warnings", "infos", "effects"
    );
    for report in merged.values() {
        let code = effects
            .get(&report.program)
            .map(effects_code)
            .unwrap_or_else(|| "???".to_string());
        println!(
            "{:<24} {:>6} {:>8} {:>6} {:>7}",
            report.program,
            report.count(Severity::Error),
            report.count(Severity::Warning),
            report.count(Severity::Info),
            code,
        );
        for d in &report.diagnostics {
            if d.severity == Severity::Info && !verbose {
                continue;
            }
            println!("    {d}");
        }
    }
    println!(
        "result: {total_errors} error(s) across {} kernel(s)",
        merged.len()
    );
}

fn print_json(
    cohort: u32,
    merged: &BTreeMap<String, Report>,
    effects: &BTreeMap<String, KernelEffects>,
    total_errors: usize,
) {
    let mut programs = Vec::new();
    for report in merged.values() {
        let diags: Vec<String> = report.diagnostics.iter().map(diag_json).collect();
        let code = effects
            .get(&report.program)
            .map(effects_code)
            .unwrap_or_else(|| "???".to_string());
        programs.push(format!(
            "{{\"name\":{},\"errors\":{},\"warnings\":{},\"infos\":{},\
             \"effects\":{},\"diagnostics\":[{}]}}",
            json_str(&report.program),
            report.count(Severity::Error),
            report.count(Severity::Warning),
            report.count(Severity::Info),
            json_str(&code),
            diags.join(",")
        ));
    }
    println!(
        "{{\"cohort\":{cohort},\"total_errors\":{total_errors},\"programs\":[{}]}}",
        programs.join(",")
    );
}

/// Dump the joined effect summary of every kernel: the global footprint
/// per access kind as `"top"` or a region list, whether any space is ⊤,
/// and whether the kernel may write the session array.
fn print_effects_json(
    cohort: u32,
    effects: &BTreeMap<String, KernelEffects>,
    session_writers: &BTreeMap<String, bool>,
) {
    let mut programs = Vec::new();
    for (name, fx) in effects {
        let g = fx.space(MemSpace::Global);
        let kind_json = |fp: &SpaceFootprint| -> String {
            match fp.regions() {
                None => "\"top\"".to_string(),
                Some(regions) => {
                    let rs: Vec<String> = regions
                        .iter()
                        .map(|r| {
                            format!(
                                "{{\"lo\":{},\"hi\":{},\"lane_stride\":{},\"gid_stride\":{},\
                                 \"width\":{},\"exact\":{}}}",
                                r.lo, r.hi, r.lane_stride, r.gid_stride, r.width, r.exact
                            )
                        })
                        .collect();
                    format!("[{}]", rs.join(","))
                }
            }
        };
        programs.push(format!(
            "{{\"name\":{},\"top\":{},\"session_writer\":{},\"effects\":{},\
             \"global\":{{\"reads\":{},\"writes\":{},\"atomics\":{}}}}}",
            json_str(name),
            fx.is_top_anywhere(),
            session_writers.get(name).copied().unwrap_or(false),
            json_str(&effects_code(fx)),
            kind_json(&g.reads),
            kind_json(&g.writes),
            kind_json(&g.atomics),
        ));
    }
    println!(
        "{{\"cohort\":{cohort},\"kernels\":{},\"programs\":[{}]}}",
        programs.len(),
        programs.join(",")
    );
}

fn diag_json(d: &Diagnostic) -> String {
    format!(
        "{{\"severity\":{},\"rule\":{},\"block\":{},\"op_index\":{},\"message\":{}}}",
        json_str(&d.severity.to_string()),
        json_str(d.rule),
        d.block.map_or("null".to_string(), |b| b.to_string()),
        d.op_index.map_or("null".to_string(), |i| i.to_string()),
        json_str(&d.message),
    )
}
