//! The repo's benchmark: boots a real one-shard `ShardedServer` on
//! loopback in-process, drives it open-loop from one generator thread,
//! checks every response against the native handler, and prints every
//! metric by name with its unit and clock. See `README.md`.
//!
//! ```text
//! rhythm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! rhythm-benchmark repeat [--seed <n>] [--seconds <s>] [--quick]
//! rhythm-benchmark spec
//! ```

mod gen;
mod layers;
mod loadgen;
mod repeat;
mod report;
mod run;
mod server;
mod spec;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rhythm_banking::prelude::{ScalarHandler, SimtHandler};

use crate::run::{RunArgs, RunResult};
use crate::spec::{Path, WorkloadSpec, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u32 = 24;
/// `--seconds` of a `--quick` run unless given.
const QUICK_SECONDS: f64 = 6.0;

/// Where results and traces go (git-ignored).
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => cli.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn run_workload(args: RunArgs) -> Result<RunResult, String> {
    match args.spec.path {
        Path::Scalar => run::run::<ScalarHandler>(args),
        Path::Simt => run::run::<SimtHandler>(args),
    }
}

/// One run of one workload: report, result files, contract line.
fn run_one(cli: &Cli, spec: &'static WorkloadSpec, started: Instant) -> Result<bool, String> {
    // Counted before pinning: a pinned thread sees one CPU.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // The generator gets a CPU of its own; every server thread is spawned
    // from here on and so inherits the mask until the reactor moves
    // itself (see `Timed`). With one CPU there is nothing to separate.
    let pinned = nproc > 1 && server::pin_current_thread(server::GENERATOR_CPU);
    let args = RunArgs {
        spec,
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.quick {
            QUICK_SECONDS
        } else {
            f64::from(RUN_SECONDS)
        }),
        trace: cli.trace,
        quick: cli.quick,
        started,
        pinned,
    };
    let machine = report::machine_block(&args, nproc, pinned);
    println!("machine {machine}");
    let result = run_workload(args)?;
    report::print_table(&args, &result);

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: String, text: &str| -> Result<(), String> {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok(())
    };
    let kind = if args.trace { "layers" } else { "end_to_end" };
    write(
        format!("{}.{kind}.json", spec.name),
        &report::document(&args, &result, &machine)?,
    )?;
    if let Some(trace) = &result.trace_json {
        let check = rhythm_obs::validate_chrome_trace(trace)
            .map_err(|e| format!("the harness wrote an invalid Chrome trace: {e}"))?;
        println!("trace: {} events on {} tracks", check.events, check.tracks);
        write(format!("{}.trace.json", spec.name), trace)?;
    }
    println!("{}", report::contract_line(&args, &result)?);
    Ok(result.failed == 0)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json(RUN_SECONDS));
            Ok(true)
        }
        Some("repeat") => parse_cli(&argv[1..]).and_then(|cli| repeat::repeat(&cli_args(&cli))),
        _ => parse_cli(&argv).and_then(|cli| {
            let name = cli.workload.as_deref().ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("--workload <name> is required: one of {}", names.join(", "))
            })?;
            let spec = spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
            run_one(&cli, spec, started)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A correctness miss: the result line was printed, with
        // `"correct": false`.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("rhythm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// The flags a `repeat` passes on to each run it spawns.
fn cli_args(cli: &Cli) -> Vec<String> {
    let mut v = vec!["--seed".to_string(), cli.seed.to_string()];
    if let Some(s) = cli.seconds {
        v.extend(["--seconds".to_string(), s.to_string()]);
    }
    if cli.quick {
        v.push("--quick".to_string());
    }
    v
}
