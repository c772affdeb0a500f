//! The pipeline golden file: freezes what [`Pipeline::run`] reports and
//! records for a fixed set of [`TableService`] scenarios — the report's
//! `Debug`, the Chrome trace and the recorder summary — byte for byte.
//!
//! The scenarios cover full and timeout launches, dispatch stalls with a
//! FIFO backlog drain, a queued device (one and two slots), a flush that
//! finds the parser busy, and a context released and reopened at the same
//! virtual time.

use rhythm_core::pipeline::{uniform_arrivals, Pipeline, PipelineConfig};
use rhythm_core::service::TableService;
use rhythm_obs::TraceRecorder;

fn config(cohort: u32, read_batch: u32, pool: u32, slots: u32) -> PipelineConfig {
    PipelineConfig {
        cohort_size: cohort,
        read_batch,
        formation_timeout_s: 1e-3,
        reader_timeout_s: 1e-3,
        pool_contexts: pool,
        device_slots: slots,
    }
}

/// `(name, service, config, arrivals)`.
type Scenario = (&'static str, TableService, PipelineConfig, Vec<(f64, u32)>);

fn scenarios() -> Vec<Scenario> {
    // A burst that fills cohorts, then a trickle that only times out.
    let mut mixed = uniform_arrivals(64, 5e6, &[0, 1, 2, 3]);
    mixed.extend(
        uniform_arrivals(5, 1e3, &[0])
            .iter()
            .map(|&(t, ty)| (t + 1e-3, ty)),
    );

    // One parse batch whose later types all stall behind the only context.
    let fifo: Vec<(f64, u32)> = [0, 0, 0, 0, 1, 1, 2, 2, 1, 1, 2, 2]
        .iter()
        .enumerate()
        .map(|(i, &ty)| (i as f64 * 1e-8, ty))
        .collect();

    // Parsing outlasts the reader timeout, so flushes find it busy.
    let mut slow_parse = TableService::uniform(1, 1);
    slow_parse.parse_per_req = 5e-3;

    // Zero latency everywhere: a context opens, fills, retires and
    // reopens at t = 0 with its first timer still queued.
    let mut instant = TableService::uniform(1, 1);
    instant.parse_per_req = 0.0;
    instant.stage_per_req = 0.0;
    instant.backend_fixed = 0.0;
    instant.response_fixed = 0.0;
    instant.launch_overhead = 0.0;

    let burst = uniform_arrivals(48, 5e6, &[0, 1, 2, 3]);
    vec![
        (
            "mixed",
            TableService::uniform(4, 2),
            config(8, 8, 4, 32),
            mixed,
        ),
        (
            "stall",
            TableService::uniform(4, 2),
            config(8, 8, 1, 32),
            uniform_arrivals(24, 5e6, &[0, 1, 2, 3]),
        ),
        (
            "fifo_drain",
            TableService::uniform(3, 1),
            config(4, 12, 1, 32),
            fifo,
        ),
        (
            "one_slot",
            TableService::uniform(4, 2),
            config(8, 8, 4, 1),
            burst.clone(),
        ),
        (
            "two_slots",
            TableService::uniform(4, 2),
            config(8, 8, 4, 2),
            burst,
        ),
        (
            "busy_parser",
            slow_parse,
            config(8, 8, 4, 32),
            uniform_arrivals(10, 1e3, &[0]),
        ),
        (
            "reopen",
            instant,
            config(2, 1, 1, 32),
            vec![(0.0, 0), (0.0, 0), (0.0, 0)],
        ),
    ]
}

fn render() -> String {
    let mut out = String::new();
    for (name, service, config, arrivals) in scenarios() {
        let rec = TraceRecorder::new();
        let report = Pipeline::new(service, config).run(&arrivals, &rec);
        out += &format!(
            "== {name}\n{report:#?}\n{}\n{}\n",
            rec.chrome_json(),
            rec.summary()
        );
    }
    out
}

#[test]
fn pipeline_matches_golden_file() {
    let text = render();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/pipeline.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &text).expect("write golden");
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file present");
    assert_eq!(
        text, golden,
        "the pipeline model drifted from tests/golden/pipeline.txt \
         (run with UPDATE_GOLDEN=1 to regenerate intentionally)"
    );
}
