//! The `/metrics` golden file: freezes the whole document
//! [`Telemetry::render_metrics`] renders over a fixed two-shard state —
//! published counters, per-label latencies, the cohort-fill histogram,
//! and device counters, gauges and a histogram — byte for byte. The
//! uptime sample is the one live value and is masked.

use rhythm_net::{LiveSnapshot, NetStats, Telemetry};

/// Shard `i`'s published counters: every field distinct and nonzero.
fn stats(i: u64) -> NetStats {
    let k = i * 1000;
    NetStats {
        accepted: k + 1,
        rejected_over_cap: k + 2,
        peak_connections: (k + 3) as usize,
        requests: k + 400,
        responses: k + 300,
        responses_dropped: k + 5,
        cohorts: k + 6,
        full_launches: k + 4,
        timeout_launches: 2,
        fill_sum: 3.375 + i as f64,
        launched_requests: k + 9,
        shed_503: k + 10,
        too_large_413: k + 11,
        bad_request_400: k + 12,
        unclassified: k + 13,
        fsm_rejections: k + 14,
        reaped_idle: k + 15,
        reaped_stalled: k + 16,
        idle_polls: k + 17,
        reads_paused: k + 18,
        peak_queued_bytes: k + 19,
        bytes_in: k + 20,
        bytes_out: k + 21,
        admin_requests: k + 22,
    }
}

/// The name of each label key the golden document uses.
fn name(key: u32) -> String {
    match key {
        1 => "login.php",
        3 => "transfer.php",
        5 => "logout.php",
        40 => "wide.php",
        41 => "wider.php",
        _ => unreachable!("key {key} has no name"),
    }
    .to_string()
}

fn golden_telemetry() -> std::sync::Arc<Telemetry> {
    let t = Telemetry::new(2);
    // Latencies: shared and per-shard keys, an underflow, a NaN, a value
    // past the top bucket, and keys 40 and 41 folded into the last slot.
    let latencies: [&[(u32, f64)]; 2] = [
        &[
            (1, 2e-3),
            (1, 2.5e-3),
            (3, 1.25e-4),
            (3, 0.0),
            (3, f64::NAN),
        ],
        &[(1, 4e-3), (3, 7e-2), (5, 1e9), (40, 3e-5), (41, 6e-5)],
    ];
    // Launch fills of each shard's cohorts.
    let fills: [&[f64]; 2] = [&[0.5, 1.0, 0.09375], &[0.03125, 0.0625]];
    for i in 0..2 {
        let live = LiveSnapshot {
            stats: stats(i as u64),
            in_cohort: 77 + i as u64,
            connections: 5 + i as u64,
        };
        t.shard(i).publish(live, fills[i], latencies[i], name);
    }

    for d in 0..2 {
        let dev = t.device(d);
        let cohorts = dev.counter("rhythm_device_cohorts_total", "Device cohorts run");
        let memory = dev.gauge("rhythm_device_memory_bytes", "Device memory held");
        let kern = dev.histogram(
            "rhythm_device_kernel_seconds",
            "Kernel wall time",
            1e-9,
            8,
            64,
        );
        dev.update(|m| {
            *m.counter(cohorts) += 3 + d as u64;
            *m.gauge(memory) = 4096.0 * (d + 1) as f64;
            m.histogram(kern).record(3e-4 * (d + 1) as f64);
            m.histogram(kern).record(5e-9);
        });
    }
    t
}

#[test]
fn render_metrics_matches_golden_file() {
    let text = golden_telemetry().render_metrics();
    let rendered: String = text
        .lines()
        .map(|l| {
            if l.starts_with("rhythm_uptime_seconds ") {
                "rhythm_uptime_seconds <masked>\n".to_string()
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/render_metrics.prom"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file present");
    assert_eq!(
        rendered, golden,
        "/metrics drifted from tests/golden/render_metrics.prom \
         (run with UPDATE_GOLDEN=1 to regenerate intentionally)"
    );
    rhythm_obs::validate_prometheus_text(&text).expect("golden document is valid");
}
