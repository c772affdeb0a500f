//! What the benchmark measures: load shape, workloads, and the metric
//! tables. `BENCHMARK.json` at the repo root is this file rendered
//! (`rhythm-benchmark spec`); a unit test keeps the two in step.

/// Keep-alive connections the single generator thread multiplexes. Sixteen
/// exceed `nproc` on purpose and add no threads: 1–2 deep-pipelined
/// connections put the seed reactor into a poll-and-sleep collapse, and a
/// cohort of 32 needs at least 32 concurrent requests to exist at all.
pub const CONNS: usize = 16;
/// Requests in flight per connection (generator window = 16 × 8 = 128).
pub const PER_CONN_INFLIGHT: usize = 8;
/// Users logged in during set-up, 32 pinned to each connection.
pub const USERS: u32 = 512;
/// Session table size and token salt of `examples/banking_server.rs`.
pub const SESSION_CAPACITY: u32 = 65_536;
pub const SESSION_SALT: u32 = 0x5EED_0001;
/// The server never expires sessions, so a re-login leaks its old slot.
/// The schedule is refused if logins − logouts pass this share of the
/// table, where linear probing starts to dominate login cost.
pub const OCCUPANCY_LIMIT: f64 = 0.40;
/// Rotations over the three rungs: as many as fit the run while every
/// window keeps `WINDOW_REQUESTS_MIN` requests, between 3 and 9. A rung's
/// p50/p99 is the median of its per-round values, so noise bursts on a
/// shared box (this one loses 2–3 % of its time to the hypervisor, in
/// bursts of up to 150 ms) are voted out, and session-table growth is
/// spread evenly over the rungs.
pub const ROUNDS_MIN: usize = 3;
pub const ROUNDS_MAX: usize = 9;
/// The fewest samples whose 99th percentile has ten beyond it, with
/// headroom for `simt_mix` at 24 s: 3 rounds × 1 090 requests.
pub const WINDOW_REQUESTS_MIN: usize = 1000;
pub const RUNGS: usize = 3;
/// Warm window at `r1`, part of set-up (fills plan, verifier and arena
/// caches; discarded).
pub const WARM_S: f64 = 1.0;
/// Requests sent one at a time after the warm window; `p50_ms_lone` is
/// their median latency.
pub const LONE_REQUESTS: usize = 300;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Longest wait for in-flight requests after a window stops scheduling.
pub const DRAIN_S: f64 = 2.0;
/// An injection this far behind its scheduled time counts as late.
pub const LATE_S: f64 = 1e-3;
/// Requests of the traced window that leave spans in the exported trace.
/// All of them carry a `rid` and count into the per-layer metrics; the
/// cap keeps the Chrome trace small enough to open — and to validate:
/// `rhythm_obs::parse_json` re-validates the rest of the document as
/// UTF-8 for every string character, so its time grows with the square
/// of the size (4.7 MB took 3.5 minutes).
pub const TRACE_REQUESTS: u64 = 1000;
/// Requests replayed offline for the modelled-time and per-layer passes.
pub const REPLAY_REQUESTS: usize = 2048;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Path {
    Scalar,
    Simt,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Traffic {
    /// 100 % `account_summary` GET (17 KB responses, read-only).
    Summary,
    /// Paper Table 2 mix: 14 types, 36 % session writers.
    Mix,
}

#[derive(Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub path: Path,
    pub traffic: Traffic,
    /// Offered rates `r1,r2,r3` in requests/s. Absolute, so later commits
    /// compare at equal offered load.
    pub rungs: [f64; RUNGS],
    /// Limit on p99 that `loadgen.slo_rate_rps` is judged against.
    pub p99_limit_ms: f64,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "scalar_summary",
        path: Path::Scalar,
        traffic: Traffic::Summary,
        rungs: [4000.0, 8000.0, 12000.0],
        p99_limit_ms: 10.0,
        why: "4 us handler, so net/http/core do nearly all the work: front-end \
              savings show here and device-path changes must not",
    },
    WorkloadSpec {
        name: "scalar_mix",
        path: Path::Scalar,
        traffic: Traffic::Mix,
        rungs: [1500.0, 3000.0, 4500.0],
        p99_limit_ms: 10.0,
        why: "Table 2 mix on the host path: cohort formation over 14 keys, POST \
              bodies, session writes; byte oracle for simt_mix, no-change row for device PRs",
    },
    WorkloadSpec {
        name: "simt_summary",
        path: Path::Simt,
        traffic: Traffic::Summary,
        rungs: [500.0, 1000.0, 1500.0],
        p99_limit_ms: 50.0,
        why: "one read-only type fills cohorts, so kernel execution is at its \
              largest share and marshalling is amortised: kernel/template work shows here",
    },
    WorkloadSpec {
        name: "simt_mix",
        path: Path::Simt,
        traffic: Traffic::Mix,
        rungs: [250.0, 500.0, 750.0],
        p99_limit_ms: 50.0,
        why: "14 keys at 2 ms fill time-out give 1-3 requests per launch, so per-cohort \
              marshalling dominates and Login/Logout are HyperQ barriers: resident-state work shows here",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which clock a number was read from; every metric names one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// Host wall-clock.
    Wall,
    /// Thread CPU time (`/proc/self/task/<tid>/schedstat`).
    Cpu,
    /// Modelled GTX Titan seconds.
    Model,
    /// Not a time: an exact or sampled count, a ratio, or a size.
    Count,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Cpu => "cpu",
            Clock::Model => "model",
            Clock::Count => "count",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    /// `true` when a larger value is better.
    pub higher: bool,
    /// End-to-end only: share of the parent's median the metric may worsen.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, clock: Clock, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        clock,
        higher: false,
        bound: Some(bound),
    }
}

/// What a client of the server sees, as far as this box can measure it
/// steadily; reported by the untraced run and gated by the driver. On the
/// device path the reactor is 45–90 % busy at every rung, where a few
/// per cent of host noise moves queueing latency by tens of per cent from
/// run to run, and resident memory swings by a third with the allocator's
/// trimming. So those are `INFORMATIONAL`, and the gate holds what is
/// steady on all four workloads: CPU per request at every rung (capacity:
/// the reactor is one thread), the latency of a lone request (no
/// queueing), and set-up time.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("setup_s", "s", Clock::Wall, 0.25),
    e2e("p50_ms_lone", "ms", Clock::Wall, 0.20),
    e2e("cpu_us_per_req_r1", "us", Clock::Cpu, 0.25),
    e2e("cpu_us_per_req_r2", "us", Clock::Cpu, 0.25),
    e2e("cpu_us_per_req_r3", "us", Clock::Cpu, 0.25),
];

const fn lo(name: &'static str, unit: &'static str, clock: Clock) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        clock,
        higher: false,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str, clock: Clock) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        clock,
        higher: true,
        bound: None,
    }
}

/// Also measured and printed by the untraced run, with no bound: the
/// ladder's latencies (median over rounds of the per-window values),
/// resident memory when the last set-up is done and at its peak, and the
/// failure share (which the contract carries as `failed`/`attempted`, and
/// which must be 0).
pub const INFORMATIONAL: [MetricSpec; 9] = [
    lo("p50_ms_r1", "ms", Clock::Wall),
    lo("p50_ms_r2", "ms", Clock::Wall),
    lo("p50_ms_r3", "ms", Clock::Wall),
    lo("p99_ms_r1", "ms", Clock::Wall),
    lo("p99_ms_r2", "ms", Clock::Wall),
    lo("p99_ms_r3", "ms", Clock::Wall),
    lo("ready_rss_mb", "MB", Clock::Count),
    lo("peak_rss_mb", "MB", Clock::Count),
    lo("fail_share", "ratio", Clock::Count),
];

/// One layer each (the crates on the serving path); reported by the
/// traced run. Source A = the traced socket windows, source B = the
/// offline pass over the same generated requests (see `layers.rs`).
pub const PER_LAYER: [MetricSpec; 63] = [
    // net — A
    lo("net.reactor_cpu_us_per_req", "us", Clock::Cpu),
    lo("net.server_ms_p50", "ms", Clock::Wall),
    lo("net.queue_ms_mean", "ms", Clock::Wall),
    lo("net.bytes_in_per_req", "B", Clock::Count),
    lo("net.bytes_out_per_req", "B", Clock::Count),
    lo("net.idle_polls_per_s", "1/s", Clock::Count),
    lo("net.reads_paused", "count", Clock::Count),
    lo("net.shed_503", "count", Clock::Count),
    lo("net.peak_queued_bytes", "B", Clock::Count),
    // core — A, then B
    hi("core.req_per_launch", "count", Clock::Count),
    hi("core.mean_fill", "ratio", Clock::Count),
    lo("core.timeout_launch_share", "ratio", Clock::Count),
    lo("core.cohorts_per_s", "1/s", Clock::Count),
    lo("core.pool_ns_per_req", "ns", Clock::Wall),
    // http — B
    lo("http.parse_ns_per_req", "ns", Clock::Wall),
    lo("http.accumulate_ns_per_req", "ns", Clock::Wall),
    // banking — A
    lo("banking.handler_us_per_req", "us", Clock::Wall),
    lo("banking.handler_ms_per_batch", "ms", Clock::Wall),
    hi("banking.batch_cohorts_mean", "count", Clock::Count),
    lo("banking.classify_ns_per_req", "ns", Clock::Wall),
    lo("banking.faults", "count", Clock::Count),
    // banking — B
    lo("banking.native_ns_per_req", "ns", Clock::Wall),
    lo("banking.render_ns_per_req", "ns", Clock::Wall),
    lo("banking.store_image_us", "us", Clock::Wall),
    lo("banking.session_upload_us", "us", Clock::Wall),
    lo("banking.session_readback_us", "us", Clock::Wall),
    lo("banking.cohort_ms_c4", "ms", Clock::Wall),
    lo("banking.cohort_ms_c32", "ms", Clock::Wall),
    lo("banking.marshal_ms_c4", "ms", Clock::Wall),
    lo("banking.marshal_ms_c32", "ms", Clock::Wall),
    lo("banking.hyperq_ms_per_cohort_b4", "ms", Clock::Wall),
    // simt — B, host wall-clock of the interpreter
    lo("simt.kernel_ms_c4", "ms", Clock::Wall),
    lo("simt.kernel_ms_c32", "ms", Clock::Wall),
    lo("simt.parser_ms_c32", "ms", Clock::Wall),
    lo("simt.process_ms_c32", "ms", Clock::Wall),
    lo("simt.backend_ms_c32", "ms", Clock::Wall),
    lo("simt.response_ms_c32", "ms", Clock::Wall),
    lo("simt.host_ns_per_warp_instr", "ns", Clock::Wall),
    lo("simt.mem_alloc_us", "us", Clock::Wall),
    // simt — B, exact counts: must not move under host-speed PRs
    lo("simt.model_us_per_req", "model_us", Clock::Model),
    lo("simt.warp_instr_per_req", "count", Clock::Count),
    lo("simt.lane_instr_per_req", "count", Clock::Count),
    hi("simt.simd_efficiency", "ratio", Clock::Count),
    lo("simt.mem_tx_per_req", "count", Clock::Count),
    lo("simt.dram_bytes_per_req", "B", Clock::Count),
    lo("simt.launches_per_cohort", "count", Clock::Count),
    hi("simt.plan_cache_hit_rate", "ratio", Clock::Count),
    hi("simt.warp_arena_reuse", "ratio", Clock::Count),
    // verify — B
    lo("verify.gate_us_per_launch", "us", Clock::Wall),
    lo("verify.gate_cold_ms", "ms", Clock::Wall),
    // obs — B
    lo("obs.record_ns", "ns", Clock::Wall),
    lo("obs.scrape_ms", "ms", Clock::Wall),
    // loadgen — A: validity of the run. `fail_share` sits here because the
    // contract's end-to-end metrics may never read 0 and this one must.
    lo("loadgen.late_share", "ratio", Clock::Count),
    hi("loadgen.achieved_share_r3", "ratio", Clock::Count),
    hi("loadgen.slo_rate_rps", "1/s", Clock::Count),
    lo("loadgen.trace_overhead_share", "ratio", Clock::Cpu),
    lo("loadgen.fail_share", "ratio", Clock::Count),
    // The traced run's one ladder round, for the record; the untraced
    // run prints the steadier median over rounds.
    lo("loadgen.p50_ms_r1", "ms", Clock::Wall),
    lo("loadgen.p50_ms_r2", "ms", Clock::Wall),
    lo("loadgen.p50_ms_r3", "ms", Clock::Wall),
    lo("loadgen.p99_ms_r1", "ms", Clock::Wall),
    lo("loadgen.p99_ms_r2", "ms", Clock::Wall),
    lo("loadgen.p99_ms_r3", "ms", Clock::Wall),
];

/// `BENCHMARK.json` as the driver's contract wants it: exactly these six
/// keys. Clocks, p99 limits and the notes on how metrics interact have no
/// key there; they are in `README.md` and in every result's own output.
pub fn benchmark_json(run_seconds: u32) -> String {
    let q = |s: &str| format!("\"{s}\"");
    let better = |m: &MetricSpec| if m.higher { "higher" } else { "lower" };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                q(m.name),
                q(m.unit),
                q(better(m)),
                m.bound.expect("end-to-end metrics are bounded")
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(m.name),
                q(m.unit),
                q(better(m))
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repo root is `benchmark_json` rendered, and
    /// stays inside the contract's limits.
    #[test]
    fn benchmark_json_is_in_step_and_within_limits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(crate::RUN_SECONDS),
            "regenerate with `rhythm-benchmark spec > BENCHMARK.json`"
        );
        rhythm_obs::parse_json(&on_disk).expect("valid JSON");
        assert!(on_disk.len() <= 64 * 1024);

        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(END_TO_END.iter().chain(&PER_LAYER).all(|m| unit_ok(m.unit)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()) && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher);
        assert!((1..=60).contains(&crate::RUN_SECONDS));
    }
}
