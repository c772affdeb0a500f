//! One benchmark run: set-up, the rate ladder, and the metrics made from
//! it. The untraced run yields the end-to-end metrics; the traced run
//! yields the per-layer ones (one ladder round, a traced window at `r2`,
//! then the offline pass of `layers.rs`).

use std::sync::Arc;
use std::time::Instant;

use rhythm_net::NetStats;
use rhythm_obs::{StreamingHistogram, TraceRecorder};

use crate::gen::{self, Plan, Window};
use crate::layers;
use crate::loadgen::{LoadGen, WindowOutcome};
use crate::server::{bank_store, Count, ProbeReading, Served, Server};
use crate::spec::{WorkloadSpec, ROUNDS_MAX, ROUNDS_MIN, RUNGS, SETUPS, WINDOW_REQUESTS_MIN};
use crate::stats::{median, quantile_sorted, summarise, Tail};

#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub spec: &'static WorkloadSpec,
    pub seed: u64,
    /// Seconds of measured windows.
    pub seconds: f64,
    pub trace: bool,
    /// One round, one set-up: a smoke run for CI, not a measurement.
    pub quick: bool,
    /// When the process started (the first set-up is timed from here).
    pub started: Instant,
    /// Generator and reactor each get a CPU of their own.
    pub pinned: bool,
}

/// How a run of `seconds` is cut up.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub rounds: usize,
    pub setups: usize,
    /// Requests in every window; a window lasts `requests / rate`.
    pub window_requests: usize,
}

impl RunArgs {
    /// Untraced: `SETUPS` set-ups, then rounds of three windows filling
    /// `seconds`. Traced: one set-up, one round plus the traced window at
    /// `r2` in two thirds of `seconds`; the offline pass takes about the
    /// rest. All windows of a run carry the same number of requests, so a
    /// window lasts `requests / rate`.
    pub fn shape(&self) -> Shape {
        let rungs = &self.spec.rungs;
        let round_s_per_request: f64 = rungs.iter().map(|r| 1.0 / r).sum();
        let (rounds, s_per_request) = if self.trace {
            (1, (round_s_per_request + 1.0 / rungs[1]) * 1.5)
        } else if self.quick {
            (1, round_s_per_request)
        } else {
            let fit = self.seconds / (round_s_per_request * WINDOW_REQUESTS_MIN as f64);
            let rounds = (fit as usize).clamp(ROUNDS_MIN, ROUNDS_MAX);
            (rounds, round_s_per_request * rounds as f64)
        };
        Shape {
            rounds,
            setups: if self.quick || self.trace { 1 } else { SETUPS },
            window_requests: (self.seconds / s_per_request) as usize,
        }
    }
}

/// What a run found. `values` are named as in `spec.rs`; `samples` is the
/// smallest number of latency samples behind any window of the ladder.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub values: Vec<(&'static str, f64)>,
    pub samples: usize,
    /// Notes for the human-readable report (which percentile `p99` is,
    /// session slots, trace file).
    pub notes: Vec<String>,
    /// Chrome-trace JSON of the traced run.
    pub trace_json: Option<String>,
}

/// One window as measured from both sides.
struct Measured {
    rung: usize,
    outcome: WindowOutcome,
    tail: Option<Tail>,
    /// Reactor-thread CPU over the window and its drain.
    cpu_ns: u64,
    net: NetStats,
    probe: ProbeReading,
}

impl Measured {
    fn answered(&self) -> usize {
        self.outcome.latencies_ms.len()
    }

    fn cpu_us_per_req(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.answered().max(1) as f64
    }
}

/// Counter growth between two snapshots (peaks keep the later value).
fn net_since(now: &NetStats, then: &NetStats) -> NetStats {
    NetStats {
        requests: now.requests - then.requests,
        responses: now.responses - then.responses,
        cohorts: now.cohorts - then.cohorts,
        full_launches: now.full_launches - then.full_launches,
        timeout_launches: now.timeout_launches - then.timeout_launches,
        fill_sum: now.fill_sum - then.fill_sum,
        launched_requests: now.launched_requests - then.launched_requests,
        shed_503: now.shed_503 - then.shed_503,
        idle_polls: now.idle_polls - then.idle_polls,
        reads_paused: now.reads_paused - then.reads_paused,
        bytes_in: now.bytes_in - then.bytes_in,
        bytes_out: now.bytes_out - then.bytes_out,
        ..now.clone()
    }
}

fn measure<H: Served>(
    server: &Server<H>,
    gen: &mut LoadGen<'_>,
    window: &Window,
    traced: bool,
) -> Measured {
    let cpu0 = server.probe.reactor_cpu_ns();
    let net0 = server.live();
    let probe0 = server.probe.read();
    server.probe.set_tracing(traced);
    let mut outcome = gen.run_window(&window.arrivals, window.dur_s, traced);
    server.probe.set_tracing(false);
    let tail = summarise(&mut outcome.latencies_ms);
    Measured {
        rung: window.rung.expect("measured windows sit on a rung"),
        cpu_ns: server.probe.reactor_cpu_ns() - cpu0,
        net: net_since(&server.live(), &net0),
        probe: server.probe.read().since(&probe0),
        outcome,
        tail,
    }
}

/// A served system ready for its first measured window.
struct Ready<'a, H: Served> {
    server: Server<H>,
    gen: LoadGen<'a>,
}

/// Set-up: build the handler, bind, 16 connects, 512 logins, touch every
/// type (mix), warm at `r1`. Failures here are harness errors, not
/// measurements.
fn set_up<'a, H: Served>(
    plan: &Plan,
    store: &'a rhythm_banking::prelude::BankStore,
    rec: &'a Arc<TraceRecorder>,
    pinned: bool,
) -> Result<Ready<'a, H>, String> {
    let server = Server::<H>::boot(rec, pinned).map_err(|e| format!("boot: {e}"))?;
    let mut gen =
        LoadGen::connect(server.addr, store, H::same, rec).map_err(|e| format!("connect: {e}"))?;
    let phases = [
        ("login", gen.login_all()),
        ("touch", gen.run_window(&plan.touch, 0.0, false)),
        (
            "warm",
            gen.run_window(&plan.warm.arrivals, plan.warm.dur_s, false),
        ),
    ];
    for (phase, outcome) in phases {
        if outcome.failed != 0 {
            return Err(format!(
                "set-up {phase}: {} of {} failed: {:?}",
                outcome.failed, outcome.scheduled, gen.failures
            ));
        }
    }
    Ok(Ready { server, gen })
}

/// A `kB` field of `/proc/self/status`, in MB: `VmHWM` is the peak
/// resident set of this process, `VmRSS` the current one.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

const P50_NAMES: [&str; RUNGS] = ["p50_ms_r1", "p50_ms_r2", "p50_ms_r3"];
const P99_NAMES: [&str; RUNGS] = ["p99_ms_r1", "p99_ms_r2", "p99_ms_r3"];
const CPU_NAMES: [&str; RUNGS] = [
    "cpu_us_per_req_r1",
    "cpu_us_per_req_r2",
    "cpu_us_per_req_r3",
];

pub fn run<H: Served>(args: RunArgs) -> Result<RunResult, String> {
    let Shape {
        rounds,
        setups,
        window_requests,
    } = args.shape();
    let plan = gen::plan(args.spec, args.seed, window_requests, rounds, args.trace);
    let peak_slots = gen::check_occupancy(&plan)?;
    let store = bank_store();
    let rec = Arc::new(TraceRecorder::new());
    let mut result = RunResult::default();

    // Set up several times and report the median, so that a later change
    // that moves work into set-up shows. All but the last are torn down.
    let mut setup_s = Vec::with_capacity(setups);
    let mut ready = None;
    for k in 0..setups {
        let t0 = if k == 0 { args.started } else { Instant::now() };
        let r = set_up::<H>(&plan, &store, &rec, args.pinned)?;
        setup_s.push(t0.elapsed().as_secs_f64());

        if k + 1 < setups {
            drop(r.gen);
            r.server.stop()?;
        } else {
            ready = Some(r);
        }
    }
    let Ready { server, mut gen } = ready.expect("at least one set-up");
    let ready_rss_mb = status_mb("VmRSS:");

    // One request at a time on an idle server: fill time-out plus one
    // cohort of one, with no queueing — the latency floor, and the one
    // latency this box measures steadily on the device path.
    let mut lone_ms = Vec::with_capacity(plan.lone.len());
    for a in &plan.lone {
        let one = gen.run_window(std::slice::from_ref(a), 0.0, false);
        result.attempted += one.scheduled;
        result.failed += one.failed;
        lone_ms.extend(one.latencies_ms);
    }
    lone_ms.sort_by(f64::total_cmp);

    let ladder: Vec<Measured> = plan
        .measured
        .iter()
        .map(|w| measure(&server, &mut gen, w, false))
        .collect();
    let traced = plan.traced.as_ref().map(|w| {
        let hist0 = server_latency(&server);
        let m = measure(&server, &mut gen, w, true);
        (m, server_latency(&server).diff(&hist0))
    });

    result.samples = ladder.iter().map(Measured::answered).min().unwrap_or(0);
    for m in ladder.iter().chain(traced.iter().map(|(m, _)| m)) {
        result.attempted += m.outcome.scheduled;
        result.failed += m.outcome.failed;
        let t = m.tail.unwrap_or_default();
        result.notes.push(format!(
            "window r{} {:>5} rps: {} scheduled, {} failed, {} late, {} answered in window; \
             p50 {:.3} p{} {:.3} max {:.3} ms; reactor {:.2} us/req cpu; {:.2} req/launch; \
             generator gap {:.2} ms",
            m.rung + 1,
            args.spec.rungs[m.rung],
            m.outcome.scheduled,
            m.outcome.failed,
            m.outcome.late,
            m.outcome.answered_in_window,
            t.p50,
            t.tail_q * 100.0,
            t.tail,
            t.max,
            m.cpu_us_per_req(),
            m.net.launched_requests as f64 / m.net.cohorts.max(1) as f64,
            m.outcome.max_loop_gap_ms,
        ));
    }
    for m in &ladder {
        if let Some(t) = m.tail.filter(|t| t.tail_q < 0.99) {
            result.notes.push(format!(
                "r{}: {} samples support p{} at most, reported in place of p99",
                m.rung + 1,
                t.samples,
                t.tail_q * 100.0
            ));
        }
    }

    // A rung's value: the median over its rounds of the per-window values.
    let per_rung = |f: &dyn Fn(&Measured) -> Option<f64>, rung: usize| -> f64 {
        let v: Vec<f64> = ladder
            .iter()
            .filter(|m| m.rung == rung)
            .filter_map(f)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };

    if args.trace {
        let (t, server_hist) = traced.as_ref().expect("traced runs plan a traced window");
        per_layer(&mut result, args.spec, &ladder, t, server_hist);
        let t0 = Instant::now();
        result
            .values
            .extend(layers::offline(&plan, &server.telemetry, &rec));
        result
            .notes
            .push(format!("offline pass: {:.1} s", t0.elapsed().as_secs_f64()));
    } else {
        result.values.push(("setup_s", median(&setup_s)));
        result.values.push(("ready_rss_mb", ready_rss_mb));
        result
            .values
            .push(("p50_ms_lone", quantile_sorted(&lone_ms, 0.5)));
        for k in 0..RUNGS {
            let v = &mut result.values;
            v.push((CPU_NAMES[k], per_rung(&|m| Some(m.cpu_us_per_req()), k)));
            v.push((P50_NAMES[k], per_rung(&|m| m.tail.map(|t| t.p50), k)));
            v.push((P99_NAMES[k], per_rung(&|m| m.tail.map(|t| t.tail), k)));
        }
    }

    // Close the books: the server must have answered what it read.
    let held = gen.held_tokens();
    result.failures = std::mem::take(&mut gen.failures);
    drop(gen);
    let stopped = server.stop()?;
    let net = &stopped.stats;
    let slots = stopped.handler.session_slots();
    if slots as usize != held {
        result.failed += 1;
        result.failures.push(format!(
            "server holds {slots} sessions, the answers it gave imply {held}"
        ));
    }
    result.notes.push(format!(
        "session slots at exit: {slots} (plan peak {peak_slots}); set-ups: {:?} s",
        setup_s
    ));
    let fail_share = result.failed as f64 / result.attempted.max(1) as f64;
    let v = &mut result.values;
    if args.trace {
        v.push(("net.reads_paused", net.reads_paused as f64));
        v.push(("net.shed_503", net.shed_503 as f64));
        v.push(("net.peak_queued_bytes", net.peak_queued_bytes as f64));
        v.push(("banking.faults", stopped.handler.faults() as f64));
        v.push(("loadgen.fail_share", fail_share));
        result.trace_json = Some(rec.chrome_json());
    } else {
        v.push(("peak_rss_mb", status_mb("VmHWM:")));
        v.push(("fail_share", fail_share));
    }
    Ok(result)
}

/// Server-side request latency (parse → response routed) over all types,
/// from the telemetry plane's live histograms.
fn server_latency<H: Served>(server: &Server<H>) -> StreamingHistogram {
    server
        .telemetry
        .latency_merged()
        .into_iter()
        .map(|(_, h)| h)
        .reduce(|mut all, h| {
            all.merge(&h);
            all
        })
        .expect("set-up traffic has filled the latency histograms")
}

/// Source A: the per-layer numbers of the traced window, and the
/// generator's own validity numbers over the ladder.
fn per_layer(
    result: &mut RunResult,
    spec: &WorkloadSpec,
    ladder: &[Measured],
    t: &Measured,
    server_hist: &StreamingHistogram,
) {
    let v = &mut result.values;
    let answered = t.answered().max(1) as f64;
    let probe = |c: Count| t.probe.get(c) as f64;
    let served = probe(Count::Requests).max(1.0);
    let batches = probe(Count::Batches).max(1.0);
    let cohorts = t.net.cohorts.max(1) as f64;
    let requests = t.net.requests.max(1) as f64;

    let handler_ns = probe(Count::BusyNs);
    // Reactor CPU outside the handler: reading, framing, cohort
    // formation, response ordering, writing, idle polls.
    v.push((
        "net.reactor_cpu_us_per_req",
        (t.cpu_ns as f64 - probe(Count::BusyCpuNs)).max(0.0) / 1e3 / answered,
    ));
    v.push(("net.server_ms_p50", server_hist.quantile(0.5) * 1e3));
    // Server latency minus the batch the request rode in: cohort wait plus
    // waiting behind other cohorts' batches.
    let in_handler_ms = probe(Count::RequestBusyNs) / served / 1e6;
    v.push((
        "net.queue_ms_mean",
        (server_hist.mean() * 1e3 - in_handler_ms).max(0.0),
    ));
    v.push(("net.bytes_in_per_req", t.net.bytes_in as f64 / requests));
    v.push(("net.bytes_out_per_req", t.net.bytes_out as f64 / requests));
    v.push((
        "net.idle_polls_per_s",
        t.net.idle_polls as f64 / t.outcome.wall_s,
    ));

    v.push((
        "core.req_per_launch",
        t.net.launched_requests as f64 / cohorts,
    ));
    v.push(("core.mean_fill", t.net.fill_sum / cohorts));
    v.push((
        "core.timeout_launch_share",
        t.net.timeout_launches as f64 / cohorts,
    ));
    v.push((
        "core.cohorts_per_s",
        t.net.cohorts as f64 / t.outcome.wall_s,
    ));

    v.push(("banking.handler_us_per_req", handler_ns / 1e3 / served));
    v.push(("banking.handler_ms_per_batch", handler_ns / 1e6 / batches));
    v.push((
        "banking.batch_cohorts_mean",
        probe(Count::Cohorts) / batches,
    ));
    v.push((
        "banking.classify_ns_per_req",
        probe(Count::ClassifyNs) / probe(Count::ClassifyCalls).max(1.0),
    ));

    let all = || ladder.iter().chain(std::iter::once(t));
    let scheduled: usize = all().map(|m| m.outcome.scheduled).sum();
    let late: usize = all().map(|m| m.outcome.late).sum();
    v.push(("loadgen.late_share", late as f64 / scheduled.max(1) as f64));
    let at = |rung: usize| ladder.iter().find(|m| m.rung == rung);
    let achieved =
        |m: &Measured| m.outcome.answered_in_window as f64 / m.outcome.scheduled.max(1) as f64;
    v.push(("loadgen.achieved_share_r3", at(2).map_or(0.0, achieved)));
    // Highest rung that met the p99 limit with nothing failed and no
    // growing backlog.
    let slo_rate = (0..RUNGS)
        .rev()
        .find(|&k| {
            at(k).is_some_and(|m| {
                m.outcome.failed == 0
                    && achieved(m) >= 0.99
                    && m.tail.is_some_and(|t| t.tail <= spec.p99_limit_ms)
            })
        })
        .map_or(0.0, |k| spec.rungs[k]);
    v.push(("loadgen.slo_rate_rps", slo_rate));
    for (k, (p50, p99)) in [
        ("loadgen.p50_ms_r1", "loadgen.p99_ms_r1"),
        ("loadgen.p50_ms_r2", "loadgen.p99_ms_r2"),
        ("loadgen.p50_ms_r3", "loadgen.p99_ms_r3"),
    ]
    .into_iter()
    .enumerate()
    {
        let tail = at(k).and_then(|m| m.tail);
        v.push((p50, tail.map_or(0.0, |t| t.p50)));
        v.push((p99, tail.map_or(0.0, |t| t.tail)));
    }
    let untraced = at(1).map_or(0.0, Measured::cpu_us_per_req);
    v.push((
        "loadgen.trace_overhead_share",
        if untraced > 0.0 {
            (t.cpu_us_per_req() - untraced) / untraced
        } else {
            0.0
        },
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, WORKLOADS};
    use rhythm_banking::prelude::ScalarHandler;

    fn args(name: &str, seconds: f64, trace: bool, quick: bool) -> RunArgs {
        RunArgs {
            spec: workload(name).expect("known workload"),
            seed: 1,
            seconds,
            trace,
            quick,
            started: Instant::now(),
            pinned: false,
        }
    }

    /// At the shipped run length every window of every workload supports
    /// its p99, rounds stay in range, and the plan fits the session table.
    #[test]
    fn shipped_shape_supports_p99_and_fits_the_session_table() {
        let seconds = f64::from(crate::RUN_SECONDS);
        for w in &WORKLOADS {
            for trace in [false, true] {
                let shape = args(w.name, seconds, trace, false).shape();
                assert!(shape.window_requests >= WINDOW_REQUESTS_MIN, "{}", w.name);
                assert!((1..=ROUNDS_MAX).contains(&shape.rounds));
                assert!(trace || shape.rounds >= ROUNDS_MIN);
                let plan = gen::plan(w, 1, shape.window_requests, shape.rounds, trace);
                let time: f64 = plan
                    .measured
                    .iter()
                    .chain(&plan.traced)
                    .map(|w| w.dur_s)
                    .sum();
                let budget = if trace { seconds * 2.0 / 3.0 } else { seconds };
                assert!(time <= budget && time > 0.95 * budget, "{}: {time}", w.name);
                gen::check_occupancy(&plan).expect("fits");
            }
        }
        assert_eq!(args("simt_mix", seconds, false, false).shape().rounds, 3);
        assert_eq!(
            args("scalar_summary", seconds, false, false).shape().rounds,
            9
        );
    }

    /// A short real run over sockets: the generator's hold-back rules keep
    /// every request off logged-out users (one would be refused with 403
    /// and counted), every response matches the oracle, and the books
    /// balance.
    #[test]
    fn short_mix_run_is_correct_end_to_end() {
        let result = run::<ScalarHandler>(args("scalar_mix", 0.6, false, true)).expect("runs");
        assert_eq!(result.failed, 0, "{:?}", result.failures);
        assert!(result.attempted > 1000);
        let value = |name: &str| result.values.iter().find(|(n, _)| *n == name).map(|v| v.1);
        assert_eq!(value("fail_share"), Some(0.0));
        assert!(
            value("p50_ms_lone").is_some_and(|v| v > 2.0),
            "fill time-out is 2 ms"
        );
        assert!(value("cpu_us_per_req_r2").is_some_and(|v| v > 0.0));
    }
}
