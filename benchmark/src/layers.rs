//! Source B of the per-layer metrics: an offline pass, in the same
//! process and over the same generated requests as the socket run, that
//! times each crate's public functions directly. No sockets, no cohort
//! formation — what a layer costs on its own, to set against the share
//! the traced socket windows (source A) attribute to it.

use std::hint::black_box;
use std::time::Instant;

use rhythm_banking::genreq::{raw_http, GeneratedRequest};
use rhythm_banking::prelude::*;
use rhythm_core::{CohortPool, CohortState};
use rhythm_http::HttpRequest;
use rhythm_net::{RequestAccumulator, Telemetry};
use rhythm_obs::{ArgValue, AtomicHistogram, Clock, Phase, Recorder, TraceRecorder};
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_simt::mem::DeviceMemory;
use rhythm_simt::{plan_cache_stats, warp_arena_stats, KernelStats, LaunchGate, WARP_SIZE};
use rhythm_verify::Verifier;

use crate::gen::{Arrival, Plan};
use crate::server::{bank_store, net_config};
use crate::spec::{REPLAY_REQUESTS, SESSION_CAPACITY, SESSION_SALT};
use crate::stats::median;

/// `(metric name, value)` pairs, in `spec::PER_LAYER` naming.
pub type Values = Vec<(&'static str, f64)>;

/// Median over `reps` timings of `f`, in seconds.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// The replayed requests. Like the repo's `RequestGenerator`, every
/// non-login request gets a session of its own in `sessions`, so cohorts
/// can run grouped by type in any order and a Logout only ever removes
/// its own session.
struct Replay {
    /// In arrival order.
    requests: Vec<GeneratedRequest>,
    sessions: SessionArrayHost,
}

fn replay_set(arrivals: &[Arrival]) -> Replay {
    let mut sessions = SessionArrayHost::new(SESSION_CAPACITY, SESSION_SALT);
    let requests = arrivals
        .iter()
        .map(|a| {
            let token = if a.ty.is_login() {
                0
            } else {
                sessions.insert(a.user).expect("replay fits the table")
            };
            GeneratedRequest {
                ty: a.ty,
                token,
                params: a.params(),
                raw: raw_http(a.ty, token, &a.params()),
            }
        })
        .collect();
    Replay { requests, sessions }
}

/// `requests` as uniform-type cohorts of at most `n`, in type order.
fn cohorts_of(requests: &[GeneratedRequest], n: usize) -> Vec<Vec<GeneratedRequest>> {
    let mut out = Vec::new();
    for ty in RequestType::ALL {
        let of_type: Vec<GeneratedRequest> =
            requests.iter().filter(|r| r.ty == ty).cloned().collect();
        out.extend(of_type.chunks(n).map(<[GeneratedRequest]>::to_vec));
    }
    out
}

/// Totals of one replay pass at one cohort size.
#[derive(Default)]
struct Pass {
    requests: usize,
    cohorts: usize,
    launches: usize,
    wall_s: f64,
    model_s: f64,
    stats: KernelStats,
    /// Wall seconds of `simt:kernel` spans: all, then by kernel class.
    kernel_s: f64,
    parser_s: f64,
    process_s: f64,
    backend_s: f64,
    response_s: f64,
}

impl Pass {
    /// Seconds per `n` requests, in ms: what one full `n`-cohort costs,
    /// weighted by the workload's mix of types.
    fn ms_per(&self, seconds: f64, n: usize) -> f64 {
        seconds / self.requests.max(1) as f64 * n as f64 * 1e3
    }
}

struct Device {
    workload: Workload,
    store: BankStore,
    gpu: Gpu,
    opts: CohortOptions,
}

/// Run every cohort through `run_cohort_traced` with a recorder of its
/// own: the executor's `simt:kernel` spans give the kernel/marshal split.
/// The exported trace `rec` gets one span per cohort carrying that split
/// (the executor's own per-warp events would make it too big to open).
fn replay_pass(dev: &Device, replay: &Replay, n: usize, rec: &TraceRecorder) -> Pass {
    let mut sessions = replay.sessions.clone();
    let mut pass = Pass::default();
    for cohort in &cohorts_of(&replay.requests, n) {
        let local = TraceRecorder::new();
        let start_us = rec.wall_now_us();
        let t0 = Instant::now();
        let result = run_cohort_traced(
            &dev.workload,
            &dev.store,
            &mut sessions,
            cohort,
            &dev.gpu,
            &dev.opts,
            &local,
        )
        .expect("replayed cohorts do not fault");
        let dt = t0.elapsed().as_secs_f64();
        let mut kernel_s = 0.0;
        for e in local.events() {
            let Phase::Span { dur_us } = e.phase else {
                continue;
            };
            if e.track != "simt:kernel" {
                continue;
            }
            let s = dur_us / 1e6;
            kernel_s += s;
            match e.name.as_str() {
                "http_parser" => pass.parser_s += s,
                "device_backend" => pass.backend_s += s,
                name if name.ends_with("_response") => pass.response_s += s,
                _ => pass.process_s += s,
            }
        }
        rec.span(
            Clock::Wall,
            &format!("offline:run_cohort:c{n}"),
            cohort[0].ty.file_name(),
            start_us,
            dt * 1e6,
            &[
                ("requests", ArgValue::U64(cohort.len() as u64)),
                ("kernel_us", ArgValue::F64(kernel_s * 1e6)),
                ("marshal_us", ArgValue::F64((dt - kernel_s) * 1e6)),
            ],
        );
        pass.requests += cohort.len();
        pass.cohorts += 1;
        pass.launches += result.launches.len();
        pass.wall_s += dt;
        pass.kernel_s += kernel_s;
        pass.model_s += result.kernel_time_s();
        for (_, launch) in &result.launches {
            pass.stats.merge(&launch.stats);
        }
    }
    pass
}

/// Cost of the reactor's cohort-pool calls over the replayed key
/// sequence: `open_for`/`acquire`/`add`, `launch` + `release` on fill, and
/// a sweep launching every open cohort each 16 requests, standing in for
/// the fill time-out.
fn pool_ns_per_req(keys: &[u32]) -> f64 {
    let cfg = net_config();
    let flush = |pool: &mut CohortPool<usize>| {
        for id in 0..pool.len() as u32 {
            if pool.get(id).state() == CohortState::PartiallyFull {
                pool.get_mut(id).launch().expect("open cohort launches");
                black_box(pool.get_mut(id).release().expect("busy cohort releases"));
            }
        }
    };
    let s = time_median(5, || {
        let mut pool: CohortPool<usize> = CohortPool::new(cfg.pool_contexts, cfg.cohort_size);
        for (i, &key) in keys.iter().enumerate() {
            let id = match pool.open_for(key).or_else(|| pool.acquire()) {
                Some(id) => id,
                None => {
                    flush(&mut pool);
                    pool.acquire().expect("a flushed pool has a free context")
                }
            };
            pool.get_mut(id)
                .add(i, key, i as f64)
                .expect("open context accepts its key");
            if pool.get(id).state() == CohortState::Full {
                pool.get_mut(id).launch().expect("full cohort launches");
                black_box(pool.get_mut(id).release().expect("busy cohort releases"));
            }
            if i % 16 == 15 {
                flush(&mut pool);
            }
        }
    });
    s / keys.len() as f64 * 1e9
}

/// `LaunchGate::check` over every kernel of the workload at its 32-lane
/// launch shape: first contact (cold, total ms) and repeats (warm, µs per
/// launch).
fn verify_gate(dev: &Device) -> (f64, f64) {
    let store_bytes = dev.store.device_bytes();
    let gate = Verifier::new();
    let mut launches = Vec::new();
    for ty in RequestType::ALL {
        let layout = CohortLayout::new(
            32,
            ty.response_buffer_bytes(),
            SESSION_CAPACITY,
            SESSION_SALT,
            store_bytes,
            dev.opts.transposed,
        );
        let cfg = LaunchConfig {
            lanes: 32,
            params: layout.params(),
            local_bytes: 64,
            shared_bytes: 1024,
            ..Default::default()
        };
        let mem = DeviceMemory::new(layout.total_bytes as usize);
        let mut kernels = vec![&dev.workload.parser, &dev.workload.backend];
        kernels.extend(dev.workload.stages_of(ty));
        launches.push((cfg, mem, kernels));
    }
    let check_all = || {
        let mut n = 0usize;
        for (cfg, mem, kernels) in &launches {
            for k in kernels {
                gate.check(k, cfg, mem, &dev.workload.pool)
                    .expect("banking kernels pass the gate");
                n += 1;
            }
        }
        n
    };
    let t0 = Instant::now();
    let n = check_all();
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let warm_us = time_median(5, check_all) / n as f64 * 1e6;
    (warm_us, cold_ms)
}

/// The offline pass. `telemetry` is the live plane of the server the
/// socket windows just ran against (for the scrape cost).
pub fn offline(plan: &Plan, telemetry: &Telemetry, rec: &TraceRecorder) -> Values {
    let arrivals: Vec<Arrival> = plan
        .measured
        .iter()
        .flat_map(|w| &w.arrivals)
        .take(REPLAY_REQUESTS)
        .copied()
        .collect();
    let replay = replay_set(&arrivals);
    let n = replay.requests.len() as f64;
    let mut v: Values = Vec::new();

    // core, http, banking (host side), obs: plain loops.
    let keys: Vec<u32> = arrivals.iter().map(|a| a.ty.id()).collect();
    v.push(("core.pool_ns_per_req", pool_ns_per_req(&keys)));

    let parse_s = time_median(5, || {
        for r in &replay.requests {
            black_box(HttpRequest::parse(&r.raw).expect("generated requests parse"));
        }
    });
    v.push(("http.parse_ns_per_req", parse_s / n * 1e9));

    let stream: Vec<u8> = replay.requests.iter().flat_map(|r| r.raw.clone()).collect();
    let max_request = net_config().max_request_bytes;
    let accumulate_s = time_median(5, || {
        let mut acc = RequestAccumulator::new(max_request);
        let mut framed = 0usize;
        for feed in stream.chunks(4096) {
            acc.feed(feed);
            while let Some(req) = acc.next_request().expect("generated stream frames") {
                black_box(req);
                framed += 1;
            }
        }
        assert_eq!(framed, replay.requests.len(), "every request framed");
    });
    v.push(("http.accumulate_ns_per_req", accumulate_s / n * 1e9));

    let store = bank_store();
    let native_s = time_median(3, || {
        let mut sessions = replay.sessions.clone();
        for r in &replay.requests {
            black_box(handle_native(&r.banking_request(), &store, &mut sessions));
        }
    });
    // The clone is part of each repetition; it is one memcpy of the table
    // against thousands of rendered pages.
    v.push(("banking.native_ns_per_req", native_s / n * 1e9));

    let render_s = time_median(5, || {
        for r in &replay.requests {
            black_box(raw_http(r.ty, r.token, &r.params));
        }
    });
    v.push(("banking.render_ns_per_req", render_s / n * 1e9));

    let hist = AtomicHistogram::for_latency_seconds();
    let samples = 200_000;
    let record_s = time_median(3, || {
        for i in 0..samples {
            hist.record(black_box(1e-4 + i as f64 * 1e-8));
        }
    });
    v.push(("obs.record_ns", record_s / samples as f64 * 1e9));
    v.push((
        "obs.scrape_ms",
        time_median(5, || telemetry.render_metrics()) * 1e3,
    ));

    // banking::runner's per-cohort fixed costs, one at a time.
    let dev = Device {
        workload: Workload::build(),
        store,
        gpu: Gpu::new(GpuConfig::gtx_titan()),
        opts: CohortOptions {
            session_capacity: SESSION_CAPACITY,
            session_salt: SESSION_SALT,
            ..CohortOptions::default()
        },
    };
    v.push((
        "banking.store_image_us",
        time_median(15, || dev.store.serialize_device()) * 1e6,
    ));
    let image = replay.sessions.to_device_bytes();
    v.push((
        "banking.session_upload_us",
        time_median(15, || replay.sessions.to_device_bytes()) * 1e6,
    ));
    v.push((
        "banking.session_readback_us",
        time_median(15, || {
            SessionArrayHost::from_device_bytes(&image, SESSION_SALT)
        }) * 1e6,
    ));
    let store_image = dev.store.serialize_device();
    let layout = CohortLayout::new(
        32,
        RequestType::AccountSummary.response_buffer_bytes(),
        SESSION_CAPACITY,
        SESSION_SALT,
        store_image.len() as u32,
        dev.opts.transposed,
    );
    v.push((
        "simt.mem_alloc_us",
        time_median(15, || {
            let mut mem = DeviceMemory::new(layout.total_bytes as usize);
            mem.load(layout.store_base, &store_image)
                .expect("store fits");
            mem
        }) * 1e6,
    ));

    let (gate_warm_us, gate_cold_ms) = verify_gate(&dev);
    v.push(("verify.gate_us_per_launch", gate_warm_us));
    v.push(("verify.gate_cold_ms", gate_cold_ms));

    // Whole cohorts: full (32) over all replayed requests, then small (4)
    // over the first quarter — the sizes `simt_summary` and `simt_mix`
    // launch at.
    let cache0 = plan_cache_stats();
    let arena0 = warp_arena_stats();
    let c32 = replay_pass(&dev, &replay, 32, rec);
    let cache = plan_cache_stats().since(&cache0);
    let arena = warp_arena_stats().since(&arena0);
    let quarter = Replay {
        requests: replay.requests[..replay.requests.len() / 4].to_vec(),
        sessions: replay.sessions.clone(),
    };
    let c4 = replay_pass(&dev, &quarter, 4, rec);

    v.push(("banking.cohort_ms_c4", c4.ms_per(c4.wall_s, 4)));
    v.push(("banking.cohort_ms_c32", c32.ms_per(c32.wall_s, 32)));
    v.push((
        "banking.marshal_ms_c4",
        c4.ms_per(c4.wall_s - c4.kernel_s, 4),
    ));
    v.push((
        "banking.marshal_ms_c32",
        c32.ms_per(c32.wall_s - c32.kernel_s, 32),
    ));
    v.push(("simt.kernel_ms_c4", c4.ms_per(c4.kernel_s, 4)));
    v.push(("simt.kernel_ms_c32", c32.ms_per(c32.kernel_s, 32)));
    v.push(("simt.parser_ms_c32", c32.ms_per(c32.parser_s, 32)));
    v.push(("simt.process_ms_c32", c32.ms_per(c32.process_s, 32)));
    v.push(("simt.backend_ms_c32", c32.ms_per(c32.backend_s, 32)));
    v.push(("simt.response_ms_c32", c32.ms_per(c32.response_s, 32)));
    let s = &c32.stats;
    v.push((
        "simt.host_ns_per_warp_instr",
        c32.kernel_s * 1e9 / s.warp_instructions.max(1) as f64,
    ));
    let per_req = |x: u64| x as f64 / c32.requests.max(1) as f64;
    v.push((
        "simt.model_us_per_req",
        c32.model_s * 1e6 / c32.requests.max(1) as f64,
    ));
    v.push(("simt.warp_instr_per_req", per_req(s.warp_instructions)));
    v.push(("simt.lane_instr_per_req", per_req(s.lane_instructions)));
    v.push(("simt.simd_efficiency", s.simd_efficiency(WARP_SIZE)));
    v.push(("simt.mem_tx_per_req", per_req(s.mem_transactions)));
    v.push(("simt.dram_bytes_per_req", per_req(s.dram_bytes)));
    v.push((
        "simt.launches_per_cohort",
        c32.launches as f64 / c32.cohorts.max(1) as f64,
    ));
    v.push(("simt.plan_cache_hit_rate", cache.hit_rate()));
    v.push(("simt.warp_arena_reuse", arena.reuse_rate()));

    // Four read-only 4-cohorts as one HyperQ batch.
    let batch: Vec<Vec<GeneratedRequest>> = cohorts_of(&quarter.requests, 4)
        .into_iter()
        .filter(|c| c[0].ty == RequestType::AccountSummary && c.len() == 4)
        .take(4)
        .collect();
    assert_eq!(
        batch.len(),
        4,
        "replay holds four full account_summary 4-cohorts"
    );
    let mut sessions = quarter.sessions.clone();
    let hyperq_s = time_median(5, || {
        run_cohorts_hyperq(
            &dev.workload,
            &dev.store,
            &mut sessions,
            &batch,
            &dev.gpu,
            &dev.opts,
        )
    });
    v.push(("banking.hyperq_ms_per_cohort_b4", hyperq_s / 4.0 * 1e3));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    /// The replay gives every non-login request a live session of its own
    /// and groups into uniform cohorts without losing a request.
    #[test]
    fn replay_cohorts_are_uniform_and_complete() {
        let plan = crate::gen::plan(workload("simt_mix").unwrap(), 3, 100, 3, false);
        let arrivals: Vec<Arrival> = plan
            .measured
            .iter()
            .flat_map(|w| &w.arrivals)
            .take(300)
            .copied()
            .collect();
        let replay = replay_set(&arrivals);
        for r in &replay.requests {
            if r.ty.is_login() {
                assert_eq!(r.token, 0);
            } else {
                assert_eq!(replay.sessions.lookup(r.token), Some(r.params[0]));
            }
        }
        let cohorts = cohorts_of(&replay.requests, 4);
        assert_eq!(cohorts.iter().map(Vec::len).sum::<usize>(), 300);
        assert!(cohorts
            .iter()
            .all(|c| c.len() <= 4 && c.iter().all(|r| r.ty == c[0].ty)));
    }
}
