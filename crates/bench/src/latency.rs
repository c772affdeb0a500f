//! Pipeline-level latency modelling: feed measured kernel latencies into
//! the `rhythm-core` discrete-event pipeline and read off end-to-end
//! request latency (Table 3's latency column).

use rhythm_banking::types::{RequestType, TABLE2};
use rhythm_core::pipeline::{Pipeline, PipelineConfig};
use rhythm_core::service::Service;
use rhythm_core::PipelineReport;
use rhythm_obs::{NoopRecorder, Recorder};
use rhythm_platform::presets::TitanPlatform;

use crate::measure::{TitanResult, MEASURE_COHORT, PAPER_COHORT};

/// A [`Service`] whose latencies come from measured kernel runs.
#[derive(Clone, Debug)]
struct MeasuredService {
    /// Per key: per-request process-stage times (seconds).
    stage_per_req: Vec<Vec<f64>>,
    /// Per key: per-request backend-round time.
    backend_per_req: Vec<f64>,
    /// Per-request parse time (incl. request-buffer transpose).
    parse_per_req: f64,
    /// Per key: per-request post-process (transpose/copy-out) time.
    response_per_req: Vec<f64>,
    /// Fixed kernel launch overhead.
    overhead: f64,
}

impl MeasuredService {
    /// Build from a Titan measurement.
    fn from_titan(result: &TitanResult) -> Self {
        let n = MEASURE_COHORT as f64;
        let mut stage_per_req = vec![Vec::new(); 14];
        let mut backend_per_req = vec![0.0f64; 14];
        let mut response_per_req = vec![0.0f64; 14];
        let mut parse_sum = 0.0;
        let mut parse_cnt = 0u32;

        for tr in &result.per_type {
            let key = tr.ty.id() as usize;
            for (name, t) in &tr.stage_times {
                let per_req = t / n;
                if name == "parser" || name == "reqbuf_transpose" {
                    parse_sum += per_req;
                    parse_cnt += 1;
                } else if name == "device_backend" || name == "backend_transposes" {
                    backend_per_req[key] += per_req;
                } else if name == "response_transpose" {
                    response_per_req[key] += per_req;
                } else {
                    stage_per_req[key].push(per_req);
                }
            }
            if result.variant == TitanPlatform::A {
                // Host backend round trip over PCIe: 1 KB out, 4 KB back
                // per request at 12 GB/s plus a fixed service time.
                backend_per_req[key] += (1024.0 + 4096.0) / 12e9;
                // Response copy-out over PCIe.
                response_per_req[key] += tr.ty.response_buffer_bytes() as f64 / 12e9;
            }
        }
        MeasuredService {
            stage_per_req,
            backend_per_req,
            // parse_sum holds parser + reqbuf-transpose entries (two per
            // type); the mean per-request parse cost is the per-type sum.
            parse_per_req: parse_sum / (parse_cnt as f64 / 2.0).max(1.0),
            response_per_req,
            overhead: 5e-6,
        }
    }
}

impl Service for MeasuredService {
    fn stages(&self, key: u32) -> u32 {
        self.stage_per_req[key as usize].len() as u32
    }

    fn parse_latency(&self, batch: u32) -> f64 {
        self.overhead + self.parse_per_req * batch as f64
    }

    fn stage_latency(&self, key: u32, stage: u32, cohort: u32) -> f64 {
        self.overhead + self.stage_per_req[key as usize][stage as usize] * cohort as f64
    }

    fn backend_latency(&self, key: u32, _stage: u32, cohort: u32) -> f64 {
        let rounds = self.stages(key).saturating_sub(1).max(1) as f64;
        50e-6 + self.backend_per_req[key as usize] / rounds * cohort as f64
    }

    fn response_latency(&self, key: u32, cohort: u32) -> f64 {
        self.overhead + self.response_per_req[key as usize] * cohort as f64
    }
}

/// Mixed-traffic arrival schedule following the Table 2 distribution.
fn mixed_arrivals(count: u64, rate: f64, seed: u64) -> Vec<(f64, u32)> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let x: f64 = rng.gen_range(0.0..100.0);
            let mut acc = 0.0;
            let mut ty = RequestType::Login;
            for info in &TABLE2 {
                acc += info.mix_percent;
                if x < acc {
                    ty = info.ty;
                    break;
                }
            }
            (i as f64 / rate, ty.id())
        })
        .collect()
}

/// The paper's pipeline for mixed Titan traffic: `cohort`-request
/// cohorts and read batches, a 10 ms reader flush, and `device_slots`
/// concurrent kernels.
pub fn paper_config(cohort: u32, formation_timeout_s: f64, device_slots: u32) -> PipelineConfig {
    PipelineConfig {
        cohort_size: cohort,
        read_batch: cohort,
        formation_timeout_s,
        reader_timeout_s: 10e-3,
        // Mixed traffic over 14 types needs more contexts than the
        // paper's single-type-in-isolation runs (8): rare types hold a
        // context until their formation timeout.
        pool_contexts: 16,
        device_slots,
    }
}

/// Run `config`'s pipeline over `result`'s measured kernel latencies:
/// `requests` Table 2 arrivals (drawn with `seed`) at `load_fraction` of
/// the measured throughput. Stage spans, cohort FSM transitions, and
/// latency histograms land in `rec` (virtual-time clock); the report does
/// not depend on it.
pub fn latency<R: Recorder + ?Sized>(
    result: &TitanResult,
    config: PipelineConfig,
    load_fraction: f64,
    requests: u64,
    seed: u64,
    rec: &R,
) -> PipelineReport {
    let pipeline = Pipeline::new(MeasuredService::from_titan(result), config);
    let arrivals = mixed_arrivals(requests, result.tput * load_fraction, seed);
    pipeline.run(&arrivals, rec)
}

/// Mean end-to-end latency at 80 % load — the Table 3 latency estimate.
pub fn titan_latency_s(result: &TitanResult) -> f64 {
    let config = paper_config(PAPER_COHORT, 20e-3, 32);
    latency(result, config, 0.8, 300_000, 99, &NoopRecorder)
        .latency
        .mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::TitanResult;
    use rhythm_simt::stats::KernelStats;

    /// A synthetic single-type Titan measurement for unit testing.
    fn synthetic(variant: TitanPlatform) -> TitanResult {
        let per_type = RequestType::ALL
            .iter()
            .map(|&ty| crate::measure::TitanTypeResult {
                ty,
                device_time_per_cohort: 1e-3,
                compute_tput: 1e6,
                tput: 1e6,
                stage_times: vec![
                    ("parser".to_string(), 10e-6),
                    ("reqbuf_transpose".to_string(), 5e-6),
                    (format!("{ty}_stage0"), 40e-6),
                    ("device_backend".to_string(), 20e-6),
                    (format!("{ty}_response"), 400e-6),
                    ("response_transpose".to_string(), 100e-6),
                ],
                stats: KernelStats::default(),
                pcie_bytes: 32768.0,
            })
            .collect();
        TitanResult {
            variant,
            tput: 1e6,
            per_type,
        }
    }

    #[test]
    fn measured_service_maps_stage_names() {
        let svc = MeasuredService::from_titan(&synthetic(TitanPlatform::B));
        for ty in RequestType::ALL {
            let key = ty.id();
            assert_eq!(svc.stages(key), 2, "{ty}: stage0 + response");
            // stage latency scales with cohort
            let l1 = svc.stage_latency(key, 0, 512);
            let l2 = svc.stage_latency(key, 0, 4096);
            assert!(l2 > 7.0 * l1 && l2 < 9.0 * l1);
            assert!(svc.backend_latency(key, 0, 4096) > 0.0);
            assert!(svc.response_latency(key, 4096) > 0.0);
        }
        assert!(svc.parse_latency(4096) > svc.parse_latency(1));
    }

    #[test]
    fn titan_a_adds_pcie_costs() {
        let b = MeasuredService::from_titan(&synthetic(TitanPlatform::B));
        let a = MeasuredService::from_titan(&synthetic(TitanPlatform::A));
        let key = RequestType::AccountSummary.id();
        assert!(
            a.backend_latency(key, 0, 4096) > b.backend_latency(key, 0, 4096),
            "host backend pays the bus"
        );
        assert!(a.response_latency(key, 4096) > b.response_latency(key, 4096));
    }

    #[test]
    fn mixed_arrivals_follow_rate_and_mix() {
        let a = mixed_arrivals(10_000, 1e6, 42);
        assert_eq!(a.len(), 10_000);
        assert!((a.last().unwrap().0 - 9999.0 / 1e6).abs() < 1e-9);
        let logins = a.iter().filter(|(_, ty)| *ty == 0).count() as f64;
        assert!((logins / 100.0 - 28.17).abs() < 3.0, "login share");
        // Deterministic by seed.
        assert_eq!(a, mixed_arrivals(10_000, 1e6, 42));
        assert_ne!(a, mixed_arrivals(10_000, 1e6, 43));
    }

    #[test]
    fn latency_completes_all() {
        let config = paper_config(PAPER_COHORT, 20e-3, 32);
        let r = latency(
            &synthetic(TitanPlatform::B),
            config,
            0.5,
            20_000,
            99,
            &NoopRecorder,
        );
        assert_eq!(r.completed, 20_000);
        assert!(r.latency.mean > 0.0);
        assert!(r.latency.p99 >= r.latency.p50);
    }
}
