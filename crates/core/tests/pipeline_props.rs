//! Property tests for the cohort pipeline: conservation, ordering and
//! timeout guarantees under randomized arrival patterns.

use proptest::prelude::*;

use rhythm_core::pipeline::{Pipeline, PipelineConfig};
use rhythm_core::service::TableService;
use rhythm_obs::NoopRecorder;

fn config(cohort: u32, pool: u32, slots: u32, timeout_ms: f64) -> PipelineConfig {
    PipelineConfig {
        cohort_size: cohort,
        read_batch: cohort,
        formation_timeout_s: timeout_ms * 1e-3,
        reader_timeout_s: timeout_ms * 1e-3,
        pool_contexts: pool,
        device_slots: slots,
        parser_instances: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: every arrival completes exactly once, whatever the
    /// arrival pattern, cohort size, pool size or device width.
    #[test]
    fn conservation(
        gaps in prop::collection::vec(0u64..2000, 1..300),
        types in prop::collection::vec(0u32..4, 300),
        cohort in 1u32..64,
        pool in 1u32..6,
        slots in 1u32..8,
    ) {
        let mut t = 0.0;
        let arrivals: Vec<(f64, u32)> = gaps
            .iter()
            .zip(&types)
            .map(|(&g, &ty)| {
                t += g as f64 * 1e-7;
                (t, ty)
            })
            .collect();
        let p = Pipeline::new(TableService::uniform(4, 2), config(cohort, pool, slots, 1.0));
        let r = p.run(&arrivals, &NoopRecorder);
        prop_assert_eq!(r.completed, arrivals.len() as u64);
        prop_assert_eq!(r.latency.count, arrivals.len() as u64);
        prop_assert!(r.makespan_s >= arrivals.last().map(|a| a.0).unwrap_or(0.0));
        prop_assert!(r.cohorts_launched >= arrivals.len() as u64 / cohort as u64);
    }

    /// Latency is bounded below by the service time of a single cohort
    /// and every cohort holds at most `cohort_size` members (fill ≤ 1).
    #[test]
    fn fill_and_latency_bounds(
        n in 1u64..400,
        rate in 1.0e4f64..1.0e8,
        cohort in 1u32..128,
    ) {
        let svc = TableService::uniform(2, 1);
        let p = Pipeline::new(svc, config(cohort, 8, 32, 2.0));
        let arrivals: Vec<(f64, u32)> = (0..n).map(|i| (i as f64 / rate, (i % 2) as u32)).collect();
        let r = p.run(&arrivals, &NoopRecorder);
        prop_assert!(r.mean_fill <= 1.0 + 1e-9);
        prop_assert!(r.mean_fill > 0.0);
        // Each request at least pays one stage + response latency.
        let floor = 5e-6;
        prop_assert!(r.latency.mean >= floor, "mean {} < floor", r.latency.mean);
    }

    /// Determinism: identical inputs give identical reports.
    #[test]
    fn determinism(seed in any::<u64>(), n in 1u64..200) {
        let arrivals: Vec<(f64, u32)> = (0..n)
            .map(|i| (((i.wrapping_mul(seed | 1)) % 1000) as f64 * 1e-6, (i % 3) as u32))
            .collect();
        let mut sorted = arrivals.clone();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let p = Pipeline::new(TableService::uniform(3, 2), config(16, 4, 8, 1.0));
        let a = p.run(&sorted, &NoopRecorder);
        let b = p.run(&sorted, &NoopRecorder);
        prop_assert_eq!(a, b);
    }

    /// With a formation timeout, no request waits forever: max latency is
    /// bounded by a generous function of the timeout, the cohort service
    /// time and the queueing backlog.
    #[test]
    fn timeout_bounds_worst_case(n in 1u64..100, cohort in 2u32..64) {
        let svc = TableService::uniform(1, 1);
        let p = Pipeline::new(svc, config(cohort, 4, 32, 1.0));
        // One request every 5 ms — far slower than the 1 ms timeout, so
        // every cohort launches by timeout with exactly one member.
        let arrivals: Vec<(f64, u32)> = (0..n).map(|i| (i as f64 * 5e-3, 0)).collect();
        let r = p.run(&arrivals, &NoopRecorder);
        prop_assert_eq!(r.completed, n);
        prop_assert_eq!(r.timeout_launches, r.cohorts_launched);
        // reader timeout + formation timeout + service ≪ 5 ms
        prop_assert!(r.latency.max < 4e-3, "max latency {}", r.latency.max);
    }
}
