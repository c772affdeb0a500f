//! Criterion benchmarks for the cohort pipeline and the banking cohort
//! path end-to-end on the SIMT engine.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use rhythm_banking::prelude::*;
use rhythm_core::pipeline::{uniform_arrivals, Pipeline, PipelineConfig};
use rhythm_core::service::TableService;
use rhythm_obs::NoopRecorder;
use rhythm_simt::gpu::{Gpu, GpuConfig};

fn bench_pipeline_sim(c: &mut Criterion) {
    let config = PipelineConfig {
        cohort_size: 64,
        read_batch: 64,
        formation_timeout_s: 1e-3,
        reader_timeout_s: 1e-3,
        pool_contexts: 8,
        device_slots: 32,
    };
    let pipeline = Pipeline::new(TableService::uniform(4, 2), config);
    let arrivals = uniform_arrivals(4096, 1e6, &[0, 1, 2, 3]);
    let mut g = c.benchmark_group("pipeline");
    g.throughput(Throughput::Elements(4096));
    g.bench_function("sim_4096_requests", |bench| {
        bench.iter(|| pipeline.run(std::hint::black_box(&arrivals), &NoopRecorder))
    });
    g.finish();
}

fn bench_banking_cohort(c: &mut Criterion) {
    let workload = Workload::build();
    let store = BankStore::generate(64, 5);
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let opts = CohortOptions {
        session_capacity: 512,
        ..Default::default()
    };
    let mut g = c.benchmark_group("banking");
    g.sample_size(10);
    g.throughput(Throughput::Elements(32));
    g.bench_function("login_cohort_32", |bench| {
        bench.iter_batched(
            || {
                let mut sessions = SessionArrayHost::new(512, opts.session_salt);
                let mut generator = RequestGenerator::new(64, 3);
                let reqs = generator.uniform(RequestType::Login, 32, &mut sessions);
                (sessions, reqs)
            },
            |(mut sessions, reqs)| {
                run_cohort_traced(
                    &workload,
                    &store,
                    &mut sessions,
                    &reqs,
                    &gpu,
                    &opts,
                    &NoopRecorder,
                )
                .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_cohort_pool(c: &mut Criterion) {
    use rhythm_core::CohortPool;
    c.bench_function("cohort/fill_and_release_64", |bench| {
        bench.iter_batched(
            || CohortPool::<u32>::new(4, 64),
            |mut pool| {
                let id = pool.acquire().unwrap();
                for i in 0..64 {
                    pool.get_mut(id).add(i, 7, 0.0).unwrap();
                }
                pool.get_mut(id).launch().unwrap();
                std::hint::black_box(pool.get_mut(id).release().unwrap());
                pool
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_pipeline_sim, bench_banking_cohort, bench_cohort_pool
}
criterion_main!(benches);
