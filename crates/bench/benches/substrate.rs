//! Criterion microbenchmarks for the substrate crates: SIMT execution,
//! HTTP parsing, transpose, trace merging, and the session array.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use rhythm_banking::prelude::*;
use rhythm_http::HttpRequest;
use rhythm_obs::NoopRecorder;
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_simt::ir::{BinOp, ProgramBuilder};
use rhythm_simt::mem::{ConstPool, DeviceMemory};
use rhythm_simt::transpose::{transpose_col_to_row, transpose_row_to_col};
use rhythm_trace::merge_traces;

fn bench_simt_kernel(c: &mut Criterion) {
    // A small arithmetic kernel over 256 lanes.
    let mut b = ProgramBuilder::new("axpy");
    let gid = b.global_id();
    let four = b.imm(4);
    let addr = b.bin(BinOp::Mul, gid, four);
    let n = b.imm(64);
    b.for_loop(n, |b, i| {
        let v = b.ld_global_word(addr, 0);
        let nv = b.bin(BinOp::Add, v, i);
        b.st_global_word(addr, 0, nv);
    });
    b.halt();
    let kernel = b.build().unwrap();
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let pool = ConstPool::new();

    let mut g = c.benchmark_group("simt");
    g.throughput(Throughput::Elements(256 * 64));
    g.bench_function("axpy_256x64", |bench| {
        bench.iter_batched(
            || DeviceMemory::new(256 * 4),
            |mut mem| {
                gpu.launch(
                    &kernel,
                    &LaunchConfig::new(256, []),
                    &mut mem,
                    &pool,
                    &NoopRecorder,
                )
                .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_simt_workers(c: &mut Criterion) {
    // The same kernel at a heavier lane count, swept across the warp
    // worker pool. Results are bit-identical at every worker count; only
    // host wall-clock changes (and only on multi-core hosts).
    let mut b = ProgramBuilder::new("axpy");
    let gid = b.global_id();
    let four = b.imm(4);
    let addr = b.bin(BinOp::Mul, gid, four);
    let n = b.imm(64);
    b.for_loop(n, |b, i| {
        let v = b.ld_global_word(addr, 0);
        let nv = b.bin(BinOp::Add, v, i);
        b.st_global_word(addr, 0, nv);
    });
    b.halt();
    let kernel = b.build().unwrap();
    let pool = ConstPool::new();
    let lanes = 4096u32;

    let mut g = c.benchmark_group("simt_workers");
    g.throughput(Throughput::Elements(lanes as u64 * 64));
    for workers in [1u32, 2, 4, 8] {
        let gpu = Gpu::new(GpuConfig::gtx_titan().with_workers(workers));
        g.bench_function(&format!("axpy_4096x64/w{workers}"), |bench| {
            bench.iter_batched(
                || DeviceMemory::new(lanes as usize * 4),
                |mut mem| {
                    gpu.launch(
                        &kernel,
                        &LaunchConfig::new(lanes, []),
                        &mut mem,
                        &pool,
                        &NoopRecorder,
                    )
                    .unwrap()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_http_parse(c: &mut Criterion) {
    let raw: &[u8] = b"POST /bank/bill_pay.php HTTP/1.1\r\nHost: bank.example.com\r\nCookie: SID=123456789\r\nUser-Agent: SPECWeb/2009\r\nContent-Length: 17\r\n\r\nuserid=42&a=19999";
    let mut g = c.benchmark_group("http");
    g.throughput(Throughput::Bytes(raw.len() as u64));
    g.bench_function("parse_post", |bench| {
        bench.iter(|| HttpRequest::parse(std::hint::black_box(raw)).unwrap())
    });
    g.finish();
}

fn bench_transpose(c: &mut Criterion) {
    let rows = 256usize;
    let cols = 1024usize;
    let src: Vec<u8> = (0..rows * cols).map(|i| i as u8).collect();
    let mut g = c.benchmark_group("transpose");
    g.throughput(Throughput::Bytes((rows * cols) as u64));
    g.bench_function("host_roundtrip_256x1024", |bench| {
        let mut dst = vec![0u8; rows * cols];
        let mut back = vec![0u8; rows * cols];
        bench.iter(|| {
            transpose_row_to_col(std::hint::black_box(&src), &mut dst, rows, cols);
            transpose_col_to_row(&dst, &mut back, rows, cols);
        })
    });
    g.finish();
}

fn bench_trace_merge(c: &mut Criterion) {
    let base: Vec<u32> = (0..2000).map(|i| i % 29).collect();
    let traces: Vec<Vec<u32>> = (0..4)
        .map(|k: usize| {
            let mut t = base.clone();
            t.insert(500 * (k + 1) % t.len(), 900 + k as u32);
            t
        })
        .collect();
    c.bench_function("trace/merge_4x2000", |bench| {
        bench.iter(|| merge_traces(std::hint::black_box(&traces), 10_000))
    });
}

fn bench_session_array(c: &mut Criterion) {
    c.bench_function("session/insert_lookup_remove_1024", |bench| {
        bench.iter_batched(
            || SessionArrayHost::new(4096, 0xAB),
            |mut s| {
                let mut toks = Vec::with_capacity(1024);
                for u in 0..1024 {
                    toks.push(s.insert(u).unwrap());
                }
                for &t in &toks {
                    std::hint::black_box(s.lookup(t));
                }
                for &t in &toks {
                    s.remove(t);
                }
                s
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_banking_native(c: &mut Criterion) {
    let store = BankStore::generate(64, 1);
    c.bench_function("banking/native_account_summary", |bench| {
        bench.iter_batched(
            || {
                let mut s = SessionArrayHost::new(256, 0xCD);
                let t = s.insert(7).unwrap();
                (s, t)
            },
            |(mut s, t)| {
                handle_native(
                    &BankingRequest::new(RequestType::AccountSummary, t, [7, 0, 0, 0]),
                    &store,
                    &mut s,
                )
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_simt_kernel,
              bench_simt_workers,
              bench_http_parse,
              bench_transpose,
              bench_trace_merge,
              bench_session_array,
              bench_banking_native
}
criterion_main!(benches);
