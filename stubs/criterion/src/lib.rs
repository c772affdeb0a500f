//! Offline stand-in for `criterion` 0.5 — the subset this workspace's
//! benches use, backed by a plain wall-clock harness.
//!
//! Each benchmark is warmed up briefly, then timed over a fixed number of
//! samples; mean time per iteration (and derived throughput, when set) is
//! printed to stdout. No statistics beyond the mean, no plots, no
//! baseline comparison — just enough to run `cargo bench` offline and get
//! stable relative numbers.

use std::time::{Duration, Instant};

/// Throughput annotation for a benchmark group, mirroring
/// `criterion::Throughput`.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Batch sizing hint for [`Bencher::iter_batched`]; the stub treats all
/// variants the same (one setup per measured iteration).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// One setup per batch of iterations.
    PerIteration,
}

/// Timing loop handle passed to benchmark closures.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    /// Mean wall-clock time per iteration, filled in by `iter*`.
    mean: Duration,
    iters_per_sample: u64,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Bencher {
            samples,
            mean: Duration::ZERO,
            iters_per_sample: 1,
        }
    }

    /// Time `routine` repeatedly and record the mean per-iteration cost.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and pick an iteration count targeting ~2ms per sample.
        let t0 = Instant::now();
        std::hint::black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(20));
        let iters = (Duration::from_millis(2).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u64;

        let mut total = Duration::ZERO;
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            total += t.elapsed();
        }
        self.iters_per_sample = iters;
        self.mean = total / (self.samples as u32 * iters as u32);
    }

    /// Time `routine` over fresh inputs from `setup`, excluding setup cost.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        std::hint::black_box(routine(setup()));
        let mut total = Duration::ZERO;
        for _ in 0..self.samples {
            let input = setup();
            let t = Instant::now();
            std::hint::black_box(routine(input));
            total += t.elapsed();
        }
        self.iters_per_sample = 1;
        self.mean = total / self.samples as u32;
    }
}

/// Benchmark registry and configuration, mirroring `criterion::Criterion`.
#[derive(Clone, Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 30 }
    }
}

impl Criterion {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }

    /// Start a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: None,
            throughput: None,
        }
    }

    /// Run a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_one(id, self.sample_size, None, f);
        self
    }
}

/// A group of related benchmarks sharing throughput/sample settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Override the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Set the per-iteration throughput used for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run a benchmark inside this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        run_one(
            &format!("{}/{}", self.name, id),
            samples,
            self.throughput,
            f,
        );
        self
    }

    /// Finish the group (no-op in the stub; kept for API parity).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(id: &str, samples: usize, tp: Option<Throughput>, mut f: F) {
    let mut b = Bencher::new(samples.max(1));
    f(&mut b);
    let mean_ns = b.mean.as_nanos().max(1) as f64;
    let rate = match tp {
        Some(Throughput::Elements(n)) => format!("  {:>12.0} elem/s", n as f64 * 1e9 / mean_ns),
        Some(Throughput::Bytes(n)) => {
            format!(
                "  {:>9.3} MiB/s",
                n as f64 * 1e9 / mean_ns / (1024.0 * 1024.0)
            )
        }
        None => String::new(),
    };
    println!(
        "bench: {:<44} {:>12} ns/iter ({} samples x {} iters){}",
        id,
        format_ns(mean_ns),
        samples,
        b.iters_per_sample,
        rate
    );
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Define a benchmark group runner, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Define the bench entry point, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The mean itself is not asserted: a routine this small rounds to a
    // zero per-iteration `Duration` in release builds. What the stub
    // guarantees is that the routine ran once to warm up and then
    // `samples × iters_per_sample` times under the clock.

    #[test]
    fn iter_records_mean() {
        let mut calls = 0u64;
        let mut b = Bencher::new(3);
        b.iter(|| {
            calls += 1;
            std::hint::black_box(1u64 + 1)
        });
        assert!(b.iters_per_sample >= 1);
        assert_eq!(calls, 1 + 3 * b.iters_per_sample);
    }

    #[test]
    fn iter_batched_records_mean() {
        let (mut setups, mut calls) = (0u64, 0u64);
        let mut b = Bencher::new(3);
        b.iter_batched(
            || {
                setups += 1;
                vec![1u8; 64]
            },
            |v| {
                calls += 1;
                v.iter().map(|&x| x as u64).sum::<u64>()
            },
            BatchSize::SmallInput,
        );
        assert_eq!(b.iters_per_sample, 1);
        assert_eq!((setups, calls), (4, 4), "one warm-up + three samples");
    }

    #[test]
    fn group_runs_benchmarks() {
        let mut c = Criterion::default().sample_size(2);
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Elements(8));
        let mut ran = false;
        g.bench_function("t", |b| {
            ran = true;
            b.iter(|| 2 + 2)
        });
        g.finish();
        assert!(ran);
    }
}
