//! Offline stand-in for `criterion` (0.5 API surface).
//!
//! Provides `Criterion`, `benchmark_group`, `bench_function`,
//! `bench_with_input`, `BenchmarkId`, `Throughput`, `Bencher::iter`, and the
//! `criterion_group!` / `criterion_main!` macros. Instead of criterion's
//! statistical engine it runs a short warmup followed by a fixed measurement
//! window and reports mean time per iteration (plus element throughput when
//! configured). Good enough to keep `cargo bench` functional and relative
//! numbers meaningful in an offline container.
//!
//! When the harness is invoked with `--test` (as `cargo test` does for
//! benches without `harness = false` targets) each benchmark body runs once.

use std::time::{Duration, Instant};

/// Measurement throughput annotation.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier: function name plus optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Id with a function name and a parameter value.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Id distinguished only by a parameter value.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// Anything usable as a benchmark name.
pub trait IntoBenchmarkId {
    /// The display label.
    fn into_label(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_label(self) -> String {
        self.label
    }
}

impl IntoBenchmarkId for &str {
    fn into_label(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_label(self) -> String {
        self
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    test_mode: bool,
    /// Mean seconds per iteration, filled in by [`Bencher::iter`].
    secs_per_iter: f64,
}

impl Bencher {
    /// Run `routine` repeatedly and record mean time per iteration.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.test_mode {
            std::hint::black_box(routine());
            self.secs_per_iter = 0.0;
            return;
        }
        // Warmup: let caches/allocator settle and estimate per-iter cost.
        let warmup_deadline = Instant::now() + Duration::from_millis(120);
        let mut warm_iters: u64 = 0;
        let warm_start = Instant::now();
        while Instant::now() < warmup_deadline {
            std::hint::black_box(routine());
            warm_iters += 1;
        }
        let est = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;

        // Measurement window: ~500ms worth of iterations, at least 10.
        let target = ((0.5 / est.max(1e-9)) as u64).clamp(10, 1_000_000);
        let start = Instant::now();
        for _ in 0..target {
            std::hint::black_box(routine());
        }
        self.secs_per_iter = start.elapsed().as_secs_f64() / target as f64;
    }
}

fn format_secs(s: f64) -> String {
    if s < 1e-6 {
        format!("{:9.2} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:9.2} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:9.2} ms", s * 1e3)
    } else {
        format!("{:9.2} s ", s)
    }
}

fn run_one(
    label: &str,
    test_mode: bool,
    throughput: Option<Throughput>,
    f: &mut dyn FnMut(&mut Bencher),
) {
    let mut b = Bencher {
        test_mode,
        secs_per_iter: 0.0,
    };
    f(&mut b);
    if test_mode {
        println!("test {label} ... ok");
        return;
    }
    let mut line = format!("{label:<40} time: {}/iter", format_secs(b.secs_per_iter));
    if let Some(t) = throughput {
        let (count, unit) = match t {
            Throughput::Elements(n) => (n, "elem"),
            Throughput::Bytes(n) => (n, "B"),
        };
        if b.secs_per_iter > 0.0 {
            let rate = count as f64 / b.secs_per_iter;
            line.push_str(&format!("   thrpt: {rate:12.0} {unit}/s"));
        }
    }
    println!("{line}");
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the throughput annotation for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Adjust sample count (accepted for API compatibility; ignored).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Adjust measurement time (accepted for API compatibility; ignored).
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmark `f`.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_label());
        run_one(&label, self.criterion.test_mode, self.throughput, &mut f);
    }

    /// Benchmark `f` with a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: impl IntoBenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.into_label());
        run_one(
            &label,
            self.criterion.test_mode,
            self.throughput,
            &mut |b| f(b, input),
        );
    }

    /// Finish the group (prints nothing extra here).
    pub fn finish(self) {}
}

/// Top-level benchmark driver.
pub struct Criterion {
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test");
        Criterion { test_mode }
    }
}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Benchmark a standalone function.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&id.into_label(), self.test_mode, None, &mut f);
        self
    }

    /// Configuration hook (accepted for API compatibility).
    pub fn configure_from_args(self) -> Self {
        self
    }
}

/// Declare a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    (name = $group:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $cfg;
            $($target(&mut criterion);)+
        }
    };
}

/// Entry point running the declared groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("lru", 64).into_label(), "lru/64");
        assert_eq!(BenchmarkId::from_parameter("kmeans").into_label(), "kmeans");
    }

    #[test]
    fn bencher_runs_routine_in_test_mode() {
        let mut b = Bencher {
            test_mode: true,
            secs_per_iter: -1.0,
        };
        let mut hits = 0;
        b.iter(|| hits += 1);
        assert_eq!(hits, 1);
        assert_eq!(b.secs_per_iter, 0.0);
    }

    #[test]
    fn group_runs_benchmarks() {
        let mut c = Criterion { test_mode: true };
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Elements(4));
        let mut ran = 0;
        group.bench_with_input(BenchmarkId::new("f", 1), &7, |b, &x| {
            b.iter(|| x * 2);
            ran += 1;
        });
        group.bench_function("plain", |b| {
            b.iter(|| ());
            ran += 1;
        });
        group.finish();
        assert_eq!(ran, 2);
    }
}
