//! Minimal workspace-local implementation of the `criterion` API
//! surface this repository uses.
//!
//! The build environment has no access to crates.io, so the bench
//! targets run on this vendored subset: each `bench_function` call
//! warms up briefly, then runs a fixed number of timed samples and
//! prints the median per-iteration wall-clock time. There is no
//! statistical analysis, outlier rejection, plotting, or baseline
//! comparison — the numbers are indicative, not publication-grade.
//!
//! As upstream, passing `--test` (`cargo bench --bench NAME -- --test`)
//! runs every benchmark closure exactly once without timing it — the
//! smoke mode CI uses to keep bench targets from rotting.

use std::time::{Duration, Instant};

/// Re-export for benches that import `black_box` from criterion.
pub use std::hint::black_box;

/// The benchmark harness entry point.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 20 }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        let sample_size = self.sample_size;
        eprintln!("group {name}");
        BenchmarkGroup { _c: self, name, sample_size }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Self {
        let sample_size = self.sample_size;
        run_bench(&id.into(), sample_size, f);
        self
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.into_benchmark_id());
        run_bench(&id, self.sample_size, f);
        self
    }

    /// Runs one parameterised benchmark within the group.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = format!("{}/{}", self.name, id.into_benchmark_id());
        run_bench(&id, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (a no-op here; upstream emits summary reports).
    pub fn finish(self) {}
}

/// A benchmark identifier combining a function name and a parameter.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Identifier `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self(format!("{}/{}", name.into(), parameter))
    }

    /// Identifier from the parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self(parameter.to_string())
    }
}

/// Conversion of the various accepted id types into a display string.
pub trait IntoBenchmarkId {
    /// The display form of the id.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.0
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

/// Passed to the benchmark closure to time the hot loop.
pub struct Bencher {
    /// Median per-iteration time of the collected samples.
    sample_ns: Vec<f64>,
    iters_per_sample: u64,
}

impl Bencher {
    /// Times `f`, running it enough times per sample to get a stable
    /// reading.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        for _ in 0..self.sample_ns.capacity() {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(f());
            }
            let dt = start.elapsed();
            self.sample_ns.push(dt.as_nanos() as f64 / self.iters_per_sample as f64);
        }
    }
}

/// Whether the binary was started in upstream's `--test` smoke mode.
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn run_bench<F: FnMut(&mut Bencher)>(id: &str, sample_size: usize, mut f: F) {
    if test_mode() {
        f(&mut Bencher { sample_ns: Vec::with_capacity(1), iters_per_sample: 1 });
        eprintln!("  Testing {id}: Success");
        return;
    }
    // Calibration pass: find an iteration count that makes one sample
    // take roughly 5ms, so short kernels are not all timer noise.
    let mut calib = Bencher { sample_ns: Vec::with_capacity(1), iters_per_sample: 1 };
    f(&mut calib);
    let per_iter = calib.sample_ns.first().copied().unwrap_or(1.0).max(1.0);
    let target = Duration::from_millis(5).as_nanos() as f64;
    let iters = ((target / per_iter) as u64).clamp(1, 1_000_000);

    let mut b = Bencher { sample_ns: Vec::with_capacity(sample_size), iters_per_sample: iters };
    f(&mut b);
    if b.sample_ns.is_empty() {
        eprintln!("  {id}: no samples (closure never called iter)");
        return;
    }
    b.sample_ns.sort_by(|a, c| a.total_cmp(c));
    let median = b.sample_ns[b.sample_ns.len() / 2];
    eprintln!(
        "  {id}: median {} ({} samples x {} iters)",
        fmt_ns(median),
        b.sample_ns.len(),
        iters
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Declares a benchmark group function, mirroring upstream criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark binary's `main`, mirroring upstream
/// criterion.
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

    fn bench_example(c: &mut Criterion) {
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("param", 4), &4u64, |b, &n| b.iter(|| n * 2));
        group.finish();
        c.bench_function("standalone", |b| b.iter(|| 1 + 1));
    }

    criterion_group!(benches, bench_example);

    #[test]
    fn harness_runs() {
        benches();
    }
}
