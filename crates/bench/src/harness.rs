//! From-scratch criterion-style micro-benchmark harness, replacing the
//! former `criterion` dev-dependency.
//!
//! Every bench target in `benches/` is `harness = false` and drives this
//! module from its own `fn main()`. The API deliberately mirrors the
//! criterion subset the benches were written against — groups,
//! [`BenchmarkId`], `bench_function` / `bench_with_input`, a [`Bencher`]
//! with `iter` — so a bench body reads identically under either harness.
//!
//! Measurement model: per benchmark, `warmup` untimed calls to settle
//! caches and branch predictors, then `samples` timed calls. The report is
//! the **median** and the **median absolute deviation** (MAD) of the
//! per-call times — both robust to the scheduling outliers that plague
//! shared CI boxes, unlike mean/stddev. Re-exports
//! [`black_box`](std::hint::black_box) so bench bodies can defeat
//! constant-folding without an external crate.
//!
//! Environment knobs (all optional):
//!
//! * `RECLOUD_BENCH_SAMPLES` — override every group's sample count;
//! * `RECLOUD_BENCH_WARMUP` — override the warmup call count.

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Default timed samples per benchmark.
pub const DEFAULT_SAMPLES: usize = 10;
/// Default untimed warmup calls per benchmark.
pub const DEFAULT_WARMUP: usize = 2;

fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// Top-level harness; hosts benchmark groups and the global configuration.
#[derive(Debug)]
pub struct Harness {
    samples_override: Option<usize>,
    warmup: usize,
    reported: usize,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

impl Harness {
    /// A harness configured from the environment.
    pub fn new() -> Self {
        Harness {
            samples_override: env_usize("RECLOUD_BENCH_SAMPLES"),
            warmup: env_usize("RECLOUD_BENCH_WARMUP").unwrap_or(DEFAULT_WARMUP),
            reported: 0,
        }
    }

    /// Starts a named benchmark group (criterion's `benchmark_group`).
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        Group { harness: self, name, samples: DEFAULT_SAMPLES }
    }

    /// Number of benchmarks reported so far.
    pub fn reported(&self) -> usize {
        self.reported
    }

    /// Prints the closing summary line. Call last in `fn main()`.
    pub fn finish(self) {
        println!("\n{} benchmark(s) complete", self.reported);
    }
}

/// A named group of related benchmarks sharing a sample count.
pub struct Group<'h> {
    harness: &'h mut Harness,
    name: String,
    samples: usize,
}

impl Group<'_> {
    /// Sets the timed sample count for subsequent benchmarks in this
    /// group (overridden globally by `RECLOUD_BENCH_SAMPLES`).
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        assert!(samples >= 1, "need at least one sample");
        self.samples = samples;
        self
    }

    fn effective_samples(&self) -> usize {
        self.harness.samples_override.unwrap_or(self.samples).max(1)
    }

    /// Runs one benchmark; `f` receives a [`Bencher`] and must call
    /// [`Bencher::iter`] exactly once with the body to measure.
    pub fn bench_function(&mut self, id: impl std::fmt::Display, f: impl FnMut(&mut Bencher)) {
        self.run(id.to_string(), f);
    }

    /// Runs one benchmark parameterized by `input` (criterion's
    /// `bench_with_input`).
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        self.run(id.to_string(), |b| f(b, input));
    }

    fn run(&mut self, label: String, mut f: impl FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            warmup: self.harness.warmup,
            samples: self.effective_samples(),
            times: Vec::new(),
        };
        f(&mut bencher);
        assert!(
            !bencher.times.is_empty(),
            "benchmark '{}/{label}' never called Bencher::iter",
            self.name
        );
        let (median, mad) = median_mad(&mut bencher.times);
        println!(
            "{:<44} median {:>12}  mad {:>10}  ({} samples)",
            format!("{}/{label}", self.name),
            format_duration(median),
            format_duration(mad),
            bencher.times.len(),
        );
        self.harness.reported += 1;
    }

    /// Ends the group (kept for criterion parity; reporting is per-bench).
    pub fn finish(self) {}
}

/// Times one benchmark body. Handed to the bench closure by [`Group`].
pub struct Bencher {
    warmup: usize,
    samples: usize,
    times: Vec<Duration>,
}

impl Bencher {
    /// Runs `f` untimed `warmup` times, then timed `samples` times,
    /// recording one duration per call. The return value is passed through
    /// [`black_box`] so the computation cannot be optimized away.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        for _ in 0..self.warmup {
            black_box(f());
        }
        self.times.reserve(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(f());
            self.times.push(t0.elapsed());
        }
    }
}

/// A `function/parameter` benchmark label (criterion's `BenchmarkId`).
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    function: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// Label with a function name and a displayed parameter.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { function: function.into(), parameter: Some(parameter.to_string()) }
    }

    /// Label with no parameter part.
    pub fn from_name(function: impl Into<String>) -> Self {
        BenchmarkId { function: function.into(), parameter: None }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.parameter {
            Some(p) => write!(f, "{}/{p}", self.function),
            None => write!(f, "{}", self.function),
        }
    }
}

/// Median and median-absolute-deviation of a sample set. Sorts in place.
pub fn median_mad(times: &mut [Duration]) -> (Duration, Duration) {
    assert!(!times.is_empty(), "no samples");
    times.sort_unstable();
    let median = midpoint(times);
    let mut deviations: Vec<Duration> = times.iter().map(|&t| t.abs_diff(median)).collect();
    deviations.sort_unstable();
    let mad = midpoint(&deviations);
    (median, mad)
}

fn midpoint(sorted: &[Duration]) -> Duration {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

/// Adaptive human-readable duration: ns → µs → ms → s.
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_mad_odd_and_even() {
        let mut odd: Vec<Duration> = [5, 1, 9].iter().map(|&n| Duration::from_nanos(n)).collect();
        let (m, mad) = median_mad(&mut odd);
        assert_eq!(m, Duration::from_nanos(5));
        assert_eq!(mad, Duration::from_nanos(4));

        let mut even: Vec<Duration> =
            [2, 4, 6, 100].iter().map(|&n| Duration::from_nanos(n)).collect();
        let (m, mad) = median_mad(&mut even);
        assert_eq!(m, Duration::from_nanos(5));
        // Deviations: 3, 1, 1, 95 → sorted 1, 1, 3, 95 → midpoint 2.
        assert_eq!(mad, Duration::from_nanos(2));
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        let mut times: Vec<Duration> =
            [10, 10, 10, 10, 10_000].iter().map(|&n| Duration::from_nanos(n)).collect();
        let (m, _) = median_mad(&mut times);
        assert_eq!(m, Duration::from_nanos(10));
    }

    #[test]
    fn bencher_runs_warmup_plus_samples() {
        let mut h = Harness { samples_override: None, warmup: 3, reported: 0 };
        let calls = std::cell::Cell::new(0usize);
        {
            let mut g = h.benchmark_group("selftest");
            g.sample_size(5);
            g.bench_function("count-calls", |b| {
                b.iter(|| calls.set(calls.get() + 1));
            });
            g.finish();
        }
        assert_eq!(calls.get(), 3 + 5);
        assert_eq!(h.reported(), 1);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("dagger", "tiny").to_string(), "dagger/tiny");
        assert_eq!(BenchmarkId::from_name("solo").to_string(), "solo");
    }

    #[test]
    fn format_duration_picks_units() {
        assert_eq!(format_duration(Duration::from_nanos(500)), "500 ns");
        assert!(format_duration(Duration::from_micros(500)).ends_with("µs"));
        assert!(format_duration(Duration::from_millis(500)).ends_with("ms"));
        assert!(format_duration(Duration::from_secs(500)).ends_with(" s"));
    }

    #[test]
    #[should_panic(expected = "never called Bencher::iter")]
    fn forgetting_iter_is_an_error() {
        let mut h = Harness { samples_override: None, warmup: 0, reported: 0 };
        h.benchmark_group("bad").bench_function("noop", |_b| {});
    }
}
