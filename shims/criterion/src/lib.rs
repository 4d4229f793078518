//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! The build environment has no registry access, so the workspace
//! vendors the API surface its benches use: `criterion_group!` /
//! `criterion_main!`, [`Criterion`] with `sample_size` /
//! `measurement_time` / `warm_up_time`, benchmark groups,
//! `bench_with_input` / `bench_function`, [`BenchmarkId`], and
//! `Bencher::iter`.
//!
//! Measurements are real wall-clock samples, and each benchmark prints
//! its median per iteration, not criterion's bootstrapped statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

/// Identifies one benchmark within a group: `function_id/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A benchmark id with a function name and a parameter rendering.
    pub fn new(function_id: impl Into<String>, parameter: impl fmt::Display) -> Self {
        Self {
            id: format!("{}/{parameter}", function_id.into()),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] runs and times the
/// workload.
pub struct Bencher<'a> {
    config: &'a Config,
    /// Median nanoseconds per iteration, filled by `iter`.
    result_ns: Option<u64>,
}

impl Bencher<'_> {
    /// Times `routine`: warms up, then takes `sample_size` samples of a
    /// batch size chosen so all samples fit in `measurement_time`.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Warm-up, and a first estimate of the per-iteration cost.
        let warm_until = Instant::now() + self.config.warm_up_time;
        let mut warm_iters: u32 = 0;
        let warm_start = Instant::now();
        loop {
            std::hint::black_box(routine());
            warm_iters += 1;
            if Instant::now() >= warm_until {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_nanos().max(1) / u128::from(warm_iters);

        let samples = self.config.sample_size.max(2);
        let budget_per_sample = self.config.measurement_time.as_nanos().max(1) / samples as u128;
        let batch = u64::try_from((budget_per_sample / per_iter.max(1)).max(1)).unwrap_or(u64::MAX);

        let mut sample_ns: Vec<u64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            sample_ns.push(elapsed / batch.max(1));
        }
        sample_ns.sort_unstable();
        self.result_ns = Some(sample_ns[sample_ns.len() / 2]);
    }
}

#[derive(Clone, Debug)]
struct Config {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            sample_size: 10,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(500),
        }
    }
}

/// The harness: runs the benchmarks that pass the filter and prints
/// their medians.
#[derive(Debug, Default)]
pub struct Criterion {
    config: Config,
    filter: Option<String>,
}

impl Criterion {
    /// Sets the number of timing samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.config.sample_size = n;
        self
    }

    /// Sets the total measurement budget per benchmark.
    #[must_use]
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.config.measurement_time = d;
        self
    }

    /// Sets the warm-up budget per benchmark.
    #[must_use]
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.config.warm_up_time = d;
        self
    }

    /// Applies command-line conventions: the first non-flag argument is a
    /// substring filter (as with real criterion); `--bench`/`--test` and
    /// other flags are accepted and ignored.
    pub fn apply_cli_args(&mut self) {
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--save-baseline" || a == "--baseline" || a == "--load-baseline" {
                let _ = args.next();
            } else if !a.starts_with('-') && self.filter.is_none() {
                self.filter = Some(a);
            }
        }
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher<'_>),
    {
        self.run_one(&id.to_string(), f);
        self
    }

    fn run_one<F>(&self, full_id: &str, f: F)
    where
        F: FnOnce(&mut Bencher<'_>),
    {
        if let Some(filter) = &self.filter {
            if !full_id.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            config: &self.config,
            result_ns: None,
        };
        f(&mut b);
        match b.result_ns {
            Some(ns) => println!("{full_id:<48} {:>14}/iter", format_ns(ns)),
            None => println!("{full_id:<48} (no measurement)"),
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Benchmarks `f` with `input`, labelled `id`.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher<'_>, &I),
    {
        let full_id = format!("{}/{id}", self.name);
        self.c.run_one(&full_id, |b| f(b, input));
        self
    }

    /// Benchmarks `f`, labelled `id`.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher<'_>),
    {
        let full_id = format!("{}/{id}", self.name);
        self.c.run_one(&full_id, f);
        self
    }

    /// Ends the group (accepted for API compatibility).
    pub fn finish(self) {}
}

/// Prevents the compiler from optimizing away a benchmarked value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Declares a benchmark group function. Supports both the simple
/// `criterion_group!(name, target, ...)` form and the configured
/// `name = ...; config = ...; targets = ...` form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c: $crate::Criterion = $config;
            c.apply_cli_args();
            $($target(&mut c);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the benchmark binary's `main`, running each group.
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
    fn bencher_runs_the_routine() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(5));
        let mut group = c.benchmark_group("g");
        let mut calls = 0u64;
        group.bench_with_input(BenchmarkId::new("inc", 1), &1u64, |b, &x| {
            b.iter(|| {
                calls += x;
            });
        });
        group.finish();
        assert!(calls > 0, "routine actually ran");
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut c = Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(5))
            .warm_up_time(Duration::from_millis(1));
        c.filter = Some("nomatch".into());
        let mut ran = false;
        c.bench_function("something", |b| {
            ran = true;
            b.iter(|| ());
        });
        assert!(!ran);
    }

    #[test]
    fn benchmark_id_renders() {
        assert_eq!(BenchmarkId::new("build", 42).to_string(), "build/42");
    }
}
