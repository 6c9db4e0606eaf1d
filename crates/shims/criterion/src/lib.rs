//! Offline subset of `criterion`: a minimal wall-clock benchmark harness.
//!
//! The build environment has no crates.io access, so this crate provides the
//! surface the workspace's benches use — `Criterion`, benchmark groups,
//! `BenchmarkId`, `criterion_group!`/`criterion_main!` and `Bencher::iter` —
//! with a simple median-of-N wall-clock measurement instead of criterion's
//! statistical machinery. Run with `cargo bench`; each benchmark prints one
//! line with its median time per iteration.
//!
//! Two environment variables drive CI integration:
//!
//! * `BENCH_QUICK=1` — smoke mode: fewer samples and a small per-benchmark
//!   time budget, so a whole bench binary finishes in seconds.
//! * `BENCH_JSON=<path>` — append one JSON line per benchmark
//!   (`{"name":…,"ns_per_iter":…,"iters":…}`) to `<path>`, the artifact
//!   the CI bench-regression gate (`bench_gate`) consumes.

#![forbid(unsafe_code)]

use std::fmt;
use std::io::Write;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Maximum wall-clock time spent measuring one benchmark.
const TIME_BUDGET: Duration = Duration::from_millis(300);

/// Time budget under `BENCH_QUICK` — enough iterations to be meaningful as
/// a >2x-regression tripwire, small enough for CI smoke jobs.
const QUICK_TIME_BUDGET: Duration = Duration::from_millis(40);

/// Iterations timed whatever the budget: the median of three is the fewest
/// that one descheduled iteration cannot decide.
const MIN_ITERS: usize = 3;

/// Whether smoke mode is on.
fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The benchmark driver.
#[derive(Clone, Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: if quick_mode() { 5 } else { 20 },
        }
    }
}

impl Criterion {
    /// Set how many timed iterations each benchmark aims for.
    #[must_use]
    pub fn sample_size(mut self, samples: usize) -> Self {
        self.sample_size = samples.max(1);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&id.to_string(), self.sample_size, f);
    }
}

/// A named group of benchmarks sharing the parent driver's configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Run one benchmark inside this group.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id);
        run_benchmark(&label, self.criterion.sample_size, f);
        self
    }

    /// Finish the group (formatting no-op, kept for API compatibility).
    pub fn finish(self) {}
}

/// Identifier of one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    function: Option<String>,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// A `function/parameter` id.
    #[must_use]
    pub fn new(function: impl Into<String>, parameter: impl fmt::Display) -> Self {
        Self {
            function: Some(function.into()),
            parameter: Some(parameter.to_string()),
        }
    }

    /// An id that is only a parameter value.
    #[must_use]
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            function: None,
            parameter: Some(parameter.to_string()),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.function, &self.parameter) {
            (Some(function), Some(parameter)) => write!(f, "{function}/{parameter}"),
            (Some(function), None) => f.write_str(function),
            (None, Some(parameter)) => f.write_str(parameter),
            (None, None) => f.write_str("bench"),
        }
    }
}

/// Passed to the benchmark closure; call [`Bencher::iter`] with the routine.
pub struct Bencher {
    sample_size: usize,
    median_ns: f64,
    iters: u64,
}

impl Bencher {
    /// Measure `routine`, recording the median wall-clock time per call.
    ///
    /// Iterations are timed one by one until the sample size or the time
    /// budget is reached, but never fewer than three, so a single iteration
    /// stretched by a descheduled thread cannot set the result.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up (also primes lazily-allocated state).
        black_box(routine());

        let budget = if quick_mode() {
            QUICK_TIME_BUDGET
        } else {
            TIME_BUDGET
        };
        let mut times_ns = Vec::with_capacity(self.sample_size.max(MIN_ITERS));
        let started = Instant::now();
        while times_ns.len() < MIN_ITERS
            || (times_ns.len() < self.sample_size && started.elapsed() < budget)
        {
            let iteration = Instant::now();
            black_box(routine());
            times_ns.push(iteration.elapsed().as_nanos() as f64);
        }
        self.iters = times_ns.len() as u64;
        self.median_ns = median(&mut times_ns);
    }
}

/// The median of `values` (the mean of the middle two for an even count).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let len = values.len();
    (values[(len - 1) / 2] + values[len / 2]) / 2.0
}

fn run_benchmark<F: FnMut(&mut Bencher)>(label: &str, sample_size: usize, mut f: F) {
    let mut bencher = Bencher {
        sample_size,
        median_ns: 0.0,
        iters: 0,
    };
    f(&mut bencher);
    let (value, unit) = humanize_ns(bencher.median_ns);
    println!(
        "bench {label:<56} {value:>10.3} {unit}/iter ({} iters)",
        bencher.iters
    );
    if let Ok(path) = std::env::var("BENCH_JSON") {
        if !path.is_empty() {
            append_json_line(&path, label, bencher.median_ns, bencher.iters);
        }
    }
}

/// Append one machine-readable result line (benchmark names are plain
/// ASCII identifiers; only quote/backslash need escaping).
fn append_json_line(path: &str, label: &str, ns_per_iter: f64, iters: u64) {
    let escaped: String = label
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect();
    let line =
        format!("{{\"name\":\"{escaped}\",\"ns_per_iter\":{ns_per_iter:.1},\"iters\":{iters}}}\n");
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut file| file.write_all(line.as_bytes()));
    if let Err(err) = written {
        eprintln!("warning: could not append bench result to {path}: {err}");
    }
}

fn humanize_ns(ns: f64) -> (f64, &'static str) {
    if ns >= 1e9 {
        (ns / 1e9, "s ")
    } else if ns >= 1e6 {
        (ns / 1e6, "ms")
    } else if ns >= 1e3 {
        (ns / 1e3, "µs")
    } else {
        (ns, "ns")
    }
}

/// Group benchmark functions, mirroring criterion's macro forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
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

/// Emit a `main` that runs the given groups.
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

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("group");
        group.bench_function(BenchmarkId::new("f", 1), |b| b.iter(|| 1 + 1));
        group.bench_function(BenchmarkId::from_parameter("p"), |b| b.iter(|| 2 + 2));
        group.finish();
        c.bench_function("standalone", |b| b.iter(|| black_box(3) * 3));
    }

    criterion_group! {
        name = benches;
        config = Criterion::default().sample_size(5);
        targets = sample_bench
    }

    #[test]
    fn harness_runs_groups() {
        benches();
    }

    #[test]
    fn an_entry_times_at_least_three_iterations() {
        let mut bencher = Bencher {
            sample_size: 1,
            median_ns: 0.0,
            iters: 0,
        };
        let mut calls = 0;
        bencher.iter(|| calls += 1);
        assert_eq!(bencher.iters, MIN_ITERS as u64);
        assert_eq!(calls, 1 + MIN_ITERS, "one warm-up, then the timed ones");
    }

    #[test]
    fn one_slow_iteration_does_not_set_the_median() {
        assert_eq!(median(&mut [1.0, 100.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ids_render_like_criterion() {
        assert_eq!(BenchmarkId::new("gen", "2^10").to_string(), "gen/2^10");
        assert_eq!(BenchmarkId::from_parameter(64).to_string(), "64");
    }
}
