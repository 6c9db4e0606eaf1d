//! Offline subset of `criterion`: a minimal wall-clock benchmark harness.
//!
//! The build environment has no crates.io access, so this crate provides the
//! surface the workspace's benches use — `Criterion`, benchmark groups,
//! `BenchmarkId`, `criterion_group!`/`criterion_main!` and `Bencher::iter` —
//! with a simple median-of-N wall-clock measurement instead of criterion's
//! statistical machinery. Run with `cargo bench`; each benchmark prints one
//! line with its median time per iteration. A routine shorter than 10 µs is
//! timed in batches of calls, each sample one batch divided by its calls, so
//! the timer's own cost and a lone cold call do not set its median.
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

/// Samples timed whatever the budget: the median of three is the fewest
/// that one descheduled sample cannot decide.
const MIN_ITERS: usize = 3;

/// The shortest sample: calls of a shorter routine are batched until one
/// batch lasts this long.
const BATCH_TARGET: Duration = Duration::from_micros(10);

/// The most calls one sample may batch.
const MAX_BATCH: u64 = 1 << 20;

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
    /// Calls timed, over every sample.
    iters: u64,
    /// Calls per sample.
    batch: u64,
}

impl Bencher {
    /// Measure `routine`, recording the median wall-clock time per call.
    ///
    /// Samples are timed one by one until the sample size or the time
    /// budget is reached, but never fewer than three, so a single sample
    /// stretched by a descheduled thread cannot set the result. A sample is
    /// one call, or for a routine shorter than 10 µs a batch of calls sized
    /// to last that long (doubling from one call), read per call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up (also primes lazily-allocated state).
        black_box(routine());

        let budget = if quick_mode() {
            QUICK_TIME_BUDGET
        } else {
            TIME_BUDGET
        };
        let mut sample = |calls: u64| {
            let started = Instant::now();
            for _ in 0..calls {
                black_box(routine());
            }
            started.elapsed()
        };
        let started = Instant::now();
        // The sample that reaches the target (or the cap) is the first one.
        let mut batch = 1;
        let mut first = sample(batch);
        while first < BATCH_TARGET && batch < MAX_BATCH {
            batch *= 2;
            first = sample(batch);
        }
        let per_call = |elapsed: Duration| elapsed.as_nanos() as f64 / batch as f64;
        let mut times_ns = Vec::with_capacity(self.sample_size.max(MIN_ITERS));
        times_ns.push(per_call(first));
        while times_ns.len() < MIN_ITERS
            || (times_ns.len() < self.sample_size && started.elapsed() < budget)
        {
            times_ns.push(per_call(sample(batch)));
        }
        self.batch = batch;
        self.iters = times_ns.len() as u64 * batch;
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
        batch: 1,
    };
    f(&mut bencher);
    let (value, unit) = humanize_ns(bencher.median_ns);
    println!(
        "bench {label:<56} {value:>10.3} {unit}/iter ({} iters, {} per sample)",
        bencher.iters, bencher.batch
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

    fn bencher(sample_size: usize) -> Bencher {
        Bencher {
            sample_size,
            median_ns: 0.0,
            iters: 0,
            batch: 1,
        }
    }

    /// A routine that lasts at least [`BATCH_TARGET`].
    fn slow_call(calls: &mut usize) {
        let started = Instant::now();
        while started.elapsed() < BATCH_TARGET {
            std::hint::spin_loop();
        }
        *calls += 1;
    }

    #[test]
    fn an_entry_times_at_least_three_iterations() {
        let mut bencher = bencher(1);
        let mut calls = 0;
        bencher.iter(|| slow_call(&mut calls));
        assert_eq!(bencher.iters, MIN_ITERS as u64);
        assert_eq!(calls, 1 + MIN_ITERS, "one warm-up, then the timed ones");
    }

    #[test]
    fn a_short_routine_is_timed_in_batches_that_last_the_target() {
        let mut bencher = bencher(5);
        let mut calls = 0u64;
        bencher.iter(|| calls = black_box(calls + 1));
        assert!(bencher.batch > 1, "a batch of {}", bencher.batch);
        assert!(bencher.batch.is_power_of_two() && bencher.batch <= MAX_BATCH);
        assert_eq!(bencher.iters % bencher.batch, 0);
        // The warm-up, the doubling batches below the last, then the samples.
        assert_eq!(calls, 1 + (bencher.batch - 1) + bencher.iters);
        assert!(bencher.median_ns * bencher.batch as f64 >= BATCH_TARGET.as_nanos() as f64 / 64.0);
        assert!(bencher.median_ns < BATCH_TARGET.as_nanos() as f64);
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
