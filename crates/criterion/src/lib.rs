//! Minimal offline stand-in for the `criterion` benchmark harness.
//!
//! Implements the API subset this workspace's benches use:
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::sample_size`],
//! [`BenchmarkGroup::bench_function`] / [`bench_with_input`](BenchmarkGroup::bench_with_input),
//! [`BenchmarkId::new`], `criterion_group!` / `criterion_main!`, and
//! [`black_box`]. Measurement is wall-clock with adaptive batching;
//! per-benchmark mean and median sample times are printed.
//!
//! Like real criterion, a bench binary run without `--bench` (as
//! `cargo test` does for `harness = false` bench targets) executes each
//! routine once as a smoke test instead of sampling.
//!
//! When the `CRITERION_JSON` environment variable names a file, every
//! sampled measurement is additionally **appended** to it as one JSON
//! line `{"label":…,"mean_ns":…,"median_ns":…}` — the machine-readable
//! summary CI jobs commit as `BENCH_*.json` trend points.

use std::fmt;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`].
pub use std::hint::black_box;

/// Top-level harness handle.
pub struct Criterion {
    sampling: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        // cargo bench passes --bench; cargo test does not
        let sampling = std::env::args().any(|a| a == "--bench");
        Criterion { sampling }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        if self.sampling {
            println!("\n== group: {name} ==");
        }
        BenchmarkGroup {
            criterion: self,
            name,
            sample_size: 100,
        }
    }

    /// Benchmarks outside any group.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.to_string();
        run_one(&id, self.sampling, 100, f);
        self
    }
}

/// A named collection of benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Accepted and ignored — the shim has no warm-up phase to tune.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id);
        run_one(&label, self.criterion.sampling, self.sample_size, f);
        self
    }

    /// Runs one benchmark parameterised by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id);
        run_one(&label, self.criterion.sampling, self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Identifier combining a function name and a parameter value.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// `function/parameter` identifier.
    pub fn new(function: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            function: function.into(),
            parameter: parameter.to_string(),
        }
    }

    /// Identifier from a bare parameter value.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            function: String::new(),
            parameter: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.function.is_empty() {
            write!(f, "{}", self.parameter)
        } else {
            write!(f, "{}/{}", self.function, self.parameter)
        }
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] times the routine.
pub struct Bencher {
    mode: BenchMode,
    /// Mean time per iteration from the most recent `iter` call.
    last_mean: Option<Duration>,
    last_median: Option<Duration>,
}

enum BenchMode {
    /// One untimed call — used under `cargo test`.
    Smoke,
    /// Timed sampling with this many samples.
    Sample(usize),
}

impl Bencher {
    /// Times `routine`, batching iterations adaptively.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        match self.mode {
            BenchMode::Smoke => {
                black_box(routine());
            }
            BenchMode::Sample(samples) => {
                // Warm-up and batch sizing: target ~2ms per sample so
                // fast routines are batched and slow ones run once.
                let warm = Instant::now();
                black_box(routine());
                let once = warm.elapsed().max(Duration::from_nanos(1));
                let target = Duration::from_millis(2);
                let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 10_000) as usize;

                let mut times: Vec<Duration> = Vec::with_capacity(samples);
                for _ in 0..samples {
                    let start = Instant::now();
                    for _ in 0..iters {
                        black_box(routine());
                    }
                    times.push(start.elapsed() / iters as u32);
                }
                times.sort();
                let mean = times.iter().sum::<Duration>() / samples as u32;
                let median = times[samples / 2];
                self.last_mean = Some(mean);
                self.last_median = Some(median);
            }
        }
    }
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, sampling: bool, samples: usize, mut f: F) {
    let mut b = Bencher {
        mode: if sampling {
            BenchMode::Sample(samples)
        } else {
            BenchMode::Smoke
        },
        last_mean: None,
        last_median: None,
    };
    f(&mut b);
    if sampling {
        match (b.last_mean, b.last_median) {
            (Some(mean), Some(median)) => {
                println!("{label:<48} mean {:>12?}  median {:>12?}", mean, median);
                export_json_line(label, mean, median);
            }
            _ => println!("{label:<48} (no measurement)"),
        }
    }
}

/// Records a measurement taken outside the [`Bencher`] sampling loop —
/// the escape hatch for *macro* benchmarks (whole-grid evaluations that
/// are far too slow to sample) that must still land in the printed
/// summary and the `$CRITERION_JSON` trend file. The single observed
/// wall time serves as both mean and median.
pub fn export_measurement(label: &str, observed: Duration) {
    println!("{label:<48} mean {observed:>12?}  median {observed:>12?}");
    export_json_line(label, observed, observed);
}

/// Appends one measurement as a JSON line to `$CRITERION_JSON`, when
/// set. Failures are reported but never fail the bench run.
fn export_json_line(label: &str, mean: Duration, median: Duration) {
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let escaped = label.replace('\\', "\\\\").replace('"', "\\\"");
    let line = format!(
        "{{\"label\":\"{escaped}\",\"mean_ns\":{},\"median_ns\":{}}}\n",
        mean.as_nanos(),
        median.as_nanos()
    );
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    if let Err(e) = appended {
        eprintln!("CRITERION_JSON export to {path} failed: {e}");
    }
}

/// Declares a benchmark group runner (positional form only).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $(
                $target(&mut criterion);
            )+
        }
    };
}

/// Declares the bench binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $(
                $group();
            )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_once() {
        let mut calls = 0;
        let mut b = Bencher {
            mode: BenchMode::Smoke,
            last_mean: None,
            last_median: None,
        };
        b.iter(|| calls += 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn sampling_records_stats() {
        let mut b = Bencher {
            mode: BenchMode::Sample(5),
            last_mean: None,
            last_median: None,
        };
        b.iter(|| black_box(3u64.wrapping_mul(7)));
        assert!(b.last_mean.is_some());
        assert!(b.last_median.is_some());
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 4).to_string(), "f/4");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }
}
