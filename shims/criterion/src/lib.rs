//! Offline stand-in for `criterion`.
//!
//! Implements the macro + builder surface the bench suites use and
//! measures plain wall-clock time: each `Bencher::iter` workload runs
//! `sample_size` times after one warm-up, and the mean/min/median are
//! printed to stdout in a single line per benchmark. No statistics
//! beyond that, no HTML reports, no comparison to saved baselines.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Throughput annotation (accepted, currently not rendered).
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
    text: String,
}

impl BenchmarkId {
    /// `name/parameter` identifier.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        Self {
            text: format!("{name}/{parameter}"),
        }
    }

    /// Identifier from the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            text: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Top-level benchmark context.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 20,
        }
    }
}

/// A group of benchmarks sharing a name prefix and sample size.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Sets how many measured runs each benchmark performs.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Annotates throughput (accepted for API compatibility).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut bencher);
        bencher.report(&self.name, &id.to_string());
        self
    }

    /// Runs one benchmark with an explicit input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut bencher, input);
        bencher.report(&self.name, &id.to_string());
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Timing harness handed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Measures `f`: one warm-up call, then `sample_size` timed calls.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        std::hint::black_box(f());
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            std::hint::black_box(f());
            self.samples.push(start.elapsed());
        }
    }

    fn report(&self, group: &str, id: &str) {
        if self.samples.is_empty() {
            println!("{group}/{id}: no samples recorded");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        let total: Duration = sorted.iter().sum();
        let mean = total / sorted.len() as u32;
        let median = sorted[sorted.len() / 2];
        let min = sorted[0];
        println!(
            "{group}/{id}: mean {:?}  median {:?}  min {:?}  ({} samples)",
            mean,
            median,
            min,
            sorted.len()
        );
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    (name = $group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $group() {
            let _ = $config;
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench `main` running the given groups.
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

    fn trivial_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim_test");
        group.sample_size(3);
        group.bench_function("add", |b| b.iter(|| 1u64 + 1));
        group.bench_with_input(BenchmarkId::new("times", 2), &2u64, |b, &x| {
            b.iter(|| x * 3)
        });
        group.finish();
    }

    criterion_group!(benches, trivial_bench);

    #[test]
    fn group_macro_runs() {
        benches();
    }
}
