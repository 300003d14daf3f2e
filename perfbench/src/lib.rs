//! The repository benchmark: one paper-corpus detection workload and
//! three fleet-serving workloads, each reported end to end and split by
//! layer.
//!
//! Every workload drives the public API of the workspace crates from one
//! benchmark thread, and the program's own parallel calls (ensemble
//! members, fleet sessions) are pinned to that thread too: see
//! [`THREADS`]. Inputs are
//! generated from the `--seed` argument only. An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) re-drives the same work through the benchmark's own
//! timers around public calls and reports the per-layer metrics. Nothing
//! is added inside the program under test.
//!
//! See `README.md` next to this crate for the metric table and the
//! layer → end-to-end → workload map.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

mod corpus;
mod fleet;
mod layers;
mod shadow;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "corpus_detect",
    "ensemble_grow",
    "ensemble_window",
    "discord_window",
];

/// Worker threads of the program's parallel calls. On a small shared
/// host the time of a call that fans out to a second core depends on
/// whether the other tenants leave that core free, which swings a
/// workload's timings far more than any change to the program; one
/// worker measures the work itself. Serial and parallel results are bit
/// identical.
pub const THREADS: usize = 1;

/// Anomalies ranked per answer (the paper's best-of-top-3 protocol).
pub const TOP_K: usize = 3;

/// Starts of the first [`TOP_K`] anomalies of a report.
pub fn top_starts(report: &egi_core::AnomalyReport) -> Vec<usize> {
    report
        .anomalies
        .iter()
        .take(TOP_K)
        .map(|c| c.start)
        .collect()
}

/// How much work a run does: `Full` is the benchmark proper, `Test` a
/// reduced size for the crate's own determinism tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Small sizes with the same code paths, for `cargo test`.
    Test,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// What one run produced: the operation tally and the metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (detect calls, fleet calls, output checks).
    pub attempted: u64,
    /// Operations that returned `Err`, panicked, or failed a check.
    pub failed: u64,
    /// Human-readable description of every failure.
    pub failures: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Runs one operation, counting it; a panic counts as a failure and
    /// yields `None`.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(_) => {
                self.fail(format!("{what}: panicked"));
                None
            }
        }
    }

    /// Runs one fallible operation, counting it; `Err` or a panic counts
    /// as a failure and yields `None`.
    pub fn try_op<T, E: std::fmt::Debug>(
        &mut self,
        what: &str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        match self.op(what, f)? {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e:?}"));
                None
            }
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> Result<Outcome, String> {
    let kind = match workload {
        "corpus_detect" => None,
        "ensemble_grow" => Some(fleet::Kind::EnsembleGrow),
        "ensemble_window" => Some(fleet::Kind::EnsembleWindow),
        "discord_window" => Some(fleet::Kind::DiscordWindow),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let mut out = Outcome::default();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .expect("a thread count is all the pool holds");
    pool.install(|| match kind {
        None => corpus::run(&mut out, seed, seconds, trace, scale),
        Some(kind) => fleet::run(&mut out, kind, seed, seconds, trace, scale),
    });
    if trace {
        out.put("failed_frac", out.failed_frac(), "frac");
    }
    // JSON has no NaN or infinity: a metric that is not a finite number
    // fails the run instead of being reported.
    let broken: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    for name in broken {
        out.check(false, || format!("metric {name} is not finite"));
    }
    Ok(out)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed())
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks; 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Contiguous blocks [`blocked_quantile`] splits a time series into.
const BLOCKS: usize = 5;

/// The `q`-quantile of a time-ordered sample, made robust to a transient
/// slow period of the host: the samples are cut into [`BLOCKS`]
/// contiguous blocks and the median of the per-block quantiles is
/// reported.
pub fn blocked_quantile(samples: &[f64], q: f64) -> f64 {
    if samples.len() < BLOCKS {
        return quantile(samples, q);
    }
    let per = samples.len().div_ceil(BLOCKS);
    let blocks: Vec<f64> = samples.chunks(per).map(|b| quantile(b, q)).collect();
    median(&blocks)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Time of one [`calibration_kernel`] run on the reference host, in ms.
/// End-to-end timings are reported at the reference host's speed: see
/// [`HostSpeed`].
pub const REFERENCE_CALIBRATION_MS: f64 = 1.0;

/// A fixed piece of CPU and memory work that touches no code of the
/// program under test: sort 32768 pseudo-random doubles, then gather
/// them with a large stride. Returns its time in ms.
fn calibration_kernel() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut v: Vec<f64> = (0..32768)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect();
    v.sort_unstable_by(f64::total_cmp);
    let mut acc = 0.0;
    for i in 0..v.len() {
        acc += (v[i] * 3.7).sqrt() * v[(i * 7919) % v.len()];
    }
    black_box(acc);
    ms(start.elapsed())
}

/// The host's speed through a run, for reporting timings at the speed
/// of a fixed reference host.
///
/// A small shared host runs the same code up to 2× slower when its other
/// tenants are busy, switching within seconds as well as over minutes;
/// that swing is larger than the change a benchmark must resolve. So a
/// run times the [`calibration_kernel`] right before every timed
/// operation and once more after the last one: operation `i` sits
/// between samples `i` and `i + 1`, and its time is multiplied by
/// `REFERENCE_CALIBRATION_MS ÷` the mean of those two kernel times. The
/// kernel runs none of the program's code, so the factor follows the
/// host, not the program, and a change to the program moves a scaled
/// time by the same share as the raw one.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    /// Runs the calibration kernel once, outside any timed span, and
    /// returns its time in ms.
    pub fn sample(&mut self) -> f64 {
        let t = calibration_kernel();
        self.samples_ms.push(t);
        t
    }

    /// Samples taken so far.
    pub fn len(&self) -> usize {
        self.samples_ms.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.samples_ms.is_empty()
    }

    /// The factor that turns the time of the operation between samples
    /// `i` and `i + 1` (or after sample `i`, if it is the last) into
    /// reference-host time.
    pub fn scale(&self, i: usize) -> f64 {
        let before = self.samples_ms[i];
        let after = self.samples_ms.get(i + 1).copied().unwrap_or(before);
        2.0 * REFERENCE_CALIBRATION_MS / (before + after)
    }

    /// Median kernel time of the run, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where the
/// kernel does not expose it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Current value of an `egi-obs` counter in the process-wide registry.
pub fn obs_counter(name: &'static str) -> u64 {
    egi_obs::global().counter(name).get()
}
