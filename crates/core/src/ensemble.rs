//! Ensemble grammar induction (paper Section 6, Algorithm 1).
//!
//! Instead of betting on one `(w, a)` discretization, run `N` members with
//! random distinct parameter pairs, score each member's rule density curve
//! by its standard deviation, keep the top `τ·N` curves, normalize each to
//! `[0, 1]` by its maximum, and combine point-wise with the median. Members
//! share the prefix-sum statistics, the merged breakpoint table, *and* the
//! PAA coefficient streams (members differing only in alphabet `a` reuse
//! the same stream), so the whole ensemble stays linear in the series
//! length; members execute through the rayon-style runtime in
//! [`crate::runtime`] since they are fully independent, so the current
//! rayon pool's worker count decides the parallelism and never the
//! result.
//!
//! # The combine kernel
//!
//! Combining (lines 7–14) runs on every detection and on every streaming
//! [snapshot](crate::StreamingEnsembleDetector::snapshot), so it reads
//! the member curves in place instead of copying them. σ is summed over
//! each curve and then over its implicit zero padding, in point order,
//! eight curves in lockstep to overlap their independent add chains.
//! The kept curves are combined in blocks of eight points: each curve's
//! block is divided by the curve's maximum, and a compare-exchange
//! network (Batcher's odd-even merge sort: 103 comparators for the
//! paper's 20 kept curves) sorts every lane of the block at once. The
//! median, min and max are read off the sorted positions; the mean
//! sums each lane over the kept curves in order. Every division, sum
//! and selected value is the one the straightforward per-point version
//! makes, so the result is bit-identical to it;
//! `tests/combine_proptests.rs` keeps that version as the oracle.

use egi_sax::{FastSax, MultiResBreakpoints, SaxConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::density::RuleDensityCurve;
use crate::detector::{rank_anomalies, AnomalyReport};
use crate::runtime::{compute_member_curves, MemberJob};

/// How the kept, normalized curves are merged into one.
///
/// The paper uses the median; mean and min are provided for the
/// `ablation_combiner` bench in `egi-bench`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Combiner {
    /// Point-wise median (the paper's choice, robust to outlier members).
    #[default]
    Median,
    /// Point-wise arithmetic mean.
    Mean,
    /// Point-wise minimum (aggressively favors anomaly agreement: one
    /// member voting "uncovered" zeroes the point).
    Min,
    /// Point-wise maximum (conservative: any member covering a point
    /// counts it as covered).
    Max,
}

/// Configuration of the ensemble detector (paper defaults in
/// [`Default`]: `N = 50`, `wmax = amax = 10`, `τ = 40%`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsembleConfig {
    /// Sliding-window length `n`.
    pub window: usize,
    /// Ensemble size `N`: how many `(w, a)` pairs are drawn.
    pub ensemble_size: usize,
    /// Maximum PAA size; members draw `w ∈ [2, wmax]`.
    pub wmax: usize,
    /// Maximum alphabet size; members draw `a ∈ [2, amax]`.
    pub amax: usize,
    /// Ensemble selectivity `τ ∈ (0, 1]`: fraction of curves kept.
    pub selectivity: f64,
    /// Curve combination operator.
    pub combiner: Combiner,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        Self {
            window: 128,
            ensemble_size: 50,
            wmax: 10,
            amax: 10,
            selectivity: 0.4,
            combiner: Combiner::Median,
        }
    }
}

/// The ensemble grammar-induction anomaly detector (Algorithm 1).
#[derive(Debug, Clone)]
pub struct EnsembleDetector {
    config: EnsembleConfig,
}

/// Per-member ensemble diagnostics (see [`EnsembleDetector::diagnostics`]).
#[derive(Debug, Clone)]
pub struct MemberDiagnostics {
    /// The drawn `(w, a)` pairs, in member order.
    pub params: Vec<SaxConfig>,
    /// Raw (unnormalized) rule density curves, in member order.
    pub curves: Vec<RuleDensityCurve>,
    /// Standard deviation of each curve (the quality score).
    pub stds: Vec<f64>,
    /// Indices of the members kept by the τ filter, best first.
    pub kept: Vec<usize>,
}

impl EnsembleDetector {
    /// Creates a detector, validating the configuration.
    ///
    /// # Panics
    ///
    /// Panics on an empty parameter space (`wmax < 2` or `amax < 2`),
    /// `ensemble_size == 0`, a selectivity outside `(0, 1]`, or a window
    /// shorter than 2 points.
    pub fn new(config: EnsembleConfig) -> Self {
        assert!(config.window >= 2, "window must be at least 2");
        assert!(config.ensemble_size > 0, "ensemble size must be positive");
        assert!(
            config.wmax >= 2 && config.amax >= 2,
            "wmax/amax must be ≥ 2"
        );
        assert!(
            config.selectivity > 0.0 && config.selectivity <= 1.0,
            "selectivity must be in (0, 1]"
        );
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> EnsembleConfig {
        self.config
    }

    /// Draws the member parameter pairs for `seed`: up to `N` distinct
    /// `(w, a)` with `w ∈ [2, min(wmax, window)]`, `a ∈ [2, amax]`
    /// (Algorithm 1 lines 4–5; "any w, a combination is used only once").
    pub fn member_params(&self, seed: u64) -> Vec<SaxConfig> {
        let w_hi = self.config.wmax.min(self.config.window);
        let mut pairs: Vec<SaxConfig> = (2..=w_hi)
            .flat_map(|w| (2..=self.config.amax).map(move |a| SaxConfig::new(w, a)))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        pairs.shuffle(&mut rng);
        pairs.truncate(self.config.ensemble_size);
        pairs
    }

    /// Computes one rule density curve per member parameter pair.
    ///
    /// Curves come back in `params` order regardless of scheduling, and
    /// are bit-identical for every rayon worker count. Members sharing a
    /// PAA size `w` share one precomputed coefficient stream (see
    /// [`crate::runtime`]).
    pub fn member_curves(&self, series: &[f64], params: &[SaxConfig]) -> Vec<RuleDensityCurve> {
        let fast = FastSax::new(series);
        let multi = MultiResBreakpoints::new(self.config.amax);
        let jobs: Vec<MemberJob> = params
            .iter()
            .map(|&sax| MemberJob {
                window: self.config.window,
                sax,
            })
            .collect();
        compute_member_curves(&fast, &multi, &jobs)
    }

    /// Algorithm 1: builds the ensemble rule density curve.
    pub fn ensemble_curve(&self, series: &[f64], seed: u64) -> RuleDensityCurve {
        let params = self.member_params(seed);
        let curves = self.member_curves(series, &params);
        self.combine_curves(curves)
    }

    /// Filtering + normalization + combination (Algorithm 1 lines 7–14),
    /// exposed separately so tests and ablations can inject curves.
    ///
    /// The curves are read in place: only the output curve is
    /// allocated. σ is summed in each curve's point order, so the τ
    /// filter sees exactly [`RuleDensityCurve::stddev`]. The kept curves
    /// are then combined eight points at a time: each kept curve's
    /// block is divided by its maximum and the median is read off a
    /// Batcher compare-exchange network applied lane-wise, so the
    /// result is bit-identical to normalizing copies and selecting the
    /// median point by point (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if `curves` is empty, if the curves differ in length, or
    /// if there is more than one curve and one holds a non-finite value
    /// (its σ is NaN and cannot be ranked).
    pub fn combine_curves(&self, curves: Vec<RuleDensityCurve>) -> RuleDensityCurve {
        assert!(!curves.is_empty(), "no ensemble members");
        let len = curves[0].len();
        assert!(
            curves.iter().all(|c| c.len() == len),
            "ensemble member curves differ in length"
        );
        let rows: Vec<&[f64]> = curves.iter().map(|c| c.values.as_slice()).collect();
        self.combine_rows(&rows, len)
    }

    /// [`combine_curves`](Self::combine_curves) over borrowed member
    /// rows, each read as if zero-padded to `len` points — bit-identical
    /// to padding copies of the rows and combining those. This is how a
    /// streaming snapshot serves a stale member's shorter curve.
    pub(crate) fn combine_rows(&self, rows: &[&[f64]], len: usize) -> RuleDensityCurve {
        assert!(!rows.is_empty(), "no ensemble members");
        assert!(
            rows.iter().all(|r| r.len() <= len),
            "member curve longer than the combined length"
        );
        let stds = padded_stddevs(rows, len);
        let kept: Vec<KeptRow<'_>> = self
            .rank_members(&stds)
            .into_iter()
            .map(|i| KeptRow::new(rows[i]))
            .collect();
        RuleDensityCurve {
            values: combine_kept(self.config.combiner, &kept, len),
        }
    }

    /// Per-member diagnostics: parameters, raw curves, standard
    /// deviations, and which members survived the τ filter — everything
    /// needed to reproduce the paper's Figure 5 (top-2 vs bottom-2 curves
    /// by std ranking).
    pub fn diagnostics(&self, series: &[f64], seed: u64) -> MemberDiagnostics {
        let params = self.member_params(seed);
        let curves = self.member_curves(series, &params);
        let stds: Vec<f64> = curves.iter().map(RuleDensityCurve::stddev).collect();
        let kept = self.rank_members(&stds);
        MemberDiagnostics {
            params,
            curves,
            stds,
            kept,
        }
    }

    /// The τ filter (Algorithm 1 lines 9–10): member indices ranked by
    /// curve standard deviation, descending, with the index breaking
    /// ties so the procedure is deterministic, cut to the kept
    /// `round(τ·N)` (at least one). Shared by
    /// [`combine_curves`](Self::combine_curves) and
    /// [`diagnostics`](Self::diagnostics), so the Figure 5 diagnostics
    /// always name the members detection keeps.
    fn rank_members(&self, stds: &[f64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..stds.len()).collect();
        order.sort_by(|&x, &y| {
            stds[y]
                .partial_cmp(&stds[x])
                .expect("stddev is finite")
                .then(x.cmp(&y))
        });
        let keep =
            ((self.config.selectivity * stds.len() as f64).round() as usize).clamp(1, stds.len());
        order.truncate(keep);
        order
    }

    /// Full detection: ensemble curve → top-`k` non-overlapping minima.
    ///
    /// # Panics
    ///
    /// Panics if `series` contains non-finite values (NaN/±∞ would poison
    /// the shared prefix sums silently).
    pub fn detect(&self, series: &[f64], k: usize, seed: u64) -> AnomalyReport {
        assert!(
            series.iter().all(|v| v.is_finite()),
            "series contains non-finite values"
        );
        let curve = self.ensemble_curve(series, seed);
        let anomalies = rank_anomalies(&curve.values, self.config.window, k);
        AnomalyReport {
            anomalies,
            curve: curve.values,
        }
    }
}

/// Rows whose σ sums advance together in [`padded_stddevs`]: their add
/// chains are independent, so they overlap instead of each waiting on
/// its own previous add.
const SIGMA_GROUP: usize = 8;

/// Points combined per block in [`combine_kept`].
const LANES: usize = 8;

/// Population σ of each row zero-padded to `len` points, bit-identical
/// to [`RuleDensityCurve::stddev`] on a padded copy: every row's mean
/// and squared-deviation sums run over its points and then its padding,
/// in order, exactly as `stddev_population` sums the padded curve.
fn padded_stddevs(rows: &[&[f64]], len: usize) -> Vec<f64> {
    fn group_stddevs<const G: usize>(rows: &[&[f64]], len: usize) -> [f64; G] {
        let rows: [&[f64]; G] = std::array::from_fn(|j| rows[j]);
        let n = len as f64;
        let means = padded_sums(rows, len, |_, v| v).map(|s| s / n);
        padded_sums(rows, len, |j, v| (v - means[j]) * (v - means[j])).map(|s| (s / n).sqrt())
    }

    if len == 0 {
        return vec![0.0; rows.len()];
    }
    let groups = rows.chunks_exact(SIGMA_GROUP);
    let rest = groups.remainder();
    let mut stds: Vec<f64> = groups
        .flat_map(|group| group_stddevs::<SIGMA_GROUP>(group, len))
        .collect();
    stds.extend(rest.chunks(1).flat_map(|row| group_stddevs::<1>(row, len)));
    stds
}

/// Per row, the sum of `term(row, value)` over the row's points followed
/// by its zero padding up to `len`, accumulated in point order from
/// `-0.0` as `Iterator::sum` does. The rows advance in lockstep over
/// their common prefix.
fn padded_sums<const G: usize>(
    rows: [&[f64]; G],
    len: usize,
    term: impl Fn(usize, f64) -> f64,
) -> [f64; G] {
    let common = rows.iter().map(|r| r.len()).min().unwrap_or(0);
    let mut acc = [-0.0f64; G];
    // `t` is the point index into every row of the group.
    #[allow(clippy::needless_range_loop)]
    for t in 0..common {
        for (j, a) in acc.iter_mut().enumerate() {
            *a += term(j, rows[j][t]);
        }
    }
    for (j, a) in acc.iter_mut().enumerate() {
        for &v in &rows[j][common..] {
            *a += term(j, v);
        }
        for _ in rows[j].len()..len {
            *a += term(j, 0.0);
        }
    }
    acc
}

/// A kept member row and the divisor that max-normalizes it.
struct KeptRow<'a> {
    values: &'a [f64],
    /// The row's maximum, or `1.0` for a row without a positive value:
    /// [`RuleDensityCurve::normalize_by_max`] leaves such a row as is,
    /// and `v / 1.0 == v` exactly.
    divisor: f64,
}

impl<'a> KeptRow<'a> {
    fn new(values: &'a [f64]) -> Self {
        // Zero padding never raises a maximum that starts at 0.0.
        let max = values.iter().cloned().fold(0.0f64, f64::max);
        Self {
            values,
            divisor: if max > 0.0 { max } else { 1.0 },
        }
    }

    /// Normalized values of points `t0..t0 + LANES`; points past the
    /// row's end are zero padding.
    fn load(&self, t0: usize, lanes: &mut [f64; LANES]) {
        match self.values.get(t0..t0 + LANES) {
            Some(src) => {
                let src: &[f64; LANES] = src.try_into().expect("LANES points");
                *lanes = src.map(|v| v / self.divisor);
            }
            None => {
                for (l, slot) in lanes.iter_mut().enumerate() {
                    *slot = self.values.get(t0 + l).map_or(0.0, |&v| v / self.divisor);
                }
            }
        }
    }
}

/// Point-wise combination of the normalized kept rows (Algorithm 1 line
/// 14) over `len` points, [`LANES`] points per block.
///
/// Median, Min and Max sort each lane with the [`sorting_network`] and
/// read the order statistics off the sorted positions: the values
/// `select_nth_unstable` or a min/max fold would pick. Mean sums each
/// lane over the rows in kept order, as a per-point sum would.
fn combine_kept(combiner: Combiner, kept: &[KeptRow<'_>], len: usize) -> Vec<f64> {
    let keep = kept.len();
    let network = match combiner {
        Combiner::Mean => Vec::new(),
        _ => sorting_network(keep),
    };
    let mut block = vec![[0.0f64; LANES]; keep];
    let mut values = Vec::with_capacity(len);
    for t0 in (0..len).step_by(LANES) {
        for (lanes, row) in block.iter_mut().zip(kept) {
            row.load(t0, lanes);
        }
        for &(a, b) in &network {
            let (x, y) = (block[a], block[b]);
            for l in 0..LANES {
                let swap = y[l] < x[l];
                block[a][l] = if swap { y[l] } else { x[l] };
                block[b][l] = if swap { x[l] } else { y[l] };
            }
        }
        let mid = keep / 2;
        let out: [f64; LANES] = match combiner {
            Combiner::Median if keep % 2 == 1 => block[mid],
            Combiner::Median => std::array::from_fn(|l| 0.5 * (block[mid - 1][l] + block[mid][l])),
            Combiner::Min => block[0],
            Combiner::Max => block[keep - 1],
            Combiner::Mean => {
                // `Iterator::sum` starts from -0.0.
                let mut sum = [-0.0f64; LANES];
                for row in &block {
                    for (s, &v) in sum.iter_mut().zip(row) {
                        *s += v;
                    }
                }
                sum.map(|s| s / keep as f64)
            }
        };
        values.extend_from_slice(&out[..LANES.min(len - t0)]);
    }
    values
}

/// The compare-exchange pairs `(lo, hi)` of Batcher's odd-even merge
/// sort on `n` wires (Batcher, AFIPS 1968); each puts the smaller value
/// on `lo`. This is the power-of-two network with every comparator
/// touching a wire `>= n` left out, which sorts any `n`.
fn sorting_network(n: usize) -> Vec<(usize, usize)> {
    let mut network = Vec::new();
    let mut p = 1;
    while p < n {
        let mut k = p;
        while k >= 1 {
            let mut j = k % p;
            while j + k < n {
                for i in 0..k.min(n - j - k) {
                    if (i + j) / (2 * p) == (i + j + k) / (2 * p) {
                        network.push((i + j, i + j + k));
                    }
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
    network
}

#[cfg(test)]
mod tests {
    use super::*;
    use egi_tskit::gen::ecg::{ecg_beat, EcgParams};

    fn beat_train(beats: usize, beat_len: usize, anomaly_at: usize) -> (Vec<f64>, usize) {
        let normal = ecg_beat(beat_len, &EcgParams::default());
        let weird = ecg_beat(beat_len, &EcgParams::ectopic());
        let mut series = Vec::new();
        let mut gt = 0;
        for b in 0..beats {
            if b == anomaly_at {
                gt = series.len();
                series.extend_from_slice(&weird);
            } else {
                series.extend_from_slice(&normal);
            }
        }
        (series, gt)
    }

    fn config(window: usize) -> EnsembleConfig {
        EnsembleConfig {
            window,
            ensemble_size: 20,
            ..EnsembleConfig::default()
        }
    }

    #[test]
    fn member_params_are_distinct_and_in_range() {
        let det = EnsembleDetector::new(config(64));
        let params = det.member_params(1);
        assert_eq!(params.len(), 20);
        let mut seen = std::collections::HashSet::new();
        for p in &params {
            assert!((2..=10).contains(&p.w));
            assert!((2..=10).contains(&p.a));
            assert!(seen.insert((p.w, p.a)), "duplicate pair {p}");
        }
    }

    #[test]
    fn member_params_respect_small_window() {
        let det = EnsembleDetector::new(EnsembleConfig {
            window: 4,
            ..config(4)
        });
        for p in det.member_params(3) {
            assert!(p.w <= 4, "w={} exceeds window 4", p.w);
        }
    }

    #[test]
    fn ensemble_size_larger_than_space_uses_all_pairs() {
        let det = EnsembleDetector::new(EnsembleConfig {
            ensemble_size: 500,
            ..config(64)
        });
        // 9 × 9 = 81 pairs available.
        assert_eq!(det.member_params(0).len(), 81);
    }

    #[test]
    fn params_are_deterministic_per_seed() {
        let det = EnsembleDetector::new(config(64));
        assert_eq!(det.member_params(7), det.member_params(7));
        assert_ne!(det.member_params(7), det.member_params(8));
    }

    #[test]
    fn detects_planted_anomaly() {
        let beat_len = 100;
        let (series, gt) = beat_train(20, beat_len, 12);
        let det = EnsembleDetector::new(config(beat_len));
        let report = det.detect(&series, 1, 42);
        let found = report.top_location().expect("one candidate");
        assert!(
            (found as i64 - gt as i64).unsigned_abs() as usize <= beat_len,
            "found {found}, gt {gt}"
        );
    }

    #[test]
    fn one_and_many_workers_agree_exactly() {
        let (series, _) = beat_train(12, 64, 6);
        let det = EnsembleDetector::new(config(64));
        let on_workers = |threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| det.detect(&series, 3, 5))
        };
        let a = on_workers(4);
        let b = on_workers(1);
        assert_eq!(a, b);
    }

    #[test]
    fn diagnostics_keep_exactly_the_members_detection_combines() {
        let (series, _) = beat_train(12, 64, 6);
        let det = EnsembleDetector::new(config(64));
        let diag = det.diagnostics(&series, 9);
        assert_eq!(diag.kept.len(), 8, "round(0.4 × 20)");
        assert!(diag
            .kept
            .windows(2)
            .all(|p| diag.stds[p[0]] >= diag.stds[p[1]]));
        // Combining only the kept curves with τ = 1 reproduces the
        // ensemble curve: the median ignores the kept members' order.
        let all = EnsembleDetector::new(EnsembleConfig {
            selectivity: 1.0,
            ..config(64)
        });
        let kept: Vec<RuleDensityCurve> =
            diag.kept.iter().map(|&i| diag.curves[i].clone()).collect();
        assert_eq!(all.combine_curves(kept), det.ensemble_curve(&series, 9));
    }

    #[test]
    fn combine_keeps_zero_regions_zero_under_median() {
        let det = EnsembleDetector::new(EnsembleConfig {
            selectivity: 1.0,
            ..config(8)
        });
        // Three curves that all vanish at point 2.
        let curves = vec![
            RuleDensityCurve {
                values: vec![2.0, 4.0, 0.0, 2.0],
            },
            RuleDensityCurve {
                values: vec![1.0, 2.0, 0.0, 1.0],
            },
            RuleDensityCurve {
                values: vec![3.0, 3.0, 0.0, 3.0],
            },
        ];
        let combined = det.combine_curves(curves);
        assert_eq!(combined.values[2], 0.0);
        assert!(combined.values[0] > 0.0);
    }

    #[test]
    fn selectivity_drops_low_std_curves() {
        let det = EnsembleDetector::new(EnsembleConfig {
            selectivity: 0.5,
            combiner: Combiner::Mean,
            ..config(8)
        });
        // One informative curve (high std) and one flat curve. τ = 50%
        // keeps only the informative one.
        let curves = vec![
            RuleDensityCurve {
                values: vec![4.0, 4.0, 4.0, 4.0],
            }, // flat
            RuleDensityCurve {
                values: vec![4.0, 0.0, 4.0, 4.0],
            }, // dip
        ];
        let combined = det.combine_curves(curves);
        // The kept curve normalized: [1, 0, 1, 1].
        assert_eq!(combined.values, vec![1.0, 0.0, 1.0, 1.0]);
    }

    /// Combines single-point columns whose values are already in
    /// `[0, 1]`, so normalization leaves them as they are.
    fn combine_column(combiner: Combiner, column: &[f64]) -> f64 {
        let kept: Vec<KeptRow<'_>> = column
            .iter()
            .map(|v| KeptRow {
                values: std::slice::from_ref(v),
                divisor: 1.0,
            })
            .collect();
        combine_kept(combiner, &kept, 1)[0]
    }

    #[test]
    fn median_of_even_count_averages_middle_pair() {
        assert_eq!(combine_column(Combiner::Median, &[0.125, 0.375]), 0.25);
        assert_eq!(
            combine_column(Combiner::Median, &[0.125, 0.25, 0.5, 1.0]),
            0.375
        );
        assert_eq!(
            combine_column(Combiner::Median, &[0.625, 0.125, 1.0]),
            0.625
        );
    }

    #[test]
    fn mean_min_max_combiners() {
        assert_eq!(combine_column(Combiner::Mean, &[0.25, 0.5, 0.75]), 0.5);
        assert_eq!(combine_column(Combiner::Min, &[0.75, 0.25, 0.5]), 0.25);
        assert_eq!(combine_column(Combiner::Max, &[0.75, 0.25, 0.5]), 0.75);
    }

    /// The 0-1 principle: a comparator network sorts every input iff
    /// it sorts every 0/1 input.
    #[test]
    fn sorting_network_sorts_every_binary_input() {
        for n in 0..=14usize {
            let network = sorting_network(n);
            for bits in 0u32..1 << n {
                let mut wires: Vec<u8> = (0..n).map(|i| (bits >> i & 1) as u8).collect();
                for &(a, b) in &network {
                    assert!(a < b && b < n);
                    if wires[b] < wires[a] {
                        wires.swap(a, b);
                    }
                }
                assert!(wires.is_sorted(), "n={n} bits={bits:b}");
            }
        }
    }

    #[test]
    fn sorting_network_of_twenty_has_batchers_size() {
        assert_eq!(sorting_network(20).len(), 103);
    }

    #[test]
    #[should_panic(expected = "selectivity")]
    fn zero_selectivity_rejected() {
        EnsembleDetector::new(EnsembleConfig {
            selectivity: 0.0,
            ..EnsembleConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "no ensemble members")]
    fn combine_empty_panics() {
        let det = EnsembleDetector::new(EnsembleConfig::default());
        det.combine_curves(Vec::new());
    }
}
