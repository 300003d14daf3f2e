//! Differential harness for the ensemble query path: Algorithm 1's
//! combine step (σ-rank → τ-filter → max-normalize → point-wise
//! combine) and the top-k window ranking.
//!
//! Both are checked bit for bit against oracles kept here verbatim
//! from the straightforward implementations they replaced: the combine
//! oracle clones and zero-pads every member curve, normalizes copies,
//! and runs `select_nth_unstable_by` on each gathered column; the
//! ranking oracle fully sorts every window score. The production
//! kernel instead borrows the member curves, reads the padding
//! implicitly, sorts eight points at a time through a compare-exchange
//! network, and pops the window scores lazily from a heap.

#![forbid(unsafe_code)]

use egi_core::{
    rank_anomalies, Candidate, Combiner, EnsembleConfig, EnsembleDetector, RuleDensityCurve,
    StreamingEnsembleDetector,
};
use egi_tskit::stats::PrefixStats;
use egi_tskit::window::{intervals_overlap, window_count};
use egi_tskit::StreamSession;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const COMBINERS: [Combiner; 4] = [
    Combiner::Median,
    Combiner::Mean,
    Combiner::Min,
    Combiner::Max,
];

// ---------------------------------------------------------------------------
// Oracles: the replaced implementations, verbatim
// ---------------------------------------------------------------------------

fn oracle_combine_column(combiner: Combiner, column: &mut [f64]) -> f64 {
    debug_assert!(!column.is_empty());
    match combiner {
        Combiner::Median => {
            let mid = column.len() / 2;
            column.select_nth_unstable_by(mid, |x, y| x.partial_cmp(y).expect("finite density"));
            let hi = column[mid];
            if column.len() % 2 == 1 {
                hi
            } else {
                let lo = column[..mid]
                    .iter()
                    .cloned()
                    .fold(f64::NEG_INFINITY, f64::max);
                0.5 * (lo + hi)
            }
        }
        Combiner::Mean => column.iter().sum::<f64>() / column.len() as f64,
        Combiner::Min => column.iter().cloned().fold(f64::INFINITY, f64::min),
        Combiner::Max => column.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    }
}

fn oracle_rank_members(selectivity: f64, stds: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..stds.len()).collect();
    order.sort_by(|&x, &y| {
        stds[y]
            .partial_cmp(&stds[x])
            .expect("stddev is finite")
            .then(x.cmp(&y))
    });
    let keep = ((selectivity * stds.len() as f64).round() as usize).clamp(1, stds.len());
    order.truncate(keep);
    order
}

fn oracle_combine_curves(config: EnsembleConfig, curves: Vec<RuleDensityCurve>) -> Vec<f64> {
    assert!(!curves.is_empty(), "no ensemble members");
    let len = curves[0].len();
    debug_assert!(curves.iter().all(|c| c.len() == len));

    let stds: Vec<f64> = curves.iter().map(RuleDensityCurve::stddev).collect();
    let order = oracle_rank_members(config.selectivity, &stds);
    let keep = order.len();

    let mut kept: Vec<RuleDensityCurve> = order.iter().map(|&i| curves[i].clone()).collect();
    for c in kept.iter_mut() {
        c.normalize_by_max();
    }

    let mut values = Vec::with_capacity(len);
    let mut column = vec![0.0f64; keep];
    for t in 0..len {
        for (slot, c) in column.iter_mut().zip(&kept) {
            *slot = c.values[t];
        }
        values.push(oracle_combine_column(config.combiner, &mut column));
    }
    values
}

/// The streaming snapshot as it was: clone every member curve, pad it
/// with zeros to the series length, combine the copies.
fn oracle_snapshot(config: EnsembleConfig, rows: &[Vec<f64>], len: usize) -> Vec<f64> {
    let curves = rows
        .iter()
        .map(|r| {
            let mut values = r.clone();
            values.resize(len, 0.0);
            RuleDensityCurve { values }
        })
        .collect();
    oracle_combine_curves(config, curves)
}

fn oracle_rank_anomalies(curve: &[f64], n: usize, k: usize) -> Vec<Candidate> {
    let count = window_count(curve.len(), n);
    if count == 0 || k == 0 {
        return Vec::new();
    }
    let ps = PrefixStats::new(curve);
    let mut order: Vec<usize> = (0..count).collect();
    let scores: Vec<f64> = (0..count)
        .map(|s| ps.range_sum(s, s + n) / n as f64)
        .collect();
    order.sort_by(|&x, &y| {
        scores[x]
            .partial_cmp(&scores[y])
            .expect("density scores are finite")
            .then(x.cmp(&y))
    });

    let mut picked: Vec<Candidate> = Vec::with_capacity(k);
    for s in order {
        if picked.len() == k {
            break;
        }
        if picked
            .iter()
            .all(|c| !intervals_overlap(c.start, c.len, s, n))
        {
            picked.push(Candidate {
                start: s,
                len: n,
                score: scores[s],
            });
        }
    }
    picked
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `n` non-negative integer-valued rows of `len` points. Besides plain
/// random rows the mix holds all-zero rows, exact copies and reversals
/// of earlier rows (σ ties with equal or mirrored columns), and flat
/// rows; small value ranges make equal values within a column common.
fn random_rows(rng: &mut StdRng, n: usize, len: usize) -> Vec<Vec<f64>> {
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for _ in 0..n {
        let row = match rng.gen_range(0..6u32) {
            0 => vec![0.0; len],
            1 if !rows.is_empty() => rows[rng.gen_range(0..rows.len())].clone(),
            2 if !rows.is_empty() => {
                let mut r = rows[rng.gen_range(0..rows.len())].clone();
                r.reverse();
                r
            }
            3 => vec![rng.gen_range(1..5u32) as f64; len],
            _ => {
                let hi = rng.gen_range(1..12u32);
                (0..len).map(|_| rng.gen_range(0..=hi) as f64).collect()
            }
        };
        rows.push(row);
    }
    rows
}

/// A selectivity giving exactly `keep` of `n` members under the
/// detector's `round(τ·N)` cut.
fn selectivity_for(keep: usize, n: usize) -> f64 {
    keep as f64 / n as f64
}

fn config(window: usize, n: usize, selectivity: f64, combiner: Combiner) -> EnsembleConfig {
    EnsembleConfig {
        window,
        ensemble_size: n,
        selectivity,
        combiner,
        ..EnsembleConfig::default()
    }
}

fn curves_of(rows: &[Vec<f64>]) -> Vec<RuleDensityCurve> {
    rows.iter()
        .map(|r| RuleDensityCurve { values: r.clone() })
        .collect()
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `combine_curves` equals the clone-normalize-select oracle bit for
    /// bit, for N from 1 to 60, keep = 1, keep = N, odd and even keeps
    /// in between, and every combiner.
    #[test]
    fn combine_curves_matches_oracle(
        seed in 0u64..u64::MAX,
        n in 1usize..=60,
        len in 0usize..=41,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = random_rows(&mut rng, n, len);
        let mid = rng.gen_range(1..=n);
        let keeps = [1, n, mid, (mid | 1).min(n), (mid & !1).max(1)];
        for keep in keeps {
            for combiner in COMBINERS {
                let cfg = config(8, n, selectivity_for(keep, n), combiner);
                let got = EnsembleDetector::new(cfg).combine_curves(curves_of(&rows));
                let want = oracle_combine_curves(cfg, curves_of(&rows));
                prop_assert_eq!(
                    bits(&got.values),
                    bits(&want),
                    "n={} len={} keep={} {:?}", n, len, keep, combiner
                );
            }
        }
        // An arbitrary τ as well, not just exact keep fractions.
        let tau = rng.gen_range(1..=100u32) as f64 / 100.0;
        let cfg = config(8, n, tau, Combiner::Median);
        let got = EnsembleDetector::new(cfg).combine_curves(curves_of(&rows));
        prop_assert_eq!(bits(&got.values), bits(&oracle_combine_curves(cfg, curves_of(&rows))));
    }

    /// A streaming snapshot whose members hold curves of different
    /// lengths — refreshed at the previous series length, at the
    /// current one, or never (empty) — equals the oracle that clones
    /// and zero-pads every member curve. The member curves are
    /// reconstructed from batch `member_curves` on the series prefix
    /// each member last refreshed at.
    #[test]
    fn snapshot_rows_shorter_than_series_match_oracle(
        seed in 0u64..u64::MAX,
        n in 1usize..=12,
        first in 0usize..=120,
        second in 1usize..=60,
        refreshed in 0usize..=12,
        combiner_index in 0usize..4,
        caught_up in 0u32..2,
    ) {
        let window = 16;
        let combiner = COMBINERS[combiner_index];
        let mut rng = StdRng::seed_from_u64(seed);
        let mid = rng.gen_range(1..=n);
        let cfg = config(window, n, selectivity_for(mid, n), combiner);
        let series: Vec<f64> = (0..first + second)
            .map(|i| (i as f64 * 0.21).sin() + rng.gen_range(0..3u32) as f64 * 0.3)
            .collect();
        let (a, b) = series.split_at(first);

        let mut det = StreamingEnsembleDetector::new(cfg, seed);
        let members = det.member_params();
        let batch = EnsembleDetector::new(cfg);
        // Members at or past `refreshed` keep the older state: the
        // curve at `first` points when the first chunk was drained,
        // otherwise the empty curve of a never-refreshed member.
        let older: Vec<Vec<f64>> = if caught_up == 1 && !a.is_empty() {
            det.append(a);
            det.run_for(usize::MAX);
            batch.member_curves(a, &members).into_iter().map(|c| c.values).collect()
        } else {
            det.append(a);
            vec![Vec::new(); members.len()]
        };
        det.append(b);
        let refreshed = refreshed.min(members.len());
        det.run_for(refreshed);
        let newer = batch.member_curves(&series, &members);
        let rows: Vec<Vec<f64>> = (0..members.len())
            .map(|i| if i < refreshed { newer[i].values.clone() } else { older[i].clone() })
            .collect();

        let got = det.snapshot();
        let want = oracle_snapshot(cfg, &rows, series.len());
        prop_assert_eq!(
            bits(&got.values),
            bits(&want),
            "n={} first={} second={} refreshed={} {:?}", n, first, second, refreshed, combiner
        );
    }

    /// Lazy top-k equals the full-sort oracle: starts and score bits,
    /// on tie-heavy curves, with k = 0, k beyond the number of
    /// non-overlapping windows, and windows longer than the curve.
    #[test]
    fn rank_anomalies_matches_full_sort(
        seed in 0u64..u64::MAX,
        len in 0usize..=160,
        n in 0usize..=48,
        k in 0usize..=8,
        shape in 0u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let curve: Vec<f64> = match shape {
            0 => vec![rng.gen_range(0..3u32) as f64; len],
            1 => (0..len).map(|_| rng.gen_range(0..2u32) as f64).collect(),
            2 => (0..len).map(|i| ((i / 7) % 3) as f64 * 0.5).collect(),
            _ => (0..len).map(|_| rng.gen_range(0..1000u32) as f64 / 7.0).collect(),
        };
        for k in [k, 0, 1000] {
            let got = rank_anomalies(&curve, n, k);
            let want = oracle_rank_anomalies(&curve, n, k);
            let key = |c: &[Candidate]| -> Vec<(usize, usize, u64)> {
                c.iter().map(|c| (c.start, c.len, c.score.to_bits())).collect()
            };
            prop_assert_eq!(key(&got), key(&want), "len={} n={} k={} shape={}", len, n, k, shape);
        }
    }
}

/// A NaN curve still panics in the σ ranking: its standard deviation
/// cannot be ordered against the others.
#[test]
#[should_panic(expected = "stddev is finite")]
fn nan_curve_panics() {
    let det = EnsembleDetector::new(config(8, 3, 0.5, Combiner::Median));
    det.combine_curves(vec![
        RuleDensityCurve {
            values: vec![1.0, 2.0, 0.0],
        },
        RuleDensityCurve {
            values: vec![1.0, f64::NAN, 0.0],
        },
        RuleDensityCurve {
            values: vec![3.0, 2.0, 1.0],
        },
    ]);
}

/// Curves of different lengths are rejected, not truncated or padded.
#[test]
#[should_panic(expected = "differ in length")]
fn combine_curves_rejects_a_longer_tail() {
    let det = EnsembleDetector::new(config(8, 2, 1.0, Combiner::Median));
    det.combine_curves(vec![
        RuleDensityCurve {
            values: vec![1.0, 2.0],
        },
        RuleDensityCurve {
            values: vec![1.0, 2.0, 3.0],
        },
    ]);
}
