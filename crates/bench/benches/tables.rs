//! One benchmark per evaluation workload: the Figure 1 parameter grid,
//! the Table 4/5 per-method detection runs, and the Figure 9 case study.
//!
//! These are *workload* benchmarks: each measures the wall-clock cost of
//! regenerating one table/figure cell at reduced but representative scale,
//! so regressions in any pipeline stage show up in the table they affect.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use egi_bench::fixture_series;
use egi_core::{EnsembleConfig, EnsembleDetector, GiConfig, SingleGiDetector};
use egi_discord::{DiscordConfig, DiscordDetector};
use egi_sax::SaxConfig;
use egi_tskit::gen::power::{dishwasher_series, fridge_freezer_series};
use egi_tskit::gen::UcrFamily;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Figure 1: full (w, a) grid of single runs on a dishwasher trace.
fn bench_fig1_param_grid(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let profile = dishwasher_series(14, Some(7), &mut rng);
    let window = profile.values.len() / 14;
    let mut group = c.benchmark_group("fig1");
    group.sample_size(10);
    group.bench_function("fig1_param_grid", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for w in 2..=10usize {
                for a in 2..=10usize {
                    let det = SingleGiDetector::new(GiConfig {
                        window,
                        sax: SaxConfig::new(w.min(window), a),
                    });
                    total += det.detect(black_box(&profile.values), 3).anomalies.len();
                }
            }
            total
        })
    });
    group.finish();
}

/// Table 4/5: each compared method on one GunPoint series.
fn bench_table4_methods(c: &mut Criterion) {
    let ls = fixture_series(UcrFamily::GunPoint, 11);
    let window = ls.gt_len;
    let mut group = c.benchmark_group("table4_accuracy");
    group.sample_size(10);

    group.bench_function("proposed_N25", |b| {
        let det = EnsembleDetector::new(EnsembleConfig {
            window,
            ensemble_size: 25,
            ..EnsembleConfig::default()
        });
        b.iter(|| det.detect(black_box(&ls.series), 3, 1))
    });
    group.bench_function("gi_fix", |b| {
        let det = SingleGiDetector::new(GiConfig::fixed(window));
        b.iter(|| det.detect(black_box(&ls.series), 3))
    });
    group.bench_function("gi_select", |b| {
        b.iter(|| {
            let cfg = egi_core::select_parameters(black_box(&ls.series), window, 10, 10, 0.1);
            SingleGiDetector::new(GiConfig { window, sax: cfg }).detect(&ls.series, 3)
        })
    });
    group.bench_function("discord_stomp", |b| {
        let det = DiscordDetector::new(DiscordConfig::new(window));
        b.iter(|| det.detect(black_box(&ls.series), 3))
    });
    group.finish();
}

/// Table 10/11 workload: ensemble cost as N grows.
fn bench_ensemble_size(c: &mut Criterion) {
    let ls = fixture_series(UcrFamily::Wafer, 3);
    let window = ls.gt_len;
    let mut group = c.benchmark_group("table10_ensemble_size");
    group.sample_size(10);
    for n in [5usize, 10, 25, 50] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let det = EnsembleDetector::new(EnsembleConfig {
                window,
                ensemble_size: n,
                ..EnsembleConfig::default()
            });
            b.iter(|| det.detect(black_box(&ls.series), 3, 1))
        });
    }
    group.finish();
}

/// Figure 9: case-study detection on a (scaled-down) fridge-freezer trace.
fn bench_fig9_case_study(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let profile = fridge_freezer_series(60_000, 900, &mut rng);
    let mut group = c.benchmark_group("fig9_case_study");
    group.sample_size(10);
    group.bench_function("ensemble_60k_w900", |b| {
        let det = EnsembleDetector::new(EnsembleConfig {
            window: 900,
            ensemble_size: 25,
            ..EnsembleConfig::default()
        });
        b.iter(|| det.detect(black_box(&profile.values), 2, 1))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig1_param_grid,
    bench_table4_methods,
    bench_ensemble_size,
    bench_fig9_case_study
);
criterion_main!(benches);
