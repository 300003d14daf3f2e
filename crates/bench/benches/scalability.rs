//! Figure 8: computation time vs. series length, ensemble grammar
//! induction (linear) vs. STOMP (quadratic).
//!
//! Criterion gives the per-length timings whose growth curves are the
//! figure; the `experiments fig8` binary prints the same series with
//! explicit wall-clock numbers and speedups.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use egi_bench::{fixture_ecg, fixture_walk};
use egi_core::{EnsembleConfig, EnsembleDetector};
use egi_discord::stomp;

const WINDOW: usize = 300;

fn bench_fig8_ensemble(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_ensemble");
    group.sample_size(10);
    for len in [5_000usize, 10_000, 20_000, 40_000] {
        let series = fixture_ecg(len, 8);
        group.throughput(Throughput::Elements(len as u64));
        group.bench_with_input(BenchmarkId::new("ecg", len), &series, |b, s| {
            let det = EnsembleDetector::new(EnsembleConfig {
                window: WINDOW,
                ensemble_size: 25,
                ..EnsembleConfig::default()
            });
            b.iter(|| det.detect(black_box(s), 3, 1))
        });
    }
    for len in [5_000usize, 10_000, 20_000, 40_000] {
        let series = fixture_walk(len, 8);
        group.throughput(Throughput::Elements(len as u64));
        group.bench_with_input(BenchmarkId::new("rw", len), &series, |b, s| {
            let det = EnsembleDetector::new(EnsembleConfig {
                window: WINDOW,
                ensemble_size: 25,
                ..EnsembleConfig::default()
            });
            b.iter(|| det.detect(black_box(s), 3, 1))
        });
    }
    group.finish();
}

fn bench_fig8_stomp(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_stomp");
    group.sample_size(10);
    // Quadratic baseline: keep lengths modest so the suite terminates.
    for len in [2_500usize, 5_000, 10_000] {
        let series = fixture_ecg(len, 8);
        group.throughput(Throughput::Elements(len as u64));
        group.bench_with_input(BenchmarkId::new("ecg", len), &series, |b, s| {
            b.iter(|| stomp(black_box(s), WINDOW))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig8_ensemble, bench_fig8_stomp);
criterion_main!(benches);
