//! `corpus_detect`: the paper's Table-4 evaluation as a closed loop.
//!
//! One caller runs `EnsembleDetector::detect` (default configuration,
//! window = instance length, k = 3) on every series of
//! `CorpusSpec::paper` × the six `UcrFamily::ALL` families, one series
//! at a time, and scores the top-3 against the planted ground truth
//! with `egi_eval::metrics`. The traced run re-drives every series
//! through the same pipeline one public call at a time (PAA → SAX →
//! intern → Sequitur `induce` → density build → combine → rank) and
//! checks it against `detect` bit for bit.

use std::hint::black_box;
use std::time::{Duration, Instant};

use egi_core::{rank_anomalies, AnomalyReport, EnsembleConfig, EnsembleDetector, RuleDensityCurve};
use egi_eval::metrics::{best_score, hit};
use egi_eval::runner::subseed;
use egi_sax::{discretize_from_stream, FastSax, MultiResBreakpoints, PaaStream};
use egi_tskit::corpus::{CorpusSpec, LabeledSeries};
use egi_tskit::gen::ucr::UcrFamily;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::LayerReport;
use crate::{
    median, ms, peak_rss_mib, quantile, timed, top_starts, HostSpeed, Outcome, Scale, TOP_K,
};

/// Set-ups timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 9;
/// Ranking queries timed per detected series for `query_latency_*`.
const QUERY_REPS: usize = 16;

/// One corpus series with its run seed.
struct Case {
    series: LabeledSeries,
    seed: u64,
    detector: EnsembleDetector,
}

/// The corpus for `seed`: 6 families × 25 series (`Test`: × 2 series,
/// 10 members).
fn corpus(seed: u64, scale: Scale) -> Vec<Case> {
    let mut by_family = Vec::new();
    for (fi, family) in UcrFamily::ALL.into_iter().enumerate() {
        let mut spec = CorpusSpec::paper(family);
        let mut config = EnsembleConfig {
            window: family.instance_length(),
            ..EnsembleConfig::default()
        };
        if scale == Scale::Test {
            spec.series_count = 2;
            config.ensemble_size = 10;
        }
        let corpus_seed = subseed(seed, fi as u64 + 1);
        let mut rng = StdRng::seed_from_u64(corpus_seed);
        let cases: Vec<Case> = spec
            .generate(&mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, series)| Case {
                series,
                seed: subseed(corpus_seed, 1000 + i as u64),
                detector: EnsembleDetector::new(config),
            })
            .collect();
        by_family.push(cases.into_iter());
    }
    // Interleave the families so every prefix of a pass holds the same
    // mix of series lengths.
    let mut cases = Vec::new();
    while by_family.iter().any(|f| f.len() > 0) {
        cases.extend(by_family.iter_mut().filter_map(Iterator::next));
    }
    cases
}

pub(crate) fn run(out: &mut Outcome, seed: u64, seconds: f64, trace: bool, scale: Scale) {
    let cases = corpus(seed, scale);
    if trace {
        traced(out, &cases);
    } else {
        untraced(out, &cases, seconds);
    }
}

/// One timed `detect` of the closed loop, in raw ms.
struct Timed {
    /// Index of the series.
    series: usize,
    /// The host-speed sample taken next to it.
    at: usize,
    /// `detect`.
    detect: f64,
    /// `detect` + top-3 ranking.
    serve: f64,
    /// Median of the ranking repeats.
    query: f64,
}

fn untraced(out: &mut Outcome, cases: &[Case], seconds: f64) {
    // Set-up: the first detect call on the first series of each family
    // (one per window length), repeated; excluded below.
    let families = UcrFamily::ALL.len();
    let mut setup_speed = HostSpeed::default();
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        setup_speed.sample();
        let (_, d) = timed(|| {
            for case in &cases[..families] {
                black_box(
                    case.detector
                        .detect(case.series.series.as_slice(), TOP_K, case.seed),
                );
            }
        });
        setup.push(d.as_secs_f64());
    }
    setup_speed.sample();
    let setup: Vec<f64> = (0..setup.len())
        .map(|rep| setup[rep] * setup_speed.scale(rep))
        .collect();

    // Closed loop: passes over the corpus until `seconds` have been
    // spent (at least one whole pass), the host's speed sampled before
    // every series. Throughputs are total points over total time; each
    // series' latency is its median over the passes.
    let budget = Duration::from_secs_f64(seconds);
    let began = Instant::now();
    let mut speed = HostSpeed::default();
    let mut runs: Vec<Timed> = Vec::new();
    let mut first_pass: Vec<Vec<usize>> = Vec::new();
    let mut pass = 0;
    'passes: while pass == 0 || began.elapsed() < budget {
        for (i, case) in cases.iter().enumerate() {
            // Past the first pass, stop at a family-mix boundary.
            if pass > 0 && i % families == 0 && began.elapsed() >= budget {
                break 'passes;
            }
            let series = case.series.series.as_slice();
            let window = case.detector.config().window;
            speed.sample();
            let t0 = Instant::now();
            let Some(report) = out.op("detect", || case.detector.detect(series, TOP_K, case.seed))
            else {
                continue;
            };
            let t1 = Instant::now();
            let ranked = rank_anomalies(&report.curve, window, TOP_K);
            let t2 = Instant::now();
            let queries: Vec<f64> = (0..QUERY_REPS)
                .map(|_| ms(timed(|| black_box(rank_anomalies(&report.curve, window, TOP_K))).1))
                .collect();
            runs.push(Timed {
                series: i,
                at: speed.len() - 1,
                detect: ms(t1 - t0),
                serve: ms(t2 - t0),
                query: median(&queries),
            });
            let starts = top_starts(&report);
            out.check(
                report.curve.len() == series.len()
                    && report.anomalies.len() == TOP_K
                    && ranked == report.anomalies,
                || format!("series {i}: malformed report"),
            );
            if pass == 0 {
                first_pass.push(starts);
            } else {
                out.check(first_pass[i] == starts, || {
                    format!("series {i}: pass {pass} differs from pass 0")
                });
            }
        }
        pass += 1;
    }

    speed.sample();

    // Output check: the layer-by-layer pipeline equals `detect` bit for
    // bit on one series per family (every series in the traced run).
    for case in cases.iter().take(families) {
        let series = case.series.series.as_slice();
        let report = case.detector.detect(series, TOP_K, case.seed);
        let layered = pipeline(case, &mut LayerReport::default());
        out.check(layered == report, || {
            format!(
                "{:?}: layer pipeline differs from detect",
                case.series.family
            )
        });
    }

    // Every time at the reference host's speed (`HostSpeed`).
    let (mut points, mut detect_total, mut serve_total) = (0usize, 0.0, 0.0);
    let mut detect_ms: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut serve_ms: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut query_ms: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    for run in &runs {
        let f = speed.scale(run.at);
        points += cases[run.series].series.series.len();
        detect_total += run.detect * f;
        serve_total += run.serve * f;
        detect_ms[run.series].push(run.detect * f);
        serve_ms[run.series].push(run.serve * f);
        query_ms[run.series].push(run.query * f);
    }
    let per_series = |v: &[Vec<f64>]| -> Vec<f64> { v.iter().map(|d| median(d)).collect() };
    let (detect_ms, serve_ms, query_ms) = (
        per_series(&detect_ms),
        per_series(&serve_ms),
        per_series(&query_ms),
    );
    let (scores, hits) = quality(cases, &first_pass);
    out.put("setup_s", median(&setup), "s");
    out.put(
        "detect_points_per_s",
        points as f64 * 1e3 / detect_total,
        "points/s",
    );
    out.put("detect_latency_p50_ms", quantile(&detect_ms, 0.5), "ms");
    out.put("detect_latency_p90_ms", quantile(&detect_ms, 0.9), "ms");
    out.put("score_mean", scores, "score");
    out.put("hit_rate", hits, "frac");
    out.put(
        "capacity_points_per_s",
        points as f64 * 1e3 / serve_total,
        "points/s",
    );
    out.put("visible_latency_p50_ms", quantile(&serve_ms, 0.5), "ms");
    out.put("visible_latency_p90_ms", quantile(&serve_ms, 0.9), "ms");
    out.put("query_latency_p50_ms", quantile(&query_ms, 0.5), "ms");
    out.put("query_latency_p90_ms", quantile(&query_ms, 0.9), "ms");
    out.put("peak_rss_mib", peak_rss_mib(), "MiB");
}

/// Paper Eq. (5) best-of-top-3 score, averaged, and HitRate.
fn quality(cases: &[Case], tops: &[Vec<usize>]) -> (f64, f64) {
    let mut score = 0.0;
    let mut hits = 0usize;
    for (case, top) in cases.iter().zip(tops) {
        let (gt, len) = case.series.ground_truth();
        score += best_score(top, gt, len);
        hits += usize::from(hit(top, gt, len));
    }
    let n = tops.len().max(1) as f64;
    (score / n, hits as f64 / n)
}

/// `EnsembleDetector::detect`, one public call at a time, with each call
/// timed into its layer.
fn pipeline(case: &Case, layers: &mut LayerReport) -> AnomalyReport {
    let det = &case.detector;
    let config = det.config();
    let series = case.series.series.as_slice();
    let params = det.member_params(case.seed);

    let t = Instant::now();
    let fast = FastSax::new(series);
    let multi = MultiResBreakpoints::new(config.amax);
    let mut ws: Vec<usize> = params.iter().map(|p| p.w).collect();
    ws.sort_unstable();
    ws.dedup();
    let streams: Vec<PaaStream> = ws
        .iter()
        .map(|&w| PaaStream::new(&fast, config.window, w))
        .collect();
    layers.paa += t.elapsed();
    layers.paa_streams += streams.len() as u64;
    layers.members += params.len() as u64;

    let mut curves = Vec::with_capacity(params.len());
    for sax in &params {
        let stream = &streams[ws.binary_search(&sax.w).expect("w collected above")];
        let (nr, d_sax) = timed(|| discretize_from_stream(stream, *sax, &multi));
        layers.discretize += d_sax;
        layers.windows += stream.count as u64;
        layers.tokens += nr.len() as u64;
        let mut step = d_sax;
        let curve = if nr.is_empty() {
            RuleDensityCurve {
                values: vec![0.0; series.len()],
            }
        } else {
            let (tokens, d_intern) = timed(|| egi_core::intern_tokens(&nr));
            layers.tokens_pushed += tokens.len() as u64;
            let (grammar, d_induce) = timed(|| egi_sequitur::induce(tokens));
            layers.rules += grammar.rules.len() as u64;
            let (curve, d_build) = timed(|| RuleDensityCurve::build(&grammar, &nr, series.len()));
            layers.intern += d_intern;
            layers.induce += d_induce;
            layers.density_build += d_build;
            step += d_intern + d_induce + d_build;
            curve
        };
        layers.steps_ms.push(ms(step));
        curves.push(curve);
    }
    let (curve, d_combine) = timed(|| det.combine_curves(curves));
    let (anomalies, d_rank) = timed(|| rank_anomalies(&curve.values, config.window, TOP_K));
    layers.combine += d_combine;
    layers.rank += d_rank;
    AnomalyReport {
        anomalies,
        curve: curve.values,
    }
}

/// One pass over the whole corpus through the traced pipeline, each
/// series checked against `detect` bit for bit.
fn traced(out: &mut Outcome, cases: &[Case]) {
    let mut layers = LayerReport::default();
    let mut detect_total = Duration::ZERO;
    let mut speed = HostSpeed::default();
    for (i, case) in cases.iter().enumerate() {
        let series = case.series.series.as_slice();
        speed.sample();
        let Some((layered, d)) =
            out.op("traced pipeline", || timed(|| pipeline(case, &mut layers)))
        else {
            continue;
        };
        layers.e2e += d;
        let Some((report, d_detect)) = out.op("detect", || {
            timed(|| case.detector.detect(series, TOP_K, case.seed))
        }) else {
            continue;
        };
        detect_total += d_detect;
        out.check(layered == report, || {
            format!("series {i}: layer pipeline differs from detect")
        });
    }
    layers.tracing_overhead =
        layers.e2e.as_secs_f64() / detect_total.as_secs_f64().max(1e-12) - 1.0;
    layers.calibration_ms = speed.median_ms();
    layers.emit(out);
}
