//! The fleet-serving workloads: `ensemble_grow`, `ensemble_window` and
//! `discord_window`.
//!
//! Each stream is a concatenation of UCR-family instances (the four
//! short families, round robin over streams) with one planted anomalous
//! instance, so the fleet's answers can be scored like the corpus. The
//! benchmark runs open loop at a fixed offered rate: at each due time it
//! ingests one chunk per stream, runs `tick(Deadline::unbounded())`
//! (which drains, so the work per tick is deterministic), then queries
//! and ranks every stream. Lateness counts: visible latency is timed
//! from the chunk's *due* time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use egi_core::{
    rank_anomalies, AnomalyReport, EnsembleConfig, EnsembleDetector, RuleDensityCurve,
    StreamingEnsembleDetector,
};
use egi_discord::stamp::stamp_with_exclusion;
use egi_discord::{MassBackend, MatrixProfile, StreamingDiscordMonitor};
use egi_eval::metrics::{best_score, hit};
use egi_eval::runner::subseed;
use egi_serve::{Fleet, FleetObs, StreamId};
use egi_tskit::checkpoint::Checkpoint;
use egi_tskit::gen::ucr::UcrFamily;
use egi_tskit::window::window_count;
use egi_tskit::{Deadline, StreamSession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::LayerReport;
use crate::shadow::{Shadow, ShadowDiscord, ShadowEnsemble};
use crate::{
    blocked_quantile, median, ms, obs_counter, peak_rss_mib, timed, top_starts, HostSpeed, Outcome,
    Scale, TOP_K,
};

/// Fleet set-ups timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 9;
/// Queries timed per run for `query_latency_*`: after each tick's
/// visible-latency queries, the streams are queried again, round robin,
/// for a fixed number of rounds per tick that makes about this many
/// samples. The rounds run in the loop's idle time; one that would run
/// past the next due time is skipped, so they never delay a tick.
const QUERY_SAMPLES: usize = 4000;
/// Seed of every stream's ensemble member draws. It is fixed, so every
/// run of a workload does the same grammar work; `--seed` varies the
/// streams' data.
const MEMBER_SEED: u64 = 0x5eed_0e91;
/// The families streams draw from, round robin: the four whose
/// instances fit many times into a retained window.
const FAMILIES: [UcrFamily; 4] = [
    UcrFamily::TwoLeadEcg,
    UcrFamily::EcgFiveDays,
    UcrFamily::GunPoint,
    UcrFamily::Wafer,
];

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Append-only `Fleet<StreamingEnsembleDetector>`.
    EnsembleGrow,
    /// `Fleet<StreamingEnsembleDetector>` under `retain_last`, plus a
    /// post-run checkpoint and restore.
    EnsembleWindow,
    /// `Fleet<StreamingDiscordMonitor>` (default backend) under
    /// `retain_last`.
    DiscordWindow,
}

/// Size and offered rate of a fleet workload.
#[derive(Debug, Clone, Copy)]
struct Spec {
    /// Concurrent streams.
    pub streams: usize,
    /// Points per stream ingested and drained during set-up.
    pub warm: usize,
    /// Points per stream per tick.
    pub chunk: usize,
    /// Ticks per second; the offered rate is
    /// `streams × chunk × tick_hz` points/s.
    pub tick_hz: f64,
    /// `retain_last` budget per stream, if the workload evicts.
    pub retain: Option<usize>,
}

/// The sizes and offered rates the benchmark measures (`Full`), or the
/// reduced ones of the crate's tests.
fn spec(kind: Kind, scale: Scale) -> Spec {
    match (kind, scale) {
        (Kind::EnsembleGrow, Scale::Full) => Spec {
            streams: 8,
            warm: 1024,
            chunk: 32,
            tick_hz: 10.0,
            retain: None,
        },
        (Kind::EnsembleWindow, Scale::Full) => Spec {
            streams: 4,
            warm: 2048,
            chunk: 128,
            tick_hz: 2.5,
            retain: Some(2048),
        },
        (Kind::DiscordWindow, Scale::Full) => Spec {
            streams: 6,
            warm: 1024,
            chunk: 128,
            tick_hz: 2.5,
            retain: Some(1024),
        },
        (kind, Scale::Test) => Spec {
            streams: 4,
            warm: 600,
            chunk: 40,
            tick_hz: 20.0,
            retain: (kind != Kind::EnsembleGrow).then_some(600),
        },
    }
}

/// One generated stream and its planted anomaly (global coordinates).
struct StreamData {
    family: UcrFamily,
    seed: u64,
    points: Vec<f64>,
    gt_start: usize,
}

impl StreamData {
    fn window(&self) -> usize {
        self.family.instance_length()
    }

    /// Generates `total` points of stream `i`: normal instances with one
    /// anomalous instance planted where the final live series will hold
    /// it (40–80% of the series when nothing is evicted; the middle half
    /// of the retained window otherwise).
    fn generate(i: usize, seed: u64, total: usize, retain: Option<usize>) -> Self {
        let family = FAMILIES[i % FAMILIES.len()];
        let ilen = family.instance_length();
        let mut rng = StdRng::seed_from_u64(subseed(seed, 100 + i as u64));
        let (lo, hi) = match retain {
            Some(r) => (total - r * 3 / 4, total - r / 4 - ilen),
            None => (total * 2 / 5, total * 4 / 5 - ilen),
        };
        let plant = rng.gen_range(lo.div_ceil(ilen)..=(hi / ilen).max(lo.div_ceil(ilen)));
        let mut points = Vec::with_capacity(total + ilen);
        let mut k = 0;
        while points.len() < total {
            if k == plant {
                points.extend(family.anomalous_instance(&mut rng));
            } else {
                points.extend(family.normal_instance(&mut rng));
            }
            k += 1;
        }
        points.truncate(total);
        Self {
            family,
            seed: subseed(MEMBER_SEED, i as u64),
            points,
            gt_start: plant * ilen,
        }
    }
}

/// What the fleet workloads need from a session kind beyond
/// [`StreamSession`]: how to open one and its shadow, rank its
/// snapshot, and check its finished report against the batch oracle.
trait Served: StreamSession + Checkpoint + Send + Sized {
    type Shadow: Shadow<Snapshot = Self::Snapshot>;
    fn open(stream: &StreamData) -> Self;
    fn shadow(&self, retain: Option<usize>) -> Self::Shadow;
    /// Top-k starts of a live snapshot (the ranking half of a query).
    fn rank(snapshot: &Self::Snapshot, window: usize) -> Vec<usize>;
    /// The live series.
    fn live(&self) -> &[f64];
    /// The batch oracle over `series` (the live series, or its tail).
    fn oracle(&self, series: &[f64]) -> Self::Report;
    /// Compares a finished report with the oracle under this session's
    /// parity contract.
    fn agrees(&self, report: &Self::Report, oracle: &Self::Report) -> bool;
    /// Top-k starts of a finished report.
    fn top(report: &Self::Report) -> Vec<usize>;
}

impl Served for StreamingEnsembleDetector {
    type Shadow = ShadowEnsemble;

    fn open(stream: &StreamData) -> Self {
        let config = EnsembleConfig {
            window: stream.window(),
            ..EnsembleConfig::default()
        };
        StreamingEnsembleDetector::new(config, stream.seed)
    }

    fn shadow(&self, retain: Option<usize>) -> ShadowEnsemble {
        ShadowEnsemble::new(self.config(), self.seed(), retain)
    }

    fn rank(snapshot: &RuleDensityCurve, window: usize) -> Vec<usize> {
        rank_anomalies(&snapshot.values, window, TOP_K)
            .iter()
            .map(|c| c.start)
            .collect()
    }

    fn live(&self) -> &[f64] {
        self.series()
    }

    fn oracle(&self, series: &[f64]) -> AnomalyReport {
        let config = self.config();
        let k = window_count(series.len(), config.window);
        EnsembleDetector::new(config).detect(series, k, self.seed())
    }

    fn agrees(&self, report: &AnomalyReport, oracle: &AnomalyReport) -> bool {
        report == oracle
    }

    fn top(report: &AnomalyReport) -> Vec<usize> {
        top_starts(report)
    }
}

impl Served for StreamingDiscordMonitor {
    type Shadow = ShadowDiscord;

    fn open(stream: &StreamData) -> Self {
        StreamingDiscordMonitor::new(stream.window())
    }

    fn shadow(&self, retain: Option<usize>) -> ShadowDiscord {
        ShadowDiscord::new(self.m(), self.exclusion(), retain)
    }

    fn rank(snapshot: &MatrixProfile, _window: usize) -> Vec<usize> {
        snapshot.discords(TOP_K).iter().map(|d| d.start).collect()
    }

    fn live(&self) -> &[f64] {
        self.series()
    }

    fn oracle(&self, series: &[f64]) -> MatrixProfile {
        stamp_with_exclusion(series, self.m(), self.exclusion())
    }

    fn agrees(&self, report: &MatrixProfile, oracle: &MatrixProfile) -> bool {
        match self.backend() {
            MassBackend::Exact => report == oracle,
            MassBackend::Segmented => {
                report.profile.len() == oracle.profile.len()
                    && report.profile.iter().zip(&oracle.profile).all(|(a, b)| {
                        a == b || (a.is_finite() && b.is_finite() && (a - b).abs() <= 1e-9)
                    })
            }
        }
    }

    fn top(report: &MatrixProfile) -> Vec<usize> {
        Self::rank(report, report.m)
    }
}

pub(crate) fn run(
    out: &mut Outcome,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) {
    match kind {
        Kind::EnsembleGrow | Kind::EnsembleWindow => {
            drive::<StreamingEnsembleDetector>(out, kind, seed, seconds, trace, scale)
        }
        Kind::DiscordWindow => {
            drive::<StreamingDiscordMonitor>(out, kind, seed, seconds, trace, scale)
        }
    }
}

/// Creates the fleet, sets retention, ingests and drains the warm
/// history.
fn set_up<S: Served>(out: &mut Outcome, streams: &[StreamData], spec: &Spec) -> Fleet<S> {
    let mut fleet = Fleet::new();
    for (i, stream) in streams.iter().enumerate() {
        let id = i as StreamId;
        out.try_op("create", || fleet.create(id, S::open(stream)));
        if let Some(r) = spec.retain {
            out.try_op("retain_last", || fleet.retain_last(id, r));
        }
        out.try_op("ingest", || fleet.ingest(id, &stream.points[..spec.warm]));
    }
    out.op("tick", || fleet.tick(Deadline::unbounded()));
    fleet
}

/// `egi-obs` counters the traced run reads over the fleet's own calls.
const COUNTERS: [&str; 7] = [
    "egi_core_density_deltas_applied_total",
    "egi_core_density_delta_coverage_points_total",
    "egi_core_density_rebuild_equiv_points_total",
    "egi_mass_exact_queries_total",
    "egi_mass_exact_retransforms_total",
    "egi_fft_plan_cache_hits_total",
    "egi_fft_plan_cache_misses_total",
];

fn read_counters() -> [u64; 7] {
    COUNTERS.map(obs_counter)
}

fn drive<S: Served>(
    out: &mut Outcome,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) {
    let spec = spec(kind, scale);
    let ticks = (seconds * spec.tick_hz).ceil().max(1.0) as usize;
    let total = spec.warm + ticks * spec.chunk;
    let streams: Vec<StreamData> = (0..spec.streams)
        .map(|i| StreamData::generate(i, seed, total, spec.retain))
        .collect();
    let windows: Vec<usize> = streams.iter().map(StreamData::window).collect();
    let ids: Vec<StreamId> = (0..spec.streams as StreamId).collect();

    // Set-up, repeated; the last fleet is the one measured.
    let mut setup_speed = HostSpeed::default();
    let mut setup = Vec::new();
    let mut fleet = None;
    for _ in 0..if trace { 1 } else { SETUP_REPS } {
        drop(fleet.take());
        setup_speed.sample();
        let (f, d) = timed(|| set_up::<S>(out, &streams, &spec));
        setup.push(d.as_secs_f64());
        fleet = Some(f);
    }
    setup_speed.sample();
    let setup: Vec<f64> = (0..setup.len())
        .map(|rep| setup[rep] * setup_speed.scale(rep))
        .collect();
    let mut fleet: Fleet<S> = fleet.expect("at least one set-up");

    let mut layers = LayerReport::default();
    let mut shadows: Vec<S::Shadow> = Vec::new();
    if trace {
        let mut warm = LayerReport::default();
        for (i, stream) in streams.iter().enumerate() {
            let session = fleet.session(ids[i]).expect("created above");
            let mut shadow = session.shadow(spec.retain);
            shadow.step(&stream.points[..spec.warm], &mut warm);
            shadows.push(shadow);
        }
    }
    egi_obs::global()
        .histogram("egi_fleet_wait_for_turn_nanos")
        .reset();
    let obs_before: FleetObs = fleet.metrics();
    let mut counters = [0u64; 7];

    // Timed phase: open loop at the offered rate. The host's speed is
    // sampled right before each tick's due time (when the loop has idle
    // time left) and right after the tick's work; raw times are kept
    // with their tick, and tick `k` is scaled by the samples `tick_at[k]`
    // and `tick_at[k] + 1`.
    let period = Duration::from_secs_f64(1.0 / spec.tick_hz);
    let mut speed = HostSpeed::default();
    let mut tick_at = Vec::with_capacity(ticks);
    let mut calibration_ms = setup_speed.median_ms();
    let mut visible_ms: Vec<(usize, f64)> = Vec::new();
    let mut query_ms: Vec<(usize, f64)> = Vec::new();
    let extra_rounds = QUERY_SAMPLES
        .div_ceil(ticks * spec.streams)
        .saturating_sub(1);
    // Per tick: time inside ingest + tick (`detect_*`) and inside ingest,
    // tick and the post-tick queries (`capacity_points_per_s`).
    let mut detect_ms = Vec::with_capacity(ticks);
    let mut busy_ms = Vec::with_capacity(ticks);
    let mut busy = Duration::ZERO;
    let mut shadow_time = Duration::ZERO;
    let start = Instant::now();
    for k in 0..ticks {
        // Shadow work is kept off the fleet's clock.
        let due = start + period * k as u32 + shadow_time;
        // Spin rather than sleep: the benchmark thread stays on its core,
        // so the OS's wake-up latency is not charged to the fleet as
        // lateness and the core is not cold when the chunk is due.
        let lead = Duration::from_secs_f64(3e-3 * calibration_ms);
        if speed.is_empty() || Instant::now() + lead < due {
            while Instant::now() + lead < due {
                std::hint::spin_loop();
            }
            speed.sample();
        }
        tick_at.push(speed.len() - 1);
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let before = read_counters();
        let began = Instant::now();
        layers.lag_ms.push(ms(began.saturating_duration_since(due)));
        let range = spec.warm + k * spec.chunk..spec.warm + (k + 1) * spec.chunk;
        for &id in &ids {
            let chunk = &streams[id as usize].points[range.clone()];
            out.try_op("ingest", || fleet.ingest(id, chunk));
        }
        let ingested = Instant::now();
        let tick = out.op("tick", || fleet.tick(Deadline::unbounded()));
        let ticked = Instant::now();
        layers.ingest += ingested - began;
        layers.ticks_ms.push(ms(ticked - ingested));
        detect_ms.push(ms(ticked - began));
        let mut snapshots = Vec::with_capacity(ids.len());
        for &id in &ids {
            let q0 = Instant::now();
            let answer = out.try_op("query", || {
                fleet
                    .query(id)
                    .map(|snap| (black_box(S::rank(&snap, windows[id as usize])), snap))
            });
            let q1 = Instant::now();
            query_ms.push((k, ms(q1 - q0)));
            let current = fleet.session(id).is_some_and(StreamSession::is_current);
            out.check(current && answer.is_some(), || {
                format!("stream {id}: not current after a drained tick")
            });
            visible_ms.push((k, ms(q1.saturating_duration_since(due))));
            snapshots.push(answer.map(|(_, snap)| snap));
        }
        let done = Instant::now();
        busy += done - began;
        busy_ms.push(ms(done - began));
        calibration_ms = speed.sample();
        for (c, (after, before)) in counters.iter_mut().zip(read_counters().iter().zip(before)) {
            *c += after - before;
        }
        out.check(
            tick.is_some_and(|t| fleet.pending_units() == 0 && t.units > 0),
            || format!("tick {k}: fleet not drained"),
        );

        if trace {
            let t = Instant::now();
            for (i, shadow) in shadows.iter_mut().enumerate() {
                shadow.step(&streams[i].points[range.clone()], &mut layers);
                let same = snapshots[i]
                    .as_ref()
                    .is_some_and(|snap| shadow.matches(snap, &mut layers));
                out.check(same, || {
                    format!("tick {k} stream {i}: shadow differs from fleet")
                });
            }
            shadow_time += t.elapsed();
        }

        // More query samples, in the idle time before the next due time
        // only, so they never delay a tick.
        let next_due = start + period * (k + 1) as u32 + shadow_time;
        let mut last = Duration::ZERO;
        'idle: for _ in 0..extra_rounds {
            for &id in &ids {
                if Instant::now() + last * 2 >= next_due {
                    break 'idle;
                }
                let (answer, d) = timed(|| {
                    fleet
                        .query(id)
                        .map(|snap| black_box(S::rank(&snap, windows[id as usize])))
                });
                query_ms.push((k, ms(d)));
                last = d;
                out.check(answer.is_ok(), || {
                    format!("stream {id}: repeated query failed")
                });
            }
        }
    }
    let obs_after = fleet.metrics();

    // Durability (ensemble_window): one checkpoint and one restore of
    // the whole fleet after the timed phase.
    let mut restored: Option<Fleet<S>> = None;
    if kind == Kind::EnsembleWindow {
        let saved = out.try_op("checkpoint", || {
            let (bytes, d) = timed(|| fleet.checkpoint_bytes());
            bytes.map(|b| (b, d))
        });
        if let Some((bytes, d)) = saved {
            layers.checkpoint_save = d;
            layers.checkpoint_bytes = bytes.len() as u64;
            let loaded = out.try_op("restore", || {
                let (fleet, d) = timed(|| Fleet::<S>::from_checkpoint_bytes(&bytes));
                fleet.map(|f| (f, d))
            });
            if let Some((f, d)) = loaded {
                layers.checkpoint_load = d;
                restored = Some(f);
            }
        }
    }

    // Output checks: every stream's finish equals the batch oracle over
    // its surviving suffix (and the restored fleet finishes identically);
    // the finished top-k is scored against the planted anomaly.
    let (mut score, mut hits) = (0.0, 0usize);
    for (i, &id) in ids.iter().enumerate() {
        let Some(session) = fleet.session(id) else {
            out.check(false, || format!("stream {id}: missing"));
            continue;
        };
        let offset = session.stream_offset();
        layers.checkpoint_points += session.series_len() as u64;
        let Some(oracle_report) = out.op("batch oracle", || session.oracle(session.live())) else {
            continue;
        };
        let Some(report) = out.try_op("finish", || fleet.finish(id)) else {
            continue;
        };
        let session = fleet.session(id).expect("checked above");
        out.check(session.agrees(&report, &oracle_report), || {
            format!("stream {id}: finish differs from the batch oracle")
        });
        if let Some(restored) = restored.as_mut() {
            let again = out.try_op("restored finish", || restored.finish(id));
            out.check(again.is_some_and(|r| session.agrees(&r, &report)), || {
                format!("stream {id}: restored fleet finishes differently")
            });
        }
        let gt = streams[i].gt_start.checked_sub(offset);
        out.check(gt.is_some(), || {
            format!("stream {id}: planted anomaly evicted")
        });
        let top = S::top(&report);
        let ilen = windows[i];
        score += gt.map_or(0.0, |g| best_score(&top, g, ilen));
        hits += gt.map_or(0, |g| usize::from(hit(&top, g, ilen)));
    }
    drop(restored);

    if trace {
        for shadow in &shadows {
            let ok = shadow.matches_batch(&mut layers);
            out.check(ok, || "shadow differs from the batch pipeline".into());
        }
        layers.e2e = busy;
        layers.calibration_ms = speed.median_ms();
        layers.tracing_overhead = shadow_time.as_secs_f64() / busy.as_secs_f64();
        let [applied, coverage, rebuild, queries, retransforms, hits_, misses] = counters;
        layers.deltas_applied = applied;
        layers.delta_coverage = coverage;
        layers.rebuild_equiv = rebuild;
        layers.mass_queries = queries;
        layers.retransforms = retransforms;
        layers.plan_hits = hits_;
        layers.plan_misses = misses;
        layers.new_windows = (ticks * spec.chunk * spec.streams) as u64;
        layers.units = obs_after.units_total - obs_before.units_total;
        layers.ingest_calls = obs_after.ingest_calls - obs_before.ingest_calls;
        layers.coalesced_appends = obs_after.coalesced_appends - obs_before.coalesced_appends;
        layers.wait_for_turn_p99_ms = egi_obs::global()
            .histogram("egi_fleet_wait_for_turn_nanos")
            .snapshot()
            .quantile_upper_bound(99, 100) as f64
            / 1e6;
        layers.emit(out);
        return;
    }

    // Every time at the reference host's speed (`HostSpeed`).
    let scaled = |samples: &[(usize, f64)]| -> Vec<f64> {
        samples
            .iter()
            .map(|&(k, t)| t * speed.scale(tick_at[k]))
            .collect()
    };
    let per_tick = |samples: &[f64]| -> Vec<f64> {
        samples
            .iter()
            .enumerate()
            .map(|(k, &t)| t * speed.scale(tick_at[k]))
            .collect()
    };
    let detect_ms = per_tick(&detect_ms);
    let (visible_ms, query_ms) = (scaled(&visible_ms), scaled(&query_ms));
    let points = (ticks * spec.chunk * spec.streams) as f64;
    let n = ids.len().max(1) as f64;
    out.put("setup_s", median(&setup), "s");
    out.put(
        "detect_points_per_s",
        points * 1e3 / detect_ms.iter().sum::<f64>(),
        "points/s",
    );
    out.put(
        "detect_latency_p50_ms",
        blocked_quantile(&detect_ms, 0.5),
        "ms",
    );
    out.put(
        "detect_latency_p90_ms",
        blocked_quantile(&detect_ms, 0.9),
        "ms",
    );
    out.put("score_mean", score / n, "score");
    out.put("hit_rate", hits as f64 / n, "frac");
    out.put(
        "capacity_points_per_s",
        points * 1e3 / per_tick(&busy_ms).iter().sum::<f64>(),
        "points/s",
    );
    out.put(
        "visible_latency_p50_ms",
        blocked_quantile(&visible_ms, 0.5),
        "ms",
    );
    out.put(
        "visible_latency_p90_ms",
        blocked_quantile(&visible_ms, 0.9),
        "ms",
    );
    out.put(
        "query_latency_p50_ms",
        blocked_quantile(&query_ms, 0.5),
        "ms",
    );
    out.put(
        "query_latency_p90_ms",
        blocked_quantile(&query_ms, 0.9),
        "ms",
    );
    out.put("peak_rss_mib", peak_rss_mib(), "MiB");
}
