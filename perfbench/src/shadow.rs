//! Shadow sessions: the streaming pipelines of the fleet workloads,
//! re-driven one public call at a time so each call can be timed into
//! its layer.
//!
//! [`ShadowEnsemble`] mirrors `StreamingEnsembleDetector` (prefix
//! statistics → shared PAA streams → SAX symbols + numerosity reduction
//! → interning → `Sequitur::push` / `take_deltas` → `apply_delta` →
//! `combine_curves` → `rank_anomalies`), and [`ShadowDiscord`] mirrors
//! the exact-backend `StreamingDiscordMonitor` (`MassPrecomputed`
//! re-transforms → `distance_profile_into` → profile fold →
//! `discords`). A traced fleet run feeds every stream's chunks to a
//! shadow as well and checks, tick by tick, that the shadow's snapshot
//! equals the fleet's — which is what makes the per-layer split of the
//! fleet's time a split of the same work.

use std::hint::black_box;
use std::time::Instant;

use egi_core::{
    rank_anomalies, EnsembleConfig, EnsembleDetector, OnlineInterner, RuleDensityCurve,
};
use egi_discord::profile::{improves, MatrixProfile};
use egi_discord::stamp::stamp_with_exclusion;
use egi_discord::{MassPrecomputed, MassScratch};
use egi_sax::{MultiResBreakpoints, NumerosityReduced, PaaStream, SaxConfig, SaxWord};
use egi_sequitur::Sequitur;
use egi_tskit::stats::PrefixStats;
use egi_tskit::window::window_count;

use crate::layers::LayerReport;
use crate::{ms, timed, TOP_K};

/// A shadow session: fed the same chunks as one fleet stream, it
/// mirrors the stream's work one timed public call at a time.
pub trait Shadow {
    /// The fleet session's snapshot type.
    type Snapshot;
    /// Appends a chunk and brings the shadow up to date — what one
    /// drained fleet tick does for the stream.
    fn step(&mut self, chunk: &[f64], layers: &mut LayerReport);
    /// Runs the shadow's query and compares it with the fleet's snapshot
    /// bit for bit.
    fn matches(&self, snapshot: &Self::Snapshot, layers: &mut LayerReport) -> bool;
    /// Compares the shadow with the batch pipeline over its live series
    /// (and records the end-of-run structure counts).
    fn matches_batch(&self, layers: &mut LayerReport) -> bool;
}

/// One member's online pipeline.
struct Member {
    sax: SaxConfig,
    stream: usize,
    consumed: usize,
    nr: NumerosityReduced,
    interner: OnlineInterner,
    seq: Sequitur,
    curve: RuleDensityCurve,
}

/// The streaming ensemble pipeline of one stream, driven by public calls.
pub struct ShadowEnsemble {
    detector: EnsembleDetector,
    params: Vec<SaxConfig>,
    multi: MultiResBreakpoints,
    series: Vec<f64>,
    stats: PrefixStats,
    ws: Vec<usize>,
    streams: Vec<PaaStream>,
    members: Vec<Member>,
    retention: Option<usize>,
}

impl ShadowEnsemble {
    /// An empty shadow drawing its members exactly as
    /// `StreamingEnsembleDetector::new(config, seed)` does.
    pub fn new(config: EnsembleConfig, seed: u64, retention: Option<usize>) -> Self {
        let detector = EnsembleDetector::new(config);
        let params = detector.member_params(seed);
        let mut ws: Vec<usize> = params.iter().map(|p| p.w).collect();
        ws.sort_unstable();
        ws.dedup();
        let streams = ws
            .iter()
            .map(|&w| PaaStream::empty(config.window, w))
            .collect();
        let members = params
            .iter()
            .map(|&sax| {
                let mut seq = Sequitur::new();
                seq.set_delta_tracking(true);
                Member {
                    sax,
                    stream: ws.binary_search(&sax.w).expect("w collected above"),
                    consumed: 0,
                    nr: NumerosityReduced::empty(config.window),
                    interner: OnlineInterner::new(),
                    seq,
                    curve: RuleDensityCurve { values: Vec::new() },
                }
            })
            .collect();
        Self {
            multi: MultiResBreakpoints::new(config.amax),
            detector,
            params,
            series: Vec::new(),
            stats: PrefixStats::new(&[]),
            ws,
            streams,
            members,
            retention,
        }
    }

    /// Appends a chunk, evicting down to the retention budget.
    fn append(&mut self, points: &[f64], layers: &mut LayerReport) {
        let t = Instant::now();
        self.series.extend_from_slice(points);
        self.stats.extend(points);
        layers.append += t.elapsed();
        let excess = self
            .retention
            .map_or(0, |r| self.series.len().saturating_sub(r));
        if excess > 0 {
            let t = Instant::now();
            self.series.drain(..excess);
            self.stats.rebase(&self.series);
            for stream in &mut self.streams {
                stream.evict_front(excess, &self.stats);
            }
            for m in &mut self.members {
                m.consumed = 0;
                m.nr.clear();
                m.interner.clear();
                m.seq.clear();
                m.curve.values.clear();
            }
            layers.evict += t.elapsed();
        }
    }

    /// Brings every member up to date.
    fn refresh(&mut self, layers: &mut LayerReport) {
        let len = self.series.len();
        let target = window_count(len, self.detector.config().window);
        let t = Instant::now();
        for stream in &mut self.streams {
            stream.extend_from_stats(&self.stats);
        }
        layers.paa += t.elapsed();
        for m in &mut self.members {
            let stream = &self.streams[m.stream];
            let replay = m.seq.token_count() == 0 && m.consumed == 0;
            let fresh = target - m.consumed;
            layers.windows += fresh as u64;
            if replay {
                layers.replay_windows += fresh as u64;
            }

            let t0 = Instant::now();
            let kept_from = m.nr.tokens.len();
            for start in m.consumed..target {
                let word = SaxWord(
                    stream
                        .row(start)
                        .iter()
                        .map(|&c| self.multi.symbol(c, m.sax.a))
                        .collect(),
                );
                m.nr.push_word(word);
            }
            m.consumed = target;
            let t1 = Instant::now();
            let ids: Vec<u32> = m.nr.tokens[kept_from..]
                .iter()
                .map(|tok| m.interner.intern(&tok.word))
                .collect();
            let t2 = Instant::now();
            for &id in &ids {
                m.seq.push(id);
            }
            let deltas = m.seq.take_deltas();
            let t3 = Instant::now();
            m.curve.values.resize(len, 0.0);
            for delta in &deltas {
                m.curve.apply_delta(delta, &m.nr);
            }
            let t4 = Instant::now();

            layers.discretize += t1 - t0;
            layers.intern += t2 - t1;
            layers.push += t3 - t2;
            layers.delta_fold += t4 - t3;
            layers.steps_ms.push(ms(t4 - t0));
            layers.tokens += ids.len() as u64;
            layers.tokens_pushed += ids.len() as u64;
        }
    }

    /// The ensemble curve, computed and ranked as a fleet query plus
    /// top-k ranking would.
    fn query(&self, layers: &mut LayerReport) -> RuleDensityCurve {
        let len = self.series.len();
        let (curve, d) = timed(|| {
            let curves = self
                .members
                .iter()
                .map(|m| {
                    let mut c = m.curve.clone();
                    c.values.resize(len, 0.0);
                    c
                })
                .collect();
            self.detector.combine_curves(curves)
        });
        layers.combine += d;
        let window = self.detector.config().window;
        let (_, d) = timed(|| black_box(rank_anomalies(&curve.values, window, TOP_K)));
        layers.rank += d;
        curve
    }
}

impl Shadow for ShadowEnsemble {
    type Snapshot = RuleDensityCurve;

    fn step(&mut self, chunk: &[f64], layers: &mut LayerReport) {
        self.append(chunk, layers);
        self.refresh(layers);
    }

    fn matches(&self, snapshot: &RuleDensityCurve, layers: &mut LayerReport) -> bool {
        self.query(layers) == *snapshot
    }

    /// Every member's curve must equal `EnsembleDetector::member_curves`
    /// over the live series.
    fn matches_batch(&self, layers: &mut LayerReport) -> bool {
        layers.paa_streams += self.ws.len() as u64;
        layers.members += self.members.len() as u64;
        layers.rules += self
            .members
            .iter()
            .map(|m| m.seq.to_grammar().rules.len() as u64)
            .sum::<u64>();
        let batch = self.detector.member_curves(&self.series, &self.params);
        self.members.iter().zip(&batch).all(|(m, b)| m.curve == *b)
    }
}

/// The exact-backend discord monitor of one stream, driven by public
/// calls.
pub struct ShadowDiscord {
    m: usize,
    exclusion: usize,
    retention: Option<usize>,
    warmup: Vec<f64>,
    mass: Option<MassPrecomputed>,
    profile: Vec<f64>,
    index: Vec<usize>,
    pending: usize,
    scratch: MassScratch,
    dp: Vec<f64>,
}

impl ShadowDiscord {
    /// An empty shadow with window `m` and exclusion zone `exclusion`.
    pub fn new(m: usize, exclusion: usize, retention: Option<usize>) -> Self {
        Self {
            m,
            exclusion,
            retention,
            warmup: Vec::new(),
            mass: None,
            profile: Vec::new(),
            index: Vec::new(),
            pending: 0,
            scratch: MassScratch::default(),
            dp: Vec::new(),
        }
    }

    /// Appends a chunk (re-transform), evicts down to the retention
    /// budget (re-transform), and re-enqueues every window — the exact
    /// backend refolds the whole profile against the new spectrum.
    fn append(&mut self, points: &[f64], layers: &mut LayerReport) {
        let t = Instant::now();
        match &mut self.mass {
            Some(mass) => mass.append(points),
            None => {
                self.warmup.extend_from_slice(points);
                if self.warmup.len() >= self.m {
                    self.mass = Some(MassPrecomputed::new(&self.warmup, self.m));
                    self.warmup = Vec::new();
                }
            }
        }
        if let Some(mass) = &mut self.mass {
            let excess = self
                .retention
                .map_or(0, |r| mass.series().len().saturating_sub(r));
            if excess > 0 {
                mass.evict_front(excess);
            }
            let count = mass.window_count();
            self.profile.clear();
            self.profile.resize(count, f64::INFINITY);
            self.index.clear();
            self.index.resize(count, usize::MAX);
            self.pending = count;
        }
        layers.retransform += t.elapsed();
    }

    /// Runs every pending query and folds it into the profile.
    fn refresh(&mut self, layers: &mut LayerReport) {
        let Some(mass) = &self.mass else { return };
        for q in 0..std::mem::take(&mut self.pending) {
            let t0 = Instant::now();
            mass.distance_profile_into(q, &mut self.scratch, &mut self.dp);
            let t1 = Instant::now();
            for (j, &d) in self.dp.iter().enumerate() {
                if q.abs_diff(j) <= self.exclusion {
                    continue;
                }
                if improves(d, j, self.profile[q], self.index[q]) {
                    self.profile[q] = d;
                    self.index[q] = j;
                }
                if improves(d, q, self.profile[j], self.index[j]) {
                    self.profile[j] = d;
                    self.index[j] = q;
                }
            }
            let t2 = Instant::now();
            layers.mass_query += t1 - t0;
            layers.fold += t2 - t1;
        }
    }

    /// The profile snapshot, ranked as a fleet query plus `discords(k)`
    /// would.
    fn query(&self, layers: &mut LayerReport) -> MatrixProfile {
        let (profile, d) = timed(|| {
            let profile = MatrixProfile {
                m: self.m,
                exclusion: self.exclusion,
                profile: self.profile.clone(),
                index: self.index.clone(),
            };
            black_box(profile.discords(TOP_K));
            profile
        });
        layers.discords += d;
        profile
    }
}

impl Shadow for ShadowDiscord {
    type Snapshot = MatrixProfile;

    fn step(&mut self, chunk: &[f64], layers: &mut LayerReport) {
        self.append(chunk, layers);
        self.refresh(layers);
    }

    fn matches(&self, snapshot: &MatrixProfile, layers: &mut LayerReport) -> bool {
        self.query(layers) == *snapshot
    }

    /// The folded profile must equal batch `stamp` over the live series.
    fn matches_batch(&self, _layers: &mut LayerReport) -> bool {
        let Some(mass) = &self.mass else {
            return false;
        };
        self.query(&mut LayerReport::default())
            == stamp_with_exclusion(mass.series(), self.m, self.exclusion)
    }
}
