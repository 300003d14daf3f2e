//! Online (append-to-series) discord monitoring.
//!
//! [`StreamingDiscordMonitor`] owns a growing time series and keeps its
//! matrix profile — and therefore its discord set — current as points
//! are appended, under hard wall-clock latency budgets between appends.
//! It is the online driver the ROADMAP's production north-star asks for:
//! ingest a chunk of live traffic, spend a bounded slice of time
//! tightening the profile, answer "best discords so far", repeat.
//!
//! # Architecture
//!
//! Three layers cooperate:
//!
//! * [`MassPrecomputed::append`](crate::mass::MassPrecomputed::append) grows the series in place: prefix-sum
//!   window statistics continue their running totals, the padded FFT
//!   buffer gains only the new tail (re-laid-out on power-of-two
//!   growth, when the plan swaps to the next cached size), and the
//!   series spectrum is re-transformed on the process-wide cached plan.
//!   After any append schedule the struct is **bit-identical** to a
//!   fresh build over the full series.
//! * The monitor maintains an **exact fold**: the partial matrix
//!   profile folded from distance profiles computed against the
//!   *current* spectrum, under the shared `(distance, index)` rule of
//!   [`crate::profile::improves`]. Once every window has been processed
//!   as a query in the current epoch, the fold is bit-identical to a
//!   from-scratch [`stamp()`](crate::stamp::stamp) on the full series.
//! * A **carry-over** layer keeps the evidence accumulated before the
//!   latest append. Those folds were computed against a shorter
//!   series' spectrum; they are numerically within FFT round-off
//!   (~1e-9) of the current-spectrum values but not bitwise equal, so
//!   they serve [`StreamingDiscordMonitor::snapshot`] (live monitoring
//!   wants the tightest available bound *now*) and never contaminate
//!   the exact fold.
//!
//! # Why appends re-enqueue old queries
//!
//! An FFT's rounding depends on its transform length, so the same
//! mathematical distance computed against the grown series' spectrum
//! differs in the last bits from the value computed before the append.
//! A finished profile that mixed pre- and post-append folds would
//! therefore disagree with batch STAMP at the ulp level — and the
//! crate's contract (PR 1/2 standard) is *bit*-identity. The monitor
//! resolves the tension by priority, not by discarding work:
//!
//! 1. **fresh queries** (the windows the append created) run first —
//!    they are the only ones that carry genuinely new information, so
//!    snapshot quality after an append needs exactly `chunk` queries;
//! 2. never-processed older queries run next;
//! 3. queries already processed in an earlier epoch re-run last — pure
//!    numerical refresh, deferred until the stream goes quiet.
//!
//! Between appends the carry-over keeps every pair ever examined in the
//! live view, so *new points only add candidate queries* as far as
//! monitoring is concerned; the re-runs exist solely to restore
//! bit-exactness once the monitor catches up.
//!
//! # Sliding-window eviction
//!
//! [`StreamingDiscordMonitor::evict`] retires the oldest points, and
//! [`StreamingDiscordMonitor::retain_last`] installs a retention policy
//! that trims automatically after every append — together they bound
//! the monitor's memory for indefinitely-running streams. The contract
//! mirrors the append side one level up: **after any interleaving of
//! appends and evictions, [`finish`](StreamingDiscordMonitor::finish)
//! is bit-identical to a fresh batch [`stamp()`](crate::stamp::stamp)
//! over the surviving suffix** (property-tested). All indices are
//! *local to the live window*; the global position of local index `i`
//! is `stream_offset() + i` via
//! [`StreamingDiscordMonitor::stream_offset`].
//!
//! ## Eviction cost model (and why evidence is discarded)
//!
//! Appending only *adds* candidate neighbors, so pre-append evidence
//! keeps its meaning and is preserved (the carry-over). Eviction is the
//! opposite: it *removes* candidates, so a pre-eviction profile entry
//! may cite a neighbor that no longer exists — and since the suffix
//! profile's nearest-neighbor distances can only be **larger** than the
//! full-series ones, stale entries would under-report discord distances
//! and point outside the live window. The monitor therefore drops the
//! exact fold *and* the carry on eviction and re-enqueues every
//! surviving window; snapshots restart from `+∞` and re-tighten as
//! queries run. Per eviction of `c` points the immediate cost is the
//! [`MassPrecomputed::evict_front`](crate::mass::MassPrecomputed::evict_front) re-transform (`O(S log S)` at the
//! shrunken padded size `S`, plus `O(N − c)` statistics
//! re-accumulation — see its docs for why no cached state survives a
//! front truncation), and restoring full snapshot coverage costs one
//! query per surviving window, paid through the usual
//! [`step`](StreamingDiscordMonitor::step) budget. As with appends,
//! **callers should batch evictions**: the re-transform amortizes to
//! `O((S log S)/c)` per retired point.
//!
//! # Anytime STAMP
//!
//! The monitor is also the crate's batch anytime STAMP driver: append
//! the whole series once, then step it with the [`StreamSession`]
//! drivers (`run_for`, `run_until` with a wall-clock [`Deadline`],
//! `run_for_duration`), read [`snapshot`](StreamingDiscordMonitor::snapshot)
//! whenever a partial answer is wanted, and
//! [`finish`](StreamingDiscordMonitor::finish) to land bit-exactly on
//! [`stamp()`](crate::stamp::stamp). With one append there is no carry
//! and no re-run backlog: every query runs once, on the exact backend
//! in a seeded pseudo-random order, so the partial profile converges
//! uniformly across the series instead of front to back (the classic
//! STAMP recommendation). The deadline is checked before each query, so a
//! wall-clock budget is overshot by at most one query's work and an
//! expired one runs nothing.
//!
//! The seed picks the order, never the result. Each epoch's shuffle is
//! salted with the epoch count, so even the first epoch does not visit
//! queries in the unsalted shuffle of the seed; only partial snapshots
//! depend on the order.
//!
//! ```
//! use std::time::Duration;
//! use egi_discord::streaming::StreamingDiscordMonitor;
//! use egi_tskit::{Deadline, StreamSession};
//!
//! let series: Vec<f64> = (0..200).map(|i| (i as f64 * 0.2).sin()).collect();
//! let mut monitor = StreamingDiscordMonitor::new(16);
//! monitor.append(&series);
//!
//! // Spend at most 2 ms (or 50 queries) tightening the profile…
//! monitor.run_until(Deadline::after(Duration::from_millis(2)).with_query_cap(50));
//! let partial = monitor.snapshot(); // valid upper bound at any point
//!
//! // …then run to completion: bit-identical to batch `stamp()`.
//! let finished = monitor.finish();
//! assert_eq!(finished.profile, egi_discord::stamp(&series, 16).profile);
//! assert!(partial.profile.iter().zip(&finished.profile).all(|(p, f)| p >= f));
//! ```
//!
//! [`Deadline`]: egi_tskit::Deadline
//!
//! # Convergence contract
//!
//! * Within an epoch (between appends), snapshots tighten
//!   monotonically.
//! * Across an append, the snapshot is unchanged (new entries start at
//!   `+∞`) and then resumes tightening.
//! * When the monitor catches up ([`StreamingDiscordMonitor::is_current`]),
//!   the stale carry is dropped and the snapshot equals the exact fold;
//!   entries may move by FFT round-off (≤ ~1e-9) at that transition,
//!   which is the only departure from bitwise monotonicity.
//! * [`StreamingDiscordMonitor::finish`] returns, for every rayon
//!   worker count, a profile bit-identical to
//!   [`stamp_with_exclusion`](crate::stamp::stamp_with_exclusion) on
//!   the full series — property-tested across append schedules, seeds,
//!   chunk sizes, and thread counts.
//!
//! # Versioned parity contract (backend selection)
//!
//! Everything above describes the **default** backend,
//! [`MassBackend::Exact`]. The monitor can instead run on
//! [`MassBackend::Segmented`] via
//! [`StreamingDiscordMonitor::with_backend`]; the two sides of the
//! contract are:
//!
//! * **`Exact` — the bit-identical oracle.** Monolithic spectrum;
//!   `append` re-transforms the whole padded buffer (`O(S log S)` in
//!   the series length `S`); finished profiles are bitwise equal to
//!   batch [`stamp()`](crate::stamp::stamp). Every pre-existing test
//!   and CI bit-parity gate runs on this backend, byte-for-byte
//!   unchanged.
//! * **`Segmented` — the toleranced fast path.** Block spectra
//!   ([`crate::mass_seg::SegmentedMass`]): `append` costs
//!   `O(chunk + B log B)` (tail block(s) only) and `evict` costs
//!   `O(window count)` statistics rebase with **zero** FFT work, both
//!   independent of the series length; per-query refresh rolls by the
//!   MPX-style centered-covariance recurrence. Finished profiles agree
//!   with the exact backend to **≤ 1e-9 absolute** outside exclusion
//!   zones (property-tested in `tests/segmented_proptests.rs`), not
//!   bitwise.
//!
//! Two behavioral differences follow from the looser guarantee. The
//! segmented fold is **kept across appends** (the ≤1e-9 contract
//! absorbs the per-generation FFT-layout jitter the exact backend must
//! re-run queries to erase), so appends enqueue only the fresh windows
//! and there is no catch-up backlog — the key to the backend's
//! sustained ingest throughput. And queries are processed in ascending
//! order rather than the seeded shuffle, which keeps consecutive
//! queries on the rolled recurrence; the seed only matters for `Exact`.
//! Eviction semantics are identical on both backends: evidence is
//! discarded and every surviving window re-enqueued, because stale
//! entries may cite retired neighbors regardless of kernel.

use std::collections::VecDeque;
use std::io::{Read, Write};

/// The shared per-session telemetry snapshot, re-exported from
/// [`egi_obs`] for callers of [`StreamingDiscordMonitor::metrics`].
pub use egi_obs::SessionStats;
/// The persistence contract implemented by the monitor, re-exported
/// from [`egi_tskit::checkpoint`]: save at any point of an
/// append/evict/step schedule, restore, replay the rest — the finished
/// profile is bit-identical to the uninterrupted run.
pub use egi_tskit::checkpoint::{Checkpoint, CheckpointError};
use egi_tskit::checkpoint::{CheckpointReader, CheckpointWriter, FieldReader, FieldWriter};
use egi_tskit::evict::validate_evict;
/// The shared eviction error of both streaming subsystems, re-exported
/// from [`egi_tskit::evict`] for callers of
/// [`StreamingDiscordMonitor::evict`] /
/// [`StreamingDiscordMonitor::retain_last`].
pub use egi_tskit::evict::EvictError;
use egi_tskit::session::StreamClock;
/// The shared session contract (and its budgeted drivers), re-exported
/// from [`egi_tskit::session`]: import it to drive the monitor
/// generically (e.g. from an `egi-serve` fleet).
pub use egi_tskit::session::StreamSession;

use crate::mass::MassPrecomputed;
use crate::mass_seg::{EngineScratch, MassBackend, MassEngine, SegmentedMass, MAX_ROLL_CHAIN};
use crate::profile::{merge_min_into, Discord, MatrixProfile};
use crate::stamp::{fold_queries, update_from_profile};
use crate::stomp::default_exclusion;

/// Seed used by [`StreamingDiscordMonitor::new`] when the caller does
/// not pick one.
pub const DEFAULT_MONITOR_SEED: u64 = 0x5EED_CAFE;

/// Deterministic pseudo-random permutation of `0..n` (SplitMix64-keyed
/// Fisher–Yates).
///
/// Used for the monitor's per-epoch query order and for HOTSAX's
/// inner-loop visit order, where the literature prescribes "random" but
/// reproducibility demands a seeded generator.
pub(crate) fn pseudo_random_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    let mut next = || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// An online discord monitor over an append-only time series.
///
/// See the [module docs](self) for the architecture, the exact-fold /
/// carry-over split, and the convergence contract.
///
/// # Examples
///
/// ```
/// use egi_discord::streaming::StreamingDiscordMonitor;
/// use egi_tskit::StreamSession; // the budgeted drivers (`run_for`, …)
///
/// // A clean sine with one corrupted beat in the second half.
/// let mut series: Vec<f64> = (0..256).map(|i| (i as f64 * 0.4).sin()).collect();
/// for (k, v) in series[180..190].iter_mut().enumerate() {
///     *v += (k as f64 * 1.7).cos() * 2.0;
/// }
///
/// let m = 16;
/// let mut monitor = StreamingDiscordMonitor::new(m);
/// monitor.append(&series[..128]);          // warm-up batch
/// monitor.run_for(usize::MAX);             // catch up completely
/// for chunk in series[128..].chunks(32) {
///     monitor.append(chunk);               // live traffic arrives…
///     monitor.run_for(chunk.len());        // …refresh the new windows
/// }
/// let top = monitor.discords(1);           // best discord so far
/// assert!((170..=190).contains(&top[0].start), "found {}", top[0].start);
///
/// // Once caught up, the profile is bit-identical to batch STAMP.
/// let finished = monitor.finish();
/// let batch = egi_discord::stamp(&series, m);
/// assert_eq!(finished.profile, batch.profile);
/// assert_eq!(finished.index, batch.index);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingDiscordMonitor {
    m: usize,
    exclusion: usize,
    seed: u64,
    /// Epoch (salts the per-epoch query order), stream offset, and
    /// retention bookkeeping — the [`StreamClock`] shared by every
    /// [`StreamSession`] implementor.
    clock: StreamClock,
    /// Which MASS kernel backs the monitor (see the [module docs](self)
    /// "versioned parity contract" section).
    backend: MassBackend,
    /// Points buffered before the series reaches `m` (no windows yet).
    warmup: Vec<f64>,
    mass: Option<MassEngine>,
    /// Queries to process in the current epoch: fresh windows first,
    /// then never-processed older windows, then numerical re-runs.
    pending: VecDeque<usize>,
    /// Queries already folded in the current epoch, in processing order.
    done: Vec<usize>,
    /// The exact fold: evidence computed against the current spectrum.
    fold_profile: Vec<f64>,
    fold_index: Vec<usize>,
    /// Pre-append evidence (within FFT round-off of exact); dropped the
    /// moment the exact fold reaches full coverage.
    carry: Option<(Vec<f64>, Vec<usize>)>,
    scratch: EngineScratch,
    dp: Vec<f64>,
    /// Lifetime telemetry (appends, queries served, staleness) — pure
    /// `u64` bookkeeping, deliberately outside the checkpoint payload
    /// and every parity contract.
    stats: SessionStats,
}

impl StreamingDiscordMonitor {
    /// Builds an empty monitor for window length `m` with the default
    /// `m/2` exclusion zone and [`DEFAULT_MONITOR_SEED`].
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> Self {
        Self::with_seed(m, default_exclusion(m), DEFAULT_MONITOR_SEED)
    }

    /// Builds an empty monitor with an explicit exclusion half-width.
    pub fn with_exclusion(m: usize, exclusion: usize) -> Self {
        Self::with_seed(m, exclusion, DEFAULT_MONITOR_SEED)
    }

    /// Builds an empty monitor with an explicit exclusion half-width
    /// and query-order seed. The seed affects only the order pending
    /// queries are processed in, never any finished profile.
    ///
    /// # Examples
    ///
    /// ```
    /// use egi_discord::streaming::StreamingDiscordMonitor;
    /// use egi_tskit::StreamSession;
    ///
    /// let series: Vec<f64> = (0..120).map(|i| (i as f64 * 0.3).sin()).collect();
    /// let run = |seed| {
    ///     let mut monitor = StreamingDiscordMonitor::with_seed(8, 4, seed);
    ///     monitor.append(&series);
    ///     monitor.run_for(10); // a partial pass in the seed's order…
    ///     monitor.finish() // …then the same finished profile for any seed
    /// };
    /// let (a, b) = (run(1), run(2));
    /// assert_eq!(a.profile, b.profile);
    /// assert_eq!(a.index, b.index);
    /// ```
    pub fn with_seed(m: usize, exclusion: usize, seed: u64) -> Self {
        Self::with_backend(m, exclusion, seed, MassBackend::Exact)
    }

    /// Builds an empty monitor on an explicit [`MassBackend`] — the
    /// versioned parity contract's selection point (see the
    /// [module docs](self)). `Exact` is what every other constructor
    /// picks; `Segmented` trades bitwise batch parity for `O(chunk)`
    /// appends/evictions and a toleranced (≤1e-9) profile.
    pub fn with_backend(m: usize, exclusion: usize, seed: u64, backend: MassBackend) -> Self {
        assert!(m > 0, "window must be positive");
        Self {
            m,
            exclusion,
            seed,
            clock: StreamClock::new(),
            backend,
            warmup: Vec::new(),
            mass: None,
            pending: VecDeque::new(),
            done: Vec::new(),
            fold_profile: Vec::new(),
            fold_index: Vec::new(),
            carry: None,
            scratch: EngineScratch::default(),
            dp: Vec::new(),
            stats: SessionStats::default(),
        }
    }

    /// Which MASS kernel backs this monitor.
    pub fn backend(&self) -> MassBackend {
        self.backend
    }

    /// Window length `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Exclusion half-width.
    pub fn exclusion(&self) -> usize {
        self.exclusion
    }

    /// Points ingested so far.
    pub fn series_len(&self) -> usize {
        match &self.mass {
            Some(mass) => mass.series().len(),
            None => self.warmup.len(),
        }
    }

    /// The full series ingested so far.
    pub fn series(&self) -> &[f64] {
        match &self.mass {
            Some(mass) => mass.series(),
            None => &self.warmup,
        }
    }

    /// Number of sliding windows (profile length); zero until `m`
    /// points have arrived.
    pub fn window_count(&self) -> usize {
        self.mass.as_ref().map_or(0, MassEngine::window_count)
    }

    /// Queries awaiting processing in the current epoch (fresh windows
    /// plus numerical re-runs scheduled by appends).
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Queries folded since the last append.
    pub fn processed(&self) -> usize {
        self.done.len()
    }

    /// Ingest events (appends and evictions) seen so far.
    pub fn epochs(&self) -> u64 {
        self.clock.epochs()
    }

    /// Points retired from the front of the stream so far. Every index
    /// the monitor reports (profile indices, discord starts) is local
    /// to the live window; its global stream position is
    /// `stream_offset() + index`.
    pub fn stream_offset(&self) -> usize {
        self.clock.offset()
    }

    /// The retention policy installed by
    /// [`StreamingDiscordMonitor::retain_last`], if any.
    pub fn retention(&self) -> Option<usize> {
        self.clock.retention()
    }

    /// Capacity (in `f64`s) retained by the live series buffer — cheap
    /// accessor for memory-bound assertions on eviction workloads.
    pub fn series_capacity(&self) -> usize {
        match &self.mass {
            Some(mass) => mass.series_capacity(),
            None => self.warmup.capacity(),
        }
    }

    /// Current FFT transform size (0 before the first window
    /// materializes): the padded size on the exact backend — bounded by
    /// `O(retention)` under a
    /// [`retain_last`](StreamingDiscordMonitor::retain_last) policy —
    /// or the **constant** per-block size `2B` on the segmented one.
    pub fn padded_size(&self) -> usize {
        self.mass.as_ref().map_or(0, MassEngine::padded_size)
    }

    /// Capacity (in `f64`s) retained by the append/evict-path padded
    /// buffer — cheap accessor for memory-bound assertions.
    pub fn padded_capacity(&self) -> usize {
        self.mass.as_ref().map_or(0, MassEngine::padded_capacity)
    }

    /// Block-store shape `(block_count, block_size, spectra_capacity)`
    /// of the segmented backend — `None` before the first window or on
    /// the exact backend. Memory-bound tests assert blocks + spectra
    /// stay `O(n + chunk)` under a
    /// [`retain_last`](StreamingDiscordMonitor::retain_last) policy.
    pub fn block_store(&self) -> Option<(usize, usize, usize)> {
        self.mass.as_ref().and_then(MassEngine::block_store)
    }

    /// `true` once the exact fold covers every window of the current
    /// series — from here, [`StreamingDiscordMonitor::snapshot`] is
    /// bit-identical to batch STAMP on the ingested series.
    pub fn is_current(&self) -> bool {
        self.pending.is_empty()
    }

    /// Lifetime telemetry for this monitor: appends, evictions,
    /// queries served, and staleness (points appended since the fold
    /// last caught up). Pure `u64` counters — reading or keeping them
    /// never touches the numeric path — and deliberately not part of
    /// checkpoints (a restored monitor starts from zero).
    pub fn metrics(&self) -> SessionStats {
        self.stats
    }

    /// Deterministic processing order for `fresh` new queries of the
    /// current epoch: a seeded shuffle on the exact backend (anytime
    /// coverage spreads evenly), ascending on the segmented one (each
    /// query rolls from its predecessor's covariance row, so order is
    /// the throughput lever there).
    fn epoch_order(&self, offset: usize, fresh: usize) -> Vec<usize> {
        if self.backend == MassBackend::Segmented {
            return (offset..offset + fresh).collect();
        }
        let salt = self
            .seed
            .wrapping_add(self.clock.epochs().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        pseudo_random_order(fresh, salt)
            .into_iter()
            .map(|i| i + offset)
            .collect()
    }

    /// Ingests new points. Never blocks on profile work: the append
    /// cost is the spectrum refresh of [`MassPrecomputed::append`](crate::mass::MassPrecomputed::append)
    /// (plus `O(1)` bookkeeping per already-processed query), and all
    /// query processing is deferred to [`step`](Self::step) /
    /// [`run_until`](Self::run_until) so the caller controls the
    /// latency budget.
    ///
    /// New windows are enqueued ahead of everything else; queries
    /// processed in earlier epochs are re-enqueued last (see the
    /// [module docs](self) for why bit-exactness requires that).
    pub fn append(&mut self, points: &[f64]) {
        if points.is_empty() {
            return;
        }
        let span = egi_obs::SpanTimer::start();
        self.clock.record_append();
        self.ingest(points);
        let excess = self.clock.excess(self.series_len());
        if excess > 0 {
            self.evict(excess)
                .expect("retention >= m leaves a viable suffix");
        }
        self.stats
            .record_append(points.len() as u64, self.pending.is_empty());
        span.record(egi_obs::histogram!("egi_monitor_append_nanos"));
    }

    fn ingest(&mut self, points: &[f64]) {
        match &mut self.mass {
            None => {
                self.warmup.extend_from_slice(points);
                if self.warmup.len() < self.m {
                    return;
                }
                let mass = MassEngine::new(&self.warmup, self.m, self.backend);
                let count = mass.window_count();
                self.fold_profile = vec![f64::INFINITY; count];
                self.fold_index = vec![usize::MAX; count];
                self.mass = Some(mass);
                self.pending = self.epoch_order(0, count).into();
                self.warmup = Vec::new();
            }
            Some(mass) => {
                let old_count = mass.window_count();
                mass.append(points);
                let new_count = mass.window_count();
                if self.backend == MassBackend::Segmented {
                    // Toleranced contract: pre-append evidence stays in
                    // the fold (its per-generation FFT jitter fits the
                    // ≤1e-9 budget), and the symmetric per-query fold
                    // means the fresh queries alone cover every
                    // (old, new) pair — no carry, no re-runs. This is
                    // the backend's sustained-throughput win: an append
                    // of c points enqueues exactly c queries.
                    self.fold_profile.resize(new_count, f64::INFINITY);
                    self.fold_index.resize(new_count, usize::MAX);
                    let mut pending =
                        VecDeque::from(self.epoch_order(old_count, new_count - old_count));
                    pending.append(&mut self.pending);
                    self.pending = pending;
                    return;
                }
                // Preserve pre-append evidence for live snapshots…
                let (cp, ci) = self.carry.get_or_insert_with(|| {
                    (vec![f64::INFINITY; old_count], vec![usize::MAX; old_count])
                });
                cp.resize(new_count, f64::INFINITY);
                ci.resize(new_count, usize::MAX);
                merge_min_into(cp, ci, &self.fold_profile, &self.fold_index);
                // …and restart the exact fold against the new spectrum.
                self.fold_profile.clear();
                self.fold_profile.resize(new_count, f64::INFINITY);
                self.fold_index.clear();
                self.fold_index.resize(new_count, usize::MAX);
                let mut pending =
                    VecDeque::from(self.epoch_order(old_count, new_count - old_count));
                pending.append(&mut self.pending);
                pending.extend(self.done.drain(..));
                self.pending = pending;
            }
        }
    }

    /// Retires the oldest `count` points from the live window. After
    /// the eviction the monitor behaves — bit for bit, for every future
    /// operation — like a fresh monitor that ingested only the
    /// surviving suffix (plus the [`stream_offset`] bookkeeping), so
    /// [`finish`](Self::finish) lands on batch
    /// [`stamp_with_exclusion`](crate::stamp::stamp_with_exclusion)
    /// over that suffix.
    ///
    /// All accumulated evidence (exact fold and carry-over) is
    /// discarded and every surviving window re-enqueued — eviction
    /// shrinks the candidate-pair set, so pre-eviction profile entries
    /// are no longer upper bounds and may cite retired neighbors (see
    /// the [module docs](self) for the full cost model).
    ///
    /// # Errors
    ///
    /// Rejected atomically (state untouched) when `count` exceeds the
    /// live point count ([`EvictError::PastEnd`]) or a non-empty suffix
    /// shorter than `m` would survive ([`EvictError::BelowMinimum`]).
    /// Evicting *everything* is allowed: the monitor resets and the
    /// next append starts a fresh warm-up.
    ///
    /// [`stream_offset`]: Self::stream_offset
    pub fn evict(&mut self, count: usize) -> Result<(), EvictError> {
        validate_evict(self.series_len(), count, self.m)?;
        if count == 0 {
            return Ok(());
        }
        let span = egi_obs::SpanTimer::start();
        let live = self.series_len();
        self.clock.record_evict(count);
        self.pending.clear();
        self.done.clear();
        self.carry = None;
        if self.mass.is_none() {
            // Warm-up phase: the only valid non-zero eviction is the
            // full drain (validated above).
            self.warmup.clear();
        } else if count == live {
            self.mass = None;
            self.fold_profile.clear();
            self.fold_index.clear();
        } else {
            let mass = self.mass.as_mut().expect("checked above");
            mass.evict_front(count);
            let windows = mass.window_count();
            self.fold_profile.clear();
            self.fold_profile.resize(windows, f64::INFINITY);
            self.fold_index.clear();
            self.fold_index.resize(windows, usize::MAX);
            self.pending = self.epoch_order(0, windows).into();
        }
        self.stats
            .record_evict(count as u64, self.pending.is_empty());
        span.record(egi_obs::histogram!("egi_monitor_evict_nanos"));
        Ok(())
    }

    /// Installs a sliding-window retention policy and trims the live
    /// window to at most `n` points now and after every future append —
    /// the bounded-memory mode for unbounded streams. Returns how many
    /// points the immediate trim retired.
    ///
    /// # Errors
    ///
    /// [`EvictError::BelowMinimum`] when `n < m` (the policy could
    /// never keep a viable window); the state is untouched.
    ///
    /// # Examples
    ///
    /// ```
    /// use egi_discord::streaming::StreamingDiscordMonitor;
    ///
    /// let series: Vec<f64> = (0..600)
    ///     .map(|i| (i as f64 * 0.3).sin() + ((i * 13) % 7) as f64 * 0.05)
    ///     .collect();
    /// let m = 16;
    /// let mut monitor = StreamingDiscordMonitor::new(m);
    /// monitor.retain_last(256).unwrap();
    /// for chunk in series.chunks(64) {
    ///     monitor.append(chunk); // auto-trims to the last 256 points
    /// }
    /// assert_eq!(monitor.series_len(), 256);
    /// assert_eq!(monitor.stream_offset(), 600 - 256);
    ///
    /// // The finished profile is bit-identical to batch STAMP over the
    /// // surviving suffix.
    /// let finished = monitor.finish();
    /// let batch = egi_discord::stamp(&series[600 - 256..], m);
    /// assert_eq!(finished.profile, batch.profile);
    /// assert_eq!(finished.index, batch.index);
    /// ```
    pub fn retain_last(&mut self, n: usize) -> Result<usize, EvictError> {
        if n < self.m {
            return Err(EvictError::BelowMinimum {
                remaining: n,
                minimum: self.m,
            });
        }
        self.clock.set_retention(n);
        let excess = self.clock.excess(self.series_len());
        if excess > 0 {
            self.evict(excess)?;
        }
        Ok(excess)
    }

    /// Processes the next pending query into the exact fold. Returns
    /// `false` when the monitor is already current (or has no windows).
    pub fn step(&mut self) -> bool {
        let Some(mass) = &self.mass else {
            return false;
        };
        let Some(q) = self.pending.pop_front() else {
            return false;
        };
        mass.distance_profile_into(q, &mut self.scratch, &mut self.dp);
        update_from_profile(
            q,
            &self.dp,
            self.exclusion,
            &mut self.fold_profile,
            &mut self.fold_index,
        );
        self.done.push(q);
        if self.pending.is_empty() {
            // Full coverage on the current spectrum: the stale carry can
            // only differ in the last bits, so drop it and let snapshots
            // return the exact (batch-bit-identical) profile.
            self.carry = None;
        }
        self.stats.record_step(self.pending.is_empty());
        true
    }

    /// Releases the slack capacity the streaming buffers accumulated —
    /// the memory-reclamation counterpart of
    /// [`retain_last`](Self::retain_last), mirroring
    /// `StreamingEnsembleDetector::compact` for API symmetry.
    ///
    /// Eviction truncates *lengths* but deliberately keeps *capacity*
    /// (the steady-state append/evict cycle reuses it); after a heavy
    /// one-off eviction that capacity is dead weight. `compact` shrinks
    /// the series buffer, the padded FFT buffer, the cached spectra
    /// (per-block on the segmented backend), and the per-query scratch
    /// down to the live working set. Purely an allocation-level
    /// operation: no observable state changes, and every parity
    /// contract is untouched.
    pub fn compact(&mut self) {
        if let Some(mass) = &mut self.mass {
            mass.compact();
        }
        self.warmup.shrink_to_fit();
        self.pending.shrink_to_fit();
        self.done.shrink_to_fit();
        self.fold_profile.shrink_to_fit();
        self.fold_index.shrink_to_fit();
        self.dp.shrink_to_fit();
        self.scratch = EngineScratch::default();
    }

    /// The current best-known matrix profile: the exact fold min-merged
    /// with the pre-append carry-over. Entries no processed query has
    /// reached are `+∞` / `usize::MAX`; every entry is an upper bound
    /// on the batch profile of the ingested series, up to FFT round-off
    /// (carry-over evidence was computed against a shorter series'
    /// spectrum and may sit ~1e-9 below the batch value — see the
    /// [module docs](self); once
    /// [`is_current`](StreamingDiscordMonitor::is_current) the bound is
    /// exact and bitwise).
    pub fn snapshot(&self) -> MatrixProfile {
        let mut profile = self.fold_profile.clone();
        let mut index = self.fold_index.clone();
        if let Some((cp, ci)) = &self.carry {
            merge_min_into(&mut profile, &mut index, cp, ci);
        }
        MatrixProfile {
            m: self.m,
            exclusion: self.exclusion,
            profile,
            index,
        }
    }

    /// Top-`k` non-overlapping discords of the current snapshot — the
    /// "best discords so far" answer.
    pub fn discords(&self, k: usize) -> Vec<Discord> {
        self.snapshot().discords(k)
    }

    /// Processes every pending query and returns the finished profile —
    /// bit-identical to
    /// [`stamp_with_exclusion`](crate::stamp::stamp_with_exclusion) on
    /// the full ingested series, for every rayon worker count.
    ///
    /// On the exact backend the pending queries fan out over the
    /// current rayon pool's workers (per-worker partial folds merged
    /// under the shared `(distance, index)` rule, exactly as batch
    /// STAMP); the segmented backend folds them in order on the rolled
    /// path. Session counters advance
    /// exactly as if every query had been [`step`](Self::step)ped.
    pub fn finish(&mut self) -> MatrixProfile {
        let Some(mass) = &self.mass else {
            return self.snapshot();
        };
        if self.pending.is_empty() {
            return self.snapshot();
        }
        let queries: Vec<usize> = self.pending.drain(..).collect();
        fold_queries(
            mass,
            &queries,
            self.exclusion,
            &mut self.scratch,
            &mut self.fold_profile,
            &mut self.fold_index,
        );
        self.stats.steps += queries.len() as u64;
        self.stats.caught_up += 1;
        self.stats.staleness_points = 0;
        self.done.extend(queries);
        self.carry = None;
        self.snapshot()
    }
}

/// Section tag of the monitor-state section (`b"MON1"` little-endian).
const CKPT_SECTION_MONITOR: u32 = u32::from_le_bytes(*b"MON1");
/// Section tag of the engine-state section (`b"ENG1"`), present only
/// once the monitor has left warm-up.
const CKPT_SECTION_ENGINE: u32 = u32::from_le_bytes(*b"ENG1");
const CKPT_MONITOR_VERSION: u32 = 1;
const CKPT_ENGINE_VERSION: u32 = 1;

fn corrupt(what: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(what.into())
}

/// Rejects a series with a NaN or infinite point: every window touching
/// it would z-normalize to NaN and poison the fold.
fn check_finite(what: &str, values: &[f64]) -> Result<(), CheckpointError> {
    if values.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(corrupt(format!("{what} contains non-finite values")))
    }
}

/// Rejects profile distances that are NaN or negative; `+∞` is the
/// legitimate "no neighbor yet" entry.
fn check_distances(what: &str, profile: &[f64]) -> Result<(), CheckpointError> {
    if profile.iter().all(|&d| d >= 0.0) {
        Ok(())
    } else {
        Err(corrupt(format!("{what} holds a NaN or negative distance")))
    }
}

/// Persistence for the monitor (see [`Checkpoint`] for the container
/// format). The checkpoint holds the series plus the fold/queue
/// bookkeeping; FFT spectra, prefix sums, and window statistics are
/// re-derived on load — each is a pure per-entry function of the series
/// (and, on the segmented backend, the checkpointed block-grid layout),
/// so the rebuilt kernel is bit-identical to the evolved original and
/// checkpoints stay `O(series)` small. The segmented rolled-chain row
/// **is** serialized: a restored monitor that reseeded instead of
/// continuing the roll would diverge from the uninterrupted run at the
/// ulp level.
impl Checkpoint for StreamingDiscordMonitor {
    fn save_checkpoint(&self, writer: &mut impl Write) -> Result<(), CheckpointError> {
        let sections = 1 + u32::from(self.mass.is_some());
        let mut out = CheckpointWriter::begin(writer, sections)?;
        let mut f = FieldWriter::new();
        f.usize(self.m);
        f.usize(self.exclusion);
        f.u64(self.seed);
        f.u32(match self.backend {
            MassBackend::Exact => 0,
            MassBackend::Segmented => 1,
        });
        f.u64(self.clock.epochs());
        f.usize(self.clock.offset());
        f.opt_usize(self.clock.retention());
        f.f64_slice(&self.warmup);
        f.f64_slice(&self.fold_profile);
        f.usize_slice(&self.fold_index);
        let pending: Vec<usize> = self.pending.iter().copied().collect();
        f.usize_slice(&pending);
        f.usize_slice(&self.done);
        match &self.carry {
            None => f.bool(false),
            Some((cp, ci)) => {
                f.bool(true);
                f.f64_slice(cp);
                f.usize_slice(ci);
            }
        }
        out.section(CKPT_SECTION_MONITOR, CKPT_MONITOR_VERSION, &f.into_bytes())?;
        let Some(mass) = &self.mass else {
            return Ok(());
        };
        let mut f = FieldWriter::new();
        match mass {
            MassEngine::Exact(mass) => f.f64_slice(mass.series()),
            MassEngine::Segmented(seg) => {
                f.f64_slice(seg.grid_series());
                f.usize(seg.dead_prefix());
                f.usize(seg.block_size());
                f.u64(seg.generation());
                // Only a current-generation rolled row is worth keeping:
                // a stale one would be ignored by the next query on both
                // the original and the restored monitor alike.
                match self.scratch.seg.rolled_row() {
                    Some((g, q, chain, cov)) if g == seg.generation() => {
                        f.bool(true);
                        f.usize(q);
                        f.usize(chain);
                        f.f64_slice(cov);
                    }
                    _ => f.bool(false),
                }
            }
        }
        out.section(CKPT_SECTION_ENGINE, CKPT_ENGINE_VERSION, &f.into_bytes())?;
        Ok(())
    }

    fn load_checkpoint(reader: &mut impl Read) -> Result<Self, CheckpointError> {
        let mut input = CheckpointReader::begin(reader)?;
        let (_, payload) = input.section(CKPT_SECTION_MONITOR, CKPT_MONITOR_VERSION)?;
        let mut f = FieldReader::new(&payload);
        let m = f.usize()?;
        let exclusion = f.usize()?;
        let seed = f.u64()?;
        let backend = match f.u32()? {
            0 => MassBackend::Exact,
            1 => MassBackend::Segmented,
            other => return Err(corrupt(format!("unknown backend tag {other}"))),
        };
        let epochs = f.u64()?;
        let offset = f.usize()?;
        let retention = f.opt_usize()?;
        let warmup = f.f64_vec()?;
        let fold_profile = f.f64_vec()?;
        let fold_index = f.usize_vec()?;
        let pending = f.usize_vec()?;
        let done = f.usize_vec()?;
        let carry = if f.bool()? {
            Some((f.f64_vec()?, f.usize_vec()?))
        } else {
            None
        };
        f.finish()?;
        if m == 0 {
            return Err(corrupt("window m must be positive"));
        }
        check_finite("warm-up buffer", &warmup)?;
        check_distances("fold", &fold_profile)?;
        if let Some((cp, _)) = &carry {
            check_distances("carry", cp)?;
        }
        if let Some(n) = retention {
            // retain_last rejects n < m, so no saved monitor holds one;
            // honoring it would panic inside the next append's auto-trim.
            if n < m {
                return Err(corrupt(format!("retention {n} below window {m}")));
            }
        }

        let (mass, rolled) = if input.sections_remaining() == 0 {
            // Warm-up phase: no windows yet, all per-window state empty.
            if warmup.len() >= m {
                return Err(corrupt("warm-up buffer holds a full window"));
            }
            if !fold_profile.is_empty()
                || !fold_index.is_empty()
                || !pending.is_empty()
                || !done.is_empty()
                || carry.is_some()
            {
                return Err(corrupt("per-window state present without an engine"));
            }
            (None, None)
        } else {
            let (_, payload) = input.section(CKPT_SECTION_ENGINE, CKPT_ENGINE_VERSION)?;
            let mut f = FieldReader::new(&payload);
            if !warmup.is_empty() {
                return Err(corrupt("warm-up buffer non-empty alongside an engine"));
            }
            let (engine, rolled) = match backend {
                MassBackend::Exact => {
                    let series = f.f64_vec()?;
                    if series.len() < m {
                        return Err(corrupt("series shorter than the window"));
                    }
                    check_finite("series", &series)?;
                    // A fresh build is bit-identical to the evolved
                    // engine after any append/evict schedule (the
                    // kernel's own contract), so the series is the
                    // whole state.
                    (MassEngine::Exact(MassPrecomputed::new(&series, m)), None)
                }
                MassBackend::Segmented => {
                    let grid = f.f64_vec()?;
                    let head = f.usize()?;
                    let block = f.usize()?;
                    let generation = f.u64()?;
                    let rolled = if f.bool()? {
                        Some((generation, f.usize()?, f.usize()?, f.f64_vec()?))
                    } else {
                        None
                    };
                    if !block.is_power_of_two() || block < m {
                        return Err(corrupt(format!("bad block size {block} for window {m}")));
                    }
                    if head >= block {
                        return Err(corrupt(format!("dead prefix {head} not below {block}")));
                    }
                    if head + m > grid.len() {
                        return Err(corrupt("fewer than m live points in the grid"));
                    }
                    check_finite("segmented grid", &grid)?;
                    (
                        MassEngine::Segmented(SegmentedMass::restore(
                            grid, head, m, block, generation,
                        )),
                        rolled,
                    )
                }
            };
            f.finish()?;
            let count = engine.window_count();
            if fold_profile.len() != count || fold_index.len() != count {
                return Err(corrupt("fold length disagrees with the window count"));
            }
            let in_range = |q: &usize| *q < count;
            if !pending.iter().all(in_range) || !done.iter().all(in_range) {
                return Err(corrupt("query index out of range"));
            }
            if !fold_index.iter().all(|&i| i == usize::MAX || i < count) {
                return Err(corrupt("fold neighbor index out of range"));
            }
            if let Some((cp, ci)) = &carry {
                if cp.len() != count || ci.len() != count {
                    return Err(corrupt("carry length disagrees with the window count"));
                }
                if !ci.iter().all(|&i| i == usize::MAX || i < count) {
                    return Err(corrupt("carry neighbor index out of range"));
                }
            }
            if let Some((_, q, chain, cov)) = &rolled {
                if *q >= count || *chain > MAX_ROLL_CHAIN || cov.len() != count {
                    return Err(corrupt("rolled-chain row inconsistent with the grid"));
                }
            }
            (Some(engine), rolled)
        };

        let mut monitor = Self {
            m,
            exclusion,
            seed,
            clock: StreamClock::with_state(epochs, offset, retention),
            backend,
            warmup,
            mass,
            pending: pending.into(),
            done,
            fold_profile,
            fold_index,
            carry,
            scratch: EngineScratch::default(),
            dp: Vec::new(),
            // Telemetry describes a process, not resumable state: a
            // restored monitor starts counting from zero.
            stats: SessionStats::default(),
        };
        if let Some((generation, q, chain, cov)) = rolled {
            monitor
                .scratch
                .seg
                .set_rolled_row(generation, q, chain, cov);
        }
        Ok(monitor)
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use egi_tskit::checkpoint::{fnv64, list_sections};
    use egi_tskit::Deadline;

    use super::*;
    use crate::stamp::stamp_with_exclusion;

    /// Runs `f` on a rayon pool pinned to `threads` workers.
    fn on_workers<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    fn test_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                (t * 0.13).sin() * 1.2 + 0.5 * (t * 0.041).cos() + ((i * 29) % 13) as f64 * 0.06
            })
            .collect()
    }

    #[test]
    fn finished_profile_matches_batch_stamp_bitwise() {
        let series = test_series(240);
        let m = 8;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        for chunk in [1usize, 7, 64, 240] {
            let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
            for part in series.chunks(chunk) {
                monitor.append(part);
            }
            let finished = monitor.finish();
            assert_eq!(finished.profile, reference.profile, "chunk {chunk}");
            assert_eq!(finished.index, reference.index, "chunk {chunk}");
            assert!(monitor.is_current());
        }
    }

    #[test]
    fn interleaved_stepping_still_matches_batch() {
        let series = test_series(200);
        let m = 10;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        for seed in [0u64, 9, 0xFEED] {
            let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
            for part in series.chunks(23) {
                monitor.append(part);
                monitor.run_for(11); // leave a backlog on purpose
                let _ = monitor.snapshot();
            }
            let finished = monitor.finish();
            assert_eq!(finished.profile, reference.profile, "seed {seed}");
            assert_eq!(finished.index, reference.index, "seed {seed}");
        }
    }

    #[test]
    fn finish_deterministic_across_worker_counts() {
        let series = test_series(220);
        let m = 9;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        for threads in [1usize, 2, 3, 8] {
            let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
            for part in series.chunks(31) {
                monitor.append(part);
                monitor.run_for(5);
            }
            let finished = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| monitor.finish());
            assert_eq!(finished.profile, reference.profile, "{threads} threads");
            assert_eq!(finished.index, reference.index, "{threads} threads");
        }
    }

    /// `finish` folds the backlog in one bulk call; its session
    /// counters must match a monitor that stepped through the same
    /// backlog one query at a time, on one worker and on several.
    #[test]
    fn bulk_finish_keeps_the_counters_of_stepping() {
        let series = test_series(300);
        let drive = |monitor: &mut StreamingDiscordMonitor| {
            for (i, part) in series.chunks(40).enumerate() {
                monitor.append(part);
                monitor.run_for(7);
                if i == 3 {
                    monitor.evict(50).unwrap();
                }
            }
        };
        for threads in [1usize, 4] {
            let mut bulk = StreamingDiscordMonitor::new(10);
            let mut stepped = StreamingDiscordMonitor::new(10);
            drive(&mut bulk);
            drive(&mut stepped);
            assert!(bulk.pending() > 1, "a real backlog to drain");
            let finished = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| bulk.finish());
            stepped.run_for(usize::MAX);
            let snapshot = stepped.snapshot();
            assert_eq!(bulk.metrics(), stepped.metrics(), "{threads} workers");
            assert_eq!(finished.profile, snapshot.profile, "{threads} workers");
            assert_eq!(finished.index, snapshot.index, "{threads} workers");
        }
    }

    #[test]
    fn warmup_buffers_until_m_points() {
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&[1.0, 2.0, 3.0]);
        assert_eq!(monitor.window_count(), 0);
        assert!(monitor.snapshot().is_empty());
        assert!(!monitor.step());
        assert!(monitor.discords(3).is_empty());
        monitor.append(&test_series(13));
        assert_eq!(monitor.series_len(), 16);
        assert_eq!(monitor.window_count(), 9);
        assert_eq!(monitor.pending(), 9);
    }

    #[test]
    fn snapshot_is_stable_across_an_append() {
        let series = test_series(180);
        let m = 8;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series[..120]);
        monitor.run_for(40);
        let before = monitor.snapshot();
        monitor.append(&series[120..]);
        let after = monitor.snapshot();
        // Old entries unchanged; new entries start untouched.
        assert_eq!(&after.profile[..before.len()], &before.profile[..]);
        assert_eq!(&after.index[..before.len()], &before.index[..]);
        assert!(after.profile[before.len()..]
            .iter()
            .all(|d| d.is_infinite()));
    }

    #[test]
    fn snapshots_tighten_within_an_epoch() {
        let series = test_series(160);
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&series[..100]);
        monitor.run_for(usize::MAX);
        monitor.append(&series[100..]);
        let mut previous = monitor.snapshot();
        let mut was_current = monitor.is_current();
        while monitor.run_for(13) > 0 {
            let current = monitor.snapshot();
            for i in 0..previous.len() {
                // Bitwise monotone while the carry is live; the
                // catch-up transition (stale carry dropped in favor of
                // the exact fold) may move entries by FFT round-off —
                // the one documented departure.
                let slack = if monitor.is_current() && !was_current {
                    1e-9 * (1.0 + previous.profile[i].abs())
                } else {
                    0.0
                };
                assert!(
                    current.profile[i] <= previous.profile[i] + slack,
                    "entry {i} rose: {} -> {}",
                    previous.profile[i],
                    current.profile[i]
                );
            }
            was_current = monitor.is_current();
            previous = current;
        }
        assert!(monitor.is_current());
    }

    #[test]
    fn fresh_queries_run_before_the_backlog() {
        let series = test_series(150);
        let m = 8;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series[..100]);
        monitor.run_for(usize::MAX);
        assert!(monitor.is_current());
        let old_count = monitor.window_count();
        monitor.append(&series[100..]);
        let fresh = monitor.window_count() - old_count;
        // Processing exactly the fresh queries covers every new window.
        assert_eq!(monitor.run_for(fresh), fresh);
        let snap = monitor.snapshot();
        assert!(
            snap.profile[old_count..].iter().all(|d| d.is_finite()),
            "new windows must be covered after `fresh` steps"
        );
        // The backlog (numerical re-runs) is still pending.
        assert_eq!(monitor.pending(), old_count);
        assert!(!monitor.is_current());
    }

    #[test]
    fn monitor_finds_an_injected_discord_mid_stream() {
        let mut series: Vec<f64> = (0..400).map(|i| (i as f64 * 0.35).sin()).collect();
        for (k, v) in series[300..315].iter_mut().enumerate() {
            *v = 2.5 + (k as f64 * 2.1).sin() * 1.5;
        }
        let m = 20;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series[..250]);
        monitor.run_for(usize::MAX);
        for chunk in series[250..].chunks(50) {
            monitor.append(chunk);
            monitor.run_for(chunk.len());
        }
        let top = monitor.discords(1);
        assert_eq!(top.len(), 1);
        assert!(
            (285..=315).contains(&top.first().unwrap().start),
            "top discord at {} should cover the corrupted beat",
            top.first().unwrap().start
        );
    }

    #[test]
    fn run_for_duration_respects_zero_budget() {
        let series = test_series(150);
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&series);
        assert_eq!(monitor.run_for_duration(Duration::ZERO), 0);
        assert_eq!(monitor.processed(), 0);
    }

    /// `run_until` checks the clock *before* each query, so an
    /// already-expired deadline (a zero budget included) runs zero
    /// queries — the structural half of the "never overshoots by more
    /// than one query's work" guarantee.
    #[test]
    fn expired_deadline_runs_nothing() {
        let series = test_series(150);
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&series);
        assert_eq!(monitor.run_until(Deadline::at(Instant::now())), 0);
        let past = Instant::now() - Duration::from_secs(1);
        assert_eq!(monitor.run_until(Deadline::at(past)), 0);
        assert_eq!(monitor.run_for_duration(Duration::ZERO), 0);
        assert_eq!(monitor.processed(), 0);
    }

    /// The wall-clock half: overshoot beyond the deadline is bounded by
    /// one query's work. The load-bearing asserts are structural (some
    /// progress was made; the run stopped on the clock, far short of
    /// completion — thousands of queries short, so no scheduler stall
    /// can fake it). The elapsed-time bound uses a very generous
    /// absolute slack: it exists to catch "run_until ignores the clock
    /// entirely" regressions (which would run ~seconds), not to measure
    /// scheduling jitter, so CI noise cannot flake it.
    #[test]
    fn run_until_overshoot_is_bounded_by_one_query() {
        let series: Vec<f64> = (0..6000)
            .map(|i| (i as f64 * 0.11).sin() + 0.3 * (i as f64 * 0.013).cos())
            .collect();
        let mut monitor = StreamingDiscordMonitor::new(64);
        monitor.append(&series);
        // Warm up caches/allocations so the timed region is steady-state.
        assert_eq!(monitor.run_for(32), 32);
        let budget = Duration::from_millis(10);
        let start = Instant::now();
        let ran = monitor.run_until(Deadline::after(budget));
        let elapsed = start.elapsed();
        assert!(ran > 0, "a 10ms budget must admit at least one query");
        assert!(
            !monitor.is_current(),
            "the run must have been stopped by the clock, not completion \
             ({} of {} queries processed)",
            monitor.processed(),
            monitor.window_count()
        );
        let slack = Duration::from_millis(250);
        assert!(
            elapsed <= budget + slack,
            "overshoot: ran {ran} queries in {elapsed:?} against a {budget:?} budget"
        );
    }

    #[test]
    fn deadline_query_budget_matches_run_for() {
        let series = test_series(160);
        let mut a = StreamingDiscordMonitor::with_seed(8, 4, 5);
        let mut b = StreamingDiscordMonitor::with_seed(8, 4, 5);
        a.append(&series);
        b.append(&series);
        a.run_for(23);
        b.run_until(Deadline::queries(23));
        assert_eq!(a.processed(), b.processed());
        assert_eq!(a.snapshot().profile, b.snapshot().profile);
        // Unbounded deadline = run to completion.
        b.run_until(Deadline::unbounded());
        assert!(b.is_current());
        // Query cap composes with (not yet expired) wall-clock bounds.
        let far = Deadline::at(Instant::now() + Duration::from_secs(3600)).with_query_cap(7);
        assert_eq!(a.run_until(far), 7);
    }

    #[test]
    fn pseudo_random_order_is_a_permutation() {
        let order = pseudo_random_order(100, 42);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(order, (0..100).collect::<Vec<_>>());
        // Seeded: same seed, same order; different seed, different order.
        assert_eq!(order, pseudo_random_order(100, 42));
        assert_ne!(order, pseudo_random_order(100, 43));
    }

    #[test]
    fn pseudo_random_order_handles_degenerate_lengths() {
        for seed in [0u64, 42, u64::MAX] {
            assert!(pseudo_random_order(0, seed).is_empty());
            assert_eq!(pseudo_random_order(1, seed), vec![0]);
        }
    }

    #[test]
    fn exact_ties_are_seed_independent() {
        // Flat plateaus tie at exactly 0.0; the index vector must not
        // depend on which query reached them first.
        let mut series = Vec::new();
        series.extend(std::iter::repeat_n(1.0, 8));
        series.extend((0..8).map(|i| (i as f64 * 0.9).sin()));
        series.extend(std::iter::repeat_n(5.0, 8));
        series.extend((0..8).map(|i| (i as f64 * 1.3).cos()));
        series.extend(std::iter::repeat_n(2.0, 8));
        let m = 4;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        for seed in 0..6u64 {
            let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
            monitor.append(&series);
            // Step query by query, so the fold runs in the seed's order.
            monitor.run_for(usize::MAX);
            let finished = monitor.finish();
            assert_eq!(finished.index, reference.index, "seed {seed}");
            assert_eq!(finished.profile, reference.profile, "seed {seed}");
        }
    }

    #[test]
    fn single_window_series_is_immediately_done_after_one_step() {
        let mut monitor = StreamingDiscordMonitor::with_exclusion(3, 1);
        monitor.append(&[1.0, 2.0, 3.0]);
        assert_eq!(monitor.window_count(), 1);
        assert!(monitor.step());
        assert!(monitor.is_current());
        assert!(!monitor.step());
        let mp = on_workers(4, || monitor.finish());
        assert!(mp.profile[0].is_infinite());
        assert_eq!(mp.index[0], usize::MAX);
    }

    #[test]
    fn seed_changes_order_not_result() {
        let series = test_series(170);
        let m = 7;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        for seed in 0..5u64 {
            let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
            for part in series.chunks(41) {
                monitor.append(part);
                monitor.run_for(17);
            }
            let finished = monitor.finish();
            assert_eq!(finished.profile, reference.profile, "seed {seed}");
            assert_eq!(finished.index, reference.index, "seed {seed}");
        }
    }

    #[test]
    fn whole_series_append_then_finish_is_batch_stamp() {
        // One append of the whole series followed by a bulk finish
        // (no stepping, no carry, no re-runs) lands bit-exactly on
        // batch STAMP with the same exclusion.
        let series = test_series(130);
        let m = 6;
        let exc = 3;
        let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
        monitor.append(&series);
        let finished = monitor.finish();
        let reference = stamp_with_exclusion(&series, m, exc);
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
    }

    // ------------------------------------------------------------------
    // Batch anytime STAMP: one whole-series append, then budgeted
    // stepping. No carry and no re-runs, so every query runs once.

    #[test]
    fn finished_run_is_bit_identical_to_stamp() {
        let series = test_series(180);
        let m = 9;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        for seed in [0u64, 1, 0xDEADBEEF] {
            let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
            monitor.append(&series);
            monitor.run_for(13);
            let finished = monitor.finish();
            assert_eq!(finished.profile, reference.profile, "seed {seed}");
            assert_eq!(finished.index, reference.index, "seed {seed}");
        }
    }

    #[test]
    fn interleaved_stepping_reaches_the_same_profile() {
        let series = test_series(150);
        let m = 8;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, 7);
        monitor.append(&series);
        assert!(monitor.step());
        assert_eq!(monitor.processed(), 1);
        monitor.run_for(10);
        assert_eq!(monitor.processed(), 11);
        let finished = on_workers(4, || monitor.finish());
        assert!(monitor.is_current());
        assert!(!monitor.step());
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
    }

    #[test]
    fn single_append_finish_deterministic_across_worker_counts() {
        let series = test_series(220);
        let m = 10;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        for threads in [1usize, 2, 3, 8] {
            let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
            monitor.append(&series);
            let finished = on_workers(threads, || monitor.finish());
            assert_eq!(finished.profile, reference.profile, "{threads} threads");
            assert_eq!(finished.index, reference.index, "{threads} threads");
        }
    }

    /// The acceptance contract against STOMP: on deterministic
    /// fixtures the finished profile agrees with STOMP to 1e-6 (the
    /// permutation proptest uses 1e-5 because adversarial random series
    /// amplify FFT-vs-incremental error through the sqrt near zero
    /// distances).
    #[test]
    fn finished_profile_matches_stomp_to_1e6() {
        let series = test_series(250);
        for &m in &[6usize, 12] {
            let mut monitor = StreamingDiscordMonitor::new(m);
            monitor.append(&series);
            let finished = monitor.finish();
            let stomp = crate::stomp::stomp_with_exclusion(&series, m, m / 2);
            for i in 0..finished.len() {
                assert!(
                    (finished.profile[i] - stomp.profile[i]).abs() < 1e-6,
                    "m={m} i={i}: {} vs {}",
                    finished.profile[i],
                    stomp.profile[i]
                );
            }
        }
    }

    #[test]
    fn snapshots_converge_monotonically() {
        // With no carry, every entry is bitwise monotone from the first
        // query to the last.
        let series = test_series(160);
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&series);
        let mut previous = monitor.snapshot();
        while monitor.run_for(17) > 0 {
            let current = monitor.snapshot();
            for i in 0..current.len() {
                assert!(
                    current.profile[i] <= previous.profile[i],
                    "entry {i} rose: {} -> {}",
                    previous.profile[i],
                    current.profile[i]
                );
            }
            previous = current;
        }
        assert!(monitor.is_current());
    }

    #[test]
    fn partial_profile_is_upper_bound_on_final() {
        let series = test_series(140);
        let m = 7;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, 3);
        monitor.append(&series);
        monitor.run_for(monitor.window_count() / 4);
        let partial = monitor.snapshot();
        for i in 0..partial.len() {
            assert!(
                partial.profile[i] >= reference.profile[i] - 1e-12,
                "entry {i}"
            );
        }
    }

    #[test]
    fn single_append_runs_every_query_once_in_seeded_order() {
        let series = test_series(200);
        let m = 8;
        let n = series.len() - m + 1;
        let prefix = |seed| {
            let mut monitor = StreamingDiscordMonitor::with_seed(m, m / 2, seed);
            monitor.append(&series);
            monitor.run_for(n / 10);
            let prefix = monitor.done.clone();
            monitor.run_for(usize::MAX);
            let mut all = monitor.done.clone();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "seed {seed}");
            prefix
        };
        let a = prefix(1);
        assert_eq!(a.len(), n / 10);
        // Spread over the series, not front to back.
        assert!(a.iter().any(|&q| q >= n / 2), "{a:?}");
        assert_ne!(a, prefix(2), "the seed picks the order");
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        StreamingDiscordMonitor::new(0);
    }

    // ------------------------------------------------------------------
    // Sliding-window eviction: boundary regressions. The property
    // harness in tests/eviction_proptests.rs covers random schedules;
    // these pin the exact edges of the contract.
    // ------------------------------------------------------------------

    #[test]
    fn evict_then_finish_matches_batch_over_suffix() {
        let series = test_series(260);
        let m = 9;
        let exc = m / 2;
        for cut in [1usize, 40, 137] {
            let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
            for part in series.chunks(33) {
                monitor.append(part);
                monitor.run_for(7);
            }
            monitor.evict(cut).unwrap();
            assert_eq!(monitor.stream_offset(), cut);
            let finished = monitor.finish();
            let reference = stamp_with_exclusion(&series[cut..], m, exc);
            assert_eq!(finished.profile, reference.profile, "cut {cut}");
            assert_eq!(finished.index, reference.index, "cut {cut}");
        }
    }

    #[test]
    fn evict_to_exactly_m_points_leaves_one_window() {
        let series = test_series(100);
        let m = 8;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series);
        monitor.evict(series.len() - m).unwrap();
        assert_eq!(monitor.series_len(), m);
        assert_eq!(monitor.window_count(), 1);
        let finished = monitor.finish();
        let reference = stamp_with_exclusion(&series[series.len() - m..], m, m / 2);
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
    }

    #[test]
    fn evict_below_minimum_errors_without_state_change() {
        let series = test_series(60);
        let m = 10;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series);
        monitor.run_for(usize::MAX);
        let before = monitor.snapshot();
        // A non-empty suffix shorter than m must be rejected…
        assert_eq!(
            monitor.evict(55),
            Err(EvictError::BelowMinimum {
                remaining: 5,
                minimum: m
            })
        );
        // …as must reaching past the stream.
        assert_eq!(
            monitor.evict(61),
            Err(EvictError::PastEnd {
                requested: 61,
                available: 60
            })
        );
        // Atomic rejection: nothing moved.
        assert_eq!(monitor.series_len(), 60);
        assert_eq!(monitor.stream_offset(), 0);
        assert_eq!(monitor.epochs(), 1);
        let after = monitor.snapshot();
        assert_eq!(after.profile, before.profile);
        assert_eq!(after.index, before.index);
    }

    #[test]
    fn evict_everything_then_append_restarts_cleanly() {
        let series = test_series(150);
        let m = 7;
        let exc = m / 2;
        let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
        monitor.append(&series[..90]);
        monitor.run_for(20);
        monitor.evict(90).unwrap();
        assert_eq!(monitor.series_len(), 0);
        assert_eq!(monitor.window_count(), 0);
        assert_eq!(monitor.stream_offset(), 90);
        assert!(monitor.snapshot().is_empty());
        assert!(!monitor.step());
        // A fresh stream begins, warm-up and all.
        monitor.append(&series[90..93]);
        assert_eq!(monitor.window_count(), 0, "back in warm-up");
        monitor.append(&series[93..]);
        let finished = monitor.finish();
        let reference = stamp_with_exclusion(&series[90..], m, exc);
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
        assert_eq!(monitor.stream_offset(), 90);
    }

    #[test]
    fn one_point_evictions_mirror_one_point_appends() {
        let series = test_series(90);
        let m = 6;
        let exc = m / 2;
        let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
        monitor.append(&series);
        for step in 1..=20usize {
            monitor.evict(1).unwrap();
            assert_eq!(monitor.stream_offset(), step);
            monitor.run_for(3);
        }
        let finished = monitor.finish();
        let reference = stamp_with_exclusion(&series[20..], m, exc);
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
    }

    #[test]
    fn evict_during_warmup_only_full_drain_is_valid() {
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&[1.0, 2.0, 3.0]);
        assert_eq!(
            monitor.evict(1),
            Err(EvictError::BelowMinimum {
                remaining: 2,
                minimum: 8
            })
        );
        monitor.evict(3).unwrap();
        assert_eq!(monitor.series_len(), 0);
        assert_eq!(monitor.stream_offset(), 3);
    }

    #[test]
    fn evict_zero_is_a_noop() {
        let series = test_series(80);
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&series);
        monitor.run_for(10);
        let epochs = monitor.epochs();
        monitor.evict(0).unwrap();
        assert_eq!(monitor.epochs(), epochs);
        assert_eq!(monitor.processed(), 10);
    }

    #[test]
    fn retain_last_policy_trims_on_every_append() {
        let series = test_series(400);
        let m = 8;
        let exc = m / 2;
        let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
        assert_eq!(monitor.retain_last(100), Ok(0));
        assert_eq!(monitor.retention(), Some(100));
        for part in series.chunks(30) {
            monitor.append(part);
            assert!(monitor.series_len() <= 100);
            monitor.run_for(11);
        }
        assert_eq!(monitor.series_len(), 100);
        assert_eq!(monitor.stream_offset(), 300);
        let finished = monitor.finish();
        let reference = stamp_with_exclusion(&series[300..], m, exc);
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
    }

    #[test]
    fn retain_last_below_m_is_rejected() {
        let mut monitor = StreamingDiscordMonitor::new(16);
        assert_eq!(
            monitor.retain_last(15),
            Err(EvictError::BelowMinimum {
                remaining: 15,
                minimum: 16
            })
        );
        assert_eq!(monitor.retention(), None);
    }

    // ------------------------------------------------------------------
    // Segmented backend: the toleranced side of the versioned parity
    // contract. The property harness in tests/segmented_proptests.rs
    // covers random schedules; these pin the structural behavior.
    // ------------------------------------------------------------------

    #[test]
    fn segmented_finish_within_tolerance_across_appends_and_evicts() {
        let series = test_series(420);
        let m = 9;
        let exc = m / 2;
        let mut fast = StreamingDiscordMonitor::with_backend(
            m,
            exc,
            DEFAULT_MONITOR_SEED,
            MassBackend::Segmented,
        );
        assert_eq!(fast.backend(), MassBackend::Segmented);
        for part in series.chunks(37) {
            fast.append(part);
            fast.run_for(12); // leave a backlog on purpose
        }
        fast.evict(50).unwrap();
        for part in [&series[..23], &series[100..140]] {
            fast.append(part);
            fast.run_for(9);
        }
        let finished = fast.finish();
        assert!(fast.is_current());
        // Shadow: an Exact monitor fed the identical schedule.
        let mut oracle = StreamingDiscordMonitor::with_exclusion(m, exc);
        for part in series.chunks(37) {
            oracle.append(part);
        }
        oracle.evict(50).unwrap();
        for part in [&series[..23], &series[100..140]] {
            oracle.append(part);
        }
        let reference = oracle.finish();
        assert_eq!(finished.len(), reference.len());
        for i in 0..finished.len() {
            let (a, b) = (finished.profile[i], reference.profile[i]);
            // ≤1e-9 in distance or squared distance: d = √(2m(1−corr))
            // amplifies corr rounding unboundedly as d → 0 (an exact
            // re-appended chunk creates true-zero pairs here), but d²
            // is linear in corr, so near-zero entries compare cleanly
            // there. Either bound implies the profiles agree to within
            // kernel round-off.
            assert!(
                (a - b).abs() <= 1e-9 || (a * a - b * b).abs() <= 1e-9,
                "i={i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn segmented_append_enqueues_only_fresh_queries() {
        let series = test_series(300);
        let m = 8;
        let mut monitor = StreamingDiscordMonitor::with_backend(
            m,
            m / 2,
            DEFAULT_MONITOR_SEED,
            MassBackend::Segmented,
        );
        monitor.append(&series[..200]);
        monitor.run_for(usize::MAX);
        assert!(monitor.is_current());
        monitor.append(&series[200..]);
        // No catch-up backlog: exactly the fresh windows are pending —
        // the structural source of the backend's ingest throughput.
        assert_eq!(monitor.pending(), 100);
        assert_eq!(monitor.run_for(usize::MAX), 100);
        assert!(monitor.is_current());
        // And the fold kept the pre-append evidence: every old entry is
        // still finite and the profile is complete.
        let snap = monitor.snapshot();
        assert!(snap.profile.iter().all(|d| d.is_finite()));
    }

    #[test]
    fn segmented_multi_worker_finish_keeps_the_rolled_path() {
        let series = test_series(240);
        let m = 8;
        let exc = m / 2;
        let mut a = StreamingDiscordMonitor::with_backend(
            m,
            exc,
            DEFAULT_MONITOR_SEED,
            MassBackend::Segmented,
        );
        let mut b = StreamingDiscordMonitor::with_backend(
            m,
            exc,
            DEFAULT_MONITOR_SEED,
            MassBackend::Segmented,
        );
        a.append(&series);
        b.append(&series);
        let par = on_workers(4, || a.finish());
        while b.step() {}
        let seq = b.snapshot();
        // Identical (not merely toleranced): same sequential rolled path.
        assert_eq!(par.profile, seq.profile);
        assert_eq!(par.index, seq.index);
    }

    #[test]
    fn segmented_backend_finishes_within_tolerance_of_exact() {
        let series = test_series(260);
        let m = 10;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        let mut monitor = StreamingDiscordMonitor::with_backend(m, exc, 0, MassBackend::Segmented);
        monitor.append(&series);
        assert_eq!(monitor.backend(), MassBackend::Segmented);
        // Interleave stepping modes; a multi-worker finish must keep the
        // in-order rolled path and still complete.
        monitor.run_for(40);
        let partial = monitor.snapshot();
        let finished = on_workers(4, || monitor.finish());
        assert!(monitor.is_current());
        for i in 0..finished.len() {
            assert!(
                (finished.profile[i] - reference.profile[i]).abs() <= 1e-9,
                "i={i}: {} vs {}",
                finished.profile[i],
                reference.profile[i]
            );
            // The anytime property holds on the segmented backend too.
            assert!(
                partial.profile[i] >= finished.profile[i] - 1e-12,
                "entry {i}"
            );
        }
    }

    #[test]
    fn segmented_block_store_stays_bounded_under_retention() {
        let m = 16usize;
        let retention = 600usize;
        let chunk = 64usize;
        let mut monitor = StreamingDiscordMonitor::with_backend(
            m,
            m / 2,
            DEFAULT_MONITOR_SEED,
            MassBackend::Segmented,
        );
        monitor.retain_last(retention).unwrap();
        assert!(monitor.block_store().is_none(), "no windows yet");
        let mut fed = 0usize;
        let mut transform_sizes = Vec::new();
        while fed < 40_000 {
            let part: Vec<f64> = (0..chunk)
                .map(|j| ((fed + j) as f64 * 0.17).sin() * 1.5)
                .collect();
            monitor.append(&part);
            fed += chunk;
            monitor.run_for(8);
            let (blocks, block, spectra) = monitor.block_store().expect("segmented backend");
            // Blocks cover live points + dead prefix (< B) + chunk slack.
            let max_blocks = (retention + chunk + block).div_ceil(block) + 1;
            assert!(blocks <= max_blocks, "{blocks} blocks exceed {max_blocks}");
            assert!(
                spectra <= 2 * max_blocks * (block + 1),
                "spectra capacity {spectra} exceeds O(n + chunk)"
            );
            assert!(
                monitor.series_capacity() <= 2 * (retention + chunk + block),
                "series capacity {} unbounded",
                monitor.series_capacity()
            );
            transform_sizes.push(monitor.padded_size());
        }
        // The per-query transform size never grew with stream length.
        assert!(transform_sizes.windows(2).all(|w| w[0] == w[1]));
        // Exact monitor under the same policy: padded size tracks the
        // retention window (the contrast the accessor documents).
        assert_eq!(monitor.stream_offset(), fed - retention);
    }

    #[test]
    fn exact_backend_is_the_default_and_bitwise_unchanged() {
        let series = test_series(150);
        let m = 8;
        let monitor = StreamingDiscordMonitor::new(m);
        assert_eq!(monitor.backend(), MassBackend::Exact);
        // with_backend(Exact) is the same monitor with_seed builds.
        let mut a = StreamingDiscordMonitor::with_backend(
            m,
            m / 2,
            DEFAULT_MONITOR_SEED,
            MassBackend::Exact,
        );
        let mut b = StreamingDiscordMonitor::new(m);
        for part in series.chunks(33) {
            a.append(part);
            b.append(part);
        }
        let fa = a.finish();
        let fb = b.finish();
        assert_eq!(fa.profile, fb.profile);
        assert_eq!(fa.index, fb.index);
    }

    // ------------------------------------------------------------------
    // Checkpoint/restore: pinned mid-schedule round trips. The property
    // harness in tests/checkpoint_proptests.rs injects save/restore at
    // every prefix of random schedules; these pin the structural edges.
    // ------------------------------------------------------------------

    #[test]
    fn checkpoint_round_trip_resumes_bit_identically() {
        let series = test_series(300);
        let m = 9;
        let exc = m / 2;
        for backend in [MassBackend::Exact, MassBackend::Segmented] {
            let mut live = StreamingDiscordMonitor::with_backend(m, exc, 7, backend);
            live.append(&series[..180]);
            live.run_for(55); // mid-epoch: fold, pending, and (exact) carry all populated
            live.append(&series[180..240]);
            live.run_for(13);
            live.evict(40).unwrap();
            live.run_for(21);
            live.append(&series[240..]);
            live.run_for(17);

            let bytes = live.checkpoint_bytes().unwrap();
            let mut restored = StreamingDiscordMonitor::from_checkpoint_bytes(&bytes).unwrap();
            assert_eq!(restored.backend(), backend);
            assert_eq!(restored.stream_offset(), live.stream_offset());
            assert_eq!(restored.epochs(), live.epochs());
            assert_eq!(restored.pending(), live.pending());
            let (a, b) = (restored.snapshot(), live.snapshot());
            assert_eq!(a.profile, b.profile, "{backend:?}");
            assert_eq!(a.index, b.index, "{backend:?}");

            // Replay the identical remainder on both: every intermediate
            // snapshot and the finish must stay bitwise in lockstep.
            for monitor in [&mut live, &mut restored] {
                monitor.run_for(29);
                monitor.append(&series[..50]);
                monitor.run_for(11);
                monitor.evict(23).unwrap();
            }
            let (a, b) = (restored.snapshot(), live.snapshot());
            assert_eq!(a.profile, b.profile, "{backend:?}");
            let (fa, fb) = (restored.finish(), live.finish());
            assert_eq!(fa.profile, fb.profile, "{backend:?}");
            assert_eq!(fa.index, fb.index, "{backend:?}");
        }
    }

    #[test]
    fn checkpoint_preserves_the_segmented_rolled_chain() {
        // Ascending query order keeps the rolled covariance row hot; a
        // checkpoint taken mid-chain must hand the restored monitor the
        // same row, or its next query reseeds and drifts by an ulp.
        let series = test_series(400);
        let m = 12;
        let mut live = StreamingDiscordMonitor::with_backend(
            m,
            m / 2,
            DEFAULT_MONITOR_SEED,
            MassBackend::Segmented,
        );
        live.append(&series);
        live.run_for(150); // mid-chain
        let mut restored =
            StreamingDiscordMonitor::from_checkpoint_bytes(&live.checkpoint_bytes().unwrap())
                .unwrap();
        let (fa, fb) = (restored.finish(), live.finish());
        assert_eq!(fa.profile, fb.profile);
        assert_eq!(fa.index, fb.index);
    }

    #[test]
    fn checkpoint_during_warmup_round_trips() {
        let mut live = StreamingDiscordMonitor::new(8);
        live.append(&[1.0, 2.0, 3.0]);
        let mut restored =
            StreamingDiscordMonitor::from_checkpoint_bytes(&live.checkpoint_bytes().unwrap())
                .unwrap();
        assert_eq!(restored.series_len(), 3);
        assert_eq!(restored.window_count(), 0);
        let tail = test_series(120);
        live.append(&tail);
        restored.append(&tail);
        let (fa, fb) = (restored.finish(), live.finish());
        assert_eq!(fa.profile, fb.profile);
        assert_eq!(fa.index, fb.index);
    }

    #[test]
    fn checkpoint_round_trips_retention_policy() {
        let series = test_series(400);
        let m = 8;
        let mut live = StreamingDiscordMonitor::new(m);
        live.retain_last(120).unwrap();
        live.append(&series[..300]);
        live.run_for(31);
        let mut restored =
            StreamingDiscordMonitor::from_checkpoint_bytes(&live.checkpoint_bytes().unwrap())
                .unwrap();
        assert_eq!(restored.retention(), Some(120));
        // The policy keeps trimming on the restored side.
        live.append(&series[300..]);
        restored.append(&series[300..]);
        assert_eq!(restored.series_len(), 120);
        assert_eq!(restored.stream_offset(), live.stream_offset());
        let (fa, fb) = (restored.finish(), live.finish());
        assert_eq!(fa.profile, fb.profile);
        assert_eq!(fa.index, fb.index);
    }

    #[test]
    fn checkpoint_rejects_malformed_input_with_typed_errors() {
        let series = test_series(150);
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&series);
        monitor.run_for(40);
        let bytes = monitor.checkpoint_bytes().unwrap();

        // Wrong magic.
        let mut foreign = bytes.clone();
        foreign[0] ^= 0xFF;
        assert!(matches!(
            StreamingDiscordMonitor::from_checkpoint_bytes(&foreign),
            Err(CheckpointError::BadMagic)
        ));
        // Truncation anywhere must surface as an error, never a panic.
        for cut in [0, 7, 8, 15, 16, 40, bytes.len() - 1] {
            assert!(
                StreamingDiscordMonitor::from_checkpoint_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        // A flipped payload byte fails the section checksum.
        let mut flipped = bytes.clone();
        let target = flipped.len() / 2;
        flipped[target] ^= 0x10;
        assert!(StreamingDiscordMonitor::from_checkpoint_bytes(&flipped).is_err());
    }

    /// Overwrites the first (or, with `last`, the final) occurrence of
    /// `from`'s bytes in the payload of section `tag` with `to`, then
    /// re-seals the section checksum, so only the loader's own
    /// validation can notice the edit.
    fn poison(bytes: &[u8], tag: &[u8; 4], from: f64, to: f64, last: bool) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let section = list_sections(bytes)
            .unwrap()
            .into_iter()
            .find(|s| s.tag == u32::from_le_bytes(*tag))
            .expect("section present");
        let payload = section.payload_start..section.payload_start + section.payload_len;
        let needle = from.to_le_bytes();
        let mut hits = out[payload.clone()]
            .windows(8)
            .enumerate()
            .filter(|(_, w)| *w == needle)
            .map(|(at, _)| at);
        let at = if last { hits.next_back() } else { hits.next() }.expect("value present");
        let at = payload.start + at;
        out[at..at + 8].copy_from_slice(&to.to_le_bytes());
        let sum = fnv64(&out[payload]).to_le_bytes();
        out[section.end - 8..section.end].copy_from_slice(&sum);
        out
    }

    fn assert_corrupt(bytes: &[u8], what: &str) {
        assert!(
            matches!(
                StreamingDiscordMonitor::from_checkpoint_bytes(bytes),
                Err(CheckpointError::Corrupt(_))
            ),
            "{what} must be rejected as corrupt"
        );
    }

    #[test]
    fn checkpoint_rejects_non_finite_values_behind_a_valid_checksum() {
        let series = test_series(200);
        let m = 16;
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

        // Warm-up buffer.
        let mut warm = StreamingDiscordMonitor::new(m);
        warm.append(&[1.0, 2.0, 3.0]);
        let bytes = warm.checkpoint_bytes().unwrap();
        for v in bad {
            assert_corrupt(
                &poison(&bytes, b"MON1", 2.0, v, false),
                &format!("warm-up {v}"),
            );
        }

        // The exact series and the segmented grid.
        for backend in [MassBackend::Exact, MassBackend::Segmented] {
            let mut monitor = StreamingDiscordMonitor::with_backend(m, m / 2, 3, backend);
            monitor.append(&series);
            monitor.run_for(30);
            let bytes = monitor.checkpoint_bytes().unwrap();
            for v in bad {
                let edited = poison(&bytes, b"ENG1", series[57], v, false);
                assert_corrupt(&edited, &format!("{backend:?} series {v}"));
            }
        }

        // Fold and carry distances: NaN and negatives are corrupt, while
        // +∞ is the legitimate "no neighbor yet" entry.
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series[..150]);
        monitor.run_for(usize::MAX);
        monitor.append(&series[150..]);
        monitor.run_for(20);
        let first_finite = |p: &[f64]| *p.iter().find(|d| d.is_finite()).unwrap();
        let folded = first_finite(&monitor.fold_profile);
        let carried = first_finite(&monitor.carry.as_ref().expect("pre-append evidence").0);
        let bytes = monitor.checkpoint_bytes().unwrap();
        for (value, last, what) in [(folded, false, "fold"), (carried, true, "carry")] {
            for v in [f64::NAN, -1.0, f64::NEG_INFINITY] {
                assert_corrupt(
                    &poison(&bytes, b"MON1", value, v, last),
                    &format!("{what} {v}"),
                );
            }
            let unreached = poison(&bytes, b"MON1", value, f64::INFINITY, last);
            assert!(
                StreamingDiscordMonitor::from_checkpoint_bytes(&unreached).is_ok(),
                "{what}: +inf must load"
            );
        }
    }

    #[test]
    fn snapshot_after_evict_stays_inside_the_live_window() {
        let series = test_series(200);
        let m = 8;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series);
        monitor.run_for(usize::MAX);
        monitor.evict(60).unwrap();
        let windows = monitor.window_count();
        // All evidence was discarded (stale entries could cite retired
        // neighbors); re-tightening stays in local coordinates.
        let snap = monitor.snapshot();
        assert!(snap.profile.iter().all(|d| d.is_infinite()));
        monitor.run_for(25);
        let snap = monitor.snapshot();
        for &idx in &snap.index {
            assert!(idx == usize::MAX || idx < windows, "index {idx} escaped");
        }
        for d in monitor.discords(3) {
            assert!(d.start < windows);
        }
    }
}
