//! Segmented MASS: block-transform sliding dot products with O(chunk)
//! append and eviction.
//!
//! [`MassPrecomputed`] caches **one**
//! monolithic spectrum of the zero-padded series, so every
//! [`append`](crate::mass::MassPrecomputed::append) re-transforms the
//! whole padded buffer at `O(S log S)` — the transform grows with the
//! *history*, not with the appended chunk, and sustained streaming
//! ingest collapses as the series grows. [`SegmentedMass`] removes that
//! tax with overlap-save convolution: the series is held as fixed-size
//! blocks of `B` points (a power of two, [`DEFAULT_BLOCK_SIZE`] by
//! default), each with its own cached forward spectrum at transform
//! size `2B` from the process-wide plan cache.
//!
//! * A query's sliding dot products are computed **per block**: the
//!   spectrum of the two-block segment `[b, b+2)` is combined pointwise
//!   from the cached spectra of blocks `b` and `b+1` — shifting block
//!   `b+1` by `B` samples at transform size `2B` multiplies bin `k` by
//!   `(−1)^k`, so the segment spectrum is `S_b[k] + (−1)^k · S_{b+1}[k]`
//!   with **no extra transform** — then one conjugate multiply and one
//!   inverse transform yield the `B` alias-free lags the block owns
//!   (valid because `m ≤ B + 1`). Per query: one forward transform of
//!   the query plus one inverse per block, `O((n/B) · B log B)` =
//!   `O(n log B)`.
//! * [`SegmentedMass::append`] re-transforms **only the tail block(s)**
//!   the new points landed in — `O(c + B log B)` for a chunk of `c`
//!   points, independent of the series length.
//! * [`SegmentedMass::evict_front`] drops whole leading blocks and
//!   rebases the window statistics — **zero FFT work**; the dead prefix
//!   inside the first surviving block (< `B` points) is retained so the
//!   block grid never shifts.
//!
//! # Versioned parity contract
//!
//! FFT rounding depends on the transform layout, so the segmented path
//! **cannot** be bit-identical to the monolithic spectrum. The crate
//! therefore versions its determinism guarantee via
//! [`MassBackend`]:
//!
//! * [`MassBackend::Exact`] — [`MassPrecomputed`]: the oracle. Every
//!   finished profile is **bit-identical** to a fresh batch build; all
//!   pre-existing tests and CI bit-parity gates run on this backend,
//!   byte-for-byte unchanged.
//! * [`MassBackend::Segmented`] — [`SegmentedMass`]: the fast path.
//!   Distance profiles agree with the exact backend (and with the
//!   brute-force z-norm spec) to **≤ 1e-9 absolute** outside exclusion
//!   zones, property-tested across random append/evict/step schedules
//!   (`tests/segmented_proptests.rs`).
//!
//! Select the backend on construction:
//! [`StreamingDiscordMonitor::with_backend`](crate::streaming::StreamingDiscordMonitor::with_backend)
//! or [`stamp_with_backend`](crate::stamp::stamp_with_backend).
//!
//! # Rolling refresh (MPX-style centered covariance)
//!
//! Within one generation of the series (no append/evict in between),
//! consecutive queries `q, q+1, q+2, …` advance by the diagonal
//! recurrence on the **centered** covariance
//! `C(a, b) = Σ_k (x[a+k] − μ_a)(x[b+k] − μ_b)`:
//!
//! ```text
//! C(a+1, b+1) = C(a, b) + df[a]·dg[b] + df[b]·dg[a]
//! df[i] = (x[i+m] − x[i]) / 2
//! dg[i] = (x[i+m] − μ[i+1]) + (x[i] − μ[i])
//! ```
//!
//! the FFT-free kernel of the MPX/SCAMP family. Centering sidesteps the
//! catastrophic cancellation of `qt − m·μ_i·μ_j` that makes raw-dot
//! rolling drift, so a rolled row stays within ~1e-12 of the exact
//! backend outside exclusion zones even over thousand-step chains
//! (chains reseed from a fresh per-block FFT row every
//! [`MAX_ROLL_CHAIN`] steps as a hard error bound). A rolled query
//! costs `O(n)` with a ~4-flop inner loop — this is what makes the
//! segmented streaming refresh ~8× faster per query than the exact
//! backend, on top of the O(chunk) append.
//!
//! # Example: backend selection
//!
//! ```
//! use egi_discord::mass_seg::{MassBackend, SegmentedMass, SegScratch};
//! use egi_discord::streaming::StreamingDiscordMonitor;
//!
//! let series: Vec<f64> = (0..512).map(|i| (i as f64 * 0.3).sin()).collect();
//! let m = 16;
//!
//! // Direct use of the segmented kernel…
//! let seg = SegmentedMass::new(&series, m);
//! let mut scratch = SegScratch::default();
//! let mut dp = Vec::new();
//! seg.distance_profile_into(40, &mut scratch, &mut dp);
//! assert_eq!(dp.len(), seg.window_count());
//!
//! // …and through the streaming monitor (Exact stays the default).
//! let mut fast = StreamingDiscordMonitor::with_backend(
//!     m, m / 2, 0, MassBackend::Segmented,
//! );
//! fast.append(&series);
//! let profile = fast.finish();
//! let oracle = egi_discord::stamp::stamp_with_exclusion(&series, m, m / 2);
//! for (a, b) in profile.profile.iter().zip(&oracle.profile) {
//!     assert!((a - b).abs() <= 1e-9);
//! }
//! ```

use std::sync::Arc;

use egi_tskit::stats::PrefixStats;

use crate::dist::WindowStats;
use crate::fft::{c_conj, c_mul, cached_real_plan, next_pow2, Complex, RealFftPlan};
use crate::mass::{MassPrecomputed, MassScratch};

/// Default block size `B` for [`SegmentedMass::new`]. Each block owns a
/// cached spectrum at transform size `2B`; per-query cost is minimized
/// for `B` a small multiple of the window length, while append cost per
/// chunk is one `O(B log B)` tail-block re-transform.
pub const DEFAULT_BLOCK_SIZE: usize = 4096;

/// Hard cap on the length of a rolled query chain before the next query
/// reseeds from a fresh per-block FFT row. Measured centered-covariance
/// drift is ~1e-12 at 1024 steps; the cap keeps worst-case drift orders
/// of magnitude under the 1e-9 parity budget no matter how long a
/// caller streams between appends.
pub const MAX_ROLL_CHAIN: usize = 4096;

/// Which MASS kernel a driver (batch STAMP, the streaming monitor) runs
/// on — the crate's versioned parity contract. See the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MassBackend {
    /// [`MassPrecomputed`]: monolithic spectrum, `O(S log S)` append,
    /// finished profiles **bit-identical** to batch builds. The oracle
    /// every CI bit-parity gate runs on.
    #[default]
    Exact,
    /// [`SegmentedMass`]: block spectra, `O(chunk)` append/evict,
    /// rolled refresh — profiles within **≤ 1e-9 absolute** of the
    /// exact backend (property-tested), not bitwise.
    Segmented,
}

/// Reusable buffers for [`SegmentedMass`] queries, plus the rolled-chain
/// state (`cov` row and position) that lets consecutive queries advance
/// by the centered-covariance recurrence instead of re-running the FFT
/// path. One scratch per driving loop; dropping it only costs the next
/// query a reseed.
#[derive(Debug, Clone, Default)]
pub struct SegScratch {
    qpad: Vec<f64>,
    qspec: Vec<Complex>,
    prod: Vec<Complex>,
    corr: Vec<f64>,
    fft: Vec<Complex>,
    /// Centered covariance row `C(last_q, ·)` of the last rolled query.
    cov: Vec<f64>,
    /// `(generation, q, chain_len)` of the row held in `cov`; `None`
    /// (or a stale generation) forces the next query to reseed.
    last: Option<(u64, usize, usize)>,
}

impl SegScratch {
    /// The rolled-chain state, if a row is held:
    /// `(generation, last_q, chain_len, cov_row)`. Checkpointing
    /// serializes this — a restored monitor that *reseeded* instead of
    /// continuing the roll would diverge from the uninterrupted run at
    /// the ulp level, breaking restore bit-parity.
    pub fn rolled_row(&self) -> Option<(u64, usize, usize, &[f64])> {
        self.last.map(|(g, q, c)| (g, q, c, self.cov.as_slice()))
    }

    /// Reinstates a rolled-chain row previously read via
    /// [`rolled_row`](Self::rolled_row). The generation must match the
    /// engine's or the row is (harmlessly) ignored on the next query.
    pub fn set_rolled_row(&mut self, generation: u64, q: usize, chain: usize, cov: Vec<f64>) {
        self.cov = cov;
        self.last = Some((generation, q, chain));
    }
}

/// Sliding-dot-product engine over a block-segmented series — the
/// [`MassBackend::Segmented`] kernel. See the [module docs](self) for
/// the layout, cost model, and parity contract.
#[derive(Debug, Clone)]
pub struct SegmentedMass {
    m: usize,
    /// Block size `B` (power of two, ≥ `m`).
    block: usize,
    /// Transform size `2B`.
    fsize: usize,
    plan: Arc<RealFftPlan>,
    /// Dead prefix inside the first block (`0 ≤ head < block`): evicted
    /// points that keep the block grid anchored. Live data is
    /// `series[head..]`.
    head: usize,
    /// Grid-aligned storage: block `b` covers `series[b·B .. (b+1)·B]`.
    series: Vec<f64>,
    /// Cached forward spectrum of each zero-padded block at size `2B`.
    specs: Vec<Vec<Complex>>,
    /// Prefix sums over the **live** series (`series[head..]`).
    prefix: PrefixStats,
    /// Per-window statistics over the live series.
    stats: WindowStats,
    /// `df[i] = (x[i+m] − x[i]) / 2` over the live series.
    df: Vec<f64>,
    /// `dg[i] = (x[i+m] − μ[i+1]) + (x[i] − μ[i])` over the live series.
    dg: Vec<f64>,
    /// Bumped on every append/evict; invalidates rolled chains.
    generation: u64,
    fft_scratch: Vec<Complex>,
    block_pad: Vec<f64>,
}

impl SegmentedMass {
    /// Builds a segmented engine with block size
    /// `max(`[`DEFAULT_BLOCK_SIZE`]`, next_pow2(m))`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `m > series.len()`.
    pub fn new(series: &[f64], m: usize) -> Self {
        Self::with_block_size(series, m, DEFAULT_BLOCK_SIZE.max(next_pow2(m)))
    }

    /// Builds a segmented engine with an explicit block size `B` —
    /// memory-bound tests use small blocks so the `O(B)` terms stay
    /// visible next to tiny retention windows.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`, `m > series.len()`, `block` is not a power
    /// of two, or `block < m` (a window must fit inside the alias-free
    /// span `2B − m ≥ B − 1` of a two-block segment).
    pub fn with_block_size(series: &[f64], m: usize, block: usize) -> Self {
        assert!(m > 0, "window must be positive");
        assert!(m <= series.len(), "window longer than series");
        assert!(block.is_power_of_two(), "block size must be a power of two");
        assert!(block >= m, "block size {block} smaller than window {m}");
        let fsize = 2 * block;
        let prefix = PrefixStats::new(series);
        let stats = WindowStats::from_prefix(&prefix, m);
        let mut seg = Self {
            m,
            block,
            fsize,
            plan: cached_real_plan(fsize),
            head: 0,
            series: series.to_vec(),
            specs: Vec::new(),
            prefix,
            stats,
            df: Vec::new(),
            dg: Vec::new(),
            generation: 0,
            fft_scratch: Vec::new(),
            block_pad: Vec::new(),
        };
        seg.retransform_blocks(0);
        seg.extend_deltas();
        seg
    }

    /// Rebuilds an engine from checkpointed grid state: the
    /// grid-aligned series (dead prefix included), the dead-prefix
    /// length, and the generation counter. Block spectra, prefix sums,
    /// window statistics, and the `df`/`dg` delta rows are re-derived —
    /// each is a pure per-entry function of the grid contents, so the
    /// rebuilt values are bit-identical to the evolved originals and
    /// checkpoints stay `O(series)` small. The grid layout itself
    /// (`head`, block boundaries) **must** round-trip: it fixes the FFT
    /// transform layout, and with it the kernel's exact rounding.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (`m == 0`, non-power-of-two or
    /// undersized `block`, `head ≥ block`, fewer than `m` live points) —
    /// checkpoint loaders validate and return a typed error first.
    pub fn restore(grid: Vec<f64>, head: usize, m: usize, block: usize, generation: u64) -> Self {
        assert!(m > 0, "window must be positive");
        assert!(block.is_power_of_two(), "block size must be a power of two");
        assert!(block >= m, "block size {block} smaller than window {m}");
        assert!(
            head < block,
            "dead prefix {head} not below block size {block}"
        );
        assert!(
            head + m <= grid.len(),
            "fewer than m = {m} live points in the grid"
        );
        let fsize = 2 * block;
        let prefix = PrefixStats::new(&grid[head..]);
        let stats = WindowStats::from_prefix(&prefix, m);
        let mut seg = Self {
            m,
            block,
            fsize,
            plan: cached_real_plan(fsize),
            head,
            series: grid,
            specs: Vec::new(),
            prefix,
            stats,
            df: Vec::new(),
            dg: Vec::new(),
            generation,
            fft_scratch: Vec::new(),
            block_pad: Vec::new(),
        };
        seg.retransform_blocks(0);
        seg.extend_deltas();
        seg
    }

    /// The grid-aligned storage (dead prefix **included**) — what a
    /// checkpoint serializes; pair with [`dead_prefix`](Self::dead_prefix)
    /// and [`restore`](Self::restore).
    pub fn grid_series(&self) -> &[f64] {
        &self.series
    }

    /// Re-transforms every block from `from` to the end of the series
    /// (blocks are independent, so earlier spectra stay valid).
    fn retransform_blocks(&mut self, from: usize) {
        let nblocks = self.series.len().div_ceil(self.block).max(1);
        self.specs.truncate(nblocks);
        while self.specs.len() < nblocks {
            self.specs.push(Vec::new());
        }
        for b in from..nblocks {
            let lo = b * self.block;
            let hi = (lo + self.block).min(self.series.len());
            self.block_pad.clear();
            self.block_pad.resize(self.fsize, 0.0);
            self.block_pad[..hi - lo].copy_from_slice(&self.series[lo..hi]);
            self.plan
                .forward_into(&self.block_pad, &mut self.specs[b], &mut self.fft_scratch);
        }
    }

    /// Extends `df`/`dg` to cover every live window transition.
    fn extend_deltas(&mut self) {
        let live = &self.series[self.head..];
        let count = self.stats.count();
        let transitions = count.saturating_sub(1);
        let (mu, m) = (&self.stats.mu, self.m);
        for i in self.df.len()..transitions {
            self.df.push((live[i + m] - live[i]) / 2.0);
            self.dg.push((live[i + m] - mu[i + 1]) + (live[i] - mu[i]));
        }
    }

    /// Appends points: `O(points)` bookkeeping plus one `O(B log B)`
    /// re-transform per tail block the new points touch — **independent
    /// of the series length**, the whole reason this backend exists.
    /// (Compare [`MassPrecomputed::append`], which re-transforms the
    /// entire `O(S log S)` padded history every call.)
    pub fn append(&mut self, points: &[f64]) {
        if points.is_empty() {
            return;
        }
        let old_len = self.series.len();
        self.series.extend_from_slice(points);
        self.retransform_blocks(old_len / self.block);
        self.prefix.extend(points);
        self.stats.extend_from_prefix(&self.prefix);
        self.extend_deltas();
        self.generation += 1;
    }

    /// Retires the oldest `count` live points: whole leading blocks are
    /// dropped and the window statistics rebase onto the suffix —
    /// **zero FFT work** (block spectra are position-independent on the
    /// grid; compare [`MassPrecomputed::evict_front`], which must
    /// re-transform the whole shrunken buffer). Up to `B − 1` dead
    /// points may be retained inside the first surviving block to keep
    /// the grid anchored; they are dropped with the block once the head
    /// crosses its boundary.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `m` points would survive — callers enforce
    /// the non-panicking [`EvictError`](egi_tskit::EvictError) contract
    /// before touching this layer, exactly as for the exact backend.
    pub fn evict_front(&mut self, count: usize) {
        if count == 0 {
            return;
        }
        let live = self.series.len() - self.head;
        assert!(
            count <= live && live - count >= self.m,
            "eviction of {count} points would leave fewer than m = {} of {live}",
            self.m,
        );
        let new_head = self.head + count;
        let drop_blocks = new_head / self.block;
        if drop_blocks > 0 {
            self.series.drain(..drop_blocks * self.block);
            self.specs.drain(..drop_blocks);
        }
        self.head = new_head - drop_blocks * self.block;
        self.prefix.rebase(&self.series[self.head..]);
        self.stats.rebase_from_prefix(&self.prefix);
        self.df.clear();
        self.dg.clear();
        self.extend_deltas();
        self.generation += 1;
    }

    /// Window length `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of sliding windows over the live series.
    pub fn window_count(&self) -> usize {
        self.stats.count()
    }

    /// The live series (dead grid prefix excluded).
    pub fn series(&self) -> &[f64] {
        &self.series[self.head..]
    }

    /// The cached per-window statistics (live indices).
    pub fn stats(&self) -> &WindowStats {
        &self.stats
    }

    /// Block size `B`.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Per-block transform size `2B` — **constant** for the lifetime of
    /// the engine, unlike the exact backend's padded size, which grows
    /// with the series.
    pub fn transform_size(&self) -> usize {
        self.fsize
    }

    /// Number of live blocks (`⌈(head + live) / B⌉`).
    pub fn block_count(&self) -> usize {
        self.specs.len()
    }

    /// Dead points retained inside the first block (`< B`).
    pub fn dead_prefix(&self) -> usize {
        self.head
    }

    /// Capacity (in `f64`s) of the grid-aligned series buffer — for
    /// memory-bound assertions: stays `O(n + chunk + B)` under a
    /// retention policy.
    pub fn series_capacity(&self) -> usize {
        self.series.capacity()
    }

    /// Total capacity (in complex bins) across all cached block
    /// spectra — `block_count · (B + 1)` plus slack, i.e.
    /// `O(n + chunk + B)` under a retention policy.
    pub fn spectra_capacity(&self) -> usize {
        self.specs.iter().map(Vec::capacity).sum()
    }

    /// Bumped on every append/evict; a [`SegScratch`] holding a rolled
    /// row from an older generation reseeds on its next query.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Releases slack capacity across the block store: shrinks the
    /// grid-aligned series buffer, every cached block spectrum (and the
    /// spectra list itself), the prefix/window statistics, the delta
    /// rows, and the transform scratch. Purely an allocation-level
    /// operation — values are untouched, so the ≤1e-9 parity contract
    /// is unaffected.
    pub fn compact(&mut self) {
        self.series.shrink_to_fit();
        for spec in &mut self.specs {
            spec.shrink_to_fit();
        }
        self.specs.shrink_to_fit();
        self.prefix.shrink_to_fit();
        self.stats.mu.shrink_to_fit();
        self.stats.sigma.shrink_to_fit();
        self.df.shrink_to_fit();
        self.dg.shrink_to_fit();
        self.fft_scratch.shrink_to_fit();
        self.block_pad.shrink_to_fit();
    }

    /// Sliding dot products of live window `q` against every live
    /// window, via per-block overlap-save convolution. `out` is cleared
    /// and filled to [`window_count`](Self::window_count) values.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a valid window start.
    pub fn sliding_dots_into(&self, q: usize, scratch: &mut SegScratch, out: &mut Vec<f64>) {
        let count = self.window_count();
        assert!(q < count, "query start {q} out of range ({count} windows)");
        let g = self.head + q;
        out.clear();
        out.resize(count, 0.0);
        scratch.qpad.clear();
        scratch.qpad.resize(self.fsize, 0.0);
        scratch.qpad[..self.m].copy_from_slice(&self.series[g..g + self.m]);
        self.plan
            .forward_into(&scratch.qpad, &mut scratch.qspec, &mut scratch.fft);
        for b in 0..self.specs.len() {
            let lo = b * self.block;
            if lo >= self.head + count {
                break; // no live lag starts in this block
            }
            let sb = &self.specs[b];
            scratch.prod.clear();
            match self.specs.get(b + 1) {
                // Segment [b, b+2): shift block b+1 by B at size 2B —
                // bin k picks up a factor (−1)^k, no extra transform.
                Some(nx) => scratch.prod.extend(
                    scratch.qspec.iter().zip(sb.iter().zip(nx)).enumerate().map(
                        |(k, (&qs, (&s0, &s1)))| {
                            let seg = if k % 2 == 0 {
                                (s0.0 + s1.0, s0.1 + s1.1)
                            } else {
                                (s0.0 - s1.0, s0.1 - s1.1)
                            };
                            c_mul(c_conj(qs), seg)
                        },
                    ),
                ),
                None => scratch.prod.extend(
                    scratch
                        .qspec
                        .iter()
                        .zip(sb)
                        .map(|(&qs, &s0)| c_mul(c_conj(qs), s0)),
                ),
            }
            self.plan
                .inverse_into(&scratch.prod, &mut scratch.corr, &mut scratch.fft);
            // Block b owns grid lags [b·B, b·B + B); lags up to 2B − m
            // are alias-free, which covers the whole span since m ≤ B+1.
            for (t, &c) in scratch.corr[..self.block].iter().enumerate() {
                let grid = lo + t;
                if grid < self.head {
                    continue;
                }
                let j = grid - self.head;
                if j >= count {
                    break;
                }
                out[j] = c;
            }
        }
    }

    /// The z-normalized distance profile of live window `q`, on the
    /// per-block FFT path. `out` is cleared and filled to
    /// [`window_count`](Self::window_count) values.
    pub fn distance_profile_into(&self, q: usize, scratch: &mut SegScratch, out: &mut Vec<f64>) {
        self.sliding_dots_into(q, scratch, out);
        for (j, v) in out.iter_mut().enumerate() {
            *v = self.stats.dist(q, j, *v);
        }
    }

    /// Convenience wrapper allocating the output and a scratch.
    pub fn distance_profile(&self, q: usize) -> Vec<f64> {
        let mut scratch = SegScratch::default();
        let mut out = Vec::new();
        self.distance_profile_into(q, &mut scratch, &mut out);
        out
    }

    /// The distance profile of live window `q`, advancing by the
    /// centered-covariance rolling recurrence when `scratch` holds the
    /// row of `q − 1` from the current generation (and the chain is
    /// under [`MAX_ROLL_CHAIN`]); otherwise seeds via
    /// [`distance_profile_into`](Self::distance_profile_into)-equivalent
    /// FFT work and converts the dots to centered covariances.
    ///
    /// Sequential query schedules (the segmented streaming monitor, the
    /// segmented batch STAMP) hit the rolled path for all but the first
    /// query after any append/evict — `O(n)` per query with a ~4-flop
    /// inner loop instead of `O(n log B)` FFT work.
    pub fn rolling_profile_into(&self, q: usize, scratch: &mut SegScratch, out: &mut Vec<f64>) {
        let count = self.window_count();
        assert!(q < count, "query start {q} out of range ({count} windows)");
        egi_obs::counter!("egi_mass_seg_queries_total").inc();
        // A sequential successor query that only the chain cap keeps off
        // the rolled path is a roll-chain reset (the error-growth guard
        // forcing a fresh FFT seed).
        if let Some((generation, last_q, chain)) = scratch.last {
            if generation == self.generation && q == last_q + 1 && chain >= MAX_ROLL_CHAIN {
                egi_obs::counter!("egi_mass_seg_roll_chain_resets_total").inc();
            }
        }
        let m = self.m as f64;
        let rolled = match scratch.last {
            Some((generation, last_q, chain))
                if generation == self.generation
                    && q == last_q + 1
                    && chain < MAX_ROLL_CHAIN
                    && scratch.cov.len() == count =>
            {
                let a = last_q; // transition a -> a+1 = q
                let cov = &mut scratch.cov;
                let (df, dg) = (&self.df, &self.dg);
                for j in (1..count).rev() {
                    cov[j] = cov[j - 1] + df[a] * dg[j - 1] + df[j - 1] * dg[a];
                }
                cov[0] = self.centered_dot(q, 0);
                scratch.last = Some((self.generation, q, chain + 1));
                egi_obs::counter!("egi_mass_seg_rolled_total").inc();
                true
            }
            _ => false,
        };
        if !rolled {
            egi_obs::counter!("egi_mass_seg_fft_seeded_total").inc();
            // Seed: per-block FFT dots, centered once. The subtraction
            // is the same `qt − m·μ_i·μ_j` the z-norm identity performs,
            // so the seed row's distances match the FFT path bit for bit.
            self.sliding_dots_into(q, scratch, out);
            scratch.cov.clear();
            let mu_q = self.stats.mu[q];
            scratch.cov.extend(
                out.iter()
                    .zip(&self.stats.mu)
                    .map(|(&qt, &mu_j)| qt - m * mu_q * mu_j),
            );
            scratch.last = Some((self.generation, q, 0));
        }
        out.clear();
        out.extend(
            scratch
                .cov
                .iter()
                .enumerate()
                .map(|(j, &cov)| self.stats.dist_centered(q, j, cov)),
        );
    }

    /// Brute-force centered covariance `C(a, b)` over live windows —
    /// `O(m)`, used only for column 0 of a rolled row.
    fn centered_dot(&self, a: usize, b: usize) -> f64 {
        let live = &self.series[self.head..];
        let (mu_a, mu_b) = (self.stats.mu[a], self.stats.mu[b]);
        live[a..a + self.m]
            .iter()
            .zip(&live[b..b + self.m])
            .map(|(&x, &y)| (x - mu_a) * (y - mu_b))
            .sum()
    }
}

/// Sliding dot products of `query` against every window of `series` on
/// the segmented kernel: transforms at size `2·next_pow2(query.len())`
/// regardless of the series length, instead of
/// [`sliding_dot_products`](crate::fft::sliding_dot_products)' single
/// `next_pow2(series.len())` transform.
///
/// The monolithic kernel stays the default everywhere: it is the
/// crate's executable specification, pinned by 1e-9-and-index-equality
/// parity tests, and its bit pattern must not drift. Reach for this
/// variant when the query is much shorter than a very long series (the
/// monolithic padding tax is the `O(n log n)` full-length transform)
/// and toleranced output is acceptable; it agrees with the exact kernel
/// to ~1e-9 relative (property-tested), not bitwise.
///
/// # Panics
///
/// Panics if the query is empty or longer than the series.
pub fn sliding_dot_products_segmented(query: &[f64], series: &[f64]) -> Vec<f64> {
    let m = query.len();
    assert!(m > 0, "empty query");
    assert!(m <= series.len(), "query longer than series");
    let block = next_pow2(m).max(2);
    let fsize = 2 * block;
    let plan = cached_real_plan(fsize);
    let mut fft_scratch = Vec::new();
    let mut pad = vec![0.0; fsize];
    pad[..m].copy_from_slice(query);
    let mut qspec = Vec::new();
    plan.forward_into(&pad, &mut qspec, &mut fft_scratch);
    let nblocks = series.len().div_ceil(block);
    let mut specs: Vec<Vec<Complex>> = vec![Vec::new(); nblocks];
    for (b, spec) in specs.iter_mut().enumerate() {
        let lo = b * block;
        let hi = (lo + block).min(series.len());
        pad.iter_mut().for_each(|v| *v = 0.0);
        pad[..hi - lo].copy_from_slice(&series[lo..hi]);
        plan.forward_into(&pad, spec, &mut fft_scratch);
    }
    let count = series.len() - m + 1;
    let mut out = vec![0.0; count];
    let (mut prod, mut corr) = (Vec::new(), Vec::new());
    for b in 0..nblocks {
        let lo = b * block;
        if lo >= count {
            break;
        }
        prod.clear();
        match specs.get(b + 1) {
            Some(nx) => prod.extend(qspec.iter().zip(specs[b].iter().zip(nx)).enumerate().map(
                |(k, (&qs, (&s0, &s1)))| {
                    let seg = if k % 2 == 0 {
                        (s0.0 + s1.0, s0.1 + s1.1)
                    } else {
                        (s0.0 - s1.0, s0.1 - s1.1)
                    };
                    c_mul(c_conj(qs), seg)
                },
            )),
            None => prod.extend(
                qspec
                    .iter()
                    .zip(&specs[b])
                    .map(|(&qs, &s0)| c_mul(c_conj(qs), s0)),
            ),
        }
        plan.inverse_into(&prod, &mut corr, &mut fft_scratch);
        for (t, &c) in corr[..block.min(count - lo)].iter().enumerate() {
            out[lo + t] = c;
        }
    }
    out
}

/// Backend dispatch for the drivers (batch STAMP, the streaming monitor):
/// one engine value, two kernels, selected by [`MassBackend`] at
/// construction. The exact arm forwards verbatim to [`MassPrecomputed`]
/// so every bitwise contract is untouched.
#[derive(Debug, Clone)]
pub enum MassEngine {
    /// The bit-exact oracle.
    Exact(MassPrecomputed),
    /// The toleranced fast path.
    Segmented(SegmentedMass),
}

/// Scratch for [`MassEngine`]: both kernels' buffers side by side (the
/// unused side stays empty and costs nothing).
#[derive(Debug, Clone, Default)]
pub struct EngineScratch {
    /// Exact-kernel buffers.
    pub exact: MassScratch,
    /// Segmented-kernel buffers and rolled-chain state.
    pub seg: SegScratch,
}

impl MassEngine {
    /// Builds the engine `backend` selects over `series`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `m > series.len()`.
    pub fn new(series: &[f64], m: usize, backend: MassBackend) -> Self {
        match backend {
            MassBackend::Exact => Self::Exact(MassPrecomputed::new(series, m)),
            MassBackend::Segmented => Self::Segmented(SegmentedMass::new(series, m)),
        }
    }

    /// Which backend this engine runs.
    pub fn backend(&self) -> MassBackend {
        match self {
            Self::Exact(_) => MassBackend::Exact,
            Self::Segmented(_) => MassBackend::Segmented,
        }
    }

    /// Appends points (see each kernel's cost model).
    pub fn append(&mut self, points: &[f64]) {
        match self {
            Self::Exact(mass) => mass.append(points),
            Self::Segmented(seg) => seg.append(points),
        }
    }

    /// Retires the oldest `count` live points.
    pub fn evict_front(&mut self, count: usize) {
        match self {
            Self::Exact(mass) => mass.evict_front(count),
            Self::Segmented(seg) => seg.evict_front(count),
        }
    }

    /// Window length `m`.
    pub fn m(&self) -> usize {
        match self {
            Self::Exact(mass) => mass.m(),
            Self::Segmented(seg) => seg.m(),
        }
    }

    /// Number of live sliding windows.
    pub fn window_count(&self) -> usize {
        match self {
            Self::Exact(mass) => mass.window_count(),
            Self::Segmented(seg) => seg.window_count(),
        }
    }

    /// The live series.
    pub fn series(&self) -> &[f64] {
        match self {
            Self::Exact(mass) => mass.series(),
            Self::Segmented(seg) => seg.series(),
        }
    }

    /// The distance profile of window `q`. The exact arm is the
    /// bit-stable [`MassPrecomputed::distance_profile_into`]; the
    /// segmented arm uses the rolling path
    /// ([`SegmentedMass::rolling_profile_into`]), so sequential query
    /// schedules amortize to `O(n)` per query.
    pub fn distance_profile_into(&self, q: usize, scratch: &mut EngineScratch, out: &mut Vec<f64>) {
        match self {
            Self::Exact(mass) => mass.distance_profile_into(q, &mut scratch.exact, out),
            Self::Segmented(seg) => seg.rolling_profile_into(q, &mut scratch.seg, out),
        }
    }

    /// Current FFT transform size: the exact backend's padded size
    /// (grows with the series) or the segmented backend's fixed `2B`.
    pub fn padded_size(&self) -> usize {
        match self {
            Self::Exact(mass) => mass.padded_size(),
            Self::Segmented(seg) => seg.transform_size(),
        }
    }

    /// Capacity (in `f64`s) retained by the live series buffer.
    pub fn series_capacity(&self) -> usize {
        match self {
            Self::Exact(mass) => mass.series_capacity(),
            Self::Segmented(seg) => seg.series_capacity(),
        }
    }

    /// Capacity (in `f64`s) of the append/evict-path padded buffer
    /// (exact) or one block transform (segmented).
    pub fn padded_capacity(&self) -> usize {
        match self {
            Self::Exact(mass) => mass.padded_capacity(),
            Self::Segmented(seg) => seg.transform_size(),
        }
    }

    /// Releases slack capacity in whichever kernel is live (see
    /// [`MassPrecomputed::compact`] / [`SegmentedMass::compact`]).
    /// Values are untouched; every parity contract holds.
    pub fn compact(&mut self) {
        match self {
            Self::Exact(mass) => mass.compact(),
            Self::Segmented(seg) => seg.compact(),
        }
    }

    /// Block-store shape `(block_count, block_size, spectra_capacity)`
    /// for memory-bound assertions; `None` on the exact backend.
    pub fn block_store(&self) -> Option<(usize, usize, usize)> {
        match self {
            Self::Exact(_) => None,
            Self::Segmented(seg) => {
                Some((seg.block_count(), seg.block_size(), seg.spectra_capacity()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::znorm_euclidean;
    use crate::fft::sliding_dot_products;

    fn test_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                (t * 0.19).sin() * 1.4 + 0.6 * (t * 0.043).cos() + ((i * 37) % 17) as f64 * 0.04
            })
            .collect()
    }

    /// Absolute/relative hybrid: dots are O(m · amplitude²), distances
    /// O(√m); both compare under the PR's 1e-9 parity budget.
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn segmented_dots_match_monolithic_kernel() {
        let series = test_series(700);
        let m = 24;
        for &block in &[32usize, 64, 256, 1024] {
            let seg = SegmentedMass::with_block_size(&series, m, block);
            let mut scratch = SegScratch::default();
            let mut dots = Vec::new();
            for q in [0usize, 13, 350, 676] {
                seg.sliding_dots_into(q, &mut scratch, &mut dots);
                let reference = sliding_dot_products(&series[q..q + m], &series);
                assert_eq!(dots.len(), reference.len());
                for (j, (&a, &b)) in dots.iter().zip(&reference).enumerate() {
                    assert!(close(a, b), "B={block} q={q} j={j}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn segmented_profile_matches_exact_backend_to_1e9() {
        let series = test_series(900);
        let m = 16;
        let exact = MassPrecomputed::new(&series, m);
        let seg = SegmentedMass::with_block_size(&series, m, 128);
        let mut scratch = SegScratch::default();
        let mut dp = Vec::new();
        for q in [0usize, 100, 555, 884] {
            seg.distance_profile_into(q, &mut scratch, &mut dp);
            let reference = exact.distance_profile(q);
            for (j, (&a, &b)) in dp.iter().zip(&reference).enumerate() {
                if q.abs_diff(j) <= m {
                    // Self-match band: true distance ≈ 0, where √ amplifies
                    // corr rounding to ~1e-7 on *either* kernel. Never
                    // folded into a profile (exclusion zone ≥ this band).
                    continue;
                }
                assert!((a - b).abs() <= 1e-9, "q={q} j={j}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn segmented_profile_matches_brute_znorm_spec() {
        let series = test_series(300);
        let m = 12;
        let seg = SegmentedMass::with_block_size(&series, m, 64);
        let rescale = (m as f64 / (m as f64 - 1.0)).sqrt();
        let dp = seg.distance_profile(40);
        for (j, &d) in dp.iter().enumerate() {
            let brute = znorm_euclidean(&series[40..40 + m], &series[j..j + m]) * rescale;
            assert!(
                (d - brute).abs() < 1e-6,
                "j={j}: segmented {d} vs brute {brute}"
            );
        }
    }

    #[test]
    fn append_matches_fresh_build_within_tolerance() {
        let series = test_series(600);
        let m = 10;
        let mut seg = SegmentedMass::with_block_size(&series[..250], m, 64);
        for chunk in series[250..].chunks(37) {
            seg.append(chunk);
        }
        assert_eq!(seg.window_count(), series.len() - m + 1);
        assert_eq!(seg.series(), &series[..]);
        let fresh = SegmentedMass::with_block_size(&series, m, 64);
        let mut scratch = SegScratch::default();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for q in [0usize, 111, 400, 590] {
            seg.distance_profile_into(q, &mut scratch, &mut a);
            fresh.distance_profile_into(q, &mut scratch, &mut b);
            // Appended and fresh engines share the same block layout, so
            // the spectra — and therefore the profiles — are identical.
            assert_eq!(a, b, "q={q}");
        }
    }

    #[test]
    fn evict_drops_whole_blocks_and_keeps_profiles() {
        let series = test_series(640);
        let m = 14;
        for cut in [1usize, 63, 64, 65, 200, 511] {
            let mut seg = SegmentedMass::with_block_size(&series, m, 64);
            let blocks_before = seg.block_count();
            seg.evict_front(cut);
            assert_eq!(seg.series(), &series[cut..], "cut {cut}");
            assert_eq!(seg.dead_prefix(), cut % 64, "cut {cut}");
            assert_eq!(seg.block_count(), blocks_before - cut / 64, "cut {cut}");
            // Suffix profiles agree with an exact engine over the suffix.
            let exact = MassPrecomputed::new(&series[cut..], m);
            let q = seg.window_count() / 2;
            let dp = seg.distance_profile(q);
            let reference = exact.distance_profile(q);
            for (j, (&a, &b)) in dp.iter().zip(&reference).enumerate() {
                if q.abs_diff(j) <= m {
                    continue; // self-match band, see parity test above
                }
                assert!((a - b).abs() <= 1e-9, "cut={cut} j={j}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn rolling_chain_matches_fft_path() {
        let series = test_series(800);
        let m = 20;
        let seg = SegmentedMass::with_block_size(&series, m, 128);
        let mut rolling = SegScratch::default();
        let mut fresh = SegScratch::default();
        let (mut rolled, mut seeded) = (Vec::new(), Vec::new());
        for q in 0..seg.window_count() {
            seg.rolling_profile_into(q, &mut rolling, &mut rolled);
            seg.distance_profile_into(q, &mut fresh, &mut seeded);
            for (j, (&a, &b)) in rolled.iter().zip(&seeded).enumerate() {
                if q.abs_diff(j) <= m {
                    continue; // exclusion-band values never reach a fold
                }
                assert!((a - b).abs() <= 1e-9, "q={q} j={j}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn rolling_reseeds_after_append_and_out_of_order() {
        let series = test_series(500);
        let m = 8;
        let mut seg = SegmentedMass::with_block_size(&series[..400], m, 64);
        let mut scratch = SegScratch::default();
        let mut dp = Vec::new();
        seg.rolling_profile_into(10, &mut scratch, &mut dp);
        seg.rolling_profile_into(11, &mut scratch, &mut dp); // rolls
        let gen_before = seg.generation();
        seg.append(&series[400..]);
        assert_eq!(seg.generation(), gen_before + 1);
        // Stale generation: must reseed, and cover the new windows.
        seg.rolling_profile_into(12, &mut scratch, &mut dp);
        assert_eq!(dp.len(), seg.window_count());
        let reference = seg.distance_profile(12);
        assert_eq!(dp, reference);
        // Out-of-order query: reseeds too.
        seg.rolling_profile_into(5, &mut scratch, &mut dp);
        assert_eq!(dp, seg.distance_profile(5));
    }

    #[test]
    fn segmented_free_function_matches_monolithic() {
        let series = test_series(2000);
        for &m in &[4usize, 16, 100] {
            let query = &series[37..37 + m];
            let fast = sliding_dot_products_segmented(query, &series);
            let reference = sliding_dot_products(query, &series);
            assert_eq!(fast.len(), reference.len());
            for (j, (&a, &b)) in fast.iter().zip(&reference).enumerate() {
                assert!(close(a, b), "m={m} j={j}: {a} vs {b}");
            }
        }
    }

    /// The padding regression the satellite pins: the monolithic kernel
    /// transforms at `next_pow2(n)` however short the query is, while
    /// the segmented kernel's transform size tracks only the query.
    #[test]
    fn segmented_kernel_transform_size_tracks_query_not_series() {
        let m = 16usize;
        let n = 20_000usize;
        // Monolithic: one transform at next_pow2(n) = 32768.
        assert_eq!(next_pow2(n).max(2), 32_768);
        // Segmented: blocks of next_pow2(m), transforms at 2·next_pow2(m).
        assert_eq!(2 * next_pow2(m).max(2), 32);
        // And the engine's per-query transform size is constant as the
        // series grows past every power of two.
        let series = test_series(700);
        let mut seg = SegmentedMass::with_block_size(&series[..300], m, 64);
        let size_before = seg.transform_size();
        seg.append(&series[300..]);
        assert_eq!(seg.transform_size(), size_before);
    }

    #[test]
    fn default_block_size_scales_with_window() {
        let series = test_series(9000);
        let seg = SegmentedMass::new(&series, 16);
        assert_eq!(seg.block_size(), DEFAULT_BLOCK_SIZE);
        let big = SegmentedMass::new(&series, 8000);
        assert_eq!(big.block_size(), 8192);
    }

    #[test]
    fn engine_dispatch_exposes_backend_shape() {
        let series = test_series(400);
        let m = 12;
        let exact = MassEngine::new(&series, m, MassBackend::Exact);
        let seg = MassEngine::new(&series, m, MassBackend::Segmented);
        assert_eq!(exact.backend(), MassBackend::Exact);
        assert_eq!(seg.backend(), MassBackend::Segmented);
        assert_eq!(exact.window_count(), seg.window_count());
        assert_eq!(exact.series(), seg.series());
        assert!(exact.block_store().is_none());
        let (blocks, block, spectra) = seg.block_store().unwrap();
        assert_eq!(block, DEFAULT_BLOCK_SIZE);
        assert_eq!(blocks, 1);
        assert!(spectra > DEFAULT_BLOCK_SIZE);
        // Exact padded size grows with the series; segmented stays 2B.
        assert_eq!(exact.padded_size(), 512);
        assert_eq!(seg.padded_size(), 2 * DEFAULT_BLOCK_SIZE);
        // Engine profiles agree within the parity budget.
        let mut se = EngineScratch::default();
        let mut ss = EngineScratch::default();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        exact.distance_profile_into(7, &mut se, &mut a);
        seg.distance_profile_into(7, &mut ss, &mut b);
        for (j, (&x, &y)) in a.iter().zip(&b).enumerate() {
            assert!((x - y).abs() <= 1e-9, "j={j}: {x} vs {y}");
        }
    }

    #[test]
    fn memory_stays_bounded_under_append_evict_cycles() {
        let m = 16usize;
        let n = 384usize;
        let chunk = 128usize;
        let block = 64usize;
        let series = test_series(n);
        let mut seg = SegmentedMass::with_block_size(&series, m, block);
        let mut fed = n;
        while fed < 8_000 {
            let part: Vec<f64> = (0..chunk)
                .map(|j| ((fed + j) as f64 * 0.11).sin() * 2.0)
                .collect();
            seg.append(&part);
            fed += chunk;
            let live = seg.series().len();
            let excess = live.saturating_sub(n);
            seg.evict_front(excess);
            assert!(seg.series().len() <= n);
            // Grid storage: live points + dead prefix (< B) + chunk slack.
            assert!(
                seg.series_capacity() <= 2 * (n + chunk + block),
                "series capacity {} exceeds {}",
                seg.series_capacity(),
                2 * (n + chunk + block)
            );
            // Spectra: one (B+1)-bin spectrum per live block.
            let max_blocks = (n + chunk + block).div_ceil(block);
            assert!(
                seg.block_count() <= max_blocks,
                "{} blocks exceed {max_blocks}",
                seg.block_count()
            );
            assert!(
                seg.spectra_capacity() <= 2 * max_blocks * (block + 1),
                "spectra capacity {} exceeds {}",
                seg.spectra_capacity(),
                2 * max_blocks * (block + 1)
            );
            assert_eq!(
                seg.transform_size(),
                2 * block,
                "transform size must stay flat"
            );
        }
    }

    /// The checkpoint contract at the kernel level: an engine rebuilt
    /// from its grid state produces **bit-identical** profiles to the
    /// evolved original — including rolled chains continued across the
    /// rebuild — because every derived table is a pure per-entry
    /// function of the grid contents.
    #[test]
    fn restore_from_grid_state_is_bit_identical() {
        let series = test_series(700);
        let m = 12;
        let mut seg = SegmentedMass::with_block_size(&series[..400], m, 64);
        seg.append(&series[400..600]);
        seg.evict_front(37);
        seg.append(&series[600..]);
        let restored = SegmentedMass::restore(
            seg.grid_series().to_vec(),
            seg.dead_prefix(),
            seg.m(),
            seg.block_size(),
            seg.generation(),
        );
        assert_eq!(restored.series(), seg.series());
        assert_eq!(restored.generation(), seg.generation());
        let mut s1 = SegScratch::default();
        let mut s2 = SegScratch::default();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for q in 0..seg.window_count() - 1 {
            seg.rolling_profile_into(q, &mut s1, &mut a);
            restored.rolling_profile_into(q, &mut s2, &mut b);
            assert_eq!(a, b, "q={q}");
        }
        // A rolled row moved across the rebuild continues the chain
        // bit-exactly.
        let (g, q, chain, cov) = s1.rolled_row().unwrap();
        let mut resumed = SegScratch::default();
        resumed.set_rolled_row(g, q, chain, cov.to_vec());
        seg.rolling_profile_into(q + 1, &mut s1, &mut a);
        restored.rolling_profile_into(q + 1, &mut resumed, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "smaller than window")]
    fn undersized_block_rejected() {
        SegmentedMass::with_block_size(&test_series(100), 40, 32);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_block_rejected() {
        SegmentedMass::with_block_size(&test_series(100), 8, 48);
    }

    #[test]
    #[should_panic(expected = "would leave fewer than m")]
    fn over_eviction_rejected() {
        let mut seg = SegmentedMass::with_block_size(&test_series(100), 10, 32);
        seg.evict_front(95);
    }
}
