//! Radix-2 FFT with cached plans and real-input packing.
//!
//! Three layers, each fully in-house (no external DSP crates):
//!
//! * [`FftPlan`] — a reusable complex transform plan for one
//!   power-of-two size: the bit-reversal permutation table and the
//!   twiddle factors are computed **once** and shared by every
//!   subsequent transform. The legacy [`fft_in_place`] entry point (plan
//!   per call, trigonometric recurrence) is kept as a wrapper.
//! * [`RealFftPlan`] — real-input packing: a real transform of length
//!   `n` runs as a complex transform of length `n/2` (even samples in
//!   the real lane, odd samples in the imaginary lane) plus an `O(n)`
//!   spectral unpack — roughly halving the work of both the forward and
//!   inverse transforms for MASS's all-real signals.
//! * Convolution/correlation helpers: [`convolve_real`] and
//!   [`sliding_dot_products`] (the MASS kernel), both running on cached
//!   real plans.
//! * A **global plan cache** ([`cached_plan`] / [`cached_real_plan`]):
//!   one shared `Arc` plan per transform size, behind a mutexed map.
//!   Plan construction (`O(n)` tables plus trigonometry) used to be paid
//!   on *every* call by the one-shot entry points — the HOTSAX oracle,
//!   STOMP's seed row, eval's scalability sweeps; now each size is built
//!   once per process and handed out by refcount. The mutex guards only
//!   the map lookup (transforms themselves run lock-free on `&self`), so
//!   the cache is shared safely across rayon workers.
//!
//! `MassPrecomputed` in [`crate::mass`] builds on `RealFftPlan` to
//! transform a series **once** and answer every query against the cached
//! spectrum.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A complex number as a bare `(re, im)` pair.
pub type Complex = (f64, f64);

#[inline]
fn c_add(a: Complex, b: Complex) -> Complex {
    (a.0 + b.0, a.1 + b.1)
}

#[inline]
fn c_sub(a: Complex, b: Complex) -> Complex {
    (a.0 - b.0, a.1 - b.1)
}

/// Complex multiplication.
#[inline]
pub fn c_mul(a: Complex, b: Complex) -> Complex {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// Complex conjugate.
#[inline]
pub fn c_conj(a: Complex) -> Complex {
    (a.0, -a.1)
}

/// Next power of two ≥ `n` (and ≥ 1).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// A cached complex FFT plan for one power-of-two size.
///
/// Construction precomputes the bit-reversal permutation and the
/// twiddle-factor table `e^{-2πik/n}` (`k < n/2`); transforms then run
/// with pure table lookups — no trigonometry, no recurrence error
/// accumulation — and may be shared across threads (`&self` methods).
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    bitrev: Vec<u32>,
    /// Stage-ordered twiddles: for each butterfly stage `len = 2, 4, …,
    /// n`, the `len/2` roots `e^{-2πik/len}` — laid out contiguously so
    /// the inner loop walks them sequentially (`n − 1` entries total).
    twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT size {n} not a power of two");
        let mut bitrev = vec![0u32; n];
        for i in 1..n {
            let prev = bitrev[i >> 1] >> 1;
            bitrev[i] = prev | if i & 1 == 1 { (n as u32) >> 1 } else { 0 };
        }
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            for k in 0..len / 2 {
                let ang = -std::f64::consts::TAU * k as f64 / len as f64;
                twiddles.push((ang.cos(), ang.sin()));
            }
            len <<= 1;
        }
        Self {
            n,
            bitrev,
            twiddles,
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the degenerate zero-length plan (never constructable —
    /// kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward DFT in place.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan size.
    pub fn forward(&self, buf: &mut [Complex]) {
        self.transform(buf, false);
    }

    /// Unscaled inverse DFT in place (divide by `len` afterwards).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan size.
    pub fn inverse_unscaled(&self, buf: &mut [Complex]) {
        self.transform(buf, true);
    }

    fn transform(&self, buf: &mut [Complex], inverse: bool) {
        let n = self.n;
        assert_eq!(buf.len(), n, "buffer length does not match plan size");
        if n <= 1 {
            return;
        }
        for i in 0..n {
            let j = self.bitrev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        let sign = if inverse { -1.0 } else { 1.0 };
        let mut stage_off = 0;
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stage = &self.twiddles[stage_off..stage_off + half];
            for block in buf.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((u, v), &(wr, wi)) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                    let wi = sign * wi;
                    let t = (v.0 * wr - v.1 * wi, v.0 * wi + v.1 * wr);
                    *v = (u.0 - t.0, u.1 - t.1);
                    *u = (u.0 + t.0, u.1 + t.1);
                }
            }
            stage_off += half;
            len <<= 1;
        }
    }
}

/// A cached FFT plan for **real** inputs of even power-of-two length
/// `n ≥ 2`, using the half-size complex transform plus an `O(n)`
/// pack/unpack stage.
///
/// The spectrum representation is the standard real-FFT half-spectrum:
/// `n/2 + 1` bins `X[0..=n/2]`; the remaining bins are implied by the
/// Hermitian symmetry `X[n−k] = conj(X[k])` and never materialized.
#[derive(Debug, Clone)]
pub struct RealFftPlan {
    n: usize,
    half: FftPlan,
    /// `e^{-2πik/n}` for `k < n/2`.
    twiddles: Vec<Complex>,
}

impl RealFftPlan {
    /// Builds a plan for real transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2 && n.is_power_of_two(), "real FFT size {n} invalid");
        let twiddles: Vec<Complex> = (0..n / 2)
            .map(|k| {
                let ang = -std::f64::consts::TAU * k as f64 / n as f64;
                (ang.cos(), ang.sin())
            })
            .collect();
        Self {
            n,
            half: FftPlan::new(n / 2),
            twiddles,
        }
    }

    /// Real transform length `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never true; kept alongside [`RealFftPlan::len`] for idiom.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of half-spectrum bins (`n/2 + 1`).
    pub fn spectrum_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// Forward real DFT: writes the `n/2 + 1` half-spectrum bins of
    /// `input` into `spec`. `scratch` is resized as needed and may be
    /// reused across calls.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != n`.
    pub fn forward_into(&self, input: &[f64], spec: &mut Vec<Complex>, scratch: &mut Vec<Complex>) {
        let n = self.n;
        let h = n / 2;
        assert_eq!(input.len(), n, "input length does not match plan size");
        scratch.clear();
        scratch.extend((0..h).map(|k| (input[2 * k], input[2 * k + 1])));
        self.half.forward(scratch);

        spec.clear();
        spec.reserve(h + 1);
        for k in 0..=h {
            let zk = scratch[k % h];
            let zr = c_conj(scratch[(h - k) % h]);
            // Spectra of the even/odd sample streams.
            let fe = ((zk.0 + zr.0) * 0.5, (zk.1 + zr.1) * 0.5);
            let fo_times_i = c_sub(zk, zr); // 2i·Fo[k]
            let fo = (fo_times_i.1 * 0.5, -fo_times_i.0 * 0.5);
            let w = if k < h { self.twiddles[k] } else { (-1.0, 0.0) };
            spec.push(c_add(fe, c_mul(w, fo)));
        }
    }

    /// Inverse real DFT: reconstructs the length-`n` real signal from its
    /// `n/2 + 1` half-spectrum bins. Properly scaled (a forward →
    /// inverse round trip is the identity).
    ///
    /// # Panics
    ///
    /// Panics if `spec.len() != n/2 + 1`.
    pub fn inverse_into(&self, spec: &[Complex], out: &mut Vec<f64>, scratch: &mut Vec<Complex>) {
        let n = self.n;
        let h = n / 2;
        assert_eq!(
            spec.len(),
            h + 1,
            "spectrum length does not match plan size"
        );
        scratch.clear();
        scratch.reserve(h);
        for k in 0..h {
            let xk = spec[k];
            let xr = c_conj(spec[h - k]);
            let fe = ((xk.0 + xr.0) * 0.5, (xk.1 + xr.1) * 0.5);
            let w_fo = ((xk.0 - xr.0) * 0.5, (xk.1 - xr.1) * 0.5); // W^k·Fo[k]
            let fo = c_mul(c_conj(self.twiddles[k]), w_fo);
            // Z[k] = Fe[k] + i·Fo[k]
            scratch.push((fe.0 - fo.1, fe.1 + fo.0));
        }
        self.half.inverse_unscaled(scratch);
        let scale = 1.0 / h as f64;
        out.clear();
        out.reserve(n);
        for z in scratch.iter() {
            out.push(z.0 * scale);
            out.push(z.1 * scale);
        }
    }
}

/// A process-wide plan map, one shared `Arc` plan per transform size.
///
/// Unbounded on purpose: plan sizes are powers of two, so a `usize`
/// admits at most 64 distinct complex sizes (63 real ones) and the map
/// can never grow past that.
type PlanCache<T> = Mutex<HashMap<usize, Arc<T>>>;

static COMPLEX_PLANS: OnceLock<PlanCache<FftPlan>> = OnceLock::new();
static REAL_PLANS: OnceLock<PlanCache<RealFftPlan>> = OnceLock::new();

/// Returns the cached plan for size `n`, building it on first request.
///
/// The lock is recovered from poisoning: sizes are validated *before*
/// it is taken and the map is written only after the plan builds, so a
/// panic can never leave the map mid-mutation.
fn cached<T>(cache: &OnceLock<PlanCache<T>>, n: usize, build: impl FnOnce() -> T) -> Arc<T> {
    let mut plans = cache
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(plan) = plans.get(&n) {
        egi_obs::counter!("egi_fft_plan_cache_hits_total").inc();
        return Arc::clone(plan);
    }
    egi_obs::counter!("egi_fft_plan_cache_misses_total").inc();
    let plan = Arc::new(build());
    plans.insert(n, Arc::clone(&plan));
    plan
}

/// The process-wide shared [`FftPlan`] for size `n`, built on first
/// request and reused (by `Arc`) for the rest of the process.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn cached_plan(n: usize) -> Arc<FftPlan> {
    assert!(n.is_power_of_two(), "FFT size {n} not a power of two");
    cached(&COMPLEX_PLANS, n, || FftPlan::new(n))
}

/// The process-wide shared [`RealFftPlan`] for size `n`, built on first
/// request and reused (by `Arc`) for the rest of the process.
///
/// # Panics
///
/// Panics if `n < 2` or `n` is not a power of two.
pub fn cached_real_plan(n: usize) -> Arc<RealFftPlan> {
    assert!(n >= 2 && n.is_power_of_two(), "real FFT size {n} invalid");
    cached(&REAL_PLANS, n, || RealFftPlan::new(n))
}

/// In-place FFT (`inverse = false`) or unscaled inverse FFT
/// (`inverse = true`; divide by `len` afterwards to invert).
///
/// Legacy entry point; runs on the global plan cache, so repeated calls
/// at one size no longer rebuild tables.
///
/// # Panics
///
/// Panics if `buf.len()` is not a power of two.
pub fn fft_in_place(buf: &mut [Complex], inverse: bool) {
    let plan = cached_plan(buf.len());
    if inverse {
        plan.inverse_unscaled(buf);
    } else {
        plan.forward(buf);
    }
}

/// Linear convolution of two real sequences via the packed real FFT.
///
/// Returns a vector of length `a.len() + b.len() − 1` (empty if either
/// input is empty).
pub fn convolve_real(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let out_len = a.len() + b.len() - 1;
    let size = next_pow2(out_len).max(2);
    let plan = cached_real_plan(size);
    let mut padded = vec![0.0; size];
    let mut scratch = Vec::new();
    let mut spec_a = Vec::new();
    padded[..a.len()].copy_from_slice(a);
    plan.forward_into(&padded, &mut spec_a, &mut scratch);
    padded[..a.len()].iter_mut().for_each(|v| *v = 0.0);
    padded[..b.len()].copy_from_slice(b);
    let mut spec_b = Vec::new();
    plan.forward_into(&padded, &mut spec_b, &mut scratch);
    for (x, y) in spec_a.iter_mut().zip(&spec_b) {
        *x = c_mul(*x, *y);
    }
    let mut out = Vec::new();
    plan.inverse_into(&spec_a, &mut out, &mut scratch);
    out.truncate(out_len);
    out
}

/// Sliding dot products of `query` against every window of `series`:
/// `out[j] = Σ_k query[k] · series[j + k]` for
/// `j = 0 ..= series.len() − query.len()`.
///
/// Computed as a circular cross-correlation on the packed real FFT,
/// `O(N log N)`. For repeated queries against one series, use
/// [`crate::mass::MassPrecomputed`], which caches the series spectrum.
///
/// # Panics
///
/// Panics if the query is empty or longer than the series.
pub fn sliding_dot_products(query: &[f64], series: &[f64]) -> Vec<f64> {
    let m = query.len();
    let n = series.len();
    assert!(m > 0, "empty query");
    assert!(m <= n, "query longer than series");
    let size = next_pow2(n).max(2);
    let plan = cached_real_plan(size);
    let mut scratch = Vec::new();
    let mut padded = vec![0.0; size];
    padded[..n].copy_from_slice(series);
    let mut series_spec = Vec::new();
    plan.forward_into(&padded, &mut series_spec, &mut scratch);
    padded.iter_mut().for_each(|v| *v = 0.0);
    padded[..m].copy_from_slice(query);
    let mut query_spec = Vec::new();
    plan.forward_into(&padded, &mut query_spec, &mut scratch);
    // Cross-correlation theorem: corr = IDFT(conj(Q) · S). Lags
    // 0 ..= n − m stay clear of the circular wrap-around.
    for (q, s) in query_spec.iter_mut().zip(&series_spec) {
        *q = c_mul(c_conj(*q), *s);
    }
    let mut corr = Vec::new();
    plan.inverse_into(&query_spec, &mut corr, &mut scratch);
    corr.truncate(n - m + 1);
    corr
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; a.len() + b.len() - 1];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                out[i + j] += x * y;
            }
        }
        out
    }

    #[test]
    fn fft_roundtrip_recovers_input() {
        let mut buf: Vec<Complex> = (0..16).map(|i| (i as f64, -(i as f64) / 3.0)).collect();
        let original = buf.clone();
        fft_in_place(&mut buf, false);
        fft_in_place(&mut buf, true);
        for ((re, im), (ore, oim)) in buf.iter().zip(&original) {
            assert!((re / 16.0 - ore).abs() < 1e-9);
            assert!((im / 16.0 - oim).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![(0.0, 0.0); 8];
        buf[0] = (1.0, 0.0);
        fft_in_place(&mut buf, false);
        for (re, im) in buf {
            assert!((re - 1.0).abs() < 1e-12);
            assert!(im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_parseval_energy() {
        let xs: Vec<f64> = (0..32).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let mut buf: Vec<Complex> = xs.iter().map(|&x| (x, 0.0)).collect();
        fft_in_place(&mut buf, false);
        let time_energy: f64 = xs.iter().map(|x| x * x).sum();
        let freq_energy: f64 = buf.iter().map(|(r, i)| r * r + i * i).sum::<f64>() / 32.0;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_pow2() {
        let mut buf = vec![(0.0, 0.0); 6];
        fft_in_place(&mut buf, false);
    }

    #[test]
    fn plan_matches_legacy_transform() {
        // The table-driven plan must agree with a direct DFT.
        let n = 64;
        let signal: Vec<Complex> = (0..n)
            .map(|i| ((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut fast = signal.clone();
        FftPlan::new(n).forward(&mut fast);
        for (k, &bin) in fast.iter().enumerate() {
            let mut direct = (0.0f64, 0.0f64);
            for (t, &x) in signal.iter().enumerate() {
                let ang = -std::f64::consts::TAU * (k * t % n) as f64 / n as f64;
                direct = c_add(direct, c_mul(x, (ang.cos(), ang.sin())));
            }
            assert!(
                (bin.0 - direct.0).abs() < 1e-8 && (bin.1 - direct.1).abs() < 1e-8,
                "bin {k}: {:?} vs {:?}",
                bin,
                direct
            );
        }
    }

    #[test]
    fn real_fft_matches_complex_fft() {
        for &n in &[2usize, 4, 16, 128] {
            let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 0.3).collect();
            let plan = RealFftPlan::new(n);
            let (mut spec, mut scratch) = (Vec::new(), Vec::new());
            plan.forward_into(&signal, &mut spec, &mut scratch);
            assert_eq!(spec.len(), n / 2 + 1);
            let mut full: Vec<Complex> = signal.iter().map(|&x| (x, 0.0)).collect();
            FftPlan::new(n).forward(&mut full);
            for k in 0..=n / 2 {
                assert!(
                    (spec[k].0 - full[k].0).abs() < 1e-9 && (spec[k].1 - full[k].1).abs() < 1e-9,
                    "n={n} bin {k}: {:?} vs {:?}",
                    spec[k],
                    full[k]
                );
            }
        }
    }

    #[test]
    fn real_fft_roundtrip_is_identity() {
        for &n in &[2usize, 8, 64, 512] {
            let signal: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 1.3).cos() * 2.0 - 0.5 * i as f64)
                .collect();
            let plan = RealFftPlan::new(n);
            let (mut spec, mut scratch, mut back) = (Vec::new(), Vec::new(), Vec::new());
            plan.forward_into(&signal, &mut spec, &mut scratch);
            plan.inverse_into(&spec, &mut back, &mut scratch);
            assert_eq!(back.len(), n);
            for (a, b) in signal.iter().zip(&back) {
                assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn convolution_matches_naive() {
        let a = [1.0, 2.0, -1.0, 0.5];
        let b = [3.0, -2.0, 1.0, 4.0, -1.0];
        let fast = convolve_real(&a, &b);
        let slow = naive_convolve(&a, &b);
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            assert!((f - s).abs() < 1e-9, "{f} vs {s}");
        }
    }

    #[test]
    fn convolution_with_empty_is_empty() {
        assert!(convolve_real(&[], &[1.0]).is_empty());
        assert!(convolve_real(&[1.0], &[]).is_empty());
    }

    #[test]
    fn convolution_of_single_points() {
        let fast = convolve_real(&[3.0], &[-2.0]);
        assert_eq!(fast.len(), 1);
        assert!((fast[0] + 6.0).abs() < 1e-12);
    }

    #[test]
    fn sliding_dots_match_direct() {
        let series: Vec<f64> = (0..50).map(|i| (i as f64 * 0.7).sin()).collect();
        let query = &series[10..18];
        let fast = sliding_dot_products(query, &series);
        assert_eq!(fast.len(), 43);
        for j in 0..fast.len() {
            let direct: f64 = query
                .iter()
                .zip(&series[j..j + 8])
                .map(|(q, s)| q * s)
                .sum();
            assert!((fast[j] - direct).abs() < 1e-8, "offset {j}");
        }
    }

    #[test]
    fn sliding_dots_full_length_query() {
        let series = [1.0, -2.0, 3.0];
        let out = sliding_dot_products(&series, &series);
        assert_eq!(out.len(), 1);
        assert!((out[0] - 14.0).abs() < 1e-9);
    }

    #[test]
    fn plan_cache_reuses_one_plan_per_size() {
        let a = cached_real_plan(256);
        let b = cached_real_plan(256);
        assert!(Arc::ptr_eq(&a, &b), "same size must share one plan");
        let c = cached_real_plan(512);
        assert!(!Arc::ptr_eq(&a, &c));
        let d = cached_plan(64);
        let e = cached_plan(64);
        assert!(Arc::ptr_eq(&d, &e));
    }

    #[test]
    fn plan_cache_is_share_safe_across_threads() {
        let plans: Vec<Arc<RealFftPlan>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| cached_real_plan(1024)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for pair in plans.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
    }

    #[test]
    fn plan_cache_counts_hits_and_misses() {
        let count = |name| egi_obs::global().counter(name).get();
        let hits = count("egi_fft_plan_cache_hits_total");
        let misses = count("egi_fft_plan_cache_misses_total");
        let _ = cached_plan(128);
        let _ = cached_plan(128);
        // Concurrent tests share these counters but only ever add to
        // them, and a second lookup of one size is always a hit.
        let new_hits = count("egi_fft_plan_cache_hits_total") - hits;
        let new_misses = count("egi_fft_plan_cache_misses_total") - misses;
        assert!(new_hits >= 1, "the repeat lookup must hit");
        assert!(new_hits + new_misses >= 2, "both lookups are counted");
    }

    #[test]
    fn plans_built_twice_give_bit_identical_output() {
        // Plan construction is deterministic: an independently built
        // plan of the cached size transforms to the same bits.
        let signal: Vec<f64> = (0..256)
            .map(|i| (i as f64 * 0.37).sin() * 2.5 - 0.4)
            .collect();
        let (mut cached_spec, mut fresh_spec, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        cached_real_plan(256).forward_into(&signal, &mut cached_spec, &mut scratch);
        RealFftPlan::new(256).forward_into(&signal, &mut fresh_spec, &mut scratch);
        assert_eq!(cached_spec, fresh_spec);
        let mut cached_buf: Vec<Complex> = signal.iter().map(|&x| (x, -x)).collect();
        let mut fresh_buf = cached_buf.clone();
        cached_plan(256).forward(&mut cached_buf);
        FftPlan::new(256).forward(&mut fresh_buf);
        assert_eq!(cached_buf, fresh_buf);
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(8), 8);
        assert_eq!(next_pow2(1000), 1024);
    }
}
