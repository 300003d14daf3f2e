//! Offline stand-in for the `rand` crate (0.8-era API surface).
//!
//! Implements exactly what this workspace uses: [`rngs::StdRng`] +
//! [`SeedableRng::seed_from_u64`], the [`Rng`] extension methods
//! `gen`, `gen_range`, `gen_bool`, and [`seq::SliceRandom::shuffle`].
//!
//! The generator is xoshiro256++ seeded through SplitMix64. Streams are
//! fully deterministic per seed but are **not** byte-compatible with the
//! real `StdRng` (ChaCha12); nothing in this workspace depends on the
//! exact stream, only on seed-stability.

#![forbid(unsafe_code)]

pub mod rngs;
pub mod seq;

/// Core source of randomness: a 64-bit generator.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits (upper half of [`next_u64`]).
    ///
    /// [`next_u64`]: RngCore::next_u64
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable uniformly from raw generator output (the stand-in for
/// `rand`'s `Standard` distribution).
pub trait UniformSample {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl UniformSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits → [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl UniformSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl UniformSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types with uniform sampling over a bounded interval (the stand-in
/// for `rand::distributions::uniform::SampleUniform`).
pub trait SampleUniform: Sized {
    /// Uniform draw from `[lo, hi)` (`inclusive = false`) or `[lo, hi]`
    /// (`inclusive = true`).
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty.
    fn sample_interval<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

/// Ranges usable with [`Rng::gen_range`].
///
/// Implemented generically over [`SampleUniform`] (one impl per range
/// shape, as in the real crate) so integer-literal ranges infer their
/// type from the call site.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_interval(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_interval(*self.start(), *self.end(), true, rng)
    }
}

/// Maps a uniform `u64` onto `[0, span)` without modulo bias
/// (fixed-point multiply).
#[inline]
fn bounded(rng_out: u64, span: u64) -> u64 {
    ((rng_out as u128 * span as u128) >> 64) as u64
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_interval<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                if inclusive {
                    assert!(lo <= hi, "cannot sample empty range");
                    let span = (hi as i128 - lo as i128 + 1) as u128;
                    if span > u64::MAX as u128 {
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(bounded(rng.next_u64(), span as u64) as $t)
                } else {
                    assert!(lo < hi, "cannot sample empty range");
                    let span = (hi as i128 - lo as i128) as u64;
                    lo.wrapping_add(bounded(rng.next_u64(), span) as $t)
                }
            }
        }
    )*};
}
impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_interval<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        _inclusive: bool,
        rng: &mut R,
    ) -> Self {
        assert!(lo < hi, "cannot sample empty range");
        lo + (hi - lo) * f64::sample(rng)
    }
}

/// Extension methods over any [`RngCore`] (the `rand::Rng` surface).
pub trait Rng: RngCore {
    /// Uniform sample of `T` over its full (or unit, for floats) range.
    fn gen<T: UniformSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Uniform sample from a range.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(5u32..=9);
            assert!((5..=9).contains(&w));
            let f = rng.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        rng.gen_range(5usize..5);
    }
}
