//! Offline stand-in for `proptest`.
//!
//! Supports the subset this workspace's property tests use: the
//! [`proptest!`] macro (with `#![proptest_config(...)]`), numeric range
//! strategies, tuple strategies, [`prop::collection::vec`], and the
//! `prop_assert!`/`prop_assert_eq!`/`prop_assume!` macros. Cases are
//! drawn from a seed derived from the test name, so failures reproduce
//! deterministically. **No shrinking** — a failing case reports its
//! values via the assertion message instead.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{RngCore, SampleRange, SeedableRng};

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// Assertion failure — fails the test.
    Fail(String),
    /// `prop_assume!` rejection — the case is skipped, not failed.
    Reject(String),
}

impl TestCaseError {
    /// Builds a failure from any displayable message.
    pub fn fail<T: std::fmt::Display>(message: T) -> Self {
        TestCaseError::Fail(message.to_string())
    }

    /// Builds a rejection from any displayable message.
    pub fn reject<T: std::fmt::Display>(message: T) -> Self {
        TestCaseError::Reject(message.to_string())
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// Generated value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut StdRng) -> f64 {
        self.clone().sample_single(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut StdRng) -> S::Value {
        (**self).generate(rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7)
}

/// Collection length specification: a fixed size or a half-open range.
#[derive(Debug, Clone)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { lo: n, hi: n + 1 }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self {
            lo: r.start,
            hi: r.end,
        }
    }
}

/// Strategy modules mirroring `proptest::prop` — namespaced strategy
/// constructors (`prop::collection::vec`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{SizeRange, Strategy};
        use rand::rngs::StdRng;

        /// Vec of values from `element`, with length drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// Strategy produced by [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
                let len = rand::Rng::gen_range(rng, self.size.lo..self.size.hi);
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// Resolves the case count for one run: the configured count, raised
/// to the `PROPTEST_CASES` environment variable when that is set
/// higher. Each harness pins a count sized for the regular test job;
/// the nightly-style CI soak step exports `PROPTEST_CASES` to multiply
/// coverage without touching the sources. (The variable never *lowers*
/// a configured count — a harness that needs many cases to mean
/// anything keeps them.)
pub fn effective_cases(config: &ProptestConfig) -> u32 {
    let env = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(0);
    config.cases.max(env)
}

/// Deterministic per-test RNG, seeded from the test name.
pub fn runner_rng(test_name: &str) -> StdRng {
    let mut seed = 0xcbf29ce484222325u64;
    for b in test_name.bytes() {
        seed ^= b as u64;
        seed = seed.wrapping_mul(0x100000001b3);
    }
    // Allow overriding for soak runs.
    if let Ok(extra) = std::env::var("PROPTEST_SEED") {
        if let Ok(n) = extra.parse::<u64>() {
            seed ^= n;
        }
    }
    StdRng::seed_from_u64(seed)
}

/// Entropy check used by the runner loop to avoid infinite rejection.
pub fn check_rejection_budget(attempts: u32, cases: u32, name: &str) {
    if attempts > cases.saturating_mul(50).max(1000) {
        panic!("proptest {name}: too many rejected cases ({attempts} attempts)");
    }
}

#[doc(hidden)]
pub fn __unused_rng_core<R: RngCore>(_: &R) {}

/// The property-test macro. See module docs for supported syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($binding:pat_param in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let __cases = $crate::effective_cases(&__config);
            let mut __rng = $crate::runner_rng(stringify!($name));
            let __strategies = ($($strat,)*);
            let mut __accepted: u32 = 0;
            let mut __attempts: u32 = 0;
            while __accepted < __cases {
                __attempts += 1;
                $crate::check_rejection_budget(__attempts, __cases, stringify!($name));
                let ($($binding,)*) =
                    $crate::Strategy::generate(&__strategies, &mut __rng);
                let __outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match __outcome {
                    ::std::result::Result::Ok(()) => __accepted += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => continue,
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!("proptest {} failed: {}", stringify!($name), msg)
                    }
                }
            }
        }
    )*};
}

/// Rejects the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                ::std::string::String::from(stringify!($cond)),
            ));
        }
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                ::std::format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(::std::format!(
                "assert_eq failed: {:?} != {:?}",
                __l,
                __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(::std::format!(
                "assert_eq failed: {:?} != {:?}: {}",
                __l,
                __r,
                ::std::format!($($fmt)*)
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, f in -1.0f64..1.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn vec_sizes_respected(v in prop::collection::vec(0u32..5, 2..7)) {
            prop_assert!(v.len() >= 2 && v.len() < 7);
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn fixed_size_vec(v in prop::collection::vec(0.0f64..1.0, 20)) {
            prop_assert_eq!(v.len(), 20);
        }

        #[test]
        fn tuples_and_mut_bindings(mut a in 0u32..10, b in (0u32..3, 1usize..4)) {
            a += b.0;
            prop_assert!(a < 13);
            prop_assert!(b.1 >= 1);
        }

        #[test]
        fn assume_rejects(n in 0usize..100) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }

        #[test]
        fn question_mark_operator_works(_x in 0usize..2) {
            let ok: Result<(), String> = Ok(());
            ok.map_err(TestCaseError::fail)?;
        }
    }
}
