//! Offline stand-in for `rayon`: data parallelism on scoped OS threads.
//!
//! Supports the subset this workspace uses:
//!
//! * `(a..b).into_par_iter().map(f).collect::<Vec<_>>()` — deterministic
//!   output order (slot-indexed), dynamic load balancing via an atomic
//!   work index;
//! * `slice.par_iter().map(f).collect()` / `.for_each(f)`;
//! * [`join`] for two-way fork-join;
//! * [`ThreadPoolBuilder`]`::new().num_threads(n).build()?.install(f)` to
//!   pin the worker count (used by the determinism tests);
//! * [`current_num_threads`].
//!
//! Unlike real rayon there is no global work-stealing pool: each parallel
//! call spawns scoped threads, and *nested* parallel calls run serially on
//! the worker they occur on (preventing thread explosion). Results are
//! independent of the worker count by construction — output slots are
//! indexed, never appended.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::convert::Infallible;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod prelude {
    //! Glob-import surface mirroring `rayon::prelude`.
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator};
}

thread_local! {
    /// Set on pool workers: nested parallel calls run serially.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Thread-count override installed by [`ThreadPool::install`].
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The worker count a parallel call issued from this thread will use.
pub fn current_num_threads() -> usize {
    if IN_POOL.with(|f| f.get()) {
        return 1;
    }
    let overridden = THREAD_OVERRIDE.with(|t| t.get());
    if overridden > 0 {
        return overridden;
    }
    if let Ok(env) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = env.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    hardware_threads()
}

/// Runs `f` over `items`, returning results in input order.
fn run_parallel<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|it| Mutex::new(Some(it))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                IN_POOL.with(|flag| flag.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("work slot poisoned")
                        .take()
                        .expect("work item taken twice");
                    let result = f(item);
                    *out[i].lock().expect("result slot poisoned") = Some(result);
                }
            });
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker skipped a slot")
        })
        .collect()
}

/// Two-way fork-join: runs both closures, in parallel when workers are
/// available, and returns both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    let mut ra = None;
    let mut rb = None;
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            IN_POOL.with(|flag| flag.set(true));
            b()
        });
        ra = Some(a());
        rb = Some(handle.join().expect("join arm panicked"));
    });
    (ra.expect("left arm ran"), rb.expect("right arm ran"))
}

/// An eagerly materialized parallel iterator.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel map; terminate with [`ParMap::collect`] or
    /// [`ParIter::for_each`]-equivalent.
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParMap<T, F> {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Applies `f` to every item in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        run_parallel(self.items, &f);
    }
}

/// A pending parallel map.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> ParMap<T, F> {
    /// Runs the map and collects results in input order.
    pub fn collect<C: FromParallel<R>>(self) -> C {
        C::from_vec(run_parallel(self.items, self.f))
    }
}

/// Collection target of [`ParMap::collect`].
pub trait FromParallel<R> {
    /// Builds the collection from in-order results.
    fn from_vec(v: Vec<R>) -> Self;
}

impl<R> FromParallel<R> for Vec<R> {
    fn from_vec(v: Vec<R>) -> Self {
        v
    }
}

/// By-value conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// Item type produced.
    type Item: Send;

    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;

    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// By-reference conversion into a parallel iterator.
pub trait IntoParallelRefIterator<'data> {
    /// Item type produced (a reference).
    type Item: Send;

    /// Parallel iterator over references.
    fn par_iter(&'data self) -> ParIter<Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;

    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;

    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// By-mutable-reference conversion into a parallel iterator
/// (mirrors `rayon::iter::IntoParallelRefMutIterator`).
pub trait IntoParallelRefMutIterator<'data> {
    /// Item type produced (a mutable reference).
    type Item: Send;

    /// Parallel iterator over mutable references.
    fn par_iter_mut(&'data mut self) -> ParIter<Self::Item>;
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
    type Item = &'data mut T;

    fn par_iter_mut(&'data mut self) -> ParIter<&'data mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for Vec<T> {
    type Item = &'data mut T;

    fn par_iter_mut(&'data mut self) -> ParIter<&'data mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// New builder with default (hardware) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the worker count; `0` means hardware default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool. Never fails in the shim.
    pub fn build(self) -> Result<ThreadPool, Infallible> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A handle carrying a pinned thread count.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count governing nested parallel
    /// calls on the current thread.
    pub fn install<R, F: FnOnce() -> R>(&self, f: F) -> R {
        let previous = THREAD_OVERRIDE.with(|t| t.replace(self.num_threads));
        let result = f();
        THREAD_OVERRIDE.with(|t| t.set(previous));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_over_slice() {
        let data = vec![1.0f64, 2.0, 3.0];
        let out: Vec<f64> = data.par_iter().map(|&x| x + 1.0).collect();
        assert_eq!(out, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let work = || -> Vec<u64> {
            (0..257)
                .into_par_iter()
                .map(|i| (i as u64).wrapping_mul(0x9e37))
                .collect()
        };
        let mut outputs = Vec::new();
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            outputs.push(pool.install(work));
        }
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn nested_calls_run_serially_without_deadlock() {
        let out: Vec<usize> = (0..8)
            .into_par_iter()
            .map(|i| {
                let inner: Vec<usize> = (0..4).into_par_iter().map(|j| i * 10 + j).collect();
                inner.into_iter().sum()
            })
            .collect();
        assert_eq!(out.len(), 8);
        assert_eq!(out[1], 10 + 11 + 12 + 13);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn for_each_visits_everything() {
        let counter = AtomicUsize::new(0);
        (0..100).into_par_iter().for_each(|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            (0..4).into_par_iter().for_each(|i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err());
    }
}
