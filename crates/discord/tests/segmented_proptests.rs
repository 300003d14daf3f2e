//! Property harness for the versioned parity contract between the
//! `Exact` and `Segmented` MASS backends (the PR 6 tentpole).
//!
//! Random interleavings of `append` / `evict` / `step` schedules are
//! driven through **both** backends in lockstep and against the shadow
//! suffix model (stream regenerated from global indices). At the end of
//! every schedule:
//!
//! * the Exact finish is bit-identical to batch [`stamp_with_exclusion`]
//!   over the surviving suffix (re-asserting the PR 5 contract — the
//!   backend plumbing must not have perturbed the oracle);
//! * the Segmented finish agrees with the Exact one to ≤1e-9 — in
//!   distance, or in *squared* distance where `√` amplifies correlation
//!   round-off near true-zero distances;
//! * profile **indices** are identical wherever the entry's two best
//!   admissible distances are separated by more than 2× the tolerance
//!   (closer than that, either kernel may legitimately pick either
//!   neighbor);
//! * invalid evictions are rejected atomically on the segmented backend
//!   exactly as on the exact one.

#![forbid(unsafe_code)]

use egi_discord::mass_seg::MassBackend;
use egi_discord::stamp::{stamp_per_query_fft, stamp_with_exclusion};
use egi_discord::streaming::{EvictError, StreamingDiscordMonitor, DEFAULT_MONITOR_SEED};
use egi_discord::MassPrecomputed;
use egi_testkit::{choose_evict, PointGen};
use egi_tskit::StreamSession;
use proptest::prelude::*;

/// Parity budget of the segmented backend (see `egi_discord::mass_seg`).
const TOL: f64 = 1e-9;

/// Deterministic unbounded stream: the value at global position `i`
/// (the shared [`PointGen::segmented`] wave).
fn point(i: usize) -> f64 {
    PointGen::segmented().at(i)
}

/// ≤`TOL` in distance or squared distance. `d = √(2m(1 − corr))`
/// amplifies corr round-off without bound as `d → 0`, while
/// `d² = 2m(1 − corr)` is linear in it — so near-zero entries compare
/// in the squared domain and everything else in the plain one.
fn profile_close(a: f64, b: f64) -> bool {
    // Equality first: covers the `+∞` entries of windows with no
    // admissible neighbor, where `a - b` is NaN.
    a == b || (a - b).abs() <= TOL || (a * a - b * b).abs() <= TOL
}

/// For each profile entry of `series`, the two smallest admissible
/// distances (best, second-best), computed on the exact kernel.
fn two_best_admissible(series: &[f64], m: usize, exclusion: usize) -> Vec<(f64, f64)> {
    let mass = MassPrecomputed::new(series, m);
    let count = mass.window_count();
    let mut out = vec![(f64::INFINITY, f64::INFINITY); count];
    for (q, entry) in out.iter_mut().enumerate().take(count) {
        let dp = mass.distance_profile(q);
        for (j, &d) in dp.iter().enumerate() {
            if q.abs_diff(j) <= exclusion {
                continue;
            }
            let (best, second) = *entry;
            if d < best {
                *entry = (d, best);
            } else if d < second {
                *entry = (best, d);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(15))]

    /// The tentpole acceptance property: both backends through the same
    /// random append/evict/step schedule; Exact stays bitwise on the
    /// suffix batch, Segmented stays within tolerance of Exact, and the
    /// index vectors agree wherever the neighbor ranking is separated
    /// by more than 2× the tolerance.
    #[test]
    fn both_backends_agree_across_random_schedules(
        m in 4usize..12,
        seed in 0u64..1_000_000_000,
        ops in prop::collection::vec((0usize..10, 1usize..33), 3..12),
    ) {
        let exc = m / 2;
        let mut exact = StreamingDiscordMonitor::with_seed(m, exc, seed);
        let mut seg =
            StreamingDiscordMonitor::with_backend(m, exc, seed, MassBackend::Segmented);
        let mut appended = 0usize;
        let mut offset = 0usize;
        for &(kind, amount) in &ops {
            match kind {
                0..=4 => {
                    let chunk: Vec<f64> =
                        (0..amount).map(|j| point(appended + j)).collect();
                    exact.append(&chunk);
                    seg.append(&chunk);
                    appended += amount;
                }
                5..=7 => {
                    let c = choose_evict(exact.series_len(), m, amount);
                    exact.evict(c).unwrap();
                    seg.evict(c).unwrap();
                    offset += c;
                }
                _ => {
                    exact.run_for(amount);
                    seg.run_for(amount);
                }
            }
            // The two backends track the same live window…
            prop_assert_eq!(seg.stream_offset(), offset);
            prop_assert_eq!(seg.series_len(), appended - offset);
            prop_assert_eq!(seg.series(), exact.series());
            prop_assert_eq!(seg.window_count(), exact.window_count());
            // …and segmented snapshot evidence stays inside it.
            let snap = seg.snapshot();
            let windows = seg.window_count();
            for &idx in &snap.index {
                prop_assert!(
                    idx == usize::MAX || idx < windows,
                    "index {} outside the {} live windows", idx, windows
                );
            }
        }
        let suffix: Vec<f64> = (offset..appended).map(point).collect();
        let finished_exact = exact.finish();
        let finished_seg = seg.finish();
        prop_assert!(seg.is_current());
        if suffix.len() < m {
            prop_assert!(finished_seg.is_empty());
            return Ok(());
        }
        // Oracle side: bitwise on the suffix batch, as before PR 6.
        let reference = stamp_with_exclusion(&suffix, m, exc);
        prop_assert_eq!(&finished_exact.profile, &reference.profile);
        prop_assert_eq!(&finished_exact.index, &reference.index);
        // Toleranced side: within the parity budget of the oracle.
        prop_assert_eq!(finished_seg.len(), reference.len());
        for i in 0..finished_seg.len() {
            prop_assert!(
                profile_close(finished_seg.profile[i], reference.profile[i]),
                "entry {}: segmented {} vs exact {}",
                i, finished_seg.profile[i], reference.profile[i]
            );
        }
        // Index parity under 2×-tolerance separation of the two best
        // admissible neighbors (computed brute on the exact kernel).
        let ranking = two_best_admissible(&suffix, m, exc);
        for (i, &(best, second)) in ranking.iter().enumerate().take(finished_seg.len()) {
            if second - best > 2.0 * TOL && best > 1e-6 {
                prop_assert_eq!(
                    finished_seg.index[i], reference.index[i],
                    "entry {}: separated by {:e} but indices differ",
                    i, second - best
                );
            }
        }
    }

    /// The segmented batch path against the crate's executable spec
    /// (`stamp_per_query_fft`, the per-query-FFT STAMP): ≤1e-9 under
    /// the distance-or-squared convention for random series shapes.
    #[test]
    fn segmented_batch_matches_executable_spec(
        m in 4usize..16,
        n in 40usize..220,
        phase in 0usize..1000,
    ) {
        prop_assume!(n > 2 * m);
        let series: Vec<f64> = (0..n).map(|i| point(i + phase)).collect();
        let exc = m / 2;
        let spec = stamp_per_query_fft(&series, m, exc);
        let seg = egi_discord::stamp_with_backend(
            &series, m, exc, MassBackend::Segmented,
        );
        prop_assert_eq!(seg.len(), spec.len());
        for i in 0..seg.len() {
            prop_assert!(
                profile_close(seg.profile[i], spec.profile[i]),
                "entry {}: segmented {} vs spec {}",
                i, seg.profile[i], spec.profile[i]
            );
        }
    }

    /// Invalid evictions are rejected atomically on the segmented
    /// backend: the error names the violation and no state moves — the
    /// same contract the exact backend pins in the eviction harness.
    #[test]
    fn segmented_invalid_evictions_are_rejected_atomically(
        m in 4usize..12,
        len in 1usize..70,
        over in 1usize..20,
        budget in 0usize..30,
    ) {
        let mut monitor = StreamingDiscordMonitor::with_backend(
            m, m / 2, DEFAULT_MONITOR_SEED, MassBackend::Segmented,
        );
        let chunk: Vec<f64> = (0..len).map(point).collect();
        monitor.append(&chunk);
        monitor.run_for(budget);
        let processed = monitor.processed();
        let snap = monitor.snapshot();

        prop_assert_eq!(
            monitor.evict(len + over),
            Err(EvictError::PastEnd { requested: len + over, available: len })
        );
        for remaining in 1..m.min(len + 1) {
            let c = len - remaining;
            if c == 0 {
                continue;
            }
            prop_assert_eq!(
                monitor.evict(c),
                Err(EvictError::BelowMinimum { remaining, minimum: m })
            );
        }
        prop_assert_eq!(monitor.series_len(), len);
        prop_assert_eq!(monitor.stream_offset(), 0);
        prop_assert_eq!(monitor.processed(), processed);
        let after = monitor.snapshot();
        prop_assert_eq!(&after.profile, &snap.profile);
        prop_assert_eq!(&after.index, &snap.index);
    }
}
