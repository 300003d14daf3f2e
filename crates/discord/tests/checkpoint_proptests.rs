//! Property harness for checkpoint/restore on the streaming discord
//! monitor (the PR 8 persistence contract).
//!
//! Two families of properties:
//!
//! * **Round-trip at every prefix.** For random append/evict/step
//!   schedules on *both* MASS backends, a checkpoint taken after every
//!   prefix of the schedule, restored, and driven through the remaining
//!   ops must `finish()` **bit-identical** to the uninterrupted run —
//!   persistence is observationally invisible at any cut point.
//!
//! * **Corruption is loud.** Truncating the checkpoint at (and around)
//!   every section boundary must return a typed [`CheckpointError`],
//!   and flipping any bit must either return a typed error or restore a
//!   session whose `finish()` is still bit-identical — never a panic,
//!   never a silently-wrong session.

#![forbid(unsafe_code)]

use egi_discord::mass_seg::MassBackend;
use egi_discord::streaming::{Checkpoint, CheckpointError, StreamingDiscordMonitor};
use egi_testkit::{choose_evict, decode_op, PointGen, ScheduleOp, ShadowSuffix};
use egi_tskit::checkpoint::list_sections;
use egi_tskit::StreamSession;
use proptest::prelude::*;

/// Applies one decoded schedule step to a monitor, advancing the shadow
/// cursor. Eviction amounts are narrowed to valid cuts from the live
/// length, so replaying the same ops against equal state is
/// deterministic.
fn drive(
    monitor: &mut StreamingDiscordMonitor,
    shadow: &mut ShadowSuffix,
    gen: &PointGen,
    m: usize,
    op: ScheduleOp,
) {
    match op {
        ScheduleOp::Append(n) => {
            let chunk = shadow.next_chunk(gen, n);
            monitor.append(&chunk);
        }
        ScheduleOp::Evict(amount) => {
            let c = choose_evict(monitor.series_len(), m, amount);
            monitor.evict(c).unwrap();
            shadow.evict(c);
        }
        ScheduleOp::Run(budget) => {
            monitor.run_for(budget);
        }
    }
}

/// Drives a fresh monitor through `ops[..upto]` and returns it with its
/// shadow cursor.
fn replay_prefix(
    m: usize,
    seed: u64,
    backend: MassBackend,
    gen: &PointGen,
    ops: &[ScheduleOp],
    upto: usize,
) -> (StreamingDiscordMonitor, ShadowSuffix) {
    let exc = m / 2;
    let mut monitor = StreamingDiscordMonitor::with_backend(m, exc, seed, backend);
    let mut shadow = ShadowSuffix::new();
    for &op in &ops[..upto] {
        drive(&mut monitor, &mut shadow, gen, m, op);
    }
    (monitor, shadow)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole acceptance property: checkpoint-at-any-point. For
    /// every prefix of a random schedule, save → restore → replay the
    /// rest must finish bit-identical to the uninterrupted run, on both
    /// backends.
    #[test]
    fn checkpoint_at_every_prefix_finishes_bit_identical(
        m in 4usize..10,
        seed in 0u64..1_000_000_000,
        backend_pick in 0usize..2,
        raw_ops in prop::collection::vec((0usize..10, 1usize..33), 2..8),
    ) {
        let backend = if backend_pick == 0 {
            MassBackend::Exact
        } else {
            MassBackend::Segmented
        };
        let gen = PointGen::discord();
        let ops: Vec<ScheduleOp> =
            raw_ops.iter().map(|&(k, a)| decode_op(k, a)).collect();

        // The uninterrupted run is the oracle.
        let (mut oracle, shadow) =
            replay_prefix(m, seed, backend, &gen, &ops, ops.len());
        let expected = oracle.finish();
        prop_assert_eq!(oracle.series_len(), shadow.live());

        for cut in 0..=ops.len() {
            let (prefix_monitor, _) =
                replay_prefix(m, seed, backend, &gen, &ops, cut);
            let bytes = prefix_monitor.checkpoint_bytes().unwrap();
            let mut restored =
                StreamingDiscordMonitor::from_checkpoint_bytes(&bytes).unwrap();
            // The restored session is indistinguishable from the one it
            // was saved from…
            prop_assert_eq!(restored.series_len(), prefix_monitor.series_len());
            prop_assert_eq!(restored.stream_offset(), prefix_monitor.stream_offset());
            prop_assert_eq!(restored.processed(), prefix_monitor.processed());
            // …and replaying the remaining schedule lands on the
            // uninterrupted finish, bit for bit.
            let mut resumed = shadow_at(&gen, &restored);
            for &op in &ops[cut..] {
                drive(&mut restored, &mut resumed, &gen, m, op);
            }
            let finished = restored.finish();
            prop_assert_eq!(&finished.profile, &expected.profile,
                "profile diverged after restore at prefix {}", cut);
            prop_assert_eq!(&finished.index, &expected.index,
                "index diverged after restore at prefix {}", cut);
        }
    }

    /// Truncation at and around every section boundary is a typed
    /// error; any single bit flip is a typed error or an
    /// observationally-identical session — never a panic.
    #[test]
    fn corrupted_checkpoints_fail_loud_never_wrong(
        m in 4usize..10,
        seed in 0u64..1_000_000_000,
        backend_pick in 0usize..2,
        raw_ops in prop::collection::vec((0usize..10, 1usize..33), 2..7),
        flip_picks in prop::collection::vec((0usize..4096, 0u8..8), 1..12),
    ) {
        let backend = if backend_pick == 0 {
            MassBackend::Exact
        } else {
            MassBackend::Segmented
        };
        let gen = PointGen::discord();
        let ops: Vec<ScheduleOp> =
            raw_ops.iter().map(|&(k, a)| decode_op(k, a)).collect();
        let (monitor, _) =
            replay_prefix(m, seed, backend, &gen, &ops, ops.len());
        let bytes = monitor.checkpoint_bytes().unwrap();
        let expected = {
            let mut twin =
                StreamingDiscordMonitor::from_checkpoint_bytes(&bytes).unwrap();
            twin.finish()
        };

        // Truncation at every structural boundary (plus one byte to
        // either side) must surface as a typed error.
        let sections = list_sections(&bytes).unwrap();
        let mut cuts: Vec<usize> = (0..=16).collect(); // inside the header
        for s in &sections {
            for at in [s.start, s.payload_start, s.end] {
                cuts.extend([at.saturating_sub(1), at, at + 1]);
            }
        }
        for cut in cuts {
            if cut >= bytes.len() {
                continue;
            }
            let err = StreamingDiscordMonitor::from_checkpoint_bytes(&bytes[..cut]);
            prop_assert!(
                err.is_err(),
                "truncation to {} of {} bytes loaded successfully", cut, bytes.len()
            );
        }

        // Bit flips: typed error, or a session whose finish is still
        // bit-identical (flips in ignored framing slack may load).
        for &(pos, bit) in &flip_picks {
            let pos = pos % bytes.len();
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << bit;
            match StreamingDiscordMonitor::from_checkpoint_bytes(&bad) {
                Err(_) => {}
                Ok(mut restored) => {
                    let finished = restored.finish();
                    prop_assert_eq!(&finished.profile, &expected.profile,
                        "flip at byte {} bit {} restored a different session", pos, bit);
                    prop_assert_eq!(&finished.index, &expected.index);
                }
            }
        }

        // Wrong magic and wrong container version are the dedicated
        // error variants, not Corrupt.
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        prop_assert!(matches!(
            StreamingDiscordMonitor::from_checkpoint_bytes(&bad_magic),
            Err(CheckpointError::BadMagic)
        ));
        let mut bad_version = bytes.clone();
        bad_version[8..12].copy_from_slice(&99u32.to_le_bytes());
        prop_assert!(matches!(
            StreamingDiscordMonitor::from_checkpoint_bytes(&bad_version),
            Err(CheckpointError::UnsupportedFormat { found: 99, .. })
        ));
    }
}

/// A shadow cursor consistent with a restored monitor: the restored
/// session knows its global offset and live length, which is all the
/// replay needs to keep generating the same stream.
fn shadow_at(_gen: &PointGen, monitor: &StreamingDiscordMonitor) -> ShadowSuffix {
    ShadowSuffix {
        appended: monitor.stream_offset() + monitor.series_len(),
        offset: monitor.stream_offset(),
    }
}
