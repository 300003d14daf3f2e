//! Property harness for checkpoint/restore on the fleet runtime (the
//! PR 8 persistence contract, one level up).
//!
//! * **Round-trip at every prefix.** Random multi-stream schedules —
//!   create / buffered ingest / direct append / evict / budgeted
//!   refresh / full tick over 2–8 workers — with a checkpoint taken
//!   after every prefix. The restored fleet must replay the remaining
//!   schedule to a `finish_all` **bit-identical** to the uninterrupted
//!   run: per-stream session state, undrained inboxes, and the
//!   fair-share rotation order all survive the round trip.
//!
//! * **Corruption is loud.** Truncation at every section boundary —
//!   including inside the *nested* per-session containers — is a typed
//!   [`CheckpointError`]; a bit flip is a typed error or an
//!   observationally-identical fleet — never a panic.

#![forbid(unsafe_code)]

use egi_discord::streaming::StreamingDiscordMonitor;
use egi_serve::fleet::{Checkpoint, CheckpointError};
use egi_serve::{Fleet, StreamId};
use egi_testkit::{choose_evict, PointGen};
use egi_tskit::checkpoint::list_sections;
use egi_tskit::Deadline;
use proptest::prelude::*;

/// Applies one `(who, kind, amount)` schedule step. Each stream draws
/// from its own [`PointGen::fleet`] wave at its own cursor, so the
/// replayed suffix regenerates the exact same chunks.
fn drive(
    fleet: &mut Fleet<StreamingDiscordMonitor>,
    cursors: &mut [usize],
    streams: u64,
    m: usize,
    (who, kind, amount): (u64, usize, usize),
) {
    let id = who % streams;
    let gen = PointGen::fleet(id);
    let cursor = &mut cursors[id as usize];
    match kind {
        // Buffered ingest: points park in the inbox until a flush.
        0..=2 => {
            let chunk: Vec<f64> = (0..amount).map(|j| gen.at(*cursor + j)).collect();
            fleet.ingest(id, &chunk).unwrap();
            *cursor += amount;
        }
        // Direct append (flushes the inbox first).
        3..=4 => {
            let chunk: Vec<f64> = (0..amount).map(|j| gen.at(*cursor + j)).collect();
            fleet.append_to(id, &chunk).unwrap();
            *cursor += amount;
        }
        // Eviction, narrowed to a valid cut of the flushed length
        // (evict_from flushes the inbox before cutting).
        5..=6 => {
            let live = fleet.session(id).unwrap().series_len() + fleet.buffered_for(id).unwrap();
            let c = choose_evict(live, m, amount);
            fleet.evict_from(id, c).unwrap();
        }
        // Budgeted fair-share refresh across all dirty streams.
        7..=8 => {
            fleet.refresh(Deadline::queries(amount));
        }
        // Full tick: flush every inbox, then refresh.
        _ => {
            fleet.tick(Deadline::queries(amount));
        }
    }
}

/// Drives a fresh fleet through `ops[..upto]`.
fn replay_prefix(
    streams: u64,
    m: usize,
    seed: u64,
    ops: &[(u64, usize, usize)],
    upto: usize,
) -> (Fleet<StreamingDiscordMonitor>, Vec<usize>) {
    let exc = m / 2;
    let mut fleet: Fleet<StreamingDiscordMonitor> = Fleet::new();
    for id in 0..streams {
        fleet
            .create(id, StreamingDiscordMonitor::with_seed(m, exc, seed))
            .unwrap();
    }
    let mut cursors = vec![0usize; streams as usize];
    for &op in &ops[..upto] {
        drive(&mut fleet, &mut cursors, streams, m, op);
    }
    (fleet, cursors)
}

/// `finish_all` outcomes compared field by field (profiles are bit
/// streams; equality here is the whole contract).
fn assert_same_finish(
    a: Vec<(StreamId, egi_discord::MatrixProfile)>,
    b: Vec<(StreamId, egi_discord::MatrixProfile)>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for ((id_a, fin_a), (id_b, fin_b)) in a.iter().zip(&b) {
        prop_assert_eq!(id_a, id_b);
        prop_assert_eq!(&fin_a.profile, &fin_b.profile, "stream {} profile", id_a);
        prop_assert_eq!(&fin_a.index, &fin_b.index, "stream {} index", id_a);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Checkpoint-at-any-point, fleet-wide: for every prefix of a
    /// random multi-stream schedule over 2–8 workers, save → restore →
    /// replay the rest lands on the uninterrupted `finish_all`, bit
    /// for bit — and the restored scheduler state (pending work,
    /// inboxes, dirty set) matches the fleet it was saved from.
    #[test]
    fn checkpoint_at_every_prefix_finishes_bit_identical(
        streams in 2u64..9,
        m in 4usize..9,
        seed in 0u64..1_000_000_000,
        ops in prop::collection::vec((0u64..8, 0usize..10, 1usize..25), 3..10),
    ) {
        let (mut oracle, _) = replay_prefix(streams, m, seed, &ops, ops.len());
        let expected = oracle.finish_all();

        for cut in 0..=ops.len() {
            let (prefix_fleet, cursors) = replay_prefix(streams, m, seed, &ops, cut);
            let bytes = prefix_fleet.checkpoint_bytes().unwrap();
            let mut restored =
                Fleet::<StreamingDiscordMonitor>::from_checkpoint_bytes(&bytes).unwrap();
            // The restored scheduler is indistinguishable from the one
            // it was saved from…
            prop_assert_eq!(restored.len(), prefix_fleet.len());
            prop_assert_eq!(restored.dirty_count(), prefix_fleet.dirty_count());
            prop_assert_eq!(restored.pending_units(), prefix_fleet.pending_units());
            for id in 0..streams {
                prop_assert_eq!(
                    restored.buffered_for(id).unwrap(),
                    prefix_fleet.buffered_for(id).unwrap(),
                    "stream {} inbox", id
                );
                prop_assert_eq!(
                    restored.session(id).unwrap().series_len(),
                    prefix_fleet.session(id).unwrap().series_len()
                );
            }
            // …and replaying the remaining schedule converges on the
            // uninterrupted outcome.
            let mut resumed = cursors;
            for &op in &ops[cut..] {
                drive(&mut restored, &mut resumed, streams, m, op);
            }
            assert_same_finish(restored.finish_all(), expected.clone())?;
        }
    }

    /// Truncation at every section boundary — outer framing and the
    /// nested per-session containers alike — is a typed error; bit
    /// flips are typed errors or identical fleets; never a panic.
    #[test]
    fn corrupted_checkpoints_fail_loud_never_wrong(
        streams in 2u64..9,
        m in 4usize..9,
        seed in 0u64..1_000_000_000,
        ops in prop::collection::vec((0u64..8, 0usize..10, 1usize..25), 3..9),
        flip_picks in prop::collection::vec((0usize..1 << 20, 0u8..8), 1..10),
    ) {
        let (fleet, _) = replay_prefix(streams, m, seed, &ops, ops.len());
        let bytes = fleet.checkpoint_bytes().unwrap();
        let expected = Fleet::<StreamingDiscordMonitor>::from_checkpoint_bytes(&bytes)
            .unwrap()
            .finish_all();

        let sections = list_sections(&bytes).unwrap();
        let mut cuts: Vec<usize> = (0..=16).collect();
        for s in &sections {
            for at in [s.start, s.payload_start, s.end] {
                cuts.extend([at.saturating_sub(1), at, at + 1]);
            }
            // Halfway into each payload lands inside the nested
            // per-session container for STR1 sections.
            cuts.push(s.payload_start + s.payload_len / 2);
        }
        for cut in cuts {
            if cut >= bytes.len() {
                continue;
            }
            prop_assert!(
                Fleet::<StreamingDiscordMonitor>::from_checkpoint_bytes(&bytes[..cut])
                    .is_err(),
                "truncation to {} of {} bytes loaded successfully", cut, bytes.len()
            );
        }

        for &(pos, bit) in &flip_picks {
            let pos = pos % bytes.len();
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << bit;
            match Fleet::<StreamingDiscordMonitor>::from_checkpoint_bytes(&bad) {
                Err(_) => {}
                Ok(mut restored) => {
                    assert_same_finish(restored.finish_all(), expected.clone())?;
                }
            }
        }

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        prop_assert!(matches!(
            Fleet::<StreamingDiscordMonitor>::from_checkpoint_bytes(&bad_magic),
            Err(CheckpointError::BadMagic)
        ));
        let mut bad_version = bytes.clone();
        bad_version[8..12].copy_from_slice(&42u32.to_le_bytes());
        prop_assert!(matches!(
            Fleet::<StreamingDiscordMonitor>::from_checkpoint_bytes(&bad_version),
            Err(CheckpointError::UnsupportedFormat { found: 42, .. })
        ));
    }
}
