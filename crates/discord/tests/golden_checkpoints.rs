//! Golden-fixture tests for the monitor checkpoint format.
//!
//! The files under `tests/fixtures/` are checkpoints written by the
//! code as it was when the format was introduced (or last versioned).
//! They are **committed bytes**: these tests prove that today's code
//! still loads yesterday's checkpoints and resumes them onto the same
//! bit-identical finish. A failure here means the on-disk format
//! changed without a version bump — bump the payload version and add a
//! new fixture instead of regenerating the old one.
//!
//! To (re)generate after an intentional format change:
//!
//! ```text
//! cargo test -p egi-discord --test golden_checkpoints -- --ignored
//! ```

#![forbid(unsafe_code)]

use egi_discord::mass_seg::MassBackend;
use egi_discord::stamp::stamp_with_exclusion;
use egi_discord::streaming::{Checkpoint, StreamingDiscordMonitor};
use egi_testkit::PointGen;
use egi_tskit::StreamSession;
use std::path::PathBuf;

const M: usize = 6;
const EXC: usize = 3;
const SEED: u64 = 41;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The canonical mid-stream session the fixtures were saved from:
/// 80 points appended in uneven chunks, 12 evicted, partial progress.
/// Returns the monitor exactly at the checkpoint cut.
fn canonical_monitor(backend: MassBackend) -> StreamingDiscordMonitor {
    let gen = PointGen::discord();
    let mut monitor = StreamingDiscordMonitor::with_backend(M, EXC, SEED, backend);
    monitor.append(&gen.slice(0..30));
    monitor.run_for(9);
    monitor.append(&gen.slice(30..47));
    monitor.evict(12).unwrap();
    monitor.run_for(4);
    monitor.append(&gen.slice(47..80));
    monitor
}

/// What any restore of the canonical session must finish to: the
/// remaining schedule is empty, so it is the batch profile of the
/// surviving suffix `12..80`.
fn assert_canonical_finish(monitor: &mut StreamingDiscordMonitor, backend: MassBackend) {
    let gen = PointGen::discord();
    let finished = monitor.finish();
    let mut twin = canonical_monitor(backend);
    let expected = twin.finish();
    assert_eq!(finished.profile, expected.profile);
    assert_eq!(finished.index, expected.index);
    if backend == MassBackend::Exact {
        let reference = stamp_with_exclusion(&gen.slice(12..80), M, EXC);
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
    }
}

#[test]
fn golden_exact_checkpoint_still_loads() {
    let bytes = std::fs::read(fixture_path("monitor_exact_v1.ckpt"))
        .expect("fixture missing — run the ignored regen test and commit the file");
    let mut restored = StreamingDiscordMonitor::from_checkpoint_bytes(&bytes)
        .expect("golden exact checkpoint no longer loads: format broke without a version bump");
    assert_eq!(restored.series_len(), 68);
    assert_eq!(restored.stream_offset(), 12);
    assert_canonical_finish(&mut restored, MassBackend::Exact);
}

#[test]
fn golden_segmented_checkpoint_still_loads() {
    let bytes = std::fs::read(fixture_path("monitor_segmented_v1.ckpt"))
        .expect("fixture missing — run the ignored regen test and commit the file");
    let mut restored = StreamingDiscordMonitor::from_checkpoint_bytes(&bytes)
        .expect("golden segmented checkpoint no longer loads: format broke without a version bump");
    assert_eq!(restored.series_len(), 68);
    assert_eq!(restored.stream_offset(), 12);
    assert_canonical_finish(&mut restored, MassBackend::Segmented);
}

/// The writer side is still byte-deterministic: saving the canonical
/// session today produces exactly the committed fixture. This is a
/// stronger pin than load-compatibility — it will flag *any* encoding
/// change, which is the early warning to bump a payload version.
#[test]
fn canonical_checkpoint_bytes_are_stable() {
    for (backend, name) in [
        (MassBackend::Exact, "monitor_exact_v1.ckpt"),
        (MassBackend::Segmented, "monitor_segmented_v1.ckpt"),
    ] {
        let committed = std::fs::read(fixture_path(name))
            .expect("fixture missing — run the ignored regen test and commit the file");
        let fresh = canonical_monitor(backend).checkpoint_bytes().unwrap();
        assert_eq!(
            fresh, committed,
            "{name}: today's encoder no longer reproduces the committed bytes"
        );
    }
}

#[test]
#[ignore = "regenerates the committed fixtures; run only after an intentional format change"]
fn regenerate_golden_fixtures() {
    let dir = fixture_path("");
    std::fs::create_dir_all(&dir).unwrap();
    for (backend, name) in [
        (MassBackend::Exact, "monitor_exact_v1.ckpt"),
        (MassBackend::Segmented, "monitor_segmented_v1.ckpt"),
    ] {
        let bytes = canonical_monitor(backend).checkpoint_bytes().unwrap();
        std::fs::write(fixture_path(name), &bytes).unwrap();
    }
}
