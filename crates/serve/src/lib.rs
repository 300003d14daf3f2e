//! # egi-serve — multi-stream fleet runtime
//!
//! Everything below `egi-serve` drives exactly one monitor over one
//! series. This crate is the serving layer the ROADMAP's "millions of
//! users" north star asks for: a [`Fleet`] owns many independent
//! streaming sessions — any implementor of
//! [`egi_tskit::session::StreamSession`], so both
//! `egi_discord::streaming::StreamingDiscordMonitor` and
//! `egi_core::streaming::StreamingEnsembleDetector` plug in unchanged —
//! keyed by stream id, and multiplexes ingest and refresh across them:
//!
//! * **Batched ingest front door** — [`Fleet::ingest`] buffers small
//!   appends per stream and [`Fleet::flush_all`] / [`Fleet::tick`]
//!   coalesces each stream's buffer into **one** append per tick. The
//!   monitors' amortization analysis (PR 3/5) says callers should
//!   batch appends and evictions; the server now does it for them.
//! * **Fair-share refresh scheduler** — [`Fleet::refresh`] spreads one
//!   global [`Deadline`](egi_tskit::Deadline) across every dirty
//!   stream, round-robin over single [`step()`] units, with a
//!   starvation bound: every dirty stream gets ≥ 1 unit per full
//!   rotation (see [`fleet`] module docs for the scheduling model).
//! * **Per-stream memory budgets** — [`Fleet::retain_last`] installs
//!   the monitors' sliding-window retention per stream.
//! * **Parity, one level up** — for every interleaving of per-stream
//!   appends, evictions, and budgeted refreshes, each stream's
//!   [`finish`](Fleet::finish) is **bit-identical** to a standalone
//!   monitor fed the same schedule (property-tested across seeds,
//!   chunk sizes, and rayon worker counts in
//!   `tests/fleet_proptests.rs`). The fleet adds scheduling, never
//!   arithmetic: it only calls the session methods the standalone
//!   caller would.
//!
//! [`step()`]: egi_tskit::session::StreamSession::step
//!
//! # Quickstart
//!
//! ```
//! use egi_discord::streaming::StreamingDiscordMonitor;
//! use egi_serve::Fleet;
//! use egi_tskit::Deadline;
//!
//! let mut fleet: Fleet<StreamingDiscordMonitor> = Fleet::new();
//! for id in 0..3u64 {
//!     fleet.create(id, StreamingDiscordMonitor::new(8)).unwrap();
//! }
//!
//! // Live traffic arrives in dribbles; the front door coalesces them.
//! for t in 0..96usize {
//!     for id in 0..3u64 {
//!         let x = ((t * 3 + id as usize) as f64 * 0.21).sin();
//!         fleet.ingest(id, &[x]).unwrap();
//!     }
//! }
//! // One tick: one append per stream, then a shared refresh budget
//! // spread fairly across every dirty stream.
//! let report = fleet.tick(Deadline::queries(120));
//! assert_eq!(report.flushed_points, 3 * 96);
//! assert!(report.units <= 120);
//!
//! // Each stream's finish is bit-identical to a standalone monitor
//! // fed the same schedule.
//! let profile = fleet.finish(1).unwrap();
//! let mut standalone = StreamingDiscordMonitor::new(8);
//! let points: Vec<f64> = (0..96).map(|t| ((t * 3 + 1) as f64 * 0.21).sin()).collect();
//! standalone.append(&points);
//! let reference = standalone.finish();
//! assert_eq!(profile.profile, reference.profile);
//! assert_eq!(profile.index, reference.index);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fleet;

pub use fleet::{Fleet, FleetError, FleetObs, StreamId, TickReport};
