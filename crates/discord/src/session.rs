//! [`StreamSession`] wiring for [`StreamingDiscordMonitor`]: the trait
//! impl through which generic drivers — e.g. an `egi-serve` fleet —
//! schedule the monitor one [`step`] unit at a time. The budgeted
//! drivers (`run_for`, `run_until`, `run_for_duration`) are the
//! trait's provided methods; callers bring [`StreamSession`] into
//! scope to use them.
//!
//! [`step`]: StreamingDiscordMonitor::step

use egi_tskit::evict::EvictError;
use egi_tskit::session::StreamSession;

use crate::profile::MatrixProfile;
use crate::streaming::StreamingDiscordMonitor;

/// The shared streaming-session contract: every method forwards to the
/// inherent implementation, so driving the monitor through the trait
/// (e.g. from an `egi-serve` fleet) is bit-identical to calling it
/// directly. One refresh *unit* is one MASS query.
impl StreamSession for StreamingDiscordMonitor {
    type Snapshot = MatrixProfile;
    type Report = MatrixProfile;

    fn append(&mut self, points: &[f64]) {
        StreamingDiscordMonitor::append(self, points);
    }

    fn step(&mut self) -> bool {
        StreamingDiscordMonitor::step(self)
    }

    fn evict(&mut self, count: usize) -> Result<(), EvictError> {
        StreamingDiscordMonitor::evict(self, count)
    }

    fn retain_last(&mut self, n: usize) -> Result<usize, EvictError> {
        StreamingDiscordMonitor::retain_last(self, n)
    }

    fn series_len(&self) -> usize {
        StreamingDiscordMonitor::series_len(self)
    }

    fn pending_units(&self) -> usize {
        self.pending()
    }

    fn stream_offset(&self) -> usize {
        StreamingDiscordMonitor::stream_offset(self)
    }

    fn is_current(&self) -> bool {
        StreamingDiscordMonitor::is_current(self)
    }

    fn snapshot(&self) -> MatrixProfile {
        StreamingDiscordMonitor::snapshot(self)
    }

    fn finish(&mut self) -> MatrixProfile {
        StreamingDiscordMonitor::finish(self)
    }
}
