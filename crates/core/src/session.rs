//! [`StreamSession`] wiring for [`StreamingEnsembleDetector`]: the trait
//! impl through which generic drivers — e.g. an `egi-serve` fleet —
//! schedule the detector one [`step`] unit at a time. The budgeted
//! drivers (`run_for`, `run_until`, `run_for_duration`) are the
//! trait's provided methods; callers bring [`StreamSession`] into
//! scope to use them.
//!
//! [`step`]: StreamingEnsembleDetector::step

use egi_tskit::evict::EvictError;
use egi_tskit::session::StreamSession;

use crate::density::RuleDensityCurve;
use crate::detector::AnomalyReport;
use crate::streaming::StreamingEnsembleDetector;

/// The shared streaming-session contract: every method forwards to the
/// inherent implementation, so driving the detector through the trait
/// (e.g. from an `egi-serve` fleet) is bit-identical to calling it
/// directly. One refresh *unit* is one member refresh.
///
/// The trait's parameterless [`finish`](StreamSession::finish) reports
/// **every** non-overlapping anomaly candidate (the inherent
/// [`finish`](StreamingEnsembleDetector::finish) with
/// `k = window_count()` —
/// [`rank_anomalies`](crate::detector::rank_anomalies) never yields
/// more candidates than windows), so generic drivers lose no
/// information; callers wanting a top-`k` cut keep using the inherent
/// method.
impl StreamSession for StreamingEnsembleDetector {
    type Snapshot = RuleDensityCurve;
    type Report = AnomalyReport;

    fn append(&mut self, points: &[f64]) {
        StreamingEnsembleDetector::append(self, points);
    }

    fn step(&mut self) -> bool {
        StreamingEnsembleDetector::step(self)
    }

    fn evict(&mut self, count: usize) -> Result<(), EvictError> {
        StreamingEnsembleDetector::evict(self, count)
    }

    fn retain_last(&mut self, n: usize) -> Result<usize, EvictError> {
        StreamingEnsembleDetector::retain_last(self, n)
    }

    fn series_len(&self) -> usize {
        StreamingEnsembleDetector::series_len(self)
    }

    fn pending_units(&self) -> usize {
        self.pending_members()
    }

    fn stream_offset(&self) -> usize {
        StreamingEnsembleDetector::stream_offset(self)
    }

    fn is_current(&self) -> bool {
        StreamingEnsembleDetector::is_current(self)
    }

    fn snapshot(&self) -> RuleDensityCurve {
        StreamingEnsembleDetector::snapshot(self)
    }

    fn finish(&mut self) -> AnomalyReport {
        let k = self.window_count();
        StreamingEnsembleDetector::finish(self, k)
    }
}
