//! The per-layer report every traced run prints.
//!
//! Each workload fills in the layers it loads; a layer a workload never
//! touches reports zero, so every traced run prints the same metric set.
//! The time-valued layer fields below are *self-times* and, together
//! with the residual [`LayerReport::unattributed_ms`], sum exactly to the
//! traced end-to-end time [`LayerReport::e2e`] — the residual is printed,
//! never hidden.

use std::time::Duration;

use crate::{ms, quantile, Outcome};

/// Layer self-times, work counts and ratios of one traced run.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// Traced end-to-end time the self-times sum to.
    pub e2e: Duration,

    /// Prefix statistics + PAA coefficient rows.
    pub paa: Duration,
    /// SAX symbols + numerosity reduction.
    pub discretize: Duration,
    /// Word interning.
    pub intern: Duration,
    /// Batch Sequitur (`induce`).
    pub induce: Duration,
    /// Online Sequitur (`push` + `take_deltas`).
    pub push: Duration,
    /// Density build from a grammar.
    pub density_build: Duration,
    /// Density delta fold (`apply_delta`).
    pub delta_fold: Duration,
    /// Ensemble combine (`combine_curves`, including the curve copies a
    /// snapshot makes).
    pub combine: Duration,
    /// Top-k ranking (`rank_anomalies`).
    pub rank: Duration,
    /// Session append bookkeeping (series + statistics growth).
    pub append: Duration,
    /// Session eviction (series drain, statistics rebase, PAA rebuild,
    /// member reset).
    pub evict: Duration,
    /// `Fleet::ingest`.
    pub ingest: Duration,
    /// MASS spectrum (re)builds: `MassPrecomputed::new` / `append` /
    /// `evict_front`.
    pub retransform: Duration,
    /// `distance_profile_into`.
    pub mass_query: Duration,
    /// Matrix-profile fold under `profile::improves`.
    pub fold: Duration,
    /// Discord snapshot + `discords(k)`.
    pub discords: Duration,

    /// Per-member refresh times (ms).
    pub steps_ms: Vec<f64>,
    /// Per-tick `Fleet::tick` times (ms).
    pub ticks_ms: Vec<f64>,
    /// Open-loop lateness per tick (ms).
    pub lag_ms: Vec<f64>,

    /// Sliding windows discretized.
    pub windows: u64,
    /// Tokens kept by numerosity reduction.
    pub tokens: u64,
    /// Distinct PAA streams built.
    pub paa_streams: u64,
    /// Ensemble members run.
    pub members: u64,
    /// Tokens fed to Sequitur.
    pub tokens_pushed: u64,
    /// Grammar rules at the end of each member's run.
    pub rules: u64,
    /// Windows re-discretized because an eviction reset their member.
    pub replay_windows: u64,
    /// `egi_core_density_deltas_applied_total` over the timed phase.
    pub deltas_applied: u64,
    /// `egi_core_density_delta_coverage_points_total` over the phase.
    pub delta_coverage: u64,
    /// `egi_core_density_rebuild_equiv_points_total` over the phase.
    pub rebuild_equiv: u64,
    /// Fleet refresh units over the phase.
    pub units: u64,
    /// Fleet ingest calls over the phase.
    pub ingest_calls: u64,
    /// Fleet coalesced appends over the phase.
    pub coalesced_appends: u64,
    /// p99 upper bound of `egi_fleet_wait_for_turn_nanos` (ms).
    pub wait_for_turn_p99_ms: f64,
    /// Checkpoint size.
    pub checkpoint_bytes: u64,
    /// Live points the checkpoint covers.
    pub checkpoint_points: u64,
    /// `Fleet::checkpoint_bytes`.
    pub checkpoint_save: Duration,
    /// `Fleet::from_checkpoint_bytes`.
    pub checkpoint_load: Duration,
    /// `egi_mass_exact_queries_total` over the phase.
    pub mass_queries: u64,
    /// `egi_mass_exact_retransforms_total` over the phase.
    pub retransforms: u64,
    /// Windows that arrived during the phase.
    pub new_windows: u64,
    /// FFT plan-cache hits / misses over the phase.
    pub plan_hits: u64,
    /// See `plan_hits`.
    pub plan_misses: u64,
    /// Extra work of the traced run over the untraced one, as a share of
    /// the untraced work.
    pub tracing_overhead: f64,
    /// Median calibration-kernel time of the run (ms): the host's speed
    /// while the layers were timed (`crate::HostSpeed`).
    pub calibration_ms: f64,
}

impl LayerReport {
    /// Sum of the time-valued layer self-times.
    pub fn attributed(&self) -> Duration {
        self.paa
            + self.discretize
            + self.intern
            + self.induce
            + self.push
            + self.density_build
            + self.delta_fold
            + self.combine
            + self.rank
            + self.append
            + self.evict
            + self.ingest
            + self.retransform
            + self.mass_query
            + self.fold
            + self.discords
    }

    /// What the layers do not explain: `e2e − attributed` (may be
    /// negative when the layers were timed on a replica that ran slower
    /// than the fleet it mirrors).
    pub fn unattributed_ms(&self) -> f64 {
        ms(self.e2e) - ms(self.attributed())
    }

    /// Prints every per-layer metric.
    pub fn emit(&self, out: &mut Outcome) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.put("trace.e2e_ms", ms(self.e2e), "ms");
        out.put("sax.paa_ms", ms(self.paa), "ms");
        out.put("sax.discretize_ms", ms(self.discretize), "ms");
        out.put("sax.windows", self.windows as f64, "count");
        out.put("sax.tokens", self.tokens as f64, "count");
        out.put(
            "sax.nr_keep_ratio",
            ratio(self.tokens, self.windows),
            "frac",
        );
        out.put(
            "sax.paa_streams_per_member",
            ratio(self.paa_streams, self.members),
            "frac",
        );
        out.put("core.intern_ms", ms(self.intern), "ms");
        out.put("sequitur.induce_ms", ms(self.induce), "ms");
        out.put("sequitur.push_ms", ms(self.push), "ms");
        out.put("sequitur.tokens_pushed", self.tokens_pushed as f64, "count");
        out.put("sequitur.rules", self.rules as f64, "count");
        out.put("core.density_build_ms", ms(self.density_build), "ms");
        out.put("core.delta_fold_ms", ms(self.delta_fold), "ms");
        out.put("core.deltas_applied", self.deltas_applied as f64, "count");
        out.put(
            "core.delta_coverage_points",
            self.delta_coverage as f64,
            "count",
        );
        out.put(
            "core.rebuild_equiv_points",
            self.rebuild_equiv as f64,
            "count",
        );
        out.put(
            "core.delta_coverage_per_rebuild",
            ratio(self.delta_coverage, self.rebuild_equiv),
            "frac",
        );
        out.put("core.combine_ms", ms(self.combine), "ms");
        out.put("core.rank_ms", ms(self.rank), "ms");
        out.put("core.append_ms", ms(self.append), "ms");
        out.put("core.evict_ms", ms(self.evict), "ms");
        out.put("core.step_ms_p50", quantile(&self.steps_ms, 0.5), "ms");
        out.put("core.step_ms_p99", quantile(&self.steps_ms, 0.99), "ms");
        out.put("core.replay_windows", self.replay_windows as f64, "count");
        out.put("core.unattributed_ms", self.unattributed_ms(), "ms");
        out.put("serve.ingest_ms", ms(self.ingest), "ms");
        out.put("serve.tick_ms_p50", quantile(&self.ticks_ms, 0.5), "ms");
        out.put("serve.tick_ms_p99", quantile(&self.ticks_ms, 0.99), "ms");
        out.put("serve.units", self.units as f64, "count");
        out.put(
            "serve.coalesce_ratio",
            ratio(self.ingest_calls, self.coalesced_appends),
            "frac",
        );
        out.put(
            "serve.wait_for_turn_p99_ms",
            self.wait_for_turn_p99_ms,
            "ms",
        );
        out.put("checkpoint.bytes", self.checkpoint_bytes as f64, "bytes");
        out.put(
            "checkpoint.bytes_per_point",
            ratio(self.checkpoint_bytes, self.checkpoint_points),
            "bytes/point",
        );
        out.put("checkpoint.save_ms", ms(self.checkpoint_save), "ms");
        out.put("checkpoint.load_ms", ms(self.checkpoint_load), "ms");
        out.put("discord.retransform_ms", ms(self.retransform), "ms");
        out.put("discord.mass_query_ms", ms(self.mass_query), "ms");
        out.put("discord.fold_ms", ms(self.fold), "ms");
        out.put("discord.discords_ms", ms(self.discords), "ms");
        out.put("discord.mass_queries", self.mass_queries as f64, "count");
        out.put("discord.retransforms", self.retransforms as f64, "count");
        out.put(
            "discord.queries_per_new_window",
            ratio(self.mass_queries, self.new_windows),
            "frac",
        );
        out.put(
            "fft.plan_cache_hit_ratio",
            ratio(self.plan_hits, self.plan_hits + self.plan_misses),
            "frac",
        );
        out.put("driver.lag_p99_ms", quantile(&self.lag_ms, 0.99), "ms");
        out.put("obs.tracing_overhead_frac", self.tracing_overhead, "frac");
        out.put("host.calibration_ms", self.calibration_ms, "ms");
    }
}
