//! The benchmark's own self-tests, at reduced sizes:
//!
//! * every workload's output checks pass, on two seeds;
//! * the exact work counters repeat bit for bit for a given seed;
//! * the traced layer self-times plus the residual sum to the traced
//!   end-to-end time;
//! * untraced and traced runs print exactly the metric names that
//!   `BENCHMARK.json` declares.
//!
//! Runs share the process-wide `egi-obs` registry, so they are
//! serialized.

use std::sync::Mutex;

use egi_perfbench::{run, Outcome, Scale, WORKLOADS};

static SERIAL: Mutex<()> = Mutex::new(());

/// Counters that must not depend on timing.
const EXACT: [&str; 6] = [
    "sax.windows",
    "sequitur.tokens_pushed",
    "core.deltas_applied",
    "serve.units",
    "discord.mass_queries",
    "checkpoint.bytes",
];

/// Self-times that, with `core.unattributed_ms`, sum to
/// `trace.e2e_ms`.
const SELF_TIMES: [&str; 16] = [
    "sax.paa_ms",
    "sax.discretize_ms",
    "core.intern_ms",
    "sequitur.induce_ms",
    "sequitur.push_ms",
    "core.density_build_ms",
    "core.delta_fold_ms",
    "core.combine_ms",
    "core.rank_ms",
    "core.append_ms",
    "core.evict_ms",
    "serve.ingest_ms",
    "discord.retransform_ms",
    "discord.mass_query_ms",
    "discord.fold_ms",
    "discord.discords_ms",
];

const SECONDS: f64 = 0.5;

fn go(workload: &str, seed: u64, trace: bool) -> Outcome {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = run(workload, seed, SECONDS, trace, Scale::Test).expect("known workload");
    assert_eq!(out.failed, 0, "{workload} seed {seed}: {:?}", out.failures);
    assert!(out.attempted > 0);
    out
}

/// Metric names declared in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

fn names(out: &Outcome) -> Vec<String> {
    sorted(out.metrics.iter().map(|m| m.name.to_string()).collect())
}

#[test]
fn exact_counters_repeat_and_checks_pass_on_two_seeds() {
    for workload in WORKLOADS {
        let a = go(workload, 7, true);
        let b = go(workload, 7, true);
        for name in EXACT {
            assert_eq!(
                a.get(name),
                b.get(name),
                "{workload}: {name} is not deterministic"
            );
        }
        let other = go(workload, 8, true);
        assert_eq!(names(&a), names(&other));
    }
}

#[test]
fn layer_self_times_sum_to_the_traced_end_to_end_time() {
    for workload in WORKLOADS {
        let out = go(workload, 3, true);
        let e2e = out.get("trace.e2e_ms").expect("e2e reported");
        let sum: f64 = SELF_TIMES
            .iter()
            .map(|n| out.get(n).unwrap_or_else(|| panic!("{n} missing")))
            .sum::<f64>()
            + out.get("core.unattributed_ms").expect("residual reported");
        assert!(e2e > 0.0, "{workload}: empty traced run");
        assert!(
            (sum - e2e).abs() <= 1e-6 * e2e.max(1.0),
            "{workload}: layers sum to {sum} ms, end to end is {e2e} ms"
        );
    }
}

#[test]
fn every_run_prints_exactly_the_declared_metrics() {
    let end_to_end = sorted(declared("end_to_end"));
    let per_layer = sorted(declared("per_layer"));
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for workload in WORKLOADS {
        let untraced = go(workload, 5, false);
        assert_eq!(names(&untraced), end_to_end, "{workload} untraced");
        assert!(
            untraced
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0),
            "{workload}: an end-to-end metric is zero: {:?}",
            untraced.metrics
        );
        let traced = go(workload, 5, true);
        assert_eq!(names(&traced), per_layer, "{workload} traced");
        assert!(traced.to_json().starts_with("{\"correct\": true"));
    }
}
