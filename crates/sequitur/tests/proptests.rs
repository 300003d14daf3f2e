//! Property-based tests for Sequitur.
//!
//! The two hard guarantees: (1) the grammar is lossless — expanding the
//! root reproduces the input exactly; (2) the Sequitur normal form holds —
//! every rule used ≥ 2 times, every body ≥ 2 symbols. A third, soft
//! property is monotone compression on repetitive inputs.

#![forbid(unsafe_code)]

use egi_sequitur::{induce, Sequitur};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Incremental occurrence accounting (PR 4): the live-engine
    /// enumeration over incrementally maintained expansion lengths
    /// reports the same `(start, len)` span multiset as the extracted
    /// grammar's derivation walk, for arbitrary token sequences —
    /// the spans are exactly what rule-density construction consumes.
    #[test]
    fn live_occurrence_spans_match_extracted_grammar(
        tokens in prop::collection::vec(0u32..5, 0..300),
    ) {
        let mut s = Sequitur::new();
        for &t in &tokens {
            s.push(t);
        }
        let mut live: Vec<(usize, usize)> =
            s.occurrences().iter().map(|o| (o.start, o.len)).collect();
        let g = s.to_grammar();
        let mut extracted: Vec<(usize, usize)> =
            g.occurrences().iter().map(|o| (o.start, o.len)).collect();
        live.sort_unstable();
        extracted.sort_unstable();
        prop_assert_eq!(live, extracted);
        // Every span expands to a real slice of the input.
        for occ in g.occurrences() {
            let expansion = g.expand_rule(occ.rule);
            prop_assert_eq!(&tokens[occ.start..occ.start + occ.len], expansion.as_slice());
        }
    }

    /// Round trip over arbitrary token sequences, including long runs of
    /// identical tokens (small alphabet forces heavy rule churn).
    #[test]
    fn roundtrip_small_alphabet(tokens in prop::collection::vec(0u32..4, 0..400)) {
        let g = induce(tokens.clone());
        prop_assert_eq!(g.expand_root(), tokens);
        g.verify().map_err(TestCaseError::fail)?;
    }

    /// Round trip over a larger alphabet (fewer matches, more terminals).
    #[test]
    fn roundtrip_large_alphabet(tokens in prop::collection::vec(0u32..1000, 0..300)) {
        let g = induce(tokens.clone());
        prop_assert_eq!(g.expand_root(), tokens);
        g.verify().map_err(TestCaseError::fail)?;
    }

    /// Pathological runs: blocks of repeated symbols (aa..bb..aa..).
    #[test]
    fn roundtrip_block_runs(blocks in prop::collection::vec((0u32..3, 1usize..20), 1..20)) {
        let tokens: Vec<u32> = blocks
            .iter()
            .flat_map(|&(sym, len)| std::iter::repeat_n(sym, len))
            .collect();
        let g = induce(tokens.clone());
        prop_assert_eq!(g.expand_root(), tokens);
        g.verify().map_err(TestCaseError::fail)?;
    }

    /// Every reported rule occurrence expands to exactly the input slice
    /// it claims to cover — the property the rule density curve builds on.
    #[test]
    fn occurrences_match_input_slices(tokens in prop::collection::vec(0u32..6, 2..250)) {
        let g = induce(tokens.clone());
        for occ in g.occurrences() {
            let expansion = g.expand_rule(occ.rule);
            prop_assert_eq!(
                &tokens[occ.start..occ.start + occ.len],
                expansion.as_slice(),
                "occurrence {:?}", occ
            );
        }
    }

    /// Grammar size never exceeds input size plus the root overhead, and
    /// repeating the input twice never increases total grammar size by
    /// more than the motif length (sanity of the compression behaviour).
    #[test]
    fn grammar_size_is_bounded(tokens in prop::collection::vec(0u32..5, 1..150)) {
        let g = induce(tokens.clone());
        prop_assert!(g.total_size() <= tokens.len() + 2);
    }
}

/// Deterministic heavy stress: pseudo-random token stream, checked once.
#[test]
fn long_stream_stress() {
    let mut state = 0x9e3779b97f4a7c15u64;
    let tokens: Vec<u32> = (0..50_000)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 8) as u32
        })
        .collect();
    let g = induce(tokens.clone());
    assert_eq!(g.expand_root(), tokens);
    g.verify().unwrap();
    assert!(
        g.total_size() < tokens.len() / 2,
        "8-symbol stream should compress: {} vs {}",
        g.total_size(),
        tokens.len()
    );
}
