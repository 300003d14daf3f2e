//! # egi-sequitur — linear-time grammar induction
//!
//! A from-scratch implementation of the Sequitur algorithm
//! (Nevill-Manning & Witten 1997), the grammar-induction engine of the
//! paper's Section 5.1. Sequitur reads a token sequence left to right and
//! maintains a context-free grammar satisfying two constraints:
//!
//! * **digram uniqueness** — no pair of adjacent symbols appears more than
//!   once in the grammar; a repeated digram is replaced by a rule;
//! * **rule utility** — every rule is referenced at least twice; a rule
//!   whose reference count drops to one is inlined and removed.
//!
//! The output [`Grammar`] exposes rule bodies, per-rule terminal expansion
//! lengths, and — crucial for anomaly detection — the position of every
//! (transitive) rule occurrence in the original token sequence, which is
//! what the rule density curve of `egi-core` integrates over.
//!
//! ```
//! use egi_sequitur::induce;
//!
//! // The paper's running example (Table 2), with tokens interned:
//! // ab=0, bc=1, aa=2, cc=3, ca=4.
//! let grammar = induce([0, 1, 2, 3, 4, 0, 1, 2]);
//! assert_eq!(grammar.rule_count(), 2); // R0 plus one induced rule
//! assert_eq!(grammar.expand_root(), vec![0, 1, 2, 3, 4, 0, 1, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
mod grammar;

pub use engine::{OccDelta, Sequitur, SequiturParts};
pub use grammar::{Grammar, GrammarRule, RuleOccurrence, Symbol};

/// Induces a grammar from a token iterator in one call.
pub fn induce(tokens: impl IntoIterator<Item = u32>) -> Grammar {
    let mut s = Sequitur::new();
    for t in tokens {
        s.push(t);
    }
    s.into_grammar()
}
