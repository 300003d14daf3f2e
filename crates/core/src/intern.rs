//! SAX-word interning.
//!
//! Sequitur operates on integer tokens; the discretizer produces
//! [`SaxWord`]s. Interning assigns consecutive `u32` ids in first-seen
//! order, which keeps the mapping deterministic for a given input (the
//! evaluation harness relies on run-to-run reproducibility).

use std::collections::HashMap;

use egi_sax::{NumerosityReduced, SaxWord};
use egi_tskit::checkpoint::{CheckpointError, FieldReader, FieldWriter};

/// Interns the words of a numerosity-reduced token sequence.
///
/// Returns one token id per retained token, in order. Identical words get
/// identical ids; ids are dense starting at 0.
pub fn intern_tokens(nr: &NumerosityReduced) -> Vec<u32> {
    let mut table: HashMap<&SaxWord, u32> = HashMap::with_capacity(nr.len());
    let mut out = Vec::with_capacity(nr.len());
    for token in &nr.tokens {
        let next_id = table.len() as u32;
        let id = *table.entry(&token.word).or_insert(next_id);
        out.push(id);
    }
    out
}

/// An interning table that assigns ids one word at a time — the online
/// counterpart of [`intern_tokens`] for the streaming detector.
///
/// Ids are dense `u32`s in first-seen order, so feeding the words of a
/// token sequence through [`OnlineInterner::intern`] in order yields
/// exactly the ids [`intern_tokens`] assigns to the whole sequence at
/// once, for every append schedule.
#[derive(Debug, Clone, Default)]
pub struct OnlineInterner {
    table: HashMap<SaxWord, u32>,
}

impl OnlineInterner {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of `word`, assigning the next dense id on first sight
    /// (the word is cloned into the table only in that case).
    pub fn intern(&mut self, word: &SaxWord) -> u32 {
        if let Some(&id) = self.table.get(word) {
            return id;
        }
        let id = self.table.len() as u32;
        self.table.insert(word.clone(), id);
        id
    }

    /// Forgets every assignment, reusing the table allocation — the
    /// eviction-replay reset of the streaming detector. Ids are
    /// first-seen-order, so a replay over a token suffix must restart
    /// the numbering to land on the ids a fresh batch run would assign.
    pub fn clear(&mut self) {
        self.table.clear();
    }

    /// Number of distinct words seen.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` before any word has been interned.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Appends the table to a checkpoint payload as a count-prefixed
    /// list of `(word, id)` pairs sorted by id, so checkpoints are
    /// byte-deterministic (the table itself is order-insensitive).
    /// [`OnlineInterner::decode`] is the mirror.
    pub fn encode(&self, f: &mut FieldWriter) {
        let mut pairs: Vec<(&SaxWord, u32)> = self.table.iter().map(|(w, &id)| (w, id)).collect();
        pairs.sort_unstable_by_key(|&(_, id)| id);
        f.usize(pairs.len());
        for (word, id) in pairs {
            word.encode(f);
            f.u32(id);
        }
    }

    /// Reads a table written by [`OnlineInterner::encode`].
    pub fn decode(f: &mut FieldReader<'_>) -> Result<Self, CheckpointError> {
        // Each pair is at least a word length prefix plus an id.
        let count = f.len_checked(12)?;
        let mut table = HashMap::with_capacity(count);
        for i in 0..count {
            let word = SaxWord::decode(f)?;
            let id = f.u32()?;
            // Ids are dense and first-seen-ordered by construction; a
            // table violating that would desynchronize a restored replay.
            if id as usize != i {
                return Err(CheckpointError::Corrupt(format!(
                    "interner ids not dense: expected {i}, found {id}"
                )));
            }
            if table.insert(word, id).is_some() {
                return Err(CheckpointError::Corrupt("duplicate interned word".into()));
            }
        }
        Ok(OnlineInterner { table })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egi_sax::{numerosity_reduce, SaxWord};

    fn nr_from(words: &[&[u8]]) -> NumerosityReduced {
        numerosity_reduce(words.iter().map(|w| SaxWord(w.to_vec())).collect(), 4)
    }

    #[test]
    fn dense_first_seen_ids() {
        let nr = nr_from(&[b"ab", b"cd", b"ab", b"ee", b"cd"]);
        assert_eq!(intern_tokens(&nr), vec![0, 1, 0, 2, 1]);
    }

    #[test]
    fn empty_input() {
        let nr = nr_from(&[]);
        assert!(intern_tokens(&nr).is_empty());
    }

    #[test]
    fn single_word() {
        // Numerosity reduction collapses the run first.
        let nr = nr_from(&[b"xy", b"xy", b"xy"]);
        assert_eq!(intern_tokens(&nr), vec![0]);
    }

    #[test]
    fn deterministic_across_calls() {
        let nr = nr_from(&[b"aa", b"bb", b"aa", b"cc"]);
        assert_eq!(intern_tokens(&nr), intern_tokens(&nr));
    }

    /// Encodes `(word, id)` pairs exactly as [`OnlineInterner::encode`]
    /// lays them out, so malformed tables can be written on purpose.
    fn encode_pairs(pairs: &[(&[u8], u32)]) -> Vec<u8> {
        let mut f = FieldWriter::new();
        f.usize(pairs.len());
        for &(word, id) in pairs {
            SaxWord(word.to_vec()).encode(&mut f);
            f.u32(id);
        }
        f.into_bytes()
    }

    fn decode_all(bytes: &[u8]) -> Result<OnlineInterner, CheckpointError> {
        let mut r = FieldReader::new(bytes);
        let table = OnlineInterner::decode(&mut r)?;
        r.finish()?;
        Ok(table)
    }

    #[test]
    fn codec_round_trip_preserves_assignments() {
        let nr = nr_from(&[b"ab", b"cd", b"ab", b"ee", b"cd"]);
        let mut original = OnlineInterner::new();
        for t in &nr.tokens {
            original.intern(&t.word);
        }
        let mut f = FieldWriter::new();
        original.encode(&mut f);
        let bytes = f.into_bytes();
        assert_eq!(bytes, encode_pairs(&[(b"ab", 0), (b"cd", 1), (b"ee", 2)]));
        let mut restored = decode_all(&bytes).unwrap();
        assert_eq!(restored.len(), original.len());
        // Existing words keep their ids; new words continue the dense
        // numbering exactly where the original would.
        assert_eq!(restored.intern(&SaxWord(b"cd".to_vec())), 1);
        assert_eq!(
            restored.intern(&SaxWord(b"zz".to_vec())),
            original.len() as u32
        );

        // Non-dense ids and duplicate words are rejected.
        assert!(decode_all(&encode_pairs(&[(b"a", 0), (b"b", 2)])).is_err());
        assert!(decode_all(&encode_pairs(&[(b"a", 0), (b"a", 1)])).is_err());
    }

    #[test]
    fn online_interner_matches_batch() {
        let nr = nr_from(&[b"ab", b"cd", b"ab", b"ee", b"cd", b"ff", b"ab"]);
        let batch = intern_tokens(&nr);
        let mut online = OnlineInterner::new();
        let incremental: Vec<u32> = nr.tokens.iter().map(|t| online.intern(&t.word)).collect();
        assert_eq!(incremental, batch);
        assert_eq!(online.len(), 4);
        assert!(!online.is_empty());
    }
}
