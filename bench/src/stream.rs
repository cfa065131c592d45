//! Query pools and seeded op streams.
//!
//! The pools are fixed (drawn once from [`POOL_SEED`]), so every run of a
//! workload asks from the same set of queries against the same fixture;
//! `--seed` only decides the order in which they are asked. That keeps
//! run-to-run differences down to the machine, not the inputs, while the
//! same seed still names one exact op sequence.

use crate::rng::{Rng, Zipf};
use std::collections::HashSet;
use xsact::data::vocab;
use xsact::index::Query;

/// Seed of the fixtures and the query pools (never the op order).
pub const POOL_SEED: u64 = 42;

/// The canonical form the server's page cache keys on.
pub fn canonical(text: &str) -> String {
    Query::parse(text).to_string()
}

/// `n` distinct 1–3-term queries over the movie vocabulary, deduplicated
/// by canonical form. The shapes span the selectivity range: genre+keyword
/// is the paper's QM shape (two common terms), a third "extra" term
/// (country, language, name, title word) narrows it down to few or zero
/// results (zero-postings short circuits), and single keywords are the
/// broadest.
pub fn search_pool(n: usize) -> Vec<String> {
    let mut extras: Vec<String> = Vec::new();
    for table in [
        vocab::COUNTRIES,
        vocab::LANGUAGES,
        vocab::SURNAMES,
        vocab::FIRST_NAMES,
        vocab::TITLE_ADJECTIVES,
        vocab::TITLE_NOUNS,
    ] {
        extras.extend(table.iter().map(|w| w.to_lowercase()));
    }
    let mut rng = Rng::new(POOL_SEED);
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(n);
    // 4096 draws per wanted query is far beyond what the ~50k distinct
    // shapes need; the cap only turns a vocabulary shrink into a panic
    // instead of a hang.
    for _ in 0..n * 4096 {
        if pool.len() == n {
            break;
        }
        let genre = *rng.pick(vocab::GENRES);
        let keyword = *rng.pick(vocab::KEYWORDS);
        let extra = rng.pick(&extras).as_str();
        let text = match rng.below(20) {
            0..=6 => format!("{genre} {keyword}"),
            7..=12 => format!("{genre} {keyword} {extra}"),
            13..=17 => format!("{keyword} {extra}"),
            _ => keyword.to_owned(),
        };
        if seen.insert(canonical(&text)) {
            pool.push(text);
        }
    }
    assert_eq!(pool.len(), n, "vocabulary too small for a pool of {n} distinct queries");
    pool
}

/// Every genre+keyword pair, in a fixed shuffled order — the candidates of
/// the comparison pool (the caller keeps those with at least two results).
pub fn compare_candidates() -> Vec<String> {
    let mut all: Vec<String> = vocab::GENRES
        .iter()
        .flat_map(|g| vocab::KEYWORDS.iter().map(move |k| format!("{g} {k}")))
        .collect();
    let mut rng = Rng::new(POOL_SEED);
    for i in (1..all.len()).rev() {
        all.swap(i, rng.below(i + 1));
    }
    all
}

/// How an op stream draws its next pool index.
#[derive(Debug, Clone)]
enum Draw {
    Uniform,
    Zipf(Zipf),
}

/// An endless seeded sequence of pool indexes.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    keys: usize,
    draw: Draw,
}

impl OpStream {
    pub fn uniform(seed: u64, keys: usize) -> OpStream {
        OpStream { rng: Rng::new(seed), keys, draw: Draw::Uniform }
    }

    pub fn zipf(seed: u64, keys: usize, s: f64) -> OpStream {
        OpStream { rng: Rng::new(seed), keys, draw: Draw::Zipf(Zipf::new(keys, s)) }
    }

    pub fn next_key(&mut self) -> usize {
        match &self.draw {
            Draw::Uniform => self.rng.below(self.keys),
            Draw::Zipf(zipf) => zipf.sample(&mut self.rng),
        }
    }

    /// FNV-1a over the first `ops` keys of a copy of this stream: the
    /// fingerprint that lets two runs prove they asked the same questions.
    pub fn hash(&self, ops: usize) -> u64 {
        let mut copy = self.clone();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..ops {
            for byte in (copy.next_key() as u32).to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for make in [|s| OpStream::uniform(s, 512), |s| OpStream::zipf(s, 512, 1.1)] {
            assert_eq!(make(1).hash(4096), make(1).hash(4096));
            assert_ne!(make(1).hash(4096), make(2).hash(4096));
        }
    }

    #[test]
    fn hashing_does_not_advance_the_stream() {
        let mut a = OpStream::uniform(9, 64);
        let mut b = a.clone();
        let _ = a.hash(100);
        assert_eq!(a.next_key(), b.next_key());
    }

    #[test]
    fn search_pool_is_distinct_by_canonical_form_and_stable() {
        let pool = search_pool(512);
        let forms: HashSet<String> = pool.iter().map(|q| canonical(q)).collect();
        assert_eq!(forms.len(), 512);
        assert_eq!(pool, search_pool(512));
        // A smaller pool is a prefix of a larger one, so the cached
        // workload's 256 keys are the first half of the churn workload's.
        assert_eq!(search_pool(256)[..], pool[..256]);
        for terms in 1..=3 {
            assert!(pool.iter().any(|q| Query::parse(q).len() == terms), "no {terms}-term query");
        }
    }

    #[test]
    fn compare_candidates_cover_every_pair_once() {
        let all = compare_candidates();
        assert_eq!(all.len(), vocab::GENRES.len() * vocab::KEYWORDS.len());
        assert_eq!(all.iter().collect::<HashSet<_>>().len(), all.len());
    }
}
