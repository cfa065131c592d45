//! String interning — the shared-symbol substrate of the whole pipeline.
//!
//! Data-centric XML repeats the same handful of tag and attribute names
//! thousands of times (`review`, `pros`, `compact`, …). Storing each
//! occurrence as an owned `String` costs a heap allocation, 24 bytes of
//! `String` header and a pointer chase per access. An [`Interner`] stores
//! every distinct string **once** in a contiguous arena and hands out the
//! copyable 4-byte [`Sym`] handle instead; equality of symbols is integer
//! equality, and resolving a symbol is one bounds-checked slice.
//!
//! Two layers own interners:
//!
//! * every [`Document`](crate::Document) interns its tag and attribute
//!   names at construction time,
//! * the inverted index in `xsact-index` interns normalised query terms.
//!
//! Symbols are only meaningful for the interner that created them — mixing
//! symbols across interners is memory-safe but yields nonsense, exactly
//! like indexing a `Vec` with a stale index.

use std::fmt;

/// A interned string handle: 4 bytes, `Copy`, integer comparisons.
///
/// Symbols are assigned densely in first-intern order, so they double as
/// indices into side tables (`Vec`s indexed by [`Sym::index`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The dense index of this symbol (`0..interner.len()`).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a symbol from its dense index, e.g. when loading a
    /// persisted symbol table. The caller must ensure the index came from
    /// the same interner.
    pub fn from_index(index: usize) -> Sym {
        Sym(index as u32)
    }

    /// The symbol as the `u32` a document's node table stores.
    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    /// The symbol stored as `raw`.
    pub(crate) fn from_raw(raw: u32) -> Sym {
        Sym(raw)
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({})", self.0)
    }
}

/// A string interner over one contiguous arena.
///
/// Layout: all distinct strings concatenated in one `String`, a span table
/// `(offset, len)` per symbol, and one open-addressing table of symbol
/// numbers probed linearly from the string's hash. A slot holds no key:
/// a candidate is compared against the arena, so nothing duplicates the
/// arena bytes and the whole interner is three flat allocations.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    arena: String,
    spans: Vec<(u32, u32)>,
    /// `0` for an empty slot, else a symbol's index plus one. The length is
    /// zero or a power of two, and at most half the slots are taken.
    table: Vec<u32>,
}

/// The workspace's one hash: eight bytes per multiply. It is the
/// interner's probe hash, and — fed incrementally — the digest a parsed
/// document records of its source ([`Document::source_digest`]), the
/// `.xidx` trailer in `xsact-index` and the CLI's retry jitter.
///
/// The state steps once per 8-byte little-endian word,
/// `h = (h.rotl(5) ^ word) · K`, with `K` odd, so a step is a bijection of
/// the state for a fixed word and of the word for a fixed state: two
/// inputs of one length that differ in a single word always hash apart.
/// [`finish`](Self::finish) steps once more over the last 0..=7 bytes and
/// once over the total length. Feeding the same bytes in any split gives
/// the same hash. It is not a cryptographic hash and nothing relies on it
/// being one: it detects torn writes and edited sources, and routes.
///
/// [`Document::source_digest`]: crate::Document::source_digest
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher {
    h: u64,
    /// The bytes of the word not yet complete, in its low `len % 8` bytes.
    tail: u64,
    /// Bytes written so far.
    len: u64,
}

impl WordHasher {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    /// A fresh hasher.
    pub fn new() -> WordHasher {
        WordHasher::default()
    }

    /// The hash of `bytes`, in one call.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut hasher = WordHasher::new();
        hasher.write(bytes);
        hasher.finish()
    }

    #[inline]
    fn step(&mut self, word: u64) {
        self.h = (self.h.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }

    /// Feeds bytes into the hash.
    pub fn write(&mut self, mut bytes: &[u8]) {
        let pending = (self.len % 8) as usize;
        self.len += bytes.len() as u64;
        if pending > 0 {
            let take = (8 - pending).min(bytes.len());
            for (i, &b) in bytes[..take].iter().enumerate() {
                self.tail |= u64::from(b) << (8 * (pending + i));
            }
            bytes = &bytes[take..];
            if pending + take < 8 {
                return;
            }
            let word = std::mem::take(&mut self.tail);
            self.step(word);
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.step(u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes")));
        }
        for (i, &b) in words.remainder().iter().enumerate() {
            self.tail |= u64::from(b) << (8 * i);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(mut self) -> u64 {
        let (tail, len) = (self.tail, self.len);
        self.step(tail);
        self.step(len);
        self.h
    }
}

/// The probe hash — interning a tag name is on the parser's path once per
/// element. Only ever compared with itself, inside one table.
fn hash(s: &str) -> u64 {
    WordHasher::hash(s.as_bytes())
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// An empty interner sized for `names` distinct strings of `bytes`
    /// bytes in all: interning them allocates nothing more.
    pub fn with_capacity(names: usize, bytes: usize) -> Interner {
        Interner {
            arena: String::with_capacity(bytes),
            spans: Vec::with_capacity(names),
            table: vec![0; (2 * names).next_power_of_two().max(16)],
        }
    }

    /// Interns `s`, returning the existing symbol when the string was seen
    /// before.
    ///
    /// # Panics
    /// Panics when the distinct strings would exceed `u32::MAX` bytes —
    /// symbols and spans are 32-bit.
    pub fn intern(&mut self, s: &str) -> Sym {
        if (self.spans.len() + 1) * 2 > self.table.len() {
            self.grow();
        }
        let slot = match self.probe(s) {
            Ok(sym) => return sym,
            Err(slot) => slot,
        };
        self.arena.push_str(s);
        // Spans and symbols are 32-bit. The arena's end bounds every offset
        // and length, and distinct strings are fewer than their bytes.
        let end = u32::try_from(self.arena.len())
            .expect("an interner holds at most u32::MAX bytes of distinct strings");
        let len = s.len() as u32;
        self.spans.push((end - len, len));
        let sym = Sym(self.spans.len() as u32 - 1);
        self.table[slot] = sym.0 + 1;
        sym
    }

    /// The symbol of `s`, if it has been interned.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        if self.table.is_empty() {
            return None;
        }
        self.probe(s).ok()
    }

    /// Walks the probe sequence of `s`: its symbol, or the empty slot it
    /// would take. The table must not be empty (it is never full).
    fn probe(&self, s: &str) -> Result<Sym, usize> {
        let mask = self.table.len() - 1;
        let mut slot = Self::home(s, self.table.len());
        loop {
            match self.table[slot] {
                0 => return Err(slot),
                taken => {
                    let sym = Sym(taken - 1);
                    if self.resolve(sym) == s {
                        return Ok(sym);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// First slot of `s` in a table of `len` (a power of two) slots: the
    /// top bits of the hash, where a multiplication mixes best.
    fn home(s: &str, len: usize) -> usize {
        (hash(s) >> (64 - len.trailing_zeros())) as usize
    }

    /// Doubles the table and re-seats every symbol from the arena.
    fn grow(&mut self) {
        let len = (self.table.len() * 2).max(16);
        let mut table = vec![0u32; len];
        for (sym, s) in self.iter() {
            let mut slot = Self::home(s, len);
            while table[slot] != 0 {
                slot = (slot + 1) & (len - 1);
            }
            table[slot] = sym.0 + 1;
        }
        self.table = table;
    }

    /// The string behind a symbol.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this interner (out of range).
    pub fn resolve(&self, sym: Sym) -> &str {
        let (offset, len) = self.spans[sym.index()];
        &self.arena[offset as usize..(offset + len) as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates `(symbol, string)` pairs in first-intern order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        (0..self.spans.len()).map(|i| (Sym(i as u32), self.resolve(Sym(i as u32))))
    }

    /// Heap bytes held by the interner (arena + span table + probe table),
    /// for the substrate-footprint statistics.
    pub fn heap_bytes(&self) -> usize {
        self.arena.capacity()
            + self.spans.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.table.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut i = Interner::new();
        let a = i.intern("review");
        let b = i.intern("pros");
        let a2 = i.intern("review");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(a), "review");
        assert_eq!(i.resolve(b), "pros");
    }

    #[test]
    fn lookup_without_insertion() {
        let mut i = Interner::new();
        assert_eq!(i.lookup("x"), None);
        let x = i.intern("x");
        assert_eq!(i.lookup("x"), Some(x));
        assert_eq!(i.lookup("y"), None);
        assert_eq!(i.len(), 1, "lookup must not intern");
    }

    #[test]
    fn symbols_are_dense_first_seen_indices() {
        let mut i = Interner::new();
        let syms: Vec<Sym> = ["a", "b", "c", "b", "a"].iter().map(|s| i.intern(s)).collect();
        assert_eq!(syms.iter().map(|s| s.index()).collect::<Vec<_>>(), [0, 1, 2, 1, 0]);
        assert_eq!(Sym::from_index(2), syms[2]);
    }

    #[test]
    fn iteration_is_first_intern_order() {
        let mut i = Interner::new();
        for s in ["zeta", "alpha", "mid"] {
            i.intern(s);
        }
        let strings: Vec<&str> = i.iter().map(|(_, s)| s).collect();
        assert_eq!(strings, ["zeta", "alpha", "mid"]);
    }

    #[test]
    fn empty_string_and_unicode() {
        let mut i = Interner::new();
        let e = i.intern("");
        let u = i.intern("été");
        assert_eq!(i.resolve(e), "");
        assert_eq!(i.resolve(u), "été");
        assert_eq!(i.intern(""), e);
        assert!(!i.is_empty());
    }

    #[test]
    fn word_hash_ignores_how_the_bytes_are_split() {
        let bytes: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        let whole = WordHasher::hash(&bytes);
        for cut in [0, 1, 7, 8, 9, 63, 199, 200] {
            for step in [1, 3, 8, 13] {
                let mut hasher = WordHasher::new();
                hasher.write(&bytes[..cut]);
                for chunk in bytes[cut..].chunks(step) {
                    hasher.write(chunk);
                }
                assert_eq!(hasher.finish(), whole, "cut {cut}, step {step}");
            }
        }
        // Zero bytes are not lost, in the last word or in whole words.
        assert_ne!(WordHasher::hash(b"ab"), WordHasher::hash(b"\0ab"));
        assert_ne!(WordHasher::hash(b""), WordHasher::hash(b"\0"));
        assert_ne!(WordHasher::hash(&[0; 8]), WordHasher::hash(&[0; 16]));
        assert_ne!(WordHasher::hash(b"x"), WordHasher::hash(b"\0\0\0\0\0\0\0\0x"));
    }

    #[test]
    fn a_presized_interner_does_not_grow() {
        let names = ["alpha", "beta", "gamma", "delta"];
        let mut i = Interner::with_capacity(names.len(), names.iter().map(|n| n.len()).sum());
        let before = i.heap_bytes();
        for n in names {
            i.intern(n);
        }
        assert_eq!(i.heap_bytes(), before);
        assert_eq!(i.lookup("gamma"), Some(Sym(2)));
    }

    #[test]
    fn survives_many_distinct_strings() {
        // Exercises probe collisions and several table doublings.
        let mut i = Interner::new();
        let syms: Vec<Sym> = (0..2000).map(|n| i.intern(&format!("t{n}"))).collect();
        assert_eq!(i.len(), 2000);
        for (n, &sym) in syms.iter().enumerate() {
            assert_eq!(i.resolve(sym), format!("t{n}"));
            assert_eq!(i.lookup(&format!("t{n}")), Some(sym));
        }
        assert!(i.heap_bytes() > 0);
    }
}
