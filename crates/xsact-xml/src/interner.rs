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

/// The workspace's shared FNV-style incremental hasher, used by the index
/// fingerprint and checksum in `xsact-index`.
///
/// The multiplier differs from the canonical 64-bit FNV prime
/// (`0x100_0000_01b3`) by one digit — it is kept for compatibility with
/// the fingerprints the persistence layer has always produced, and every
/// hash is only ever compared against hashes produced by this same type,
/// so self-consistency is all that matters.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl FnvHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// The accumulated hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher::new()
    }
}

/// The probe hash: eight bytes per multiply instead of [`FnvHasher`]'s one
/// — interning a tag name is on the parser's path once per element. Only
/// ever compared with itself, inside one table.
fn hash(s: &str) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut words = s.as_bytes().chunks_exact(8);
    let mut h = s.len() as u64;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
        h = (h.rotate_left(5) ^ word).wrapping_mul(K);
    }
    let tail = words.remainder().iter().fold(0, |tail, &b| tail << 8 | u64::from(b));
    (h.rotate_left(5) ^ tail).wrapping_mul(K)
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
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
