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

/// The workspace's one hash: eight bytes per multiply, four multiplies in
/// flight. It is the interner's probe hash, and — fed incrementally — the
/// digest a parsed document records of its source
/// ([`Document::source_digest`]), the `.xidx` trailer in `xsact-index` and
/// the CLI's retry jitter.
///
/// One step takes an 8-byte little-endian word, `h = (h.rotl(5) ^ word) · K`,
/// with `K` odd, so a step is a bijection of the state for a fixed word and
/// of the word for a fixed state. Every whole 32-byte block steps four
/// independent lanes, one per word, so the four multiplies of a block do
/// not wait on one another. [`finish`](Self::finish) folds the lanes into
/// one serial chain — lane 0 to 3, only if the input held a whole block —
/// then steps that chain over the last 0..=3 whole words, once over the
/// last 0..=7 bytes and once over the total length. An input under 32
/// bytes therefore never touches a lane and hashes exactly as the serial
/// chain alone did (`.xidx` v5), and two inputs of one length that differ
/// in a single word always hash apart. Feeding the same bytes in any split
/// gives the same hash. It is not a cryptographic hash and nothing relies
/// on it being one: it detects torn writes and edited sources, and routes.
///
/// [`Document::source_digest`]: crate::Document::source_digest
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher {
    lanes: [u64; 4],
    /// The block not yet complete: its first `len % 32` bytes.
    block: Block,
    /// Bytes written so far.
    len: u64,
}

/// One lane block: a word per lane.
type Block = [[u8; 8]; 4];

/// Bytes of one [`Block`].
const BLOCK: usize = 32;

impl WordHasher {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    /// A fresh hasher.
    pub fn new() -> WordHasher {
        WordHasher::default()
    }

    /// The hash of `bytes`, in one call. Reads the slice in place: the
    /// interner probes with this once per element.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut lanes = [0; 4];
        let (blocks, rest) = blocks(bytes);
        step_lanes(&mut lanes, blocks);
        serial_chain(&lanes, rest, bytes.len() as u64)
    }

    /// Feeds bytes into the hash.
    pub fn write(&mut self, mut bytes: &[u8]) {
        let pending = (self.len % BLOCK as u64) as usize;
        self.len += bytes.len() as u64;
        if pending > 0 {
            let take = (BLOCK - pending).min(bytes.len());
            self.block.as_flattened_mut()[pending..pending + take].copy_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if pending + take < BLOCK {
                return;
            }
            step_lanes(&mut self.lanes, std::slice::from_ref(&self.block));
        }
        let (blocks, rest) = blocks(bytes);
        step_lanes(&mut self.lanes, blocks);
        self.block.as_flattened_mut()[..rest.len()].copy_from_slice(rest);
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        let pending = (self.len % BLOCK as u64) as usize;
        serial_chain(&self.lanes, &self.block.as_flattened()[..pending], self.len)
    }
}

#[inline]
fn step(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(WordHasher::K)
}

/// `bytes` as whole blocks and the 0..=31 bytes after them.
fn blocks(bytes: &[u8]) -> (&[Block], &[u8]) {
    let (words, _) = bytes.as_chunks::<8>();
    let (blocks, _) = words.as_chunks::<4>();
    (blocks, &bytes[blocks.len() * BLOCK..])
}

/// Steps each lane over its word of every block, the four chains held in
/// registers across the loop.
#[inline]
fn step_lanes(lanes: &mut [u64; 4], blocks: &[Block]) {
    let [mut a, mut b, mut c, mut d] = *lanes;
    for &[w0, w1, w2, w3] in blocks {
        a = step(a, u64::from_le_bytes(w0));
        b = step(b, u64::from_le_bytes(w1));
        c = step(c, u64::from_le_bytes(w2));
        d = step(d, u64::from_le_bytes(w3));
    }
    *lanes = [a, b, c, d];
}

/// The serial chain of [`WordHasher::finish`]: the lanes (when `len` covers
/// a whole block), then the 0..=31 bytes `rest` after the last block, then
/// `len`.
fn serial_chain(lanes: &[u64; 4], rest: &[u8], len: u64) -> u64 {
    let mut h = 0;
    if len >= BLOCK as u64 {
        h = lanes.iter().fold(h, |h, &lane| step(h, lane));
    }
    let (words, tail) = rest.as_chunks::<8>();
    for &word in words {
        h = step(h, u64::from_le_bytes(word));
    }
    let last = tail.iter().enumerate().fold(0, |last, (i, &b)| last | u64::from(b) << (8 * i));
    step(step(h, last), len)
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

    /// Inputs of every length up to 100 bytes: past three whole blocks, so
    /// each lane, the fold and every tail shape are reached.
    fn inputs() -> impl Iterator<Item = Vec<u8>> {
        (0..=100u32).map(|len| (0..len).map(|i| (i * 37 % 251 + len) as u8).collect())
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
        // Streamed in two writes, split anywhere, every input hashes as
        // the one-shot call that reads it in place.
        for bytes in inputs() {
            let whole = WordHasher::hash(&bytes);
            for cut in 0..=bytes.len() {
                let mut hasher = WordHasher::new();
                hasher.write(&bytes[..cut]);
                hasher.write(&bytes[cut..]);
                assert_eq!(hasher.finish(), whole, "{} bytes cut at {cut}", bytes.len());
            }
        }
        // Zero bytes are not lost, in the last word or in whole words.
        assert_ne!(WordHasher::hash(b"ab"), WordHasher::hash(b"\0ab"));
        assert_ne!(WordHasher::hash(b""), WordHasher::hash(b"\0"));
        assert_ne!(WordHasher::hash(&[0; 8]), WordHasher::hash(&[0; 16]));
        assert_ne!(WordHasher::hash(b"x"), WordHasher::hash(b"\0\0\0\0\0\0\0\0x"));
    }

    /// A step is a bijection of its word, so one changed word — in any
    /// lane, in the words after the last block or in the last partial word
    /// — always reaches the hash.
    #[test]
    fn changing_any_single_word_changes_the_hash() {
        for bytes in inputs() {
            let whole = WordHasher::hash(&bytes);
            for start in (0..bytes.len()).step_by(8) {
                let end = (start + 8).min(bytes.len());
                for flip in [0x01, 0x80] {
                    for at in [start, end - 1] {
                        let mut changed = bytes.clone();
                        changed[at] ^= flip;
                        let what = format!("{} bytes, byte {at} ^ {flip:#x}", bytes.len());
                        assert_ne!(WordHasher::hash(&changed), whole, "{what}");
                    }
                }
            }
        }
    }

    /// Under one block no lane is stepped or folded: these are the hashes
    /// `.xidx` v5's serial chain gave, so the interner's probes and the
    /// CLI's jitter are what they were.
    #[test]
    fn inputs_under_a_block_hash_as_the_serial_chain_did() {
        let bytes: Vec<u8> = (0..31u32).map(|i| (i * 37 % 251) as u8).collect();
        for (input, v5) in [
            (&b""[..], 0),
            (b"review", 0x906a_41f3_7567_0512),
            (b"Product_Line", 0xcff1_48f6_6893_8c93),
            (&bytes, 0x17f8_3c6f_d1a0_5b79),
        ] {
            assert_eq!(WordHasher::hash(input), v5, "{input:?}");
            let mut hasher = WordHasher::new();
            hasher.write(input);
            assert_eq!(hasher.finish(), v5, "{input:?} streamed");
        }
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
