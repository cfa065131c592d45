//! The inverted index: term → XML nodes in document order.
//!
//! Indexing rules (standard for data-centric XML keyword search):
//!
//! * an **element** node matches the terms of its tag name and of its
//!   attribute names and values;
//! * a **text** run contributes its terms to the *parent element* — so match
//!   nodes are always elements, which is what LCA semantics expect.
//!
//! A document repeats a few hundred tag and attribute names across tens of
//! thousands of elements, and has already interned them as [`Sym`]s. The
//! build keeps a **name memo** indexed by those symbols: the first time a
//! name occurs its terms are lexed and interned, and their term symbols go
//! into one flat arena; every later element carrying the name replays that
//! range through the same per-node dedup. Interning happens at the first
//! occurrence either way, so the term order — and with it the frame
//! layout and the saved `.xidx` bytes — is the order of the walk.
//!
//! Storage is compressed: terms are normalised straight into a term
//! [`Interner`] (one heap copy per distinct term) and every posting list is
//! split into 128-entry (`FRAME`) **delta-bit-packed frames** living in one
//! shared bit arena. Each frame carries a tiny skip header — first node id,
//! bit offset, bit width — so the gallop probes of the Indexed Lookup Eager
//! SLCA algorithm can step over whole frames without touching the payload,
//! and a frame is only unpacked when a probe actually lands inside it.
//!
//! Frame encodings, selected per frame by the `width` header byte:
//!
//! * `0` — a consecutive run: entry `i` is `first + i`, zero payload bits.
//!   (Single-entry lists are the degenerate case.)
//! * `1..=32` — strictly increasing ids stored as `delta − 1` values of
//!   `width` bits each; the first id lives in the header.
//!
//! Posting lists are sorted in document order and deduplicated. Node ids
//! are preorder ranks, so document order is id order: every list increases
//! strictly, every frame is a delta frame, and the query planner and the
//! scorer compare and count plain integers. A flat `Vec<NodeId>` is only
//! what a test collects from [`PostingsRef::iter`] for the full-scan
//! oracle.

use crate::lexer::for_each_term;
use xsact_xml::{Document, Interner, NodeId, Sym};

/// Entries per posting frame. 128 ids keep the skip headers at ~0.6 bits
/// per posting while one frame still fits a pair of cache lines unpacked.
pub(crate) const FRAME: usize = 128;

/// The shared frame arena behind every posting list of one index.
///
/// Frames are stored as parallel arrays (9 bytes of header per frame instead
/// of a padded struct) plus one bit-granular payload arena — payloads are
/// packed back to back with no word alignment, which is what keeps the
/// packed form ≥3× smaller than the flat `Vec<NodeId>` arena it replaced.
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedStore {
    /// First node id of each frame (also the anchor deltas decode from).
    pub(crate) frame_first: Vec<u32>,
    /// Bit offset of each frame's payload inside `data`.
    pub(crate) frame_bit_off: Vec<u32>,
    /// Bits per packed entry, `0..=32`.
    pub(crate) frame_width: Vec<u8>,
    /// The payload bit arena.
    pub(crate) data: Vec<u64>,
}

impl PackedStore {
    /// Bytes of the packed representation: skip headers + payload.
    pub(crate) fn packed_bytes(&self) -> usize {
        self.frame_first.len() * 4
            + self.frame_bit_off.len() * 4
            + self.frame_width.len()
            + self.data.len() * 8
    }
}

/// A frame's payload as its `width`-bit deltas, read through a rolling bit
/// buffer: one word fetch per 64 bits. It fetches its first word at once,
/// so build it only for a frame with a delta to read, and take count − 1.
struct Deltas<'a> {
    words: std::slice::Iter<'a, u64>,
    /// Fetched bits not read yet, the next delta's lowest; `avail` of them.
    acc: u64,
    avail: u32,
    width: u32,
}

impl<'a> Deltas<'a> {
    /// The deltas of frame `g` of `store`, whose width is in `1..=32`.
    fn new(store: &'a PackedStore, g: usize) -> Deltas<'a> {
        let (off, width) = (store.frame_bit_off[g], u32::from(store.frame_width[g]));
        let mut words = store.data[off as usize / 64..].iter();
        let acc = words.next().map_or(0, |&word| word >> (off % 64));
        Deltas { words, acc, avail: 64 - off % 64, width }
    }
}

impl Iterator for Deltas<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        let (w, mut d) = (self.width, self.acc);
        if self.avail >= w {
            self.acc >>= w;
            self.avail -= w;
        } else {
            let next = *self.words.next()?;
            d |= next << self.avail;
            self.acc = next >> (w - self.avail);
            self.avail += 64 - w;
        }
        Some((d & (u64::MAX >> (64 - w))) as u32)
    }
}

/// Bits needed to store `x` (0 for `x == 0`).
#[inline]
fn bits_for(x: u32) -> u32 {
    32 - x.leading_zeros()
}

/// Append-only encoder producing a [`PackedStore`].
#[derive(Default)]
struct PackedBuilder {
    store: PackedStore,
    bit_len: u64,
}

impl PackedBuilder {
    fn push_bits(&mut self, v: u32, width: u32) {
        if width == 0 {
            return;
        }
        let data = &mut self.store.data;
        let end_words = (self.bit_len + u64::from(width)).div_ceil(64) as usize;
        if data.len() < end_words {
            data.resize(end_words, 0);
        }
        let word = (self.bit_len / 64) as usize;
        let shift = (self.bit_len % 64) as u32;
        data[word] |= u64::from(v) << shift;
        if shift + width > 64 {
            data[word + 1] |= u64::from(v) >> (64 - shift);
        }
        self.bit_len += u64::from(width);
    }

    /// Encodes one frame: ≤ [`FRAME`] strictly increasing ids, the first
    /// one in the header.
    fn push_frame(&mut self, ids: &[u32]) {
        debug_assert!(!ids.is_empty() && ids.len() <= FRAME);
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "posting lists increase strictly");
        // Bit offsets are persisted as u32 — a ~512 MB payload ceiling the
        // loader also enforces.
        debug_assert!(self.bit_len <= u64::from(u32::MAX));
        let width = bits_for(ids.windows(2).map(|w| w[1] - w[0] - 1).max().unwrap_or(0));
        self.store.frame_first.push(ids[0]);
        self.store.frame_bit_off.push(self.bit_len as u32);
        self.store.frame_width.push(width as u8);
        for w in ids.windows(2) {
            self.push_bits(w[1] - w[0] - 1, width);
        }
    }
}

/// The state of one [`InvertedIndex::build`] walk.
struct Builder {
    /// Distinct normalised terms, in first-seen order.
    terms: Interner,
    /// Per term symbol, the raw posting list.
    lists: Vec<Vec<NodeId>>,
    /// Terms already recorded for the node under construction — nodes
    /// carry few distinct terms, so a linear scan beats hashing.
    node_terms: Vec<Sym>,
    scratch: String,
    /// The name memo: per document name symbol, its range of `name_terms`
    /// once the name has been lexed.
    names: Vec<Option<(u32, u32)>>,
    /// The term symbols of every lexed name, back to back.
    name_terms: Vec<Sym>,
}

impl Builder {
    /// Lexes `text`, interning each term, and hands each term's symbol to
    /// `f`.
    fn lex(&mut self, text: &str, mut f: impl FnMut(&mut Builder, Sym)) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for_each_term(text, &mut scratch, |term| {
            let sym = self.terms.intern(term);
            if sym.index() == self.lists.len() {
                self.lists.push(Vec::new());
            }
            f(self, sym);
        });
        self.scratch = scratch;
    }

    /// Records that `node` matches the term `sym`, once per node.
    fn post(&mut self, sym: Sym, node: NodeId) {
        if !self.node_terms.contains(&sym) {
            self.node_terms.push(sym);
            self.lists[sym.index()].push(node);
        }
    }

    fn add_text(&mut self, text: &str, node: NodeId) {
        self.lex(text, |b, sym| b.post(sym, node));
    }

    /// Posts the terms of the tag or attribute name `name` to `node`. A
    /// name is lexed the first time it occurs; later occurrences replay
    /// its terms from the memo.
    fn add_name(&mut self, doc: &Document, name: Sym, node: NodeId) {
        let (start, end) = match self.names[name.index()] {
            Some(range) => range,
            None => {
                let start = self.name_terms.len() as u32;
                self.lex(doc.interner().resolve(name), |b, sym| b.name_terms.push(sym));
                let range = (start, self.name_terms.len() as u32);
                self.names[name.index()] = Some(range);
                range
            }
        };
        for i in start as usize..end as usize {
            self.post(self.name_terms[i], node);
        }
    }
}

/// An inverted index over one [`Document`].
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    /// Distinct normalised terms; a term's [`Sym`] indexes `spans`.
    terms: Interner,
    /// Per term symbol, `(first_frame, posting_count)` into the store.
    /// A term's frames are contiguous; all are full except the last.
    spans: Vec<(u32, u32)>,
    /// The shared frame arena.
    store: PackedStore,
    /// The term dictionary: symbols sorted by term text. Iteration and
    /// persistence use this order, so both are deterministic.
    sorted: Vec<Sym>,
}

impl InvertedIndex {
    /// Builds the index in a single pass over the document.
    pub fn build(doc: &Document) -> Self {
        let mut b = Builder {
            terms: Interner::new(),
            lists: Vec::new(),
            node_terms: Vec::new(),
            scratch: String::new(),
            names: vec![None; doc.interner().len()],
            name_terms: Vec::new(),
        };
        for node in doc.all_nodes() {
            // Dedup per element, and per text run: the parent may
            // legitimately appear once per child text run, and the final
            // document-order dedup collapses those.
            b.node_terms.clear();
            if let Some(tag) = doc.tag_sym(node) {
                b.add_name(doc, tag, node);
                for (name, value) in doc.attrs_syms(node) {
                    b.add_name(doc, name, node);
                    b.add_text(value, node);
                }
            } else if let (Some(text), Some(parent)) = (doc.text(node), doc.parent(node)) {
                b.add_text(text, parent);
            }
        }
        // Document order is id order. The walk does not produce it — a text
        // run posts to its parent, behind the elements between the two — and
        // an element may match a term through its tag and several text
        // children: sort and deduplicate.
        let Builder { terms, mut lists, .. } = b;
        for list in &mut lists {
            list.sort_unstable();
            list.dedup();
        }
        InvertedIndex::pack(terms, lists)
    }

    /// Packs per-term lists — sorted by id and deduplicated — into the
    /// frame store.
    fn pack(terms: Interner, lists: Vec<Vec<NodeId>>) -> Self {
        let mut b = PackedBuilder::default();
        let mut spans = Vec::with_capacity(lists.len());
        let mut ids: Vec<u32> = Vec::new();
        for list in &lists {
            let first_frame = b.store.frame_first.len() as u32;
            for chunk in list.chunks(FRAME) {
                ids.clear();
                ids.extend(chunk.iter().map(|n| n.index() as u32));
                b.push_frame(&ids);
            }
            spans.push((first_frame, list.len() as u32));
        }
        let mut sorted: Vec<Sym> = terms.iter().map(|(sym, _)| sym).collect();
        sorted.sort_by(|&a, &b| terms.resolve(a).cmp(terms.resolve(b)));
        InvertedIndex { terms, spans, store: b.store, sorted }
    }

    /// Adopts a loaded frame store directly: `dict` pairs each term with its
    /// posting count, in the same order the store's frames were written
    /// (frames of consecutive terms are contiguous, all full but the last).
    /// The persistence loader validates terms (sorted, unique) and frames
    /// before calling this, so the arrays are moved in as-is — which is what
    /// keeps save → load → save byte-stable.
    /// `term_bytes` is the dictionary's total term length.
    pub(crate) fn from_packed_parts(
        dict: &[(&str, u32)],
        term_bytes: usize,
        store: PackedStore,
    ) -> Self {
        let mut terms = Interner::with_capacity(dict.len(), term_bytes);
        let mut spans = Vec::with_capacity(dict.len());
        let mut sorted = Vec::with_capacity(dict.len());
        let mut next_frame = 0u32;
        for &(term, len) in dict {
            let sym = terms.intern(term);
            debug_assert_eq!(sym.index(), spans.len(), "loader guarantees unique terms");
            spans.push((next_frame, len));
            sorted.push(sym);
            next_frame += (len as usize).div_ceil(FRAME) as u32;
        }
        InvertedIndex { terms, spans, store, sorted }
    }

    /// The symbol of an (already normalised) term, if it occurs.
    fn term_sym(&self, term: &str) -> Option<Sym> {
        self.terms.lookup(term)
    }

    /// The posting list of a (already normalised) term; empty if the term
    /// does not occur.
    pub fn postings(&self, term: &str) -> PostingsRef<'_> {
        self.term_sym(term)
            .map_or(PostingsRef { store: &self.store, first_frame: 0, len: 0 }, |sym| {
                self.postings_of(sym)
            })
    }

    /// The posting list behind a term symbol.
    fn postings_of(&self, sym: Sym) -> PostingsRef<'_> {
        let (first_frame, len) = self.spans[sym.index()];
        PostingsRef { store: &self.store, first_frame, len }
    }

    /// The shared frame store (persistence serialises its arrays).
    pub(crate) fn store(&self) -> &PackedStore {
        &self.store
    }

    /// Iterates `(term, postings)` in dictionary order — what the
    /// persistence layer serialises.
    pub fn dictionary(&self) -> impl Iterator<Item = (&str, PostingsRef<'_>)> {
        self.sorted.iter().map(|&sym| (self.terms.resolve(sym), self.postings_of(sym)))
    }

    /// Summary statistics for diagnostics and benchmarks.
    pub fn stats(&self) -> IndexStats {
        let longest = self.spans.iter().map(|&(_, len)| len as usize).max().unwrap_or(0);
        let total: usize = self.spans.iter().map(|&(_, len)| len as usize).sum();
        IndexStats {
            terms: self.spans.len(),
            total_postings: total,
            longest_list: longest,
            packed_postings_bytes: self.store.packed_bytes(),
            flat_postings_bytes: total * std::mem::size_of::<NodeId>(),
        }
    }

    /// Heap bytes of the index (term interner + spans + frame store), for
    /// the substrate-footprint statistics.
    pub fn heap_bytes(&self) -> usize {
        self.terms.heap_bytes()
            + self.spans.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.store.frame_first.capacity() * std::mem::size_of::<u32>()
            + self.store.frame_bit_off.capacity() * std::mem::size_of::<u32>()
            + self.store.frame_width.capacity()
            + self.store.data.capacity() * std::mem::size_of::<u64>()
            + self.sorted.capacity() * std::mem::size_of::<Sym>()
    }
}

/// A borrowed view of one packed posting list.
///
/// Random access decodes a whole frame, so hot loops either iterate
/// ([`iter`](Self::iter) caches the current frame) or keep their own frame
/// cache keyed by frame number (the query planner's cursors do).
#[derive(Clone, Copy)]
pub struct PostingsRef<'a> {
    pub(crate) store: &'a PackedStore,
    pub(crate) first_frame: u32,
    pub(crate) len: u32,
}

impl<'a> PostingsRef<'a> {
    /// Number of postings.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of frames backing the list.
    pub(crate) fn frame_count(&self) -> usize {
        self.len().div_ceil(FRAME)
    }

    /// Entries in frame `f` (all frames are full except the last).
    pub(crate) fn count_in_frame(&self, f: usize) -> usize {
        debug_assert!(f < self.frame_count());
        if (f + 1) * FRAME <= self.len() {
            FRAME
        } else {
            self.len() - f * FRAME
        }
    }

    /// First node id of frame `f` — straight from the skip header, no
    /// decode.
    pub(crate) fn frame_first(&self, f: usize) -> u32 {
        self.store.frame_first[self.first_frame as usize + f]
    }

    /// Unpacks frame `f` into `out`, returning the entry count.
    pub(crate) fn decode_frame_into(&self, f: usize, out: &mut [u32; FRAME]) -> usize {
        let n = self.count_in_frame(f);
        let g = self.first_frame as usize + f;
        let first = self.store.frame_first[g];
        out[0] = first;
        match self.store.frame_width[g] {
            0 => {
                for (i, slot) in out[..n].iter_mut().enumerate() {
                    *slot = first + i as u32;
                }
            }
            _ if n > 1 => {
                let mut prev = first;
                for (slot, d) in out[1..n].iter_mut().zip(Deltas::new(self.store, g)) {
                    prev = prev + d + 1;
                    *slot = prev;
                }
            }
            // Single-entry frame with a nonzero width byte: no payload to
            // touch (and its bit offset may sit at the end of the arena).
            _ => {}
        }
        n
    }

    /// Iterates the list in document order, decoding one frame at a time.
    pub fn iter(&self) -> PostingsIter<'a> {
        PostingsIter { list: *self, pos: 0, cache: FrameCache::new() }
    }

    /// A subtree range counter over this list, for repeated
    /// [`RangeCounter::count`] calls that mostly land in nearby frames.
    pub(crate) fn range_counter(&self) -> RangeCounter<'a> {
        RangeCounter { list: *self, cache: FrameCache::new() }
    }

    /// The persistence loader's validation pass over a list read from a
    /// file whose frame headers and payload spans are already bounds-checked:
    /// every id is a node of a document of `nodes` nodes, the ids increase
    /// strictly — across frame boundaries too — and no delta accumulates
    /// past `u32`. Inside a frame ids increase by construction (a delta
    /// adds at least one), so each frame's [`Deltas`] are summed once and
    /// the frame judged by its first and last id; nothing is allocated.
    pub(crate) fn validate(&self, nodes: usize) -> Result<(), ListFault> {
        let mut prev_last: Option<u32> = None;
        for f in 0..self.frame_count() {
            let gaps = self.count_in_frame(f) as u64 - 1;
            let g = self.first_frame as usize + f;
            let first = self.store.frame_first[g];
            let mut span = gaps;
            if self.store.frame_width[g] > 0 && gaps > 0 {
                span += Deltas::new(self.store, g).take(gaps as usize).map(u64::from).sum::<u64>();
            }
            let last =
                u32::try_from(u64::from(first) + span).map_err(|_| ListFault::DeltaOverflow)?;
            if first as usize >= nodes {
                return Err(ListFault::OutOfRange);
            }
            if prev_last.is_some_and(|prev| prev >= first) {
                return Err(ListFault::OutOfOrder);
            }
            if last as usize >= nodes {
                return Err(ListFault::OutOfRange);
            }
            prev_last = Some(last);
        }
        Ok(())
    }
}

/// What [`PostingsRef::validate`] found wrong with a list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ListFault {
    /// The deltas of a frame accumulate past `u32::MAX`.
    DeltaOverflow,
    /// An id is not a node of the document.
    OutOfRange,
    /// A frame starts at or below the id the previous frame ended on.
    OutOfOrder,
}

impl std::fmt::Debug for PostingsRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for PostingsRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl PartialEq<[NodeId]> for PostingsRef<'_> {
    fn eq(&self, other: &[NodeId]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<&[NodeId]> for PostingsRef<'_> {
    fn eq(&self, other: &&[NodeId]) -> bool {
        *self == **other
    }
}

impl PartialEq<Vec<NodeId>> for PostingsRef<'_> {
    fn eq(&self, other: &Vec<NodeId>) -> bool {
        *self == other[..]
    }
}

impl<'a> IntoIterator for PostingsRef<'a> {
    type Item = NodeId;
    type IntoIter = PostingsIter<'a>;
    fn into_iter(self) -> PostingsIter<'a> {
        self.iter()
    }
}

/// The last unpacked frame of one posting list. Everything that reads
/// packed postings in a loop — iteration, the planner's gallop cursors, the
/// scorer's range counters — keeps one, so a run of reads landing in the
/// same frame unpacks it once.
pub(crate) struct FrameCache {
    buf: [u32; FRAME],
    /// Which frame `buf` holds; `usize::MAX` before the first unpack.
    frame: usize,
    len: usize,
}

impl FrameCache {
    pub(crate) fn new() -> FrameCache {
        FrameCache { buf: [0; FRAME], frame: usize::MAX, len: 0 }
    }

    /// The entries of frame `f` if it is the cached one.
    pub(crate) fn cached(&self, f: usize) -> Option<&[u32]> {
        (f == self.frame).then(|| &self.buf[..self.len])
    }

    /// The entries of frame `f` of `list`, unpacking it unless cached.
    pub(crate) fn frame(&mut self, list: &PostingsRef<'_>, f: usize) -> &[u32] {
        if f != self.frame {
            self.len = list.decode_frame_into(f, &mut self.buf);
            self.frame = f;
        }
        &self.buf[..self.len]
    }
}

impl std::fmt::Debug for FrameCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameCache").field("frame", &self.frame).finish_non_exhaustive()
    }
}

/// Iterator over a packed posting list; decodes one frame at a time into an
/// internal buffer.
pub struct PostingsIter<'a> {
    list: PostingsRef<'a>,
    pos: usize,
    cache: FrameCache,
}

impl Iterator for PostingsIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.pos >= self.list.len() {
            return None;
        }
        let v = self.cache.frame(&self.list, self.pos / FRAME)[self.pos % FRAME];
        self.pos += 1;
        Some(NodeId::from_index(v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.list.len() - self.pos;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for PostingsIter<'_> {}

/// Counts the postings of one list inside id intervals — the scorer's term frequency of a result subtree `[root, subtree_end(root))`.
///
/// The frames an interval touches are found by bisecting the skip headers;
/// frames strictly inside the interval are counted from the headers alone,
/// and only the (at most two) boundary frames are unpacked and counted by
/// `xsact_kernel::count_in_range_u32`. The last unpacked frame stays
/// cached, so a run of roots whose subtrees fall into one frame — every run
/// in document order — unpacks it once. Intervals may come in any order;
/// the cache only ever saves work.
#[derive(Debug)]
pub(crate) struct RangeCounter<'a> {
    list: PostingsRef<'a>,
    cache: FrameCache,
}

impl RangeCounter<'_> {
    /// Number of postings with id in `[lo, hi)`.
    pub(crate) fn count(&mut self, lo: u32, hi: u32) -> u32 {
        if lo >= hi {
            return 0;
        }
        let first_frame = self.list.first_frame as usize;
        let firsts =
            &self.list.store.frame_first[first_frame..first_frame + self.list.frame_count()];
        // Frames `[0, end)` start below `hi`; every later frame lies at or
        // above it (ids increase strictly along the list).
        let end = firsts.partition_point(|&first| first < hi);
        let Some(last) = end.checked_sub(1) else { return 0 };
        // The last frame starting at or below `lo` is the only one that can
        // hold ids on both sides of it; earlier frames lie entirely below.
        let start = firsts[..end].partition_point(|&first| first <= lo).saturating_sub(1);
        if start == last {
            return self.count_in_frame(start, lo, hi);
        }
        // Frames strictly between the two boundary frames are full (only a
        // list's last frame is not) and entirely inside the interval.
        let interior = ((last - start - 1) * FRAME) as u32;
        self.count_in_frame(start, lo, hi) + interior + self.count_in_frame(last, lo, hi)
    }

    fn count_in_frame(&mut self, f: usize, lo: u32, hi: u32) -> u32 {
        // The next frame's first id bounds this frame's last from above.
        let ends_below_hi = f + 1 < self.list.frame_count() && self.list.frame_first(f + 1) <= hi;
        if ends_below_hi && self.list.frame_first(f) >= lo {
            return self.list.count_in_frame(f) as u32;
        }
        xsact_kernel::count_in_range_u32(self.cache.frame(&self.list, f), lo, hi)
    }
}

/// Aggregate size figures of an [`InvertedIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of distinct terms.
    pub terms: usize,
    /// Total posting entries across all terms.
    pub total_postings: usize,
    /// Length of the longest posting list.
    pub longest_list: usize,
    /// Resident bytes of the delta-bit-packed posting frames (skip headers
    /// + payload; term dictionary and spans excluded).
    pub packed_postings_bytes: usize,
    /// Bytes the same postings would occupy as a flat `Vec<NodeId>` arena —
    /// the pre-v3 representation, kept as the compression baseline.
    pub flat_postings_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsact_xml::parse_document;

    fn doc() -> Document {
        parse_document(
            "<shop><product category=\"gps\"><name>TomTom Go</name><rating>4.2</rating></product>\
             <product><name>Garmin</name><note>a gps too</note></product></shop>",
        )
        .unwrap()
    }

    #[test]
    fn tag_terms_indexed_on_element() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        // Every element tagged `product` matches the term.
        assert_eq!(idx.postings("product").len(), 2);
        assert_eq!(idx.postings("shop").len(), 1);
        assert_eq!(idx.postings("shop").iter().next(), Some(d.root()));
    }

    #[test]
    fn text_terms_attach_to_parent_element() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        let tomtom = idx.postings("tomtom");
        assert_eq!(tomtom.len(), 1);
        assert_eq!(d.tag(tomtom.iter().next().unwrap()), "name");
    }

    #[test]
    fn attribute_names_and_values_indexed() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        // `gps` occurs as an attribute value on product 1 and in text under
        // product 2's note.
        let gps = idx.postings("gps");
        assert_eq!(gps.len(), 2);
        let tags: Vec<&str> = gps.iter().map(|n| d.tag(n)).collect();
        assert_eq!(tags, ["product", "note"]);
        assert_eq!(idx.postings("category").len(), 1);
    }

    #[test]
    fn postings_in_document_order() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        for term in ["product", "gps", "name"] {
            let list = idx.postings(term).iter().collect::<Vec<_>>();
            for pair in list.windows(2) {
                assert!(pair[0] < pair[1], "term {term} out of order");
                assert!(d.dewey(pair[0]) < d.dewey(pair[1]), "term {term}: id order ≠ path order");
            }
        }
    }

    #[test]
    fn numbers_are_terms() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        assert_eq!(idx.postings("4").len(), 1);
        assert_eq!(idx.postings("2").len(), 1);
    }

    #[test]
    fn missing_term_is_empty() {
        let idx = InvertedIndex::build(&doc());
        assert!(idx.postings("zzz").is_empty());
        assert_eq!(idx.postings("zzz").iter().next(), None);
        assert!(!idx.postings("tomtom").is_empty());
        assert_eq!(idx.term_sym("zzz"), None);
    }

    #[test]
    fn duplicate_terms_in_one_node_deduplicated() {
        let d = parse_document("<a><b>x x x</b></a>").unwrap();
        let idx = InvertedIndex::build(&d);
        assert_eq!(idx.postings("x").len(), 1);
    }

    #[test]
    fn stats_reflect_contents() {
        let idx = InvertedIndex::build(&doc());
        let s = idx.stats();
        assert_eq!(s.terms, idx.dictionary().count());
        assert!(s.total_postings >= s.terms);
        assert!(s.longest_list >= 2); // "product" has two entries
        assert_eq!(s.flat_postings_bytes, s.total_postings * 4);
        assert!(s.packed_postings_bytes > 0);
        assert!(idx.heap_bytes() > 0);
    }

    #[test]
    fn terms_iterate_in_dictionary_order() {
        let idx = InvertedIndex::build(&doc());
        let terms: Vec<&str> = idx.dictionary().map(|(term, _)| term).collect();
        let mut sorted = terms.clone();
        sorted.sort_unstable();
        assert_eq!(terms, sorted);
        assert_eq!(terms.len(), idx.stats().terms);
        // The dictionary pairs terms with their posting lists.
        for (term, list) in idx.dictionary() {
            assert_eq!(list, idx.postings(term));
        }
    }

    #[test]
    fn term_sym_resolves_to_same_span() {
        let idx = InvertedIndex::build(&doc());
        let sym = idx.term_sym("gps").unwrap();
        assert_eq!(idx.postings_of(sym), idx.postings("gps"));
    }

    /// Strictly increasing raw ids packed as the one list of term `t`.
    fn single_list(ids: &[u32]) -> InvertedIndex {
        let mut terms = Interner::new();
        terms.intern("t");
        InvertedIndex::pack(terms, vec![ids.iter().map(|&v| NodeId::from_index(v)).collect()])
    }

    /// Reads `width ≤ 32` bits at bit offset `bit_off` of `data`: the
    /// per-entry read the validator made before it streamed a frame.
    fn read_bits(data: &[u64], bit_off: u64, width: u32) -> u32 {
        let word = (bit_off / 64) as usize;
        let shift = (bit_off % 64) as u32;
        let mut v = data[word] >> shift;
        if shift + width > 64 {
            v |= data[word + 1] << (64 - shift);
        }
        let mask = if width == 32 { u64::from(u32::MAX) } else { (1u64 << width) - 1 };
        (v & mask) as u32
    }

    /// [`PostingsRef::validate`] as it was: one [`read_bits`] per delta.
    /// The oracle of the streaming validator.
    fn validate_oracle(list: &PostingsRef<'_>, nodes: usize) -> Result<(), ListFault> {
        let mut previous: Option<u32> = None;
        for f in 0..list.frame_count() {
            let gaps = list.count_in_frame(f) as u64 - 1;
            let g = list.first_frame as usize + f;
            let first = list.store.frame_first[g];
            let span = match u32::from(list.store.frame_width[g]) {
                0 => gaps,
                w => {
                    let off = u64::from(list.store.frame_bit_off[g]);
                    (0..gaps)
                        .map(|i| u64::from(read_bits(&list.store.data, off + i * u64::from(w), w)))
                        .sum::<u64>()
                        + gaps
                }
            };
            let last_id =
                u32::try_from(u64::from(first) + span).map_err(|_| ListFault::DeltaOverflow)?;
            if first as usize >= nodes {
                return Err(ListFault::OutOfRange);
            }
            if previous.is_some_and(|previous| previous >= first) {
                return Err(ListFault::OutOfOrder);
            }
            if last_id as usize >= nodes {
                return Err(ListFault::OutOfRange);
            }
            previous = Some(last_id);
        }
        Ok(())
    }

    /// A frame as a loaded file may hold it: first id, entry count, width
    /// and the deltas (the first `count - 1` are packed).
    type Frame = (u32, usize, u32, Vec<u32>);

    /// Packs frames of raw deltas payload behind payload, the arena cut at
    /// the last payload word.
    fn packed_frames(frames: &[Frame]) -> PackedStore {
        let mut b = PackedBuilder::default();
        for (first, count, width, deltas) in frames {
            b.store.frame_first.push(*first);
            b.store.frame_bit_off.push(b.bit_len as u32);
            b.store.frame_width.push(*width as u8);
            for &d in &deltas[..count - 1] {
                b.push_bits(d, *width);
            }
        }
        b.store
    }

    /// The streaming validator and the per-entry oracle give the same
    /// verdict on random lists at every width — valid ones and ones that
    /// overflow, leave the document or repeat an id across a frame
    /// boundary — and at the edges a rolling buffer can get wrong.
    #[test]
    fn the_streaming_validator_judges_like_the_per_entry_reads() {
        let mut state = 0x0bad_5eed_1234_5678u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Verdicts seen: valid, overflow, out of range, out of order.
        let mut seen = [0usize; 4];
        // The list is the frames from `first_frame` on; any before it
        // belong to another list.
        let mut judge = |frames: &[Frame], first_frame: usize, nodes: usize| {
            let store = packed_frames(frames);
            let len = frames[first_frame..].iter().map(|frame| frame.1).sum::<usize>() as u32;
            let list = PostingsRef { store: &store, first_frame: first_frame as u32, len };
            let verdict = list.validate(nodes);
            assert_eq!(verdict, validate_oracle(&list, nodes), "{frames:?} over {nodes} nodes");
            seen[match verdict {
                Ok(()) => 0,
                Err(ListFault::DeltaOverflow) => 1,
                Err(ListFault::OutOfRange) => 2,
                Err(ListFault::OutOfOrder) => 3,
            }] += 1;
        };
        let full = |first: u32, width: u32, delta: u32| (first, FRAME, width, vec![delta; FRAME]);
        for width in 1..=32u32 {
            let top = u32::MAX >> (32 - width);
            for _ in 0..48 {
                // Up to three frames, all full but the last, with deltas
                // below the width's ceiling and now and then at it.
                let mut frames: Vec<_> = (0..1 + rng() % 3)
                    .map(|_| {
                        let deltas = (0..FRAME)
                            .map(|_| if rng() % 8 == 0 { top } else { rng() as u32 & top })
                            .collect::<Vec<_>>();
                        ((rng() % 4096) as u32, FRAME, width, deltas)
                    })
                    .collect();
                let last = frames.len() - 1;
                frames[last].1 = 1 + (rng() % FRAME as u64) as usize;
                // Mostly chain each frame behind the previous one, a few
                // starting on its last id.
                let mut next = 0u64;
                for (first, count, _, deltas) in &mut frames {
                    if next > 0 && rng() % 4 != 0 {
                        let start = next - u64::from(rng() % 4 == 0);
                        *first = u32::try_from(start).unwrap_or(u32::MAX);
                    }
                    let span: u64 = deltas[..*count - 1].iter().map(|&d| u64::from(d) + 1).sum();
                    next = u64::from(*first) + span + 1;
                }
                // The last id as the node count, one above it, and others.
                let last_id = next as usize - 1;
                for nodes in [last_id, last_id + 1, last_id + 99, (rng() % 5000) as usize] {
                    judge(&frames, 0, nodes);
                }
            }
            // 64 deltas fill exactly `width` words: the payload ends on a
            // word boundary and the stream must not fetch past it.
            let words = (7, 65, width, vec![top; 65]);
            judge(std::slice::from_ref(&words), 0, usize::MAX);
            judge(&[(7, 65, width, vec![0; 65])], 0, 72);
            // Single-entry frames at the end of the arena, one of them
            // behind that whole-word payload, their ids equal to the node
            // count or below it.
            let tail = [full(0, width, 0), (FRAME as u32 + 5, 1, width, vec![top])];
            judge(&tail, 0, FRAME + 5);
            judge(&tail, 0, FRAME + 6);
            judge(&[words, (9, 1, width, vec![top])], 1, 9);
            judge(&[(9, 65, width, vec![0; 65]), (9, 1, width, vec![top])], 1, 10);
            // A frame starting on the previous frame's last id.
            judge(&[full(0, width, 0), (FRAME as u32 - 1, 1, width, vec![0])], 0, 4 * FRAME);
        }
        // Width-32 deltas that carry the ids past u32, and one that stops
        // exactly on u32::MAX.
        judge(&[(u32::MAX - 300, 3, 32, vec![u32::MAX; 3])], 0, usize::MAX);
        judge(&[(1, FRAME, 32, vec![1 << 25; FRAME])], 0, usize::MAX);
        judge(&[(0, 2, 32, vec![u32::MAX - 1])], 0, usize::MAX);
        judge(&[(0, 2, 32, vec![u32::MAX])], 0, usize::MAX);
        assert!(seen.iter().all(|&n| n > 10), "verdicts seen: {seen:?}");
    }

    /// Packs raw ids as a single-term index and returns the decoded list.
    fn pack_round_trip(ids: &[u32]) -> Vec<u32> {
        let idx = single_list(ids);
        let list = idx.postings("t");
        assert_eq!(list.len(), ids.len());
        let nodes = ids.last().map_or(0, |&last| last as usize + 1);
        assert_eq!(list.validate(nodes), Ok(()));
        if nodes > 0 {
            assert_eq!(list.validate(nodes - 1), Err(ListFault::OutOfRange));
        }
        list.iter().map(|n| n.index() as u32).collect()
    }

    #[test]
    fn consecutive_runs_pack_to_zero_width() {
        let ids: Vec<u32> = (500..500 + 300).collect();
        assert_eq!(pack_round_trip(&ids), ids);
        let idx = single_list(&ids);
        let st = idx.store();
        // 300 consecutive ids → three frames, all width 0, zero payload.
        assert_eq!(st.frame_width, vec![0, 0, 0]);
        assert!(st.data.is_empty());
        assert_eq!(idx.postings("t").frame_count(), 3);
        assert_eq!(idx.postings("t").count_in_frame(2), 300 - 2 * FRAME);
    }

    #[test]
    fn wide_deltas_cross_word_boundaries() {
        // Deltas needing 31 bits force packed values to straddle u64 words.
        let ids: Vec<u32> = (0u64..140).map(|i| (i * 0x4000_1234 % 0x7fff_ffff) as u32).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pack_round_trip(&sorted), sorted);
    }

    #[test]
    fn random_lists_round_trip() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [1usize, 2, 127, 128, 129, 255, 256, 400, 1000] {
            let mut ids: Vec<u32> = (0..len).map(|_| (rng() % 5_000_000) as u32).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(pack_round_trip(&ids), ids, "len {len}");
        }
    }

    #[test]
    fn range_counter_matches_scan() {
        let mut ids: Vec<u32> = (0..1000u32).map(|i| i * 7 % 4096).collect();
        ids.sort_unstable();
        ids.dedup();
        let idx = single_list(&ids);
        let mut counter = idx.postings("t").range_counter();
        for (lo, hi) in
            [(0, 4096), (0, 0), (100, 90), (500, 501), (0, 1), (1000, 3000), (4095, 4096)]
        {
            let expect = ids.iter().filter(|&&v| v >= lo && v < hi).count() as u32;
            assert_eq!(counter.count(lo, hi), expect, "range [{lo}, {hi})");
        }
    }

    /// One cached counter, intervals in random order and of every size
    /// (empty, inside one frame, across many frames, beyond either end),
    /// over lists of every frame shape: the cache must never leak a stale
    /// frame into a count.
    #[test]
    fn range_counter_matches_scan_for_random_intervals_in_random_order() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (len, universe) in [
            (1usize, 50u32),
            (2, 50),
            (127, 300),
            (128, 128),
            (129, 4000),
            (700, 1000),
            (3000, 90000),
        ] {
            let mut ids: Vec<u32> =
                (0..len).map(|_| (rng() % u64::from(universe)) as u32).collect();
            ids.sort_unstable();
            ids.dedup();
            let idx = single_list(&ids);
            let mut counter = idx.postings("t").range_counter();
            for _ in 0..400 {
                let lo = (rng() % u64::from(universe + 10)) as u32;
                let span = match rng() % 4 {
                    0 => 0,
                    1 => (rng() % 8) as u32,
                    2 => (rng() % 200) as u32,
                    _ => (rng() % u64::from(universe + 10)) as u32,
                };
                let hi = lo + span;
                let expect = ids.iter().filter(|&&v| v >= lo && v < hi).count() as u32;
                assert_eq!(counter.count(lo, hi), expect, "len {len}: range [{lo}, {hi})");
            }
        }
    }
}
