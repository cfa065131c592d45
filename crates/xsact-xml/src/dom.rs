//! Pointer-free document object model over the interned-symbol substrate.
//!
//! A [`Document`] is four parallel `u32` arrays indexed by node id —
//! `parent`, `end`, `kind`, `mark` — plus one text arena, one append-only
//! attribute table, the [`Interner`] of tag and attribute names and the
//! table of its distinct tag paths ([`crate::paths`]). Nodes are addressed
//! by the copyable [`NodeId`] handle; no node owns a heap block:
//!
//! * `kind[n]` is the element's tag path, a [`PathId`] into the path
//!   table, and a sentinel for a text run. A path is `(parent path, tag)`,
//!   so the tag is one lookup away (one heap copy per *distinct* name,
//!   4 bytes per occurrence), and structural classification reads the
//!   path and its facts without deriving anything per node;
//! * `mark[n]` is the length of the text arena when `n` was appended. A
//!   text run is appended right behind its node, and nothing else is until
//!   the next node, so the text of `n` is the arena between `mark[n]` and
//!   `mark[n + 1]`;
//! * attribute values live in the same arena, between the marks of their
//!   element and of the node after it; the attribute table holds one
//!   `(owner, name, span)` record per attribute in document order, so an
//!   element finds its records by bisection (and a document without
//!   attributes pays nothing).
//!
//! That is 16 bytes per node plus the text itself, and a few hundred bytes
//! of path table per document; the structural fields the SLCA executor
//! and the scorer read (`parent`, `end`) are contiguous.
//!
//! **Node ids are preorder ranks, and that is the only tree order there
//! is.** A document is built in document order — `add_*` appends a child
//! only to a node that is still open, i.e. on the path from the root to the
//! node appended last, and [`Document::set_attr`] writes only to the node
//! appended last; the parser and every dataset generator build that way,
//! and anything else is a programmer error that panics (see
//! [`Document::add_element`]). Besides its payload a node stores two
//! integers, its parent and its **subtree extent**
//! ([`Document::subtree_end`]), and they answer every structural question:
//!
//! * document order is id order;
//! * the subtree of `n` is the id interval `[n, subtree_end(n))`, so
//!   ancestry is interval containment and a subtree walk is a range;
//! * the first child of `n` is `n + 1` and the next sibling of a child `c`
//!   is `subtree_end(c)` — [`Document::children`] hops along those;
//! * a Dewey path ([`Document::dewey`]) is derived by climbing `parent` and
//!   counting preceding siblings, for the few places that print one.
//!
//! This module is the only one that knows how order and payload are
//! represented; everything above it compares `NodeId`s and calls accessors.
//!
//! Ids and arena offsets are 32-bit. The parser rejects input that could
//! exceed them with a typed error before it starts
//! ([`XmlError::TooLarge`](crate::XmlError::TooLarge)); the programmatic
//! builders panic instead of wrapping — like the order contract, a
//! documented programmer error.
//!
//! Documents can be built programmatically (dataset generators do this) or by
//! the parser in [`crate::parse`], which also records a digest of the
//! source text ([`Document::source_digest`]); every `add_*` builder and
//! [`Document::set_attr`] clears it, so a document that carries one is
//! exactly the parse of that text.
//!
//! # The image
//!
//! [`Document::write_image`] writes the document as the arrays it is, less
//! what they imply — `parent`, the element count and the paths' two facts
//! are derived on load — so a warm boot decodes a document instead of
//! parsing its XML. All integers are `u32` LE (`.xidx` v7 onwards; v6 had
//! no `paths` section and a tag symbol in `kind`):
//!
//! ```text
//! names    count, then per symbol in symbol order: len, UTF-8 bytes
//! paths    count, then per path in id order: parent, tag   8 bytes per path
//! nodes    n, then end[n], kind[n], mark[n]                12 bytes per node
//! attrs    count, then per record: owner, name, start, len
//! text     len, then the arena's UTF-8 bytes
//! ```
//!
//! [`Document::read_image`] measures every section against the bytes
//! present before it allocates, sizes each array exactly, checks the marks,
//! derives each path's `internal` from the table (a path is internal when
//! another extends it), and derives `parent`, the element count and each
//! path's `repeats` in one stack pass over the rest, so a document it
//! returns is one the builders could have built:
//!
//! * node 0 is an element whose extent is the whole array (a single
//!   root); every other extent satisfies `end[i] > i` and lies inside its
//!   parent's, and elements nest at most [`MAX_DEPTH`] deep;
//! * the path table is distinct `(parent, tag)` pairs of known names; path
//!   0 has no parent (`u32::MAX`) and every other path's parent precedes
//!   it;
//! * a text run (`kind` [`u32::MAX`]) has no children; the root is on path
//!   0, and every other element's kind is a path of the table whose parent
//!   is its parent node's path; paths are first met in id order, and every
//!   path is met;
//! * marks start at 0, never decrease, stay inside the arena and fall on
//!   char boundaries of it (the arena is UTF-8);
//! * attribute records are sorted by owner, owned by elements, and name
//!   known symbols; an element's records tile its window of the arena —
//!   from its mark to the next node's — back to back, as `set_attr` writes
//!   them.
//!
//! Anything else is a typed [`io::ErrorKind::InvalidData`] (a section
//! shorter than it declares is [`io::ErrorKind::UnexpectedEof`]), and a
//! document read back writes the same image bytes. Documents built
//! programmatically deeper than [`MAX_DEPTH`] write an image no reader
//! accepts.

use crate::dewey::DeweyId;
use crate::error::XmlResult;
use crate::interner::{Interner, Sym, WordHasher};
use crate::parse::MAX_DEPTH;
use crate::paths::{PathId, PathTable, TagPath};
use std::fmt;
use std::io::{self, Write};
use std::ops::Range;

/// Handle to a node inside a [`Document`]'s arena.
///
/// `NodeId`s are only meaningful for the document that created them; using a
/// handle with a different document yields unspecified (but memory-safe)
/// results, like indexing a `Vec` with a stale index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The arena index of this handle.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a handle from an arena index previously obtained via
    /// [`NodeId::index`] — e.g. when unpacking a compressed posting frame
    /// whose entries were validated against the document when it was built.
    /// Performs no bounds check; compare an untrusted index against
    /// [`Document::len`] first.
    pub fn from_index(index: u32) -> NodeId {
        NodeId(index)
    }
}

/// `parent` of the root and `kind` of a text run. No node id and no symbol
/// reaches this value: [`narrow`] stops a document one short of it.
const NONE: u32 = u32::MAX;

/// Narrows a node count or an arena length to the 32 bits that ids and text
/// spans are stored in.
///
/// # Panics
/// Panics at `u32::MAX` and beyond. The parser never gets here — it checks
/// the input's length once — so this is the programmatic builders'
/// documented limit.
#[inline]
fn narrow(n: usize) -> u32 {
    match u32::try_from(n) {
        Ok(n) if n != NONE => n,
        _ => too_large(),
    }
}

#[cold]
fn too_large() -> ! {
    panic!(
        "a document holds fewer than u32::MAX nodes and fewer than u32::MAX bytes of text \
         and attribute values; split the data into several documents"
    )
}

/// One attribute of one element: `name="value"`, the value a span of the
/// text arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AttrRecord {
    /// The element's node id; the table is sorted by it.
    owner: u32,
    name: Sym,
    start: u32,
    len: u32,
}

/// An XML document: one root element plus its descendants.
#[derive(Debug, Clone)]
pub struct Document {
    symbols: Interner,
    /// Node id of the parent, [`NONE`] for the root.
    parent: Vec<u32>,
    /// One past the largest id in the node's subtree.
    end: Vec<u32>,
    /// The tag path of an element, [`NONE`] for a text run.
    kind: Vec<u32>,
    /// Length of `text` when the node was appended.
    mark: Vec<u32>,
    /// Every text run and attribute value, in document order.
    text: String,
    /// Every attribute, in document order.
    attrs: Vec<AttrRecord>,
    /// Every distinct tag path, first-seen in preorder.
    paths: PathTable,
    /// Number of element nodes, maintained incrementally — the ranking
    /// scorer needs it per query, and recounting 10⁴ nodes per search was
    /// a measurable constant cost.
    element_count: usize,
    /// The digest of the XML text this document is the parse of; `None`
    /// once a builder changed it, and for a document built in code.
    source_digest: Option<u64>,
}

/// Two documents are equal when they hold the same tree: the same names in
/// the same symbol order, the same paths, node arrays, attribute table and
/// text.
/// Where a document came from — its
/// [`source_digest`](Document::source_digest) — is not part of it.
impl PartialEq for Document {
    fn eq(&self, other: &Document) -> bool {
        self.symbols.iter().eq(other.symbols.iter())
            && self.parent == other.parent
            && self.end == other.end
            && self.kind == other.kind
            && self.mark == other.mark
            && self.text == other.text
            && self.attrs == other.attrs
            && self.paths.paths() == other.paths.paths()
            && self.element_count == other.element_count
    }
}

impl Eq for Document {}

/// Heap-size breakdown of a document's interned substrate. Produced by
/// [`Document::substrate_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubstrateStats {
    /// Total nodes (elements + text runs).
    pub nodes: usize,
    /// Distinct interned tag/attribute-name symbols.
    pub distinct_symbols: usize,
    /// Heap bytes of the symbol interner (arena + spans + probe table).
    pub interner_bytes: usize,
    /// Heap bytes of the text arena (text runs and attribute values).
    pub text_bytes: usize,
    /// Heap bytes of the node table itself (the four per-node arrays and
    /// the attribute table).
    pub node_table_bytes: usize,
    /// Heap bytes of the path table (entries, stamps and probe table).
    pub path_table_bytes: usize,
}

impl Document {
    /// Creates a document whose root element has tag `root_tag`.
    pub fn new(root_tag: impl AsRef<str>) -> Self {
        Document::for_input(root_tag.as_ref(), 0)
    }

    /// [`new`](Self::new) for the parser, about to read `input_len` bytes of
    /// XML: a small input is reserved for whole (data-centric XML spends
    /// eight bytes and more per node, and less than half of itself on
    /// text); a large one gets its reservation from
    /// [`reserve_like_sample`](Self::reserve_like_sample).
    pub(crate) fn for_input(root_tag: &str, input_len: usize) -> Self {
        let nodes = (input_len / 8).min(256) + 1;
        let mut symbols = Interner::new();
        let tag = symbols.intern(root_tag);
        let mut doc = Document {
            symbols,
            parent: Vec::with_capacity(nodes),
            end: Vec::with_capacity(nodes),
            kind: Vec::with_capacity(nodes),
            mark: Vec::with_capacity(nodes),
            text: String::with_capacity((input_len / 2).min(4096)),
            attrs: Vec::new(),
            paths: PathTable::new(tag),
            element_count: 0,
            source_digest: None,
        };
        doc.push(NONE, 0);
        doc
    }

    /// The parser's one reservation: `consumed` bytes of an `input_len`-byte
    /// input produced what the document holds so far, and data-centric XML
    /// is uniform enough for the rest to need the same per byte. Every
    /// array is sized for that (plus an eighth), so none doubles on the
    /// way; [`shrink_to_fit`](Self::shrink_to_fit) returns the slack.
    pub(crate) fn reserve_like_sample(&mut self, consumed: usize, input_len: usize) {
        let whole = |part: usize| {
            let scaled = part as u128 * input_len as u128 / consumed.max(1) as u128;
            usize::try_from(scaled + scaled / 8).unwrap_or(usize::MAX)
        };
        let more_nodes = whole(self.len()).saturating_sub(self.len());
        for array in [&mut self.parent, &mut self.end, &mut self.kind, &mut self.mark] {
            array.reserve_exact(more_nodes);
        }
        self.text.reserve_exact(whole(self.text.len()).saturating_sub(self.text.len()));
        self.attrs.reserve_exact(whole(self.attrs.len()).saturating_sub(self.attrs.len()));
    }

    /// Gives back the capacity the arrays did not use.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.parent.shrink_to_fit();
        self.end.shrink_to_fit();
        self.kind.shrink_to_fit();
        self.mark.shrink_to_fit();
        self.text.shrink_to_fit();
        self.attrs.shrink_to_fit();
    }

    /// The parser's last step: this document is the parse of `source`.
    pub(crate) fn record_source(&mut self, source: &[u8]) {
        self.source_digest = Some(WordHasher::hash(source));
    }

    /// The [`WordHasher`] digest of the XML text this document was parsed
    /// from — `None` for a document built in code, and for a parsed one
    /// that a builder (`add_*`, [`set_attr`](Self::set_attr)) changed since.
    /// A persisted image keyed by it is valid for exactly that text.
    pub fn source_digest(&self) -> Option<u64> {
        self.source_digest
    }

    /// The root element.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of nodes (elements + text runs) in the document.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Number of element nodes (text runs excluded), maintained
    /// incrementally — `O(1)`, equal to
    /// `all_nodes().filter(|n| is_element(n)).count()`.
    pub fn element_count(&self) -> usize {
        self.element_count
    }

    /// Whether the document holds only the root element.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// The document's symbol interner (tag and attribute names).
    pub fn interner(&self) -> &Interner {
        &self.symbols
    }

    /// The element tag, or `""` for a text node.
    pub fn tag(&self, id: NodeId) -> &str {
        self.tag_sym(id).map_or("", |tag| self.symbols.resolve(tag))
    }

    /// The element tag's interned symbol, or `None` for a text node.
    pub fn tag_sym(&self, id: NodeId) -> Option<Sym> {
        let kind = self.kind[id.index()];
        (kind != NONE).then(|| self.paths.get(kind).tag)
    }

    /// The element's tag path, or `None` for a text node.
    pub fn path_id(&self, id: NodeId) -> Option<PathId> {
        let kind = self.kind[id.index()];
        (kind != NONE).then_some(PathId::from_raw(kind))
    }

    /// Every distinct tag path of the document, indexed by [`PathId`]: the
    /// root element's first, each after its parent path, in the order
    /// preorder first meets them.
    pub fn paths(&self) -> &[TagPath] {
        self.paths.paths()
    }

    /// The text of a text node, or `None` for an element.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        if self.is_element(id) {
            return None;
        }
        let start = self.mark[id.index()] as usize;
        let end = self.mark.get(id.index() + 1).map_or(self.text.len(), |&next| next as usize);
        Some(&self.text[start..end])
    }

    /// Whether `id` is an element node.
    pub fn is_element(&self, id: NodeId) -> bool {
        self.kind[id.index()] != NONE
    }

    /// The attribute records of `id`: the run of the table owned by it.
    fn attr_records(&self, id: NodeId) -> &[AttrRecord] {
        if self.attrs.is_empty() {
            return &[];
        }
        let first = self.attrs.partition_point(|a| a.owner < id.0);
        let count = self.attrs[first..].iter().take_while(|a| a.owner == id.0).count();
        &self.attrs[first..first + count]
    }

    /// Attributes of an element in document order, as resolved
    /// `(name, value)` pairs (empty for text nodes).
    pub fn attrs(&self, id: NodeId) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.attrs_syms(id).map(|(name, value)| (self.symbols.resolve(name), value))
    }

    /// Attributes of an element with interned name symbols (empty for text
    /// nodes).
    pub fn attrs_syms(&self, id: NodeId) -> impl Iterator<Item = (Sym, &str)> + '_ {
        self.attr_records(id)
            .iter()
            .map(|a| (a.name, &self.text[a.start as usize..(a.start + a.len) as usize]))
    }

    /// Number of attributes on the node.
    pub fn attr_count(&self, id: NodeId) -> usize {
        self.attr_records(id).len()
    }

    /// Number of attributes on the nodes of the subtree of `id`: the run of
    /// the table owned by the id interval `[id, subtree_end(id))`.
    pub fn subtree_attr_count(&self, id: NodeId) -> usize {
        let end = self.end[id.index()];
        self.attrs.partition_point(|a| a.owner < end)
            - self.attrs.partition_point(|a| a.owner < id.0)
    }

    /// Looks up an attribute value by name.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        // A name that was never interned cannot be an attribute of any node.
        let sym = self.symbols.lookup(name)?;
        self.attrs_syms(id).find(|&(n, _)| n == sym).map(|(_, v)| v)
    }

    /// The node's parent, or `None` for the root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let parent = self.parent[id.index()];
        (parent != NONE).then_some(NodeId(parent))
    }

    /// One past the largest node id in the subtree of `id`: the subtree is
    /// the contiguous id interval `[id, subtree_end(id))`, so
    /// `subtree_end(id) - id == descendants(id).count()`.
    pub fn subtree_end(&self, id: NodeId) -> u32 {
        self.end[id.index()]
    }

    /// The node's children in document order: the first is `id + 1`, and
    /// each next one starts where the previous child's subtree ends.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children { end: &self.end, ids: id.0 + 1..self.end[id.index()] }
    }

    /// Child *elements* in document order (text runs skipped).
    pub fn child_elements(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id).filter(|&c| self.is_element(c))
    }

    /// First child element with the given tag.
    pub fn child_by_tag(&self, id: NodeId, tag: &str) -> Option<NodeId> {
        let sym = self.symbols.lookup(tag)?;
        self.child_elements(id).find(|&c| self.tag_sym(c) == Some(sym))
    }

    /// All child elements with the given tag.
    pub fn children_by_tag<'a>(
        &'a self,
        id: NodeId,
        tag: &str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let sym = self.symbols.lookup(tag);
        self.child_elements(id).filter(move |&c| sym.is_some() && self.tag_sym(c) == sym)
    }

    /// The node's Dewey identifier, derived by climbing to the root and
    /// counting each ancestor-or-self's preceding siblings —
    /// `O(depth · fan-out)`, meant for labels and diagnostics. Order and
    /// ancestry questions are answered by the ids themselves.
    pub fn dewey(&self, id: NodeId) -> DeweyId {
        let mut components = Vec::new();
        let mut cur = id;
        while let Some(parent) = self.parent(cur) {
            let ordinal = self.children(parent).take_while(|&c| c != cur).count();
            components.push(narrow(ordinal));
            cur = parent;
        }
        components.push(0);
        components.reverse();
        DeweyId::from_path(components)
    }

    /// Appends a child element to `parent`, returning the new node's handle.
    ///
    /// # Panics
    /// Like every `add_*` method, panics unless `parent` is still open —
    /// the node appended last or one of its ancestors
    /// (`subtree_end(parent) == len()`). Documents are built in document
    /// order; once a later sibling subtree has been started, the earlier
    /// one cannot grow. Build a subtree completely before moving on.
    ///
    /// Also panics, like every builder, when the document would reach
    /// `u32::MAX` nodes or bytes of text — ids and spans are 32-bit.
    pub fn add_element(&mut self, parent: NodeId, tag: impl AsRef<str>) -> NodeId {
        self.assert_open(parent);
        let path = self.child_path(parent, tag.as_ref());
        self.add_node(parent, path)
    }

    /// Appends a text child to `parent`, copying `text` into the document's
    /// arena. Panics if `parent` is closed, see
    /// [`add_element`](Self::add_element).
    pub fn add_text(&mut self, parent: NodeId, text: impl AsRef<str>) -> NodeId {
        self.assert_open(parent);
        let node = self.add_node(parent, NONE);
        self.text.push_str(text.as_ref());
        node
    }

    /// Convenience: appends `<tag>text</tag>` under `parent` and returns the
    /// element's handle. Panics if `parent` is closed, see
    /// [`add_element`](Self::add_element).
    pub fn add_leaf(
        &mut self,
        parent: NodeId,
        tag: impl AsRef<str>,
        text: impl AsRef<str>,
    ) -> NodeId {
        let el = self.add_element(parent, tag);
        self.add_text(el, text);
        el
    }

    /// Adds an attribute to the element appended last, copying `value` into
    /// the document's arena.
    ///
    /// # Panics
    /// Panics if `id` is a text node, and — attributes are part of the
    /// document-order contract — unless `id` is the node appended last
    /// (`id.index() + 1 == len()`): an element takes its attributes before
    /// it takes children and before anything follows it.
    pub fn set_attr(&mut self, id: NodeId, name: impl AsRef<str>, value: impl AsRef<str>) {
        assert!(self.is_element(id), "set_attr on a text node");
        assert!(
            id.index() + 1 == self.len(),
            "attributes are set in document order: node {} is no longer the node appended last",
            id.0
        );
        self.source_digest = None;
        let name = self.symbols.intern(name.as_ref());
        let start = self.text.len();
        self.text.push_str(value.as_ref());
        self.record_attr(id, name, start);
    }

    /// The parser's `set_attr`: `id` is the element appended last, and
    /// `write` appends the value to the arena.
    pub(crate) fn push_attr(
        &mut self,
        id: NodeId,
        name: &str,
        write: impl FnOnce(&mut String) -> XmlResult<()>,
    ) -> XmlResult<()> {
        let name = self.symbols.intern(name);
        let start = self.text.len();
        write(&mut self.text)?;
        self.record_attr(id, name, start);
        Ok(())
    }

    /// Records that the arena from `start` to its end is the value of
    /// attribute `name` of `id`.
    fn record_attr(&mut self, id: NodeId, name: Sym, start: usize) {
        let end = narrow(self.text.len());
        let start = narrow(start);
        self.attrs.push(AttrRecord { owner: id.0, name, start, len: end - start });
    }

    /// The path of a new element with tag `tag` under the element
    /// `parent`, the two facts its append settles recorded.
    fn child_path(&mut self, parent: NodeId, tag: &str) -> u32 {
        let tag = self.symbols.intern(tag);
        self.paths.child(self.kind[parent.index()], tag, parent.0)
    }

    /// Appends a node record; the caller settles the ancestors' extents.
    fn push(&mut self, parent: u32, kind: u32) -> NodeId {
        let id = narrow(self.len());
        self.parent.push(parent);
        self.end.push(id + 1);
        self.kind.push(kind);
        self.mark.push(narrow(self.text.len()));
        if kind != NONE {
            self.element_count += 1;
        }
        NodeId(id)
    }

    /// Panics unless `parent` is an element that can take a child.
    fn assert_open(&self, parent: NodeId) {
        // The new node lands directly behind the parent's current subtree
        // iff the parent is still on the rightmost path — what keeps ids
        // preorder ranks and every subtree one id interval.
        assert!(
            self.end[parent.index()] as usize == self.len(),
            "nodes are appended in document order: node {} is closed (a later sibling \
             subtree was started after it) and cannot take another child",
            parent.0
        );
        assert!(self.is_element(parent), "a text run takes no children");
    }

    /// Appends a node below the open element `parent`.
    fn add_node(&mut self, parent: NodeId, kind: u32) -> NodeId {
        self.source_digest = None;
        let id = self.push(parent.0, kind);
        // The new id is the largest so far, so it extends every ancestor's
        // extent. O(depth), and the ancestors of the node being appended are
        // the hottest entries while a document is built.
        let end = id.0 + 1;
        let mut cur = parent.0;
        while cur != NONE {
            self.end[cur as usize] = end;
            cur = self.parent[cur as usize];
        }
        id
    }

    /// The parser's `add_element`: appends a child element that stays open
    /// until [`close_element`](Self::close_element). Between the two calls
    /// the extents of the open elements are not settled — the parser hands
    /// out a document only once every element is closed — which replaces
    /// the ancestor walk per node by one write per element.
    pub(crate) fn open_element(&mut self, parent: NodeId, tag: &str) -> NodeId {
        let path = self.child_path(parent, tag);
        self.push(parent.0, path)
    }

    /// Settles the extent of an element opened by
    /// [`open_element`](Self::open_element) (or of the root): everything
    /// appended since is its subtree.
    pub(crate) fn close_element(&mut self, node: NodeId) {
        self.end[node.index()] = narrow(self.len());
    }

    /// The parser's `add_text`: appends a text child of the open element
    /// `parent` whose content `write` appends to the arena.
    pub(crate) fn push_text(
        &mut self,
        parent: NodeId,
        write: impl FnOnce(&mut String) -> XmlResult<()>,
    ) -> XmlResult<()> {
        self.push(parent.0, NONE);
        write(&mut self.text)
    }

    /// Iterates the subtree rooted at `start` in document (pre)order,
    /// including `start` itself: the id interval
    /// `[start, subtree_end(start))`. Allocates nothing.
    pub fn descendants(&self, start: NodeId) -> Descendants {
        Descendants { ids: start.0..self.end[start.index()] }
    }

    /// Iterates every node of the document in document order.
    pub fn all_nodes(&self) -> Descendants {
        self.descendants(self.root())
    }

    /// Concatenated text content of the subtree rooted at `id`, with single
    /// spaces between adjacent text runs.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for node in self.descendants(id) {
            if let Some(t) = self.text(node) {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(t);
            }
        }
        out
    }

    /// Whether the element's children are all text nodes (or it has none).
    /// Text nodes themselves are not leaves in this sense.
    pub fn is_leaf_element(&self, id: NodeId) -> bool {
        self.is_element(id) && self.child_elements(id).next().is_none()
    }

    /// Depth of the node (root = 1), found by climbing to the root.
    pub fn depth(&self, id: NodeId) -> usize {
        std::iter::successors(Some(id), |&n| self.parent(n)).count()
    }

    /// Measures the heap footprint of the interned substrate, from the
    /// capacities of its arrays.
    pub fn substrate_stats(&self) -> SubstrateStats {
        use std::mem::size_of;
        let per_node = self.parent.capacity()
            + self.end.capacity()
            + self.kind.capacity()
            + self.mark.capacity();
        SubstrateStats {
            nodes: self.len(),
            distinct_symbols: self.symbols.len(),
            interner_bytes: self.symbols.heap_bytes(),
            text_bytes: self.text.capacity(),
            node_table_bytes: per_node * size_of::<u32>()
                + self.attrs.capacity() * size_of::<AttrRecord>(),
            path_table_bytes: self.paths.heap_bytes(),
        }
    }
}

/// Image I/O: see the module docs for the layout and what the reader
/// checks.
impl Document {
    /// Writes the document's image to `w`: a few small writes and one
    /// per kilobyte of the arrays, so a buffered writer bounds what a save
    /// holds, whatever the document's size.
    pub fn write_image(&self, w: &mut impl Write) -> io::Result<()> {
        // Every count and length below is under `u32::MAX`: the builders
        // and the interner narrow them on the way in.
        let count = |n: usize| (n as u32).to_le_bytes();
        w.write_all(&count(self.symbols.len()))?;
        for (_, name) in self.symbols.iter() {
            w.write_all(&count(name.len()))?;
            w.write_all(name.as_bytes())?;
        }
        w.write_all(&count(self.paths().len()))?;
        for path in self.paths() {
            let parent = path.parent.map_or(NONE, |p| p.index() as u32);
            write_u32s(w, &[parent, path.tag.raw()])?;
        }
        w.write_all(&count(self.len()))?;
        for array in [&self.end, &self.kind, &self.mark] {
            write_u32s(w, array)?;
        }
        w.write_all(&count(self.attrs.len()))?;
        for a in &self.attrs {
            write_u32s(w, &[a.owner, a.name.raw(), a.start, a.len])?;
        }
        w.write_all(&count(self.text.len()))?;
        w.write_all(self.text.as_bytes())
    }

    /// Moves `r` past a document image, checking only that every section
    /// it declares is present: what the reader of a larger file runs over
    /// all of it before allocating for any part.
    pub fn skip_image(r: &mut ImageReader<'_>) -> io::Result<()> {
        ImageSizes::measure(r).map(drop)
    }

    /// Reads an image [`write_image`](Self::write_image) wrote from the
    /// front of `r`, leaving `r` behind it. `source_digest` is what the
    /// caller's header recorded for it.
    pub fn read_image(r: &mut ImageReader<'_>, source_digest: Option<u64>) -> io::Result<Document> {
        // Measure before allocating: a short image fails here having
        // allocated nothing, and every capacity below is exact.
        let ImageSizes {
            names,
            name_bytes,
            paths: path_count,
            nodes: n,
            attrs: attr_count,
            text: text_len,
        } = ImageSizes::measure(&mut r.clone())?;
        if n == 0 || n == NONE as usize {
            return Err(bad_image("the node count is 0 or past the id space"));
        }
        // Every path is some element's, so they are no more than the nodes.
        if path_count == 0 || path_count > n {
            return Err(bad_image("the path count is 0 or past the node count"));
        }

        let mut symbols = Interner::with_capacity(names, name_bytes);
        r.u32()?;
        for i in 0..names {
            let len = r.u32()? as usize;
            let name =
                std::str::from_utf8(r.take(len)?).map_err(|_| bad_image("a name is not UTF-8"))?;
            if symbols.intern(name).index() != i {
                return Err(bad_image("the name table repeats a name"));
            }
        }
        let names = names as u32;
        r.u32()?;
        let mut paths = PathTable::with_capacity(path_count);
        for id in 0..path_count {
            let (parent, tag) = (r.u32()?, r.u32()?);
            let parent = match parent {
                NONE if id == 0 => None,
                parent if (parent as usize) < id => Some(PathId::from_raw(parent)),
                _ => return Err(bad_image("a path's parent does not precede it")),
            };
            if tag >= names {
                return Err(bad_image("a path's tag is not a known name"));
            }
            if paths.add(parent, Sym::from_raw(tag)).is_none() {
                return Err(bad_image("the path table repeats a path"));
            }
        }
        r.u32()?;
        let end = r.u32s(n)?;
        let kind = r.u32s(n)?;
        let mark = r.u32s(n)?;
        r.u32()?;
        let (records, _) = r.take(16 * attr_count)?.as_chunks::<16>();
        let attrs: Vec<AttrRecord> = records
            .iter()
            .map(|record| {
                let field = |i: usize| u32::from_le_bytes(record.as_chunks().0[i]);
                AttrRecord {
                    owner: field(0),
                    name: Sym::from_raw(field(1)),
                    start: field(2),
                    len: field(3),
                }
            })
            .collect();
        r.u32()?;
        let text = std::str::from_utf8(r.take(text_len)?)
            .map_err(|_| bad_image("the text arena is not UTF-8"))?;

        // Marks first, in passes of their own: they start at 0, never
        // decrease, stay inside the arena and fall on char boundaries.
        let text_end = text.len() as u32;
        let sorted = mark.windows(2).fold(mark[0] == 0, |ok, w| ok & (w[0] <= w[1]));
        if !sorted || !mark.iter().all(|&at| text.is_char_boundary(at as usize)) {
            return Err(bad_image("marks are not monotone char boundaries of the arena"));
        }
        // Then one stack pass checks the rest and derives what the image
        // omits: parents, the element count and which paths repeat.
        let mut parent = vec![0; n];
        // The open elements, `(id, extent)`, innermost at `depth - 1`, over
        // the root's parent: the whole array, whose extent no id reaches.
        let mut open = [(NONE, n as u32); MAX_DEPTH + 1];
        let mut depth = 1;
        let mut element_count = 0;
        // The first path no node has been met on yet.
        let mut next_path = 1;
        let mut next_attr = 0;
        for (i, ((up, &extent), &k)) in parent.iter_mut().zip(&end).zip(&kind).enumerate() {
            let id = i as u32;
            while open[depth - 1].1 <= id {
                depth -= 1;
            }
            let up_end;
            (*up, up_end) = open[depth - 1];
            if extent <= id || extent > up_end || (i == 0 && extent != up_end) {
                return Err(bad_image("a subtree extent is not nested in its parent's"));
            }
            if k == NONE {
                if i == 0 || extent != id + 1 {
                    return Err(bad_image("a text run is the root or has children"));
                }
            } else {
                if i > 0 {
                    let Some(path) = paths.paths().get(k as usize) else {
                        return Err(bad_image("an element's path is not in the path table"));
                    };
                    if path.parent != Some(PathId::from_raw(kind[*up as usize])) {
                        return Err(bad_image("an element's path does not extend its parent's"));
                    }
                    if k > next_path {
                        return Err(bad_image("paths are not numbered in first-seen order"));
                    }
                    next_path += u32::from(k == next_path);
                    paths.note_child(k, *up);
                } else if k != 0 {
                    return Err(bad_image("the root is not on path 0"));
                }
                element_count += 1;
                if depth > MAX_DEPTH {
                    return Err(bad_image("elements nest deeper than MAX_DEPTH"));
                }
                open[depth] = (id, extent);
                depth += 1;
                // The element's records tile its window of the arena.
                let window_end = mark.get(i + 1).copied().unwrap_or(text_end);
                let mut cursor = mark[i];
                while let Some(a) = attrs.get(next_attr).filter(|a| a.owner == id) {
                    let value_end = a.start.checked_add(a.len).filter(|&e| e <= window_end);
                    let Some(value_end) = value_end.filter(|_| a.start == cursor) else {
                        return Err(bad_image(
                            "attribute values do not tile their element's window",
                        ));
                    };
                    if a.name.raw() >= names || !text.is_char_boundary(value_end as usize) {
                        return Err(bad_image("an attribute has an unknown name or a split char"));
                    }
                    cursor = value_end;
                    next_attr += 1;
                }
                if cursor != window_end {
                    return Err(bad_image("attribute values do not tile their element's window"));
                }
            }
            if attrs.get(next_attr).is_some_and(|a| a.owner <= id) {
                return Err(bad_image("attribute records are out of order or on a text run"));
            }
        }
        if next_attr != attrs.len() {
            return Err(bad_image("an attribute record is owned by no node"));
        }
        if next_path as usize != path_count {
            return Err(bad_image("a path is met by no node"));
        }
        Ok(Document {
            symbols,
            parent,
            end,
            kind,
            mark,
            text: text.to_owned(),
            attrs,
            paths,
            element_count,
            source_digest,
        })
    }
}

/// The counts and lengths an image declares, each checked against the
/// bytes present.
struct ImageSizes {
    names: usize,
    name_bytes: usize,
    paths: usize,
    nodes: usize,
    attrs: usize,
    text: usize,
}

impl ImageSizes {
    /// Walks the name lengths and the declared section sizes, leaving `r`
    /// behind the image.
    fn measure(r: &mut ImageReader<'_>) -> io::Result<ImageSizes> {
        let names = r.u32()? as usize;
        let mut name_bytes = 0;
        for _ in 0..names {
            let len = r.u32()? as usize;
            r.take(len)?;
            name_bytes += len;
        }
        let paths = r.u32()? as usize;
        r.take(8usize.saturating_mul(paths))?;
        let nodes = r.u32()? as usize;
        r.take(12usize.saturating_mul(nodes))?;
        let attrs = r.u32()? as usize;
        r.take(16usize.saturating_mul(attrs))?;
        let text = r.u32()? as usize;
        r.take(text)?;
        Ok(ImageSizes { names, name_bytes, paths, nodes, attrs, text })
    }
}

fn bad_image(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt document image: {msg}"))
}

/// Writes `values` as `u32` LE, a kilobyte at a time.
fn write_u32s(w: &mut impl Write, values: &[u32]) -> io::Result<()> {
    let mut bytes = [0; 1024];
    for chunk in values.chunks(bytes.len() / 4) {
        for (out, value) in bytes.chunks_exact_mut(4).zip(chunk) {
            out.copy_from_slice(&value.to_le_bytes());
        }
        w.write_all(&bytes[..4 * chunk.len()])?;
    }
    Ok(())
}

/// Bounds-checked reader over a persisted image: running past the end is
/// the typed [`io::ErrorKind::UnexpectedEof`] a short `read_exact` gives.
/// `Copy`, so a reader can skim ahead and measure without moving the
/// original.
#[derive(Debug, Clone, Copy)]
pub struct ImageReader<'a> {
    rest: &'a [u8],
}

impl<'a> ImageReader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> ImageReader<'a> {
        ImageReader { rest: bytes }
    }

    /// The bytes not read yet.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "image is shorter than its header declares",
            ));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes, as an array.
    pub fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// The next `u32` LE.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// The next `u64` LE.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// The next `n` `u32` LE values, in a vector of exactly that size.
    fn u32s(&mut self, n: usize) -> io::Result<Vec<u32>> {
        let (words, _) = self.take(4usize.saturating_mul(n))?.as_chunks();
        Ok(words.iter().map(|&word| u32::from_le_bytes(word)).collect())
    }
}

/// Pre-order iterator over a subtree: its id interval. Created by
/// [`Document::descendants`].
#[derive(Debug, Clone)]
pub struct Descendants {
    ids: Range<u32>,
}

impl Iterator for Descendants {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        self.ids.next().map(NodeId)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

/// Iterator over a node's children in document order. Created by
/// [`Document::children`].
#[derive(Debug, Clone)]
pub struct Children<'a> {
    /// The document's subtree extents.
    end: &'a [u32],
    /// From the next child's id to the end of the parent's subtree.
    ids: Range<u32>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.ids.is_empty() {
            return None;
        }
        let child = self.ids.start;
        self.ids.start = self.end[child as usize];
        Some(NodeId(child))
    }
}

impl fmt::Display for Document {
    /// Displays the document as compact XML.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let opts = crate::writer::WriteOptions::compact();
        f.write_str(&crate::writer::write_document(self, &opts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_count_is_maintained_incrementally() {
        let (doc, ..) = sample();
        assert_eq!(doc.element_count(), doc.all_nodes().filter(|&n| doc.is_element(n)).count());
        assert_eq!(doc.element_count(), 4, "shop + product + name + rating; text excluded");
        let fresh = Document::new("r");
        assert_eq!(fresh.element_count(), 1);
    }

    /// `<shop><product id="1"><name>TomTom</name><rating>4.2</rating></product>text</shop>`
    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        let mut doc = Document::new("shop");
        let root = doc.root();
        let product = doc.add_element(root, "product");
        doc.set_attr(product, "id", "1");
        let name = doc.add_leaf(product, "name", "TomTom");
        doc.add_leaf(product, "rating", "4.2");
        doc.add_text(root, "text");
        (doc, root, product, name)
    }

    #[test]
    fn construction_links_parents_and_children() {
        let (doc, root, product, name) = sample();
        assert_eq!(doc.parent(root), None);
        assert_eq!(doc.parent(product), Some(root));
        assert_eq!(doc.parent(name), Some(product));
        assert_eq!(doc.children(root).count(), 2);
        assert_eq!(doc.children(product).count(), 2);
        assert_eq!(doc.len(), 7);
        assert!(!doc.is_empty());
        assert!(Document::new("x").is_empty());
    }

    #[test]
    fn dewey_ids_follow_child_ordinals() {
        let (doc, root, product, name) = sample();
        assert_eq!(doc.dewey(root).to_string(), "0");
        assert_eq!(doc.dewey(product).to_string(), "0.0");
        assert_eq!(doc.dewey(name).to_string(), "0.0.0");
        let rating = doc.child_by_tag(product, "rating").unwrap();
        assert_eq!(doc.dewey(rating).to_string(), "0.0.1");
    }

    #[test]
    fn attributes_lookup() {
        let (doc, _, product, _) = sample();
        assert_eq!(doc.attr(product, "id"), Some("1"));
        assert_eq!(doc.attr(product, "missing"), None);
        assert_eq!(doc.attr_count(product), 1);
        assert_eq!(doc.attrs(product).collect::<Vec<_>>(), [("id", "1")]);
    }

    #[test]
    fn set_attr_appends() {
        let mut doc = Document::new("shop");
        let root = doc.root();
        let product = doc.add_element(root, "product");
        doc.set_attr(product, "id", "1");
        // Still the node appended last: it takes further attributes.
        doc.set_attr(product, "lang", "en");
        doc.set_attr(product, "note", String::from("a & b"));
        assert_eq!(doc.attr(product, "lang"), Some("en"));
        assert_eq!(doc.attr_count(product), 3);
        assert_eq!(
            doc.attrs(product).collect::<Vec<_>>(),
            [("id", "1"), ("lang", "en"), ("note", "a & b")]
        );
        // The values share the arena with the text that follows them.
        let name = doc.add_leaf(product, "name", "TomTom");
        let text_node = doc.children(name).next().unwrap();
        assert_eq!(doc.text(text_node), Some("TomTom"));
        assert_eq!(doc.attr_count(name), 0);
        assert_eq!(doc.attr_count(root), 0);
        assert_eq!(doc.attr(product, "note"), Some("a & b"));
        // A subtree counts the attributes of every node in it.
        let other = doc.add_element(root, "product");
        doc.set_attr(other, "id", "2");
        let other_name = doc.add_element(other, "name");
        doc.set_attr(other_name, "lang", "de");
        assert_eq!(doc.subtree_attr_count(root), 5);
        assert_eq!(doc.subtree_attr_count(product), 3);
        assert_eq!(doc.subtree_attr_count(other), 2);
        assert_eq!(doc.subtree_attr_count(name), 0);
    }

    #[test]
    #[should_panic(expected = "set_attr on a text node")]
    fn set_attr_panics_on_text() {
        let (mut doc, root, _, _) = sample();
        let t = doc.add_text(root, "x");
        doc.set_attr(t, "a", "b");
    }

    /// Attribute values are appended to the arena behind their element, so
    /// an element takes them before anything follows it.
    #[test]
    #[should_panic(expected = "attributes are set in document order: node 1 is no longer")]
    fn set_attr_panics_once_the_element_has_a_child() {
        let (mut doc, _, product, _) = sample();
        doc.set_attr(product, "lang", "en");
    }

    #[test]
    fn text_accessors() {
        let (doc, root, product, name) = sample();
        assert_eq!(doc.text(name), None);
        let text_node = doc.children(name).next().unwrap();
        assert_eq!(doc.text(text_node), Some("TomTom"));
        assert_eq!(doc.tag(text_node), "");
        assert_eq!(doc.text_content(product), "TomTom 4.2");
        assert_eq!(doc.text_content(root), "TomTom 4.2 text");
    }

    #[test]
    fn preorder_traversal_order() {
        let (doc, root, _, _) = sample();
        let tags: Vec<String> = doc
            .descendants(root)
            .map(|n| {
                if doc.is_element(n) {
                    doc.tag(n).to_string()
                } else {
                    format!("#{}", doc.text(n).unwrap())
                }
            })
            .collect();
        assert_eq!(tags, ["shop", "product", "name", "#TomTom", "rating", "#4.2", "#text"]);
    }

    /// Payload, parent, extent — four `u32`s and nothing else. A wider node
    /// would move resident memory on every workload.
    #[test]
    fn a_node_costs_sixteen_bytes_of_table_and_its_own_text() {
        let mut doc = Document::new("r");
        let root = doc.root();
        for i in 0..1000 {
            doc.add_leaf(root, "item", format!("{i:04}"));
        }
        doc.shrink_to_fit();
        let stats = doc.substrate_stats();
        assert_eq!(stats.node_table_bytes, 16 * doc.len());
        assert_eq!(stats.text_bytes, 4 * 1000);
    }

    #[test]
    fn subtree_extents_are_the_descendant_counts_in_document_order() {
        let (doc, root, product, name) = sample();
        assert_eq!(doc.subtree_end(root) as usize, doc.len());
        assert_eq!(doc.subtree_end(product), 6);
        assert_eq!(doc.subtree_end(name), 4);
        for n in doc.all_nodes() {
            assert_eq!(
                (doc.subtree_end(n) as usize) - n.index(),
                doc.descendants(n).count(),
                "node {}",
                doc.dewey(n)
            );
        }
    }

    #[test]
    fn any_open_node_takes_children() {
        let mut doc = Document::new("r");
        let root = doc.root();
        let a = doc.add_element(root, "a");
        let deep = doc.add_element(a, "deep");
        doc.add_text(deep, "x");
        // `deep`, `a` and the root are all still open; each append closes
        // what lies below its parent.
        doc.add_element(a, "second");
        let b = doc.add_element(root, "b");
        doc.add_text(b, "y");
        assert_eq!(doc.to_string(), "<r><a><deep>x</deep><second/></a><b>y</b></r>");
    }

    #[test]
    #[should_panic(expected = "nodes are appended in document order: node 1 is closed")]
    fn appending_behind_a_closed_subtree_panics() {
        let mut doc = Document::new("r");
        let root = doc.root();
        let a = doc.add_element(root, "a");
        doc.add_element(root, "b");
        // `a` was closed when `b` was appended: a child of `a` would get the
        // largest id but sort before `b` in document order.
        doc.add_leaf(a, "late", "x");
    }

    #[test]
    fn child_queries() {
        let (doc, root, product, _) = sample();
        assert_eq!(doc.child_elements(root).count(), 1);
        assert_eq!(doc.child_by_tag(product, "name").map(|n| doc.tag(n)), Some("name"));
        assert_eq!(doc.child_by_tag(product, "nope"), None);
        assert_eq!(doc.children_by_tag(product, "rating").count(), 1);
        assert_eq!(doc.children_by_tag(product, "never_interned").count(), 0);
    }

    #[test]
    fn leaf_detection() {
        let (doc, root, product, name) = sample();
        assert!(doc.is_leaf_element(name));
        assert!(!doc.is_leaf_element(product));
        assert!(!doc.is_leaf_element(root));
        let text_node = doc.children(name).next().unwrap();
        assert!(!doc.is_leaf_element(text_node));
        // An empty element is a leaf.
        let mut d2 = Document::new("a");
        let e = d2.add_element(d2.root(), "empty");
        assert!(d2.is_leaf_element(e));
    }

    #[test]
    fn tag_path_skips_text() {
        let (doc, _, product, name) = sample();
        // The tags from the root down: a text node contributes nothing, so
        // its path is its parent element's.
        let tag_path = |id: NodeId| {
            let mut path: Vec<&str> = std::iter::successors(Some(id), |&n| doc.parent(n))
                .filter(|&n| doc.is_element(n))
                .map(|n| doc.tag(n))
                .collect();
            path.reverse();
            path
        };
        assert_eq!(tag_path(name), ["shop", "product", "name"]);
        let text_node = doc.children(name).next().unwrap();
        assert_eq!(tag_path(text_node), ["shop", "product", "name"]);
        assert_eq!(tag_path(product), ["shop", "product"]);
    }

    #[test]
    fn depth_matches_dewey() {
        let (doc, root, product, name) = sample();
        assert_eq!(doc.depth(root), 1);
        assert_eq!(doc.depth(product), 2);
        assert_eq!(doc.depth(name), 3);
    }

    #[test]
    fn tags_share_one_symbol() {
        let mut doc = Document::new("r");
        let root = doc.root();
        let a = doc.add_element(root, "item");
        let b = doc.add_element(root, "item");
        assert_eq!(doc.tag_sym(a), doc.tag_sym(b));
        assert_ne!(doc.tag_sym(a), doc.tag_sym(root));
        let t = doc.add_text(root, "x");
        assert_eq!(doc.tag_sym(t), None);
        // Three distinct names: r, item (x is text, not vocabulary).
        assert_eq!(doc.interner().len(), 2);
    }

    #[test]
    fn attrs_syms_resolve_through_interner() {
        let (doc, _, product, _) = sample();
        let (name_sym, value) = doc.attrs_syms(product).next().unwrap();
        assert_eq!(doc.interner().resolve(name_sym), "id");
        assert_eq!(value, "1");
    }

    #[test]
    fn derived_dewey_order_and_ancestry_agree_with_the_ids() {
        let (doc, root, product, name) = sample();
        assert_eq!(doc.dewey(root).components(), &[0]);
        assert_eq!(doc.dewey(product).components(), &[0, 0]);
        assert_eq!(doc.dewey(name).components(), &[0, 0, 0]);
        for a in doc.all_nodes() {
            for b in doc.all_nodes() {
                assert_eq!(doc.dewey(a).cmp(&doc.dewey(b)), a.cmp(&b));
                let inside = a < b && (b.index() as u32) < doc.subtree_end(a);
                let (da, db) = (doc.dewey(a), doc.dewey(b));
                let below = db.components().strip_prefix(da.components());
                assert_eq!(below.is_some_and(|rest| !rest.is_empty()), inside);
            }
        }
    }

    fn image(doc: &Document) -> Vec<u8> {
        let mut out = Vec::new();
        doc.write_image(&mut out).expect("a Vec takes every write");
        out
    }

    fn read(bytes: &[u8]) -> io::Result<Document> {
        let mut r = ImageReader::new(bytes);
        let doc = Document::read_image(&mut r, None)?;
        assert!(r.rest().is_empty(), "the reader stops at the image's end");
        Ok(doc)
    }

    #[test]
    fn an_image_reads_back_as_the_same_document() {
        let (doc, ..) = sample();
        let bytes = image(&doc);
        // Names, then 8 bytes per path, 12 per node, 16 per attribute, and
        // the text.
        let names: usize = doc.interner().iter().map(|(_, name)| 4 + name.len()).sum();
        let paths = 4 + 8 * doc.paths().len();
        assert_eq!(
            bytes.len(),
            4 + names + paths + 4 + 12 * doc.len() + 4 + 16 + 4 + doc.text.len()
        );
        let mut r = ImageReader::new(&bytes);
        Document::skip_image(&mut r).unwrap();
        assert!(r.rest().is_empty());
        let back = read(&bytes).unwrap();
        assert_eq!(back, doc);
        assert_eq!(image(&back), bytes);
        for n in doc.all_nodes() {
            assert_eq!((back.parent(n), back.text(n)), (doc.parent(n), doc.text(n)));
        }
        assert_eq!(back.element_count(), doc.element_count());
        assert_eq!(back.source_digest(), None);
        let mut r = ImageReader::new(&bytes);
        assert_eq!(Document::read_image(&mut r, Some(7)).unwrap().source_digest(), Some(7));
    }

    /// The digest says "this document is exactly the parse of that text":
    /// the parser records it, and every builder that changes the document
    /// clears it. Equality compares the tree, not the provenance.
    #[test]
    fn the_parser_records_a_digest_and_every_builder_clears_it() {
        let xml = "<a><b x=\"1\"/></a>";
        let parsed = crate::parse_document(xml).unwrap();
        assert_eq!(parsed.source_digest(), Some(WordHasher::hash(xml.as_bytes())));
        let builders: [fn(&mut Document); 5] = [
            |d| {
                d.add_element(d.root(), "c");
            },
            |d| {
                d.add_text(d.root(), "t");
            },
            |d| {
                d.add_leaf(d.root(), "c", "t");
            },
            |d| {
                let c = d.add_element(d.root(), "c");
                d.set_attr(c, "y", "2");
            },
            |d| d.set_attr(NodeId(1), "y", "2"),
        ];
        for (i, build) in builders.iter().enumerate() {
            let mut doc = parsed.clone();
            build(&mut doc);
            assert_eq!(doc.source_digest(), None, "builder {i}");
        }
        let mut built = Document::new("a");
        let b = built.add_element(built.root(), "b");
        built.set_attr(b, "x", "1");
        assert_eq!(built.source_digest(), None);
        assert_eq!(built, parsed);
    }

    /// Each shape no builder makes is refused with a typed error naming
    /// it: the reader's checks, one corruption each, on the sample
    /// document (`shop`, `product id="1"`, `name`, "TomTom", `rating`,
    /// "4.2", "text").
    #[test]
    fn the_image_reader_refuses_each_shape_the_builders_cannot_make() {
        let (doc, ..) = sample();
        let bytes = image(&doc);
        let n = doc.len();
        let names: usize = doc.interner().iter().map(|(_, name)| 4 + name.len()).sum();
        let paths = 4 + names + 4;
        let end = paths + 8 * doc.paths().len() + 4;
        let (kind, mark) = (end + 4 * n, end + 8 * n);
        let attrs = mark + 4 * n + 4;
        let text = attrs + 16 + 4;
        let field = |pos: usize, value: u32| {
            let mut bytes = bytes.clone();
            bytes[pos..pos + 4].copy_from_slice(&value.to_le_bytes());
            bytes
        };
        let cases = [
            (field(end, 6), "not nested"),
            (field(end + 4 * 2, 7), "not nested"),
            (field(end + 4 * 3, 3), "not nested"),
            (field(kind, NONE), "the root"),
            (field(kind + 4 * 2, NONE), "has children"),
            (field(kind + 4 * 2, 99), "not in the path table"),
            (field(kind, 1), "the root is not on path 0"),
            (field(kind + 4 * 4, 1), "does not extend its parent's"),
            (field(kind + 4 * 2, 3), "first-seen order"),
            (field(paths, 0), "does not precede it"),
            (field(paths + 8, NONE), "does not precede it"),
            (field(paths + 8 + 4, 99), "tag is not a known name"),
            (field(paths + 24 + 4, 3), "repeats a path"),
            (field(mark, 1), "marks"),
            (field(mark + 4 * 3, 0), "marks"),
            (field(mark + 4 * 6, 99), "marks"),
            (field(attrs, 9), "tile"),
            (field(attrs + 4, 99), "unknown name"),
            (field(attrs + 8, 1), "tile"),
            (field(attrs + 12, 0), "tile"),
            (field(attrs + 12, u32::MAX), "tile"),
        ];
        for (bytes, want) in cases {
            let err = read(&bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{want}: {err}");
            assert!(err.to_string().contains(want), "{want}: {err}");
        }
        // A path no node is on: `shop/id` appended to the table.
        let mut unmet = bytes.clone();
        unmet[paths - 4..paths].copy_from_slice(&5u32.to_le_bytes());
        unmet.splice(end - 4..end - 4, [0, 0, 0, 0, 2, 0, 0, 0]);
        assert!(read(&unmet).unwrap_err().to_string().contains("met by no node"));
        // No nodes at all: no root.
        let mut rootless = bytes[..end - 4].to_vec();
        rootless.extend_from_slice(&[0; 12]);
        assert!(read(&rootless).unwrap_err().to_string().contains("node count"));
        // Empty values leave every window empty, so only order and
        // ownership can be wrong: `<r a=""><b c=""/>t</r>`.
        let mut empty = Document::new("r");
        empty.set_attr(empty.root(), "a", "");
        let b = empty.add_element(empty.root(), "b");
        empty.set_attr(b, "c", "");
        empty.add_text(empty.root(), "t");
        let empty_bytes = image(&empty);
        let records = empty_bytes.len() - 4 - 1 - 32; // two records, the text
        let owners = |first: u32, second: u32| {
            let mut bytes = empty_bytes.clone();
            bytes[records..records + 4].copy_from_slice(&first.to_le_bytes());
            bytes[records + 16..records + 20].copy_from_slice(&second.to_le_bytes());
            read(&bytes).map_err(|e| e.to_string())
        };
        assert_eq!(owners(0, 1).unwrap(), empty);
        assert!(owners(1, 0).unwrap_err().contains("out of order"));
        assert!(owners(0, 2).unwrap_err().contains("on a text run"));
        assert!(owners(0, 9).unwrap_err().contains("owned by no node"));
        // Two names spelled alike: `<ab><cd/></ab>` with "cd" → "ab".
        let mut pair = Document::new("ab");
        pair.add_element(pair.root(), "cd");
        let mut twice = image(&pair);
        twice[14..16].copy_from_slice(b"ab");
        assert!(read(&twice).unwrap_err().to_string().contains("repeats a name"));
        // Text that is not UTF-8, and a mark inside a character.
        let mut bad_text = bytes.clone();
        bad_text[text] = 0xFF;
        assert!(read(&bad_text).unwrap_err().to_string().contains("UTF-8"));
        let mut wide = Document::new("r");
        wide.add_text(wide.root(), "été");
        wide.add_text(wide.root(), "x");
        let wide_bytes = image(&wide);
        let wide_end = wide_bytes.len() - 4 - "étéx".len();
        let mut split = wide_bytes.clone();
        let text_mark = wide_end - 4 - 4; // behind the attribute count: "x"'s mark
        split[text_mark..text_mark + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(read(&split).unwrap_err().to_string().contains("char boundaries"));
        assert_eq!(read(&wide_bytes).unwrap(), wide);
        // Every proper prefix is short, never a panic.
        for cut in 0..bytes.len() {
            let err = read(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "prefix {cut}");
        }
    }

    /// Paths are numbered first-seen in preorder and carry their two
    /// facts; a decoded document goes on numbering and stamping exactly as
    /// the built one it was saved from.
    #[test]
    fn paths_are_numbered_first_seen_and_carry_their_facts() {
        let (doc, _, product, name) = sample();
        let facts = |doc: &Document| -> Vec<(Option<usize>, String, bool, bool)> {
            doc.paths()
                .iter()
                .map(|p| {
                    let tag = doc.interner().resolve(p.tag).to_owned();
                    (p.parent.map(PathId::index), tag, p.repeats, p.internal)
                })
                .collect()
        };
        let s = |tag: &str| tag.to_owned();
        assert_eq!(
            facts(&doc),
            [
                (None, s("shop"), false, true),
                (Some(0), s("product"), false, true),
                (Some(1), s("name"), false, false),
                (Some(1), s("rating"), false, false),
            ]
        );
        assert_eq!(doc.path_id(product).map(PathId::index), Some(1));
        assert_eq!(doc.path_id(name).map(PathId::index), Some(2));
        assert_eq!(doc.path_id(doc.children(name).next().unwrap()), None);
        let (mut built, mut back) = (doc.clone(), read(&image(&doc)).unwrap());
        for d in [&mut built, &mut back] {
            let p = d.add_element(d.root(), "product");
            d.add_leaf(p, "price", "9");
        }
        assert_eq!(back, built);
        let last = facts(&back);
        assert_eq!(last[1], (Some(0), s("product"), true, true));
        assert_eq!(last[4], (Some(1), s("price"), false, false));
    }

    #[test]
    #[should_panic(expected = "a text run takes no children")]
    fn a_text_run_takes_no_children() {
        let mut doc = Document::new("r");
        let t = doc.add_text(doc.root(), "x");
        doc.add_element(t, "child");
    }

    #[test]
    fn elements_nest_at_most_max_depth_deep_in_an_image() {
        let nested = |levels: usize| {
            let mut doc = Document::new("d");
            let mut node = doc.root();
            for _ in 1..levels {
                node = doc.add_element(node, "d");
            }
            doc.add_text(node, "leaf");
            doc
        };
        assert!(read(&image(&nested(MAX_DEPTH))).is_ok());
        let err = read(&image(&nested(MAX_DEPTH + 1))).unwrap_err();
        assert!(err.to_string().contains("deeper than MAX_DEPTH"), "{err}");
    }

    #[test]
    fn substrate_stats_count_every_arena() {
        let mut doc = Document::new("shop");
        let root = doc.root();
        for i in 0..200 {
            let p = doc.add_element(root, "product");
            doc.set_attr(p, "id", i.to_string());
            doc.add_leaf(p, "name", format!("Item {i}"));
            doc.add_leaf(p, "rating", "4.2");
        }
        let stats = doc.substrate_stats();
        assert_eq!(stats.nodes, doc.len());
        assert_eq!(stats.distinct_symbols, 5); // shop, product, id, name, rating
        assert!(stats.node_table_bytes >= doc.len() * 16 + 200 * std::mem::size_of::<AttrRecord>());
        assert!(stats.text_bytes >= 200 * ("Item 0".len() + "4.2".len() + 1));
    }
}
