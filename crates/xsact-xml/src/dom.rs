//! Arena-backed document object model over the interned-symbol substrate.
//!
//! A [`Document`] owns all nodes in a flat arena; nodes are addressed by the
//! copyable [`NodeId`] handle. Tag and attribute names are interned into the
//! document's [`Interner`] (one heap copy per *distinct* name, a 4-byte
//! [`Sym`] per occurrence).
//!
//! **Node ids are preorder ranks, and that is the only tree order there
//! is.** A document is built in document order — `add_*` appends a child
//! only to a node that is still open, i.e. on the path from the root to the
//! node appended last; the parser and every dataset generator build that
//! way, and anything else is a programmer error that panics (see
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
//! This module is the only one that knows how order is represented;
//! everything above it compares `NodeId`s.
//!
//! Documents can be built programmatically (dataset generators do this) or by
//! the parser in [`crate::parse`].

use crate::dewey::DeweyId;
use crate::interner::{Interner, Sym};
use std::fmt;
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
    /// Performs no bounds check; for untrusted indices use the checked
    /// [`Document::node_handle`] instead.
    pub fn from_index(index: u32) -> NodeId {
        NodeId(index)
    }
}

/// Interned node payload: an element (tag + attribute names as symbols) or
/// a text run. Attribute *values* and text stay owned — they are data, not
/// vocabulary, and rarely repeat.
#[derive(Debug, Clone)]
enum NodeRepr {
    Element { tag: Sym, attrs: Vec<(Sym, String)> },
    Text(String),
}

/// `NodeData::parent` of the root. No real node can have this id: the arena
/// index of a node is below `u32::MAX` by construction.
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct NodeData {
    repr: NodeRepr,
    /// Arena index of the parent, [`NO_PARENT`] for the root. A bare `u32`
    /// (not `Option<NodeId>`) so that `end` fits in the bytes the option's
    /// discriminant and padding used to take.
    parent: u32,
    /// One past the largest id in this node's subtree.
    end: u32,
}

/// An XML document: one root element plus its descendants.
#[derive(Debug, Clone)]
pub struct Document {
    symbols: Interner,
    nodes: Vec<NodeData>,
    root: NodeId,
    /// Number of element nodes, maintained incrementally — the ranking
    /// scorer needs it per query, and recounting 10⁴ nodes per search was
    /// a measurable constant cost.
    element_count: usize,
}

/// Heap-size breakdown of a document's interned substrate. Produced by
/// [`Document::substrate_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubstrateStats {
    /// Total nodes (elements + text runs).
    pub nodes: usize,
    /// Distinct interned tag/attribute-name symbols.
    pub distinct_symbols: usize,
    /// Heap bytes of the symbol interner (arena + spans + hash index).
    pub interner_bytes: usize,
    /// Heap bytes of owned text runs and attribute values.
    pub text_bytes: usize,
    /// Heap bytes of the node table itself (fixed-size records + attribute
    /// vectors).
    pub node_table_bytes: usize,
}

impl SubstrateStats {
    /// Total heap bytes of the interned substrate.
    pub fn interned_total(&self) -> usize {
        self.interner_bytes + self.text_bytes + self.node_table_bytes
    }
}

impl Document {
    /// Creates a document whose root element has tag `root_tag`.
    pub fn new(root_tag: impl AsRef<str>) -> Self {
        let mut symbols = Interner::new();
        let tag = symbols.intern(root_tag.as_ref());
        let root_data = NodeData {
            repr: NodeRepr::Element { tag, attrs: Vec::new() },
            parent: NO_PARENT,
            end: 1,
        };
        Document { symbols, nodes: vec![root_data], root: NodeId(0), element_count: 1 }
    }

    /// The root element.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The root element, as an `Option` for symmetry with lookups that can
    /// fail. Always `Some` for a constructed document.
    pub fn root_element(&self) -> Option<NodeId> {
        Some(self.root)
    }

    /// Total number of nodes (elements + text runs) in the document.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of element nodes (text runs excluded), maintained
    /// incrementally — `O(1)`, equal to
    /// `all_nodes().filter(|n| is_element(n)).count()`.
    pub fn element_count(&self) -> usize {
        self.element_count
    }

    /// Reconstructs a [`NodeId`] from its arena index, e.g. when loading a
    /// persisted index. Returns `None` when out of range.
    pub fn node_handle(&self, index: usize) -> Option<NodeId> {
        if index < self.nodes.len() {
            Some(NodeId(index as u32))
        } else {
            None
        }
    }

    /// Whether the document holds only the root element.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    fn data(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    /// The document's symbol interner (tag and attribute names).
    pub fn interner(&self) -> &Interner {
        &self.symbols
    }

    /// The element tag, or `""` for a text node.
    pub fn tag(&self, id: NodeId) -> &str {
        match &self.data(id).repr {
            NodeRepr::Element { tag, .. } => self.symbols.resolve(*tag),
            NodeRepr::Text(_) => "",
        }
    }

    /// The element tag's interned symbol, or `None` for a text node.
    pub fn tag_sym(&self, id: NodeId) -> Option<Sym> {
        match &self.data(id).repr {
            NodeRepr::Element { tag, .. } => Some(*tag),
            NodeRepr::Text(_) => None,
        }
    }

    /// The text of a text node, or `None` for an element.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match &self.data(id).repr {
            NodeRepr::Text(t) => Some(t),
            NodeRepr::Element { .. } => None,
        }
    }

    /// Whether `id` is an element node.
    pub fn is_element(&self, id: NodeId) -> bool {
        matches!(self.data(id).repr, NodeRepr::Element { .. })
    }

    /// Attributes of an element in document order, as resolved
    /// `(name, value)` pairs (empty for text nodes).
    pub fn attrs(&self, id: NodeId) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.attrs_syms(id).map(|(name, value)| (self.symbols.resolve(name), value))
    }

    /// Attributes of an element with interned name symbols (empty for text
    /// nodes).
    pub fn attrs_syms(&self, id: NodeId) -> impl Iterator<Item = (Sym, &str)> + '_ {
        let attrs: &[(Sym, String)] = match &self.data(id).repr {
            NodeRepr::Element { attrs, .. } => attrs,
            NodeRepr::Text(_) => &[],
        };
        attrs.iter().map(|(name, value)| (*name, value.as_str()))
    }

    /// Number of attributes on the node.
    pub fn attr_count(&self, id: NodeId) -> usize {
        match &self.data(id).repr {
            NodeRepr::Element { attrs, .. } => attrs.len(),
            NodeRepr::Text(_) => 0,
        }
    }

    /// Looks up an attribute value by name.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        // A name that was never interned cannot be an attribute of any node.
        let sym = self.symbols.lookup(name)?;
        self.attrs_syms(id).find(|&(n, _)| n == sym).map(|(_, v)| v)
    }

    /// The node's parent, or `None` for the root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let parent = self.data(id).parent;
        (parent != NO_PARENT).then_some(NodeId(parent))
    }

    /// One past the largest node id in the subtree of `id`: the subtree is
    /// the contiguous id interval `[id, subtree_end(id))`, so
    /// `subtree_end(id) - id == descendants(id).count()`.
    pub fn subtree_end(&self, id: NodeId) -> u32 {
        self.data(id).end
    }

    /// The node's children in document order: the first is `id + 1`, and
    /// each next one starts where the previous child's subtree ends.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children { doc: self, ids: id.0 + 1..self.data(id).end }
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
            components.push(ordinal as u32);
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
    pub fn add_element(&mut self, parent: NodeId, tag: impl AsRef<str>) -> NodeId {
        let tag = self.symbols.intern(tag.as_ref());
        self.add_node(parent, NodeRepr::Element { tag, attrs: Vec::new() })
    }

    /// Appends a child element carrying attributes. Panics if `parent` is
    /// closed, see [`add_element`](Self::add_element).
    pub fn add_element_with_attrs(
        &mut self,
        parent: NodeId,
        tag: impl AsRef<str>,
        attrs: Vec<(String, String)>,
    ) -> NodeId {
        let tag = self.symbols.intern(tag.as_ref());
        let attrs =
            attrs.into_iter().map(|(name, value)| (self.symbols.intern(&name), value)).collect();
        self.add_node(parent, NodeRepr::Element { tag, attrs })
    }

    /// Appends a text child to `parent`. Panics if `parent` is closed, see
    /// [`add_element`](Self::add_element).
    pub fn add_text(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        self.add_node(parent, NodeRepr::Text(text.into()))
    }

    /// Convenience: appends `<tag>text</tag>` under `parent` and returns the
    /// element's handle. Panics if `parent` is closed, see
    /// [`add_element`](Self::add_element).
    pub fn add_leaf(
        &mut self,
        parent: NodeId,
        tag: impl AsRef<str>,
        text: impl Into<String>,
    ) -> NodeId {
        let el = self.add_element(parent, tag);
        self.add_text(el, text);
        el
    }

    /// Adds an attribute to an existing element.
    ///
    /// # Panics
    /// Panics if `id` is a text node.
    pub fn set_attr(&mut self, id: NodeId, name: impl AsRef<str>, value: impl Into<String>) {
        let name = self.symbols.intern(name.as_ref());
        match &mut self.nodes[id.index()].repr {
            NodeRepr::Element { attrs, .. } => attrs.push((name, value.into())),
            NodeRepr::Text(_) => panic!("set_attr on a text node"),
        }
    }

    fn add_node(&mut self, parent: NodeId, repr: NodeRepr) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        // The new node lands directly behind the parent's current subtree
        // iff the parent is still on the rightmost path — what keeps ids
        // preorder ranks and every subtree one id interval.
        assert!(
            self.data(parent).end == id.0,
            "nodes are appended in document order: node {} is closed (a later sibling \
             subtree was started after it) and cannot take another child",
            parent.0
        );
        if matches!(repr, NodeRepr::Element { .. }) {
            self.element_count += 1;
        }
        let end = id.0 + 1;
        self.nodes.push(NodeData { repr, parent: parent.0, end });
        // The new id is the largest so far, so it extends every ancestor's
        // extent. O(depth), and the ancestors of the node being appended are
        // the hottest records while a document is built.
        let mut cur = parent.0;
        while cur != NO_PARENT {
            let node = &mut self.nodes[cur as usize];
            node.end = end;
            cur = node.parent;
        }
        id
    }

    /// Iterates the subtree rooted at `start` in document (pre)order,
    /// including `start` itself: the id interval
    /// `[start, subtree_end(start))`. Allocates nothing.
    pub fn descendants(&self, start: NodeId) -> Descendants {
        Descendants { ids: start.0..self.data(start).end }
    }

    /// Iterates every node of the document in document order.
    pub fn all_nodes(&self) -> Descendants {
        self.descendants(self.root)
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

    /// The path of tags from the root to `id`, e.g. `["products", "product",
    /// "name"]`. Text nodes contribute nothing and return the path to their
    /// parent element.
    pub fn tag_path(&self, id: NodeId) -> Vec<&str> {
        let mut path = Vec::new();
        let mut cur = Some(id);
        while let Some(n) = cur {
            if self.is_element(n) {
                path.push(self.tag(n));
            }
            cur = self.parent(n);
        }
        path.reverse();
        path
    }

    /// Measures the heap footprint of the interned substrate.
    pub fn substrate_stats(&self) -> SubstrateStats {
        use std::mem::size_of;
        let mut text_bytes = 0usize;
        let mut node_table_bytes = self.nodes.capacity() * size_of::<NodeData>();
        for node in &self.nodes {
            match &node.repr {
                NodeRepr::Element { attrs, .. } => {
                    node_table_bytes += attrs.capacity() * size_of::<(Sym, String)>();
                    text_bytes += attrs.iter().map(|(_, value)| value.capacity()).sum::<usize>();
                }
                NodeRepr::Text(t) => text_bytes += t.capacity(),
            }
        }
        SubstrateStats {
            nodes: self.nodes.len(),
            distinct_symbols: self.symbols.len(),
            interner_bytes: self.symbols.heap_bytes(),
            text_bytes,
            node_table_bytes,
        }
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
    doc: &'a Document,
    /// From the next child's id to the end of the parent's subtree.
    ids: Range<u32>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.ids.is_empty() {
            return None;
        }
        let child = NodeId(self.ids.start);
        self.ids.start = self.doc.data(child).end;
        Some(child)
    }
}

impl fmt::Display for Document {
    /// Displays the document as compact XML (no pretty-printing).
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
        let product = doc.add_element_with_attrs(root, "product", vec![("id".into(), "1".into())]);
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
        let (mut doc, _, product, name) = sample();
        doc.set_attr(product, "lang", "en");
        assert_eq!(doc.attr(product, "lang"), Some("en"));
        assert_eq!(doc.attr_count(product), 2);
        // Text node under `name` cannot take attributes.
        let text_node = doc.children(name).next().unwrap();
        assert!(!doc.is_element(text_node));
    }

    #[test]
    #[should_panic(expected = "set_attr on a text node")]
    fn set_attr_panics_on_text() {
        let (mut doc, root, _, _) = sample();
        let t = doc.add_text(root, "x");
        doc.set_attr(t, "a", "b");
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

    /// Payload, parent, extent — nothing else. A larger record would move
    /// resident memory on every workload.
    #[test]
    fn node_record_stays_within_its_memory_budget() {
        assert!(std::mem::size_of::<NodeData>() <= 40, "{}", std::mem::size_of::<NodeData>());
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
        assert_eq!(doc.tag_path(name), ["shop", "product", "name"]);
        let text_node = doc.children(name).next().unwrap();
        assert_eq!(doc.tag_path(text_node), ["shop", "product", "name"]);
        assert_eq!(doc.tag_path(product), ["shop", "product"]);
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
                assert_eq!(doc.dewey(a).is_ancestor_of(&doc.dewey(b)), inside);
            }
        }
    }

    #[test]
    fn substrate_stats_count_every_arena() {
        let mut doc = Document::new("shop");
        let root = doc.root();
        for i in 0..200 {
            let p = doc.add_element_with_attrs(root, "product", vec![("id".into(), i.to_string())]);
            doc.add_leaf(p, "name", format!("Item {i}"));
            doc.add_leaf(p, "rating", "4.2");
        }
        let stats = doc.substrate_stats();
        assert_eq!(stats.nodes, doc.len());
        assert_eq!(stats.distinct_symbols, 5); // shop, product, id, name, rating
        assert!(stats.node_table_bytes >= doc.len() * std::mem::size_of::<NodeData>());
        assert!(stats.text_bytes >= 200 * ("Item 0".len() + "4.2".len() + 1));
        assert_eq!(
            stats.interned_total(),
            stats.interner_bytes + stats.text_bytes + stats.node_table_bytes
        );
    }
}
