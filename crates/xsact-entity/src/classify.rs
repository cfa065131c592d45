//! The entity identifier: structural node classification.
//!
//! Following XSeek (reference \[3\] of the paper), nodes of a data-centric XML
//! document play one of three roles, inferred from the data's structure
//! (no schema required):
//!
//! * **Entity** — a node "corresponding to a `*`-node in the schema": its tag
//!   occurs multiple times under a single parent somewhere in the data, and
//!   it has internal structure (element children). Example: `product`,
//!   `review`.
//! * **Attribute** — a leaf element carrying a value. Example: `name`,
//!   `rating`, `compact`.
//! * **Connection** — everything else: non-repeating internal nodes that
//!   merely group related items. Example: `pros`, `reviews`, `uses`.
//!
//! Classification is computed once per document over *tag paths* (the chain
//! of tags from the root), so every instance of `/shop/product/reviews/review`
//! receives the same class — exactly how XSeek's summary-based inference
//! behaves.
//!
//! Paths are interned: the summary builds a **trie keyed by
//! `(parent path, tag symbol)`** — one [`PathId`] per distinct tag path —
//! and records each node's path id in a flat per-node table. Classifying a
//! node is therefore two array lookups, and the `a/b/c` display string of a
//! path is materialised once per *distinct* path instead of once per node.

use std::collections::HashMap;
use xsact_xml::{Document, NodeId, Sym};

/// The inferred role of a node (more precisely, of its tag path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// A real-world object with its own identity (repeating, structured).
    Entity,
    /// A property of an entity (leaf element with a value).
    Attribute,
    /// A grouping node connecting entities and attributes.
    Connection,
}

/// Dense handle of a distinct tag path inside one [`StructureSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(u32);

impl PathId {
    /// The dense index of this path (`0..summary.path_count()`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Default, Clone)]
struct PathInfo {
    /// Did any parent hold two or more children with this tag?
    repeats: bool,
    /// Number of instances that have at least one element child.
    internal_instances: usize,
}

#[derive(Debug, Clone)]
struct PathData {
    /// The rendered `a/b/c` path — one `String` per distinct path.
    display: String,
    info: PathInfo,
}

/// Per-document structural summary mapping interned tag paths to classes.
///
/// Built once with [`StructureSummary::infer`]; classification of an
/// individual node is then two O(1) array lookups (node → path id →
/// class), with no string construction or hashing on the query path.
#[derive(Debug, Clone)]
pub struct StructureSummary {
    /// One entry per distinct tag path.
    paths: Vec<PathData>,
    /// Trie edges: `(parent path, child tag)` → child path. The root
    /// element's path is keyed under `(u32::MAX, root tag)`.
    edges: HashMap<(u32, Sym), PathId>,
    /// Per node arena index, the node's path id (`None` for text runs).
    node_paths: Vec<Option<PathId>>,
    /// Display string → path id, for the string-typed compatibility API.
    by_display: HashMap<String, PathId>,
}

const NO_PARENT: u32 = u32::MAX;

impl StructureSummary {
    /// Infers the structural summary of `doc` in a single pass.
    pub fn infer(doc: &Document) -> Self {
        let mut summary = StructureSummary {
            paths: Vec::new(),
            edges: HashMap::new(),
            node_paths: vec![None; doc.len()],
            by_display: HashMap::new(),
        };
        // Reused per node: how many children share each tag.
        let mut child_tag_counts: HashMap<Sym, u32> = HashMap::new();
        // Preorder guarantees a parent's path id exists before its children
        // are visited.
        for node in doc.all_nodes() {
            let Some(tag) = doc.tag_sym(node) else { continue };
            let parent_path = match doc.parent(node) {
                Some(p) => match summary.node_paths[p.index()] {
                    Some(pid) => pid.0,
                    // Parent is a text run — impossible for elements.
                    None => NO_PARENT,
                },
                None => NO_PARENT,
            };
            let pid = summary.path_for(doc, parent_path, tag);
            summary.node_paths[node.index()] = Some(pid);

            child_tag_counts.clear();
            let mut has_element_child = false;
            for child in doc.child_elements(node) {
                has_element_child = true;
                *child_tag_counts
                    .entry(doc.tag_sym(child).expect("child_elements yields elements"))
                    .or_insert(0) += 1;
            }
            if has_element_child {
                summary.paths[pid.index()].info.internal_instances += 1;
            }
            for (&tag, &count) in &child_tag_counts {
                if count >= 2 {
                    let child_pid = summary.path_for(doc, pid.0, tag);
                    summary.paths[child_pid.index()].info.repeats = true;
                }
            }
        }
        summary
    }

    /// The path id of the trie node `(parent, tag)`, creating it on first
    /// sight.
    fn path_for(&mut self, doc: &Document, parent: u32, tag: Sym) -> PathId {
        if let Some(&pid) = self.edges.get(&(parent, tag)) {
            return pid;
        }
        let tag_str = doc.interner().resolve(tag);
        let display = if parent == NO_PARENT {
            tag_str.to_owned()
        } else {
            format!("{}/{}", self.paths[parent as usize].display, tag_str)
        };
        let pid = PathId(self.paths.len() as u32);
        self.paths.push(PathData { display: display.clone(), info: PathInfo::default() });
        self.edges.insert((parent, tag), pid);
        self.by_display.insert(display, pid);
        pid
    }

    /// The path id of an element node, or `None` for text runs (and nodes
    /// outside the summarised document).
    pub fn path_id_of(&self, node: NodeId) -> Option<PathId> {
        self.node_paths.get(node.index()).copied().flatten()
    }

    /// The `a/b/c` display string of a path.
    pub fn path_display(&self, path: PathId) -> &str {
        &self.paths[path.index()].display
    }

    /// Classifies the tag path of `node` within `doc`.
    ///
    /// The root element is always an entity (it is the single instance of the
    /// top-level object the document describes).
    pub fn class_of(&self, doc: &Document, node: NodeId) -> NodeClass {
        if !doc.is_element(node) {
            // Text runs take the role of the value they carry.
            return NodeClass::Attribute;
        }
        if doc.parent(node).is_none() {
            return NodeClass::Entity;
        }
        match self.path_id_of(node) {
            Some(pid) => self.class_of_id(pid),
            None => NodeClass::Connection,
        }
    }

    /// Classifies a path by its id.
    pub fn class_of_id(&self, path: PathId) -> NodeClass {
        let info = &self.paths[path.index()].info;
        let ever_internal = info.internal_instances > 0;
        if info.repeats && ever_internal {
            NodeClass::Entity
        } else if !ever_internal {
            NodeClass::Attribute
        } else {
            NodeClass::Connection
        }
    }

    /// Classifies a raw `a/b/c` tag path.
    pub fn class_of_path(&self, path: &str) -> NodeClass {
        match self.by_display.get(path) {
            Some(&pid) => self.class_of_id(pid),
            None => NodeClass::Connection,
        }
    }

    /// Whether the tag path is known to repeat under a single parent.
    pub fn repeats(&self, path: &str) -> bool {
        self.by_display.get(path).is_some_and(|&pid| self.paths[pid.index()].info.repeats)
    }

    /// Number of distinct tag paths observed.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Iterates `(path, class)` pairs, useful for debugging and the CLI's
    /// schema view. Order is unspecified.
    pub fn classes(&self) -> impl Iterator<Item = (&str, NodeClass)> + '_ {
        (0..self.paths.len())
            .map(move |i| (self.paths[i].display.as_str(), self.class_of_id(PathId(i as u32))))
    }
}

/// The `a/b/c` tag-path key of an element node — the string the summary's
/// interned [`PathId`]s stand for. The tests use it as an oracle for
/// [`StructureSummary::path_display`]; production code resolves paths
/// through the summary instead.
#[cfg(test)]
pub(crate) fn path_key(doc: &Document, node: NodeId) -> String {
    doc.tag_path(node).join("/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsact_xml::parse_document;

    /// A miniature of the paper's Product Reviews dataset (Figure 1).
    fn review_doc() -> Document {
        parse_document(
            "<shop>\
               <product>\
                 <name>TomTom Go 630</name>\
                 <rating>4.2</rating>\
                 <reviews>\
                   <review><pros><compact>yes</compact><easy_to_read>yes</easy_to_read></pros>\
                     <uses><best_use><auto>yes</auto></best_use></uses></review>\
                   <review><pros><compact>yes</compact></pros></review>\
                 </reviews>\
               </product>\
               <product>\
                 <name>Garmin Nuvi</name>\
                 <rating>4.0</rating>\
                 <reviews><review><pros><compact>yes</compact></pros></review></reviews>\
               </product>\
             </shop>",
        )
        .unwrap()
    }

    fn class(summary: &StructureSummary, path: &str) -> NodeClass {
        summary.class_of_path(path)
    }

    #[test]
    fn products_and_reviews_are_entities() {
        let doc = review_doc();
        let s = StructureSummary::infer(&doc);
        assert_eq!(class(&s, "shop/product"), NodeClass::Entity);
        assert_eq!(class(&s, "shop/product/reviews/review"), NodeClass::Entity);
    }

    #[test]
    fn leaves_are_attributes() {
        let doc = review_doc();
        let s = StructureSummary::infer(&doc);
        assert_eq!(class(&s, "shop/product/name"), NodeClass::Attribute);
        assert_eq!(class(&s, "shop/product/rating"), NodeClass::Attribute);
        assert_eq!(class(&s, "shop/product/reviews/review/pros/compact"), NodeClass::Attribute);
        assert_eq!(
            class(&s, "shop/product/reviews/review/uses/best_use/auto"),
            NodeClass::Attribute
        );
    }

    #[test]
    fn grouping_nodes_are_connections() {
        let doc = review_doc();
        let s = StructureSummary::infer(&doc);
        assert_eq!(class(&s, "shop/product/reviews"), NodeClass::Connection);
        assert_eq!(class(&s, "shop/product/reviews/review/pros"), NodeClass::Connection);
        assert_eq!(class(&s, "shop/product/reviews/review/uses"), NodeClass::Connection);
        assert_eq!(class(&s, "shop/product/reviews/review/uses/best_use"), NodeClass::Connection);
    }

    #[test]
    fn root_is_entity() {
        let doc = review_doc();
        let s = StructureSummary::infer(&doc);
        assert_eq!(s.class_of(&doc, doc.root()), NodeClass::Entity);
    }

    #[test]
    fn class_of_resolves_instances() {
        let doc = review_doc();
        let s = StructureSummary::infer(&doc);
        let product = doc.child_by_tag(doc.root(), "product").unwrap();
        assert_eq!(s.class_of(&doc, product), NodeClass::Entity);
        let name = doc.child_by_tag(product, "name").unwrap();
        assert_eq!(s.class_of(&doc, name), NodeClass::Attribute);
        let text = doc.children(name).next().unwrap();
        assert_eq!(s.class_of(&doc, text), NodeClass::Attribute);
    }

    #[test]
    fn unknown_path_defaults_to_connection() {
        let doc = review_doc();
        let s = StructureSummary::infer(&doc);
        assert_eq!(class(&s, "never/seen"), NodeClass::Connection);
    }

    #[test]
    fn repeating_leaf_stays_attribute() {
        // Repeated *leaf* tags (multi-valued attributes like keywords) are
        // attributes, not entities — they have no internal structure.
        let doc = parse_document(
            "<movies><movie><keyword>war</keyword><keyword>epic</keyword></movie></movies>",
        )
        .unwrap();
        let s = StructureSummary::infer(&doc);
        assert_eq!(class(&s, "movies/movie/keyword"), NodeClass::Attribute);
        assert!(s.repeats("movies/movie/keyword"));
    }

    #[test]
    fn single_instance_internal_node_is_connection() {
        let doc = parse_document("<a><meta><created>2009</created></meta></a>").unwrap();
        let s = StructureSummary::infer(&doc);
        assert_eq!(class(&s, "a/meta"), NodeClass::Connection);
        assert_eq!(class(&s, "a/meta/created"), NodeClass::Attribute);
    }

    #[test]
    fn repetition_anywhere_marks_all_instances() {
        // `product` repeats under the first shop only, but the path class
        // applies document-wide (summary-based inference).
        let doc = parse_document(
            "<mall><shop><product><name>a</name></product><product><name>b</name></product></shop>\
             <shop><product><name>c</name></product></shop></mall>",
        )
        .unwrap();
        let s = StructureSummary::infer(&doc);
        assert_eq!(class(&s, "mall/shop/product"), NodeClass::Entity);
        assert_eq!(class(&s, "mall/shop"), NodeClass::Entity);
    }

    #[test]
    fn mixed_leaf_and_internal_instances_lean_entity_or_connection() {
        // A tag that is sometimes internal: `extra` repeats and is internal
        // in one instance => entity.
        let doc = parse_document("<r><item><extra>plain</extra><extra><d>x</d></extra></item></r>")
            .unwrap();
        let s = StructureSummary::infer(&doc);
        assert_eq!(class(&s, "r/item/extra"), NodeClass::Entity);
    }

    #[test]
    fn summary_statistics() {
        let doc = review_doc();
        let s = StructureSummary::infer(&doc);
        assert!(s.path_count() >= 9);
        let entities: Vec<&str> =
            s.classes().filter(|(_, c)| *c == NodeClass::Entity).map(|(p, _)| p).collect();
        assert!(entities.contains(&"shop/product"));
        assert!(entities.contains(&"shop/product/reviews/review"));
    }

    #[test]
    fn path_ids_are_shared_by_instances_of_one_path() {
        let doc = review_doc();
        let s = StructureSummary::infer(&doc);
        let products: Vec<NodeId> = doc.children_by_tag(doc.root(), "product").collect();
        let a = s.path_id_of(products[0]).unwrap();
        let b = s.path_id_of(products[1]).unwrap();
        assert_eq!(a, b);
        assert_eq!(s.path_display(a), "shop/product");
        assert_eq!(s.class_of_id(a), NodeClass::Entity);
        // Text runs have no path id.
        let name = doc.child_by_tag(products[0], "name").unwrap();
        assert_eq!(s.path_id_of(doc.children(name).next().unwrap()), None);
    }

    #[test]
    fn path_display_matches_path_key() {
        let doc = review_doc();
        let s = StructureSummary::infer(&doc);
        for node in doc.all_nodes() {
            if doc.is_element(node) {
                let pid = s.path_id_of(node).unwrap();
                assert_eq!(s.path_display(pid), path_key(&doc, node));
            }
        }
    }
}
