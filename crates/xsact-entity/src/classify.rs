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
//! Paths are interned: the summary builds a **trie of tag paths** — one
//! [`PathId`] per distinct path, its edges `(parent path, tag) → path` in
//! one hash table — and records each node's path id in a flat per-node
//! table. Classifying a node is therefore two array lookups, and the
//! `a/b/c` display string of a path is materialised once per *distinct*
//! path instead of once per node.
//!
//! Inference is one preorder pass, one hash probe per element whatever the
//! number of sibling paths. "This tag repeats under one parent" is detected
//! with a **stamp**: each path remembers the parent node it was last seen
//! under, and meeting the same path under the same parent again is the
//! repetition (between two siblings only their own descendants are
//! visited, and those lie on longer paths).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use xsact_xml::{Document, NodeId};

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
    /// The dense index of this path, below the summary's path count.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Default)]
struct PathData {
    /// The rendered `a/b/c` path — one `String` per distinct path.
    display: String,
    /// Did any parent hold two or more children with this tag?
    repeats: bool,
    /// Does any instance have an element child?
    internal: bool,
}

/// Per-document structural summary mapping interned tag paths to classes.
///
/// Built once with [`StructureSummary::infer`]; classification of an
/// individual node is then two O(1) array lookups (node → path id →
/// class), with no string construction or hashing on the query path.
#[derive(Debug, Clone)]
pub struct StructureSummary {
    /// One entry per distinct tag path; the root element's is the first.
    paths: Vec<PathData>,
    /// Per node arena index, the node's path id ([`NO_PATH`] for text runs).
    node_paths: Vec<u32>,
}

/// `node_paths` entry of a text run, and during inference the stamp of a
/// path not seen yet. No path id and no node id reaches it: both are below
/// the document's node count, which stops short of `u32::MAX`.
const NO_PATH: u32 = u32::MAX;

impl StructureSummary {
    /// Infers the structural summary of `doc` in a single preorder pass.
    pub fn infer(doc: &Document) -> Self {
        let root = PathData { display: doc.tag(doc.root()).to_owned(), ..PathData::default() };
        let mut paths = vec![root];
        let mut node_paths = Vec::with_capacity(doc.len());
        // The trie's edges, `(parent path) << 32 | tag` → path.
        let mut edges: HashMap<u64, u32, BuildHasherDefault<EdgeHasher>> = HashMap::default();
        // Per path, the parent node it was last seen under.
        let mut last_parent = vec![NO_PATH];
        // Preorder guarantees a parent's path id exists before its children
        // are visited.
        for node in doc.all_nodes() {
            let path = match (doc.tag_sym(node), doc.parent(node)) {
                (None, _) => NO_PATH,
                (Some(_), None) => 0,
                (Some(tag), Some(parent)) => {
                    let above = node_paths[parent.index()] as usize;
                    paths[above].internal = true;
                    let key = (above as u64) << 32 | tag.index() as u64;
                    let path = *edges.entry(key).or_insert_with(|| {
                        let display = [&paths[above].display, "/", doc.tag(node)].concat();
                        paths.push(PathData { display, ..PathData::default() });
                        last_parent.push(NO_PATH);
                        paths.len() as u32 - 1
                    });
                    let (path, parent) = (path as usize, parent.index() as u32);
                    if last_parent[path] == parent {
                        paths[path].repeats = true;
                    }
                    last_parent[path] = parent;
                    path as u32
                }
            };
            node_paths.push(path);
        }
        StructureSummary { paths, node_paths }
    }

    /// The path id of an element node, or `None` for text runs (and nodes
    /// outside the summarised document).
    pub fn path_id_of(&self, node: NodeId) -> Option<PathId> {
        self.node_paths.get(node.index()).filter(|&&path| path != NO_PATH).map(|&path| PathId(path))
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
    fn class_of_id(&self, path: PathId) -> NodeClass {
        let info = &self.paths[path.index()];
        if info.repeats && info.internal {
            NodeClass::Entity
        } else if !info.internal {
            NodeClass::Attribute
        } else {
            NodeClass::Connection
        }
    }
}

/// The hash of an edge key: one multiply, its high half folded onto the low
/// (path ids and tag symbols are small dense integers, which it spreads).
#[derive(Default)]
struct EdgeHasher(u64);

impl Hasher for EdgeHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, key: u64) {
        let h = (self.0 ^ key).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ h >> 32;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The `a/b/c` tag-path key of an element node — the string the summary's
/// interned [`PathId`]s stand for. The tests use it as an oracle for
/// [`StructureSummary::path_display`]; production code resolves paths
/// through the summary instead.
#[cfg(test)]
pub(crate) fn path_key(doc: &Document, node: NodeId) -> String {
    let mut path: Vec<&str> = std::iter::successors(Some(node), |&n| doc.parent(n))
        .filter(|&n| doc.is_element(n))
        .map(|n| doc.tag(n))
        .collect();
    path.reverse();
    path.join("/")
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

    /// The id of a raw `a/b/c` tag path.
    fn path_named(summary: &StructureSummary, path: &str) -> Option<PathId> {
        summary.paths.iter().position(|p| p.display == path).map(|i| PathId(i as u32))
    }

    /// An unseen path connects nothing it could be an entity or attribute of.
    fn class(summary: &StructureSummary, path: &str) -> NodeClass {
        path_named(summary, path).map_or(NodeClass::Connection, |pid| summary.class_of_id(pid))
    }

    fn repeats(summary: &StructureSummary, path: &str) -> bool {
        path_named(summary, path).is_some_and(|pid| summary.paths[pid.index()].repeats)
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
        assert!(repeats(&s, "movies/movie/keyword"));
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
        assert!(s.paths.len() >= 9);
        let entities: Vec<&str> = (0..s.paths.len())
            .filter(|&i| s.class_of_id(PathId(i as u32)) == NodeClass::Entity)
            .map(|i| s.paths[i].display.as_str())
            .collect();
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

    /// The inference this module ran before the stamp: a hash-keyed trie
    /// `(parent path, tag) → path`, and per node a `HashMap` counting its
    /// element children by tag. Kept as the oracle of [`StructureSummary`].
    mod oracle {
        use super::super::NodeClass;
        use std::collections::HashMap;
        use xsact_xml::{Document, Sym};

        #[derive(Default)]
        pub(super) struct PathInfo {
            pub display: String,
            pub repeats: bool,
            pub internal_instances: usize,
        }

        pub struct Summary {
            pub paths: Vec<PathInfo>,
            edges: HashMap<(u32, Sym), u32>,
            /// Per node, its path (`None` for text runs).
            pub node_paths: Vec<Option<u32>>,
        }

        const NO_PARENT: u32 = u32::MAX;

        impl Summary {
            pub fn infer(doc: &Document) -> Summary {
                let mut summary = Summary {
                    paths: Vec::new(),
                    edges: HashMap::new(),
                    node_paths: vec![None; doc.len()],
                };
                let mut child_tag_counts: HashMap<Sym, u32> = HashMap::new();
                for node in doc.all_nodes() {
                    let Some(tag) = doc.tag_sym(node) else { continue };
                    let parent_path = doc
                        .parent(node)
                        .and_then(|p| summary.node_paths[p.index()])
                        .unwrap_or(NO_PARENT);
                    let pid = summary.path_for(doc, parent_path, tag);
                    summary.node_paths[node.index()] = Some(pid);

                    child_tag_counts.clear();
                    for child in doc.child_elements(node) {
                        *child_tag_counts.entry(doc.tag_sym(child).unwrap()).or_insert(0) += 1;
                    }
                    if !child_tag_counts.is_empty() {
                        summary.paths[pid as usize].internal_instances += 1;
                    }
                    for (&tag, &count) in &child_tag_counts {
                        if count >= 2 {
                            let child_pid = summary.path_for(doc, pid, tag);
                            summary.paths[child_pid as usize].repeats = true;
                        }
                    }
                }
                summary
            }

            fn path_for(&mut self, doc: &Document, parent: u32, tag: Sym) -> u32 {
                if let Some(&pid) = self.edges.get(&(parent, tag)) {
                    return pid;
                }
                let tag_str = doc.interner().resolve(tag);
                let display = if parent == NO_PARENT {
                    tag_str.to_owned()
                } else {
                    format!("{}/{}", self.paths[parent as usize].display, tag_str)
                };
                let pid = self.paths.len() as u32;
                self.paths.push(PathInfo { display, ..PathInfo::default() });
                self.edges.insert((parent, tag), pid);
                pid
            }

            pub fn class_of(&self, path: u32) -> NodeClass {
                let info = &self.paths[path as usize];
                let ever_internal = info.internal_instances > 0;
                if info.repeats && ever_internal {
                    NodeClass::Entity
                } else if !ever_internal {
                    NodeClass::Attribute
                } else {
                    NodeClass::Connection
                }
            }
        }
    }

    /// Path ids are numbered in another order than the oracle's, so the
    /// two are matched through each node and through the display strings.
    fn assert_infers_like_the_oracle(doc: &Document, what: &str) {
        let (new, old) = (StructureSummary::infer(doc), oracle::Summary::infer(doc));
        assert_eq!(new.paths.len(), old.paths.len(), "{what}: path count");
        for node in doc.all_nodes() {
            let (path, old_path) = (new.path_id_of(node), old.node_paths[node.index()]);
            assert_eq!(path.is_some(), old_path.is_some(), "{what}: {node:?}");
            let (Some(path), Some(old_path)) = (path, old_path) else { continue };
            let display = new.path_display(path);
            assert_eq!(display, old.paths[old_path as usize].display, "{what}: {node:?}");
            assert_eq!(new.class_of_id(path), old.class_of(old_path), "{what}: {display}");
        }
        for info in &old.paths {
            assert_eq!(repeats(&new, &info.display), info.repeats, "{what}: {}", info.display);
        }
    }

    /// A random tree over few tags: same-tag siblings, the same tag at
    /// several depths, mixed content and elements that are a leaf in one
    /// place and internal in another.
    fn random_tree(seed: u64) -> Document {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        fn grow(doc: &mut Document, rng: &mut StdRng, parent: NodeId, depth: usize) {
            for _ in 0..rng.random_range(0..=4usize) {
                if rng.random_bool(0.25) {
                    doc.add_text(parent, "t");
                    continue;
                }
                let tag = ["a", "b", "c", "item"][rng.random_range(0..4usize)];
                let child = doc.add_element(parent, tag);
                if depth < 5 {
                    grow(doc, rng, child, depth + 1);
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut doc = Document::new("a");
        let root = doc.root();
        grow(&mut doc, &mut rng, root, 0);
        doc
    }

    #[test]
    fn infers_like_the_hashing_oracle_on_generated_and_random_documents() {
        use xsact_data::{
            fixtures, JobsGen, JobsGenConfig, MovieGenConfig, MoviesGen, OutdoorGen,
            OutdoorGenConfig, ReviewsGen, ReviewsGenConfig,
        };
        assert_infers_like_the_oracle(&review_doc(), "review_doc");
        assert_infers_like_the_oracle(&fixtures::figure1_document(), "figure1");
        for seed in 0..4 {
            let movies = MovieGenConfig { seed, movies: 40, ..Default::default() };
            assert_infers_like_the_oracle(&MoviesGen::new(movies).generate(), "movies");
            let reviews = ReviewsGenConfig { seed, ..Default::default() };
            assert_infers_like_the_oracle(&ReviewsGen::new(reviews).generate(), "reviews");
            let outdoor = OutdoorGenConfig { seed, ..Default::default() };
            assert_infers_like_the_oracle(&OutdoorGen::new(outdoor).generate(), "outdoor");
            let jobs = JobsGenConfig { seed, ..Default::default() };
            assert_infers_like_the_oracle(&JobsGen::new(jobs).generate(), "jobs");
        }
        for seed in 0..64 {
            assert_infers_like_the_oracle(&random_tree(seed), &format!("random tree {seed}"));
        }
    }
}
