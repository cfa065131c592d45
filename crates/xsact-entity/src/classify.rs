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
//! Classification is per *tag path* (the chain of tags from the root), so
//! every instance of `/shop/product/reviews/review` receives the same class
//! — exactly how XSeek's summary-based inference behaves.
//!
//! The document already knows its paths: a node's kind *is* its path
//! ([`Document::path_id`]), and each path of [`Document::paths`] carries
//! the two facts the roles depend on — some parent holds two children on
//! it, some node on it has an element child — settled as the document was
//! built or decoded. So inference is a pass over the *paths*, not the
//! nodes: one class and one `a/b/c` display string per distinct path, the
//! strings in one arena. Classifying a node is then one array lookup by
//! the path the document stores for it.

use xsact_xml::{Document, NodeId, PathId};

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

/// One path's class and where its display string lies in the arena.
#[derive(Debug, Clone, Copy)]
struct PathData {
    class: NodeClass,
    start: usize,
    end: usize,
}

/// Per-document structural summary mapping the document's tag paths to
/// classes and display strings.
///
/// Built once with [`StructureSummary::infer`], in time and space linear
/// in the *distinct paths*; classifying an individual node is then one
/// O(1) lookup (node's path id → class), with no string construction or
/// hashing on the query path.
#[derive(Debug, Clone)]
pub struct StructureSummary {
    /// One entry per path of the document, indexed by [`PathId`].
    paths: Vec<PathData>,
    /// Every path's `a/b/c` display string, back to back in id order.
    text: String,
}

impl StructureSummary {
    /// Infers the structural summary of `doc` from its path table: two
    /// blocks, whatever the document's size.
    pub fn infer(doc: &Document) -> Self {
        let tag_paths = doc.paths();
        let tag = |i: usize| doc.interner().resolve(tag_paths[i].tag).as_bytes();
        // A display is its parent's, a `/` and its tag, and a parent
        // precedes its children: the spans first, then the arena.
        let mut paths: Vec<PathData> = Vec::with_capacity(tag_paths.len());
        let mut len = 0;
        for (i, path) in tag_paths.iter().enumerate() {
            let above =
                path.parent.map_or(0, |p| paths[p.index()].end - paths[p.index()].start + 1);
            // The root element is always an entity (it is the single
            // instance of the top-level object the document describes),
            // and path 0 is the root's alone.
            let class = if i == 0 || path.repeats && path.internal {
                NodeClass::Entity
            } else if !path.internal {
                NodeClass::Attribute
            } else {
                NodeClass::Connection
            };
            let start = len;
            len += above + tag(i).len();
            paths.push(PathData { class, start, end: len });
        }
        let mut text = Vec::with_capacity(len);
        for (i, path) in tag_paths.iter().enumerate() {
            if let Some(parent) = path.parent {
                let PathData { start, end, .. } = paths[parent.index()];
                text.extend_from_within(start..end);
                text.push(b'/');
            }
            text.extend_from_slice(tag(i));
        }
        let text = String::from_utf8(text).expect("tags joined by '/' are UTF-8");
        StructureSummary { paths, text }
    }

    /// The `a/b/c` display string of a path.
    pub fn path_display(&self, path: PathId) -> &str {
        let PathData { start, end, .. } = self.paths[path.index()];
        &self.text[start..end]
    }

    /// Classifies the tag path of `node` within `doc`: text runs take the
    /// role of the value they carry, and the root element is an entity.
    pub fn class_of(&self, doc: &Document, node: NodeId) -> NodeClass {
        match doc.path_id(node) {
            Some(path) => self.paths.get(path.index()).map_or(NodeClass::Connection, |p| p.class),
            None => NodeClass::Attribute,
        }
    }
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

    /// The `a/b/c` tag-path key of an element node, by climbing its
    /// ancestors: the string [`StructureSummary::path_display`] renders.
    fn path_key(doc: &Document, node: NodeId) -> String {
        let mut path: Vec<&str> = std::iter::successors(Some(node), |&n| doc.parent(n))
            .filter(|&n| doc.is_element(n))
            .map(|n| doc.tag(n))
            .collect();
        path.reverse();
        path.join("/")
    }

    /// The first element on a raw `a/b/c` tag path.
    fn node_on(doc: &Document, path: &str) -> Option<NodeId> {
        doc.all_nodes().find(|&n| doc.is_element(n) && path_key(doc, n) == path)
    }

    /// An unseen path connects nothing it could be an entity or attribute of.
    fn class(doc: &Document, summary: &StructureSummary, path: &str) -> NodeClass {
        node_on(doc, path).map_or(NodeClass::Connection, |n| summary.class_of(doc, n))
    }

    fn repeats(doc: &Document, path: &str) -> bool {
        node_on(doc, path).is_some_and(|n| doc.paths()[doc.path_id(n).unwrap().index()].repeats)
    }

    #[test]
    fn products_and_reviews_are_entities() {
        let doc = review_doc();
        let s = StructureSummary::infer(&doc);
        assert_eq!(class(&doc, &s, "shop/product"), NodeClass::Entity);
        assert_eq!(class(&doc, &s, "shop/product/reviews/review"), NodeClass::Entity);
    }

    #[test]
    fn leaves_are_attributes() {
        let doc = review_doc();
        let s = StructureSummary::infer(&doc);
        assert_eq!(class(&doc, &s, "shop/product/name"), NodeClass::Attribute);
        assert_eq!(class(&doc, &s, "shop/product/rating"), NodeClass::Attribute);
        assert_eq!(
            class(&doc, &s, "shop/product/reviews/review/pros/compact"),
            NodeClass::Attribute
        );
        assert_eq!(
            class(&doc, &s, "shop/product/reviews/review/uses/best_use/auto"),
            NodeClass::Attribute
        );
    }

    #[test]
    fn grouping_nodes_are_connections() {
        let doc = review_doc();
        let s = StructureSummary::infer(&doc);
        assert_eq!(class(&doc, &s, "shop/product/reviews"), NodeClass::Connection);
        assert_eq!(class(&doc, &s, "shop/product/reviews/review/pros"), NodeClass::Connection);
        assert_eq!(class(&doc, &s, "shop/product/reviews/review/uses"), NodeClass::Connection);
        assert_eq!(
            class(&doc, &s, "shop/product/reviews/review/uses/best_use"),
            NodeClass::Connection
        );
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
        assert_eq!(class(&doc, &s, "never/seen"), NodeClass::Connection);
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
        assert_eq!(class(&doc, &s, "movies/movie/keyword"), NodeClass::Attribute);
        assert!(repeats(&doc, "movies/movie/keyword"));
    }

    #[test]
    fn single_instance_internal_node_is_connection() {
        let doc = parse_document("<a><meta><created>2009</created></meta></a>").unwrap();
        let s = StructureSummary::infer(&doc);
        assert_eq!(class(&doc, &s, "a/meta"), NodeClass::Connection);
        assert_eq!(class(&doc, &s, "a/meta/created"), NodeClass::Attribute);
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
        assert_eq!(class(&doc, &s, "mall/shop/product"), NodeClass::Entity);
        assert_eq!(class(&doc, &s, "mall/shop"), NodeClass::Entity);
    }

    #[test]
    fn mixed_leaf_and_internal_instances_lean_entity_or_connection() {
        // A tag that is sometimes internal: `extra` repeats and is internal
        // in one instance => entity.
        let doc = parse_document("<r><item><extra>plain</extra><extra><d>x</d></extra></item></r>")
            .unwrap();
        let s = StructureSummary::infer(&doc);
        assert_eq!(class(&doc, &s, "r/item/extra"), NodeClass::Entity);
    }

    #[test]
    fn summary_statistics() {
        let doc = review_doc();
        let s = StructureSummary::infer(&doc);
        assert_eq!(s.paths.len(), doc.paths().len());
        assert!(s.paths.len() >= 9);
        let entities: Vec<&str> = (0..s.paths.len())
            .filter(|&i| s.paths[i].class == NodeClass::Entity)
            .map(|i| &s.text[s.paths[i].start..s.paths[i].end])
            .collect();
        assert_eq!(entities, ["shop", "shop/product", "shop/product/reviews/review"]);
    }

    #[test]
    fn path_ids_are_shared_by_instances_of_one_path() {
        let doc = review_doc();
        let s = StructureSummary::infer(&doc);
        let products: Vec<NodeId> = doc.children_by_tag(doc.root(), "product").collect();
        let a = doc.path_id(products[0]).unwrap();
        let b = doc.path_id(products[1]).unwrap();
        assert_eq!(a, b);
        assert_eq!(s.path_display(a), "shop/product");
        assert_eq!(s.class_of(&doc, products[1]), NodeClass::Entity);
        // Text runs have no path id.
        let name = doc.child_by_tag(products[0], "name").unwrap();
        assert_eq!(doc.path_id(doc.children(name).next().unwrap()), None);
    }

    #[test]
    fn path_display_matches_path_key() {
        let doc = review_doc();
        let s = StructureSummary::infer(&doc);
        for node in doc.all_nodes() {
            if let Some(path) = doc.path_id(node) {
                assert_eq!(s.path_display(path), path_key(&doc, node));
            }
        }
    }

    /// The inference this module ran before the document kept its paths:
    /// a hash-keyed trie `(parent path, tag) → path` numbered first-seen in
    /// preorder, a per-node path array, and — independent of the stamp the
    /// document uses — per node a `HashMap` counting its element children
    /// by tag. Kept as the oracle of the document's path table and of
    /// [`StructureSummary`].
    mod oracle {
        use super::super::NodeClass;
        use std::collections::HashMap;
        use xsact_xml::{Document, NodeId, Sym};

        #[derive(Default)]
        pub(super) struct PathInfo {
            pub display: String,
            pub repeats: bool,
            pub internal: bool,
        }

        pub struct Summary {
            pub paths: Vec<PathInfo>,
            /// Per node, its path (`None` for text runs).
            pub node_paths: Vec<Option<u32>>,
        }

        impl Summary {
            pub fn infer(doc: &Document) -> Summary {
                let mut paths: Vec<PathInfo> = Vec::new();
                let mut edges: HashMap<(Option<u32>, Sym), u32> = HashMap::new();
                let mut node_paths = vec![None; doc.len()];
                for node in doc.all_nodes() {
                    let Some(tag) = doc.tag_sym(node) else { continue };
                    let above = doc.parent(node).and_then(|p| node_paths[p.index()]);
                    let path = *edges.entry((above, tag)).or_insert_with(|| {
                        let name = doc.interner().resolve(tag);
                        let display = match above {
                            Some(above) => format!("{}/{name}", paths[above as usize].display),
                            None => name.to_owned(),
                        };
                        paths.push(PathInfo { display, ..PathInfo::default() });
                        paths.len() as u32 - 1
                    });
                    node_paths[node.index()] = Some(path);
                }
                let mut child_tag_counts: HashMap<Sym, u32> = HashMap::new();
                for node in doc.all_nodes() {
                    let Some(path) = node_paths[node.index()] else { continue };
                    child_tag_counts.clear();
                    for child in doc.child_elements(node) {
                        *child_tag_counts.entry(doc.tag_sym(child).unwrap()).or_insert(0) += 1;
                    }
                    paths[path as usize].internal |= !child_tag_counts.is_empty();
                    for child in doc.child_elements(node) {
                        if child_tag_counts[&doc.tag_sym(child).unwrap()] >= 2 {
                            paths[node_paths[child.index()].unwrap() as usize].repeats = true;
                        }
                    }
                }
                Summary { paths, node_paths }
            }

            pub fn class_of(&self, doc: &Document, node: NodeId) -> NodeClass {
                let Some(path) = self.node_paths[node.index()] else {
                    return NodeClass::Attribute;
                };
                let info = &self.paths[path as usize];
                if doc.parent(node).is_none() || info.repeats && info.internal {
                    NodeClass::Entity
                } else if !info.internal {
                    NodeClass::Attribute
                } else {
                    NodeClass::Connection
                }
            }
        }
    }

    /// The document's path table and the summary over it equal the oracle:
    /// every node's path id, the path's facts and display, and its class.
    fn assert_infers_like_the_oracle(doc: &Document, what: &str) {
        let (new, old) = (StructureSummary::infer(doc), oracle::Summary::infer(doc));
        assert_eq!(doc.paths().len(), old.paths.len(), "{what}: path count");
        for (path, info) in doc.paths().iter().zip(&old.paths) {
            let facts = (path.repeats, path.internal);
            assert_eq!(facts, (info.repeats, info.internal), "{what}: {}", info.display);
        }
        for node in doc.all_nodes() {
            let path = doc.path_id(node);
            let old_path = old.node_paths[node.index()];
            assert_eq!(path.map(|p| p.index() as u32), old_path, "{what}: {node:?}");
            if let (Some(path), Some(old_path)) = (path, old_path) {
                let display = new.path_display(path);
                assert_eq!(display, old.paths[old_path as usize].display, "{what}: {node:?}");
            }
            assert_eq!(new.class_of(doc, node), old.class_of(doc, node), "{what}: {node:?}");
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
