//! Lowest-common-ancestor semantics for XML keyword search.
//!
//! Given one posting list per query term, a node is an **LCA match** if its
//! subtree contains at least one node from every list. The standard result
//! semantics — used by XSeek and therefore by XSACT — is the **Smallest LCA
//! (SLCA)**: LCA matches none of whose proper descendants are also LCA
//! matches. The **Exclusive LCA (ELCA)** is a looser alternative also
//! implemented here: a node that still contains every keyword after removing
//! the subtrees of its keyword-complete descendants.
//!
//! This module holds the full-scan algorithms: [`slca_full_scan`] and
//! [`elca_full_scan`], one bottom-up pass propagating keyword bitmasks over
//! the whole document. Simple, obviously correct, `O(|doc| · k/64)`. The
//! search engine answers ELCA queries with the latter; SLCA queries run on
//! the streaming executor in [`crate::plan`] — the Indexed Lookup Eager
//! algorithm of Xu & Papakonstantinou (SIGMOD 2005), `O(|S₁| · Σ log gapᵢ ·
//! d)` — and [`slca_full_scan`] is the reference its tests and the property
//! suite compare it against.

use xsact_xml::{Document, NodeId};

/// Maximum number of keyword lists supported by the bitmask algorithms
/// ([`slca_full_scan`], [`elca_full_scan`]): one bit per list in a `u64`.
/// The facade rejects longer queries with a typed error before they can
/// reach this layer.
pub const MAX_KEYWORDS: usize = 64;

fn full_mask(k: usize) -> u64 {
    assert!(k <= MAX_KEYWORDS, "at most {MAX_KEYWORDS} keywords supported");
    if k == MAX_KEYWORDS {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Computes per-node `(direct, subtree)` keyword masks.
fn keyword_masks(doc: &Document, lists: &[&[NodeId]]) -> (Vec<u64>, Vec<u64>) {
    let mut direct = vec![0u64; doc.len()];
    for (bit, list) in lists.iter().enumerate() {
        for &node in *list {
            direct[node.index()] |= 1 << bit;
        }
    }
    let order: Vec<NodeId> = doc.all_nodes().collect();
    let mut subtree = direct.clone();
    // Children follow their parent in preorder, so a reverse sweep sees every
    // node after all of its descendants.
    for &node in order.iter().rev() {
        if let Some(parent) = doc.parent(node) {
            subtree[parent.index()] |= subtree[node.index()];
        }
    }
    (direct, subtree)
}

/// Full-scan SLCA: returns, in document order, every node whose subtree
/// contains all keywords while no child subtree does.
///
/// Empty input or any empty posting list yields no results (AND semantics).
///
/// # Panics
/// Panics if `lists` holds more than [`MAX_KEYWORDS`] lists.
pub fn slca_full_scan(doc: &Document, lists: &[&[NodeId]]) -> Vec<NodeId> {
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return Vec::new();
    }
    let full = full_mask(lists.len());
    let (_, subtree) = keyword_masks(doc, lists);
    doc.all_nodes()
        .filter(|&n| {
            subtree[n.index()] == full && doc.children(n).all(|c| subtree[c.index()] != full)
        })
        .collect()
}

/// Full-scan ELCA: nodes that contain every keyword *exclusively* — counting
/// only witnesses not inside an already keyword-complete child subtree.
///
/// Every SLCA is an ELCA; the converse does not hold.
///
/// # Panics
/// Panics if `lists` holds more than [`MAX_KEYWORDS`] lists.
pub fn elca_full_scan(doc: &Document, lists: &[&[NodeId]]) -> Vec<NodeId> {
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return Vec::new();
    }
    let full = full_mask(lists.len());
    let (direct, subtree) = keyword_masks(doc, lists);
    doc.all_nodes()
        .filter(|&n| {
            let mut exclusive = direct[n.index()];
            for c in doc.children(n) {
                let m = subtree[c.index()];
                if m != full {
                    exclusive |= m;
                }
            }
            exclusive == full
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::QueryPlan;
    use crate::postings::InvertedIndex;
    use crate::query::Query;
    use xsact_xml::parse_document;

    fn run_both(xml: &str, terms: &[&str]) -> (Vec<String>, Vec<String>) {
        let doc = parse_document(xml).unwrap();
        let idx = InvertedIndex::build(&doc);
        let decoded: Vec<Vec<NodeId>> = terms.iter().map(|t| idx.postings(t).to_vec()).collect();
        let lists: Vec<&[NodeId]> = decoded.iter().map(Vec::as_slice).collect();
        let a = slca_full_scan(&doc, &lists);
        let b = QueryPlan::new(&idx, &Query::from_terms(terms)).stream(&doc).collect();
        let path = |v: Vec<NodeId>| -> Vec<String> {
            v.into_iter().map(|n| doc.dewey(n).to_string()).collect()
        };
        (path(a), path(b))
    }

    #[test]
    fn single_keyword_slca_is_match_nodes() {
        let (full, ile) = run_both("<r><a>k</a><b>k</b></r>", &["k"]);
        assert_eq!(full, ile);
        assert_eq!(full, ["0.0", "0.1"]);
    }

    #[test]
    fn two_keywords_in_sibling_sections() {
        // Each section holds both keywords → two SLCAs, root excluded.
        let xml = "<r><sec><x>k1</x><y>k2</y></sec><sec><x>k1</x><y>k2</y></sec></r>";
        let (full, ile) = run_both(xml, &["k1", "k2"]);
        assert_eq!(full, ile);
        assert_eq!(full, ["0.0", "0.1"]);
    }

    #[test]
    fn keywords_split_across_sections_meet_at_root() {
        let xml = "<r><sec><x>k1</x></sec><sec><y>k2</y></sec></r>";
        let (full, ile) = run_both(xml, &["k1", "k2"]);
        assert_eq!(full, ile);
        assert_eq!(full, ["0"]);
    }

    #[test]
    fn missing_keyword_gives_no_results() {
        let (full, ile) = run_both("<r><a>k1</a></r>", &["k1", "nope"]);
        assert!(full.is_empty() && ile.is_empty());
    }

    #[test]
    fn empty_query_gives_no_results() {
        let doc = parse_document("<r><a>k</a></r>").unwrap();
        assert!(slca_full_scan(&doc, &[]).is_empty());
        assert!(elca_full_scan(&doc, &[]).is_empty());
    }

    #[test]
    fn tag_names_match_keywords() {
        // `product` matches via the tag, `tomtom` via text.
        let xml = "<shop><product><name>TomTom</name></product><product><name>Garmin</name></product></shop>";
        let (full, ile) = run_both(xml, &["product", "tomtom"]);
        assert_eq!(full, ile);
        assert_eq!(full, ["0.0"]);
    }

    #[test]
    fn nested_matches_prefer_the_smallest() {
        // Both keywords under <inner>; <outer> also contains them but is not
        // smallest.
        let xml = "<r><outer><inner><a>k1</a><b>k2</b></inner><c>k1</c></outer></r>";
        let (full, ile) = run_both(xml, &["k1", "k2"]);
        assert_eq!(full, ile);
        assert_eq!(full, ["0.0.0"]);
    }

    #[test]
    fn self_match_single_node_with_both_keywords() {
        let xml = "<r><a>k1 k2</a><b>k1</b></r>";
        let (full, ile) = run_both(xml, &["k1", "k2"]);
        assert_eq!(full, ile);
        assert_eq!(full, ["0.0"]);
    }

    #[test]
    fn three_keywords() {
        let xml = "<r><s><a>k1</a><b>k2</b><c>k3</c></s><s><a>k1 k2 k3</a></s><s><a>k1</a><b>k2</b></s></r>";
        let (full, ile) = run_both(xml, &["k1", "k2", "k3"]);
        assert_eq!(full, ile);
        assert_eq!(full, ["0.0", "0.1.0"]);
    }

    #[test]
    fn elca_includes_root_with_exclusive_witnesses() {
        // <sec> is keyword-complete; root still owns a spare k1 and k2.
        let xml = "<r><sec><a>k1</a><b>k2</b></sec><x>k1</x><y>k2</y></r>";
        let doc = parse_document(xml).unwrap();
        let idx = InvertedIndex::build(&doc);
        let (k1, k2) = (idx.postings("k1").to_vec(), idx.postings("k2").to_vec());
        let lists: Vec<&[NodeId]> = vec![&k1, &k2];
        let slca: Vec<String> =
            slca_full_scan(&doc, &lists).iter().map(|&n| doc.dewey(n).to_string()).collect();
        let elca: Vec<String> =
            elca_full_scan(&doc, &lists).iter().map(|&n| doc.dewey(n).to_string()).collect();
        assert_eq!(slca, ["0.0"]);
        assert_eq!(elca, ["0", "0.0"]);
    }

    #[test]
    fn elca_excludes_root_without_exclusive_witnesses() {
        let xml = "<r><sec><a>k1</a><b>k2</b></sec><x>k1</x></r>";
        let doc = parse_document(xml).unwrap();
        let idx = InvertedIndex::build(&doc);
        let (k1, k2) = (idx.postings("k1").to_vec(), idx.postings("k2").to_vec());
        let lists: Vec<&[NodeId]> = vec![&k1, &k2];
        let elca: Vec<String> =
            elca_full_scan(&doc, &lists).iter().map(|&n| doc.dewey(n).to_string()).collect();
        assert_eq!(elca, ["0.0"]);
    }

    #[test]
    fn every_slca_is_an_elca() {
        let xml = "<r><s><a>k1</a><b>k2</b></s><s><a>k1 k2</a></s><x>k1</x><y>k2</y></r>";
        let doc = parse_document(xml).unwrap();
        let idx = InvertedIndex::build(&doc);
        let (k1, k2) = (idx.postings("k1").to_vec(), idx.postings("k2").to_vec());
        let lists: Vec<&[NodeId]> = vec![&k1, &k2];
        let slca = slca_full_scan(&doc, &lists);
        let elca = elca_full_scan(&doc, &lists);
        for n in slca {
            assert!(elca.contains(&n));
        }
    }

    #[test]
    fn results_in_document_order() {
        let xml =
            "<r><s><a>k1</a><b>k2</b></s><s><a>k1</a><b>k2</b></s><s><a>k1</a><b>k2</b></s></r>";
        let doc = parse_document(xml).unwrap();
        let idx = InvertedIndex::build(&doc);
        let (k1, k2) = (idx.postings("k1").to_vec(), idx.postings("k2").to_vec());
        let lists: Vec<&[NodeId]> = vec![&k1, &k2];
        let out = slca_full_scan(&doc, &lists);
        assert_eq!(out.len(), 3);
        assert!(out.windows(2).all(|pair| pair[0] < pair[1]));
    }

    #[test]
    fn full_mask_boundaries() {
        assert_eq!(full_mask(1), 1);
        assert_eq!(full_mask(2), 3);
        assert_eq!(full_mask(64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "at most 64 keywords")]
    fn too_many_keywords_panics() {
        full_mask(65);
    }
}
