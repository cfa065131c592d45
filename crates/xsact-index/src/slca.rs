//! Lowest-common-ancestor semantics for XML keyword search.
//!
//! Given one posting list per query term, a node is an **LCA match** if its
//! subtree contains at least one node from every list. The standard result
//! semantics — used by XSeek and therefore by XSACT — is the **Smallest LCA
//! (SLCA)**: LCA matches none of whose proper descendants are also LCA
//! matches.
//!
//! This module holds the full-scan reference, [`slca_full_scan`]: one
//! bottom-up pass propagating keyword bitmasks over the whole document.
//! Simple, obviously correct, `O(|doc| · k/64)`. Queries run on the
//! streaming executor in [`crate::plan`] — the Indexed Lookup Eager
//! algorithm of Xu & Papakonstantinou (SIGMOD 2005), `O(|S₁| · Σ log gapᵢ ·
//! d)` — and [`slca_full_scan`] is the oracle its tests and the property
//! suite compare it against.

use xsact_xml::{Document, NodeId};

/// Maximum number of keyword lists the full-scan oracle supports: one bit
/// per list in a `u64`. The streaming executor has no such cap.
const MAX_KEYWORDS: usize = 64;

fn full_mask(k: usize) -> u64 {
    assert!(k <= MAX_KEYWORDS, "at most {MAX_KEYWORDS} keywords supported");
    if k == MAX_KEYWORDS {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Computes each node's subtree keyword mask.
fn keyword_masks(doc: &Document, lists: &[&[NodeId]]) -> Vec<u64> {
    let mut subtree = vec![0u64; doc.len()];
    for (bit, list) in lists.iter().enumerate() {
        for &node in *list {
            subtree[node.index()] |= 1 << bit;
        }
    }
    let order: Vec<NodeId> = doc.all_nodes().collect();
    // Children follow their parent in preorder, so a reverse sweep sees every
    // node after all of its descendants.
    for &node in order.iter().rev() {
        if let Some(parent) = doc.parent(node) {
            subtree[parent.index()] |= subtree[node.index()];
        }
    }
    subtree
}

/// Full-scan SLCA: returns, in document order, every node whose subtree
/// contains all keywords while no child subtree does.
///
/// Empty input or any empty posting list yields no results (AND semantics).
///
/// # Panics
/// Panics if `lists` holds more than 64 lists (one bit each in a `u64`).
pub fn slca_full_scan(doc: &Document, lists: &[&[NodeId]]) -> Vec<NodeId> {
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return Vec::new();
    }
    let full = full_mask(lists.len());
    let subtree = keyword_masks(doc, lists);
    doc.all_nodes()
        .filter(|&n| {
            subtree[n.index()] == full && doc.children(n).all(|c| subtree[c.index()] != full)
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
        let decoded: Vec<Vec<NodeId>> =
            terms.iter().map(|t| idx.postings(t).iter().collect::<Vec<_>>()).collect();
        let lists: Vec<&[NodeId]> = decoded.iter().map(Vec::as_slice).collect();
        let a = slca_full_scan(&doc, &lists);
        let b = QueryPlan::new(&idx, &Query::parse(&terms.join(" "))).stream(&doc).collect();
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
    fn results_in_document_order() {
        let xml =
            "<r><s><a>k1</a><b>k2</b></s><s><a>k1</a><b>k2</b></s><s><a>k1</a><b>k2</b></s></r>";
        let doc = parse_document(xml).unwrap();
        let idx = InvertedIndex::build(&doc);
        let (k1, k2) = (
            idx.postings("k1").iter().collect::<Vec<_>>(),
            idx.postings("k2").iter().collect::<Vec<_>>(),
        );
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
