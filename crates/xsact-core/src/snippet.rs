//! The snippet baseline — a reproduction of what eXtract-style result
//! snippets select (reference \[2\] of the paper).
//!
//! A snippet shows the most significant information of a *single* result:
//! the features with the highest occurrence ratios, regardless of what any
//! other result contains. The paper's motivating observation (Figure 1) is
//! that such snippets are poor for comparison: each result highlights
//! different feature types, so few types are shared and the DoD is low.
//!
//! Snippet DFSs are also the *initial solution* of the single-swap and
//! multi-swap algorithms — they are valid by construction (within each
//! entity, picking the top types by ratio picks a prefix of the
//! significance ranking).

use crate::dfs::{Dfs, DfsSet};
use crate::model::Instance;

/// The snippet DFS of one result: up to `bound` features chosen greedily by
/// significance ratio across entities, respecting per-entity prefix order.
fn snippet_dfs(inst: &Instance, result: usize, bound: usize) -> Dfs {
    let mut dfs = Dfs::empty(inst.entities.len());
    while dfs.size() < bound {
        // The candidate of each entity is its next unselected ranked type;
        // take the one with the highest significance ratio.
        let mut best: Option<(f64, usize)> = None;
        for e in 0..inst.entities.len() {
            let Some(t) = dfs.next_type(inst, result, e) else { continue };
            let ratio = inst.sig_ratio(result, t);
            // Strict `>` keeps the earliest entity on ties, making snippets
            // deterministic.
            if best.is_none_or(|(r, _)| ratio > r) {
                best = Some((ratio, e));
            }
        }
        match best {
            Some((_, e)) => {
                dfs.grow(inst, result, e);
            }
            None => break, // every type already selected
        }
    }
    debug_assert!(dfs.is_consistent(inst, result));
    dfs
}

/// Snippet DFSs for every result, each bounded by the instance's `L`.
pub fn snippet_set(inst: &Instance) -> DfsSet {
    let bound = inst.config.size_bound;
    let dfss = (0..inst.result_count()).map(|i| snippet_dfs(inst, i, bound)).collect();
    DfsSet::from_dfss(inst, dfss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DfsConfig;
    use xsact_entity::{FeatureType, ResultFeatures};

    fn ty(e: &str, a: &str) -> FeatureType {
        FeatureType::new(e, a)
    }

    /// GPS 1 of the paper's Figure 1.
    fn gps1() -> ResultFeatures {
        ResultFeatures::from_raw(
            "GPS 1",
            [("product".to_string(), 1), ("review".to_string(), 11)],
            [
                (ty("product", "name"), "TomTom Go 630".to_string(), 1),
                (ty("product", "rating"), "4.2".to_string(), 1),
                (ty("review", "pros:easy_to_read"), "yes".to_string(), 10),
                (ty("review", "pros:compact"), "yes".to_string(), 8),
                (ty("review", "uses:best_use:auto"), "yes".to_string(), 6),
                (ty("review", "uses:category:casual_user"), "yes".to_string(), 6),
                (ty("review", "pros:large_screen"), "yes".to_string(), 1),
            ],
        )
    }

    fn inst(bound: usize) -> Instance {
        Instance::build(&[gps1()], DfsConfig { size_bound: bound, threshold_pct: 10.0 })
    }

    #[test]
    fn snippet_picks_top_ratios_across_entities() {
        let inst = inst(6);
        let dfs = snippet_dfs(&inst, 0, 6);
        let attrs: Vec<&str> = dfs
            .selected_types(&inst, 0)
            .iter()
            .map(|&t| inst.types[t].attribute.as_str())
            .collect();
        // name & rating (ratio 1.0), then easy_to_read (.91), compact (.73),
        // auto (.55), casual (.55) — exactly the Figure 1 snippet.
        assert!(attrs.contains(&"name"));
        assert!(attrs.contains(&"rating"));
        assert!(attrs.contains(&"pros:easy_to_read"));
        assert!(attrs.contains(&"pros:compact"));
        assert!(attrs.contains(&"uses:best_use:auto"));
        assert!(attrs.contains(&"uses:category:casual_user"));
        assert!(!attrs.contains(&"pros:large_screen"));
        assert_eq!(dfs.size(), 6);
    }

    #[test]
    fn snippet_respects_bound() {
        let inst = inst(3);
        let dfs = snippet_dfs(&inst, 0, 3);
        assert_eq!(dfs.size(), 3);
        assert!(dfs.within(3));
    }

    #[test]
    fn snippet_exhausts_small_results() {
        let inst = inst(100);
        let dfs = snippet_dfs(&inst, 0, 100);
        assert_eq!(dfs.size(), 7); // all types
    }

    #[test]
    fn zero_bound_gives_empty_snippet() {
        let inst = inst(0);
        assert_eq!(snippet_dfs(&inst, 0, 0).size(), 0);
    }

    #[test]
    fn snippet_is_valid_prefix() {
        let inst = inst(4);
        let dfs = snippet_dfs(&inst, 0, 4);
        assert!(dfs.is_consistent(&inst, 0));
        // Within `review`, the selected types must be the top of the
        // significance ranking: easy_to_read, compact (prefix of 2).
        let review = inst.entities.iter().position(|e| e == "review").unwrap();
        assert_eq!(dfs.prefix(review), 2);
    }

    #[test]
    fn snippet_set_covers_all_results() {
        let i2 =
            Instance::build(&[gps1(), gps1()], DfsConfig { size_bound: 5, threshold_pct: 10.0 });
        let set = snippet_set(&i2);
        assert_eq!(set.len(), 2);
        assert!(set.all_valid(&i2));
        assert_eq!(set.dfs(0), set.dfs(1));
    }
}
