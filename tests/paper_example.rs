//! End-to-end reproduction of the paper's worked example (Figures 1 and 2).
//!
//! The pipeline: Figure 1 fixture document → keyword search `{TomTom, GPS}`
//! → feature extraction → DFS generation. The paper's headline numbers:
//!
//! * the eXtract-style snippets of the two results share only `name`,
//!   `rating` and `compact`; rating (4.2 vs 4.1) does not differentiate →
//!   **DoD = 2**;
//! * the XSACT comparison table makes three more feature types comparable →
//!   **DoD = 5**.

use std::sync::Arc;
use xsact::prelude::*;
use xsact_core::{compare, Algorithm, Instance};
use xsact_data::fixtures;
use xsact_entity::FeatureType;

/// The feature statistics of one search result.
fn features_of(engine: &SearchEngine, result: &SearchResult) -> ResultFeatures {
    extract_features(engine.document(), engine.summary(), result.root, &result.label)
}

const REVIEW: &str = "shop/product/reviews/review";

fn paper_results() -> Vec<ResultFeatures> {
    let doc = fixtures::figure1_document();
    let engine = SearchEngine::build(doc);
    let results = engine.search_all(&Query::parse(fixtures::PAPER_QUERY), None).0;
    results.iter().map(|r| features_of(&engine, r)).collect()
}

/// The instance over the paper's two results at bound `L` and threshold
/// `x` percent.
fn paper_instance(size_bound: usize, threshold_pct: f64) -> Arc<Instance> {
    Arc::new(Instance::build(&paper_results(), DfsConfig { size_bound, threshold_pct }))
}

/// The paper's differentiability threshold x, in percent.
const X: f64 = 10.0;

#[test]
fn query_returns_exactly_the_two_tomtom_products() {
    let doc = fixtures::figure1_document();
    let engine = SearchEngine::build(doc);
    let results = engine.search_all(&Query::parse(fixtures::PAPER_QUERY), None).0;
    let labels: Vec<&str> = results.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels, [fixtures::GPS1_NAME, fixtures::GPS3_NAME]);
}

#[test]
fn extracted_statistics_match_figure1() {
    let features = paper_results();
    let gps1 = &features[0];
    let stat = |attr: &str| gps1.get(&FeatureType::new(REVIEW, attr)).unwrap();
    assert_eq!(stat("pros:easy_to_read").entity_instances(), 11);
    assert_eq!(stat("pros:easy_to_read").occurrences(), 10);
    assert_eq!(stat("pros:compact").occurrences(), 8);
    assert_eq!(stat("uses:best_use:auto").occurrences(), 6);
    assert_eq!(stat("uses:category:casual_user").occurrences(), 6);
    assert_eq!(stat("pros:large_screen").occurrences(), 1);

    let gps3 = &features[1];
    let stat3 = |attr: &str| gps3.get(&FeatureType::new(REVIEW, attr)).unwrap();
    assert_eq!(stat3("pros:acquires_satellites_quickly").entity_instances(), 68);
    assert_eq!(stat3("pros:acquires_satellites_quickly").occurrences(), 44);
    assert_eq!(stat3("pros:easy_to_setup").occurrences(), 40);
    assert_eq!(stat3("pros:compact").occurrences(), 38);
    assert_eq!(stat3("uses:best_use:faster_routers").occurrences(), 26);
    assert_eq!(stat3("pros:large_screen").occurrences(), 4);
}

#[test]
fn figure1_stat_panel_lines() {
    let features = paper_results();
    let panel = features[0].stat_panel(5);
    assert!(panel.contains(&"# of reviews: 11".to_string()));
    assert!(panel.contains(&"pros:easy_to_read: yes: 10".to_string()));
    assert!(panel.contains(&"pros:compact: yes: 8".to_string()));
    let panel3 = features[1].stat_panel(5);
    assert!(panel3.contains(&"# of reviews: 68".to_string()));
    assert!(panel3.contains(&"pros:acquires_satellites_quickly: yes: 44".to_string()));
}

#[test]
fn snippets_match_figure1_and_have_dod_2() {
    let outcome = compare(&paper_instance(fixtures::SNIPPET_BOUND, X), Algorithm::Snippet).unwrap();

    // Figure 1 snippet of GPS 1: name, rating, easy to read, compact,
    // best use auto, category casual.
    let s1: Vec<String> = outcome.selected_types(0).iter().map(|t| t.attribute.clone()).collect();
    assert!(s1.contains(&"name".to_string()));
    assert!(s1.contains(&"rating".to_string()));
    assert!(s1.contains(&"pros:easy_to_read".to_string()));
    assert!(s1.contains(&"pros:compact".to_string()));
    assert!(s1.contains(&"uses:best_use:auto".to_string()));
    assert!(s1.contains(&"uses:category:casual_user".to_string()));

    // Figure 1 snippet of GPS 3: name, rating, satellites, easy to setup,
    // compact, faster routers.
    let s3: Vec<String> = outcome.selected_types(1).iter().map(|t| t.attribute.clone()).collect();
    assert!(s3.contains(&"name".to_string()));
    assert!(s3.contains(&"rating".to_string()));
    assert!(s3.contains(&"pros:acquires_satellites_quickly".to_string()));
    assert!(s3.contains(&"pros:easy_to_setup".to_string()));
    assert!(s3.contains(&"pros:compact".to_string()));
    assert!(s3.contains(&"uses:best_use:faster_routers".to_string()));

    // "the two DFSs in Figure 1 have a DoD of 2 because only two feature
    // types, Product:Name and Pro:Compact, are differentiable"
    assert_eq!(outcome.dod(), 2);
}

#[test]
fn xsact_table_reaches_dod_5() {
    let inst = paper_instance(fixtures::TABLE_BOUND, X);

    // "for the DFSs generated by our system … their DoD is 5"
    let multi = compare(&inst, Algorithm::MultiSwap).unwrap();
    assert_eq!(multi.dod(), 5);

    // The five differentiable shared types of Figure 2.
    for i in 0..2 {
        let attrs: Vec<String> =
            multi.selected_types(i).iter().map(|t| t.attribute.clone()).collect();
        assert!(attrs.contains(&"name".to_string()), "result {i}: {attrs:?}");
        assert!(attrs.contains(&"pros:compact".to_string()), "result {i}");
        assert!(attrs.contains(&"pros:large_screen".to_string()), "result {i}");
        assert!(attrs.contains(&"pros:easy_to_setup".to_string()), "result {i}");
        assert!(attrs.contains(&"uses:best_use:auto".to_string()), "result {i}");
    }

    // Exhaustive confirms 5 is optimal at this bound.
    let opt = compare(&inst, Algorithm::Exhaustive { limit: 5_000_000 }).unwrap();
    assert_eq!(opt.dod(), 5);
}

#[test]
fn single_swap_also_strong_on_the_example() {
    let inst = paper_instance(fixtures::TABLE_BOUND, X);
    let single = compare(&inst, Algorithm::SingleSwap).unwrap();
    let multi = compare(&inst, Algorithm::MultiSwap).unwrap();
    assert!(single.dod() >= 4);
    assert!(multi.dod() >= single.dod());
}

#[test]
fn rendered_table_shows_figure2_cells() {
    let outcome = compare(&paper_instance(fixtures::TABLE_BOUND, X), Algorithm::MultiSwap).unwrap();
    let table = outcome.table();
    // Both product names head their columns.
    assert!(table.contains(fixtures::GPS1_NAME));
    assert!(table.contains(fixtures::GPS3_NAME));
    // Figure 2 shows compact with its per-result percentages.
    assert!(table.contains("yes (73%)")); // 8 / 11
    assert!(table.contains("yes (56%)")); // 38 / 68

    // The row labels are human-readable.
    assert!(table.contains("review · pros: compact"));
    assert!(table.contains("product · name"));
}

#[test]
fn threshold_ablation_changes_dod() {
    // At x = 10% rating does not differentiate; at x = 1% it does
    // (4.2 vs 4.1 is a 2.4% gap). Bound 8 leaves room for rating next to
    // the five types of Figure 2 (at the Figure 2 bound of 7, rating would
    // merely displace another differentiable type).
    let strict = compare(&paper_instance(8, 1.0), Algorithm::MultiSwap).unwrap();
    let default = compare(&paper_instance(8, X), Algorithm::MultiSwap).unwrap();
    assert_eq!(default.dod(), 5);
    assert_eq!(strict.dod(), 6);
}
