//! Full-pipeline integration tests over all three synthetic datasets:
//! generate → index → search → extract → compare (paper Figure 3).

use std::sync::Arc;
use xsact::prelude::*;
use xsact_core::{compare, Algorithm, Instance};
use xsact_data::movies::{qm_queries, MovieGenConfig, MoviesGen};
use xsact_data::{OutdoorGen, OutdoorGenConfig, ReviewsGen, ReviewsGenConfig};

/// The feature statistics of one search result.
fn features_of(engine: &SearchEngine, result: &SearchResult) -> ResultFeatures {
    extract_features(engine.document(), engine.summary(), result.root, &result.label)
}

/// The instance over extracted features at bound `L` and the default
/// threshold.
fn instance(features: &[ResultFeatures], size_bound: usize) -> Arc<Instance> {
    Arc::new(Instance::build(features, DfsConfig { size_bound, ..DfsConfig::default() }))
}

#[test]
fn product_reviews_pipeline() {
    let doc =
        ReviewsGen::new(ReviewsGenConfig { seed: 7, products: 18, reviews: (5, 40) }).generate();

    let engine = SearchEngine::build(doc);

    let results = engine.search_all(&Query::parse("TomTom GPS"), None).0;
    assert!(!results.is_empty(), "seeded dataset always has TomTom GPS products");
    for r in &results {
        assert_eq!(engine.document().tag(r.root), "product");
        assert!(r.label.contains("TomTom"));
    }

    let features: Vec<ResultFeatures> = results.iter().map(|r| features_of(&engine, r)).collect();
    for rf in &features {
        assert!(rf.type_count() >= 4, "products carry name/brand/price/rating + flags");
    }
    if features.len() >= 2 {
        let outcome = compare(&instance(&features, 8), Algorithm::MultiSwap).unwrap();
        assert!(outcome.set.all_valid(&outcome.instance));
        assert!(outcome.dod() <= outcome.dod_upper_bound());
        let table = outcome.table();
        assert!(table.contains("feature"));
    }
}

#[test]
fn outdoor_brand_comparison_scenario() {
    // The demo's scenario: query {men, jackets}, compare *brands*.
    let doc = OutdoorGen::new(OutdoorGenConfig { seed: 3, products: (25, 50), focus_bias: 0.8 })
        .generate();
    let engine = SearchEngine::build(doc);
    let results = engine.search_all(&Query::parse("men jackets"), None).0;
    assert!(!results.is_empty());

    // Promote product-level results to their enclosing brand.
    let doc = engine.document();
    let mut brand_roots = Vec::new();
    for r in &results {
        let mut cur = r.root;
        while doc.tag(cur) != "brand" {
            cur = doc.parent(cur).expect("brand is an ancestor of every product");
        }
        if !brand_roots.contains(&cur) {
            brand_roots.push(cur);
        }
    }
    assert!(brand_roots.len() >= 2, "several brands sell men's jackets");

    let features: Vec<ResultFeatures> = brand_roots
        .iter()
        .map(|&b| {
            let name = doc.text_content(doc.child_by_tag(b, "name").expect("brand name"));
            xsact_entity::extract_features(doc, engine.summary(), b, name)
        })
        .collect();

    // Brand-level features include the product subcategory histogram that
    // reveals each brand's focus.
    for rf in &features {
        assert!(rf
            .stats()
            .any(|s| s.attribute() == "subcategory" && s.entity().ends_with("product")));
    }

    let outcome = compare(&instance(&features, 6), Algorithm::MultiSwap).unwrap();
    // Focus bias guarantees differentiable subcategory/category histograms.
    assert!(outcome.dod() > 0, "brand focuses must differentiate");
}

#[test]
fn movie_queries_pipeline() {
    let doc = MoviesGen::new(MovieGenConfig { movies: 150, ..Default::default() }).generate();
    let engine = SearchEngine::build(doc);

    let mut nonempty = 0;
    for (label, query) in qm_queries() {
        let results = engine.search_all(&Query::parse(&query), None).0;
        if results.is_empty() {
            continue;
        }
        nonempty += 1;
        for r in &results {
            assert_eq!(engine.document().tag(r.root), "movie", "{label}");
        }
        let features: Vec<ResultFeatures> =
            results.iter().map(|r| features_of(&engine, r)).collect();
        if features.len() < 2 {
            continue;
        }
        let inst = instance(&features, 10);
        let single = compare(&inst, Algorithm::SingleSwap).unwrap();
        let multi = compare(&inst, Algorithm::MultiSwap).unwrap();
        assert!(
            multi.dod() >= single.dod(),
            "{label}: multi {} < single {}",
            multi.dod(),
            single.dod()
        );
        assert!(single.set.all_valid(&single.instance));
        assert!(multi.set.all_valid(&multi.instance));
    }
    assert!(nonempty >= 6, "most QM queries must match the 150-movie dataset");
}

#[test]
fn movie_results_have_nested_actor_entity() {
    let doc = MoviesGen::new(MovieGenConfig { movies: 40, ..Default::default() }).generate();
    let engine = SearchEngine::build(doc);
    let results = engine.search_all(&Query::parse("drama family"), None).0;
    assert!(!results.is_empty());
    let rf = features_of(&engine, &results[0]);
    // Actor is a nested entity: its name/billing belong to the actor, not
    // to the movie.
    assert!(rf.stats().any(|s| s.entity().ends_with("actor")));
    assert!(!rf
        .stats()
        .any(|s| s.entity().ends_with("movie") && s.attribute().contains("billing")));
}

#[test]
fn slca_promotion_collapses_duplicate_matches() {
    // Terms matching several nodes inside the same movie yield one result.
    let doc = MoviesGen::new(MovieGenConfig { movies: 60, ..Default::default() }).generate();
    let engine = SearchEngine::build(doc);
    let results = engine.search_all(&Query::parse("drama"), None).0;
    let mut roots: Vec<_> = results.iter().map(|r| r.root).collect();
    let before = roots.len();
    roots.dedup();
    assert_eq!(before, roots.len());
}

#[test]
fn full_pipeline_via_facade_prelude() {
    // The README quickstart, as a test.
    let wb = Workbench::from_document(xsact::data::fixtures::figure1_document());
    let outcome = wb
        .query("TomTom GPS")
        .expect("non-empty query")
        .size_bound(6)
        .compare(Algorithm::MultiSwap)
        .expect("two results to compare");
    assert!(outcome.dod() >= 4);
    assert!(!outcome.table().is_empty());
}
