//! Determinism guarantees: equal seeds and inputs give byte-identical
//! datasets, identical search results and identical comparison outcomes —
//! the property that makes every number in EXPERIMENTS.md reproducible.

use std::sync::Arc;
use xsact::prelude::*;
use xsact_core::{compare, Algorithm, Instance};
use xsact_data::movies::{MovieGenConfig, MoviesGen};
use xsact_data::{
    JobsGen, JobsGenConfig, OutdoorGen, OutdoorGenConfig, ReviewsGen, ReviewsGenConfig,
};
use xsact_xml::writer::write_subtree;

/// The feature statistics of one search result.
fn features_of(engine: &SearchEngine, result: &SearchResult) -> ResultFeatures {
    extract_features(engine.document(), engine.summary(), result.root, &result.label)
}

#[test]
fn all_generators_are_seed_deterministic() {
    let movies =
        |seed| MoviesGen::new(MovieGenConfig { seed, movies: 40, ..Default::default() }).generate();
    let reviews =
        |seed| ReviewsGen::new(ReviewsGenConfig { seed, products: 8, reviews: (3, 12) }).generate();
    let outdoor = |seed| {
        OutdoorGen::new(OutdoorGenConfig { seed, products: (5, 15), focus_bias: 0.7 }).generate()
    };
    let jobs =
        |seed| JobsGen::new(JobsGenConfig { seed, openings: (4, 9), focus_bias: 0.7 }).generate();

    for seed in [0u64, 42, 12345] {
        for (name, gen) in [
            ("movies", &movies as &dyn Fn(u64) -> xsact_xml::Document),
            ("reviews", &reviews),
            ("outdoor", &outdoor),
            ("jobs", &jobs),
        ] {
            let a = gen(seed);
            let b = gen(seed);
            assert_eq!(
                write_subtree(&a, a.root()),
                write_subtree(&b, b.root()),
                "{name} seed {seed}"
            );
        }
    }
}

#[test]
fn different_seeds_give_different_data() {
    let a = MoviesGen::new(MovieGenConfig { seed: 1, movies: 40, ..Default::default() }).generate();
    let b = MoviesGen::new(MovieGenConfig { seed: 2, movies: 40, ..Default::default() }).generate();
    assert_ne!(write_subtree(&a, a.root()), write_subtree(&b, b.root()));
}

#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        let doc = MoviesGen::new(MovieGenConfig { movies: 80, ..Default::default() }).generate();
        let engine = SearchEngine::build(doc);
        let results = engine.search_all(&Query::parse("drama family"), None).0;
        let features: Vec<ResultFeatures> =
            results.iter().take(5).map(|r| features_of(&engine, r)).collect();
        let config = DfsConfig { size_bound: 5, ..DfsConfig::default() };
        let instance = Arc::new(Instance::build(&features, config));
        let outcome = compare(&instance, Algorithm::MultiSwap).unwrap();
        (outcome.dod(), outcome.table())
    };
    let (dod_a, table_a) = run();
    let (dod_b, table_b) = run();
    assert_eq!(dod_a, dod_b);
    assert_eq!(table_a, table_b);
}

/// The `.xidx` image is a pure function of the document: saved twice it is
/// the same bytes, and a write → reparse of the document saves the same
/// document section and index — only the header's source digest (none for
/// a generated document) and the trailer over it differ — while two parses
/// of the same text save identical files.
#[test]
fn image_bytes_are_stable_across_saves_and_reparses() {
    let doc = MoviesGen::new(MovieGenConfig { movies: 30, ..Default::default() }).generate();
    let save = |doc: &xsact_xml::Document| {
        let mut bytes = Vec::new();
        let index = xsact_index::InvertedIndex::build(doc);
        xsact_index::save_image(doc, &index, &mut bytes).unwrap();
        bytes
    };
    let generated = save(&doc);
    assert_eq!(generated, save(&doc));
    let xml = xsact_xml::writer::write_document(&doc, &xsact_xml::WriteOptions::compact());
    let reparsed = xsact_xml::parse_document(&xml).unwrap();
    assert_eq!(reparsed, doc);
    let parsed = save(&reparsed);
    assert_eq!(generated[8..16], [0; 8], "a generated document has no source");
    assert_ne!(parsed[8..16], [0; 8], "a parsed one is keyed by its source");
    let sections = |bytes: &[u8]| bytes[16..bytes.len() - 8].to_vec();
    assert_eq!(sections(&parsed), sections(&generated));
    assert_eq!(parsed, save(&xsact_xml::parse_document(&xml).unwrap()));
}

#[test]
fn saved_index_round_trips_through_bytes() {
    let doc = MoviesGen::new(MovieGenConfig { movies: 30, ..Default::default() }).generate();
    let index = xsact_index::InvertedIndex::build(&doc);
    let mut bytes = Vec::new();
    xsact_index::save_image(&doc, &index, &mut bytes).unwrap();
    let (loaded_doc, loaded) =
        xsact_index::load_image(&mut bytes.as_slice(), None, &mut Vec::new()).unwrap();
    assert_eq!(loaded_doc, doc);
    let engine_a = SearchEngine::from_parts(doc, index);
    let engine_b = SearchEngine::from_parts(loaded_doc, loaded);
    for q in ["drama family", "war soldier", "the"] {
        assert_eq!(
            engine_a.search_all(&Query::parse(q), None).0,
            engine_b.search_all(&Query::parse(q), None).0,
            "query {q}"
        );
    }
}
