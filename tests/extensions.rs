//! Integration tests for the extension features (the paper's "future work"
//! and companion techniques): result ranking and simulated annealing.

use xsact::prelude::*;
use xsact_core::annealing::{anneal, anneal_from, AnnealingConfig};
use xsact_core::{dod_total, multi_swap, snippet_set, DfsConfig, Instance};
use xsact_data::movies::{MovieGenConfig, MoviesGen};

/// The feature statistics of one search result.
fn features_of(engine: &SearchEngine, result: &SearchResult) -> ResultFeatures {
    extract_features(engine.document(), engine.summary(), result.root, &result.label)
}

fn movie_engine() -> SearchEngine {
    let doc = MoviesGen::new(MovieGenConfig { movies: 120, ..Default::default() }).generate();
    SearchEngine::build(doc)
}

#[test]
fn ranked_search_is_a_permutation_of_plain_search() {
    let engine = movie_engine();

    let q = Query::parse("drama family");
    let plain = engine.search_all(&q, None).0;
    let ranked = engine.search_ranked(&q);
    assert_eq!(plain.len(), ranked.len());
    let mut plain_roots: Vec<_> = plain.iter().map(|r| r.root).collect();
    let mut ranked_roots: Vec<_> = ranked.iter().map(|(r, _)| r.root).collect();
    plain_roots.sort();
    ranked_roots.sort();
    assert_eq!(plain_roots, ranked_roots);
    // Scores are non-increasing.
    for pair in ranked.windows(2) {
        assert!(pair[0].1.score >= pair[1].1.score);
    }
}

fn qm_instance(engine: &SearchEngine, bound: usize) -> Instance {
    let q = Query::parse("drama family");
    let results = engine.search_all(&q, None).0;
    let features: Vec<ResultFeatures> =
        results.iter().take(5).map(|r| features_of(engine, r)).collect();
    Instance::build(&features, DfsConfig { size_bound: bound, threshold_pct: 10.0 })
}

#[test]
fn annealing_never_hurts_and_respects_validity() {
    let engine = movie_engine();
    let inst = qm_instance(&engine, 4);
    let start = snippet_set(&inst);
    let start_dod = dod_total(&inst, &start);
    let cfg = AnnealingConfig { iterations: 3_000, ..Default::default() };
    let (annealed, dod) = anneal_from(&inst, start, &cfg);
    assert!(dod >= start_dod);
    assert!(annealed.all_valid(&inst));
    assert_eq!(dod, dod_total(&inst, &annealed));
}

#[test]
fn annealing_tracks_multi_swap_quality() {
    let engine = movie_engine();
    let inst = qm_instance(&engine, 5);
    let (multi, _) = multi_swap(&inst);
    let (_, annealed_dod) =
        anneal(&inst, &AnnealingConfig { iterations: 2_000, ..Default::default() });
    // anneal() starts from multi-swap, so it can only match or improve.
    assert!(annealed_dod >= dod_total(&inst, &multi));
}
