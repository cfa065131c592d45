//! Integration tests of the `Workbench` pipeline facade: the documented
//! entry point must drive the paper's full flow (search → entity promotion
//! → feature extraction → DFS generation) with typed errors, and its
//! feature cache must make repeated queries free of re-extraction.

use std::sync::Arc;
use xsact::prelude::*;
use xsact_data::fixtures;
use xsact_data::movies::{MovieGenConfig, MoviesGen};

fn figure1_workbench() -> Workbench {
    Workbench::from_document(fixtures::figure1_document())
}

#[test]
fn every_algorithm_runs_through_the_pipeline() {
    let wb = figure1_workbench();
    let pipeline = wb
        .query(fixtures::PAPER_QUERY)
        .expect("paper query is non-empty")
        .size_bound(fixtures::TABLE_BOUND);
    for algo in Algorithm::ALL {
        let outcome = pipeline.compare(algo).expect("figure 1 has two results");
        assert_eq!(outcome.algorithm, algo);
        assert!(outcome.set.all_valid(&outcome.instance), "{}", algo.name());
        assert!(outcome.dod() <= outcome.dod_upper_bound(), "{}", algo.name());
        assert!(!outcome.table().is_empty());
    }
}

#[test]
fn dod_ordering_matches_the_paper() {
    // multi-swap ≥ single-swap ≥ snippet on the worked example (and the
    // exhaustive oracle confirms the multi-swap optimum).
    let wb = figure1_workbench();
    let pipeline = wb
        .query(fixtures::PAPER_QUERY)
        .expect("paper query is non-empty")
        .size_bound(fixtures::TABLE_BOUND);
    let snippet = pipeline.compare(Algorithm::Snippet).unwrap();
    let single = pipeline.compare(Algorithm::SingleSwap).unwrap();
    let multi = pipeline.compare(Algorithm::MultiSwap).unwrap();
    assert!(single.dod() >= snippet.dod(), "single {} < snippet {}", single.dod(), snippet.dod());
    assert!(multi.dod() >= single.dod(), "multi {} < single {}", multi.dod(), single.dod());
    assert_eq!(multi.dod(), 5);

    let oracle = pipeline.compare(Algorithm::Exhaustive { limit: 5_000_000 }).unwrap();
    assert_eq!(oracle.algorithm, Algorithm::Exhaustive { limit: 5_000_000 });
    assert_eq!(oracle.dod(), multi.dod());
}

#[test]
fn feature_cache_returns_identical_features_across_queries() {
    let wb = figure1_workbench();
    let first = wb.query(fixtures::PAPER_QUERY).unwrap().features().unwrap();
    let stats_after_first = wb.cache_stats();
    assert_eq!(stats_after_first.misses, first.len() as u64);
    assert_eq!(stats_after_first.hits, 0);

    // An identical repeated query re-extracts nothing…
    let second = wb.query(fixtures::PAPER_QUERY).unwrap().features().unwrap();
    let stats_after_second = wb.cache_stats();
    assert_eq!(stats_after_second.misses, stats_after_first.misses, "second extract pass ran");
    assert_eq!(stats_after_second.hits, second.len() as u64);
    // …and the features are identical, value for value.
    assert_eq!(first, second);

    // A different query over the same entities also reuses the cache (the
    // cache is keyed by result root, not by query).
    let third = wb.query("TomTom").unwrap().features().unwrap();
    assert!(third.iter().all(|rf| first.contains(rf)));
    assert_eq!(wb.cache_stats().misses, stats_after_first.misses);
}

#[test]
fn outcomes_share_one_instance_and_outlive_the_cache() {
    let wb = figure1_workbench();
    let pipeline = wb.query(fixtures::PAPER_QUERY).unwrap().size_bound(fixtures::TABLE_BOUND);
    let multi = pipeline.compare(Algorithm::MultiSwap).unwrap();
    let snippet = pipeline.compare(Algorithm::Snippet).unwrap();
    let oracle = pipeline.compare(Algorithm::Exhaustive { limit: 5_000_000 }).unwrap();
    assert!(Arc::ptr_eq(&multi.instance, &snippet.instance));
    assert!(Arc::ptr_eq(&multi.instance, &oracle.instance));
    // A reconfigured pipeline builds its own.
    let rebound = pipeline.clone().size_bound(3).compare(Algorithm::MultiSwap).unwrap();
    assert!(!Arc::ptr_eq(&multi.instance, &rebound.instance));

    // Dropping the cache and the pipeline takes nothing from an outcome.
    let table = multi.table();
    wb.clear_cache();
    drop(pipeline);
    assert_eq!(wb.cached_results(), 0);
    assert_eq!(multi.table(), table);
    assert_eq!(multi.dod(), 5);
    assert_eq!(multi.labels().len(), 2);
    assert!(multi.dod() <= multi.dod_upper_bound());
}

#[test]
fn cache_scales_across_a_query_session() {
    let doc = MoviesGen::new(MovieGenConfig { movies: 120, ..Default::default() }).generate();
    let wb = Workbench::from_document(doc);
    let queries = ["drama family", "drama", "family", "war soldier"];
    for q in queries {
        if let Ok(pipeline) = wb.query(q) {
            let _ = pipeline.take(6).features();
        }
    }
    let stats = wb.cache_stats();
    // Overlapping queries (drama ⊃ drama family, …) must have produced hits
    // and the cache never extracts the same root twice.
    assert!(stats.hits > 0, "no cache reuse across overlapping queries");
    assert_eq!(wb.cached_results() as u64, stats.misses);
}

#[test]
fn empty_query_surfaces_typed_error() {
    let wb = figure1_workbench();
    assert!(matches!(wb.query(""), Err(XsactError::EmptyQuery)));
    assert!(matches!(wb.query("  ,,, !"), Err(XsactError::EmptyQuery)));
    // Display is human-readable for the CLI.
    assert!(XsactError::EmptyQuery.to_string().contains("no search terms"));
}

#[test]
fn unmatched_query_surfaces_no_results() {
    let wb = figure1_workbench();
    let err = wb.query("zeppelin").unwrap().features().unwrap_err();
    match err {
        XsactError::NoResults { query } => assert_eq!(query, "{zeppelin}"),
        other => panic!("expected NoResults, got {other:?}"),
    }
    let err = wb.query("zeppelin").unwrap().compare(Algorithm::MultiSwap).unwrap_err();
    assert!(matches!(err, XsactError::NoResults { .. }));
}

#[test]
fn selection_and_semantics_flow_through() {
    let wb = figure1_workbench();
    let slca = wb.query(fixtures::PAPER_QUERY).unwrap().semantics(ResultSemantics::Slca).results();
    let elca = wb.query(fixtures::PAPER_QUERY).unwrap().semantics(ResultSemantics::Elca).results();
    assert!(elca.len() >= slca.len());

    let selected = wb.query(fixtures::PAPER_QUERY).unwrap().select([2, 1]).selection().unwrap();
    assert_eq!(selected.len(), 2);
    assert_eq!(selected[0].label, fixtures::GPS3_NAME);
    assert_eq!(selected[1].label, fixtures::GPS1_NAME);
}

#[test]
fn ranked_pipeline_orders_best_first() {
    let wb = figure1_workbench();
    let ranked = wb.query(fixtures::PAPER_QUERY).unwrap().ranked(true).ranked_results();
    assert!(!ranked.is_empty());
    for pair in ranked.windows(2) {
        assert!(pair[0].1.score >= pair[1].1.score);
    }
    // The ranked flag changes result order, not membership.
    let plain = wb.query(fixtures::PAPER_QUERY).unwrap().results();
    assert_eq!(ranked.len(), plain.len());
}

#[test]
fn ranked_take_pushes_k_down_and_equals_the_truncated_full_sort() {
    let doc = MoviesGen::new(MovieGenConfig { movies: 80, ..Default::default() }).generate();
    let wb = Workbench::from_document(doc);
    let full = wb.query("drama family").unwrap().ranked(true).results();
    assert!(full.len() > 8, "the fixture must have plenty of results");
    for k in [0, 1, 3, 7, full.len(), full.len() + 5] {
        let searches_before = wb.searches_executed();
        let pipeline = wb.query("drama family").unwrap().ranked(true).take(k);
        let selection = pipeline.selection().unwrap();
        assert_eq!(selection, full[..k.min(full.len())], "k = {k}");
        // The bound went down into the executor: exactly one (bounded)
        // search ran, and the pipeline observed its counters.
        assert_eq!(wb.searches_executed(), searches_before + 1, "k = {k}");
        let stats = pipeline.executor_stats().expect("a search ran");
        if k < full.len() {
            assert!(stats.candidates_pruned > 0, "k = {k}: the heap must have evicted");
        }
    }
}

#[test]
fn top_results_equal_the_ranked_results_prefix() {
    let doc = MoviesGen::new(MovieGenConfig { movies: 60, ..Default::default() }).generate();
    let wb = Workbench::from_document(doc);
    let unbounded = wb.query("drama family").unwrap().ranked_results();
    let top = wb.query("drama family").unwrap().take(5).top_results();
    assert_eq!(top, unbounded[..5.min(unbounded.len())]);
    // Without a bound, top_results is the whole ranking.
    let all = wb.query("drama family").unwrap().top_results();
    assert_eq!(all, unbounded);
    // And an unbounded pipeline shares one memoized search between
    // top_results() and ranked_results().
    let before = wb.searches_executed();
    let pipeline = wb.query("drama family").unwrap();
    assert_eq!(pipeline.top_results(), pipeline.ranked_results());
    assert_eq!(wb.searches_executed(), before + 1, "memo must be shared");
}

#[test]
fn executor_stats_accumulate_across_queries() {
    let wb = figure1_workbench();
    assert_eq!(wb.executor_stats(), ExecutorStats::default());
    assert_eq!(wb.searches_executed(), 0);
    let _ = wb.query(fixtures::PAPER_QUERY).unwrap().results();
    let after_one = wb.executor_stats();
    assert!(after_one.postings_scanned > 0);
    assert_eq!(wb.searches_executed(), 1);
    let _ = wb.query(fixtures::PAPER_QUERY).unwrap().ranked(true).results();
    let after_two = wb.executor_stats();
    assert!(after_two.postings_scanned > after_one.postings_scanned);
    assert_eq!(wb.searches_executed(), 2);
    // A zero-postings term short-circuits in the planner: the search is
    // counted, the counters do not move.
    let _ = wb.query("tomtom zeppelin").unwrap().results();
    assert_eq!(wb.executor_stats(), after_two);
    assert_eq!(wb.searches_executed(), 3);
    // clear_cache resets the feature cache, not the executor history.
    wb.clear_cache();
    assert_eq!(wb.executor_stats(), after_two);
}

#[test]
fn workbench_from_xml_end_to_end() {
    let wb = Workbench::from_xml(
        "<shop>\
           <product><name>Alpha GPS</name><kind>gps</kind>\
             <reviews><review><pros><compact>yes</compact></pros></review></reviews></product>\
           <product><name>Beta GPS</name><kind>gps</kind>\
             <reviews><review><pros><fast>yes</fast></pros></review></reviews></product>\
         </shop>",
    )
    .expect("well-formed XML");
    let outcome = wb.query("gps").unwrap().size_bound(4).compare(Algorithm::MultiSwap).unwrap();
    assert_eq!(outcome.labels(), ["Alpha GPS", "Beta GPS"]);
    assert!(outcome.dod() > 0);

    assert!(matches!(Workbench::from_xml("<broken"), Err(XsactError::Xml(_))));
}
