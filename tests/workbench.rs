//! Integration tests of the `Workbench` facade: the documented entry point
//! must drive the paper's full flow (search → entity promotion → feature
//! extraction → DFS generation) with typed errors, and its feature cache
//! must make repeated queries free of re-extraction. The memo and
//! executor-work tests run over both constructors of the one query builder,
//! and pin a query's own [`ExecutorStats`] to the engine's stats of the
//! searches it should have run.

use std::sync::Arc;
use xsact::prelude::*;
use xsact_data::fixtures;
use xsact_data::movies::{MovieGenConfig, MoviesGen};

fn figure1_workbench() -> Workbench {
    Workbench::from_document(fixtures::figure1_document())
}

/// One document behind either constructor of the query builder: its
/// workbench's own query, or the query of the corpus holding only it.
struct Subject {
    corpus: Corpus,
    via_corpus: bool,
}

impl Subject {
    /// Both constructors over `doc`.
    fn both(doc: &Document) -> [Subject; 2] {
        [false, true].map(|via_corpus| {
            let xml = xsact::xml::writer::write_subtree(doc, doc.root());
            let corpus = Corpus::from_xml_strings([("doc", xml.as_str())]).unwrap();
            Subject { corpus, via_corpus }
        })
    }

    fn name(&self) -> &'static str {
        if self.via_corpus {
            "corpus"
        } else {
            "workbench"
        }
    }

    /// A query with the constructor's defaults: callers set the order and
    /// the bound they test, so only the constructor differs.
    fn query(&self, text: &str) -> CorpusQuery<'_> {
        if self.via_corpus { self.corpus.query(text) } else { self.wb().query(text) }.unwrap()
    }

    /// The workbench the queries search.
    fn wb(&self) -> &Workbench {
        self.corpus.workbench(DocId(0))
    }
}

/// The executor work of one search of `text` over `wb`'s engine: the
/// streaming top-`k` when ranked, the document-order list else (`k` is
/// then ignored). What a query costs is pinned to sums of these.
fn work(wb: &Workbench, text: &str, ranked: bool, k: usize) -> ExecutorStats {
    let (engine, query) = (wb.engine(), Query::parse(text));
    if ranked {
        engine.search_top_k(&query, k, None).1
    } else {
        engine.search_all(&query, None).1
    }
}

/// The labels of `hits`, in order.
fn labels(hits: &[CorpusHit]) -> Vec<&str> {
    hits.iter().map(|hit| hit.result.label.as_str()).collect()
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
    assert_eq!(wb.cache_stats().lookups(), 0);
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
    let session = |wb: &Workbench| {
        for q in queries {
            if let Ok(pipeline) = wb.query(q) {
                let _ = pipeline.take(6).features();
            }
        }
    };
    session(&wb);
    let stats = wb.cache_stats();
    // Overlapping queries (drama ⊃ drama family, …) must have produced hits
    // and the cache never extracts the same root twice: the same session
    // again adds only hits.
    assert!(stats.hits > 0, "no cache reuse across overlapping queries");
    session(&wb);
    let again = wb.cache_stats();
    assert_eq!((again.misses, again.hits), (stats.misses, stats.hits + stats.lookups()));
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
    // SLCA is the only semantics; choosing it leaves the query as it was.
    let slca = wb.query(fixtures::PAPER_QUERY).unwrap().semantics(ResultSemantics::Slca);
    assert_eq!(slca.ranking().hits, wb.query(fixtures::PAPER_QUERY).unwrap().ranking().hits);

    let selected = wb.query(fixtures::PAPER_QUERY).unwrap().select([2, 1]).selection().unwrap();
    assert_eq!(labels(&selected), [fixtures::GPS3_NAME, fixtures::GPS1_NAME]);
}

#[test]
fn ranked_pipeline_orders_best_first() {
    let wb = figure1_workbench();
    let query = wb.query(fixtures::PAPER_QUERY).unwrap().ranked(true);
    let ranked = &query.ranking().hits;
    assert!(!ranked.is_empty());
    let scores: Vec<f64> = ranked.iter().map(|hit| hit.score.as_ref().unwrap().score).collect();
    assert!(scores.windows(2).all(|pair| pair[0] >= pair[1]), "{scores:?}");
    // The ranked flag changes result order, not membership; a document-order
    // list scores nothing.
    let plain = wb.query(fixtures::PAPER_QUERY).unwrap();
    assert_eq!(plain.ranking().hits.len(), ranked.len());
    assert!(plain.ranking().hits.iter().all(|hit| hit.score.is_none()));
}

#[test]
fn ranked_take_pushes_k_down_and_equals_the_truncated_full_sort() {
    let doc = MoviesGen::new(MovieGenConfig { movies: 80, ..Default::default() }).generate();
    for subject in Subject::both(&doc) {
        let (name, wb) = (subject.name(), subject.wb());
        let full = subject.query("drama family").ranked(true).ranking().hits.clone();
        assert!(full.len() > 8, "the fixture must have plenty of results");
        for k in [0, 1, 3, 7, full.len(), full.len() + 5] {
            let query = subject.query("drama family").ranked(true).take(k);
            let selection = query.selection().unwrap();
            assert_eq!(selection, full[..k.min(full.len())], "{name}: k = {k}");
            // The bound went down into the executor: the query's work is
            // exactly one bounded search.
            let stats = query.executor_stats();
            assert_eq!(stats, work(wb, "drama family", true, k), "{name}: k = {k}");
            if k < full.len() {
                assert!(stats.candidates_pruned > 0, "{name}: k = {k}: the heap must have evicted");
            }
        }
    }
}

#[test]
fn a_bounded_selection_is_the_head_of_the_ranking_and_shares_its_search() {
    let doc = MoviesGen::new(MovieGenConfig { movies: 60, ..Default::default() }).generate();
    for subject in Subject::both(&doc) {
        let (name, wb) = (subject.name(), subject.wb());
        for ranked in [true, false] {
            let full = subject.query("drama family").ranked(ranked).ranking().hits.clone();
            assert!(full.len() > 5, "{name}: the fixture must have plenty of results");
            let top = subject.query("drama family").ranked(ranked).take(5).selection().unwrap();
            assert_eq!(top, full[..5], "{name}, ranked {ranked}");
            if !subject.via_corpus {
                // Without a bound, the selection is the whole list.
                let all = subject.query("drama family").ranked(ranked).selection().unwrap();
                assert_eq!(all, full, "{name}, ranked {ranked}");
            }
            // Once the full list is there, the bounded selection is its
            // head: one search serves both memos.
            let query = subject.query("drama family").ranked(ranked).take(5);
            assert_eq!(query.ranking().hits, full, "{name}, ranked {ranked}");
            assert_eq!(query.selection().unwrap(), top, "{name}, ranked {ranked}");
            query.compare(Algorithm::MultiSwap).unwrap();
            let one_run = work(wb, "drama family", ranked, usize::MAX);
            assert_eq!(query.executor_stats(), one_run, "{name}, ranked {ranked}: one memo");
        }
    }
}

#[test]
fn a_query_reports_the_work_of_its_own_runs() {
    let doc = MoviesGen::new(MovieGenConfig { movies: 60, ..Default::default() }).generate();
    for subject in Subject::both(&doc) {
        let (name, wb) = (subject.name(), subject.wb());
        let query = subject.query("drama family").ranked(true).take(5);
        assert_eq!(query.executor_stats(), ExecutorStats::default(), "{name}: nothing ran yet");
        query.selection().unwrap();
        let bounded = work(wb, "drama family", true, 5);
        assert_eq!(query.executor_stats(), bounded, "{name}");
        // The full list is a second run; the query reports both, and
        // another query's searches are not its own.
        let other = subject.query("drama family").ranked(true);
        other.ranking();
        query.ranking();
        let both = bounded + work(wb, "drama family", true, usize::MAX);
        assert_eq!(query.executor_stats(), both, "{name}");
        // No setter resets the total: a new order runs again and adds.
        let query = query.ranked(false);
        query.ranking();
        assert_eq!(query.executor_stats(), both + work(wb, "drama family", false, 0), "{name}");
        // A zero-postings term short-circuits in the planner: nothing ran.
        let hopeless = subject.query("tomtom zeppelin").ranked(true);
        assert!(hopeless.ranking().hits.is_empty(), "{name}");
        assert_eq!(hopeless.executor_stats(), ExecutorStats::default(), "{name}");
    }
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
