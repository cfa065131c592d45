//! Integration tests of the sharded corpus engine: cross-shard
//! determinism, cross-document comparison tables, concurrent cache
//! consistency, and directory ingestion with the per-document index cache.

use xsact::prelude::*;

/// A corpus where the paper's query spans documents: every store sells
/// TomTom GPS units, so the merged top-k must mix documents.
fn gps_corpus() -> Corpus {
    let stores: Vec<(String, String)> = (0..6)
        .map(|i| {
            let xml = format!(
                "<shop>\
                   <product><name>TomTom Go {i}00</name><kind>GPS</kind>\
                     <reviews><review><pros><compact>yes</compact></pros></review></reviews>\
                   </product>\
                   <product><name>Canon Ixus {i}</name><kind>camera</kind></product>\
                 </shop>"
            );
            (format!("store-{i}"), xml)
        })
        .collect();
    Corpus::from_xml_strings(stores.iter().map(|(n, x)| (n.as_str(), x.as_str()))).unwrap()
}

#[test]
fn shard_counts_1_2_8_yield_byte_identical_rankings_and_tables() {
    let mut corpus = Corpus::synthetic_movies(8, 60, 42);
    let mut baseline: Option<(String, String)> = None;
    for shards in [1usize, 2, 8] {
        corpus.set_shards(shards);
        assert_eq!(corpus.effective_shards(), shards);
        let query = corpus.query("drama family").unwrap().top(4).size_bound(6);
        let ranking = query.ranking().render(usize::MAX);
        let table = query.compare(Algorithm::MultiSwap).unwrap().table();
        match &baseline {
            None => baseline = Some((ranking, table)),
            Some((r, t)) => {
                assert_eq!(*r, ranking, "ranking diverged at {shards} shards");
                assert_eq!(*t, table, "table diverged at {shards} shards");
            }
        }
    }
    let (ranking, _) = baseline.unwrap();
    assert!(ranking.lines().count() > 4, "fixture too small to be meaningful");
}

#[test]
fn bounded_compare_path_matches_ranking_then_compare() {
    // The compare-only path pushes `top` down into each shard (local
    // top-k, merge of shards × k candidates); it must produce exactly the
    // table the full-ranking path produces, at every shard count.
    let mut corpus = Corpus::synthetic_movies(5, 50, 11);
    for shards in [1usize, 2, 8] {
        corpus.set_shards(shards);
        // Full path: render the ranking first, then compare (reuses memo).
        let with_ranking = corpus.query("drama family").unwrap().top(4).size_bound(6);
        let full_render = with_ranking.ranking().render(4);
        let full = with_ranking.compare(Algorithm::MultiSwap).unwrap();
        // Bounded path: compare without ever asking for the ranking.
        let bounded_query = corpus.query("drama family").unwrap().top(4).size_bound(6);
        let bounded = bounded_query.compare(Algorithm::MultiSwap).unwrap();
        assert_eq!(bounded.table(), full.table(), "{shards} shards");
        assert_eq!(bounded.dod(), full.dod(), "{shards} shards");
        let hits =
            |o: &CorpusOutcome| o.hits.iter().map(|h| (h.doc, h.result.root)).collect::<Vec<_>>();
        assert_eq!(hits(&bounded), hits(&full), "{shards} shards");
        // And the bounded hits are exactly the full ranking's head.
        let bounded_render = CorpusRanking { hits: bounded.hits.clone(), shards }.render(4);
        assert_eq!(bounded_render, full_render, "{shards} shards");
    }
}

#[test]
fn compare_after_ranking_reuses_the_fan_out() {
    // Satellite fix: requesting both the ranking and the table must run
    // exactly one fan-out — compare() slices the memoized full ranking
    // instead of launching a second, bounded search.
    let corpus = Corpus::synthetic_movies(3, 40, 5).with_shards(2);
    let searches = |c: &Corpus| -> u64 {
        (0..c.len()).map(|i| c.workbench(DocId(i as u32)).searches_executed()).sum()
    };
    let query = corpus.query("drama family").unwrap().top(4);
    assert!(!query.ranking().hits.is_empty());
    let after_ranking = searches(&corpus);
    assert_eq!(after_ranking, corpus.len() as u64, "one search per document");
    query.compare(Algorithm::MultiSwap).unwrap();
    assert_eq!(searches(&corpus), after_ranking, "compare() must not search again");
    // A compare-only query fans out exactly once too (bounded).
    corpus.query("drama family").unwrap().top(4).compare(Algorithm::MultiSwap).unwrap();
    assert_eq!(searches(&corpus), after_ranking + corpus.len() as u64);
    // Executor counters aggregate corpus-wide.
    assert!(corpus.executor_stats().postings_scanned > 0);
}

#[test]
fn merged_ranking_spans_documents_and_is_score_ordered() {
    let corpus = gps_corpus().with_shards(3);
    let query = corpus.query("TomTom GPS").unwrap();
    let ranking = query.ranking();
    assert_eq!(ranking.hits.len(), 6, "one hit per store");
    let docs: std::collections::HashSet<_> = ranking.hits.iter().map(|h| h.doc).collect();
    assert_eq!(docs.len(), 6);
    for pair in ranking.hits.windows(2) {
        assert!(pair[0].score.score >= pair[1].score.score, "merged ranking must be best-first");
    }
    // Equal scores (structurally identical stores) tie-break on DocId.
    let tied: Vec<_> = ranking
        .hits
        .iter()
        .filter(|h| h.score.score == ranking.hits[0].score.score)
        .map(|h| h.doc)
        .collect();
    let mut sorted = tied.clone();
    sorted.sort();
    assert_eq!(tied, sorted, "tied scores must order by document id");
}

#[test]
fn cross_document_comparison_reproduces_figure1_shape() {
    // Figure 1's two GPS units, but living in *different* documents: the
    // corpus comparison must still line their features up in one table.
    let corpus = gps_corpus();
    let outcome = corpus
        .query("TomTom GPS")
        .unwrap()
        .top(4)
        .size_bound(6)
        .compare(Algorithm::MultiSwap)
        .unwrap();
    assert_eq!(outcome.hits.len(), 4);
    let docs: std::collections::HashSet<_> = outcome.hits.iter().map(|h| h.doc).collect();
    assert_eq!(docs.len(), 4, "top-4 drawn from four different documents");
    let table = outcome.table();
    for hit in &outcome.hits {
        assert!(
            table.contains(hit.doc_name.as_ref()),
            "column for {} missing:\n{table}",
            hit.doc_name
        );
    }
}

#[test]
fn concurrent_corpus_queries_are_consistent_and_lose_no_counter_updates() {
    let corpus = Corpus::synthetic_movies(4, 40, 7).with_shards(2);
    const THREADS: usize = 8;
    const ROUNDS: usize = 5;
    let baseline =
        corpus.query("drama family").unwrap().top(4).compare(Algorithm::MultiSwap).unwrap();
    let base_lookups: u64 =
        (0..corpus.len()).map(|i| corpus.workbench(DocId(i as u32)).cache_stats().lookups()).sum();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    let outcome = corpus
                        .query("drama family")
                        .unwrap()
                        .top(4)
                        .compare(Algorithm::MultiSwap)
                        .unwrap();
                    assert_eq!(outcome.table(), baseline.table());
                    assert_eq!(outcome.dod(), baseline.dod());
                }
            });
        }
    });
    // Every feature lookup increments exactly one counter: the baseline
    // run plus THREADS * ROUNDS runs of 4 lookups each, none lost.
    let lookups: u64 =
        (0..corpus.len()).map(|i| corpus.workbench(DocId(i as u32)).cache_stats().lookups()).sum();
    assert_eq!(base_lookups, 4);
    assert_eq!(lookups, base_lookups + (THREADS * ROUNDS * 4) as u64, "lost counter updates");
    // After the first extraction everything is served from the cache.
    let misses: u64 =
        (0..corpus.len()).map(|i| corpus.workbench(DocId(i as u32)).cache_stats().misses).sum();
    assert!(misses <= 4 * 2, "at most first-touch (plus benign racing) extractions: {misses}");
}

/// Scratch directory removed on drop, so a failing assertion cannot leak
/// it into the system temp dir.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("xsact-corpus-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn directory_ingestion_is_sorted_and_index_cache_round_trips() {
    let tmp = TempDir::new("roundtrip");
    let dir = tmp.0.clone();
    // Write files in non-sorted creation order; ingestion must sort.
    for name in ["zeta", "alpha", "midway"] {
        std::fs::write(
            dir.join(format!("{name}.xml")),
            format!("<shop><product><name>{name} gps</name><kind>GPS</kind></product></shop>"),
        )
        .unwrap();
    }
    std::fs::write(dir.join("notes.txt"), "not xml, must be ignored").unwrap();

    let corpus = Corpus::from_dir(&dir).unwrap();
    assert_eq!(corpus.len(), 3);
    assert_eq!(corpus.doc_name(DocId(0)), "alpha");
    assert_eq!(corpus.doc_name(DocId(1)), "midway");
    assert_eq!(corpus.doc_name(DocId(2)), "zeta");
    let cold = corpus.query("gps").unwrap().ranking().render(10);

    // Round-trip through the index cache: first cached load builds and
    // saves, second load restores; rankings stay identical.
    let cache = dir.join("indexes");
    let built = Corpus::from_dir_cached(&dir, &cache).unwrap();
    for name in ["alpha", "midway", "zeta"] {
        assert!(cache.join(format!("{name}.xidx")).exists(), "{name}.xidx not written");
    }
    let restored = Corpus::from_dir_cached(&dir, &cache).unwrap();
    assert_eq!(built.query("gps").unwrap().ranking().render(10), cold);
    assert_eq!(restored.query("gps").unwrap().ranking().render(10), cold);

    // A corrupt cache entry is rebuilt, not trusted and not fatal.
    std::fs::write(cache.join("alpha.xidx"), b"garbage").unwrap();
    let healed = Corpus::from_dir_cached(&dir, &cache).unwrap();
    assert_eq!(healed.query("gps").unwrap().ranking().render(10), cold);

    // Nor is an entry that cannot be read at all — an I/O error other than
    // "not found" (here a directory where the file should be): the corpus
    // still boots from the XML, and the resave that cannot succeed leaves
    // no temp file behind.
    std::fs::remove_file(cache.join("midway.xidx")).unwrap();
    std::fs::create_dir(cache.join("midway.xidx")).unwrap();
    let degraded = Corpus::from_dir_cached(&dir, &cache).unwrap();
    assert_eq!(degraded.query("gps").unwrap().ranking().render(10), cold);
    let mut entries: Vec<_> = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    entries.sort();
    assert_eq!(entries, ["alpha.xidx", "midway.xidx", "zeta.xidx"]);
}

#[test]
fn corpus_errors_are_typed() {
    let corpus = gps_corpus();
    assert!(matches!(corpus.query(""), Err(XsactError::EmptyQuery)));
    assert!(matches!(Corpus::new().query("gps"), Err(XsactError::EmptyCorpus)));
    assert!(matches!(
        corpus.query("zeppelin").unwrap().compare(Algorithm::MultiSwap),
        Err(XsactError::NoResults { .. })
    ));
    assert!(matches!(
        corpus.query("Canon").unwrap().top(1).compare(Algorithm::MultiSwap),
        Err(XsactError::NotEnoughResults { .. })
    ));
    assert!(matches!(
        corpus.query("TomTom").unwrap().threshold(-1.0).compare(Algorithm::MultiSwap),
        Err(XsactError::InvalidConfig(_))
    ));
    let missing = std::env::temp_dir().join("xsact-no-such-dir-test");
    assert!(matches!(Corpus::from_dir(&missing), Err(XsactError::Io(_))));
}

#[test]
fn workbenches_inside_the_corpus_stay_layer_accessible() {
    // The ROADMAP's API decision: orchestration lives in the facade, the
    // layers stay reachable. A corpus exposes each document's workbench,
    // and through it the engine and document.
    let corpus = gps_corpus();
    let wb = corpus.workbench(DocId(2));
    assert!(wb.engine().index().stats().terms > 0);
    let results = wb.query("TomTom").unwrap().results();
    assert_eq!(results.len(), 1);
    assert!(wb.result_xml(&results[0]).starts_with("<product>"));
}
