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
        let query = corpus.query("drama family").unwrap().take(4).size_bound(6);
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
    // The compare-only path pushes `take` down into each shard (local
    // top-k, merge of shards × k candidates); it must produce exactly the
    // table the full-ranking path produces, at every shard count.
    let mut corpus = Corpus::synthetic_movies(5, 50, 11);
    for shards in [1usize, 2, 8] {
        corpus.set_shards(shards);
        // Full path: render the ranking first, then compare (reuses memo).
        let with_ranking = corpus.query("drama family").unwrap().take(4).size_bound(6);
        let full_render = with_ranking.ranking().render(4);
        let full = with_ranking.compare(Algorithm::MultiSwap).unwrap();
        // Bounded path: compare without ever asking for the ranking.
        let bounded_query = corpus.query("drama family").unwrap().take(4).size_bound(6);
        let bounded = bounded_query.compare(Algorithm::MultiSwap).unwrap();
        assert_eq!(bounded.table(), full.table(), "{shards} shards");
        assert_eq!(bounded.dod(), full.dod(), "{shards} shards");
        let hits = |q: &CorpusQuery<'_>| {
            q.selection().unwrap().iter().map(|h| (h.doc, h.result.root)).collect::<Vec<_>>()
        };
        assert_eq!(hits(&bounded_query), hits(&with_ranking), "{shards} shards");
        // And the bounded hits are exactly the full ranking's head.
        let bounded_hits = bounded_query.selection().unwrap();
        let bounded_render = CorpusRanking { hits: bounded_hits }.render(4);
        assert_eq!(bounded_render, full_render, "{shards} shards");
    }
}

#[test]
fn compare_after_ranking_reuses_the_fan_out() {
    // Requesting both the ranking and the table must run exactly one
    // fan-out — compare() slices the memoized full ranking instead of
    // launching a second, bounded search. A query's executor work is the
    // sum of the engine's own stats over the documents it searched, the
    // same at every shard count.
    let base = Corpus::synthetic_movies(9, 40, 5);
    let per_doc = |k: usize| -> ExecutorStats {
        let query = Query::parse("drama family");
        (0..base.len())
            .map(|i| base.workbench(DocId(i as u32)).engine().search_top_k(&query, k, None).1)
            .fold(ExecutorStats::default(), |sum, stats| sum + stats)
    };
    let (full_run, bounded_run) = (per_doc(usize::MAX), per_doc(4));
    assert!(full_run.postings_scanned > 0);
    for shards in [1, 2, 8] {
        let corpus = Corpus::synthetic_movies(9, 40, 5).with_shards(shards);
        let query = corpus.query("drama family").unwrap().take(4);
        assert!(!query.ranking().hits.is_empty());
        assert_eq!(query.executor_stats(), full_run, "{shards} shards: one search per document");
        query.compare(Algorithm::MultiSwap).unwrap();
        assert_eq!(query.executor_stats(), full_run, "{shards} shards: compare() searched again");
        // A compare-only query fans out exactly once too (bounded).
        let compare_only = corpus.query("drama family").unwrap().take(4);
        compare_only.compare(Algorithm::MultiSwap).unwrap();
        assert_eq!(compare_only.executor_stats(), bounded_run, "{shards} shards");
    }
}

#[test]
fn merged_ranking_spans_documents_and_is_score_ordered() {
    let corpus = gps_corpus().with_shards(3);
    let query = corpus.query("TomTom GPS").unwrap();
    let ranking = query.ranking();
    assert_eq!(ranking.hits.len(), 6, "one hit per store");
    let docs: std::collections::HashSet<_> = ranking.hits.iter().map(|h| h.doc).collect();
    assert_eq!(docs.len(), 6);
    let score = |h: &CorpusHit| h.score.expect("a ranked hit is scored");
    for pair in ranking.hits.windows(2) {
        assert!(score(&pair[0]) >= score(&pair[1]), "merged ranking must be best-first");
    }
    // Equal scores (structurally identical stores) tie-break on DocId.
    let tied: Vec<_> = ranking
        .hits
        .iter()
        .filter(|h| score(h) == score(&ranking.hits[0]))
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
    let query = corpus.query("TomTom GPS").unwrap().take(4).size_bound(6);
    let outcome = query.compare(Algorithm::MultiSwap).unwrap();
    let hits = query.selection().unwrap();
    assert_eq!(hits.len(), 4);
    let docs: std::collections::HashSet<_> = hits.iter().map(|h| h.doc).collect();
    assert_eq!(docs.len(), 4, "top-4 drawn from four different documents");
    let table = outcome.table();
    for hit in &hits {
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
        corpus.query("drama family").unwrap().take(4).compare(Algorithm::MultiSwap).unwrap();
    let base_lookups: u64 =
        (0..corpus.len()).map(|i| corpus.workbench(DocId(i as u32)).cache_stats().lookups()).sum();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    let outcome = corpus
                        .query("drama family")
                        .unwrap()
                        .take(4)
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
        let path = std::env::temp_dir().join(format!("xsact-dir-{tag}-{}", std::process::id()));
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
    // Every document matches, so each hit names its document.
    let query = corpus.query("gps").unwrap();
    let mut named: Vec<(DocId, &str)> =
        query.ranking().hits.iter().map(|hit| (hit.doc, &*hit.doc_name)).collect();
    named.sort_unstable();
    assert_eq!(named, [(DocId(0), "alpha"), (DocId(1), "midway"), (DocId(2), "zeta")]);
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
    let empty = Corpus::from_xml_strings([]).unwrap();
    assert!(matches!(empty.query("gps"), Err(XsactError::EmptyCorpus)));
    assert!(matches!(
        corpus.query("zeppelin").unwrap().compare(Algorithm::MultiSwap),
        Err(XsactError::NoResults { .. })
    ));
    assert!(matches!(
        corpus.query("Canon").unwrap().take(1).compare(Algorithm::MultiSwap),
        Err(XsactError::NotEnoughResults { .. })
    ));
    assert!(matches!(
        corpus.query("TomTom").unwrap().threshold(-1.0).compare(Algorithm::MultiSwap),
        Err(XsactError::InvalidConfig(_))
    ));
    let missing = std::env::temp_dir().join("xsact-no-such-dir-test");
    assert!(matches!(Corpus::from_dir(&missing), Err(XsactError::Io(_))));
}

/// A document is a corpus of one: over the same document, a one-document
/// corpus and a ranked workbench query select the same results and give
/// byte-identical tables — bounded by `take(k)` or ticked by position with
/// `select` — under every algorithm and shard count.
#[test]
fn a_document_is_a_corpus_of_one() {
    use xsact::data::{MovieGenConfig, MoviesGen};
    let doc =
        MoviesGen::new(MovieGenConfig { movies: 80, seed: 3, ..Default::default() }).generate();
    let wb = Workbench::from_document(doc);
    // The fleet's one document is generated from the same configuration.
    let mut corpus = Corpus::synthetic_movies(1, 80, 3);
    let table = |r: Result<ComparisonOutcome, XsactError>| r.unwrap().table();
    let mut compared = 0;
    for shards in [1, 2, 8] {
        corpus.set_shards(shards);
        for text in ["drama family", "comedy", "action hero", "love"] {
            let found = wb.query(text).unwrap().ranked(true).ranking().hits.len();
            assert!(found > 8, "{text}: the fixture must have plenty of results");
            let picks: [Vec<usize>; 3] = [vec![2, 1], vec![1, 3, 5], vec![found, 4, 7]];
            for k in [2, 4, 7] {
                let corpus_query = corpus.query(text).unwrap().take(k);
                let doc_query = wb.query(text).unwrap().ranked(true).take(k);
                for algorithm in Algorithm::ALL {
                    let of_corpus = corpus_query.compare(algorithm);
                    let of_doc = doc_query.compare(algorithm);
                    assert_eq!(table(of_corpus), table(of_doc), "{text} k={k} {shards} shards");
                    compared += 1;
                }
                for positions in &picks {
                    let of_corpus = corpus_query.clone().select(positions.iter().copied());
                    let of_doc = doc_query.clone().select(positions.iter().copied());
                    for algorithm in Algorithm::ALL {
                        assert_eq!(
                            table(of_corpus.compare(algorithm)),
                            table(of_doc.compare(algorithm)),
                            "{text} select {positions:?} {shards} shards"
                        );
                    }
                }
            }
        }
    }
    assert_eq!(compared, 3 * 4 * 3 * Algorithm::ALL.len());
}

/// `CorpusQuery::select` ticks positions of the full merged ranking, takes
/// precedence over `take`, and rejects position 0 or one past the end.
/// Comparing one query under every algorithm builds one instance: every
/// outcome shares it, and no feature lookup runs twice.
#[test]
fn corpus_select_ticks_ranking_positions_and_compares_on_one_instance() {
    let corpus = Corpus::synthetic_movies(4, 40, 7).with_shards(2);
    let ranking = corpus.query("drama family").unwrap().ranking().clone();
    let n = ranking.hits.len();
    assert!(n > 4);
    let ticked = corpus.query("drama family").unwrap().take(1).select([n, 1, 3]);
    ticked.compare(Algorithm::MultiSwap).unwrap();
    let picked = [&ranking.hits[n - 1], &ranking.hits[0], &ranking.hits[2]];
    assert_eq!(ticked.selection().unwrap().iter().collect::<Vec<_>>(), picked);
    for index in [0, n + 1] {
        let query = corpus.query("drama family").unwrap().select([1, index]);
        let err = query.compare(Algorithm::MultiSwap).unwrap_err();
        assert!(
            matches!(err, XsactError::InvalidSelection { index: i, available } if i == index && available == n),
            "{err}"
        );
    }

    let lookups = || -> u64 {
        (0..corpus.len()).map(|i| corpus.workbench(DocId(i as u32)).cache_stats().lookups()).sum()
    };
    let query = corpus.query("drama family").unwrap().take(4);
    let first = query.compare(Algorithm::ALL[0]).unwrap();
    let after_first = lookups();
    for algorithm in Algorithm::ALL {
        let outcome = query.compare(algorithm).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&outcome.instance, &first.instance),
            "{} rebuilt the instance",
            algorithm.name()
        );
        assert_eq!(outcome.labels(), first.labels());
    }
    assert_eq!(lookups(), after_first, "a memoised instance asks no cache");
}

#[test]
fn workbenches_inside_the_corpus_stay_layer_accessible() {
    // The ROADMAP's API decision: orchestration lives in the facade, the
    // layers stay reachable. A corpus exposes each document's workbench,
    // and through it the engine and document.
    let corpus = gps_corpus();
    let wb = corpus.workbench(DocId(2));
    assert!(wb.engine().index().stats().terms > 0);
    let query = wb.query("TomTom").unwrap();
    let hits = &query.ranking().hits;
    assert_eq!(hits.len(), 1);
    assert!(wb.result_xml(&hits[0].result).starts_with("<product>"));
}

/// A document-order corpus query lists `(DocId, NodeId)` order: at every
/// shard count it is each document's own document-order list, concatenated
/// in id order — and a ticked position means the same hit in both.
#[test]
fn a_document_order_corpus_list_concatenates_its_documents_lists() {
    let mut corpus = Corpus::synthetic_movies(5, 30, 9);
    let key = |hit: &CorpusHit| (hit.doc_name.to_string(), hit.result.clone(), hit.score);
    for text in ["drama family", "drama", "comedy"] {
        let mut concatenated = Vec::new();
        for i in 0..corpus.len() {
            let query = corpus.workbench(DocId(i as u32)).query(text).unwrap().ranked(false);
            concatenated.extend(query.ranking().hits.iter().map(key));
        }
        assert!(concatenated.len() > 8, "{text}: the fixture must have plenty of results");
        let n = concatenated.len();
        for shards in [1, 2, 8] {
            corpus.set_shards(shards);
            let query = corpus.query(text).unwrap().ranked(false);
            let hits = &query.ranking().hits;
            assert_eq!(hits.iter().map(key).collect::<Vec<_>>(), concatenated, "{shards} shards");
            let ids: Vec<DocId> = hits.iter().map(|hit| hit.doc).collect();
            assert!(ids.windows(2).all(|w| w[0] <= w[1]), "{text}: {shards} shards: {ids:?}");
            let positions = [n, 1, n / 2];
            let ticked = query.clone().select(positions).selection().unwrap();
            let want: Vec<_> = positions.iter().map(|&p| concatenated[p - 1].clone()).collect();
            assert_eq!(ticked.iter().map(key).collect::<Vec<_>>(), want, "{shards} shards");
        }
    }
}

/// A scored candidate is its root and its score, and a hit stores its root
/// once (in its result) beside a bare score: the records every ranked
/// query makes per candidate carry nothing the product does not read.
#[cfg(target_pointer_width = "64")]
#[test]
fn ranked_records_carry_a_root_and_a_score() {
    assert_eq!(std::mem::size_of::<xsact_index::ScoredResult>(), 16);
    assert_eq!(std::mem::size_of::<CorpusHit>(), 72);
}
