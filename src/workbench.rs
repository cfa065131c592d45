//! The [`Workbench`]: one session-oriented entry point for the whole XSACT
//! pipeline.
//!
//! The paper's flow (Figure 3) is *load structured data → keyword search →
//! select results → extract features → generate Differentiation Feature
//! Sets → render the comparison table*. Before this module existed every
//! consumer hand-wired that five-crate sequence; the `Workbench` owns it:
//!
//! * it holds the [`SearchEngine`] (inverted index + structural summary)
//!   built once per document,
//! * it owns a **per-result feature cache** keyed by the result's root
//!   [`NodeId`] (plus its display label), so repeated queries over the same
//!   session never re-extract features for a result they have already seen
//!   (feature extraction walks the whole result subtree and is the dominant
//!   per-query cost after the index is built); what it holds is already
//!   *prepared* for comparison (`xsact_entity::features`), and a hit hands
//!   out the cached pointer without allocating,
//! * it starts queries: [`Workbench::query`] returns the one fluent
//!   builder, [`CorpusQuery`], over this document alone — a corpus of one
//!   (`src/selection.rs`) — with typed [`XsactError`] failures instead of
//!   `String`s and `unwrap()`s.
//!
//! ```
//! use xsact::prelude::*;
//!
//! # fn main() -> Result<(), XsactError> {
//! let wb = Workbench::from_document(xsact::data::fixtures::figure1_document());
//! let outcome = wb
//!     .query("TomTom GPS")?
//!     .size_bound(7)
//!     .compare(Algorithm::MultiSwap)?;
//! assert_eq!(outcome.dod(), 5); // the paper's headline number
//! # Ok(())
//! # }
//! ```

use crate::error::{XsactError, XsactResult};
use crate::selection::CorpusQuery;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use xsact_core::DfsConfig;
use xsact_entity::ResultFeatures;
use xsact_index::trace::TraceSink;
use xsact_index::{Query, ScoredResult, SearchEngine, SearchResult};
use xsact_xml::{parse_document, Document, NodeId};

/// Hit/miss counters of the workbench's feature cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Feature lookups served from the cache.
    pub hits: u64,
    /// Feature lookups that had to run extraction.
    pub misses: u64,
}

impl CacheStats {
    /// Total number of feature lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

fn labelled<'a>(
    entries: &'a [Arc<ResultFeatures>],
    label: &str,
) -> Option<&'a Arc<ResultFeatures>> {
    entries.iter().find(|rf| rf.label() == label)
}

/// The thread-safe feature cache: one map under one `RwLock`, plus hit/miss
/// counters kept as atomics (not guarded by the lock) so a hit only ever
/// takes the *read* lock. Every document has its own workbench and shard
/// workers never touch this cache, so one lock is all the traffic needs.
///
/// The map is keyed by the result root alone; under a root sit the features
/// extracted for it, one per label it was asked for (nearly always one),
/// each carrying its label itself. A lookup therefore borrows the label it
/// is given and owns nothing until it misses. An entry is the extractor's
/// output behind an `Arc`: a lookup hands out the pointer, never a copy, and
/// whoever holds it keeps the features alive past a `clear`. Every lookup
/// increments exactly one of `hits`/`misses` with an atomic add, so the
/// counters never lose updates under concurrency and `stats().lookups()`
/// always equals the number of `get_or_extract` calls.
#[derive(Debug, Default)]
struct FeatureCache {
    map: RwLock<HashMap<NodeId, Vec<Arc<ResultFeatures>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl FeatureCache {
    /// The features of `root` under `label`: the cached ones, or those
    /// `extract` makes of the label (and labels with it). The label is only
    /// borrowed until the lookup has missed.
    fn get_or_extract<L: AsRef<str>>(
        &self,
        root: NodeId,
        label: L,
        extract: impl FnOnce(L) -> ResultFeatures,
    ) -> Arc<ResultFeatures> {
        let map = self.map.read().expect("cache lock poisoned");
        let cached = map.get(&root).and_then(|entries| labelled(entries, label.as_ref()));
        if let Some(cached) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(cached);
        }
        drop(map);
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Extract outside the lock: extraction walks the whole result
        // subtree, and holding the write lock across it would serialise
        // every concurrent miss. Two racing misses may both extract; the
        // result is identical (extraction is deterministic), and both get
        // whichever allocation reached the map first.
        let extracted = Arc::new(extract(label));
        let mut map = self.map.write().expect("cache lock poisoned");
        let entries = map.entry(root).or_default();
        if let Some(first) = labelled(entries, extracted.label()) {
            return Arc::clone(first);
        }
        entries.push(Arc::clone(&extracted));
        extracted
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn clear(&self) {
        self.map.write().expect("cache lock poisoned").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// A query-ready XSACT session over one document.
///
/// Create one per document with [`Workbench::from_xml`] or
/// [`Workbench::from_document`], then issue any number of queries through
/// [`Workbench::query`]. The underlying layer crates remain independently
/// usable; the workbench only orchestrates them and adds caching.
///
/// A workbench is `Sync`: the feature cache sits behind one `RwLock` with
/// atomic hit/miss counters, so any number of threads may query the same
/// workbench concurrently (the corpus engine fans out over shards of
/// workbenches this way). A search touches no shared counter: what it
/// cost comes back with its results.
#[derive(Debug)]
pub struct Workbench {
    /// The display name its corpus gave it (empty outside a corpus). An
    /// `Arc<str>`, because every hit of every query carries it: tagging a
    /// hit must not allocate.
    pub(crate) name: Arc<str>,
    engine: SearchEngine,
    features: FeatureCache,
}

impl Workbench {
    /// Parses `xml` and builds the search engine over it.
    pub fn from_xml(xml: &str) -> XsactResult<Workbench> {
        Ok(Workbench::from_document(parse_document(xml)?))
    }

    /// Builds the search engine over an existing document.
    pub fn from_document(doc: Document) -> Workbench {
        Workbench::from_engine(SearchEngine::build(doc))
    }

    /// Wraps an already-built engine (e.g. one restored from a persisted
    /// index).
    pub(crate) fn from_engine(engine: SearchEngine) -> Workbench {
        Workbench { name: Arc::from(""), engine, features: FeatureCache::default() }
    }

    /// Builds a workbench from a document plus the `.xidx` image
    /// [saved](Workbench::save_index) for it, skipping the indexing scan.
    /// Fails with [`XsactError::Io`] if the bytes are corrupt or hold a
    /// different document than `doc` (compared field by field; where
    /// either came from does not count).
    pub fn from_persisted_index(doc: Document, r: &mut impl Read) -> XsactResult<Workbench> {
        let (image, index) = xsact_index::load_image(r, None, &mut Vec::new())?;
        if image != doc {
            return Err(XsactError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "the index image holds a different document — rebuild the index",
            )));
        }
        Ok(Workbench::from_engine(SearchEngine::from_parts(doc, index)))
    }

    /// Serialises the document and its inverted index as one `.xidx`
    /// image (keyed by the document's source digest, if it has one), so a
    /// later session skips the parse and the indexing scan.
    pub fn save_index(&self, w: &mut impl Write) -> XsactResult<()> {
        xsact_index::save_image(self.engine.document(), self.engine.index(), w)?;
        Ok(())
    }

    /// Starts a query over this document alone — a corpus of one, listing
    /// in document order with no bound until told otherwise. Fails with
    /// [`XsactError::EmptyQuery`] when `text` contains no indexable terms;
    /// any number of terms runs.
    pub fn query(&self, text: &str) -> XsactResult<CorpusQuery<'_>> {
        CorpusQuery::new(std::slice::from_ref(self), None, text, None)
    }

    /// [`query`](Self::query) with a stage trace attached, so every stage
    /// the query's searches run — the `parse` span included — lands in
    /// `sink`.
    pub fn query_traced<'a>(
        &'a self,
        text: &str,
        sink: &'a TraceSink,
    ) -> XsactResult<CorpusQuery<'a>> {
        CorpusQuery::new(std::slice::from_ref(self), None, text, Some(sink))
    }

    /// Runs the streaming top-k executor directly: the best `k` results
    /// with scores, best-first, equal to the full ranked search truncated
    /// to `k`.
    pub fn search_top_k(&self, query: &Query, k: usize) -> Vec<(SearchResult, ScoredResult)> {
        let roots = self.engine.search_top_k(query, k, None).0;
        roots.into_iter().map(|r| (self.engine.result_for(&r), r.score)).collect()
    }

    /// The underlying search engine, for callers that need layer-level
    /// access (index statistics, raw SLCA runs, …).
    pub fn engine(&self) -> &SearchEngine {
        &self.engine
    }

    /// The underlying document.
    pub fn document(&self) -> &Document {
        self.engine.document()
    }

    /// Heap-footprint statistics of the inverted index: term count, total
    /// postings, and the delta-bit-packed resident bytes next to what the
    /// flat `u32` arena would cost.
    pub fn index_stats(&self) -> xsact_index::IndexStats {
        self.engine.index().stats()
    }

    /// The features of the subtree at `root` under `label` — a search
    /// result's (`result.root`, `&result.label`) or an arbitrary subtree's,
    /// for scenarios that re-root results above the engine's master entity
    /// (e.g. comparing *brands* while the engine returns *products*) —
    /// served from the per-root cache as an owned copy. The label is only
    /// lent: a hit allocates nothing but the copy.
    pub fn subtree_features(&self, root: NodeId, label: impl AsRef<str>) -> ResultFeatures {
        ResultFeatures::clone(&self.shared_features(root, label.as_ref()))
    }

    /// [`subtree_features`](Self::subtree_features) without the copy: the
    /// cached allocation itself, which is what the comparison terminals
    /// build their [`Instance`] from. The label is only lent: a miss copies
    /// it into the extracted features.
    pub(crate) fn shared_features(
        &self,
        root: NodeId,
        label: impl AsRef<str>,
    ) -> Arc<ResultFeatures> {
        self.features.get_or_extract(root, label, |label| {
            xsact_entity::extract_features(
                self.engine.document(),
                self.engine.summary(),
                root,
                label,
            )
        })
    }

    /// The result subtree serialised as XML (the demo's "click the name to
    /// see the entire result").
    pub fn result_xml(&self, result: &SearchResult) -> String {
        self.engine.result_xml(result)
    }

    /// Hit/miss counters of the feature cache: two atomics beside its one
    /// `RwLock`, read without the lock and one after the other, so a
    /// snapshot taken while other threads query may mix two instants. Every
    /// lookup is counted exactly once, so at any quiescent point `lookups()`
    /// is the number of feature lookups since the last
    /// [`clear_cache`](Self::clear_cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.features.stats()
    }

    /// Drops all cached features **and** resets the hit/miss counters to
    /// zero, so [`cache_stats`](Self::cache_stats) after a clear reports
    /// the warm-rate of the fresh cache only — a clear is a full reset to
    /// the just-built state, not merely an eviction.
    pub fn clear_cache(&self) {
        self.features.clear();
    }
}

/// Checks the DFS parameters of a comparison — the validation behind
/// [`CorpusQuery::compare`], which the CLI also runs before ingesting: the
/// threshold `x` must be a finite, non-negative percentage, and the size
/// bound `L` at least 1 (a bound of 0 admits only empty DFSs, so every
/// algorithm would "succeed" with a header-only table).
pub fn validate_config(config: &DfsConfig) -> XsactResult<()> {
    if !config.threshold_pct.is_finite() || config.threshold_pct < 0.0 {
        return Err(XsactError::InvalidConfig(format!(
            "differentiability threshold must be a non-negative percentage, got {}",
            config.threshold_pct
        )));
    }
    if config.size_bound == 0 {
        return Err(XsactError::InvalidConfig(
            "size bound must be at least 1 feature per DFS, got 0".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsact_core::Algorithm;
    use xsact_data::fixtures;

    /// The results of `text` over `wb`, in document order.
    fn results(wb: &Workbench, text: &str) -> Vec<SearchResult> {
        wb.query(text).unwrap().ranking().hits.iter().map(|hit| hit.result.clone()).collect()
    }

    fn wb() -> Workbench {
        Workbench::from_document(fixtures::figure1_document())
    }

    #[test]
    fn workbench_is_send_and_sync() {
        // The corpus engine shares one workbench per document across its
        // shard workers; losing `Sync` here would break that at a
        // distance, so pin it down as a compile-time property.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Workbench>();
        assert_send_sync::<CacheStats>();
    }

    #[test]
    fn concurrent_lookups_lose_no_counter_updates() {
        let wb = wb();
        let results = results(&wb, fixtures::PAPER_QUERY);
        assert_eq!(results.len(), 2);
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 50;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..ROUNDS {
                        for r in &results {
                            wb.subtree_features(r.root, &r.label);
                        }
                    }
                });
            }
        });
        let stats = wb.cache_stats();
        assert_eq!(stats.lookups(), THREADS * ROUNDS * 2, "lost counter updates");
        // Racing first lookups may extract the same root more than once,
        // but the cache still holds an entry per key: a second pass over
        // the same keys adds only hits.
        assert!(stats.misses >= 2);
        assert!(stats.hits <= stats.lookups() - 2);
        for r in &results {
            wb.subtree_features(r.root, &r.label);
        }
        let again = wb.cache_stats();
        assert_eq!((again.misses, again.hits), (stats.misses, stats.hits + 2));
    }

    #[test]
    fn clear_cache_resets_contents_and_counters() {
        let wb = wb();
        let pipeline = wb.query(fixtures::PAPER_QUERY).unwrap().size_bound(6);
        pipeline.compare(Algorithm::MultiSwap).unwrap();
        pipeline.compare(Algorithm::Snippet).unwrap();
        assert!(wb.cache_stats().lookups() > 0);
        wb.clear_cache();
        // A clear is a full reset: contents gone AND stats back to zero, so
        // warm-rate measurements after a clear start from a clean slate.
        assert_eq!(wb.cache_stats(), CacheStats::default());
        // A *fresh* pipeline re-extracts; the old one still holds its
        // memoized instance and never touches the cache again.
        wb.query(fixtures::PAPER_QUERY)
            .unwrap()
            .size_bound(6)
            .compare(Algorithm::MultiSwap)
            .unwrap();
        assert_eq!(wb.cache_stats().misses, 2, "post-clear lookups re-extract");
        pipeline.compare(Algorithm::MultiSwap).unwrap();
        assert_eq!(wb.cache_stats().misses, 2, "memoized pipeline re-extracted");
    }

    #[test]
    fn from_xml_rejects_malformed_input() {
        let err = Workbench::from_xml("<open>").unwrap_err();
        assert!(matches!(err, XsactError::Xml(_)));
    }

    #[test]
    fn empty_query_is_typed() {
        let wb = wb();
        assert!(matches!(wb.query(""), Err(XsactError::EmptyQuery)));
        assert!(matches!(wb.query("!!! ???"), Err(XsactError::EmptyQuery)));
    }

    #[test]
    fn pipeline_reproduces_the_paper_numbers() {
        let wb = wb();
        let outcome = wb
            .query(fixtures::PAPER_QUERY)
            .unwrap()
            .size_bound(fixtures::TABLE_BOUND)
            .compare(Algorithm::MultiSwap)
            .unwrap();
        assert_eq!(outcome.dod(), 5);
    }

    #[test]
    fn cache_serves_repeated_queries() {
        let wb = wb();
        let pipeline = wb.query(fixtures::PAPER_QUERY).unwrap().size_bound(6);
        pipeline.compare(Algorithm::MultiSwap).unwrap();
        let after_first = wb.cache_stats();
        assert_eq!(after_first.hits, 0);
        assert_eq!(after_first.misses, 2);
        // Same pipeline, second algorithm: the memoized instance answers —
        // not even a cache lookup happens.
        pipeline.compare(Algorithm::Snippet).unwrap();
        let after_second = wb.cache_stats();
        assert_eq!(after_second.misses, 2, "no re-extraction");
        assert_eq!(after_second.hits, 0, "instance memo short-circuits the cache");
        // A fresh pipeline over the same query is served from the cache.
        wb.query(fixtures::PAPER_QUERY).unwrap().size_bound(6).compare(Algorithm::Snippet).unwrap();
        let after_third = wb.cache_stats();
        assert_eq!(after_third.misses, 2, "no re-extraction");
        assert_eq!(after_third.hits, 2);
        wb.clear_cache();
        assert_eq!(wb.cache_stats(), CacheStats::default());
    }

    #[test]
    fn compare_reuses_one_instance_per_pipeline() {
        let wb = wb();
        let pipeline = wb.query(fixtures::PAPER_QUERY).unwrap().size_bound(6);
        // The memoized instance is the one every compare() runs on.
        let first = pipeline.instance().unwrap() as *const _;
        let again = pipeline.instance().unwrap() as *const _;
        assert_eq!(first, again, "instance rebuilt within one pipeline");
        let multi = pipeline.compare(Algorithm::MultiSwap).unwrap();
        let single = pipeline.compare(Algorithm::SingleSwap).unwrap();
        assert!(Arc::ptr_eq(&multi.instance, &single.instance), "an outcome copied the instance");
        assert!(Arc::ptr_eq(&multi.instance, pipeline.instance().unwrap()));
        assert!(multi.dod() >= single.dod());
        // Reconfiguring the DFS parameters resets the memo: the new bound
        // must be visible in the rebuilt instance.
        let rebound = pipeline.clone().size_bound(3);
        assert_eq!(rebound.instance().unwrap().config.size_bound, 3);
        let outcome = rebound.compare(Algorithm::MultiSwap).unwrap();
        assert!(outcome.set.dfs(0).size() <= 3);
    }

    #[test]
    fn a_hit_hands_out_the_cached_allocation() {
        let wb = wb();
        let results = results(&wb, fixtures::PAPER_QUERY);
        let cached = |wb: &Workbench| -> Vec<Arc<ResultFeatures>> {
            results.iter().map(|r| wb.shared_features(r.root, r.label.clone())).collect()
        };
        // Two compare calls on fresh pipelines: the second is all hits, and
        // what it was handed is what the first one put there.
        wb.query(fixtures::PAPER_QUERY).unwrap().compare(Algorithm::MultiSwap).unwrap();
        let after_first = cached(&wb);
        wb.query(fixtures::PAPER_QUERY).unwrap().compare(Algorithm::Snippet).unwrap();
        let after_second = cached(&wb);
        assert_eq!(wb.cache_stats().misses, 2, "one extraction per result, ever");
        for (a, b) in after_first.iter().zip(&after_second) {
            assert!(Arc::ptr_eq(a, b), "a hit copied the features of {}", a.label());
            // The cache, `after_first` and `after_second`: nobody else
            // kept (or deep-copied into) a reference of their own.
            assert_eq!(Arc::strong_count(a), 3);
        }
        // The public accessors still return owned copies.
        assert_eq!(wb.subtree_features(results[0].root, &results[0].label), *after_first[0]);
        // A clear drops the cache's reference, not the one a caller holds.
        wb.clear_cache();
        assert_eq!(Arc::strong_count(&after_first[0]), 2);
        assert!(!Arc::ptr_eq(&cached(&wb)[0], &after_first[0]), "re-extracted after a clear");
    }

    #[test]
    fn cache_keys_include_the_label() {
        // The same root under two labels is two cache entries — alternating
        // labels must not thrash: a second pass over both adds only hits.
        let wb = wb();
        let root = results(&wb, fixtures::PAPER_QUERY)[0].root;
        let a1 = wb.subtree_features(root, "A");
        let b = wb.subtree_features(root, "B");
        let a2 = wb.subtree_features(root, "A");
        assert_eq!(a1, a2);
        assert_ne!(a1.label(), b.label());
        let stats = wb.cache_stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 1);
        wb.subtree_features(root, "A");
        wb.subtree_features(root, "B");
        let again = wb.cache_stats();
        assert_eq!((again.misses, again.hits), (2, 3));
    }

    #[test]
    fn selection_validates_positions() {
        let wb = wb();
        let err = wb.query(fixtures::PAPER_QUERY).unwrap().select([1, 9]).selection().unwrap_err();
        assert!(matches!(err, XsactError::InvalidSelection { index: 9, available: 2 }), "{err}");
        // Position 0 cannot underflow into a valid index.
        let err = wb.query(fixtures::PAPER_QUERY).unwrap().select([0]).selection().unwrap_err();
        assert!(matches!(err, XsactError::InvalidSelection { index: 0, .. }));
    }

    #[test]
    fn single_result_cannot_compare() {
        let wb = wb();
        let err = wb
            .query(fixtures::PAPER_QUERY)
            .unwrap()
            .take(1)
            .compare(Algorithm::MultiSwap)
            .unwrap_err();
        assert!(matches!(err, XsactError::NotEnoughResults { found: 1, .. }));
    }

    #[test]
    fn invalid_threshold_is_rejected() {
        let wb = wb();
        let err = wb
            .query(fixtures::PAPER_QUERY)
            .unwrap()
            .threshold(-3.0)
            .compare(Algorithm::MultiSwap)
            .unwrap_err();
        assert!(matches!(err, XsactError::InvalidConfig(_)));
    }

    #[test]
    fn exhaustive_limit_is_typed() {
        let wb = wb();
        let pipeline = wb.query(fixtures::PAPER_QUERY).unwrap().size_bound(6);
        let err = pipeline.compare(Algorithm::Exhaustive { limit: 1 }).unwrap_err();
        assert!(matches!(err, XsactError::ExhaustiveLimitExceeded { limit: 1 }));
        let ok = pipeline.compare(Algorithm::Exhaustive { limit: 5_000_000 }).unwrap();
        assert_eq!(ok.algorithm.name(), "exhaustive");
    }

    #[test]
    fn toggling_ranked_after_a_search_resets_the_memo() {
        // The second product mentions the term far more often, so ranking
        // reverses document order — a stale memoized search would be
        // observable as the wrong first result.
        let wb = Workbench::from_xml(
            "<shop>\
               <product><name>Alpha</name><kind>gps</kind></product>\
               <product><name>Beta</name><kind>gps</kind>\
                 <reviews><review><pros><gps>gps gps gps</gps></pros></review></reviews>\
               </product>\
             </shop>",
        )
        .unwrap();
        let pipeline = wb.query("gps").unwrap();
        let first = |q: &CorpusQuery<'_>| q.ranking().hits[0].result.label.clone();
        let plain_first = first(&pipeline);
        assert_eq!(plain_first, "Alpha"); // document order
        let ranked_first = first(&pipeline.clone().ranked(true));
        assert_eq!(ranked_first, "Beta", "memo not reset by ranked()");
        // The original pipeline still serves its memoized plain list.
        assert_eq!(first(&pipeline), plain_first);
    }

    #[test]
    fn index_round_trips_through_persistence() {
        let wb = wb();
        let mut bytes = Vec::new();
        wb.save_index(&mut bytes).unwrap();
        let restored =
            Workbench::from_persisted_index(fixtures::figure1_document(), &mut bytes.as_slice())
                .unwrap();
        let a = results(&wb, fixtures::PAPER_QUERY);
        let b = results(&restored, fixtures::PAPER_QUERY);
        assert_eq!(a, b);
        assert!(wb.index_stats().terms > 0);
        assert_eq!(restored.index_stats().terms, wb.index_stats().terms);
        // A mismatched document is rejected as a typed I/O error.
        let other =
            xsact_xml::parse_document("<shop><product><name>x</name></product></shop>").unwrap();
        let err = Workbench::from_persisted_index(other, &mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, XsactError::Io(_)));
    }
}
