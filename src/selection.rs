//! The one query builder, [`CorpusQuery`]: what
//! [`Corpus::query`](crate::Corpus::query) and
//! [`Workbench::query`](crate::Workbench::query) both return. A workbench
//! is a corpus of one: its query runs over the borrowed one-document slice
//! `std::slice::from_ref(wb)`, on the calling thread.
//!
//! * **The lists.** A query over several documents runs one job per
//!   round-robin slice of `min(shards, documents)` on the corpus's shard
//!   pool ([`Corpus::run_shards`]) and k-way merges what they return
//!   under one total order: score descending, then document id, then node
//!   id. Ranked, each document runs the streaming top-k executor bounded
//!   by `k`; in document order nothing is scored, so the order is
//!   `(DocId, NodeId)`: each document's SLCA results, concatenated in id
//!   order. One document is searched inline and never touches a pool, so a
//!   workbench query wakes no thread. A shard that panics is re-raised on
//!   the caller's thread, naming the shard.
//! * **The rule.** Explicit 1-based positions index the full list and take
//!   precedence over the bound `k`; otherwise the first `k` enter (all
//!   without a bound). A comparison fails in one order: `InvalidConfig` (a
//!   bad DFS parameter, or a bound of 0), `NoResults`, `InvalidSelection`,
//!   `NotEnoughResults`.
//! * **Three memos**, so the chained terminals (`ranking` → `selection` →
//!   `features` → `compare`) never repeat a search or a build: the full
//!   list; the bounded top-k, for which a ranked query scores only `k`
//!   results per document unless the full list is already there and its
//!   head serves (the ranking order is total, so both are the same bytes —
//!   pinned by `tests/properties.rs` and `tests/corpus.rs`); and the
//!   comparison instance, built once from the cached features and shared
//!   by pointer with every outcome, so several algorithms pay
//!   preprocessing once.
//! * **Resets** happen only in the setters, each resetting exactly the
//!   memos its value feeds. Tracing resets nothing: a shard times its
//!   slice and returns the span with its hits, and the caller records the
//!   spans in shard order, then the `merge`.
//! * **Its own work.** Every search comes back with the [`ExecutorStats`]
//!   it cost; the query sums them over every run it makes and reports the
//!   total as [`CorpusQuery::executor_stats`]. No setter resets it, and a
//!   memo that answers adds nothing.

use crate::corpus::{execute_shard, merge_shard_lists, Corpus, CorpusHit, CorpusRanking};
use crate::error::{XsactError, XsactResult};
use crate::pool::or_raise;
use crate::workbench::{validate_config, Workbench};
use std::cell::{Cell, OnceCell};
use std::sync::Arc;
use std::time::Instant;
use xsact_core::{Algorithm, ComparisonOutcome, DfsConfig, Instance};
use xsact_entity::ResultFeatures;
use xsact_index::trace::{TraceSink, TraceSpan};
use xsact_index::{ExecutorStats, Query, ResultSemantics};

/// A query over one or more documents: builder methods refine *how* it
/// lists ([`ranked`](Self::ranked)), *which* results enter the comparison
/// ([`take`](Self::take), [`select`](Self::select)) and *how* DFSs are
/// generated ([`size_bound`](Self::size_bound),
/// [`threshold`](Self::threshold)); terminals
/// ([`ranking`](Self::ranking), [`selection`](Self::selection),
/// [`features`](Self::features), [`compare`](Self::compare)) run it. See
/// the module docs for the rule and the memos.
#[derive(Debug, Clone)]
pub struct CorpusQuery<'a> {
    docs: &'a [Workbench],
    /// The corpus whose pool runs a search over several documents; `None`
    /// for a workbench's own query.
    corpus: Option<&'a Corpus>,
    ranked: bool,
    /// Where stage spans go when the caller asked for a trace; `None`
    /// takes no timestamps.
    trace: Option<&'a TraceSink>,
    query: Query,
    take: Option<usize>,
    select: Vec<usize>,
    config: DfsConfig,
    full: OnceCell<CorpusRanking>,
    top: OnceCell<CorpusRanking>,
    instance: OnceCell<Arc<Instance>>,
    /// The executor work of every run so far.
    stats: Cell<ExecutorStats>,
}

impl<'a> CorpusQuery<'a> {
    /// A document-order query without a bound over `docs` (those of
    /// `corpus`, when there is one), parsing `text` and recording the
    /// `parse` span into `trace`. Fails with [`XsactError::EmptyQuery`]
    /// when no indexable term is left.
    pub(crate) fn new(
        docs: &'a [Workbench],
        corpus: Option<&'a Corpus>,
        text: &str,
        trace: Option<&'a TraceSink>,
    ) -> XsactResult<Self> {
        let span = trace.map(|sink| sink.span("parse"));
        let query = Query::parse(text);
        if let Some(mut span) = span {
            span.note("terms", query.terms().len() as u64);
            span.finish();
        }
        if query.is_empty() {
            return Err(XsactError::EmptyQuery);
        }
        Ok(CorpusQuery {
            docs,
            corpus,
            ranked: false,
            trace,
            query,
            take: None,
            select: Vec::new(),
            config: DfsConfig::default(),
            full: OnceCell::new(),
            top: OnceCell::new(),
            instance: OnceCell::new(),
            stats: Cell::default(),
        })
    }

    /// Returns the query unchanged: SLCA is the only semantics. It stays
    /// because the benchmark's pinned library surface names it.
    #[must_use]
    pub fn semantics(self, _: ResultSemantics) -> Self {
        self
    }

    /// Lists by TF-IDF relevance, best first, instead of in document
    /// order — the default of [`Corpus::query`](crate::Corpus::query).
    #[must_use]
    pub fn ranked(mut self, ranked: bool) -> Self {
        self.ranked = ranked;
        self.full.take();
        self.top.take();
        self.instance.take();
        self
    }

    /// Compares only the first `k` results of the listing; ranked, every
    /// document's executor keeps only `k`. A corpus query defaults to
    /// [`DEFAULT_TOP`](crate::corpus::DEFAULT_TOP), a workbench query to
    /// no bound.
    #[must_use]
    pub fn take(mut self, k: usize) -> Self {
        self.take = Some(k);
        self.top.take();
        self.instance.take();
        self
    }

    /// Compares exactly the given 1-based positions of the full
    /// [`ranking`](Self::ranking) — the ticked checkboxes of the demo's
    /// result page. Takes precedence over [`take`](Self::take); an
    /// out-of-range position surfaces as [`XsactError::InvalidSelection`]
    /// at execution time.
    #[must_use]
    pub fn select(mut self, positions: impl IntoIterator<Item = usize>) -> Self {
        self.select = positions.into_iter().collect();
        self.instance.take();
        self
    }

    /// Sets the comparison-table size bound `L` (features per DFS).
    #[must_use]
    pub fn size_bound(mut self, bound: usize) -> Self {
        self.config.size_bound = bound;
        self.instance.take();
        self
    }

    /// Sets the differentiability threshold `x` in percent.
    #[must_use]
    pub fn threshold(mut self, pct: f64) -> Self {
        self.config.threshold_pct = pct;
        self.instance.take();
        self
    }

    /// The query text, as parsed.
    pub fn query_text(&self) -> String {
        self.query.to_string()
    }

    /// What the executor did for this query so far, summed over every
    /// document search its runs made — zero before the first terminal,
    /// and zero after runs the planner proved empty. A memoised answer
    /// costs nothing, so chained terminals report one run.
    pub fn executor_stats(&self) -> ExecutorStats {
        self.stats.get()
    }

    /// Every result in the query's order, fanned out once; byte-identical
    /// for every shard count. An empty list is a valid outcome here; the
    /// comparison terminals turn it into [`XsactError::NoResults`].
    pub fn ranking(&self) -> &CorpusRanking {
        self.full.get_or_init(|| self.run(usize::MAX))
    }

    /// The hits that enter the comparison, in selection order (= table
    /// column order): the ticked positions, or else the first
    /// [`take`](Self::take) of the listing — ranked and not yet listed in
    /// full, from the bounded executor.
    pub fn selection(&self) -> XsactResult<Vec<CorpusHit>> {
        self.map_selected(CorpusHit::clone)
    }

    /// The features of the selected hits, pulled from each hit's owning
    /// workbench (cached), as owned copies. Fails with
    /// [`XsactError::NoResults`] when the query matched nothing, and with
    /// [`XsactError::InvalidConfig`] for a `take(0)` selection.
    pub fn features(&self) -> XsactResult<Vec<ResultFeatures>> {
        let mut label = String::new();
        self.compared(|hit| ResultFeatures::clone(&self.shared_features(hit, &mut label)))
    }

    /// The preprocessed comparison instance over the selected hits —
    /// interning plus the differentiability bit matrix — that every
    /// [`compare`](Self::compare) call runs on.
    pub fn instance(&self) -> XsactResult<&Arc<Instance>> {
        if let Some(instance) = self.instance.get() {
            return Ok(instance);
        }
        validate_config(&self.config)?;
        let mut label = String::new();
        let features = self.compared(|hit| self.shared_features(hit, &mut label))?;
        if features.len() < 2 {
            let found = features.len();
            return Err(XsactError::NotEnoughResults { query: self.query.to_string(), found });
        }
        Ok(self.instance.get_or_init(|| Arc::new(Instance::build(&features, self.config))))
    }

    /// Compares the selected hits — which may span several documents — in
    /// one table with `algorithm`, on the memoised instance. An exhaustive
    /// run over its limit is the typed
    /// [`XsactError::ExhaustiveLimitExceeded`].
    pub fn compare(&self, algorithm: Algorithm) -> XsactResult<ComparisonOutcome> {
        Ok(xsact_core::compare(self.instance()?, algorithm)?)
    }

    /// The first `take` of the listing: the head of the full list when
    /// that is there, wanted whole or in document order, the bounded memo
    /// else.
    fn top(&self) -> &[CorpusHit] {
        if !self.ranked || self.take.is_none() || self.full.get().is_some() {
            let full = &self.ranking().hits;
            return &full[..self.take.map_or(full.len(), |k| k.min(full.len()))];
        }
        let k = self.take.unwrap_or(usize::MAX);
        &self.top.get_or_init(|| self.run(k)).hits
    }

    /// `f` of every selected hit, in selection order, lent from the memos.
    fn map_selected<T>(&self, f: impl FnMut(&CorpusHit) -> T) -> XsactResult<Vec<T>> {
        if self.select.is_empty() {
            return Ok(self.top().iter().map(f).collect());
        }
        let full = &self.ranking().hits;
        // Every position is checked before `f` sees any hit.
        if let Some(&index) = self.select.iter().find(|&&i| i == 0 || i > full.len()) {
            return Err(XsactError::InvalidSelection { index, available: full.len() });
        }
        Ok(self.select.iter().map(|&i| &full[i - 1]).map(f).collect())
    }

    /// [`map_selected`](Self::map_selected) as the comparison terminals
    /// take it: never empty, and failing in the module docs' order.
    fn compared<T>(&self, f: impl FnMut(&CorpusHit) -> T) -> XsactResult<Vec<T>> {
        if self.select.is_empty() && self.take == Some(0) {
            return Err(XsactError::InvalidConfig(
                "take(0) selects no results; a comparison needs at least two".into(),
            ));
        }
        match self.map_selected(f) {
            Ok(mapped) if !mapped.is_empty() => Ok(mapped),
            Err(e @ XsactError::InvalidSelection { available: 1.., .. }) => Err(e),
            // Nothing selected, or positions into an empty list.
            _ => Err(XsactError::NoResults { query: self.query.to_string() }),
        }
    }

    /// The features of `hit` as its workbench's cache holds them. Over
    /// several documents the label is qualified with the document name, so
    /// equally-named results stay distinguishable table columns; `label`
    /// is the scratch space for that.
    fn shared_features(&self, hit: &CorpusHit, label: &mut String) -> Arc<ResultFeatures> {
        let (wb, result) = (&self.docs[hit.doc.index()], &hit.result);
        if self.docs.len() == 1 {
            return wb.shared_features(result.root, result.label.as_str());
        }
        label.clear();
        label.extend([result.label.as_str(), " (", &hit.doc_name, ")"]);
        wb.shared_features(result.root, label.as_str())
    }

    /// The one search and merge behind both list memos: the first `k`
    /// hits in the query's order, its executor work added to the query's.
    /// Over several documents the trace records one `shard N` span per
    /// slice, in shard order, and the `merge`; over one, that document's
    /// own search stages.
    fn run(&self, k: usize) -> CorpusRanking {
        let (bound, trace) = (self.ranked.then_some(k), self.trace);
        let per_shard = match self.corpus {
            Some(corpus) if self.docs.len() > 1 => {
                let (query, traced) = (self.query.clone(), trace.is_some());
                let outcomes = corpus.run_shards(move |shard, docs, slice| {
                    let start = traced.then(Instant::now);
                    let (hits, stats) = execute_shard(docs, &query, bound, slice, None);
                    let span = start.map(|start| TraceSpan {
                        label: format!("shard {shard}"),
                        nanos: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        notes: vec![
                            ("docs", slice.len() as u64),
                            ("postings_scanned", stats.postings_scanned),
                            ("hits", hits.len() as u64),
                        ],
                    });
                    (hits, stats, span)
                });
                outcomes.into_iter().map(or_raise).collect()
            }
            _ => {
                let (hits, stats) = execute_shard(self.docs, &self.query, bound, &[0], trace);
                vec![(hits, stats, None)]
            }
        };
        let mut run = ExecutorStats::default();
        let mut shard_lists = Vec::with_capacity(per_shard.len());
        for (hits, stats, span) in per_shard {
            run += stats;
            if let (Some(sink), Some(span)) = (trace, span) {
                sink.record(span.label, span.nanos, span.notes);
            }
            shard_lists.push(hits);
        }
        self.stats.set(self.stats.get() + run);
        let span = trace.filter(|_| self.docs.len() > 1).map(|sink| sink.span("merge"));
        let candidates: usize = shard_lists.iter().map(Vec::len).sum();
        let ranking = merge_shard_lists(shard_lists, k);
        if let Some(mut span) = span {
            span.note("candidates", candidates as u64);
            span.note("kept", ranking.hits.len() as u64);
            span.finish();
        }
        ranking
    }
}
