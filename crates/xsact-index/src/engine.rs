//! The search engine façade: query in, entity-rooted results out.
//!
//! Mirrors XSeek's behaviour as far as XSACT needs it: keyword matches are
//! combined with SLCA semantics, and each SLCA is *promoted to its master
//! entity* — the nearest ancestor-or-self node classified as an entity — so
//! that a result is a meaningful object (a `product`, a `movie`, a `brand`)
//! rather than an arbitrary grouping node. This is the return-node inference
//! of reference \[3\] in the form the demo paper describes ("each result will
//! be a brand selling men's jackets").
//!
//! There are two ways to run a query. [`SearchEngine::search_all`] returns
//! every result in document order. [`SearchEngine::search_top_k`] returns
//! the best `k` results by relevance as bare [`ScoredResult`]s — a root
//! and a score, streamed through a bounded collector — and a caller labels
//! the roots it keeps with [`SearchEngine::result_for`]: the path every
//! ranked, `take(k)` and corpus caller runs. Both report the executor's
//! work as [`ExecutorStats`] and take an optional trace sink. A result is
//! the master entity a user ticks by name; the SLCA match it was promoted
//! from is not kept.
//! [`SearchEngine::search_ranked`] sorts the full result list and exists
//! as the oracle the property suite compares the streaming path against.

use crate::plan::{ExecutorStats, QueryPlan};
use crate::postings::InvertedIndex;
use crate::query::Query;
use crate::rank::{rank_results, ScoredResult, Scorer, TopK};
use crate::trace::{Span, TraceSink};
use xsact_entity::{NodeClass, StructureSummary};
use xsact_xml::{writer, Document, NodeId};

/// Which lowest-common-ancestor semantics defines a keyword match. SLCA is
/// the only one: every search runs it. The type stays because the
/// benchmark's pinned library surface names `ResultSemantics::Slca`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResultSemantics {
    /// Smallest LCA — XSeek's (and therefore XSACT's) semantics.
    #[default]
    Slca,
}

/// One search result: an entity subtree of the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    /// Root of the result subtree (the master entity).
    pub root: NodeId,
    /// Display label, e.g. the product's name.
    pub label: String,
}

/// Annotates a `plan` span with the plan's shape.
fn note_plan(span: &mut Span<'_>, plan: &QueryPlan<'_>) {
    span.note("lists", plan.num_lists() as u64);
    if !plan.is_empty() {
        span.note("driver_postings", plan.driver_len() as u64);
        span.note("total_postings", plan.total_postings() as u64);
    }
}

/// Annotates a `slca-stream` span with the executor counters it produced.
fn note_stream(span: &mut Span<'_>, stats: ExecutorStats, streamed: usize) {
    span.note("postings_scanned", stats.postings_scanned);
    span.note("gallop_probes", stats.gallop_probes);
    span.note("streamed", streamed as u64);
}

/// An immutable, query-ready view of one XML document: structural summary +
/// inverted index.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    doc: Document,
    summary: StructureSummary,
    index: InvertedIndex,
}

impl SearchEngine {
    /// Indexes `doc` and infers its structural summary.
    pub fn build(doc: Document) -> Self {
        let index = InvertedIndex::build(&doc);
        SearchEngine::from_parts(doc, index)
    }

    /// Assembles an engine from a document and a pre-built (e.g. loaded)
    /// index. The caller is responsible for index/document consistency —
    /// [`crate::persist::load_image`] decodes both from one file.
    pub fn from_parts(doc: Document, index: InvertedIndex) -> Self {
        let summary = StructureSummary::infer(&doc);
        SearchEngine { doc, summary, index }
    }

    /// The underlying document.
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// The inferred structural summary.
    pub fn summary(&self) -> &StructureSummary {
        &self.summary
    }

    /// The inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The document-order search: every SLCA result of a conjunctive
    /// keyword query — distinct entity subtrees in document order — plus
    /// what the executor did to find them. A query the planner proves empty
    /// (no terms, or a term with zero postings) returns no results and
    /// zeroed counters — no SLCA work ran at all.
    ///
    /// With a `trace`, the stages record `plan` → `slca-stream` → `sort`
    /// spans; with `None` no timestamps are taken at all. Tracing never
    /// changes the results — only observes them.
    pub fn search_all(
        &self,
        query: &Query,
        trace: Option<&TraceSink>,
    ) -> (Vec<SearchResult>, ExecutorStats) {
        let mut stats = ExecutorStats::default();
        let span = trace.map(|sink| sink.span("plan"));
        let plan = QueryPlan::new(&self.index, query);
        if let Some(mut span) = span {
            note_plan(&mut span, &plan);
            span.finish();
        }
        if plan.is_empty() {
            return (Vec::new(), stats);
        }
        let span = trace.map(|sink| sink.span("slca-stream"));
        let mut results = Vec::new();
        self.for_each_promoted(&plan, &mut stats, |root| results.push(self.result_for(root)));
        if let Some(mut span) = span {
            note_stream(&mut span, stats, results.len());
            span.finish();
        }
        let span = trace.map(|sink| sink.span("sort"));
        results.sort_by_key(|r| r.root);
        if let Some(span) = span {
            span.finish();
        }
        (results, stats)
    }

    /// Runs the planned SLCA stream and hands every *distinct*
    /// master-entity promotion of its matches to `f`, in match (document)
    /// order — the shared front half of
    /// [`search_all`](Self::search_all) and
    /// [`search_top_k`](Self::search_top_k), so promotion and duplicate
    /// accounting cannot drift apart.
    ///
    /// Duplicates are found on the ancestor chain: the stream yields nodes
    /// in increasing id order, so a promoted root whose subtree ends at or
    /// before the current node can never contain a later one, and only the
    /// roots that still contain the current node — a short id-sorted chain
    /// of its ancestors — can repeat.
    fn for_each_promoted(
        &self,
        plan: &QueryPlan<'_>,
        stats: &mut ExecutorStats,
        mut f: impl FnMut(NodeId),
    ) {
        let mut chain: Vec<NodeId> = Vec::new();
        let mut stream = plan.stream(&self.doc);
        for slca in stream.by_ref() {
            while chain.last().is_some_and(|&r| self.doc.subtree_end(r) <= slca.index() as u32) {
                chain.pop();
            }
            let root = self.master_entity(slca);
            match chain.binary_search(&root) {
                Ok(_) => stats.candidates_pruned += 1,
                Err(at) => {
                    chain.insert(at, root);
                    f(root);
                }
            }
        }
        *stats += stream.stats();
    }

    /// Runs a query and orders the results by relevance (best first) using
    /// the TF-IDF/specificity scorer in [`crate::rank`] — the "result
    /// ranking" companion technique the paper's summary names.
    pub fn search_ranked(&self, query: &Query) -> Vec<(SearchResult, ScoredResult)> {
        let (results, _) = self.search_all(query, None);
        let roots: Vec<NodeId> = results.iter().map(|r| r.root).collect();
        let scored = rank_results(&self.doc, &self.index, query, &roots);
        scored.into_iter().map(|s| (self.result_for(s.root), s)).collect()
    }

    /// Runs the **streaming top-k executor**: plans the query (rarest-first
    /// term order, zero-postings short-circuit), streams SLCA roots through
    /// entity promotion and the TF-IDF scorer, and keeps only the best `k`
    /// in a bounded collector. The survivors come back best-first as bare
    /// [`ScoredResult`]s — a display label costs a subtree walk, and a
    /// caller that merges this document's top-k with other documents' pays
    /// [`result_for`](Self::result_for) only for what survives its merge.
    /// The roots equal the ranked full SLCA search truncated to `k` for
    /// every `k` (the ranking order is total; `tests/properties.rs` pins
    /// it), with `usize::MAX` producing the complete ranking.
    ///
    /// With a `trace`, the stages record `plan` → `slca-stream` → `rank`
    /// spans with the executor counters attached as span notes; with
    /// `None` no timestamps are taken at all. Tracing never changes the
    /// ranked bytes (`tests/obs.rs` pins it).
    ///
    /// [`search_ranked`](Self::search_ranked) stays as the sort-everything
    /// correctness oracle.
    pub fn search_top_k(
        &self,
        query: &Query,
        k: usize,
        trace: Option<&TraceSink>,
    ) -> (Vec<ScoredResult>, ExecutorStats) {
        let span = trace.map(|sink| sink.span("plan"));
        let mut stats = ExecutorStats::default();
        let plan = QueryPlan::new(&self.index, query);
        if let Some(mut span) = span {
            note_plan(&mut span, &plan);
            span.finish();
        }
        if plan.is_empty() {
            return (Vec::new(), stats);
        }
        let mut scorer = Scorer::new(&self.doc, &self.index, query);
        let span = trace.map(|sink| sink.span("slca-stream"));
        let mut top = TopK::new(k);
        let mut streamed = 0usize;
        self.for_each_promoted(&plan, &mut stats, |root| {
            top.push(scorer.score(root));
            streamed += 1;
        });
        if let Some(mut span) = span {
            note_stream(&mut span, stats, streamed);
            span.finish();
        }
        let span = trace.map(|sink| sink.span("rank"));
        let (roots, evicted) = top.finish();
        stats.candidates_pruned += evicted;
        if let Some(mut span) = span {
            span.note("kept", roots.len() as u64);
            span.note("heap_evicted", evicted);
            span.finish();
        }
        (roots, stats)
    }

    /// The labelled [`SearchResult`] of a result root: the text of its
    /// first non-blank `name`, `title`, `label` or `id` child, else its
    /// `name` attribute, else its tag and Dewey id.
    pub fn result_for(&self, root: NodeId) -> SearchResult {
        SearchResult { root, label: self.label_for(root) }
    }

    /// The nearest ancestor-or-self of `node` classified as an entity
    /// (falling back to the document root).
    fn master_entity(&self, node: NodeId) -> NodeId {
        let mut cur = node;
        loop {
            if self.doc.is_element(cur)
                && self.summary.class_of(&self.doc, cur) == NodeClass::Entity
            {
                return cur;
            }
            match self.doc.parent(cur) {
                Some(p) => cur = p,
                None => return cur,
            }
        }
    }

    /// Serialises the result subtree as XML (the "click the name to see the
    /// entire result" interaction of the demo).
    pub fn result_xml(&self, result: &SearchResult) -> String {
        writer::write_subtree(&self.doc, result.root)
    }

    fn label_for(&self, root: NodeId) -> String {
        for tag in ["name", "title", "label", "id"] {
            if let Some(child) = self.doc.child_by_tag(root, tag) {
                let text = self.doc.text_content(child);
                if !text.trim().is_empty() {
                    return text.split_whitespace().collect::<Vec<_>>().join(" ");
                }
            }
        }
        if let Some(v) = self.doc.attr(root, "name") {
            return v.to_owned();
        }
        format!("{} [{}]", self.doc.tag(root), self.doc.dewey(root))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsact_entity::extract_features;
    use xsact_xml::parse_document;

    fn shop_engine() -> SearchEngine {
        let doc = parse_document(
            "<shop>\
               <product><name>TomTom Go 630</name><kind>GPS</kind>\
                 <reviews><review><pros><compact>yes</compact></pros></review>\
                          <review><pros><compact>yes</compact></pros></review></reviews></product>\
               <product><name>TomTom Go 730</name><kind>GPS</kind>\
                 <reviews><review><pros><satellites>yes</satellites></pros></review>\
                          <review><pros><compact>yes</compact></pros></review></reviews></product>\
               <product><name>Canon Ixus</name><kind>camera</kind>\
                 <reviews><review><pros><compact>yes</compact></pros></review>\
                          <review><pros><compact>yes</compact></pros></review></reviews></product>\
             </shop>",
        )
        .unwrap();
        SearchEngine::build(doc)
    }

    /// The document-order results of `text`.
    fn search(engine: &SearchEngine, text: &str) -> Vec<SearchResult> {
        engine.search_all(&Query::parse(text), None).0
    }

    /// The streaming top-k under SLCA, labelled — the shape the
    /// [`SearchEngine::search_ranked`] oracle returns.
    fn top_k(
        engine: &SearchEngine,
        q: &Query,
        k: usize,
    ) -> (Vec<(SearchResult, ScoredResult)>, ExecutorStats) {
        let (roots, stats) = engine.search_top_k(q, k, None);
        (roots.into_iter().map(|s| (engine.result_for(s.root), s)).collect(), stats)
    }

    #[test]
    fn paper_query_returns_both_tomtom_products() {
        let engine = shop_engine();
        let results = search(&engine, "TomTom GPS");
        let labels: Vec<&str> = results.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["TomTom Go 630", "TomTom Go 730"]);
    }

    #[test]
    fn results_promoted_to_entity_roots() {
        let engine = shop_engine();
        let results = search(&engine, "TomTom GPS");
        for r in &results {
            assert_eq!(engine.document().tag(r.root), "product");
        }
    }

    #[test]
    fn duplicate_promotions_collapse() {
        // Both `compact` and the review match inside the same product → one
        // result per product.
        let engine = shop_engine();
        let results = search(&engine, "compact review");
        let mut roots: Vec<NodeId> = results.iter().map(|r| r.root).collect();
        roots.dedup();
        assert_eq!(roots.len(), results.len());
    }

    #[test]
    fn unknown_term_yields_nothing() {
        let engine = shop_engine();
        assert!(search(&engine, "TomTom zeppelin").is_empty());
        assert!(search(&engine, "").is_empty());
    }

    #[test]
    fn single_term_query() {
        let engine = shop_engine();
        let results = search(&engine, "camera");
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].label, "Canon Ixus");
    }

    #[test]
    fn extract_features_uses_result_label() {
        let engine = shop_engine();
        let results = search(&engine, "TomTom GPS");
        let rf = extract_features(
            engine.document(),
            engine.summary(),
            results[0].root,
            &results[0].label,
        );
        assert_eq!(rf.label(), "TomTom Go 630");
        assert!(rf.type_count() >= 2);
        let review = rf.stats().find(|s| s.entity() == "shop/product/reviews/review").unwrap();
        assert_eq!(review.entity_instances(), 2);
    }

    #[test]
    fn result_xml_is_well_formed_subtree() {
        let engine = shop_engine();
        let results = search(&engine, "Canon");
        let xml = engine.result_xml(&results[0]);
        assert!(xml.starts_with("<product>"));
        assert!(parse_document(&xml).is_ok());
    }

    #[test]
    fn label_fallbacks() {
        let doc = parse_document(
            "<r><item code=\"1\"><v>k</v></item><item name=\"second\"><v>k</v></item></r>",
        )
        .unwrap();
        let engine = SearchEngine::build(doc);
        let results = search(&engine, "k");
        assert_eq!(results.len(), 2);
        // First item: no name/title child, no name attr → tag + dewey.
        assert!(results[0].label.starts_with("item ["));
        // Second item: `name` attribute.
        assert_eq!(results[1].label, "second");
    }

    #[test]
    fn results_in_document_order() {
        let engine = shop_engine();
        let results = search(&engine, "compact");
        assert!(results.windows(2).all(|pair| pair[0].root < pair[1].root));
    }

    #[test]
    fn master_entity_of_root_is_root() {
        let engine = shop_engine();
        let root = engine.document().root();
        assert_eq!(engine.master_entity(root), root);
    }

    #[test]
    fn zero_postings_term_short_circuits_slca_search() {
        // Satellite: a hopeless term must be caught by the planner, before
        // any SLCA work — observable as all-zero executor counters.
        let engine = shop_engine();
        let q = Query::parse("tomtom zeppelin");
        let (results, stats) = engine.search_all(&q, None);
        assert!(results.is_empty());
        assert!(stats.is_zero(), "{stats:?}");
        let (top, top_stats) = engine.search_top_k(&q, 4, None);
        assert!(top.is_empty());
        assert!(top_stats.is_zero(), "{top_stats:?}");
    }

    #[test]
    fn matching_searches_report_executor_work() {
        let engine = shop_engine();
        let q = Query::parse("TomTom GPS");
        let (results, stats) = engine.search_all(&q, None);
        assert_eq!(results.len(), 2);
        assert!(stats.postings_scanned > 0);
        assert!(stats.gallop_probes > 0);
    }

    #[test]
    fn search_top_k_equals_truncated_ranked_search() {
        let engine = shop_engine();
        for text in ["compact", "TomTom GPS", "review compact", "camera"] {
            let q = Query::parse(text);
            let full = engine.search_ranked(&q);
            for k in 0..=full.len() + 1 {
                assert_eq!(top_k(&engine, &q, k).0, full[..k.min(full.len())], "{text}, k = {k}");
            }
            assert_eq!(top_k(&engine, &q, usize::MAX).0, full, "{text}, k = all");
        }
    }

    #[test]
    fn search_top_k_counts_heap_evictions() {
        let engine = shop_engine();
        let q = Query::parse("compact");
        let (full, full_stats) = top_k(&engine, &q, usize::MAX);
        let n = full.len() as u64;
        assert!(n > 1, "fixture must produce several results");
        let (top1, top1_stats) = top_k(&engine, &q, 1);
        assert_eq!(top1.len(), 1);
        assert_eq!(
            top1_stats.candidates_pruned,
            full_stats.candidates_pruned + (n - 1),
            "all but one scored candidate evicted by the k = 1 collector"
        );
    }

    #[test]
    fn ranked_search_orders_by_score() {
        let engine = shop_engine();
        let ranked = engine.search_ranked(&Query::parse("compact"));
        assert!(!ranked.is_empty());
        for pair in ranked.windows(2) {
            assert!(pair[0].1.score >= pair[1].1.score);
        }
        // Every ranked entry corresponds to a search result.
        let plain = search(&engine, "compact");
        assert_eq!(ranked.len(), plain.len());
    }
}
