//! Result ranking — one of the companion techniques the paper names for a
//! "full-fledged keyword search engine for structured data" (§3: result
//! differentiation "combines with … result ranking").
//!
//! Scores follow the classic XML keyword-search recipe (XRank / XSeek
//! lineage), combining three signals per result subtree:
//!
//! * **term frequency** — how often the query terms occur inside the
//!   result, dampened logarithmically;
//! * **inverse document frequency** — rarer terms weigh more
//!   (`ln(1 + N / df)` over element count `N` and posting length `df`);
//! * **specificity** — smaller results that still contain every term are
//!   preferred (`1 / ln(e + size)` over the subtree's node count), the
//!   structured analogue of snippet proximity.
//!
//! A scored result is its root and its score ([`ScoredResult`], 16
//! bytes): the signals are folded into the score as it is computed, and
//! nothing downstream reads them apart. Two consumers exist:
//! [`rank_results`] sorts every candidate (the correctness reference), and
//! [`TopK`] keeps only the best `k` in a bounded buffer under the same
//! total order — the ranking half of the streaming top-k executor
//! (`SearchEngine::search_top_k` feeds it the [`Scorer`]'s results).
//!
//! # Scoring on id intervals
//!
//! All three signals of a root are functions of its subtree, and node ids
//! are preorder ranks, so the subtree of `root` *is* the id interval
//! `[root, subtree_end(root))`. The [`Scorer`] therefore touches no tree at
//! all:
//!
//! * the subtree size is `subtree_end(root) − root`, two integers the DOM
//!   already keeps — not a walk over the subtree;
//! * each term's `tf` is the number of its postings inside that interval,
//!   answered by a per-list `RangeCounter`: the frames the interval
//!   touches are bisected from the skip headers, frames strictly inside it
//!   are counted from the headers alone, and only the boundary frames are
//!   unpacked — once, because the counter caches the last unpacked frame
//!   and the stream offers roots in document order. Roots in any other
//!   order (`rank_results` takes arbitrary order) merely miss the cache.
//!
//! `tests/properties.rs` pins the scores bit for bit against a scorer that
//! counts `tf` and the subtree size by walking the tree.

use crate::postings::{InvertedIndex, RangeCounter};
use crate::query::Query;
use std::cmp::Ordering;
use xsact_xml::{Document, NodeId};

/// A scored result root, produced by [`rank_results`] and [`TopK`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredResult {
    /// Root of the result subtree.
    pub root: NodeId,
    /// Combined relevance score (higher is better).
    pub score: f64,
}

/// The ranking's total order, best first: score descending, then node id
/// ascending (document order).
fn best_first(a: &ScoredResult, b: &ScoredResult) -> Ordering {
    b.score.total_cmp(&a.score).then_with(|| a.root.cmp(&b.root))
}

/// Scores result roots for a query and returns them best-first.
///
/// The order is **total and shard-count-independent**: equal scores break
/// ties by node id (document order), never by input order or float quirks
/// (`total_cmp`, so even a NaN score cannot destabilise the sort). Rankings
/// of one document therefore merge deterministically with rankings of
/// other documents, whatever partition produced them — the property the
/// corpus engine's cross-shard k-way merge is built on.
pub fn rank_results(
    doc: &Document,
    index: &InvertedIndex,
    query: &Query,
    roots: &[NodeId],
) -> Vec<ScoredResult> {
    let mut scorer = Scorer::new(doc, index, query);
    let mut scored: Vec<ScoredResult> = roots.iter().map(|&root| scorer.score(root)).collect();
    scored.sort_by(best_first);
    scored
}

/// The per-query scoring context: posting lists resolved once, inverse
/// document frequencies precomputed once. [`Scorer::score`] then counts
/// in-subtree postings by **range counting** — a result subtree is the id
/// interval `[root, subtree_end(root))`, counted per posting list as the
/// module docs describe.
#[derive(Debug)]
pub struct Scorer<'a> {
    doc: &'a Document,
    /// Per query term with postings, in query order: the list's range
    /// counter and its `ln(1 + N / df)` weight.
    terms: Vec<(RangeCounter<'a>, f64)>,
}

impl<'a> Scorer<'a> {
    /// Resolves `query` against `index` for repeated scoring over `doc`.
    pub fn new(doc: &'a Document, index: &'a InvertedIndex, query: &Query) -> Scorer<'a> {
        let element_count = doc.element_count().max(1) as f64;
        let terms = query
            .iter()
            .map(|term| index.postings(term))
            .filter(|postings| !postings.is_empty())
            .map(|p| (p.range_counter(), (1.0 + element_count / p.len() as f64).ln()))
            .collect();
        Scorer { doc, terms }
    }

    /// Scores one result root (TF·IDF over the subtree, dampened by
    /// specificity). Takes `&mut self` for the per-list frame caches only;
    /// the score of a root does not depend on what was scored before.
    pub fn score(&mut self, root: NodeId) -> ScoredResult {
        let (lo, hi) = (root.index() as u32, self.doc.subtree_end(root));
        let mut score = 0.0;
        for (counter, idf) in &mut self.terms {
            let tf = counter.count(lo, hi);
            if tf > 0 {
                score += (1.0 + f64::from(tf)).ln() * *idf;
            }
        }
        // Specificity: prefer compact results (`hi − lo` nodes).
        score /= (std::f64::consts::E + f64::from(hi - lo)).ln();
        ScoredResult { root, score }
    }
}

/// A bounded top-k collector over the ranking's total order. It keeps at
/// most `2k` results: when the buffer fills, a selection keeps the best
/// `k` and drops the rest, so a stream of `n` candidates costs `O(n)`
/// comparisons amortised and `O(k)` memory. [`TopK::finish`] sorts the
/// survivors best-first and counts the candidates scored but pruned. The
/// survivors are exactly [`rank_results`]' order truncated to `k`, for any
/// input order, because the ranking order is total.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    kept: Vec<ScoredResult>,
    offered: u64,
}

impl TopK {
    /// An empty collector that keeps at most `k` candidates.
    pub fn new(k: usize) -> TopK {
        TopK { k, kept: Vec::with_capacity(k.min(1024).saturating_mul(2)), offered: 0 }
    }

    /// Offers one candidate; it survives only if it ranks among the best
    /// `k` offered.
    pub fn push(&mut self, scored: ScoredResult) {
        self.offered += 1;
        if self.k == 0 {
            return;
        }
        self.kept.push(scored);
        if self.kept.len() == self.k.saturating_mul(2) {
            self.kept.select_nth_unstable_by(self.k - 1, best_first);
            self.kept.truncate(self.k);
        }
    }

    /// The kept candidates best-first, and how many were evicted.
    pub fn finish(mut self) -> (Vec<ScoredResult>, u64) {
        self.kept.sort_unstable_by(best_first);
        self.kept.truncate(self.k);
        let evicted = self.offered - self.kept.len() as u64;
        (self.kept, evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsact_xml::parse_document;

    fn setup(xml: &str) -> (Document, InvertedIndex) {
        let doc = parse_document(xml).unwrap();
        let idx = InvertedIndex::build(&doc);
        (doc, idx)
    }

    #[test]
    fn higher_term_frequency_ranks_first() {
        // Two matching elements vs one, at identical subtree size.
        let (doc, idx) = setup("<r><p><t>gps</t><u>gps</u></p><p><t>gps</t><pad>a</pad></p></r>");
        let roots: Vec<NodeId> = doc.children(doc.root()).collect();
        let q = Query::parse("gps");
        let ranked = rank_results(&doc, &idx, &q, &roots);
        assert_eq!(ranked.len(), 2);
        assert!(ranked[0].score > ranked[1].score);
        assert_eq!(ranked[0].root, roots[0]);
    }

    #[test]
    fn smaller_subtree_wins_at_equal_hits() {
        let (doc, idx) = setup(
            "<r><small><t>gps</t></small>\
             <big><t>gps</t><a>x</a><b>y</b><c>z</c><d>w</d></big></r>",
        );
        let roots: Vec<NodeId> = doc.children(doc.root()).collect();
        let ranked = rank_results(&doc, &idx, &Query::parse("gps"), &roots);
        assert_eq!(doc.tag(ranked[0].root), "small");
        assert!(ranked[0].score > ranked[1].score);
    }

    #[test]
    fn rare_terms_outweigh_common_ones() {
        // `zeta` occurs once, `gps` five times: a result matching only zeta
        // beats one matching only gps.
        let (doc, idx) = setup(
            "<r><a><t>zeta</t></a><b><t>gps</t></b>\
             <x><t>gps</t></x><y><t>gps</t></y><z><t>gps</t></z><w><t>gps</t></w></r>",
        );
        let roots: Vec<NodeId> = doc.children(doc.root()).take(2).collect();
        let ranked = rank_results(&doc, &idx, &Query::parse("zeta gps"), &roots);
        assert_eq!(doc.tag(ranked[0].root), "a");
    }

    #[test]
    fn missing_terms_do_not_panic() {
        let (doc, idx) = setup("<r><a><t>gps</t></a></r>");
        let roots: Vec<NodeId> = doc.children(doc.root()).collect();
        let ranked = rank_results(&doc, &idx, &Query::parse("gps unicorn"), &roots);
        assert_eq!(ranked.len(), 1);
        assert!(ranked[0].score > 0.0);
    }

    #[test]
    fn empty_inputs() {
        let (doc, idx) = setup("<r><a><t>gps</t></a></r>");
        assert!(rank_results(&doc, &idx, &Query::parse("gps"), &[]).is_empty());
        let roots: Vec<NodeId> = doc.children(doc.root()).collect();
        let ranked = rank_results(&doc, &idx, &Query::parse(""), &roots);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].score, 0.0);
    }

    #[test]
    fn deterministic_tie_break_is_document_order() {
        let (doc, idx) = setup("<r><a><t>gps</t></a><b><t>gps</t></b></r>");
        let roots: Vec<NodeId> = doc.children(doc.root()).collect();
        let ranked = rank_results(&doc, &idx, &Query::parse("gps"), &roots);
        assert_eq!(ranked[0].root, roots[0]);
        assert_eq!(ranked[1].root, roots[1]);
    }

    /// The best `k` of `roots` through the bounded collector, as the
    /// executor ranks them.
    fn top_k(
        doc: &Document,
        idx: &InvertedIndex,
        q: &Query,
        roots: impl IntoIterator<Item = NodeId>,
        k: usize,
    ) -> Vec<ScoredResult> {
        let mut scorer = Scorer::new(doc, idx, q);
        let mut top = TopK::new(k);
        for root in roots {
            top.push(scorer.score(root));
        }
        top.finish().0
    }

    #[test]
    fn top_k_equals_the_truncated_full_sort() {
        // Mixed scores *and* a deliberately tied pair (identical siblings),
        // so the collector's tie-break is exercised at every k.
        let (doc, idx) = setup(
            "<r><a><t>gps</t></a><b><t>gps</t></b>\
             <big><t>gps</t><x>pad</x><y>pad</y></big>\
             <two><t>gps</t><u>gps</u></two></r>",
        );
        let roots: Vec<NodeId> = doc.children(doc.root()).collect();
        let q = Query::parse("gps");
        let full = rank_results(&doc, &idx, &q, &roots);
        assert!(full.windows(2).any(|w| w[0].score == w[1].score), "fixture must contain a tie");
        for k in 0..=roots.len() + 2 {
            let top = top_k(&doc, &idx, &q, roots.iter().copied(), k);
            assert_eq!(top, full[..k.min(full.len())], "k = {k}");
        }
    }

    #[test]
    fn top_k_handles_empty_inputs() {
        let (doc, idx) = setup("<r><a><t>gps</t></a></r>");
        assert!(top_k(&doc, &idx, &Query::parse("gps"), [], 4).is_empty());
        let roots: Vec<NodeId> = doc.children(doc.root()).collect();
        assert!(top_k(&doc, &idx, &Query::parse("gps"), roots, 0).is_empty());
    }

    #[test]
    fn tied_scores_order_by_document_order_regardless_of_input_order() {
        // Four structurally identical siblings → four deliberately tied
        // scores (identical tf, df and subtree size give bitwise-equal
        // f64s). A stable sort without an explicit tie-break would leak
        // the caller's root order into the ranking; feeding the roots
        // reversed (and shuffled) must still yield document order, or
        // cross-shard merges would depend on how each shard enumerated
        // its candidates.
        let (doc, idx) =
            setup("<r><a><t>gps</t></a><b><t>gps</t></b><c><t>gps</t></c><d><t>gps</t></d></r>");
        let in_order: Vec<NodeId> = doc.children(doc.root()).collect();
        let q = Query::parse("gps");
        let baseline = rank_results(&doc, &idx, &q, &in_order);
        assert!(
            baseline.windows(2).all(|w| w[0].score == w[1].score),
            "fixture must produce tied scores"
        );
        let mut reversed = in_order.clone();
        reversed.reverse();
        let shuffled = vec![in_order[2], in_order[0], in_order[3], in_order[1]];
        for adversarial in [reversed, shuffled] {
            let ranked = rank_results(&doc, &idx, &q, &adversarial);
            let roots: Vec<NodeId> = ranked.iter().map(|s| s.root).collect();
            assert_eq!(roots, in_order, "tie-break must be document order, not input order");
        }
    }
}
