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
//!   preferred (`1 / ln(e + subtree_size)`), the structured analogue of
//!   snippet proximity.
//!
//! Two consumers exist: [`rank_results`] sorts every candidate (the
//! correctness reference and the full-listing path), and [`TopK`] keeps
//! only the best `k` in a bounded heap while preserving the exact total
//! order — the ranking half of the streaming top-k executor
//! (`SearchEngine::search_top_k` feeds it the [`Scorer`]'s scores).
//!
//! # Scoring on id intervals
//!
//! All three signals of a root are functions of its subtree, and node ids
//! are preorder ranks, so the subtree of `root` *is* the id interval
//! `[root, subtree_end(root))`. The [`Scorer`] therefore touches no tree at
//! all:
//!
//! * `subtree_size` is `subtree_end(root) − root`, two integers the DOM
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
use std::collections::BinaryHeap;
use xsact_xml::{Document, NodeId};

/// A scored result, produced by [`rank_results`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredResult {
    /// Root of the result subtree.
    pub root: NodeId,
    /// Combined relevance score (higher is better).
    pub score: f64,
    /// Occurrences of all query terms inside the subtree.
    pub term_hits: u32,
    /// Number of nodes in the subtree.
    pub subtree_size: u32,
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
    scored.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.root.cmp(&b.root)));
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
        let mut term_hits = 0u32;
        let mut score = 0.0;
        for (counter, idf) in &mut self.terms {
            let tf = counter.count(lo, hi);
            term_hits += tf;
            if tf > 0 {
                score += (1.0 + f64::from(tf)).ln() * *idf;
            }
        }
        let subtree_size = hi - lo;
        // Specificity: prefer compact results.
        score /= (std::f64::consts::E + f64::from(subtree_size)).ln();
        ScoredResult { root, score, term_hits, subtree_size }
    }
}

/// A bounded top-k collector over the ranking's total order (score
/// descending, then node id ascending). The internal binary heap keeps the
/// *worst* kept entry on top, so a stream of `n` candidates costs
/// `O(n log k)` and `O(k)` memory; [`TopK::finish`] returns the survivors
/// best-first plus the eviction count (candidates scored but pruned). The
/// survivors are exactly [`rank_results`]' order truncated to `k`, for
/// any input order, because the ranking order is total.
#[derive(Debug)]
pub struct TopK<T> {
    k: usize,
    heap: BinaryHeap<TopKEntry<T>>,
    evicted: u64,
}

impl<T> TopK<T> {
    /// An empty collector that keeps at most `k` candidates.
    pub fn new(k: usize) -> TopK<T> {
        TopK { k, heap: BinaryHeap::with_capacity(k.min(1024).saturating_add(1)), evicted: 0 }
    }

    /// Offers one candidate; the payload survives only if the candidate
    /// ranks among the best `k` seen so far.
    pub fn push(&mut self, score: f64, root: NodeId, payload: T) {
        if self.k == 0 {
            self.evicted += 1;
            return;
        }
        let entry = TopKEntry { score, root, payload };
        if self.heap.len() < self.k {
            self.heap.push(entry);
            return;
        }
        self.evicted += 1;
        // `Ord` sorts worse entries greater, so the heap max is the worst
        // kept entry; replace it only when the newcomer ranks better.
        if entry < *self.heap.peek().expect("k > 0 and the heap is full") {
            self.heap.pop();
            self.heap.push(entry);
        }
    }

    /// The kept payloads best-first, and how many candidates were evicted.
    pub fn finish(self) -> (Vec<T>, u64) {
        let ordered = self.heap.into_sorted_vec();
        (ordered.into_iter().map(|e| e.payload).collect(), self.evicted)
    }
}

struct TopKEntry<T> {
    score: f64,
    root: NodeId,
    payload: T,
}

impl<T> std::fmt::Debug for TopKEntry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TopKEntry({}, {:?})", self.score, self.root)
    }
}

/// Worse-is-greater order: lower score sorts greater, ties broken by the
/// *later* node sorting greater — the exact inverse of the ranking order,
/// so a max-heap exposes the worst kept entry at its top and
/// `into_sorted_vec` yields best-first.
impl<T> Ord for TopKEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.score.total_cmp(&self.score).then_with(|| self.root.cmp(&other.root))
    }
}

impl<T> PartialOrd for TopKEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for TopKEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl<T> Eq for TopKEntry<T> {}

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
        assert_eq!(ranked[0].term_hits, 2);
        assert_eq!(ranked[1].term_hits, 1);
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
        assert!(ranked[0].subtree_size < ranked[1].subtree_size);
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
        let mut heap = TopK::new(k);
        for root in roots {
            let scored = scorer.score(root);
            heap.push(scored.score, root, scored);
        }
        heap.finish().0
    }

    #[test]
    fn top_k_equals_the_truncated_full_sort() {
        // Mixed scores *and* a deliberately tied pair (identical siblings),
        // so the heap's tie-break is exercised at every k.
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
