//! Query planning and the streaming SLCA executor.
//!
//! The paper's search layer is the cost centre of the whole pipeline, and
//! most callers only ever consume a handful of results (`take(k)`, corpus
//! top-k, the CLI's `--top`). This module is the planning half of the
//! streaming executor that serves them:
//!
//! * [`QueryPlan`] resolves a [`Query`] against an [`InvertedIndex`] once,
//!   orders the posting lists **rarest-first** (the shortest list drives
//!   the probe loop, so every other list is only ever searched, never
//!   walked), and **short-circuits to a provably-empty plan** when any term
//!   has zero postings — conjunctive semantics cannot match, so no SLCA
//!   work runs at all. Resolving a term is one interner probe and a span
//!   read (nothing is decoded), so every query plans on its own; nothing
//!   is memoised across the queries of a batch.
//! * [`SlcaStream`] executes the plan lazily: an iterator over SLCA roots
//!   in document order, powered by an **anchored-gallop** variant of the
//!   Indexed Lookup Eager algorithm. For each driver posting the closest
//!   neighbours in the other lists are located by exponential search from
//!   a per-list cursor left behind by the previous probe; because the
//!   driver is walked in document order the cursors mostly advance, so a
//!   probe costs `O(log gap)` instead of `O(log |list|)`. A candidate only
//!   climbs as each list is intersected, so once it is the pending
//!   candidate or contains it, it **settles**: it is dropped before the
//!   remaining lists are galloped.
//! * [`ExecutorStats`] counts what the executor actually did (postings
//!   scanned, gallop probes, candidates pruned), so "why was this query
//!   fast/slow" is observable from the facade (`--explain` in the CLI).
//!
//! # Candidates are node ids
//!
//! Node ids are preorder ranks, so the subtree of a node `c` is the id
//! interval `[c, end(c))` ([`Document::subtree_end`]) and everything the
//! stream's loop asks — walk the driver, gallop each other list to the
//! candidate's insertion point, replace the candidate by its deepest LCA
//! with the two neighbours found there, and settle it against the one
//! pending candidate after each list — is a comparison of two integers:
//!
//! - a gallop probe orders a list entry against the candidate by id;
//! - the deepest LCA with the neighbours `a < x ≤ b` is found by climbing
//!   the candidate's *own* ancestor chain until the ancestor `c` contains
//!   one of them — `c ≤ a` for the left neighbour (it sorts before the
//!   candidate, so it can only be inside `c` by not preceding it),
//!   `b < end(c)` for the right one;
//! - "same node / ancestor / descendant / unrelated" between the pending
//!   and the new candidate is the same interval test;
//! - the node emitted is the candidate itself.
//!
//! # Why the counters cannot change
//!
//! `postings_scanned`, `gallop_probes` and `candidates_pruned` are counted
//! by the stream's loop and by `gallop_insertion_by`. The gallop's probe
//! sequence is a pure function of `(list length, cursor anchor, insertion
//! point)`, and one `ListCursor::below(i)` evaluation is one probe whether
//! it is answered from a skip header or an unpacked frame. Settling is
//! decided by the candidate and the pending candidate alone — both node
//! ids fixed by the lists — so which lists a settled candidate skips, and
//! therefore every later anchor, is too. The counters depend on the lists
//! and the query, never on how a frame happens to be packed or cached.
//! Every driver posting is either emitted once or pruned once, settled
//! candidates included, so `postings_scanned` equals the SLCAs emitted
//! plus the stream's `candidates_pruned`. The serve goldens and
//! `ci/executor_counters.golden` pin the counters in aggregate.
//!
//! The full-scan implementation in [`crate::slca`] is the correctness
//! reference; `tests/properties.rs` pins the stream to it over random
//! documents and queries.

use crate::postings::{FrameCache, InvertedIndex, PostingsRef, FRAME};
use crate::query::Query;
use std::fmt;
use std::ops::{Add, AddAssign};
use xsact_xml::{Document, NodeId};

/// Counters of one executor run (or an aggregate of many — the type is a
/// commutative monoid under [`Add`], and a facade query sums those of the
/// searches it ran).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Posting entries consumed: driver-list entries walked by the SLCA
    /// stream.
    pub postings_scanned: u64,
    /// Comparisons spent locating neighbours in the non-driver
    /// lists (exponential bracket probes + the binary search inside the
    /// bracket). A candidate that settles skips the lists after the one it
    /// settled on, so they pay no probe for it.
    pub gallop_probes: u64,
    /// Candidates discarded on the way to the final result: SLCA
    /// candidates that settled (they are or contain the pending candidate)
    /// or were replaced by a descendant, duplicate entity promotions found
    /// on the ancestor chain, and scored results evicted by the bounded
    /// top-k heap. Each is counted once.
    pub candidates_pruned: u64,
}

impl ExecutorStats {
    /// Whether nothing was counted — the signature of a short-circuited
    /// (provably empty) plan.
    pub fn is_zero(&self) -> bool {
        *self == ExecutorStats::default()
    }
}

impl Add for ExecutorStats {
    type Output = ExecutorStats;

    fn add(self, rhs: ExecutorStats) -> ExecutorStats {
        ExecutorStats {
            postings_scanned: self.postings_scanned + rhs.postings_scanned,
            gallop_probes: self.gallop_probes + rhs.gallop_probes,
            candidates_pruned: self.candidates_pruned + rhs.candidates_pruned,
        }
    }
}

impl AddAssign for ExecutorStats {
    fn add_assign(&mut self, rhs: ExecutorStats) {
        *self = *self + rhs;
    }
}

impl fmt::Display for ExecutorStats {
    /// The one human-facing spelling of the counters, shared by the CLI's
    /// `--explain` line, the corpus aggregate, and the serve shutdown
    /// summary so the three can never drift apart.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} postings scanned, {} gallop probes, {} candidates pruned",
            self.postings_scanned, self.gallop_probes, self.candidates_pruned
        )
    }
}

/// A resolved, ordered execution plan for one conjunctive query.
///
/// Posting lists are held rarest-first; an empty plan (no terms, or a term
/// with zero postings) is remembered as such and never reaches the SLCA
/// machinery.
#[derive(Debug, Clone)]
pub struct QueryPlan<'a> {
    /// Posting lists ordered by ascending length. Empty exactly when
    /// planning proved the result set empty (a plan over actual matches
    /// always holds at least one non-empty list).
    lists: Vec<PostingsRef<'a>>,
}

impl<'a> QueryPlan<'a> {
    /// Plans `query` against `index`: resolves each term's posting list and
    /// orders them rarest-first. A query with no terms, or with any term
    /// absent from the index, yields an [empty](Self::is_empty) plan. The
    /// resulting stream runs directly on the packed frames — no posting
    /// list is decoded up front.
    pub fn new(index: &'a InvertedIndex, query: &Query) -> QueryPlan<'a> {
        let mut lists = Vec::with_capacity(query.len());
        for term in query.iter() {
            let postings = index.postings(term);
            if postings.is_empty() {
                // Conjunctive semantics: one hopeless term sinks the whole
                // query before any SLCA work happens.
                return QueryPlan { lists: Vec::new() };
            }
            lists.push(postings);
        }
        lists.sort_by_key(PostingsRef::len);
        QueryPlan { lists }
    }

    /// Whether planning already proved the result set empty.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Number of planned posting lists (0 for an empty plan).
    pub fn num_lists(&self) -> usize {
        self.lists.len()
    }

    /// Length of the driving (shortest) posting list — the number of SLCA
    /// probes an execution will pay.
    pub fn driver_len(&self) -> usize {
        self.lists.first().map_or(0, PostingsRef::len)
    }

    /// Total posting entries across all planned lists.
    pub fn total_postings(&self) -> usize {
        self.lists.iter().map(PostingsRef::len).sum()
    }

    /// Starts lazy execution over `doc`: an iterator of SLCA roots in
    /// document order. An empty plan yields an immediately-exhausted
    /// stream with zero counters.
    pub fn stream(&self, doc: &'a Document) -> SlcaStream<'a> {
        let mut cursors = self.lists.iter().map(|&list| ListCursor::new(list));
        SlcaStream {
            doc,
            driver: cursors.next(),
            others: cursors.collect(),
            next_driver: 0,
            pending: None,
            stats: ExecutorStats::default(),
        }
    }
}

/// One posting list plus the anchor its last probe ended at and a
/// one-frame decode cache.
#[derive(Debug)]
struct ListCursor<'a> {
    list: PostingsRef<'a>,
    pos: usize,
    cache: FrameCache,
}

impl<'a> ListCursor<'a> {
    fn new(list: PostingsRef<'a>) -> ListCursor<'a> {
        ListCursor { list, pos: 0, cache: FrameCache::new() }
    }

    /// The `i`-th posting, unpacking (and caching) its frame if needed.
    fn node_at(&mut self, i: usize) -> NodeId {
        NodeId::from_index(self.cache.frame(&self.list, i / FRAME)[i % FRAME])
    }

    /// One gallop probe: whether entry `i` sorts strictly before the
    /// candidate `x`. The skip headers of frame `i/128` and its successor
    /// answer most probes without unpacking: entries increase strictly
    /// along the list, so the next frame's first entry bounds this frame
    /// from above and the own frame's first bounds it from below. Only a
    /// probe neither bound decides unpacks the (cached) frame. Every code
    /// path returns the boolean `entry(i) < x`.
    fn below(&mut self, i: usize, x: NodeId) -> bool {
        let x = x.index() as u32;
        let p = self.list;
        let f = i / FRAME;
        let r = i % FRAME;
        if let Some(frame) = self.cache.cached(f) {
            // Frame already decoded: answer straight from the payload
            // cache, as cheap as a flat-slice read.
            return frame[r] < x;
        }
        let first = p.frame_first(f);
        if r == 0 {
            return first < x;
        }
        if f + 1 < p.frame_count() && p.frame_first(f + 1) <= x {
            return true; // entry i < next frame's first <= candidate
        }
        if first >= x {
            return false; // entry i > own frame's first >= candidate
        }
        self.cache.frame(&p, f)[r] < x
    }
}

/// The deepest ancestor-or-self of `x` whose subtree holds `left` (an entry
/// sorting strictly before `x`) or `right` (an entry not sorting before it).
/// At least one is present.
fn deepest_lca(doc: &Document, x: NodeId, left: Option<NodeId>, right: Option<NodeId>) -> NodeId {
    let mut c = x;
    loop {
        // `left < x < end(c)` and `c <= x <= right` hold for every
        // ancestor-or-self `c`, so one comparison per neighbour decides
        // membership in `[c, end(c))`.
        let holds_left = left.is_some_and(|a| c <= a);
        let holds_right = right.is_some_and(|b| (b.index() as u32) < doc.subtree_end(c));
        if holds_left || holds_right {
            return c;
        }
        c = doc.parent(c).expect("the root's interval holds every node");
    }
}

/// Whether `a` is a proper ancestor of `b`.
fn contains(doc: &Document, a: NodeId, b: NodeId) -> bool {
    a < b && (b.index() as u32) < doc.subtree_end(a)
}

/// Whether `a` is `b` or an ancestor of it.
fn holds(doc: &Document, a: NodeId, b: NodeId) -> bool {
    a <= b && (b.index() as u32) < doc.subtree_end(a)
}

/// Lazy SLCA execution: yields each SLCA root exactly once, in document
/// order, computing candidates one driver posting at a time.
///
/// The single-pass duplicate/ancestor elimination relies on the candidate
/// sequence produced by a sorted driver list: a candidate can only sort
/// *before* its predecessor if it is an ancestor of it, so one pending
/// candidate of lookahead suffices to reproduce the sort + dedup +
/// ancestor-prune of the batch algorithm (`tests/properties.rs` pins the
/// equivalence). The same lookahead settles a candidate early: it only
/// climbs, so one that is or contains the pending candidate is lost
/// before its remaining lists are galloped.
#[derive(Debug)]
pub struct SlcaStream<'a> {
    doc: &'a Document,
    /// The shortest list; `None` for an empty plan.
    driver: Option<ListCursor<'a>>,
    others: Vec<ListCursor<'a>>,
    next_driver: usize,
    /// The one candidate of lookahead.
    pending: Option<NodeId>,
    stats: ExecutorStats,
}

impl SlcaStream<'_> {
    /// The counters accumulated so far (final once the stream is
    /// exhausted; callers that stop early get the cost of what they
    /// actually consumed — the point of streaming).
    pub fn stats(&self) -> ExecutorStats {
        self.stats
    }
}

impl Iterator for SlcaStream<'_> {
    type Item = NodeId;

    /// Runs the loop until the next SLCA is final.
    fn next(&mut self) -> Option<NodeId> {
        let doc = self.doc;
        let driver = self.driver.as_mut()?;
        'postings: loop {
            if self.next_driver >= driver.list.len() {
                return self.pending.take();
            }
            let mut x = driver.node_at(self.next_driver);
            self.next_driver += 1;
            self.stats.postings_scanned += 1;
            for cursor in &mut self.others {
                x = anchored_deepest_lca(doc, x, cursor, &mut self.stats.gallop_probes);
                // Settle: a candidate only climbs, so once it is the
                // pending one or contains it, it can never be a smallest
                // LCA — drop it without galloping the remaining lists.
                if self.pending.is_some_and(|p| holds(doc, x, p)) {
                    self.stats.candidates_pruned += 1;
                    continue 'postings;
                }
            }
            // A candidate that is or contains the pending one was settled
            // above; one straight off the driver cannot be — it sorts after
            // every earlier posting, so after the pending candidate.
            match self.pending {
                None => self.pending = Some(x),
                // The pending candidate contains the new one: it cannot be
                // a *smallest* LCA, replace it.
                Some(p) if contains(doc, p, x) => {
                    self.stats.candidates_pruned += 1;
                    self.pending = Some(x);
                }
                // Unrelated: the pending candidate is final (nothing later
                // can sort before it without being its ancestor).
                Some(p) => {
                    self.pending = Some(x);
                    return Some(p);
                }
            }
        }
    }
}

/// The deepest LCA of `x` with any node of the cursor's list — achieved by
/// one of the two nodes adjacent to `x` in document order, located by
/// galloping from the cursor's previous position.
fn anchored_deepest_lca(
    doc: &Document,
    x: NodeId,
    cursor: &mut ListCursor<'_>,
    probes: &mut u64,
) -> NodeId {
    let n = cursor.list.len();
    let i = gallop_insertion_by(n, cursor.pos, |j| {
        *probes += 1;
        cursor.below(j, x)
    });
    cursor.pos = i;
    let left = i.checked_sub(1).map(|j| cursor.node_at(j));
    let right = (i < n).then(|| cursor.node_at(i));
    deepest_lca(doc, x, left, right)
}

/// The first index `i` in `0..n` for which `below(i)` is false — what
/// `partition_point(below)` computes — located by bidirectional exponential
/// search from `anchor` instead of bisecting the whole range. Cursors
/// advance monotonically for the outermost probe of each driver posting;
/// intersected prefixes can briefly step backwards (an ancestor sorts
/// before its descendants), and a list a settled candidate skipped keeps
/// an older anchor; the bidirectional gallop is correct from any anchor
/// and covers both at the same logarithmic cost.
///
/// `below` must be monotone (true-prefix). It is invoked exactly once per
/// probe, and the bracket bisection replicates `slice::partition_point`'s
/// midpoint sequence — so the probe *count* is a pure function of `(n,
/// anchor, insertion point)`, independent of the list representation
/// behind the closure. The serve goldens pin that count.
fn gallop_insertion_by(n: usize, anchor: usize, mut below: impl FnMut(usize) -> bool) -> usize {
    let a = anchor.min(n);
    let (lo, hi);
    if a < n && below(a) {
        // Insertion point in (a, n]: gallop forward over a+1, a+2, a+4, …
        let mut last_below = a;
        let mut step = 1usize;
        loop {
            let cand = a + step;
            if cand >= n {
                lo = last_below + 1;
                hi = n;
                break;
            }
            if below(cand) {
                last_below = cand;
                step *= 2;
            } else {
                lo = last_below + 1;
                hi = cand;
                break;
            }
        }
    } else {
        // Insertion point in [0, a]: gallop backward over a-1, a-2, a-4, …
        let mut first_at_or_above = a;
        let mut step = 1usize;
        loop {
            if step > a {
                lo = 0;
                hi = first_at_or_above;
                break;
            }
            let cand = a - step;
            if below(cand) {
                lo = cand + 1;
                hi = first_at_or_above;
                break;
            }
            first_at_or_above = cand;
            step *= 2;
        }
    }
    // `slice::partition_point` replica: std's branchless bisection halves
    // `size` with one probe per halving plus one final probe at `base`
    // (position-independent count, unlike the classic `while lo < hi`
    // loop). Spelled out so packed lists probe through the same closure
    // with the same call count the flat slices paid — the serve goldens
    // pin the aggregate.
    let mut size = hi - lo;
    let mut base = lo;
    while size > 1 {
        let half = size / 2;
        let mid = base + half;
        if below(mid) {
            base = mid;
        }
        size -= half;
    }
    if size > 0 && below(base) {
        base += 1;
    }
    base
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slca::slca_full_scan;
    use xsact_xml::parse_document;

    fn doc_and_index(xml: &str) -> (Document, InvertedIndex) {
        let doc = parse_document(xml).unwrap();
        let idx = InvertedIndex::build(&doc);
        (doc, idx)
    }

    #[test]
    fn zero_postings_term_short_circuits() {
        let (_, idx) = doc_and_index("<r><a>k1</a><b>k2</b></r>");
        let plan = QueryPlan::new(&idx, &Query::parse("k1 zeppelin"));
        assert!(plan.is_empty());
        assert_eq!(plan.num_lists(), 0);
        assert_eq!(plan.driver_len(), 0);
    }

    #[test]
    fn empty_query_is_an_empty_plan() {
        let (_, idx) = doc_and_index("<r><a>k</a></r>");
        assert!(QueryPlan::new(&idx, &Query::parse("")).is_empty());
    }

    #[test]
    fn empty_plan_streams_nothing_and_counts_nothing() {
        let (doc, idx) = doc_and_index("<r><a>k1</a></r>");
        let plan = QueryPlan::new(&idx, &Query::parse("k1 nope"));
        let mut stream = plan.stream(&doc);
        assert_eq!(stream.next(), None);
        assert!(stream.stats().is_zero(), "no SLCA work after a short-circuit");
    }

    #[test]
    fn lists_are_ordered_rarest_first() {
        let (_, idx) = doc_and_index("<r><a>k1 k2</a><b>k2</b><c>k2</c></r>");
        let plan = QueryPlan::new(&idx, &Query::parse("k2 k1"));
        assert!(!plan.is_empty());
        // Two lists of 1 and 3 postings: the rarer one drives.
        assert_eq!(plan.num_lists(), 2);
        assert_eq!(plan.driver_len(), 1);
        assert_eq!(plan.total_postings(), 4);
    }

    #[test]
    fn stream_matches_full_scan_on_the_paper_example() {
        let xml = "<r><sec><x>k1</x><y>k2</y></sec><sec><x>k1</x><y>k2</y></sec></r>";
        let (doc, idx) = doc_and_index(xml);
        let q = Query::parse("k1 k2");
        let decoded: Vec<Vec<NodeId>> =
            q.iter().map(|t| idx.postings(t).iter().collect::<Vec<_>>()).collect();
        let lists: Vec<&[NodeId]> = decoded.iter().map(Vec::as_slice).collect();
        let oracle = slca_full_scan(&doc, &lists);
        let plan = QueryPlan::new(&idx, &q);
        let mut stream = plan.stream(&doc);
        let streamed: Vec<NodeId> = (&mut stream).collect();
        assert_eq!(streamed, oracle);
        let stats = stream.stats();
        assert_eq!(stats.postings_scanned, 2, "driver list has two postings");
        assert!(stats.gallop_probes > 0);
    }

    #[test]
    fn stream_stats_reflect_partial_consumption() {
        // Three sections, three SLCAs: taking one emits after two driver
        // probes (one candidate of lookahead), not after all three.
        let xml =
            "<r><s><a>k1</a><b>k2</b></s><s><a>k1</a><b>k2</b></s><s><a>k1</a><b>k2</b></s></r>";
        let (doc, idx) = doc_and_index(xml);
        let plan = QueryPlan::new(&idx, &Query::parse("k1 k2"));
        let mut stream = plan.stream(&doc);
        assert!(stream.next().is_some());
        assert_eq!(stream.stats().postings_scanned, 2);
        let consumed: Vec<NodeId> = (&mut stream).collect();
        assert_eq!(consumed.len(), 2);
        assert_eq!(stream.stats().postings_scanned, 3);
    }

    #[test]
    fn gallop_insertion_equals_partition_point_for_any_anchor() {
        let xml = "<r><s><a>k</a><a>k</a></s><s><a>k</a></s><s><a>k</a><a>k</a><a>k</a></s></r>";
        let (doc, idx) = doc_and_index(xml);
        let list = idx.postings("a").iter().collect::<Vec<_>>();
        assert!(list.len() >= 6);
        for x in doc.all_nodes() {
            let expected = list.partition_point(|&n| n < x);
            for anchor in 0..=list.len() + 2 {
                let mut probes = 0u64;
                let got = gallop_insertion_by(list.len(), anchor, |i| {
                    probes += 1;
                    list[i] < x
                });
                assert_eq!(got, expected, "probe {x:?} from anchor {anchor}");
                assert!(probes > 0);
            }
        }
    }

    /// The pre-packing executor bisected its gallop bracket with
    /// `slice::partition_point`; the closure-based replica must pay the
    /// exact same probe count (std's bisection is branchless — one probe
    /// per halving plus a final probe — NOT the classic `while lo < hi`
    /// loop, which probes fewer). The serve goldens pin the aggregate, so
    /// pin the equivalence here over every (length, target, anchor).
    #[test]
    fn gallop_probe_count_matches_the_partition_point_reference() {
        fn reference(list: &[usize], target: usize, anchor: usize, probes: &mut u64) -> usize {
            let n = list.len();
            let below = |i: usize, probes: &mut u64| {
                *probes += 1;
                list[i] < target
            };
            let a = anchor.min(n);
            let (lo, hi);
            if a < n && below(a, probes) {
                let mut last_below = a;
                let mut step = 1usize;
                loop {
                    let cand = a + step;
                    if cand >= n {
                        lo = last_below + 1;
                        hi = n;
                        break;
                    }
                    if below(cand, probes) {
                        last_below = cand;
                        step *= 2;
                    } else {
                        lo = last_below + 1;
                        hi = cand;
                        break;
                    }
                }
            } else {
                let mut first_at_or_above = a;
                let mut step = 1usize;
                loop {
                    if step > a {
                        lo = 0;
                        hi = first_at_or_above;
                        break;
                    }
                    let cand = a - step;
                    if below(cand, probes) {
                        lo = cand + 1;
                        hi = first_at_or_above;
                        break;
                    }
                    first_at_or_above = cand;
                    step *= 2;
                }
            }
            lo + list[lo..hi].partition_point(|&v| {
                *probes += 1;
                v < target
            })
        }
        for n in 0..24usize {
            let list: Vec<usize> = (0..n).collect();
            for target in 0..=n {
                for anchor in 0..=n + 2 {
                    let mut ref_probes = 0u64;
                    let expected = reference(&list, target, anchor, &mut ref_probes);
                    let mut probes = 0u64;
                    let got = gallop_insertion_by(n, anchor, |i| {
                        probes += 1;
                        list[i] < target
                    });
                    assert_eq!(got, expected, "n {n} target {target} anchor {anchor}");
                    assert_eq!(got, target, "n {n} target {target} anchor {anchor}");
                    assert_eq!(
                        probes, ref_probes,
                        "n {n} target {target} anchor {anchor}: probe count drifted"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_cursor_probes_match_flat_cursor_probes() {
        // Same insertion point AND same probe count from every anchor, for
        // every probe node, whether a probe is answered by the cursor (skip
        // headers, cached frames) or by reading a decoded `Vec` — the
        // invariant behind the pinned golden stats. The list spans three
        // frames so the header shortcuts are taken.
        let xml = format!("<r>{}</r>", "<s><a>k</a><b/><a>k</a></s><a>k</a>".repeat(100));
        let (doc, idx) = doc_and_index(&xml);
        let packed = idx.postings("a");
        let flat: Vec<NodeId> = packed.iter().collect();
        assert_eq!(packed.frame_count(), 3);
        for x in doc.all_nodes() {
            for anchor in [0, 1, 127, 128, 129, 200, flat.len() - 1, flat.len(), flat.len() + 2] {
                let mut flat_probes = 0u64;
                let flat_i = gallop_insertion_by(flat.len(), anchor, |i| {
                    flat_probes += 1;
                    flat[i] < x
                });
                let mut cursor = ListCursor::new(packed);
                let mut packed_probes = 0u64;
                let packed_i = gallop_insertion_by(packed.len(), anchor, |i| {
                    packed_probes += 1;
                    cursor.below(i, x)
                });
                assert_eq!(packed_i, flat_i, "probe {x:?} anchor {anchor}");
                assert_eq!(packed_probes, flat_probes, "probe {x:?} anchor {anchor}");
            }
        }
    }
}
