//! Property-based tests over the whole stack.
//!
//! The offline build has no `proptest`, so these are hand-rolled property
//! loops: each test draws a few hundred random cases from the workspace's
//! deterministic `rand` shim (fixed seeds → reproducible failures; a
//! failing case is identified by its seed in the assertion message).
//!
//! The high-value invariants:
//! * XML writer ∘ parser is the identity on compact output;
//! * everything the substrate derives from preorder ids and subtree
//!   extents — children, descendants, Dewey paths, order, ancestry — equals
//!   a tree rebuilt from the `parent` links alone;
//! * the streaming SLCA executor (candidates as preorder ids, subtrees as
//!   `[id, subtree_end)`) equals the full-scan oracle on random documents
//!   and queries, on posting lists of one frame and of many;
//! * the interned flat-substrate index (term interner + postings arena)
//!   is observably identical to a string-keyed `HashMap` index built the
//!   seed way, and SLCA over either produces the same results;
//! * the delta-bit-packed posting frames decode to the flat lists, and the
//!   scorer's range counts on them rank exactly like a scorer that walks
//!   the tree;
//! * the comparison instance built from prepared features on content
//!   hashes is observably identical to the string-keyed build it replaced
//!   (kept here as `oracle_instance`) — on random, cross-document and real
//!   feature sets, and with the hash swapped for a constant;
//! * every algorithm produces valid, size-bounded DFS sets;
//! * the local searches never fall below their snippet starting point and
//!   reach their respective optimality criteria;
//! * the local searches on maintained weight rows, skipping clean results,
//!   equal the recompute searches they replaced (kept here as
//!   `oracle_single_swap` / `oracle_multi_swap`) set for set, round for
//!   round and move for move — on random and real instances;
//! * greedy on maintained rows and the optimality checkers as the
//!   searches' own best responses equal the recompute bodies they replaced
//!   (`oracle_greedy`, `oracle_is_*_optimal`), and annealing reproduces its
//!   pinned runs;
//! * multi-swap matches the exhaustive optimum on tiny instances.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use xsact_core::{
    bits, compare, dod_total, greedy_set, is_multi_swap_optimal, is_single_swap_optimal,
    multi_swap, multi_swap_from, render_table, run_algorithm, single_swap, single_swap_from,
    snippet_set, Algorithm, Dfs, DfsConfig, DfsSet, Instance, SwapStats,
};
use xsact_entity::{
    extract_features, FeatureType, NodeClass, ResultFeatures, Stat, StructureSummary,
};
use xsact_index::{
    rank_results, slca_full_scan, ExecutorStats, InvertedIndex, Query, QueryPlan, ScoredResult,
    Scorer, SearchEngine, SearchResult, TopK,
};
use xsact_xml::{parse_document, writer, Document, NodeId, Sym};

// ---------------------------------------------------------------- XML layer

/// Random tag names from a tiny alphabet (collisions intended — repeated
/// sibling tags exercise the entity classifier and SLCA dedup paths).
const TAGS: [&str; 5] = ["a", "b", "c", "item", "group"];

fn random_tag(rng: &mut StdRng) -> String {
    TAGS[rng.random_range(0..TAGS.len())].to_owned()
}

/// Printable-ASCII text including XML-special characters.
fn random_text(rng: &mut StdRng) -> String {
    let len = rng.random_range(0..=12usize);
    (0..len).map(|_| rng.random_range(b' '..=b'~') as char).collect()
}

/// Adds a random subtree under `parent`: depth-bounded, 0..5 children per
/// element, with text and empty-element leaves.
fn build_random_tree(doc: &mut Document, rng: &mut StdRng, parent: NodeId, depth: usize) {
    if depth == 0 || rng.random_bool(0.3) {
        // Leaf: text or an empty element.
        if rng.random_bool(0.5) {
            // Whitespace-only runs are dropped by the tokenizer, and two
            // adjacent text runs merge into one on reparse — skip both
            // cases so the round-trip comparison is exact.
            let t = random_text(rng);
            let last_is_text = doc.children(parent).last().is_some_and(|c| !doc.is_element(c));
            if !t.trim().is_empty() && !last_is_text {
                doc.add_text(parent, t.trim());
            }
        } else {
            let tag = random_tag(rng);
            doc.add_element(parent, tag);
        }
        return;
    }
    let tag = random_tag(rng);
    let el = doc.add_element(parent, tag);
    let children = rng.random_range(0..5usize);
    for _ in 0..children {
        build_random_tree(doc, rng, el, depth - 1);
    }
}

fn random_document(rng: &mut StdRng) -> Document {
    let mut doc = Document::new("root");
    let root = doc.root();
    let top_level = rng.random_range(0..6usize);
    for _ in 0..top_level {
        build_random_tree(&mut doc, rng, root, 4);
    }
    doc
}

#[test]
fn xml_write_parse_round_trip() {
    for seed in 0..64u64 {
        let doc = random_document(&mut StdRng::seed_from_u64(seed));
        let xml = writer::write_document(&doc, &writer::WriteOptions::compact());
        let reparsed = parse_document(&xml).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let xml2 = writer::write_document(&reparsed, &writer::WriteOptions::compact());
        assert_eq!(xml, xml2, "seed {seed}");
        assert_eq!(doc.len(), reparsed.len(), "seed {seed}");
    }
}

#[test]
fn slca_implementations_agree() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_document(&mut rng);
        let idx = InvertedIndex::build(&doc);
        // Query the most common tags — they are guaranteed to have postings
        // in most generated documents, and missing terms are a valid case
        // too.
        let terms = ["a", "item", "root", "b"];
        // Inclusive of terms.len(), so 4-keyword queries (and the last
        // declared term) are actually exercised.
        let term_count = rng.random_range(1..=terms.len());
        let decoded: Vec<Vec<NodeId>> =
            terms.iter().take(term_count).map(|t| idx.postings(t).to_vec()).collect();
        let lists: Vec<&[NodeId]> = decoded.iter().map(Vec::as_slice).collect();
        let full = slca_full_scan(&doc, &lists);
        let query = Query::parse(&terms[..term_count].join(" "));
        let eager: Vec<NodeId> = QueryPlan::new(&idx, &query).stream(&doc).collect();
        assert_eq!(full, eager, "seed {seed}, {term_count} terms");
    }
}

/// The seed's tokenizer, char by char and independent of the lexer under
/// test: lowercased alphanumeric runs, each term once, in first-seen order.
fn oracle_terms(text: &str) -> Vec<String> {
    let mut terms: Vec<String> = Vec::new();
    let mut current = String::new();
    for c in text.chars().chain([' ']) {
        if c.is_alphanumeric() {
            current.extend(c.to_lowercase());
        } else if !current.is_empty() {
            let term = std::mem::take(&mut current);
            if !terms.contains(&term) {
                terms.push(term);
            }
        }
    }
    terms
}

/// A string-keyed inverted index built exactly the way the seed did it —
/// `HashMap<String, Vec<NodeId>>`, owned `String` terms, per-node
/// [`oracle_terms`] — used as the oracle for the interned index.
fn string_keyed_oracle(doc: &Document) -> std::collections::HashMap<String, Vec<NodeId>> {
    use std::collections::HashMap;
    let mut postings: HashMap<String, Vec<NodeId>> = HashMap::new();
    let add_terms = |postings: &mut HashMap<String, Vec<NodeId>>, text: &str, node: NodeId| {
        for term in oracle_terms(text) {
            postings.entry(term).or_default().push(node);
        }
    };
    for node in doc.all_nodes() {
        if doc.is_element(node) {
            let mut text = String::from(doc.tag(node));
            for (name, value) in doc.attrs(node) {
                text.push(' ');
                text.push_str(name);
                text.push(' ');
                text.push_str(value);
            }
            add_terms(&mut postings, &text, node);
        } else if let Some(t) = doc.text(node) {
            if let Some(parent) = doc.parent(node) {
                add_terms(&mut postings, t, parent);
            }
        }
    }
    for list in postings.values_mut() {
        list.sort_by_cached_key(|&n| doc.dewey(n));
        list.dedup();
    }
    postings
}

/// Tag and attribute names of [`mixed_document`]: mixed case, several
/// terms per name, non-ASCII letters, and one pool for tags and attributes,
/// so attribute names repeat tag names.
const MIXED_NAMES: [&str; 7] =
    ["Product_Line", "easyToRead", "item", "Größe_Maß", "REVIEW-set", "x²", "b"];
/// Words of [`mixed_document`]'s text: ASCII beside `É`, `ß`, `İ` and `²`.
const MIXED_WORDS: [&str; 10] =
    ["TomTom", "gps", "GPS", "ÉTÉ", "été", "Straße", "İstanbul", "x²", "easy_to_read", "Item"];
const MIXED_SEPARATORS: [&str; 5] = [" ", "-", ", ", " · ", ""];

fn mixed_text(rng: &mut StdRng) -> String {
    let mut text = String::new();
    for _ in 0..rng.random_range(0..=5usize) {
        text.push_str(pick(rng, &MIXED_SEPARATORS));
        text.push_str(pick(rng, &MIXED_WORDS));
    }
    text
}

/// Gives the element `el`, the node appended last, up to two attributes
/// and then, above depth 0, a few text runs and child elements.
fn fill_mixed_element(doc: &mut Document, rng: &mut StdRng, el: NodeId, depth: usize) {
    let mut named: Vec<&str> = Vec::new();
    for _ in 0..rng.random_range(0..=2usize) {
        let name = pick(rng, &MIXED_NAMES);
        if !named.contains(&name) {
            named.push(name);
            doc.set_attr(el, name, mixed_text(rng));
        }
    }
    if depth == 0 {
        return;
    }
    for _ in 0..rng.random_range(0..4usize) {
        if rng.random_bool(0.4) {
            doc.add_text(el, mixed_text(rng));
        } else {
            let child = doc.add_element(el, pick(rng, &MIXED_NAMES));
            fill_mixed_element(doc, rng, child, depth - 1);
        }
    }
}

/// A random tree over [`MIXED_NAMES`] and [`MIXED_WORDS`]: what the index
/// build's name memo and the lexer's two loops both touch.
fn mixed_document(rng: &mut StdRng) -> Document {
    let mut doc = Document::new(pick(rng, &MIXED_NAMES));
    let root = doc.root();
    fill_mixed_element(&mut doc, rng, root, 4);
    doc
}

#[test]
fn interned_index_matches_string_keyed_oracle() {
    type Generator = fn(&mut StdRng) -> Document;
    for (generator, generate) in
        [("plain", random_document as Generator), ("mixed", mixed_document)]
    {
        for seed in 0..64u64 {
            let what = format!("{generator} seed {seed}");
            let doc = generate(&mut StdRng::seed_from_u64(seed));
            let idx = InvertedIndex::build(&doc);
            let oracle = string_keyed_oracle(&doc);
            assert_eq!(idx.term_count(), oracle.len(), "{what}: term universes differ");
            for (term, list) in &oracle {
                assert_eq!(idx.postings(term), list.as_slice(), "{what} term {term:?}");
                assert!(idx.contains(term), "{what} term {term:?}");
            }
            // Dictionary iteration covers exactly the oracle's terms, sorted.
            let dict: Vec<&str> = idx.terms().collect();
            let mut expected: Vec<&str> = oracle.keys().map(String::as_str).collect();
            expected.sort_unstable();
            assert_eq!(dict, expected, "{what}");
        }
    }
}

#[test]
fn slca_over_interned_postings_matches_oracle_lists() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_document(&mut rng);
        let idx = InvertedIndex::build(&doc);
        let oracle = string_keyed_oracle(&doc);
        let terms = ["a", "item", "root", "b"];
        // Inclusive of terms.len(), so 4-keyword queries (and the last
        // declared term) are actually exercised.
        let term_count = rng.random_range(1..=terms.len());
        let empty: Vec<NodeId> = Vec::new();
        let interned_decoded: Vec<Vec<NodeId>> =
            terms.iter().take(term_count).map(|t| idx.postings(t).to_vec()).collect();
        let interned: Vec<&[NodeId]> = interned_decoded.iter().map(Vec::as_slice).collect();
        let string_keyed: Vec<&[NodeId]> = terms
            .iter()
            .take(term_count)
            .map(|t| oracle.get(*t).unwrap_or(&empty).as_slice())
            .collect();
        let over_oracle_lists = slca_full_scan(&doc, &string_keyed);
        let query = Query::parse(&terms[..term_count].join(" "));
        assert_eq!(
            QueryPlan::new(&idx, &query).stream(&doc).collect::<Vec<_>>(),
            over_oracle_lists,
            "seed {seed}: SLCA differs between substrates"
        );
        assert_eq!(
            slca_full_scan(&doc, &interned),
            over_oracle_lists,
            "seed {seed}: full-scan SLCA differs between substrates"
        );
    }
}

// ------------------------------------------------ streaming top-k executor
//
// The gallop executor (QueryPlan + SlcaStream + the bounded top-k heap)
// must be observably identical to the batch oracles: slca_full_scan for
// the match set, and rank_results' full sort truncated at k for the
// ranking — for every k, tied scores included.

/// A random query over the generator's tag universe: 1–4 terms, sometimes
/// including `missing`, which never occurs in any generated document (so
/// the zero-postings short-circuit is exercised as a matter of course).
fn random_query(rng: &mut StdRng) -> Query {
    let universe = ["a", "item", "root", "b", "group", "missing"];
    let term_count = rng.random_range(1..=4usize);
    let start = rng.random_range(0..universe.len() - term_count + 1);
    Query::parse(&universe[start..start + term_count].join(" "))
}

#[test]
fn gallop_stream_matches_the_full_scan_oracle() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_document(&mut rng);
        let idx = InvertedIndex::build(&doc);
        let query = random_query(&mut rng);
        let decoded: Vec<Vec<NodeId>> = query.iter().map(|t| idx.postings(t).to_vec()).collect();
        let lists: Vec<&[NodeId]> = decoded.iter().map(Vec::as_slice).collect();
        let oracle = slca_full_scan(&doc, &lists);
        let plan = QueryPlan::new(&idx, &query);
        let mut stream = plan.stream(&doc);
        let streamed: Vec<NodeId> = stream.by_ref().collect();
        assert_eq!(streamed, oracle, "seed {seed}, query {query}");
        if plan.is_empty() {
            assert!(oracle.is_empty(), "seed {seed}: planner may only prune hopeless queries");
            assert!(stream.stats().is_zero(), "seed {seed}: short-circuit must cost nothing");
        } else {
            assert_eq!(
                stream.stats().postings_scanned,
                plan.driver_len() as u64,
                "seed {seed}: the driver list is walked exactly once"
            );
            assert_conserved(stream.stats(), streamed.len(), &format!("seed {seed}, {query}"));
        }
    }
}

/// The stream's conservation law: every driver posting becomes one
/// candidate, and every candidate is emitted once or pruned once — a
/// settled candidate included.
fn assert_conserved(stats: ExecutorStats, emitted: usize, what: &str) {
    assert_eq!(
        stats.postings_scanned,
        emitted as u64 + stats.candidates_pruned,
        "{what}: postings scanned = SLCAs emitted + candidates pruned"
    );
}

/// The streaming top-k, labelled — the shape the `search_ranked` oracle
/// returns.
fn labelled_top_k(
    engine: &SearchEngine,
    query: &Query,
    k: usize,
) -> Vec<(SearchResult, ScoredResult)> {
    let (roots, _) = engine.search_top_k(query, k, None);
    roots.into_iter().map(|r| (engine.result_for(&r), r.score)).collect()
}

#[test]
fn search_top_k_matches_the_ranked_oracle() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_document(&mut rng);
        let engine = SearchEngine::build(doc);
        let query = random_query(&mut rng);
        // Oracle: the unbounded document-order search, ranked by the
        // sort-everything path.
        let results = engine.search(&query);
        let roots: Vec<NodeId> = results.iter().map(|r| r.root).collect();
        let scored = rank_results(engine.document(), engine.index(), &query, &roots);
        let full = labelled_top_k(&engine, &query, usize::MAX);
        assert_eq!(
            full.iter().map(|(_, s)| s.clone()).collect::<Vec<_>>(),
            scored,
            "seed {seed}: unbounded executor vs full sort"
        );
        // Labelling by `result_for` gives every survivor the result the
        // document-order search found for its root.
        for (result, _) in &full {
            assert!(results.contains(result), "seed {seed}: {result:?}");
        }
        assert_eq!(full.len(), results.len(), "seed {seed}");
        // Every truncation equals the full run's prefix.
        for k in 0..=full.len() + 1 {
            let bounded = labelled_top_k(&engine, &query, k);
            assert_eq!(bounded, full[..k.min(full.len())], "seed {seed} k = {k}");
        }
    }
}

/// The best `k` of `roots` in the order given, through the executor's
/// bounded collector.
fn top_k(
    doc: &Document,
    idx: &InvertedIndex,
    query: &Query,
    roots: impl IntoIterator<Item = NodeId>,
    k: usize,
) -> Vec<ScoredResult> {
    let mut scorer = Scorer::new(doc, idx, query);
    let mut heap = TopK::new(k);
    for root in roots {
        let scored = scorer.score(root);
        heap.push(scored.score, root, scored);
    }
    heap.finish().0
}

#[test]
fn top_k_breaks_deliberate_ties_like_the_full_sort() {
    // Sixteen structurally identical siblings: sixteen bitwise-equal
    // scores, so every prefix is decided purely by the document-order
    // tie-break.
    let xml = format!("<r>{}</r>", "<s><t>gps</t></s>".repeat(16));
    let doc = parse_document(&xml).unwrap();
    let idx = InvertedIndex::build(&doc);
    let query = Query::parse("gps");
    let roots: Vec<NodeId> = doc.children(doc.root()).collect();
    let full = rank_results(&doc, &idx, &query, &roots);
    assert!(full.windows(2).all(|w| w[0].score == w[1].score), "fixture must tie every score");
    for k in 0..=full.len() {
        // Feed the roots in reverse to prove input order cannot leak
        // through the bounded heap either.
        let top = top_k(&doc, &idx, &query, roots.iter().rev().copied(), k);
        assert_eq!(top, full[..k], "k = {k}");
    }
}

#[test]
fn v1_index_files_always_rejected() {
    // Whatever the document, a version-1 header must be refused with the
    // typed "unsupported index version" error, not parsed as garbage.
    for seed in 0..16u64 {
        let doc = random_document(&mut StdRng::seed_from_u64(seed));
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"XIDX");
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&(doc.len() as u64).to_le_bytes());
        v1.extend_from_slice(&0u32.to_le_bytes());
        let err = xsact_index::load_image(&mut v1.as_slice(), None, &mut Vec::new()).unwrap_err();
        assert!(
            err.to_string().contains("unsupported index version 1"),
            "seed {seed}: unexpected error {err}"
        );
    }
}

#[test]
fn index_persistence_round_trips() {
    for seed in 0..64u64 {
        let doc = random_document(&mut StdRng::seed_from_u64(seed));
        let idx = InvertedIndex::build(&doc);
        let mut bytes = Vec::new();
        xsact_index::save_image(&doc, &idx, &mut bytes).expect("in-memory write");
        let (loaded_doc, loaded) =
            xsact_index::load_image(&mut bytes.as_slice(), None, &mut Vec::new()).expect("load");
        assert_eq!(loaded_doc, doc, "seed {seed}");
        assert_eq!(loaded.term_count(), idx.term_count(), "seed {seed}");
        for term in ["a", "b", "item", "group", "root"] {
            assert_eq!(loaded.postings(term), idx.postings(term), "seed {seed} term {term}");
        }
    }
}

// ---------------------------------------------------- the preorder substrate
//
// A document stores, per node, its parent and its subtree extent; node ids
// are preorder ranks. Children, descendants, Dewey paths, document order and
// ancestry are all derived from those. The oracle below rebuilds the tree
// from `parent` alone — the one stored relation that does not involve the
// extent — and everything derived must equal it.

/// A document's tree rebuilt from [`Document::parent`] alone. Siblings are
/// ordered by id: the order they were appended in.
struct TreeOracle {
    /// Per node, its children.
    children: Vec<Vec<NodeId>>,
    /// Per node, its ordinal path from the root (`[0, 3, 1]`) — its Dewey id.
    paths: Vec<Vec<u32>>,
}

impl TreeOracle {
    fn of(doc: &Document) -> TreeOracle {
        let mut children = vec![Vec::new(); doc.len()];
        let mut paths = vec![vec![0]; doc.len()];
        // A node is appended after its parent, so ids visit parents first.
        for n in doc.all_nodes().skip(1) {
            let parent = doc.parent(n).expect("only node 0 is the root").index();
            let mut path = paths[parent].clone();
            path.push(children[parent].len() as u32);
            paths[n.index()] = path;
            children[parent].push(n);
        }
        TreeOracle { children, paths }
    }

    /// The subtree of `n` in document order, by an explicit walk.
    fn subtree(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![n];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.children[n.index()].iter().rev());
        }
        out
    }
}

fn assert_substrate_matches_the_tree(doc: &Document, what: &str) {
    let tree = TreeOracle::of(doc);
    let all = tree.subtree(doc.root());
    assert_eq!(doc.all_nodes().collect::<Vec<_>>(), all, "{what}: all_nodes order");
    assert!(all.windows(2).all(|w| w[0] < w[1]), "{what}: document order is id order");
    let deweys: Vec<_> = all.iter().map(|&n| doc.dewey(n)).collect();
    assert!(deweys.windows(2).all(|w| w[0] < w[1]), "{what}: Dewey order is id order");
    for &n in &all {
        let i = n.index();
        assert_eq!(deweys[i].components(), tree.paths[i], "{what}: Dewey id of node {i}");
        assert_eq!(doc.depth(n), tree.paths[i].len(), "{what}: depth of node {i}");
        let children: Vec<NodeId> = doc.children(n).collect();
        assert_eq!(children, tree.children[i], "{what}: children of {}", deweys[i]);
        let subtree = tree.subtree(n);
        assert_eq!(doc.descendants(n).collect::<Vec<_>>(), subtree, "{what}: {}", deweys[i]);
        assert_eq!(
            doc.subtree_end(n) as usize - i,
            subtree.len(),
            "{what}: extent of node {}",
            deweys[i]
        );
        // Ancestry is interval containment and Dewey prefixing: every
        // ancestor's interval and path hold `n`'s. Nothing else does — an
        // interval is its node's subtree and a path is the ordinal path, as
        // checked above.
        for a in std::iter::successors(doc.parent(n), |&a| doc.parent(a)) {
            assert!(a < n && (i as u32) < doc.subtree_end(a), "{what}: {a:?} holds {n:?}");
            let below = deweys[i].components().strip_prefix(deweys[a.index()].components());
            assert!(below.is_some_and(|rest| !rest.is_empty()), "{what}: {}", deweys[i]);
        }
    }
}

#[test]
fn subtree_extents_equal_descendant_counts_on_parsed_and_generated_documents() {
    for seed in 0..64u64 {
        let built = random_document(&mut StdRng::seed_from_u64(seed));
        assert_substrate_matches_the_tree(&built, &format!("seed {seed}, builder"));
        let xml = writer::write_document(&built, &writer::WriteOptions::compact());
        let parsed = parse_document(&xml).unwrap();
        assert_substrate_matches_the_tree(&parsed, &format!("seed {seed}, parser"));
    }
    use xsact::data::{
        JobsGen, JobsGenConfig, MovieGenConfig, MoviesGen, OutdoorGen, OutdoorGenConfig,
        ReviewsGen, ReviewsGenConfig,
    };
    assert_substrate_matches_the_tree(&xsact::data::fixtures::figure1_document(), "figure1");
    for seed in 0..4u64 {
        let movies = MovieGenConfig { seed, movies: 12, ..Default::default() };
        assert_substrate_matches_the_tree(&MoviesGen::new(movies).generate(), "movies");
        assert_substrate_matches_the_tree(
            &ReviewsGen::new(ReviewsGenConfig { seed, ..Default::default() }).generate(),
            "reviews",
        );
        assert_substrate_matches_the_tree(
            &OutdoorGen::new(OutdoorGenConfig { seed, ..Default::default() }).generate(),
            "outdoor",
        );
        assert_substrate_matches_the_tree(
            &JobsGen::new(JobsGenConfig { seed, ..Default::default() }).generate(),
            "jobs",
        );
    }
}

// ------------------------------------------------------------- tag paths
//
// A node's kind is its tag path: the document numbers its distinct paths
// first-seen in preorder and settles each path's two facts as nodes are
// appended or decoded, and the structure summary only names and classifies
// the paths. The oracle below derives all of it per node from the tree,
// string-keyed, the way the summary did before the document kept paths.

/// Per node its `a/b/c` tag path (`None` for text runs), and per path
/// whether some node holds two element children on it (`repeats`) and
/// whether some node on it has an element child (`internal`).
type OraclePaths = (Vec<Option<String>>, HashMap<String, (bool, bool)>);

fn oracle_paths(doc: &Document) -> OraclePaths {
    let mut keys: Vec<Option<String>> = vec![None; doc.len()];
    let mut facts: HashMap<String, (bool, bool)> = HashMap::new();
    for node in doc.all_nodes().filter(|&n| doc.is_element(n)) {
        let key = match doc.parent(node) {
            Some(parent) => format!("{}/{}", keys[parent.index()].as_ref().unwrap(), doc.tag(node)),
            None => doc.tag(node).to_owned(),
        };
        facts.entry(key.clone()).or_default();
        keys[node.index()] = Some(key);
    }
    for node in doc.all_nodes().filter(|&n| doc.is_element(n)) {
        let children: Vec<NodeId> = doc.child_elements(node).collect();
        facts.get_mut(keys[node.index()].as_ref().unwrap()).unwrap().1 |= !children.is_empty();
        for &child in &children {
            if children.iter().filter(|&&c| doc.tag(c) == doc.tag(child)).count() > 1 {
                facts.get_mut(keys[child.index()].as_ref().unwrap()).unwrap().0 = true;
            }
        }
    }
    (keys, facts)
}

/// `doc`'s path ids, path displays, facts and classes equal the oracle's;
/// with `reparse`, the parse of its XML gets the identical path table.
/// Either way `save → load → save` is byte-stable and loads that table.
fn assert_paths_match_the_oracle(doc: &Document, reparse: bool, what: &str) {
    let summary = StructureSummary::infer(doc);
    let (keys, facts) = oracle_paths(doc);
    let mut first_seen: Vec<&str> = Vec::new();
    for node in doc.all_nodes() {
        let class = summary.class_of(doc, node);
        let (Some(path), Some(key)) = (doc.path_id(node), keys[node.index()].as_deref()) else {
            assert_eq!((doc.path_id(node), doc.is_element(node)), (None, false), "{what}");
            assert_eq!(class, NodeClass::Attribute, "{what}: text run {node:?}");
            continue;
        };
        if path.index() == first_seen.len() {
            first_seen.push(key);
        }
        assert_eq!(first_seen.get(path.index()), Some(&key), "{what}: {key} numbered first-seen");
        assert_eq!(summary.path_display(path), key, "{what}: {node:?}");
        let (repeats, internal) = facts[key];
        let tag_path = doc.paths()[path.index()];
        assert_eq!((tag_path.repeats, tag_path.internal), (repeats, internal), "{what}: {key}");
        let want = if node == doc.root() || repeats && internal {
            NodeClass::Entity
        } else if !internal {
            NodeClass::Attribute
        } else {
            NodeClass::Connection
        };
        assert_eq!(class, want, "{what}: {key}");
    }
    assert_eq!(first_seen.len(), doc.paths().len(), "{what}: every path is some node's");

    if reparse {
        let parsed = parse_document(&writer::write_document(doc, &writer::WriteOptions::compact()))
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(parsed.paths(), doc.paths(), "{what}: parsed path table");
        assert!(doc.all_nodes().all(|n| parsed.path_id(n) == doc.path_id(n)), "{what}: kinds");
    }
    let index = InvertedIndex::build(doc);
    let mut bytes = Vec::new();
    xsact_index::save_image(doc, &index, &mut bytes).unwrap();
    let (loaded, loaded_index) =
        xsact_index::load_image(&mut bytes.as_slice(), None, &mut Vec::new()).unwrap();
    assert_eq!(loaded.paths(), doc.paths(), "{what}: loaded path table");
    assert_eq!(loaded, *doc, "{what}");
    let mut again = Vec::new();
    xsact_index::save_image(&loaded, &loaded_index, &mut again).unwrap();
    assert!(again == bytes, "{what}: save → load → save moved a byte");
}

#[test]
fn a_nodes_kind_is_its_tag_path_on_random_and_generated_documents() {
    for seed in 0..64u64 {
        let doc = random_document(&mut StdRng::seed_from_u64(seed));
        assert_paths_match_the_oracle(&doc, true, &format!("seed {seed}"));
        // Mixed content, attributes, `k:v` names and several text runs.
        let doc = feature_document(&mut StdRng::seed_from_u64(seed));
        assert_paths_match_the_oracle(&doc, false, &format!("feature seed {seed}"));
    }
    use xsact::data::{
        JobsGen, JobsGenConfig, MovieGenConfig, MoviesGen, OutdoorGen, OutdoorGenConfig,
        ReviewsGen, ReviewsGenConfig,
    };
    assert_paths_match_the_oracle(&xsact::data::fixtures::figure1_document(), true, "figure1");
    for seed in 0..4u64 {
        let movies = MovieGenConfig { seed, movies: 40, ..Default::default() };
        assert_paths_match_the_oracle(&MoviesGen::new(movies).generate(), true, "movies");
        let reviews = ReviewsGen::new(ReviewsGenConfig { seed, ..Default::default() });
        assert_paths_match_the_oracle(&reviews.generate(), true, "reviews");
        let outdoor = OutdoorGen::new(OutdoorGenConfig { seed, ..Default::default() });
        assert_paths_match_the_oracle(&outdoor.generate(), true, "outdoor");
        let jobs = JobsGen::new(JobsGenConfig { seed, ..Default::default() });
        assert_paths_match_the_oracle(&jobs.generate(), true, "jobs");
    }
}

// -------------------------------------------- packed postings, id intervals
//
// Postings are delta-bit-packed 128-entry frames, the SLCA stream carries
// candidates as node ids, and the scorer counts a subtree's postings as an
// id range on the frames. None of that may be observable: iteration equals
// the flat decode, the stream equals the full-scan SLCA, and the scores
// equal those of a scorer that walks the tree.

#[test]
fn packed_postings_iteration_matches_flat_decode() {
    for seed in 0..64u64 {
        let doc = random_document(&mut StdRng::seed_from_u64(seed));
        let idx = InvertedIndex::build(&doc);
        for (term, p) in idx.dictionary() {
            let flat = p.to_vec();
            assert_eq!(p.len(), flat.len(), "seed {seed} term {term:?}");
            let iterated: Vec<NodeId> = p.iter().collect();
            assert_eq!(iterated, flat, "seed {seed} term {term:?}: iteration diverges");
            for (i, &n) in flat.iter().enumerate() {
                assert_eq!(p.get(i), n, "seed {seed} term {term:?} position {i}");
            }
        }
    }
}

/// The ranking as its definition reads, on the [`TreeOracle`]: a term's
/// frequency is the number of its postings found by walking the root's
/// subtree, the subtree's size is the length of that walk, ties go to the
/// smaller Dewey path — and the float pipeline is `rank.rs`'s, operation
/// for operation, so scores must agree bit for bit.
fn reference_ranking(
    doc: &Document,
    idx: &InvertedIndex,
    query: &Query,
    roots: &[NodeId],
) -> Vec<ScoredResult> {
    let tree = TreeOracle::of(doc);
    let elements = doc.element_count().max(1) as f64;
    let terms: Vec<(Vec<bool>, f64)> = query
        .iter()
        .map(|term| idx.postings(term))
        .filter(|postings| !postings.is_empty())
        .map(|postings| {
            let mut posted = vec![false; doc.len()];
            for n in postings {
                posted[n.index()] = true;
            }
            (posted, (1.0 + elements / postings.len() as f64).ln())
        })
        .collect();
    let mut scored: Vec<ScoredResult> = roots
        .iter()
        .map(|&root| {
            let subtree = tree.subtree(root);
            let (mut term_hits, mut score) = (0u32, 0.0);
            for (posted, idf) in &terms {
                let tf = subtree.iter().filter(|n| posted[n.index()]).count() as u32;
                term_hits += tf;
                if tf > 0 {
                    score += (1.0 + f64::from(tf)).ln() * idf;
                }
            }
            let subtree_size = subtree.len() as u32;
            score /= (std::f64::consts::E + f64::from(subtree_size)).ln();
            ScoredResult { root, score, term_hits, subtree_size }
        })
        .collect();
    scored.sort_by(|a, b| {
        let path = |s: &ScoredResult| &tree.paths[s.root.index()];
        b.score.total_cmp(&a.score).then_with(|| path(a).cmp(path(b)))
    });
    scored
}

#[test]
fn scorer_fast_path_matches_flat_fallback_rankings() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_document(&mut rng);
        let idx = InvertedIndex::build(&doc);
        let query = random_query(&mut rng);
        let roots: Vec<NodeId> = doc.all_nodes().filter(|&n| doc.is_element(n)).collect();
        let fast = rank_results(&doc, &idx, &query, &roots);
        let slow = reference_ranking(&doc, &idx, &query, &roots);
        assert_eq!(fast, slow, "seed {seed} query {query}: range-count scorer diverges");
    }
}

/// Keyword vocabulary of [`catalog_document`]; small, so every term's
/// posting list spans several 128-entry frames.
const KEYWORDS: [&str; 6] = ["k0", "k1", "k2", "k3", "k4", "k5"];

fn random_keywords(rng: &mut StdRng) -> String {
    let n = rng.random_range(1..=3usize);
    let words: Vec<&str> = (0..n).map(|_| KEYWORDS[rng.random_range(0..KEYWORDS.len())]).collect();
    words.join(" ")
}

/// One `<item>` entity: keyword-bearing leaves plus, sometimes, a `<group>`
/// of nested `<item>` entities — so SLCAs land at every depth and master
/// entities nest.
fn add_item(doc: &mut Document, rng: &mut StdRng, parent: NodeId, depth: usize) {
    let item = doc.add_element(parent, "item");
    doc.add_leaf(item, "name", random_keywords(rng));
    if rng.random_bool(0.6) {
        doc.add_leaf(item, "note", random_keywords(rng));
    }
    if depth > 0 && rng.random_bool(0.35) {
        let group = doc.add_element(item, "group");
        for _ in 0..rng.random_range(1..=3usize) {
            add_item(doc, rng, group, depth - 1);
        }
    }
}

/// A catalog of a few hundred (nested) items.
fn catalog_document(rng: &mut StdRng) -> Document {
    let mut doc = Document::new("catalog");
    let root = doc.root();
    for _ in 0..rng.random_range(150..400usize) {
        add_item(&mut doc, rng, root, 2);
    }
    doc
}

/// 1–4 distinct catalog keywords.
fn catalog_query(rng: &mut StdRng) -> Query {
    let n = rng.random_range(1..=4usize);
    let start = rng.random_range(0..KEYWORDS.len());
    let terms: Vec<&str> = (0..n).map(|i| KEYWORDS[(start + i) % KEYWORDS.len()]).collect();
    Query::parse(&terms.join(" "))
}

/// Runs `query` through the index's plan and through the full-scan oracle
/// over the decoded lists, and checks that the streams agree.
fn assert_streams_agree(doc: &Document, idx: &InvertedIndex, query: &Query, what: &str) {
    let decoded: Vec<Vec<NodeId>> = query.iter().map(|t| idx.postings(t).to_vec()).collect();
    let lists: Vec<&[NodeId]> = decoded.iter().map(Vec::as_slice).collect();
    let oracle = slca_full_scan(doc, &lists);
    let plan = QueryPlan::new(idx, query);
    let mut stream = plan.stream(doc);
    let streamed: Vec<NodeId> = stream.by_ref().collect();
    assert_eq!(streamed, oracle, "{what}, query {query}: planned stream vs full scan");
    assert_eq!(stream.stats().postings_scanned, plan.driver_len() as u64, "{what}, query {query}");
    assert_conserved(stream.stats(), streamed.len(), &format!("{what}, query {query}"));
}

#[test]
fn interval_stream_matches_the_full_scan_on_multi_frame_catalogs() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = catalog_document(&mut rng);
        let idx = InvertedIndex::build(&doc);
        assert!(idx.postings("k0").len() > 128, "seed {seed}: lists must span frames");
        for _ in 0..4 {
            assert_streams_agree(&doc, &idx, &catalog_query(&mut rng), &format!("seed {seed}"));
        }
        // The small random trees too: tag-name terms, repeated sibling
        // tags, and the zero-postings short circuit.
        let small = random_document(&mut rng);
        let small_idx = InvertedIndex::build(&small);
        assert_streams_agree(&small, &small_idx, &random_query(&mut rng), &format!("seed {seed}"));
    }
}

/// Promotion computed independently of the engine: each match climbs to
/// its nearest entity ancestor-or-self by [`StructureSummary::class_of`]
/// (the root always classifies as one), and a `HashSet` keeps the first
/// match of each root. Sorted by root, as `search_all` returns results.
fn oracle_promotions(doc: &Document, matches: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let summary = StructureSummary::infer(doc);
    let mut seen = HashSet::new();
    let mut promoted = Vec::new();
    for &m in matches {
        let mut root = m;
        while summary.class_of(doc, root) != NodeClass::Entity {
            root = doc.parent(root).expect("the root is an entity");
        }
        if seen.insert(root) {
            promoted.push((root, m));
        }
    }
    promoted.sort_by_key(|&(root, _)| root);
    promoted
}

/// `search_all`'s promoted `(root, match)` pairs and pruned count equal
/// the oracle's over the full-scan SLCA match set.
fn assert_promotions_match_the_oracle(engine: &SearchEngine, query: &Query, what: &str) {
    let doc = engine.document();
    let decoded: Vec<Vec<NodeId>> =
        query.iter().map(|t| engine.index().postings(t).to_vec()).collect();
    let lists: Vec<&[NodeId]> = decoded.iter().map(Vec::as_slice).collect();
    let oracle = oracle_promotions(doc, &slca_full_scan(doc, &lists));
    let (results, stats) = engine.search_all(query, None);
    let pairs: Vec<_> = results.into_iter().map(|r| (r.root, r.slca)).collect();
    assert_eq!(pairs, oracle, "{what}, query {query}: SLCA promotions");
    // Stream prunes are postings scanned minus SLCAs; promotion prunes are
    // SLCAs minus distinct roots.
    assert_eq!(
        stats.candidates_pruned,
        stats.postings_scanned - oracle.len() as u64,
        "{what}, query {query}: SLCA pruned"
    );
}

#[test]
fn promotion_matches_an_independent_hash_set_oracle() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Nested `item` entities: a later match can promote to an entity
        // that encloses an earlier, already promoted one.
        let catalog = SearchEngine::build(catalog_document(&mut rng));
        for _ in 0..2 {
            let query = catalog_query(&mut rng);
            assert_promotions_match_the_oracle(&catalog, &query, &format!("seed {seed}"));
        }
        let small = SearchEngine::build(random_document(&mut rng));
        let query = random_query(&mut rng);
        assert_promotions_match_the_oracle(&small, &query, &format!("seed {seed}, random"));
    }
}

#[test]
fn cached_range_counts_rank_like_the_fallback_for_roots_in_any_order() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = catalog_document(&mut rng);
        let idx = InvertedIndex::build(&doc);
        let mut roots: Vec<NodeId> = doc.all_nodes().filter(|&n| doc.is_element(n)).collect();
        // Fisher–Yates: the scorer's one-frame caches must not depend on
        // roots arriving in document order.
        for i in (1..roots.len()).rev() {
            roots.swap(i, rng.random_range(0..=i));
        }
        let query = catalog_query(&mut rng);
        let fast = rank_results(&doc, &idx, &query, &roots);
        let slow = reference_ranking(&doc, &idx, &query, &roots);
        assert_eq!(fast, slow, "seed {seed} query {query}: interval scorer diverges");
    }
}

// ------------------------------------------ feature extraction vs oracle
//
// The library's extractor is one walk keyed by `(owner path, leaf path,
// attribute name)` with values borrowed from the document. The two-pass
// extractor it replaced — find the instances, then walk each one carrying
// its attribute path as a `Vec` of segments, aggregate in nested hash maps
// — lives on here, as the oracle the whole `ResultFeatures` is pinned to.

/// One segment of an attribute path in the oracle's walk.
#[derive(Debug, Clone, Copy)]
enum Seg {
    /// A child element step (`pros`).
    Tag(Sym),
    /// An XML attribute on the instance itself (`@sku`).
    RootAttr(Sym),
    /// An XML attribute on a nested element (`best_use@lang`).
    TagAttr(Sym, Sym),
}

fn render_segs(doc: &Document, segs: &[Seg]) -> String {
    let name = |sym: Sym| doc.interner().resolve(sym);
    let rendered: Vec<String> = segs
        .iter()
        .map(|seg| match *seg {
            Seg::Tag(tag) => name(tag).to_owned(),
            Seg::RootAttr(attr) => format!("@{}", name(attr)),
            Seg::TagAttr(tag, attr) => format!("{}@{}", name(tag), name(attr)),
        })
        .collect();
    rendered.join(":")
}

/// The path string of an instance: its own for elements, the nearest
/// ancestor element's for text runs.
fn oracle_instance_entity(doc: &Document, summary: &StructureSummary, node: NodeId) -> String {
    let mut cur = Some(node);
    while let Some(n) = cur {
        if let Some(path) = doc.path_id(n) {
            return summary.path_display(path).to_owned();
        }
        cur = doc.parent(n);
    }
    unreachable!("every node lies below the root element")
}

/// The instances `root` holds: itself and every entity-class element below.
fn oracle_instances<'d>(
    doc: &'d Document,
    summary: &'d StructureSummary,
    root: NodeId,
) -> impl Iterator<Item = NodeId> + 'd {
    doc.descendants(root).filter(move |&node| {
        node == root || (doc.is_element(node) && summary.class_of(doc, node) == NodeClass::Entity)
    })
}

/// The two-pass extractor, as the library had it before the one-walk
/// rewrite: same instance rule, same stop at nested entities, same
/// normalisation, aggregation by rendered strings.
fn oracle_features(
    doc: &Document,
    summary: &StructureSummary,
    root: NodeId,
    label: &str,
) -> ResultFeatures {
    let instances: Vec<NodeId> = oracle_instances(doc, summary, root).collect();
    let mut entity_instances: HashMap<String, u32> = HashMap::new();
    let mut triplets: Vec<(FeatureType, String, u32)> = Vec::new();
    for &instance in &instances {
        let entity = oracle_instance_entity(doc, summary, instance);
        *entity_instances.entry(entity.clone()).or_insert(0) += 1;
        let mut record = |segs: &[Seg], value: &str| {
            let ty = FeatureType::new(entity.as_str(), render_segs(doc, segs));
            triplets.push((ty, value.to_owned(), 1));
        };
        let mut stack: Vec<(NodeId, Vec<Seg>)> = vec![(instance, Vec::new())];
        while let Some((node, attr_path)) = stack.pop() {
            for (name, value) in doc.attrs_syms(node) {
                let mut segs = attr_path.clone();
                let leaf_seg = match segs.pop() {
                    Some(Seg::Tag(tag)) => Seg::TagAttr(tag, name),
                    Some(other) => unreachable!("attr path ends in a tag segment, got {other:?}"),
                    None => Seg::RootAttr(name),
                };
                segs.push(leaf_seg);
                record(&segs, value);
            }
            if doc.is_leaf_element(node) && node != instance {
                let text = doc.text_content(node).split_whitespace().collect::<Vec<_>>().join(" ");
                if !text.is_empty() {
                    record(&attr_path, &text);
                }
                continue;
            }
            for child in doc.child_elements(node) {
                if summary.class_of(doc, child) == NodeClass::Entity {
                    continue;
                }
                let mut child_path = attr_path.clone();
                child_path.push(Seg::Tag(doc.tag_sym(child).expect("element child")));
                stack.push((child, child_path));
            }
        }
    }
    ResultFeatures::from_raw(label, entity_instances, triplets)
}

/// Tags of the feature trees. `k:v` is one legal XML name that renders like
/// the path `k` → `v`, so two distinct paths can meet in one feature type.
const FEATURE_TAGS: [&str; 8] = ["item", "group", "name", "note", "kind", "k", "v", "k:v"];
const FEATURE_ATTRS: [&str; 3] = ["id", "lang", "k"];
/// Clean, padded, multi-space, whitespace-only, empty, tabbed, no-break
/// space (Unicode whitespace that is not `' '`) and non-ASCII values.
const FEATURE_VALUES: [&str; 12] = [
    "yes",
    "no",
    "4.2",
    " 4.2\n ",
    "a b",
    "a  b",
    "   ",
    "",
    "tab\tsep",
    "a\u{a0}b",
    "caf\u{e9}",
    "\u{ff59}\u{ff45}\u{ff53}",
];

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.random_range(0..pool.len())]
}

/// Adds one element under `parent`: sometimes with XML attributes; a leaf
/// with zero, one or several text runs, or an internal node whose children
/// may be interleaved with text (mixed content).
fn add_feature_element(doc: &mut Document, rng: &mut StdRng, parent: NodeId, depth: usize) {
    let mut attrs: Vec<(String, String)> = Vec::new();
    for name in FEATURE_ATTRS {
        if rng.random_bool(0.2) {
            attrs.push((name.to_owned(), pick(rng, &FEATURE_VALUES).to_owned()));
        }
    }
    let el = doc.add_element(parent, pick(rng, &FEATURE_TAGS));
    for (name, value) in attrs {
        doc.set_attr(el, name, value);
    }
    if depth == 0 || rng.random_bool(0.45) {
        for _ in 0..[0, 1, 1, 1, 2, 3][rng.random_range(0..6usize)] {
            doc.add_text(el, pick(rng, &FEATURE_VALUES));
        }
        return;
    }
    for _ in 0..rng.random_range(1..5usize) {
        if rng.random_bool(0.15) {
            doc.add_text(el, pick(rng, &FEATURE_VALUES));
        }
        add_feature_element(doc, rng, el, depth - 1);
    }
}

/// A random tree for the extractor.
fn feature_document(rng: &mut StdRng) -> Document {
    let mut doc = Document::new("shop");
    let root = doc.root();
    for _ in 0..rng.random_range(2..5usize) {
        add_feature_element(&mut doc, rng, root, 3);
    }
    doc
}

/// Extractor ≡ oracle on every node of `doc` as a result root — elements of
/// every class and text runs alike: label, stats order, values order,
/// counts, and each stat's instances of its entity.
fn assert_extractor_matches_oracle(doc: &Document, what: &str) {
    let summary = StructureSummary::infer(doc);
    for root in doc.all_nodes() {
        let got = extract_features(doc, &summary, root, "r");
        let want = oracle_features(doc, &summary, root, "r");
        assert_eq!(got, want, "{what}, root {}", doc.dewey(root));
        let entities: Vec<String> = oracle_instances(doc, &summary, root)
            .map(|instance| oracle_instance_entity(doc, &summary, instance))
            .collect();
        for stat in got.stats() {
            let instances = entities.iter().filter(|e| *e == stat.entity()).count() as u32;
            assert_eq!(instances, stat.entity_instances(), "{what}");
        }
    }
}

#[test]
fn one_walk_extractor_matches_the_two_pass_oracle_on_random_trees() {
    let (mut leaf_entities, mut plain_roots, mut text_roots, mut multi_run_leaves) = (0, 0, 0, 0);
    for seed in 0..64u64 {
        let doc = feature_document(&mut StdRng::seed_from_u64(seed));
        assert_extractor_matches_oracle(&doc, &format!("seed {seed}"));

        // The generator must keep producing the shapes this test is for.
        let summary = StructureSummary::infer(&doc);
        for node in doc.all_nodes() {
            let entity = summary.class_of(&doc, node) == NodeClass::Entity;
            text_roots += usize::from(!doc.is_element(node));
            plain_roots += usize::from(doc.is_element(node) && !entity);
            leaf_entities += usize::from(entity && doc.is_leaf_element(node));
            multi_run_leaves +=
                usize::from(doc.is_leaf_element(node) && doc.children(node).count() > 1);
        }
    }
    assert!(leaf_entities > 0 && plain_roots > 0 && text_roots > 0 && multi_run_leaves > 0);
}

#[test]
fn one_walk_extractor_matches_the_two_pass_oracle_on_every_dataset_node() {
    use xsact_data::{fixtures, JobsGen, MoviesGen, OutdoorGen, ReviewsGen};
    let datasets = [
        ("figure1", fixtures::figure1_document()),
        ("movies", MoviesGen::default_gen().generate()),
        ("reviews", ReviewsGen::default_gen().generate()),
        ("outdoor", OutdoorGen::default_gen().generate()),
        ("jobs", JobsGen::default_gen().generate()),
    ];
    for (name, doc) in &datasets {
        assert_extractor_matches_oracle(doc, name);
    }
}

/// `<k:v>` is one element, `<k><v>` two, and both render as `k:v`: the two
/// paths are one feature type, as they were for the oracle, on either side
/// of a nested entity boundary.
#[test]
fn paths_that_render_alike_are_one_feature_type() {
    let doc = parse_document(
        "<shop>\
           <item><k:v>yes</k:v><k><v lang='en'>no</v></k>\
             <group><k:v>no</k:v><k><v>no</v></k><k:v>yes</k:v><name>g</name></group>\
             <group><k:v>yes</k:v></group></item>\
           <item><k:v>no</k:v></item>\
         </shop>",
    )
    .unwrap();
    assert_extractor_matches_oracle(&doc, "colliding names");
    let summary = StructureSummary::infer(&doc);
    let item = doc.child_by_tag(doc.root(), "item").unwrap();
    let rf = extract_features(&doc, &summary, item, "i");
    let of_item = rf.get(&FeatureType::new("shop/item", "k:v")).expect("one merged type");
    assert_eq!((of_item.occurrences(), of_item.values().len()), (2, 2));
    let of_group = rf.get(&FeatureType::new("shop/item/group", "k:v")).expect("one merged type");
    assert_eq!((of_group.occurrences(), of_group.dominant().1), (4, 2));
    for stat in [of_item, of_group] {
        let same_type =
            |s: &Stat<'_>| (s.entity(), s.attribute()) == (stat.entity(), stat.attribute());
        assert_eq!(rf.stats().filter(same_type).count(), 1, "{stat:?}");
    }
}

// ------------------------------------------- comparison instance vs oracle
//
// `Instance::build` reads prepared features: it finds the distinct types by
// probing on a content hash, lays cells out flat and decides most of the
// differentiability matrix from two fixed-size records. The build it
// replaced — `BTreeSet`s of strings, a binary search per stat, a value list
// sorted per stat and per build, one `Vec` per result and field — lives on
// here as the oracle everything observable is pinned to.

/// One display cell of the oracle (the library's `CellStat`, owned).
#[derive(Debug, Clone, PartialEq)]
struct OracleCell {
    value: String,
    ratio: f64,
    count: u32,
    instances: u32,
    sig_ratio: f64,
}

#[derive(Debug)]
struct OracleResult {
    label: String,
    ranked: Vec<Vec<usize>>,
    cells: Vec<Option<OracleCell>>,
    rank_of: Vec<Option<(usize, usize)>>,
}

#[derive(Debug)]
struct OracleInstance {
    types: Vec<FeatureType>,
    entities: Vec<String>,
    entity_of: Vec<usize>,
    results: Vec<OracleResult>,
    /// `diff[i][j][t]`.
    diff: Vec<Vec<Vec<bool>>>,
}

/// The single value as a number — finite only: `nan`, `inf` and `1e400`
/// parse as floats but are text (the one rule the oracle does not take
/// from the old build, which let them through).
fn oracle_numeric(stat: Stat<'_>) -> Option<f64> {
    match stat.values().collect::<Vec<_>>().as_slice() {
        [(only, _)] => only.trim().parse::<f64>().ok().filter(|v| v.is_finite()),
        _ => None,
    }
}

fn oracle_ratio(count: u32, instances: u32) -> f64 {
    if instances == 0 {
        0.0
    } else {
        f64::from(count) / f64::from(instances)
    }
}

fn oracle_ratios_differ(pa: f64, pb: f64, threshold_pct: f64) -> bool {
    (pa - pb).abs() > (threshold_pct / 100.0) * pa.min(pb)
}

/// The differentiability test as the paper states it: the numeric rule,
/// else some value of the union whose occurrence ratios differ.
fn oracle_stats_differ(a: Stat<'_>, b: Stat<'_>, threshold_pct: f64) -> bool {
    if let (Some(na), Some(nb)) = (oracle_numeric(a), oracle_numeric(b)) {
        return (na - nb).abs() > (threshold_pct / 100.0) * na.abs().min(nb.abs());
    }
    let union: BTreeSet<&str> = a.values().chain(b.values()).map(|(value, _)| value).collect();
    let ratio_in = |stat: Stat<'_>, value: &str| {
        stat.values()
            .find(|&(v, _)| v == value)
            .map_or(0.0, |(_, count)| oracle_ratio(count, stat.entity_instances()))
    };
    union.into_iter().any(|v| oracle_ratios_differ(ratio_in(a, v), ratio_in(b, v), threshold_pct))
}

/// The string-keyed instance build.
fn oracle_instance(results: &[ResultFeatures], config: DfsConfig) -> OracleInstance {
    let mut entity_set: BTreeSet<&str> = BTreeSet::new();
    let mut type_set: BTreeSet<FeatureType> = BTreeSet::new();
    for stat in results.iter().flat_map(|rf| rf.stats()) {
        entity_set.insert(stat.entity());
        type_set.insert(FeatureType::new(stat.entity(), stat.attribute()));
    }
    let entities: Vec<String> = entity_set.into_iter().map(str::to_owned).collect();
    let types: Vec<FeatureType> = type_set.into_iter().collect();
    let entity_idx = |path: &str| entities.binary_search_by(|e| e.as_str().cmp(path)).unwrap();
    let entity_of: Vec<usize> = types.iter().map(|t| entity_idx(&t.entity)).collect();

    let mut stats_by_type: Vec<Vec<Option<Stat<'_>>>> = Vec::new();
    let mut oracle_results = Vec::new();
    for rf in results {
        let mut ranked: Vec<Vec<usize>> = vec![Vec::new(); entities.len()];
        let mut cells: Vec<Option<OracleCell>> = vec![None; types.len()];
        let mut rank_of: Vec<Option<(usize, usize)>> = vec![None; types.len()];
        let mut by_type: Vec<Option<Stat<'_>>> = vec![None; types.len()];
        for stat in rf.stats() {
            let t =
                types.binary_search(&FeatureType::new(stat.entity(), stat.attribute())).unwrap();
            let e = entity_idx(stat.entity());
            rank_of[t] = Some((e, ranked[e].len()));
            ranked[e].push(t);
            by_type[t] = Some(stat);
            let (value, count) = stat.dominant();
            cells[t] = Some(OracleCell {
                value: value.to_owned(),
                ratio: oracle_ratio(count, stat.entity_instances()),
                count,
                instances: stat.entity_instances(),
                sig_ratio: oracle_ratio(stat.occurrences(), stat.entity_instances()),
            });
        }
        stats_by_type.push(by_type);
        let label = rf.label().to_owned();
        oracle_results.push(OracleResult { label, ranked, cells, rank_of });
    }

    let n = results.len();
    let mut diff = vec![vec![vec![false; types.len()]; n]; n];
    for i in 0..n {
        for j in 0..n {
            for t in 0..types.len() {
                if let (true, Some(a), Some(b)) = (i != j, stats_by_type[i][t], stats_by_type[j][t])
                {
                    diff[i][j][t] = oracle_stats_differ(a, b, config.threshold_pct);
                }
            }
        }
    }
    OracleInstance { types, entities, entity_of, results: oracle_results, diff }
}

/// Everything observable of `inst` equals the oracle's.
fn assert_instance_matches_oracle(inst: &Instance, features: &[ResultFeatures], what: &str) {
    let want = oracle_instance(features, inst.config);
    let (n, m) = (features.len(), want.types.len());
    assert_eq!(inst.types, want.types, "{what}: types");
    assert_eq!(inst.entities, want.entities, "{what}: entities");
    assert_eq!(inst.entity_of, want.entity_of, "{what}: entity_of");
    assert_eq!((inst.result_count(), inst.type_count()), (n, m), "{what}: shape");
    assert!(inst.labels().eq(want.results.iter().map(|r| r.label.as_str())), "{what}: labels");
    let words = m.div_ceil(64);
    assert_eq!(inst.words_per_row(), words, "{what}: words per row");
    assert_eq!(inst.bitmatrix_bytes(), n * n * words * 8, "{what}: bit matrix bytes");
    for (i, result) in want.results.iter().enumerate() {
        let ranked: Vec<Vec<usize>> = inst.ranked_lists(i).map(<[_]>::to_vec).collect();
        assert_eq!(ranked, result.ranked, "{what}: ranked lists of {i}");
        for (e, list) in result.ranked.iter().enumerate() {
            assert_eq!(inst.ranked(i, e), list.as_slice(), "{what}: ranked({i}, {e})");
        }
        assert_eq!(
            inst.type_count_of(i),
            result.cells.iter().flatten().count(),
            "{what}: type count of {i}"
        );
        for t in 0..m {
            let cell = inst.cell(i, t).map(|c| OracleCell {
                value: c.value.to_owned(),
                ratio: c.ratio,
                count: c.count,
                instances: c.instances,
                sig_ratio: c.sig_ratio,
            });
            assert_eq!(cell, result.cells[t], "{what}: cell({i}, {t})");
            assert_eq!(inst.rank_of(i, t), result.rank_of[t], "{what}: rank_of({i}, {t})");
        }
        for j in 0..n {
            let mut row = vec![0u64; words];
            for t in (0..m).filter(|&t| want.diff[i][j][t]) {
                row[t / 64] |= 1 << (t % 64);
            }
            assert_eq!(inst.diff_row(i, j), row.as_slice(), "{what}: diff_row({i}, {j})");
        }
        let potentials: Vec<u32> =
            (0..m).map(|t| (0..n).filter(|&j| want.diff[i][j][t]).count() as u32).collect();
        assert_eq!(inst.potentials(i), potentials.as_slice(), "{what}: potentials({i})");
    }
}

/// A result before it is a `ResultFeatures`: what `from_raw` takes, kept so
/// one set can be built under several hash functions.
#[derive(Debug, Clone)]
struct RawResult {
    label: String,
    entity_instances: Vec<(String, u32)>,
    triplets: Vec<(FeatureType, String, u32)>,
}

impl RawResult {
    fn build(&self, hash: Option<fn(&str) -> u64>) -> ResultFeatures {
        let (label, instances, triplets) =
            (self.label.clone(), self.entity_instances.clone(), self.triplets.clone());
        match hash {
            None => ResultFeatures::from_raw(label, instances, triplets),
            Some(hash) => ResultFeatures::from_raw_hashed(label, instances, triplets, hash),
        }
    }
}

/// Entity and attribute names of the raw sets. `k`, `v` and `k:v` collide
/// once joined (PR 14): type `(k, v)` is not type `(k:v, …)` is not
/// attribute `k:v` of another entity.
const RAW_ENTITIES: [&str; 6] = ["shop/item", "shop/item/k", "k", "k:v", "v", "shop/item/k:v"];
const RAW_ATTRS: [&str; 8] = ["name", "k", "v", "k:v", "v@k", "kind", "rating", "title"];
/// Text, finite numbers (some within 10 % of each other), and text that
/// `str::parse::<f64>` takes for a number.
const RAW_VALUES: [&str; 18] = [
    "yes",
    "no",
    "4.2",
    "4.1",
    "2.0",
    "1984",
    "1e3",
    "1000",
    "Nan",
    "nan",
    "inf",
    "Infinity",
    "-inf",
    "1e400",
    "1e500",
    "n/a",
    "caf\u{e9}",
    "\u{2014}",
];
const RAW_LABELS: [&str; 4] =
    ["plain", "Am\u{e9}lie", "\u{4e03}\u{4eba}\u{306e}\u{4f8d}", "a \u{2014} b"];

/// The shapes a raw set is drawn in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RawShape {
    /// A few results over a small shared vocabulary.
    Mixed,
    /// Every result has its own entity: no type is shared.
    Disjoint,
    /// One result only.
    Single,
    /// Well over 64 types: two-word bit rows.
    Wide,
}

fn raw_feature_set(rng: &mut StdRng, shape: RawShape) -> Vec<RawResult> {
    let result_count = match shape {
        RawShape::Single => 1,
        RawShape::Wide => rng.random_range(2..5usize),
        _ => rng.random_range(2..7usize),
    };
    raw_results(rng, shape, result_count)
}

/// `result_count` raw results drawn in `shape`.
fn raw_results(rng: &mut StdRng, shape: RawShape, result_count: usize) -> Vec<RawResult> {
    let wide_attrs: Vec<String> = (0..30).map(|a| format!("a{a}")).collect();
    (0..result_count)
        .map(|r| {
            let entities: Vec<String> = match shape {
                RawShape::Disjoint => vec![format!("own/e{r}")],
                _ => RAW_ENTITIES.iter().map(|e| e.to_string()).collect(),
            };
            let mut attrs: Vec<&str> = RAW_ATTRS.to_vec();
            if shape == RawShape::Wide {
                attrs.extend(wide_attrs.iter().map(String::as_str));
            }
            let present = if shape == RawShape::Wide { 0.8 } else { 0.5 };
            let mut triplets = Vec::new();
            for entity in &entities {
                for attr in &attrs {
                    if !rng.random_bool(present) {
                        continue;
                    }
                    let ty = FeatureType::new(entity.as_str(), *attr);
                    // Mostly one value; sometimes several, drawn with
                    // repeats and from few counts, so values tie.
                    let values = if rng.random_bool(0.7) { 1 } else { rng.random_range(2..6usize) };
                    for _ in 0..values {
                        let count = rng.random_range(1..4u32);
                        triplets.push((ty.clone(), pick(rng, &RAW_VALUES).to_owned(), count));
                    }
                }
            }
            // An entity without a count has zero instances: every ratio 0.
            let entity_instances = entities
                .iter()
                .filter_map(|e| {
                    let instances = [1, 1, 2, 10, 11][rng.random_range(0..5usize)];
                    rng.random_bool(0.85).then(|| (e.clone(), instances))
                })
                .collect();
            let label = format!("{} {r}", pick(rng, &RAW_LABELS));
            RawResult { label, entity_instances, triplets }
        })
        .collect()
}

fn raw_shape(seed: u64) -> RawShape {
    [RawShape::Mixed, RawShape::Disjoint, RawShape::Single, RawShape::Wide][seed as usize % 4]
}

fn random_config(rng: &mut StdRng) -> DfsConfig {
    DfsConfig {
        size_bound: rng.random_range(1..9usize),
        threshold_pct: [0.0f64, 5.0, 10.0, 25.0][rng.random_range(0..4usize)],
    }
}

#[test]
fn instance_build_matches_the_string_keyed_oracle_on_random_sets() {
    let (mut wide, mut multi_valued, mut zero_instance, mut non_finite) = (0, 0, 0, 0);
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = raw_shape(seed);
        let features: Vec<ResultFeatures> =
            raw_feature_set(&mut rng, shape).iter().map(|raw| raw.build(None)).collect();
        let inst = Instance::build(&features, random_config(&mut rng));
        assert_instance_matches_oracle(&inst, &features, &format!("seed {seed} {shape:?}"));
        // Shared by pointer or owned, the features build one instance.
        let shared: Vec<Arc<ResultFeatures>> = features.iter().cloned().map(Arc::new).collect();
        let from_shared = Instance::build(&shared, inst.config);
        assert_instance_matches_oracle(&from_shared, &features, &format!("seed {seed} shared"));

        // The generator must keep producing the shapes this test is for.
        wide += usize::from(inst.words_per_row() > 1);
        for stat in features.iter().flat_map(|rf| rf.stats()) {
            let values: Vec<(&str, u32)> = stat.values().collect();
            multi_valued +=
                usize::from(values.len() > 1 && values.windows(2).any(|w| w[0].1 == w[1].1));
            zero_instance += usize::from(stat.entity_instances() == 0);
            non_finite += usize::from(
                values.len() == 1 && values[0].0.parse::<f64>().is_ok_and(|v| !v.is_finite()),
            );
        }
        if shape == RawShape::Disjoint {
            let shared_types = (0..inst.type_count())
                .filter(|&t| {
                    (0..inst.result_count()).filter(|&i| inst.cell(i, t).is_some()).count() > 1
                })
                .count();
            assert_eq!(shared_types, 0, "seed {seed}: disjoint results share a type");
            assert_eq!(xsact_core::dod_upper_bound(&inst), 0, "seed {seed}");
        }
    }
    assert!(wide > 0 && multi_valued > 0 && zero_instance > 0 && non_finite > 0);
}

/// `CorpusQuery::compare` builds one instance from features that different
/// documents' workbenches extracted: no id of one document means anything
/// in the other, and the instance must not care.
#[test]
fn instance_build_matches_the_oracle_on_cross_document_sets() {
    let mut cross_document_types = 0;
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let benches = [
            xsact::Workbench::from_document(feature_document(&mut rng)),
            xsact::Workbench::from_document(feature_document(&mut rng)),
        ];
        let mut features = Vec::new();
        for (d, wb) in benches.iter().enumerate() {
            // Roots near the top: subtrees big enough to have types, and
            // paths short enough to recur in the other document.
            let doc = wb.document();
            let mut elements: Vec<NodeId> = vec![doc.root()];
            elements.extend(doc.child_elements(doc.root()));
            for k in 0..rng.random_range(1..5usize) {
                let root = elements[rng.random_range(0..elements.len())];
                features.push((d, wb.subtree_features(root, format!("d{d} r{k}"))));
            }
        }
        let (origin, features): (Vec<usize>, Vec<ResultFeatures>) = features.into_iter().unzip();
        let inst = Instance::build(&features, random_config(&mut rng));
        assert_instance_matches_oracle(&inst, &features, &format!("seed {seed}"));
        cross_document_types += (0..inst.type_count())
            .filter(|&t| {
                let docs: BTreeSet<usize> = (0..features.len())
                    .filter(|&i| inst.cell(i, t).is_some())
                    .map(|i| origin[i])
                    .collect();
                docs.len() == 2
            })
            .count();
    }
    assert!(cross_document_types > 0, "no type was ever shared across the two documents");
}

#[test]
fn instance_build_matches_the_oracle_on_the_paper_pools() {
    use xsact_data::fixtures;
    // Figure 1 / Figure 2: snippets differentiate 2 feature types, XSACT 5.
    let wb = xsact::Workbench::from_document(fixtures::figure1_document());
    let pipeline = wb.query(fixtures::PAPER_QUERY).unwrap();
    let features = pipeline.features().unwrap();
    for (bound, algorithm, dod) in [
        (fixtures::SNIPPET_BOUND, Algorithm::Snippet, 2),
        (fixtures::TABLE_BOUND, Algorithm::MultiSwap, 5),
    ] {
        let inst =
            Instance::build(&features, DfsConfig { size_bound: bound, ..DfsConfig::default() });
        assert_instance_matches_oracle(&inst, &features, "figure 1");
        let (set, _) = run_algorithm(&inst, algorithm);
        assert_eq!(dod_total(&inst, &set), dod, "{}", algorithm.name());
    }

    for_each_pool_query(|query, pipeline| {
        let features = pipeline.features().unwrap();
        let inst = Instance::build(&features, POOL_CONFIG);
        assert_instance_matches_oracle(&inst, &features, query);
        // What the facade builds from the cache's `Arc`s is that instance.
        assert_instance_matches_oracle(pipeline.instance().unwrap(), &features, query);
    });
}

/// The bench's `compare_*` workloads time a comparison stage by stage: the
/// features, a second `Instance::build`, `run_algorithm`, `dod_total` and
/// `render_table`. On the paper pool that staged replay must produce what
/// `CorpusQuery::compare` does — the same DFSs, DoD and table bytes — or
/// the bench times something the product does not run.
#[test]
fn the_benchs_staged_replay_equals_the_product_comparison_on_the_paper_pool() {
    for_each_pool_query(|query, pipeline| {
        let inst = Instance::build(&pipeline.features().unwrap(), POOL_CONFIG);
        for algorithm in Algorithm::ALL {
            let what = format!("{query}: {}", algorithm.name());
            let outcome = pipeline.compare(algorithm).unwrap();
            let (set, _) = run_algorithm(&inst, algorithm);
            assert_eq!(outcome.set, set, "{what}: DFSs");
            assert_eq!(outcome.dod(), dod_total(&inst, &set), "{what}: DoD");
            assert_eq!(outcome.table(), render_table(&inst, &set), "{what}: table");
        }
    });
}

/// The configuration of the paper pool's comparisons.
const POOL_CONFIG: DfsConfig = DfsConfig { size_bound: 8, threshold_pct: 10.0 };

/// The paper pool, the Figure-4 shape: genre + keyword over the movie
/// dataset, the top 16 of each of the first 64 queries that have something
/// to compare, each handed to `f` with its query.
fn for_each_pool_query(mut f: impl FnMut(&str, &xsact::CorpusQuery<'_>)) {
    use xsact_data::{vocab, MoviesGen};
    let wb = xsact::Workbench::from_document(MoviesGen::default_gen().generate());
    let mut pool = 0;
    let queries =
        vocab::GENRES.iter().flat_map(|g| vocab::KEYWORDS.iter().map(move |k| format!("{g} {k}")));
    for query in queries {
        let pipeline = wb.query(&query).unwrap().ranked(true).take(16).size_bound(8);
        if pool == 64 || pipeline.selection().unwrap().len() < 2 {
            continue;
        }
        pool += 1;
        f(&query, &pipeline);
    }
    assert_eq!(pool, 64);
}

fn constant_hash(_: &str) -> u64 {
    0
}

/// Eight buckets for everything.
fn three_bit_hash(text: &str) -> u64 {
    text.bytes().fold(0u64, |h, b| h.wrapping_add(u64::from(b))) & 7
}

/// A content hash only picks where a lookup starts; what matches is decided
/// on the strings. So the worst hash there is — one bucket — and a nearly
/// as bad one must build the same instance and render the same tables.
#[test]
fn hashes_only_route_instances_and_tables_never_depend_on_them() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = raw_shape(seed);
        let raw = raw_feature_set(&mut rng, shape);
        let config = random_config(&mut rng);
        let build = |hash: Option<fn(&str) -> u64>| -> (Vec<ResultFeatures>, Instance) {
            let features: Vec<ResultFeatures> = raw.iter().map(|r| r.build(hash)).collect();
            let inst = Instance::build(&features, config);
            (features, inst)
        };
        let (features, inst) = build(None);
        for (name, hash) in [
            ("constant", constant_hash as fn(&str) -> u64),
            ("3-bit", three_bit_hash as fn(&str) -> u64),
        ] {
            let what = format!("seed {seed} {shape:?}, {name} hash");
            let (weak_features, weak) = build(Some(hash));
            assert_eq!(weak_features, features, "{what}: equality looks at the prepared form");
            assert_instance_matches_oracle(&weak, &features, &what);
            for algorithm in Algorithm::ALL {
                let (set, _) = run_algorithm(&inst, algorithm);
                let (weak_set, _) = run_algorithm(&weak, algorithm);
                assert_eq!(weak_set, set, "{what}: {} DFSs", algorithm.name());
                assert_eq!(
                    render_table(&weak, &weak_set),
                    render_table(&inst, &set),
                    "{what}: {} table",
                    algorithm.name()
                );
            }
        }
    }
}

// ----------------------------------------------------------- DFS algorithms

const ATTRS: [&str; 5] = ["p", "q", "r", "s", "t"];

/// A random instance at the sizes a served comparison runs: 2–16 results
/// (the comparison workloads take 16), over the six-entity vocabulary of
/// the raw sets or its wide form (two-word bit rows), with multi-valued
/// stats and zero-instance entities among them.
fn random_instance(rng: &mut StdRng) -> Instance {
    let (raw, config) = random_raw_instance(rng);
    let features: Vec<ResultFeatures> = raw.iter().map(|raw| raw.build(None)).collect();
    Instance::build(&features, config)
}

/// What [`random_instance`] builds its instance from.
fn random_raw_instance(rng: &mut StdRng) -> (Vec<RawResult>, DfsConfig) {
    let shape = if rng.random_bool(0.5) { RawShape::Mixed } else { RawShape::Wide };
    let result_count = rng.random_range(2..17usize);
    let raw = raw_results(rng, shape, result_count);
    let bound = rng.random_range(1..10usize);
    let threshold = [5.0f64, 10.0, 25.0][rng.random_range(0..3usize)];
    (raw, DfsConfig { size_bound: bound, threshold_pct: threshold })
}

/// Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// Features are compared by content, never by where their strings went:
/// the triplets of a result in another order make `==` features, and those
/// build the same instance and render the same tables.
#[test]
fn feature_equality_and_what_it_builds_are_independent_of_input_order() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (raw, config) = random_raw_instance(&mut rng);
        let features: Vec<ResultFeatures> = raw.iter().map(|r| r.build(None)).collect();
        let shuffled: Vec<ResultFeatures> = raw
            .iter()
            .map(|r| {
                let mut r = r.clone();
                shuffle(&mut r.triplets, &mut rng);
                shuffle(&mut r.entity_instances, &mut rng);
                r.build(None)
            })
            .collect();
        assert_eq!(shuffled, features, "seed {seed}");
        let (inst, again) =
            (Instance::build(&features, config), Instance::build(&shuffled, config));
        assert_instance_matches_oracle(&again, &features, &format!("seed {seed} shuffled"));
        assert_eq!(again.bitmatrix_bytes(), inst.bitmatrix_bytes());
        for algorithm in Algorithm::ALL {
            let (set, _) = run_algorithm(&inst, algorithm);
            let (again_set, _) = run_algorithm(&again, algorithm);
            assert_eq!(again_set, set, "seed {seed}: {} DFSs", algorithm.name());
            let table = render_table(&inst, &set);
            assert_eq!(
                render_table(&again, &again_set),
                table,
                "seed {seed}: {}",
                algorithm.name()
            );
        }
    }
}

#[test]
fn all_algorithms_produce_valid_sets() {
    for seed in 0..96u64 {
        let inst = random_instance(&mut StdRng::seed_from_u64(seed));
        for algo in Algorithm::ALL {
            let (set, _) = run_algorithm(&inst, algo);
            assert!(set.all_valid(&inst), "seed {seed}: {} violated validity", algo.name());
        }
    }
}

#[test]
fn local_searches_never_lose_to_snippets() {
    for seed in 0..96u64 {
        let inst = random_instance(&mut StdRng::seed_from_u64(seed));
        let (snippet, _) = run_algorithm(&inst, Algorithm::Snippet);
        let base = dod_total(&inst, &snippet);
        for algo in [Algorithm::SingleSwap, Algorithm::MultiSwap] {
            let (set, _) = run_algorithm(&inst, algo);
            assert!(dod_total(&inst, &set) >= base, "seed {seed}: {} lost to snippet", algo.name());
        }
    }
}

#[test]
fn single_swap_reaches_its_criterion() {
    for seed in 0..96u64 {
        let inst = random_instance(&mut StdRng::seed_from_u64(seed));
        let (set, _) = run_algorithm(&inst, Algorithm::SingleSwap);
        assert!(is_single_swap_optimal(&inst, &set), "seed {seed}");
    }
}

#[test]
fn multi_swap_reaches_its_criterion() {
    for seed in 0..96u64 {
        let inst = random_instance(&mut StdRng::seed_from_u64(seed));
        let (set, _) = run_algorithm(&inst, Algorithm::MultiSwap);
        assert!(is_multi_swap_optimal(&inst, &set), "seed {seed}");
        // Multi-swap optimality subsumes single-swap optimality.
        assert!(is_single_swap_optimal(&inst, &set), "seed {seed}");
    }
}

/// `dod_upper_bound` is `Σ_pairs min(L, popcount(diff_ij))`, and it stays
/// admissible: a DFS selects at most L types, so no algorithm's DoD — and
/// no exhaustive optimum, where the odometer enumerates — is ever above it.
/// Over 64 random instances, tiny ones the odometer always enumerates, and
/// the paper pool.
#[test]
fn the_upper_bound_caps_each_pair_at_l_and_is_never_below_any_dod() {
    let exhaustive = Algorithm::Exhaustive { limit: 20_000 };
    let mut enumerated = 0;
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let tiny = tiny_features(&mut rng);
        let tiny = Instance::build(
            &tiny,
            DfsConfig { size_bound: rng.random_range(0..4usize), ..DfsConfig::default() },
        );
        for inst in [random_instance(&mut rng), tiny] {
            let inst = Arc::new(inst);
            let bound = xsact_core::dod_upper_bound(&inst);
            let n = inst.result_count();
            let mut want = 0;
            for i in 0..n {
                for j in i + 1..n {
                    let row = inst.diff_row(i, j);
                    let differ = (0..inst.type_count()).filter(|&t| bits::test_bit(row, t)).count();
                    want += differ.min(inst.config.size_bound) as u32;
                }
            }
            assert_eq!(bound, want, "seed {seed}");
            for algorithm in Algorithm::ALL {
                let dod = compare(&inst, algorithm).unwrap().dod();
                assert!(dod <= bound, "seed {seed}: {} {dod} > {bound}", algorithm.name());
            }
            if let Ok(optimum) = compare(&inst, exhaustive) {
                enumerated += 1;
                assert!(optimum.dod() <= bound, "seed {seed}: optimum {} > {bound}", optimum.dod());
            }
        }
    }
    assert!(enumerated >= 64, "{enumerated} instances enumerated");
    for_each_pool_query(|query, pipeline| {
        for algorithm in Algorithm::ALL {
            let outcome = pipeline.compare(algorithm).unwrap();
            let (dod, bound) = (outcome.dod(), outcome.dod_upper_bound());
            assert!(dod <= bound, "{query}: {} {dod} > {bound}", algorithm.name());
        }
    });
}

#[test]
fn dod_is_symmetric_and_bounded() {
    for seed in 0..96u64 {
        let inst = random_instance(&mut StdRng::seed_from_u64(seed));
        let (set, _) = run_algorithm(&inst, Algorithm::MultiSwap);
        let n = inst.result_count();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                assert_eq!(
                    xsact_core::dod_pair(&inst, &set, i, j),
                    xsact_core::dod_pair(&inst, &set, j, i),
                    "seed {seed}"
                );
            }
        }
        assert!(dod_total(&inst, &set) <= xsact_core::dod_upper_bound(&inst), "seed {seed}");
    }
}

#[test]
fn dfs_sizes_respect_bound() {
    for seed in 0..96u64 {
        let inst = random_instance(&mut StdRng::seed_from_u64(seed));
        for algo in Algorithm::ALL {
            let (set, _) = run_algorithm(&inst, algo);
            for i in 0..set.len() {
                assert!(set.dfs(i).size() <= inst.config.size_bound, "seed {seed}");
            }
        }
    }
}

// ------------------------------------------------- bitset kernel vs oracle
//
// The DoD kernels are word-parallel popcount loops over the instance's bit
// matrix and the DfsSet's incrementally-maintained selection masks. The
// oracle below recomputes everything the seed way — `Vec<bool>` masks
// rebuilt from scratch and scalar triple loops — and must agree bit for bit
// after every mutation of a random grow/shrink/replace sequence.

fn oracle_masks(inst: &Instance, set: &xsact_core::DfsSet) -> Vec<Vec<bool>> {
    (0..set.len()).map(|i| set.dfs(i).selection_mask(inst, i)).collect()
}

fn oracle_dod_total(inst: &Instance, masks: &[Vec<bool>]) -> u32 {
    let n = masks.len();
    let mut total = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            total += (0..inst.type_count())
                .filter(|&t| masks[i][t] && masks[j][t] && bits::test_bit(inst.diff_row(i, j), t))
                .count() as u32;
        }
    }
    total
}

fn oracle_weights(inst: &Instance, masks: &[Vec<bool>], i: usize) -> Vec<u32> {
    let mut weights = vec![0u32; inst.type_count()];
    for (j, mask) in masks.iter().enumerate() {
        if j == i {
            continue;
        }
        for (t, w) in weights.iter_mut().enumerate() {
            if mask[t] && inst.cell(i, t).is_some() && bits::test_bit(inst.diff_row(i, j), t) {
                *w += 1;
            }
        }
    }
    weights
}

#[test]
fn bitset_kernel_matches_scalar_oracle_under_random_mutation() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = random_instance(&mut rng);
        let n = inst.result_count();
        let entity_count = inst.entities.len();
        let mut set = xsact_core::DfsSet::empty(&inst);
        for step in 0..40 {
            let i = rng.random_range(0..n);
            let e = rng.random_range(0..entity_count);
            match rng.random_range(0..4u32) {
                0 | 1 => {
                    set.grow(&inst, i, e);
                }
                2 => {
                    set.shrink(&inst, i, e);
                }
                _ => {
                    let prefixes: Vec<usize> =
                        (0..entity_count).map(|_| rng.random_range(0..4usize)).collect();
                    set.replace(&inst, i, xsact_core::Dfs::from_prefixes(&inst, i, &prefixes));
                }
            }
            // Masks: the incremental word rows equal freshly-built masks.
            let masks = oracle_masks(&inst, &set);
            assert!(set.masks_consistent(&inst), "seed {seed} step {step}: mask drift");
            for (i, mask) in masks.iter().enumerate() {
                for (t, &sel) in mask.iter().enumerate() {
                    let bit = set.mask(i)[t / 64] >> (t % 64) & 1 != 0;
                    assert_eq!(bit, sel, "seed {seed} step {step} result {i} type {t}");
                }
            }
            // Totals and weights: popcount kernels equal the scalar oracle.
            assert_eq!(
                dod_total(&inst, &set),
                oracle_dod_total(&inst, &masks),
                "seed {seed} step {step}: dod_total"
            );
            for i in 0..n {
                let expected = oracle_weights(&inst, &masks, i);
                assert_eq!(
                    xsact_core::all_type_weights(&inst, &set, i),
                    expected,
                    "seed {seed} step {step}: weights of result {i}"
                );
            }
        }
    }
}

#[test]
fn annealing_is_valid_and_monotone() {
    for seed in 0..96u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = random_instance(&mut rng);
        let anneal_seed = rng.random_range(0..32u64);
        let start = xsact_core::snippet_set(&inst);
        let start_dod = dod_total(&inst, &start);
        let cfg = xsact_core::annealing::AnnealingConfig {
            seed: anneal_seed,
            iterations: 300,
            ..Default::default()
        };
        let (set, dod) = xsact_core::annealing::anneal_from(&inst, start, &cfg);
        assert!(set.all_valid(&inst), "seed {seed}");
        assert!(dod >= start_dod, "seed {seed}");
        assert_eq!(dod, dod_total(&inst, &set), "seed {seed}");
    }
}

// Tiny instances where exhaustive search is feasible: 2 results, one
// entity, 3 attrs, bound ≤ 3 → at most 4 × 4 combinations.
fn tiny_features(rng: &mut StdRng) -> Vec<ResultFeatures> {
    let result_count = 2;
    (0..result_count)
        .map(|i| {
            let triplets: Vec<(FeatureType, String, u32)> = (0..3)
                .filter_map(|k| {
                    let c = rng.random_range(0..=10u32);
                    (c > 0).then(|| (FeatureType::new("e", ATTRS[k]), "yes".to_string(), c))
                })
                .collect();
            ResultFeatures::from_raw(format!("r{i}"), [("e".to_string(), 10u32)], triplets)
        })
        .collect()
}

#[test]
fn multi_swap_is_optimal_on_tiny_instances() {
    for seed in 0..128u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let features = tiny_features(&mut rng);
        let bound = rng.random_range(0..4usize);
        let config = DfsConfig { size_bound: bound, ..DfsConfig::default() };
        let inst = Arc::new(Instance::build(&features, config));
        let multi = compare(&inst, Algorithm::MultiSwap).unwrap();
        let opt = compare(&inst, Algorithm::Exhaustive { limit: 10_000 }).unwrap();
        // With 2 results and a single entity, per-result best response is
        // globally optimal: prove multi-swap matches the oracle.
        assert_eq!(multi.dod(), opt.dod(), "seed {seed} bound {bound}");
        assert_eq!(opt.algorithm, Algorithm::Exhaustive { limit: 10_000 }, "seed {seed}");
    }
}

// ------------------------------------ local searches vs the recompute oracle
//
// The local searches keep every result's weights in one table that each
// accepted move updates, skip the results no move has touched since their
// last response, and run the DP in place over shifted values; multi-swap
// computes its snippet start once. The oracle below is the search as first
// written — a fresh weight pass per result per round, an `Option<u64>` DP
// into fresh tables, every start computed from scratch — and the two must
// agree on sets, DoD and `(rounds, moves)`.

/// `(rounds, moves)` of an oracle run.
type OracleStats = (u32, u32);

fn oracle_single_swap_from(inst: &Instance, set: &mut DfsSet) -> OracleStats {
    let (bound, entity_count) = (inst.config.size_bound, inst.entities.len());
    let (mut rounds, mut moves) = (0, 0);
    loop {
        rounds += 1;
        let mut improved = false;
        for i in 0..set.len() {
            let weights = xsact_core::all_type_weights(inst, set, i);
            let potentials = inst.potentials(i);
            loop {
                // Only a move above (0, 0) replaces `best_move`.
                let mut best_key = (0i64, 0i64);
                let mut best_move = None;
                for e2 in 0..entity_count {
                    let Some(added) = set.dfs(i).next_type(inst, i, e2) else { continue };
                    let gain = (i64::from(weights[added]), i64::from(potentials[added]));
                    if set.dfs(i).size() < bound && gain > best_key {
                        best_key = gain;
                        best_move = Some((None, e2));
                    }
                    for e1 in (0..entity_count).filter(|&e1| e1 != e2) {
                        let Some(removed) = set.dfs(i).last_type(inst, i, e1) else { continue };
                        let key = (
                            gain.0 - i64::from(weights[removed]),
                            gain.1 - i64::from(potentials[removed]),
                        );
                        if key > best_key {
                            best_key = key;
                            best_move = Some((Some(e1), e2));
                        }
                    }
                }
                let Some((shrink, grow)) = best_move else { break };
                if let Some(e1) = shrink {
                    assert!(set.shrink(inst, i, e1));
                }
                assert!(set.grow(inst, i, grow));
                moves += 1;
                improved = true;
            }
        }
        if !improved {
            return (rounds, moves);
        }
    }
}

fn oracle_combined(weight: u32, potential: u32) -> u64 {
    (u64::from(weight) << 32) | u64::from(potential)
}

/// The knapsack over prefix lengths in `Option` tables: the best combined
/// value of a valid DFS of result `i`, and its prefix vector (the longest
/// prefix of an entity, then the largest size, among ties).
fn oracle_response(
    inst: &Instance,
    i: usize,
    weights: &[u32],
    potentials: &[u32],
) -> (u64, Vec<usize>) {
    let cap = inst.config.size_bound.min(inst.type_count_of(i));
    let mut dp: Vec<Option<u64>> = vec![None; cap + 1];
    dp[0] = Some(0);
    let mut choice = vec![vec![0usize; cap + 1]; inst.entities.len()];
    for (e, list) in inst.ranked_lists(i).enumerate() {
        let mut cum = vec![0u64];
        for &t in list {
            cum.push(cum.last().unwrap() + oracle_combined(weights[t], potentials[t]));
        }
        let mut next: Vec<Option<u64>> = vec![None; cap + 1];
        for (c_prev, &slot) in dp.iter().enumerate() {
            let Some(base) = slot else { continue };
            for (len, &gain) in cum.iter().enumerate().take(list.len().min(cap - c_prev) + 1) {
                let c = c_prev + len;
                if next[c].is_none_or(|v| base + gain > v) {
                    next[c] = Some(base + gain);
                    choice[e][c] = len;
                }
            }
        }
        dp = next;
    }
    let (mut best_c, mut best_value) = (0, 0);
    for (c, v) in dp.iter().enumerate() {
        if let Some(v) = *v {
            if (v, c) >= (best_value, best_c) {
                (best_value, best_c) = (v, c);
            }
        }
    }
    let mut prefixes = vec![0; inst.entities.len()];
    let mut c = best_c;
    for e in (0..prefixes.len()).rev() {
        prefixes[e] = choice[e][c];
        c -= prefixes[e];
    }
    (best_value, prefixes)
}

fn oracle_multi_swap_from(inst: &Instance, set: &mut DfsSet) -> OracleStats {
    let (mut rounds, mut moves) = (0, 0);
    loop {
        rounds += 1;
        let mut improved = false;
        for i in 0..set.len() {
            let weights = xsact_core::all_type_weights(inst, set, i);
            let potentials = inst.potentials(i);
            let (best_value, prefixes) = oracle_response(inst, i, &weights, potentials);
            let mut current = 0;
            set.dfs(i).for_each_selected(inst, i, |t| {
                current += oracle_combined(weights[t], potentials[t]);
            });
            if (best_value, prefixes.iter().sum::<usize>()) > (current, set.dfs(i).size()) {
                set.replace(inst, i, Dfs::from_prefixes(inst, i, &prefixes));
                moves += 1;
                improved = true;
            }
        }
        if !improved {
            return (rounds, moves);
        }
    }
}

fn oracle_single_swap(inst: &Instance) -> (DfsSet, OracleStats) {
    let mut set = snippet_set(inst);
    let stats = oracle_single_swap_from(inst, &mut set);
    (set, stats)
}

fn oracle_multi_swap(inst: &Instance) -> (DfsSet, OracleStats) {
    let mut best: Option<(DfsSet, OracleStats, u32)> = None;
    for mut set in [greedy_set(inst), snippet_set(inst), oracle_single_swap(inst).0] {
        let stats = oracle_multi_swap_from(inst, &mut set);
        let dod = dod_total(inst, &set);
        if best.as_ref().is_none_or(|(_, _, b)| dod > *b) {
            best = Some((set, stats, dod));
        }
    }
    let (set, stats, _) = best.unwrap();
    (set, stats)
}

/// A search's run equals the oracle's: the same DFSs and `(rounds,
/// moves)`, and never more responses than the oracle's `rounds × n`.
/// Returns `(responses, rounds × n)`.
fn assert_same_run(
    inst: &Instance,
    what: &str,
    (set, stats): (DfsSet, SwapStats),
    (want, (rounds, moves)): (DfsSet, OracleStats),
) -> (u32, u32) {
    let visits = rounds * inst.result_count() as u32;
    assert_eq!(set, want, "{what}: DFSs");
    assert_eq!((stats.rounds, stats.moves), (rounds, moves), "{what}: rounds, moves");
    assert!(stats.responses <= visits, "{what}: responses");
    (stats.responses, visits)
}

/// Both local searches against the oracle on one instance, run as the
/// algorithms and from the greedy and empty starts. Returns the
/// algorithms' `(responses, rounds × n)`, single-swap first.
fn assert_searches_match_the_oracle(inst: &Instance, what: &str) -> [(u32, u32); 2] {
    for start in [greedy_set(inst), DfsSet::empty(inst)] {
        let (mut set, mut want) = (start.clone(), start.clone());
        let stats = (single_swap_from(inst, &mut set), oracle_single_swap_from(inst, &mut want));
        assert_same_run(
            inst,
            &format!("{what}: single_swap_from"),
            (set, stats.0),
            (want, stats.1),
        );
        let (mut set, mut want) = (start.clone(), start);
        let stats = (multi_swap_from(inst, &mut set), oracle_multi_swap_from(inst, &mut want));
        assert_same_run(inst, &format!("{what}: multi_swap_from"), (set, stats.0), (want, stats.1));
    }
    [
        assert_same_run(
            inst,
            &format!("{what}: single-swap"),
            single_swap(inst),
            oracle_single_swap(inst),
        ),
        assert_same_run(
            inst,
            &format!("{what}: multi-swap"),
            multi_swap(inst),
            oracle_multi_swap(inst),
        ),
    ]
}

#[test]
fn local_searches_match_the_recompute_oracle_on_random_instances() {
    for seed in 0..64u64 {
        let inst = random_instance(&mut StdRng::seed_from_u64(seed));
        assert_searches_match_the_oracle(&inst, &format!("seed {seed}"));
    }
}

/// On the paper pool the searches equal the oracle, and the responses they
/// compute are a pure function of the pool: the sums are pinned, and the
/// skip shows as fewer responses than the oracle's `rounds × n`.
#[test]
fn local_searches_match_the_recompute_oracle_on_the_paper_pool() {
    let mut sums = [(0, 0); 2];
    for_each_pool_query(|query, pipeline| {
        let inst = Instance::build(&pipeline.features().unwrap(), POOL_CONFIG);
        let counts = assert_searches_match_the_oracle(&inst, query);
        for (sum, (responses, visits)) in sums.iter_mut().zip(counts) {
            *sum = (sum.0 + responses, sum.1 + visits);
        }
    });
    for (name, (responses, visits)) in ["single-swap", "multi-swap"].into_iter().zip(sums) {
        assert!(responses < visits, "{name}: {responses} responses of {visits} visits");
    }
    assert_eq!(sums, [(3348, 3821), (1195, 1255)]);
}

// ------------------------- greedy and the checkers vs their recompute bodies
//
// Greedy rebuilds each result on the maintained weight rows, and the
// optimality checkers are the searches' own best responses with the
// potentials zeroed. The oracles below are the bodies they replaced: a fresh
// weight vector per result (greedy's from the scalar `oracle_weights`), the
// single-swap checker's explicit move scan and the `Option` DP.

fn oracle_greedy(inst: &Instance) -> DfsSet {
    let mut set = snippet_set(inst);
    for i in 0..set.len() {
        let weights = oracle_weights(inst, &oracle_masks(inst, &set), i);
        let potentials = inst.potentials(i);
        let mut prefixes = vec![0; inst.entities.len()];
        for _ in 0..inst.config.size_bound {
            // A strictly higher (weight, potential), or an equal one and a
            // strictly higher significance ratio, replaces the best.
            let mut best: Option<((u32, u32, f64), usize)> = None;
            for (e, &p) in prefixes.iter().enumerate() {
                let Some(&t) = inst.ranked(i, e).get(p) else { continue };
                let key = (weights[t], potentials[t], inst.sig_ratio(i, t));
                if best.is_none_or(|(b, _)| {
                    (key.0, key.1) > (b.0, b.1) || ((key.0, key.1) == (b.0, b.1) && key.2 > b.2)
                }) {
                    best = Some((key, e));
                }
            }
            let Some((_, e)) = best else { break };
            prefixes[e] += 1;
        }
        set.replace(inst, i, Dfs::from_prefixes(inst, i, &prefixes));
    }
    set
}

fn oracle_is_single_swap_optimal(inst: &Instance, set: &DfsSet) -> bool {
    let (bound, entity_count) = (inst.config.size_bound, inst.entities.len());
    for i in 0..set.len() {
        let weights = xsact_core::all_type_weights(inst, set, i);
        for e2 in 0..entity_count {
            let Some(added) = set.dfs(i).next_type(inst, i, e2) else { continue };
            let gain = i64::from(weights[added]);
            if set.dfs(i).size() < bound && gain > 0 {
                return false;
            }
            for e1 in (0..entity_count).filter(|&e1| e1 != e2) {
                let Some(removed) = set.dfs(i).last_type(inst, i, e1) else { continue };
                if gain - i64::from(weights[removed]) > 0 {
                    return false;
                }
            }
        }
    }
    true
}

fn oracle_is_multi_swap_optimal(inst: &Instance, set: &DfsSet) -> bool {
    let zero = vec![0u32; inst.type_count()];
    (0..set.len()).all(|i| {
        let weights = xsact_core::all_type_weights(inst, set, i);
        let (best, _) = oracle_response(inst, i, &weights, &zero);
        let mut current = 0;
        set.dfs(i).for_each_selected(inst, i, |t| current += oracle_combined(weights[t], 0));
        best <= current
    })
}

/// A valid set that no algorithm produced: each result grows random
/// entities towards a random size within the bound.
fn random_set(inst: &Instance, rng: &mut StdRng) -> DfsSet {
    let mut set = DfsSet::empty(inst);
    for i in 0..set.len() {
        let size = rng.random_range(0..=inst.config.size_bound);
        for _ in 0..2 * size {
            if set.dfs(i).size() < size {
                set.grow(inst, i, rng.random_range(0..inst.entities.len()));
            }
        }
    }
    set
}

/// Both checkers equal their oracles on the algorithms' sets, the empty set
/// and random sets; `tally[checker][optimal]` counts the answers.
fn assert_checkers_match_their_oracles(
    inst: &Instance,
    what: &str,
    rng: &mut StdRng,
    tally: &mut [[u32; 2]; 2],
) {
    let mut sets = vec![
        snippet_set(inst),
        greedy_set(inst),
        single_swap(inst).0,
        multi_swap(inst).0,
        DfsSet::empty(inst),
    ];
    sets.extend((0..4).map(|_| random_set(inst, rng)));
    for (k, set) in sets.iter().enumerate() {
        let single = is_single_swap_optimal(inst, set);
        assert_eq!(single, oracle_is_single_swap_optimal(inst, set), "{what}: set {k}: single");
        let multi = is_multi_swap_optimal(inst, set);
        assert_eq!(multi, oracle_is_multi_swap_optimal(inst, set), "{what}: set {k}: multi");
        tally[0][usize::from(single)] += 1;
        tally[1][usize::from(multi)] += 1;
    }
}

#[test]
fn greedy_and_the_checkers_match_their_oracles_on_random_instances() {
    let mut tally = [[0; 2]; 2];
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = random_instance(&mut rng);
        assert_eq!(greedy_set(&inst), oracle_greedy(&inst), "seed {seed}: greedy");
        assert_checkers_match_their_oracles(&inst, &format!("seed {seed}"), &mut rng, &mut tally);
    }
    assert!(tally.iter().flatten().all(|&n| n > 0), "both answers of both checkers: {tally:?}");
}

#[test]
fn greedy_and_the_checkers_match_their_oracles_on_the_paper_pool() {
    let mut tally = [[0; 2]; 2];
    let mut rng = StdRng::seed_from_u64(0);
    for_each_pool_query(|query, pipeline| {
        let inst = Instance::build(&pipeline.features().unwrap(), POOL_CONFIG);
        assert_eq!(greedy_set(&inst), oracle_greedy(&inst), "{query}: greedy");
        assert_checkers_match_their_oracles(&inst, query, &mut rng, &mut tally);
    });
    assert!(tally.iter().flatten().all(|&n| n > 0), "both answers of both checkers: {tally:?}");
}

/// Annealing on maintained weight rows reproduces the runs of the body that
/// read every proposal's weights pointwise off the selection masks:
/// `(seed, DoD, prefix vectors)` of `anneal_from` at the snippet start and
/// 2 000 iterations, one digit per entity and a space between results.
#[test]
fn annealing_reproduces_its_pinned_runs() {
    const PINS: [(u64, u32, &str); 16] = [
        (0, 203, "403010 003140 204020 004040 103040 003230 013040 104030 005120 010070 203030 005030"),
        (1, 3, "020000 200000 010100 100000 100001 200000 010010"),
        (2, 46, "305100 205200 402003 502002 203400 010503 510002 106200 304101 420003"),
        (3, 3, "111104 100205"),
        (4, 71, "110420 000513 310041 332100 600300 401120 101430 300050 601100 120033 301410 230310 211050 130230"),
        (5, 3, "011300 010301"),
        (6, 8, "111020 040110 020310 111210 100410"),
        (7, 163, "003400 000340 003310 001330 000230 000052 000430 300301 000430 000250 000250 001420 102220"),
        (8, 11, "020000 000101 020000 000002 010100 000002 010100 020000 000001 200000 000100 000002 000200"),
        (9, 8, "033001 030210 130030 200050 013010"),
        (10, 27, "020020 030010 030010 030010 020020 010021"),
        (11, 2, "024000 015020"),
        (12, 4, "100000 000011 000020 010000 000020 100000 110000 010010 000010 010100 020000 010100"),
        (13, 95, "202003 105001 007000 004200 023200 024001 004102 004300 105001"),
        (14, 1, "011000 001100 101000"),
        (15, 17, "010003 000013 000004 010003 000103"),
    ];
    for (seed, dod, prefixes) in PINS {
        let inst = random_instance(&mut StdRng::seed_from_u64(seed));
        let cfg = xsact_core::annealing::AnnealingConfig {
            seed,
            iterations: 2_000,
            ..Default::default()
        };
        let (set, got) = xsact_core::annealing::anneal_from(&inst, snippet_set(&inst), &cfg);
        let digits: Vec<String> =
            set.iter().map(|d| d.prefixes().iter().map(usize::to_string).collect()).collect();
        assert_eq!((got, digits.join(" ")), (dod, prefixes.to_string()), "seed {seed}");
    }
}
