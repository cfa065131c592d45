//! Allocation counts of the comparison hand-off, measured with a counting
//! global allocator (per thread, so the tests of this binary can run side
//! by side).
//!
//! Timings say whether the comparison path got faster; these say why it
//! stays that way: extracting a result's features allocates a fixed number
//! of blocks whatever it holds, a copy of them a few more, a feature-cache
//! hit none. The same counter pins what a boot pays per document: a
//! parse is a fixed number of arrays however many nodes it reads, sixteen
//! bytes of them per node plus the node's own text; loading a document's
//! image is a fixed number of exactly sized arrays, and nothing per
//! posting list. A cold boot's index build allocates per term, not per
//! element.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xsact::prelude::*;
use xsact_data::fixtures;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates nor touches the returned memory (`try_with` turns
// an access during thread teardown into a no-op instead of a panic).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `work` returns and how many allocations this thread made for it.
fn counted<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = work();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// One result per item: `item i` has `stats[i]` feature types, each leaf
/// with a padded value to rewrite, and every item an attribute.
fn items_document(stats: &[usize]) -> Document {
    let mut doc = Document::new("shop");
    for (i, &n) in stats.iter().enumerate() {
        let item = doc.add_element(doc.root(), "item");
        doc.set_attr(item, "sku", format!("S{i}"));
        for k in 0..n {
            let leaf = doc.add_element(item, format!("feature_{k}"));
            doc.add_text(leaf, format!(" value\n {k} "));
        }
    }
    doc
}

/// Extracts every item of `doc`, with what each extraction allocated.
fn extract_items(doc: &Document) -> Vec<(ResultFeatures, u64)> {
    let summary = StructureSummary::infer(doc);
    doc.children(doc.root())
        .map(|item| counted(|| extract_features(doc, &summary, item, "item")))
        .collect()
}

#[test]
fn an_extraction_allocates_the_same_for_4_and_40_stats() {
    let extracted = extract_items(&items_document(&[4, 40]));
    let [(small, small_blocks), (large, large_blocks)] = extracted.as_slice() else {
        panic!("two items")
    };
    // Each leaf a type, plus the `@sku` attribute.
    assert_eq!((small.type_count(), large.type_count()), (5, 41));
    // Two scratch lists, the rewrite buffer and the result's five arrays,
    // however many stats, values and rewrites there are.
    assert_eq!(small_blocks, large_blocks);
    assert!(*large_blocks <= 8, "{large_blocks} blocks");
}

#[test]
fn a_clone_allocates_a_constant() {
    for (features, _) in extract_items(&items_document(&[4, 40])) {
        let (copy, blocks) = counted(|| features.clone());
        assert_eq!(copy, features);
        assert!(blocks <= 6, "{blocks} blocks for {} stats", features.type_count());
    }
    // `from_raw` builds the same layout.
    let entities = [("shop/product".to_string(), 1u32), ("shop/product/review".to_string(), 11)];
    let mut triplets = Vec::new();
    for k in 0..16 {
        let ty = FeatureType::new(entities[k % 2].0.as_str(), format!("attribute_{k}"));
        for v in 0..=(k % 3) {
            triplets.push((ty.clone(), format!("value {v}"), 1 + v as u32));
        }
    }
    let features = ResultFeatures::from_raw("a 16-stat result", entities, triplets);
    let (copy, blocks) = counted(|| features.clone());
    assert_eq!(copy, features);
    assert!(blocks <= 6, "{blocks} blocks");
}

#[test]
fn extracting_any_default_movie_root_allocates_at_most_16_blocks() {
    use xsact::data::MoviesGen;
    let doc = MoviesGen::default_gen().generate();
    let summary = StructureSummary::infer(&doc);
    let movies: Vec<_> = doc.children(doc.root()).collect();
    assert_eq!(movies.len(), 400);
    for movie in movies {
        let (features, blocks) = counted(|| extract_features(&doc, &summary, movie, "movie"));
        assert!(features.type_count() > 4);
        assert!(blocks <= 16, "{blocks} blocks for movie {movie:?}");
    }
}

#[test]
fn a_feature_cache_hit_allocates_nothing_of_its_own() {
    let wb = Workbench::from_document(fixtures::figure1_document());
    let query = wb.query(fixtures::PAPER_QUERY).unwrap();
    let results: Vec<_> = query.ranking().hits.iter().map(|hit| hit.result.clone()).collect();
    let first = wb.subtree_features(results[0].root, &results[0].label); // the miss
    let (_copy, copying) = counted(|| first.clone());
    // The public lookup returns an owned copy: on a hit, that copy is the
    // only thing allocated — no key, no label, no cloned search result.
    let (again, lookup) = counted(|| wb.subtree_features(results[0].root, &results[0].label));
    assert_eq!(again, first);
    assert_eq!(lookup, copying);
    assert_eq!(wb.cache_stats(), CacheStats { hits: 1, misses: 1 });
    // A comparison over cached features: its allocations do not depend on
    // how many lookups hit, only on what it builds. Two runs, same count.
    let compare = || {
        let pipeline = wb.query(fixtures::PAPER_QUERY).unwrap().size_bound(fixtures::TABLE_BOUND);
        pipeline.compare(Algorithm::MultiSwap).unwrap().dod()
    };
    assert_eq!(compare(), 5); // extracts the second result
    let (_, second) = counted(compare);
    let (_, third) = counted(compare);
    assert_eq!(second, third);
}

/// The 500-movie document of the benchmark's fixture, as XML text.
fn movies_xml() -> String {
    use xsact::data::{MovieGenConfig, MoviesGen};
    use xsact::xml::{write_document, WriteOptions};
    let movies = MoviesGen::new(MovieGenConfig { seed: 42, movies: 500, ..Default::default() });
    write_document(&movies.generate(), &WriteOptions::compact())
}

/// Resident memory is, first of all, the node table: on the benchmark's
/// 16 × 1000-movie fixture it used to be half of peak RSS. A document is
/// four `u32` arrays, one text arena, an attribute table, an interner and
/// a path table, each sized once — the node arrays from a sample of the
/// input, the path table for 32 paths — so parsing allocates a fixed
/// number of blocks, not one per text run, and a later change that gives a
/// node a heap block or a pointerful field fails here, not in a benchmark.
///
/// On this document (34 398 nodes, 24 paths) the parse makes 37 blocks:
/// 34 before the document kept its tag paths, and three for the path
/// table's entries, stamps and probe table. Its bytes per node are 19 —
/// 16 of table, about 3 of text, and the interner's and path table's
/// ~1.6 KB spread over the nodes.
#[test]
fn parsing_allocates_a_fixed_number_of_arrays_and_at_most_forty_bytes_a_node() {
    let xml = movies_xml();
    let (doc, blocks) = counted(|| xsact::xml::parse_document(&xml).unwrap());
    let text_runs = doc.all_nodes().filter(|&n| doc.text(n).is_some()).count();
    assert!(doc.len() > 30_000 && text_runs > 15_000, "{} nodes", doc.len());
    // First sizes, the one reservation, the final fit — per array — the
    // path table and the parser's stack; nothing that grows with the
    // document.
    assert_eq!(blocks, 37, "{blocks} blocks for {} nodes", doc.len());
    // Exact fit: 16 bytes of table per node, the text itself (~3 bytes per
    // node here), the interner and the path table.
    let stats = doc.substrate_stats();
    let bytes = stats.interner_bytes + stats.text_bytes + stats.node_table_bytes;
    let per_node = (bytes + stats.path_table_bytes) / stats.nodes;
    assert_eq!(per_node, 19, "{per_node} bytes per node: {stats:?}");
    assert_eq!(stats.node_table_bytes, 16 * doc.len(), "{stats:?}");
    assert_eq!(doc.paths().len(), 24);
    assert!(stats.path_table_bytes < 1024, "{stats:?}");
}

/// A warm boot loads one `.xidx` image per document. The index half of the
/// loader allocates the term dictionary and the frame arrays it adopts;
/// validating the posting lists streams them and allocates nothing, so the
/// count does not grow with the lists (it used to be one `Vec` per term).
#[test]
fn loading_an_index_allocates_for_the_dictionary_and_nothing_per_list() {
    use xsact::index::{load_image, save_image, InvertedIndex};
    let doc = xsact::xml::parse_document(&movies_xml()).unwrap();
    let index = InvertedIndex::build(&doc);
    let mut bytes = Vec::new();
    save_image(&doc, &index, &mut bytes).unwrap();
    let ((_, loaded), blocks) =
        counted(|| load_image(&mut bytes.as_slice(), None, &mut Vec::new()).unwrap());
    let terms = loaded.stats().terms as u64;
    assert!(terms > 300, "{terms} terms");
    assert_eq!(loaded.stats(), index.stats());
    // The read buffer, the document's arrays, and one block per adopted
    // index array: far below one per term.
    assert!(blocks <= 64 && blocks < terms / 4, "{blocks} blocks for {terms} terms");
}

/// A warm boot decodes the document instead of parsing it: one block per
/// array, each sized exactly from the image (`end`, `kind`, `mark`, the
/// derived `parent`, attributes, text, the three of the name interner and
/// the three of the path table), the read buffer and the index's arrays
/// (the nesting stack is a fixed array) — so the count is a constant that
/// grows with neither the nodes nor the names and terms. On this document
/// (24 names, 24 paths, 553 terms, 34 398 nodes) it is 22 blocks: 19
/// before the document kept its path table. The pin allows 24, and never
/// more than
/// names + terms: a per-name or per-term allocation fails it long before a
/// per-node one.
#[test]
fn a_warm_load_allocates_per_name_and_term_not_per_node() {
    use xsact::index::{load_image, save_image, InvertedIndex};
    let doc = xsact::xml::parse_document(&movies_xml()).unwrap();
    let mut bytes = Vec::new();
    save_image(&doc, &InvertedIndex::build(&doc), &mut bytes).unwrap();
    let ((loaded, index), blocks) =
        counted(|| load_image(&mut bytes.as_slice(), None, &mut Vec::new()).unwrap());
    assert_eq!(loaded, doc);
    let names = loaded.interner().len() as u64;
    let terms = index.stats().terms as u64;
    assert!(loaded.len() as u64 > 50 * (names + terms), "{} nodes", loaded.len());
    assert!(blocks <= 24, "{blocks} blocks for {names} names and {terms} terms");
    assert!(blocks <= names + terms);
}

/// A boot's ingest worker reads every image it loads into one buffer. A
/// load through a buffer that already holds a larger image allocates
/// everything a fresh load does but the read buffer: on this document 21
/// blocks against 22 (18 against 19 before the path table's entries,
/// stamps and probe table).
#[test]
fn a_load_through_a_used_buffer_allocates_no_read_buffer() {
    use xsact::data::{MovieGenConfig, MoviesGen};
    use xsact::index::{load_image, save_image, InvertedIndex};
    let image = |doc: &Document| {
        let mut bytes = Vec::new();
        save_image(doc, &InvertedIndex::build(doc), &mut bytes).unwrap();
        bytes
    };
    let doc = xsact::xml::parse_document(&movies_xml()).unwrap();
    let bytes = image(&doc);
    let larger = image(
        &MoviesGen::new(MovieGenConfig { seed: 7, movies: 600, ..Default::default() }).generate(),
    );
    assert!(larger.len() > bytes.len());
    let (_, fresh) = counted(|| load_image(&mut bytes.as_slice(), None, &mut Vec::new()).unwrap());
    let mut buf = Vec::new();
    load_image(&mut larger.as_slice(), None, &mut buf).unwrap();
    let ((loaded, _), reused) =
        counted(|| load_image(&mut bytes.as_slice(), None, &mut buf).unwrap());
    assert_eq!(loaded, doc);
    assert_eq!((fresh, reused), (22, 21));
}

/// Every boot, warm or cold, infers each document's structure summary.
/// The document keeps its tag paths as it is built or decoded, so the
/// inference reads the path table and writes one class and one display
/// span per path, the strings into one arena: two blocks, whatever the
/// document holds. The 60-movie and the 500-movie documents (the same 24
/// paths over 4 062 and 34 398 nodes) must cost the same; a block per node,
/// per name occurrence or per path fails here.
#[test]
fn inferring_the_summary_allocates_per_path_not_per_node() {
    use xsact::data::{MovieGenConfig, MoviesGen};
    let movies = |movies| {
        let doc = MoviesGen::new(MovieGenConfig { seed: 42, movies, ..Default::default() });
        xsact::xml::parse_document(&xsact::xml::write_document(
            &doc.generate(),
            &xsact::xml::WriteOptions::compact(),
        ))
        .unwrap()
    };
    let (small, large) = (movies(60), movies(500));
    assert_eq!(small.paths(), large.paths());
    assert!(large.len() > 8 * small.len(), "{} vs {} nodes", large.len(), small.len());
    let (_, small_blocks) = counted(|| StructureSummary::infer(&small));
    let (summary, large_blocks) = counted(|| StructureSummary::infer(&large));
    assert_eq!(small_blocks, large_blocks);
    assert_eq!(large_blocks, 2, "{large_blocks} blocks for {} paths", large.paths().len());
    let movie = large.children(large.root()).next().unwrap();
    assert_eq!(summary.path_display(large.path_id(movie).unwrap()), "movies/movie");
}

/// A cold boot builds one index per document. The build lexes text without
/// a `String` per term and each distinct tag or attribute name once, so
/// what it allocates follows the terms — a posting list and its growth
/// steps per term, the interners' and the packed frames' arrays — and not
/// the elements. On this document (553 terms, 19 094 elements) that was
/// 1 512 blocks, 2.7 per term, before the build memoised name terms, and
/// 1 516 after. A change that allocates per element or per name occurrence
/// fails here.
#[test]
fn building_an_index_allocates_per_term_not_per_element() {
    use xsact::index::InvertedIndex;
    let doc = xsact::xml::parse_document(&movies_xml()).unwrap();
    let elements = doc.all_nodes().filter(|&n| doc.is_element(n)).count() as u64;
    let (index, blocks) = counted(|| InvertedIndex::build(&doc));
    let terms = index.stats().terms as u64;
    assert!(elements > 30 * terms, "{elements} elements for {terms} terms");
    assert!(blocks <= 4 * terms, "{blocks} blocks for {terms} terms");
}
