//! Allocation counts of the comparison hand-off, measured with a counting
//! global allocator (per thread, so the tests of this binary can run side
//! by side).
//!
//! Timings say whether the warm path got faster; these say why it stays
//! that way: the prepared form costs two allocations per cached result, a
//! feature-cache hit costs none. The same counter pins what a parsed
//! document keeps resident: a fixed-size record per node plus the node's
//! own text, and no heap block for the tree's structure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use xsact::prelude::*;
use xsact_data::fixtures;
use xsact_entity::{FeatureType, ResultFeatures};

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

#[test]
fn the_prepared_form_adds_two_allocations_to_a_clone() {
    // 16 stats over two entities, a third of them multi-valued.
    let entities = [("shop/product".to_string(), 1u32), ("shop/product/review".to_string(), 11)];
    let mut triplets = Vec::new();
    for k in 0..16 {
        let ty = FeatureType::new(entities[k % 2].0.as_str(), format!("attribute_{k}"));
        for v in 0..=(k % 3) {
            triplets.push((ty.clone(), format!("value {v}"), 1 + v as u32));
        }
    }
    let features = ResultFeatures::from_raw("a 16-stat result", entities.clone(), triplets);
    assert_eq!(features.stats.len(), 16);

    // What a clone of the public content costs, piece by piece — all a
    // clone cost before the features carried their prepared form.
    let (_label, label) = counted(|| features.label.clone());
    let (_stats, stats) = counted(|| features.stats.clone());
    let instances: HashMap<String, u32> = entities.into_iter().collect();
    let (_instances, instance_map) = counted(|| instances.clone());
    let (copy, whole) = counted(|| features.clone());
    assert_eq!(copy, features);
    assert_eq!(whole, label + stats + instance_map + 2, "two vectors, not one per stat");
}

#[test]
fn a_feature_cache_hit_allocates_nothing_of_its_own() {
    let wb = Workbench::from_document(fixtures::figure1_document());
    let results = wb.query(fixtures::PAPER_QUERY).unwrap().results();
    let first = wb.features_for(&results[0]); // the miss
    let (_copy, copying) = counted(|| first.clone());
    // The public lookup returns an owned copy: on a hit, that copy is the
    // only thing allocated — no key, no label, no cloned search result.
    let (again, lookup) = counted(|| wb.features_for(&results[0]));
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

/// Resident memory is, first of all, node records: on the benchmark's
/// 16 × 1000-movie fixture they are half of peak RSS. A node stores its
/// payload, its parent and its subtree extent — children, order, ancestry
/// and Dewey paths are derived from those — so parsing allocates one block
/// per text run and nothing per element, and a later change that puts a
/// pointerful field back fails here, not in a benchmark.
#[test]
fn a_parsed_node_costs_a_forty_byte_record_and_no_heap_block_for_structure() {
    use xsact::data::{MovieGenConfig, MoviesGen};
    use xsact::xml::{parse_document, write_document, WriteOptions};
    let movies = MoviesGen::new(MovieGenConfig { seed: 42, movies: 500, ..Default::default() });
    let xml = write_document(&movies.generate(), &WriteOptions::compact());
    let (doc, blocks) = counted(|| parse_document(&xml).unwrap());
    // One block per text run (the fixture has no XML attributes); the node
    // table, the interner and the parser's stacks grow by doubling.
    let text_runs = doc.all_nodes().filter(|&n| doc.text(n).is_some()).count() as u64;
    assert!(doc.len() > 30_000 && text_runs > 15_000, "{} nodes", doc.len());
    assert!(blocks <= text_runs + 128, "{blocks} blocks for {text_runs} text runs");
    // A table grown by doubling holds at most twice its length in 40-byte
    // records; text and the interner add ~3 bytes per node here.
    let stats = doc.substrate_stats();
    let per_node = stats.interned_total() / stats.nodes;
    assert!(per_node <= 2 * 40 + 8, "{per_node} bytes per node: {stats:?}");
}
