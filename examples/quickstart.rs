//! Quickstart: the full XSACT pipeline on the paper's worked example,
//! driven through the `Workbench` facade.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Steps (paper Figure 3): load structured data → keyword search → select
//! results → extract features → generate Differentiation Feature Sets →
//! render the comparison table. Every pipeline failure is a typed
//! `XsactError` — no `unwrap()` anywhere on the happy path.

use xsact::prelude::*;
use xsact_data::fixtures;

fn main() -> Result<(), XsactError> {
    // 1. Load the Figure 1 dataset (two TomTom GPS products with reviews,
    //    plus two filler products). The workbench builds the search engine
    //    (inverted index + structural summary) once for the session.
    let wb = Workbench::from_document(fixtures::figure1_document());

    // 2. Run the paper's query {TomTom, GPS}.
    let pipeline = wb.query(fixtures::PAPER_QUERY)?;
    let results = pipeline.results();
    println!("query {} returned {} results:", pipeline.query_text(), results.len());
    for (i, r) in results.iter().enumerate() {
        println!("  [{}] {}", i + 1, r.label);
    }

    // 3. Extract the feature statistics of each result (the Figure 1
    //    statistics panels). These fill the workbench's feature cache.
    for rf in pipeline.features()? {
        println!("\nstatistics of {}:", rf.label());
        for line in rf.stat_panel(5) {
            println!("  {line}");
        }
    }

    // 4. Generate DFSs with the multi-swap algorithm and print the
    //    comparison table (Figure 2).
    let outcome =
        pipeline.clone().size_bound(fixtures::TABLE_BOUND).compare(Algorithm::MultiSwap)?;
    println!(
        "\ncomparison table (L = {}, DoD = {}, {} rounds):",
        fixtures::TABLE_BOUND,
        outcome.dod(),
        outcome.stats.rounds
    );
    println!("{}", outcome.table());

    // 5. Contrast with the snippet baseline the paper criticises. The
    //    features come straight from the cache this time.
    let snippets =
        pipeline.clone().size_bound(fixtures::SNIPPET_BOUND).compare(Algorithm::Snippet)?;
    println!("snippet baseline DoD = {} — XSACT improves it to {}", snippets.dod(), outcome.dod());
    let stats = wb.cache_stats();
    println!(
        "feature cache: {} extractions, {} cache hits across {} lookups",
        stats.misses,
        stats.hits,
        stats.lookups()
    );
    Ok(())
}
