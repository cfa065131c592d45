//! Figure 1 — the two result fragments of query `{TomTom, GPS}` and their
//! statistics panels.
//!
//! Prints, for each of the paper's two results, the information Figure 1
//! shows: the number of reviews and the `ATTR : VALUE : # of occ` lines, in
//! significance order. The integration test `tests/paper_example.rs`
//! asserts these numbers equal the paper's.
//!
//! Usage: `cargo run --release --example fig1_stats`

use xsact::prelude::*;
use xsact_data::fixtures;

fn main() -> Result<(), XsactError> {
    let wb = Workbench::from_document(fixtures::figure1_document());
    let pipeline = wb.query(fixtures::PAPER_QUERY)?;
    let results = &pipeline.ranking().hits;
    println!("query {{TomTom, GPS}} on the Figure 1 dataset: {} results\n", results.len());

    for (i, rf) in pipeline.features()?.iter().enumerate() {
        println!("Result {} — {}", i + 1, rf.label());
        println!("  statistics (cf. Figure 1 right-hand panels):");
        for line in rf.stat_panel(8) {
            println!("    {line}");
        }
        println!();
    }

    // The fragment view: the first review subtree of result 1, as the
    // figure's tree diagram shows.
    let doc = wb.document();
    if let Some(reviews) = doc.child_by_tag(results[0].result.root, "reviews") {
        if let Some(first) = doc.child_elements(reviews).next() {
            println!("first review fragment of result 1 (cf. the tree in Figure 1):");
            println!("{}", xsact_xml::writer::write_subtree(doc, first));
        }
    }
    Ok(())
}
