//! Online-shopping scenario on the synthetic Product Reviews dataset
//! (buzzillions.com substitute): search for GPS devices, compare what
//! reviewers actually say about each.
//!
//! Run with: `cargo run --example shopping_comparison`

use xsact::prelude::*;
use xsact_data::{ReviewsGen, ReviewsGenConfig};

fn main() -> Result<(), XsactError> {
    let doc = ReviewsGen::new(ReviewsGenConfig {
        seed: 2010, // the year the paper appeared
        products: 27,
        reviews: (15, 90),
    })
    .generate();
    println!(
        "generated Product Reviews dataset: {} products, {} XML nodes",
        doc.children_by_tag(doc.root(), "product").count(),
        doc.len()
    );
    let wb = Workbench::from_document(doc);

    for query_text in ["TomTom GPS", "Garmin GPS", "Nokia phone"] {
        // A shopper ticks the first few checkboxes and hits "comparison".
        let pipeline = wb.query(query_text)?.take(3).size_bound(8);
        let results = &pipeline.ranking().hits;
        println!("\n=== query {}: {} results", pipeline.query_text(), results.len());

        for algorithm in [Algorithm::Snippet, Algorithm::SingleSwap, Algorithm::MultiSwap] {
            let outcome = match pipeline.compare(algorithm) {
                Ok(outcome) => outcome,
                Err(XsactError::NoResults { .. } | XsactError::NotEnoughResults { .. }) => {
                    println!("    (need at least two results to compare)");
                    break;
                }
                Err(other) => return Err(other),
            };
            println!(
                "    {:<12} DoD = {:>3}  ({} rounds, {} moves, {:?})",
                algorithm.name(),
                outcome.dod(),
                outcome.stats.rounds,
                outcome.stats.moves,
                outcome.stats.elapsed
            );
            if algorithm == Algorithm::MultiSwap {
                println!("{}", outcome.table());
            }
        }
    }
    let stats = wb.cache_stats();
    println!(
        "session cache: {} results extracted once, {} repeat lookups served from cache",
        stats.misses, stats.hits
    );
    Ok(())
}
