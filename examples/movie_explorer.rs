//! Exploratory search over the IMDB-like movie dataset — the workload the
//! paper's Figure 4 evaluates on, here in interactive-report form: run all
//! eight QM queries, compare the top results of each, show how the two
//! algorithms behave.
//!
//! Run with: `cargo run --example movie_explorer`

use xsact::prelude::*;
use xsact_data::movies::{qm_queries, MovieGenConfig, MoviesGen};

fn main() -> Result<(), XsactError> {
    let doc = MoviesGen::new(MovieGenConfig { movies: 250, ..Default::default() }).generate();
    println!(
        "generated movie dataset: {} movies, {} XML nodes",
        doc.children_by_tag(doc.root(), "movie").count(),
        doc.len()
    );
    let wb = Workbench::from_document(doc);
    let stats = wb.engine().index().stats();
    println!(
        "inverted index: {} terms, {} postings, longest list {}\n",
        stats.terms, stats.total_postings, stats.longest_list
    );

    for (label, query_text) in qm_queries() {
        let pipeline = wb.query(&query_text)?.size_bound(10);
        println!("{label} {}: {} results", pipeline.query_text(), pipeline.ranking().hits.len());
        let single = match pipeline.compare(Algorithm::SingleSwap) {
            Ok(outcome) => outcome,
            Err(XsactError::NoResults { .. } | XsactError::NotEnoughResults { .. }) => continue,
            Err(other) => return Err(other),
        };
        let multi = pipeline.compare(Algorithm::MultiSwap)?;
        println!(
            "    single-swap DoD {:>4}  ({:?});  multi-swap DoD {:>4}  ({:?})",
            single.dod(),
            single.stats.elapsed,
            multi.dod(),
            multi.stats.elapsed
        );
    }

    // Deep dive on one query: print the table for the first three results.
    let (label, query_text) = &qm_queries()[5]; // QM6: war soldier
    match wb.query(query_text)?.take(3).size_bound(8).compare(Algorithm::MultiSwap) {
        Ok(outcome) => {
            println!("\n{label} table for the first {} results:", outcome.labels().len());
            println!("{}", outcome.table());
        }
        Err(XsactError::NoResults { .. } | XsactError::NotEnoughResults { .. }) => {
            println!("\n{label}: not enough results for a deep-dive table");
        }
        Err(other) => return Err(other),
    }
    let cache = wb.cache_stats();
    println!("feature cache after the session: {} extractions, {} hits", cache.misses, cache.hits);
    Ok(())
}
