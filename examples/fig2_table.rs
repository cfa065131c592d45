//! Figure 2 — the XSACT comparison table for the results of Figure 1, plus
//! the worked-example DoD numbers from §2 of the paper:
//!
//! * snippet DFSs (the Figure 1 snippets): DoD = 2 (only Product:Name and
//!   Pro:Compact differentiate; rating 4.2 vs 4.1 is within the 10%
//!   threshold);
//! * XSACT multi-swap DFSs: DoD = 5 ("three more feature types become
//!   comparable").
//!
//! Exits non-zero unless snippet / single-swap / multi-swap DoD come out
//! as 2 / 5 / 5.
//!
//! Usage: `cargo run --release --example fig2_table`

use std::process::ExitCode;
use xsact::prelude::*;
use xsact_data::fixtures;

fn main() -> Result<ExitCode, XsactError> {
    let wb = Workbench::from_document(fixtures::figure1_document());
    let pipeline = wb.query(fixtures::PAPER_QUERY)?;
    let mut reproduced = true;

    let snippet =
        pipeline.clone().size_bound(fixtures::SNIPPET_BOUND).compare(Algorithm::Snippet)?;
    println!(
        "snippet DFSs (eXtract-style, L = {}): DoD = {}   [paper: 2]",
        fixtures::SNIPPET_BOUND,
        snippet.dod()
    );
    reproduced &= snippet.dod() == 2;
    println!("{}", snippet.table());

    let table = pipeline.clone().size_bound(fixtures::TABLE_BOUND);
    for algorithm in [Algorithm::SingleSwap, Algorithm::MultiSwap] {
        let outcome = table.compare(algorithm)?;
        println!(
            "{} DFSs (L = {}): DoD = {}   [paper, multi-swap: 5]",
            algorithm.name(),
            fixtures::TABLE_BOUND,
            outcome.dod()
        );
        reproduced &= outcome.dod() == 5;
        if algorithm == Algorithm::MultiSwap {
            println!("{}", outcome.table());
        }
    }

    match table.compare(Algorithm::Exhaustive { limit: 5_000_000 }) {
        Ok(opt) => println!(
            "{} optimum at L = {}: DoD = {}",
            opt.algorithm.name(),
            fixtures::TABLE_BOUND,
            opt.dod()
        ),
        Err(XsactError::ExhaustiveLimitExceeded { limit }) => {
            println!("exhaustive oracle skipped (> {limit} combinations)")
        }
        Err(other) => return Err(other),
    }
    if !reproduced {
        eprintln!("error: snippet / single-swap / multi-swap DoD are not the paper's 2 / 5 / 5");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
