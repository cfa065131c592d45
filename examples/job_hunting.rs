//! The paper's "employee hiring / job hunting" motivating domain: search a
//! job board for senior engineering roles, then compare the *companies* —
//! which skills does each actually hire for, which benefits do they offer?
//!
//! Run with: `cargo run --example job_hunting`

use std::sync::Arc;
use xsact::core::{compare, Instance};
use xsact::prelude::*;
use xsact_data::{JobsGen, JobsGenConfig};
use xsact_xml::NodeId;

fn main() -> Result<(), XsactError> {
    let doc =
        JobsGen::new(JobsGenConfig { seed: 17, openings: (12, 40), focus_bias: 0.75 }).generate();
    println!(
        "generated job board: {} companies, {} XML nodes",
        doc.children_by_tag(doc.root(), "company").count(),
        doc.len()
    );
    let wb = Workbench::from_document(doc);

    // A candidate looks for senior engineer roles…
    let pipeline = wb.query("senior engineer")?;
    let results = &pipeline.ranking().hits;
    println!("query {}: {} matching openings", pipeline.query_text(), results.len());

    // …and compares the companies behind them.
    let doc = wb.document();
    let mut companies: Vec<NodeId> = Vec::new();
    for hit in results {
        let mut cur = hit.result.root;
        while doc.tag(cur) != "company" {
            match doc.parent(cur) {
                Some(p) => cur = p,
                None => break, // structurally impossible in this dataset
            }
        }
        if doc.tag(cur) == "company" && !companies.contains(&cur) {
            companies.push(cur);
        }
    }
    println!("…at {} distinct companies\n", companies.len());

    let features: Vec<ResultFeatures> = companies
        .iter()
        .take(4)
        .map(|&c| {
            let name = doc
                .child_by_tag(c, "name")
                .map(|n| doc.text_content(n))
                .unwrap_or_else(|| doc.tag(c).to_owned());
            wb.subtree_features(c, name)
        })
        .collect();
    if features.len() < 2 {
        println!("not enough companies to compare");
        return Ok(());
    }

    let instance =
        Arc::new(Instance::build(&features, DfsConfig { size_bound: 7, ..DfsConfig::default() }));
    for algorithm in [Algorithm::Snippet, Algorithm::MultiSwap] {
        let outcome = compare(&instance, algorithm)?;
        println!(
            "{:<11} DoD = {} (upper bound {})",
            algorithm.name(),
            outcome.dod(),
            outcome.dod_upper_bound()
        );
        if algorithm == Algorithm::MultiSwap {
            println!("{}", outcome.table());
        }
    }

    // The hiring-focus summary the table reveals.
    println!("dominant required skill per company:");
    for rf in &features {
        if let Some(stat) = rf.stats().find(|s| s.attribute() == "requirements:skill") {
            let (skill, count) = stat.dominant();
            println!("  {:<16} {skill} ({count} openings mention it)", rf.label());
        }
    }
    Ok(())
}
