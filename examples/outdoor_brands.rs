//! The demo paper's Outdoor Retailer scenario: "if a male user wants to buy
//! a jacket and issues a query {men, jackets}, then each result will be a
//! brand selling men's jackets … the user will learn, for example, brand
//! Marmot mainly sells rain jackets, while Columbia focuses on insulated ski
//! jackets."
//!
//! Run with: `cargo run --example outdoor_brands`

use xsact::prelude::*;
use xsact_data::{OutdoorGen, OutdoorGenConfig};
use xsact_xml::NodeId;

fn main() -> Result<(), XsactError> {
    let doc = OutdoorGen::new(OutdoorGenConfig { seed: 7, products: (40, 90), focus_bias: 0.8 })
        .generate();
    println!(
        "generated Outdoor Retailer dataset: {} brands, {} XML nodes",
        doc.children_by_tag(doc.root(), "brand").count(),
        doc.len()
    );
    let wb = Workbench::from_document(doc);

    // Product-level matches for {men, jackets} …
    let query = wb.query("men jackets")?;
    let results = &query.ranking().hits;
    println!("query {{men, jackets}}: {} matching products", results.len());

    // … lifted to the brand level, as the paper's XSeek configuration
    // returns brands.
    let doc = wb.document();
    let mut brands: Vec<NodeId> = Vec::new();
    for hit in results {
        let mut cur = hit.result.root;
        while doc.tag(cur) != "brand" {
            match doc.parent(cur) {
                Some(p) => cur = p,
                None => break, // structurally impossible in this dataset
            }
        }
        if doc.tag(cur) == "brand" && !brands.contains(&cur) {
            brands.push(cur);
        }
    }
    println!("…from {} distinct brands\n", brands.len());

    // The user compares a handful of brands; subtree features go through
    // the workbench cache like any other result.
    let features: Vec<ResultFeatures> = brands
        .iter()
        .take(4)
        .map(|&b| {
            let name = doc
                .child_by_tag(b, "name")
                .map(|n| doc.text_content(n))
                .unwrap_or_else(|| doc.tag(b).to_owned());
            wb.subtree_features(b, name)
        })
        .collect();
    if features.len() < 2 {
        println!("not enough brands to compare");
        return Ok(());
    }

    let outcome = Comparison::new(&features).size_bound(6).run(Algorithm::MultiSwap);
    println!(
        "brand comparison table (DoD = {} of ≤ {}):",
        outcome.dod(),
        outcome.dod_upper_bound()
    );
    println!("{}", outcome.table());

    // Show each brand's dominant subcategory — the "focus" the table
    // surfaces.
    println!("brand focuses (dominant product subcategory):");
    for rf in &features {
        let focus = rf.stats().find(|s| s.attribute() == "subcategory").map(|s| s.dominant());
        if let Some((value, count)) = focus {
            println!("  {:<12} {value} ({count} products)", rf.label());
        }
    }
    Ok(())
}
