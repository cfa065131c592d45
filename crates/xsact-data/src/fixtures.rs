//! The paper's worked example (Figure 1) as an exact fixture.
//!
//! Figure 1 shows fragments of two results of the query `{TomTom, GPS}` on
//! the Product Reviews dataset, together with their statistics:
//!
//! ```text
//! GPS 1 — TomTom Go 630 Portable GPS, rating 4.2, 11 reviews
//!   pro: easy to read: 10      pro: compact: 8
//!   best use: auto: 6          category: casual: 6
//!   pro: large screen: 1       (… pro: easy to setup: 2)
//! GPS 3 — TomTom Go 730 GPS (Tri-lingual) BOX, rating 4.1, 68 reviews
//!   pro: satellites: 44        pro: easy to setup: 40
//!   pro: compact: 38           best use: routers: 26
//!   pro: large screen: 4       (… best use: auto: 5)
//! ```
//!
//! The counts in parentheses are not printed in the paper (they sit behind
//! the "…" of the statistics panels); they are chosen so that the paper's
//! two headline numbers hold exactly:
//!
//! * the Figure 1 *snippets* (top-6 features per result) share three types —
//!   name, rating, compact — of which rating (4.2 vs 4.1, within 10%) does
//!   not differentiate → **snippet DoD = 2**;
//! * the Figure 2 comparison table generated by XSACT shares name, compact,
//!   large screen, easy to setup and auto, all differentiable →
//!   **XSACT DoD = 5** (at table size bound L = 7).
//!
//! Integration tests (`tests/paper_example.rs`) assert both numbers
//! end-to-end.

use xsact_xml::{Document, NodeId};

/// The paper's running query.
pub const PAPER_QUERY: &str = "TomTom GPS";

/// Size bound used for the Figure 1 snippets (six features are visible per
/// snippet in the figure).
pub const SNIPPET_BOUND: usize = 6;

/// Size bound of the Figure 2 comparison table.
pub const TABLE_BOUND: usize = 7;

/// Display name of result 1.
pub const GPS1_NAME: &str = "TomTom Go 630 Portable GPS";

/// Display name of result 3.
pub const GPS3_NAME: &str = "TomTom Go 730 GPS (Tri-lingual) BOX";

/// `(pros, best_uses, categories)` flag counts of GPS 1 over 11 reviews.
const GPS1_FLAGS: ProductFlags = ProductFlags {
    reviews: 11,
    pros: &[("easy_to_read", 10), ("compact", 8), ("easy_to_setup", 2), ("large_screen", 1)],
    best_uses: &[("auto", 6)],
    categories: &[("casual_user", 6)],
};

/// Flag counts of GPS 3 over 68 reviews.
const GPS3_FLAGS: ProductFlags = ProductFlags {
    reviews: 68,
    pros: &[
        ("acquires_satellites_quickly", 44),
        ("easy_to_setup", 40),
        ("compact", 38),
        ("large_screen", 4),
    ],
    best_uses: &[("faster_routers", 26), ("auto", 5)],
    categories: &[],
};

/// Per-product review flag specification: each flag `(name, count)` is set
/// to `yes` in the first `count` of the product's reviews.
#[derive(Debug, Clone, Copy)]
struct ProductFlags {
    /// Number of reviews of the product.
    reviews: usize,
    /// `pros/<flag>` counts.
    pros: &'static [(&'static str, u32)],
    /// `uses/best_use/<flag>` counts.
    best_uses: &'static [(&'static str, u32)],
    /// `uses/category/<flag>` counts.
    categories: &'static [(&'static str, u32)],
}

/// Builds the Figure 1 document: the two TomTom GPS results with their exact
/// statistics, plus two non-matching filler products (a Garmin GPS and a
/// Canon camera) so the query actually has to select.
pub fn figure1_document() -> Document {
    let mut doc = Document::new("shop");
    let root = doc.root();

    add_product(&mut doc, root, GPS1_NAME, "4.2", &GPS1_FLAGS);

    // Filler: matches "GPS" but not "TomTom".
    add_product(
        &mut doc,
        root,
        "Garmin Nuvi 350 GPS",
        "4.0",
        &ProductFlags {
            reviews: 5,
            pros: &[("easy_to_read", 4), ("compact", 2)],
            best_uses: &[("auto", 3)],
            categories: &[("commuter", 2)],
        },
    );

    add_product(&mut doc, root, GPS3_NAME, "4.1", &GPS3_FLAGS);

    // Filler: matches neither query term.
    add_product(
        &mut doc,
        root,
        "Canon PowerShot SD1000 camera",
        "4.5",
        &ProductFlags {
            reviews: 3,
            pros: &[("sharp_pictures", 3), ("compact", 2)],
            best_uses: &[("travel", 2)],
            categories: &[("enthusiast", 1)],
        },
    );

    doc
}

fn add_product(
    doc: &mut Document,
    root: NodeId,
    name: &str,
    rating: &str,
    flags: &ProductFlags,
) -> NodeId {
    let product = doc.add_element(root, "product");
    doc.add_leaf(product, "name", name);
    doc.add_leaf(product, "rating", rating);
    let reviews = doc.add_element(product, "reviews");
    for r in 0..flags.reviews {
        let review = doc.add_element(reviews, "review");
        let set: Vec<(&str, &str)> = flags
            .pros
            .iter()
            .filter(|&&(_, c)| (r as u32) < c)
            .map(|&(f, _)| ("pros", f))
            .collect();
        if !set.is_empty() {
            let pros = doc.add_element(review, "pros");
            for (_, flag) in &set {
                doc.add_leaf(pros, *flag, "yes");
            }
        }
        let best: Vec<&str> =
            flags.best_uses.iter().filter(|&&(_, c)| (r as u32) < c).map(|&(f, _)| f).collect();
        let cats: Vec<&str> =
            flags.categories.iter().filter(|&&(_, c)| (r as u32) < c).map(|&(f, _)| f).collect();
        if !best.is_empty() || !cats.is_empty() {
            let uses = doc.add_element(review, "uses");
            if !best.is_empty() {
                let bu = doc.add_element(uses, "best_use");
                for flag in best {
                    doc.add_leaf(bu, flag, "yes");
                }
            }
            if !cats.is_empty() {
                let cat = doc.add_element(uses, "category");
                for flag in cats {
                    doc.add_leaf(cat, flag, "yes");
                }
            }
        }
    }
    product
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsact_xml::writer::write_subtree;

    fn count_flags(doc: &Document, product: NodeId, flag: &str) -> usize {
        doc.descendants(product).filter(|&n| doc.is_element(n) && doc.tag(n) == flag).count()
    }

    fn product_by_name(doc: &Document, name: &str) -> NodeId {
        doc.children_by_tag(doc.root(), "product")
            .find(|&p| {
                doc.child_by_tag(p, "name").map(|n| doc.text_content(n) == name).unwrap_or(false)
            })
            .unwrap_or_else(|| panic!("product {name} not found"))
    }

    #[test]
    fn document_has_four_products() {
        let doc = figure1_document();
        assert_eq!(doc.children_by_tag(doc.root(), "product").count(), 4);
    }

    #[test]
    fn gps1_counts_match_figure1() {
        let doc = figure1_document();
        let p = product_by_name(&doc, GPS1_NAME);
        let reviews = doc.child_by_tag(p, "reviews").unwrap();
        assert_eq!(doc.children_by_tag(reviews, "review").count(), 11);
        assert_eq!(count_flags(&doc, p, "easy_to_read"), 10);
        assert_eq!(count_flags(&doc, p, "compact"), 8);
        assert_eq!(count_flags(&doc, p, "auto"), 6);
        assert_eq!(count_flags(&doc, p, "casual_user"), 6);
        assert_eq!(count_flags(&doc, p, "easy_to_setup"), 2);
        assert_eq!(count_flags(&doc, p, "large_screen"), 1);
    }

    #[test]
    fn gps3_counts_match_figure1() {
        let doc = figure1_document();
        let p = product_by_name(&doc, GPS3_NAME);
        let reviews = doc.child_by_tag(p, "reviews").unwrap();
        assert_eq!(doc.children_by_tag(reviews, "review").count(), 68);
        assert_eq!(count_flags(&doc, p, "acquires_satellites_quickly"), 44);
        assert_eq!(count_flags(&doc, p, "easy_to_setup"), 40);
        assert_eq!(count_flags(&doc, p, "compact"), 38);
        assert_eq!(count_flags(&doc, p, "faster_routers"), 26);
        assert_eq!(count_flags(&doc, p, "auto"), 5);
        assert_eq!(count_flags(&doc, p, "large_screen"), 4);
    }

    #[test]
    fn ratings_present() {
        let doc = figure1_document();
        let p1 = product_by_name(&doc, GPS1_NAME);
        let p3 = product_by_name(&doc, GPS3_NAME);
        let rating = |p| {
            let r = doc.child_by_tag(p, "rating").unwrap();
            doc.text_content(r)
        };
        assert_eq!(rating(p1), "4.2");
        assert_eq!(rating(p3), "4.1");
    }

    #[test]
    fn fixture_is_deterministic() {
        let a = figure1_document();
        let b = figure1_document();
        assert_eq!(write_subtree(&a, a.root()), write_subtree(&b, b.root()));
    }

    #[test]
    fn fixture_round_trips_through_xml() {
        let doc = figure1_document();
        let xml = write_subtree(&doc, doc.root());
        let reparsed = xsact_xml::parse_document(&xml).unwrap();
        assert_eq!(reparsed.len(), doc.len());
    }
}
