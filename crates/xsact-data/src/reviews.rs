//! The Product Reviews dataset (buzzillions.com substitute).
//!
//! "The Product Reviews dataset … contains a set of GPS, mobile phone and
//! digital camera products, each associated with a price, an aggregated
//! user rating and a set of reviews. Each review consists of … a set of
//! features of the product in the reviewer's opinion, such as the pros,
//! cons and best uses." (paper §3)
//!
//! Each generated product draws a per-flag probability profile, so products
//! genuinely differ in which pros/cons reviewers report — exactly the
//! signal the DFS algorithms are meant to surface.

use crate::vocab;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xsact_xml::Document;

/// Configuration of the Product Reviews generator.
#[derive(Debug, Clone, Copy)]
pub struct ReviewsGenConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of products.
    pub products: usize,
    /// Inclusive range of reviews per product ("a product can have hundreds
    /// of reviews").
    pub reviews: (usize, usize),
}

impl Default for ReviewsGenConfig {
    fn default() -> Self {
        ReviewsGenConfig { seed: 42, products: 24, reviews: (8, 120) }
    }
}

/// Deterministic Product Reviews generator.
#[derive(Debug, Clone)]
pub struct ReviewsGen {
    config: ReviewsGenConfig,
}

impl ReviewsGen {
    /// Creates a generator with the given configuration.
    pub fn new(config: ReviewsGenConfig) -> Self {
        ReviewsGen { config }
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Document {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut doc = Document::new("shop");
        let root = doc.root();

        for p in 0..cfg.products {
            let (kind, brand, models) = vocab::PRODUCT_LINES[p % vocab::PRODUCT_LINES.len()];
            let model = models[rng.random_range(0..models.len())];
            let product = doc.add_element(root, "product");
            doc.add_leaf(product, "name", format!("{brand} {model} {}", kind.to_uppercase()));
            doc.add_leaf(product, "brand", brand);
            doc.add_leaf(product, "price", format!("{}.95", rng.random_range(49..600)));
            doc.add_leaf(
                product,
                "rating",
                format!("{:.1}", 2.5 + rng.random_range(0..26) as f64 / 10.0),
            );

            // Per-product opinion profile: probability that a reviewer
            // reports each flag.
            let pros = vocab::pool_for(vocab::PROS, kind);
            let cons = vocab::pool_for(vocab::CONS, kind);
            let uses = vocab::pool_for(vocab::BEST_USES, kind);
            let cats = vocab::pool_for(vocab::USER_CATEGORIES, kind);
            let pro_profile: Vec<f64> = pros.iter().map(|_| rng.random_range(0.0..0.9)).collect();
            let con_profile: Vec<f64> = cons.iter().map(|_| rng.random_range(0.0..0.4)).collect();
            let use_profile: Vec<f64> = uses.iter().map(|_| rng.random_range(0.0..0.7)).collect();
            let cat_profile: Vec<f64> = cats.iter().map(|_| rng.random_range(0.0..0.6)).collect();

            let reviews = doc.add_element(product, "reviews");
            let n_reviews = rng.random_range(cfg.reviews.0..=cfg.reviews.1);
            for _ in 0..n_reviews {
                let review = doc.add_element(reviews, "review");
                let chosen_pros: Vec<&str> = pros
                    .iter()
                    .zip(&pro_profile)
                    .filter(|&(_, &p)| rng.random_bool(p))
                    .map(|(&f, _)| f)
                    .collect();
                if !chosen_pros.is_empty() {
                    let el = doc.add_element(review, "pros");
                    for f in chosen_pros {
                        doc.add_leaf(el, f, "yes");
                    }
                }
                let chosen_cons: Vec<&str> = cons
                    .iter()
                    .zip(&con_profile)
                    .filter(|&(_, &p)| rng.random_bool(p))
                    .map(|(&f, _)| f)
                    .collect();
                if !chosen_cons.is_empty() {
                    let el = doc.add_element(review, "cons");
                    for f in chosen_cons {
                        doc.add_leaf(el, f, "yes");
                    }
                }
                let chosen_uses: Vec<&str> = uses
                    .iter()
                    .zip(&use_profile)
                    .filter(|&(_, &p)| rng.random_bool(p))
                    .map(|(&f, _)| f)
                    .collect();
                let chosen_cats: Vec<&str> = cats
                    .iter()
                    .zip(&cat_profile)
                    .filter(|&(_, &p)| rng.random_bool(p))
                    .map(|(&f, _)| f)
                    .collect();
                if !chosen_uses.is_empty() || !chosen_cats.is_empty() {
                    let el = doc.add_element(review, "uses");
                    if !chosen_uses.is_empty() {
                        let bu = doc.add_element(el, "best_use");
                        for f in chosen_uses {
                            doc.add_leaf(bu, f, "yes");
                        }
                    }
                    if !chosen_cats.is_empty() {
                        let cat = doc.add_element(el, "category");
                        for f in chosen_cats {
                            doc.add_leaf(cat, f, "yes");
                        }
                    }
                }
            }
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsact_xml::writer::write_subtree;

    fn small() -> Document {
        ReviewsGen::new(ReviewsGenConfig { seed: 1, products: 9, reviews: (3, 10) }).generate()
    }

    #[test]
    fn generates_requested_products() {
        let doc = small();
        assert_eq!(doc.children_by_tag(doc.root(), "product").count(), 9);
    }

    #[test]
    fn products_have_core_attributes() {
        let doc = small();
        for p in doc.children_by_tag(doc.root(), "product") {
            for tag in ["name", "brand", "price", "rating", "reviews"] {
                assert!(doc.child_by_tag(p, tag).is_some(), "missing {tag}");
            }
            let reviews = doc.child_by_tag(p, "reviews").unwrap();
            let n = doc.children_by_tag(reviews, "review").count();
            assert!((3..=10).contains(&n));
        }
    }

    #[test]
    fn review_counts_respect_range() {
        let doc = ReviewsGen::new(ReviewsGenConfig { seed: 3, products: 5, reviews: (50, 60) })
            .generate();
        for p in doc.children_by_tag(doc.root(), "product") {
            let reviews = doc.child_by_tag(p, "reviews").unwrap();
            let n = doc.children_by_tag(reviews, "review").count();
            assert!((50..=60).contains(&n), "got {n}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = ReviewsGenConfig { seed: 9, products: 6, reviews: (2, 8) };
        let a = ReviewsGen::new(cfg).generate();
        let b = ReviewsGen::new(cfg).generate();
        assert_eq!(write_subtree(&a, a.root()), write_subtree(&b, b.root()));
    }

    #[test]
    fn names_carry_brand_and_kind_terms() {
        let doc = small();
        let mut saw_gps = false;
        for p in doc.children_by_tag(doc.root(), "product") {
            let name = doc.text_content(doc.child_by_tag(p, "name").unwrap());
            if name.contains("GPS") {
                saw_gps = true;
            }
        }
        assert!(saw_gps, "at least one GPS product expected");
    }

    #[test]
    fn flags_come_from_category_pools() {
        let doc = small();
        let all_flags: Vec<&str> = vocab::PROS
            .iter()
            .chain(vocab::CONS)
            .chain(vocab::BEST_USES)
            .chain(vocab::USER_CATEGORIES)
            .flat_map(|(_, pool)| pool.iter().copied())
            .collect();
        for n in doc.all_nodes() {
            if doc.is_element(n) && doc.is_leaf_element(n) && doc.text_content(n) == "yes" {
                assert!(all_flags.contains(&doc.tag(n)), "unknown flag {}", doc.tag(n));
            }
        }
    }
}
