//! The Outdoor Retailer dataset (REI.com substitute).
//!
//! "The Outdoor Retailer dataset … contains a set of brands and products
//! for outdoor recreation and sporting … Each brand has a set of products,
//! and each product has a set of features" (paper §3). The demo's scenario:
//! a query `{men, jackets}` returns brands selling men's jackets, and the
//! comparison table reveals each brand's focus — "Marmot mainly sells rain
//! jackets, while Columbia focuses on insulated ski jackets".
//!
//! Each generated brand has focus subcategories (from
//! [`vocab::BRANDS`]) that receive most of its products, so brand-level
//! feature histograms genuinely differ.

use crate::vocab;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xsact_xml::Document;

/// Configuration of the Outdoor Retailer generator.
#[derive(Debug, Clone, Copy)]
pub struct OutdoorGenConfig {
    /// RNG seed.
    pub seed: u64,
    /// Inclusive range of products per brand ("a brand can have hundreds of
    /// products").
    pub products: (usize, usize),
    /// Probability that a product falls into one of the brand's focus
    /// subcategories rather than a random one.
    pub focus_bias: f64,
}

impl Default for OutdoorGenConfig {
    fn default() -> Self {
        OutdoorGenConfig { seed: 42, products: (20, 80), focus_bias: 0.75 }
    }
}

/// Deterministic Outdoor Retailer generator. All brands in
/// [`vocab::BRANDS`] are generated.
#[derive(Debug, Clone)]
pub struct OutdoorGen {
    config: OutdoorGenConfig,
}

impl OutdoorGen {
    /// Creates a generator with the given configuration.
    pub fn new(config: OutdoorGenConfig) -> Self {
        OutdoorGen { config }
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Document {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut doc = Document::new("retailer");
        let root = doc.root();

        for (brand_name, focus) in vocab::BRANDS {
            let brand = doc.add_element(root, "brand");
            doc.add_leaf(brand, "name", *brand_name);
            let products = doc.add_element(brand, "products");
            let n = rng.random_range(cfg.products.0..=cfg.products.1);
            for _ in 0..n {
                // Pick a subcategory: biased towards the brand's focus.
                let sub = if rng.random_bool(cfg.focus_bias) {
                    focus[rng.random_range(0..focus.len())]
                } else {
                    let (_, subs, _) = vocab::OUTDOOR_CATEGORIES
                        [rng.random_range(0..vocab::OUTDOOR_CATEGORIES.len())];
                    subs[rng.random_range(0..subs.len())]
                };
                let (category, _, materials) = vocab::OUTDOOR_CATEGORIES
                    .iter()
                    .find(|(_, subs, _)| subs.contains(&sub))
                    .expect("subcategory belongs to a category");

                let product = doc.add_element(products, "product");
                let gender = vocab::GENDERS[rng.random_range(0..vocab::GENDERS.len())];
                doc.add_leaf(
                    product,
                    "name",
                    format!(
                        "{brand_name} {} {} {}",
                        capitalize(sub),
                        capitalize(category),
                        rng.random_range(100..999)
                    ),
                );
                doc.add_leaf(product, "category", *category);
                doc.add_leaf(product, "subcategory", sub);
                doc.add_leaf(product, "gender", gender);
                doc.add_leaf(product, "material", materials[rng.random_range(0..materials.len())]);
                doc.add_leaf(product, "price", format!("{}.00", rng.random_range(20..700)));
                doc.add_leaf(product, "weight_grams", rng.random_range(150..3_000u32).to_string());
                if *category == "jackets" {
                    doc.add_leaf(
                        product,
                        "waterproof",
                        if rng.random_bool(0.6) { "yes" } else { "no" },
                    );
                }
            }
        }
        doc
    }
}

fn capitalize(snake: &str) -> String {
    snake
        .split('_')
        .map(|w| {
            let mut chars = w.chars();
            match chars.next() {
                Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
                None => String::new(),
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsact_xml::writer::write_subtree;

    fn small() -> Document {
        OutdoorGen::new(OutdoorGenConfig { seed: 5, products: (10, 20), focus_bias: 0.8 })
            .generate()
    }

    #[test]
    fn all_brands_generated() {
        let doc = small();
        assert_eq!(doc.children_by_tag(doc.root(), "brand").count(), vocab::BRANDS.len());
    }

    #[test]
    fn products_have_schema() {
        let doc = small();
        for brand in doc.children_by_tag(doc.root(), "brand") {
            let products = doc.child_by_tag(brand, "products").unwrap();
            for p in doc.children_by_tag(products, "product") {
                for tag in ["name", "category", "subcategory", "gender", "material", "price"] {
                    assert!(doc.child_by_tag(p, tag).is_some(), "missing {tag}");
                }
            }
        }
    }

    #[test]
    fn focus_bias_shapes_brand_profile() {
        let doc =
            OutdoorGen::new(OutdoorGenConfig { seed: 11, products: (60, 60), focus_bias: 0.9 })
                .generate();
        // Marmot focuses on rain_jackets/tents/sleeping_bags; count its
        // focus products vs. others.
        let marmot = doc
            .children_by_tag(doc.root(), "brand")
            .find(|&b| {
                doc.child_by_tag(b, "name")
                    .map(|n| doc.text_content(n) == "Marmot")
                    .unwrap_or(false)
            })
            .unwrap();
        let focus: &[&str] = &["rain_jackets", "backpacking", "three_season"];
        let (mut in_focus, mut total) = (0usize, 0usize);
        for n in doc.descendants(marmot) {
            if doc.is_element(n) && doc.tag(n) == "subcategory" {
                total += 1;
                if focus.contains(&doc.text_content(n).as_str()) {
                    in_focus += 1;
                }
            }
        }
        assert_eq!(total, 60);
        assert!(in_focus * 2 > total, "focus bias too weak: {in_focus}/{total}");
    }

    #[test]
    fn jackets_have_waterproof_flag() {
        let doc = small();
        let mut saw_jacket = false;
        for n in doc.all_nodes() {
            if doc.is_element(n) && doc.tag(n) == "product" {
                let cat = doc.text_content(doc.child_by_tag(n, "category").unwrap());
                if cat == "jackets" {
                    saw_jacket = true;
                    assert!(doc.child_by_tag(n, "waterproof").is_some());
                }
            }
        }
        assert!(saw_jacket);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = OutdoorGenConfig { seed: 2, products: (5, 10), focus_bias: 0.5 };
        let a = OutdoorGen::new(cfg).generate();
        let b = OutdoorGen::new(cfg).generate();
        assert_eq!(write_subtree(&a, a.root()), write_subtree(&b, b.root()));
    }

    #[test]
    fn capitalize_helper() {
        assert_eq!(capitalize("rain_jackets"), "Rain Jackets");
        assert_eq!(capitalize("tents"), "Tents");
        assert_eq!(capitalize(""), "");
    }
}
