//! Human-readable rendering of entity and attribute labels.
//!
//! Tag names in the datasets use `snake_case` (`easy_to_read`, `best_use`);
//! the paper's UI shows them as words ("easy to read", "best use"). These
//! helpers are purely cosmetic — the comparison algorithms never look at
//! display labels.

use crate::features::FeatureType;

/// Appends the short, paper-style label of a feature type to `out`, e.g.
/// `(shop/product/reviews/review, pros:compact)` → `"pros: compact"`, and
/// `(shop/product, name)` → `"name"`.
///
/// The entity path is dropped (the comparison table groups rows by entity
/// already); attribute path segments are joined with `": "`.
pub fn push_display_label(out: &mut String, ty: &FeatureType) {
    for c in ty.attribute.chars() {
        match c {
            '_' => out.push(' '),
            ':' => out.push_str(": "),
            c => out.push(c),
        }
    }
}

/// The short name of an entity path: its last segment, prettified.
/// `shop/product/reviews/review` → `review`.
pub fn entity_short_name(entity_path: &str) -> String {
    let mut name = String::new();
    push_entity_short_name(&mut name, entity_path);
    name
}

/// Appends [`entity_short_name`] to `out`.
pub fn push_entity_short_name(out: &mut String, entity_path: &str) {
    let last = entity_path.rsplit('/').next().unwrap_or(entity_path);
    out.extend(last.chars().map(|c| if c == '_' { ' ' } else { c }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_label_joins_attribute_segments() {
        let display_label = |ty: &FeatureType| {
            let mut label = String::new();
            push_display_label(&mut label, ty);
            label
        };
        let ty = FeatureType {
            entity: "shop/product/reviews/review".into(),
            attribute: "pros:easy_to_read".into(),
        };
        assert_eq!(display_label(&ty), "pros: easy to read");
        let ty = FeatureType { entity: "shop/product".into(), attribute: "name".into() };
        assert_eq!(display_label(&ty), "name");
    }

    #[test]
    fn entity_short_name_takes_last_segment() {
        assert_eq!(entity_short_name("shop/product/reviews/review"), "review");
        assert_eq!(entity_short_name("product"), "product");
        assert_eq!(entity_short_name("a/b/big_thing"), "big thing");
    }
}
