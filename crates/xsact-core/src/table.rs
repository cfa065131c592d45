//! Rendering a DFS set as a comparison table (paper Figure 2).
//!
//! Rows are the feature types selected by at least one DFS, grouped by
//! entity; columns are the results. A cell shows the dominant value and, for
//! multi-instance entities, its occurrence percentage — e.g. `yes (73%)`.
//! A `—` cell means the feature type is *not in that result's DFS*: per the
//! paper, absence is "unknown", like a NULL value, and never differentiates.

use crate::dfs::DfsSet;
use crate::model::{Instance, TypeId};
use std::borrow::Cow;
use xsact_entity::label::{display_label, entity_short_name};

/// Renders the comparison table of a DFS set over its instance.
pub fn render_table(inst: &Instance, set: &DfsSet) -> String {
    let rows = table_rows(inst, set);
    let header: Vec<Cow<'_, str>> = std::iter::once("feature")
        .chain(inst.results.iter().map(|r| r.label.as_str()))
        .map(Cow::Borrowed)
        .collect();

    let mut body: Vec<Vec<Cow<'_, str>>> = Vec::with_capacity(rows.len());
    for &t in &rows {
        let mut row = Vec::with_capacity(inst.results.len() + 1);
        row.push(Cow::Owned(row_label(inst, t)));
        for (i, result) in inst.results.iter().enumerate() {
            if set.dfs(i).contains(inst, i, t) {
                let cell = result.cells[t].as_ref().expect("selected type has a cell");
                if cell.instances > 1 {
                    row.push(Cow::Owned(format!("{} ({:.0}%)", cell.value, cell.ratio * 100.0)));
                } else {
                    row.push(Cow::Borrowed(cell.value.as_str()));
                }
            } else {
                row.push(Cow::Borrowed("—"));
            }
        }
        body.push(row);
    }
    render_grid(&header, &body)
}

/// The row order of the comparison table: selected types grouped by entity,
/// each group sorted by best significance across results (then attribute).
pub fn table_rows(inst: &Instance, set: &DfsSet) -> Vec<TypeId> {
    let mut selected: Vec<bool> = vec![false; inst.type_count()];
    for i in 0..set.len() {
        for t in set.dfs(i).selected_types(inst, i) {
            selected[t] = true;
        }
    }
    let best_sig = |t: TypeId| -> f64 {
        inst.results
            .iter()
            .filter_map(|r| r.cells[t].as_ref())
            .map(|c| c.sig_ratio)
            .fold(0.0, f64::max)
    };
    // A scan over all results per type: paid once per row, not per
    // comparison of the sort.
    let mut rows: Vec<(TypeId, f64)> =
        (0..inst.type_count()).filter(|&t| selected[t]).map(|t| (t, best_sig(t))).collect();
    rows.sort_by(|&(a, sig_a), &(b, sig_b)| {
        inst.entity_of[a]
            .cmp(&inst.entity_of[b])
            .then_with(|| sig_b.partial_cmp(&sig_a).expect("ratios are finite"))
            .then_with(|| inst.types[a].attribute.cmp(&inst.types[b].attribute))
    });
    rows.into_iter().map(|(t, _)| t).collect()
}

fn row_label(inst: &Instance, t: TypeId) -> String {
    let ty = &inst.types[t];
    format!("{} · {}", entity_short_name(&ty.entity), display_label(ty))
}

/// Plain ASCII grid with `+---+` borders.
fn render_grid(header: &[Cow<'_, str>], body: &[Vec<Cow<'_, str>>]) -> String {
    let columns = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| display_width(h)).collect();
    for row in body {
        for (c, cell) in row.iter().enumerate() {
            widths[c] = widths[c].max(display_width(cell));
        }
    }
    let mut out = String::new();
    let rule = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.extend(std::iter::repeat_n('-', w + 2));
        }
        out.push_str("+\n");
    };
    let line = |out: &mut String, cells: &[Cow<'_, str>]| {
        for (c, cell) in cells.iter().enumerate() {
            out.push_str("| ");
            out.push_str(cell);
            out.extend(std::iter::repeat_n(' ', widths[c] - display_width(cell) + 1));
        }
        out.push_str("|\n");
    };
    rule(&mut out);
    line(&mut out, header);
    rule(&mut out);
    for row in body {
        debug_assert_eq!(row.len(), columns);
        line(&mut out, row);
    }
    rule(&mut out);
    out
}

/// Character count (not bytes) — good enough for the box layout with the
/// `—` dash and accented text the datasets produce.
fn display_width(s: &str) -> usize {
    s.chars().count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::Dfs;
    use crate::model::DfsConfig;
    use xsact_entity::{FeatureType, ResultFeatures};

    fn sample() -> (Instance, DfsSet) {
        let a = ResultFeatures::from_raw(
            "GPS 1",
            [("shop/product".to_string(), 1), ("shop/product/reviews/review".to_string(), 11)],
            [
                (FeatureType::new("shop/product", "name"), "TomTom Go 630".to_string(), 1),
                (
                    FeatureType::new("shop/product/reviews/review", "pros:compact"),
                    "yes".to_string(),
                    8,
                ),
            ],
        );
        let b = ResultFeatures::from_raw(
            "GPS 3",
            [("shop/product".to_string(), 1), ("shop/product/reviews/review".to_string(), 68)],
            [
                (FeatureType::new("shop/product", "name"), "TomTom Go 730".to_string(), 1),
                (
                    FeatureType::new("shop/product/reviews/review", "pros:compact"),
                    "yes".to_string(),
                    38,
                ),
            ],
        );
        let inst = Instance::build(&[a, b], DfsConfig { size_bound: 4, threshold_pct: 10.0 });
        let dfss = (0..2).map(|i| Dfs::from_prefixes(&inst, i, &[9, 9])).collect();
        let set = DfsSet::from_dfss(&inst, dfss);
        (inst, set)
    }

    #[test]
    fn table_contains_labels_values_and_percentages() {
        let (inst, set) = sample();
        let table = render_table(&inst, &set);
        assert!(table.contains("GPS 1"));
        assert!(table.contains("GPS 3"));
        assert!(table.contains("product · name"));
        assert!(table.contains("review · pros: compact"));
        assert!(table.contains("TomTom Go 630"));
        // 8 / 11 → 73%, 38 / 68 → 56%.
        assert!(table.contains("yes (73%)"));
        assert!(table.contains("yes (56%)"));
        // Single-instance entities show the bare value, no percentage.
        assert!(!table.contains("TomTom Go 630 (100%)"));
    }

    #[test]
    fn unselected_types_render_as_dash() {
        let (inst, _) = sample();
        // Only result 0 selects anything.
        let dfss =
            vec![Dfs::from_prefixes(&inst, 0, &[9, 9]), Dfs::from_prefixes(&inst, 1, &[0, 0])];
        let set = DfsSet::from_dfss(&inst, dfss);
        let table = render_table(&inst, &set);
        assert!(table.contains('—'));
        assert!(table.contains("TomTom Go 630"));
        assert!(!table.contains("TomTom Go 730"));
    }

    #[test]
    fn rows_grouped_by_entity() {
        let (inst, set) = sample();
        let rows = table_rows(&inst, &set);
        assert_eq!(rows.len(), 2);
        // product (entity index 0) before review (entity index 1).
        assert!(inst.entity_of[rows[0]] <= inst.entity_of[rows[1]]);
    }

    #[test]
    fn grid_is_rectangular() {
        let (inst, set) = sample();
        let table = render_table(&inst, &set);
        let line_widths: Vec<usize> = table.lines().map(|l| l.chars().count()).collect();
        assert!(line_widths.windows(2).all(|w| w[0] == w[1]));
        // 3 rules + header + 2 body rows.
        assert_eq!(table.lines().count(), 6);
    }

    #[test]
    fn empty_selection_renders_header_only() {
        let (inst, _) = sample();
        let set = DfsSet::empty(&inst);
        let table = render_table(&inst, &set);
        assert!(table.contains("feature"));
        assert_eq!(table.lines().count(), 4); // rules + header, no body
    }
}
