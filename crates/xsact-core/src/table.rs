//! Rendering a DFS set as a comparison table (paper Figure 2).
//!
//! Rows are the feature types selected by at least one DFS, grouped by
//! entity; columns are the results. A cell shows the dominant value and, for
//! multi-instance entities, its occurrence percentage — e.g. `yes (73%)`.
//! A `—` cell means the feature type is *not in that result's DFS*: per the
//! paper, absence is "unknown", like a NULL value, and never differentiates.
//!
//! [`render_table`] makes two passes over the grid. The first composes
//! every body cell once — row labels, values and `value (pct%)` cells, the
//! percentage written digit by digit without the float formatter — back to
//! back into one arena, noting where each ends and how wide it is; that
//! gives the column widths and the byte count, so the output is allocated
//! once, at its final size. The second copies the cells out of the arena
//! into the box.

use crate::bits;
use crate::dfs::DfsSet;
use crate::model::{Instance, TypeId};
use xsact_entity::label::{push_display_label, push_entity_short_name};

/// Renders the comparison table of a DFS set over its instance.
pub fn render_table(inst: &Instance, set: &DfsSet) -> String {
    const HEADER: &str = "feature";
    let rows = ranked_rows(inst, set);
    let n = inst.result_count();

    // Pass 1: the body cells into one arena, each with its end and width in
    // characters; the column widths; and how many bytes the table takes
    // beyond one per character.
    let mut arena = String::with_capacity(rows.len() * (n + 1) * 16);
    let mut cells: Vec<(usize, usize)> = Vec::with_capacity(rows.len() * (n + 1));
    let mut widths: Vec<usize> = vec![0; n + 1];
    let mut wide_bytes = 0;
    let mut measure = |column: usize, cell: &str| {
        let width = display_width(cell);
        widths[column] = widths[column].max(width);
        wide_bytes += cell.len() - width;
        width
    };
    measure(0, HEADER);
    for (i, label) in inst.labels().enumerate() {
        measure(i + 1, label);
    }
    for &(t, _) in &rows {
        for column in 0..=n {
            let start = arena.len();
            match column {
                0 => push_row_label(&mut arena, inst, t),
                _ => push_cell(&mut arena, inst, set, column - 1, t),
            }
            let width = measure(column, &arena[start..]);
            cells.push((arena.len(), width));
        }
    }

    // Pass 2: the bytes. Every line is `Σ (width + 3) + 2` characters.
    let line = widths.iter().map(|w| w + 3).sum::<usize>() + 2;
    let mut out = String::with_capacity((rows.len() + 4) * line + wide_bytes);
    let rule = |out: &mut String| {
        for &w in &widths {
            out.push('+');
            fill(out, DASHES, w + 2);
        }
        out.push_str("+\n");
    };
    let put = |out: &mut String, column: usize, cell: &str, width: usize| {
        out.push_str("| ");
        out.push_str(cell);
        fill(out, SPACES, widths[column] - width + 1);
        if column == n {
            out.push_str("|\n");
        }
    };
    rule(&mut out);
    put(&mut out, 0, HEADER, display_width(HEADER));
    for (i, label) in inst.labels().enumerate() {
        put(&mut out, i + 1, label, display_width(label));
    }
    rule(&mut out);
    let mut start = 0;
    for (k, &(end, width)) in cells.iter().enumerate() {
        put(&mut out, k % (n + 1), &arena[start..end], width);
        start = end;
    }
    rule(&mut out);
    out
}

/// The row order of the comparison table: selected types grouped by entity,
/// each group sorted by best significance across results (then attribute).
#[cfg(test)]
fn table_rows(inst: &Instance, set: &DfsSet) -> Vec<TypeId> {
    ranked_rows(inst, set).into_iter().map(|(t, _)| t).collect()
}

/// [`table_rows`] with each row's sort key, the best significance ratio of
/// the type across the results that have it.
fn ranked_rows(inst: &Instance, set: &DfsSet) -> Vec<(TypeId, f64)> {
    // Selected by anyone: the union of the selection masks.
    let mut selected = vec![0u64; inst.words_per_row()];
    for i in 0..set.len() {
        for (union, word) in selected.iter_mut().zip(set.mask(i)) {
            *union |= word;
        }
    }
    // A scan over all results per type: paid once per row, not per
    // comparison of the sort.
    let best_sig =
        |t: TypeId| (0..inst.result_count()).map(|i| inst.sig_ratio(i, t)).fold(0.0, f64::max);
    let mut rows: Vec<(TypeId, f64)> =
        Vec::with_capacity(xsact_kernel::and2_count(&selected, &selected) as usize);
    bits::for_each_bit(&selected, |t| rows.push((t, best_sig(t))));
    rows.sort_by(|&(a, sig_a), &(b, sig_b)| {
        inst.entity_of[a]
            .cmp(&inst.entity_of[b])
            .then_with(|| sig_b.partial_cmp(&sig_a).expect("ratios are finite"))
            .then_with(|| inst.types[a].attribute.cmp(&inst.types[b].attribute))
    });
    rows
}

/// Appends what the cell of result `i` and type `t` shows: `—` outside the
/// result's DFS, else the dominant value — bare for a single-instance
/// entity, with its occurrence percentage otherwise.
fn push_cell(out: &mut String, inst: &Instance, set: &DfsSet, i: usize, t: TypeId) {
    if !bits::test_bit(set.mask(i), t) {
        out.push('—');
        return;
    }
    let cell = inst.cell(i, t).expect("selected type has a cell");
    out.push_str(cell.value);
    if cell.instances > 1 {
        // `{:.0}` of the percentage: rounding to an integer with ties to
        // even is what it does (pinned below), and a count over an instance
        // count times 100 fits a `u64` many times over.
        out.push_str(" (");
        push_digits(out, (cell.ratio * 100.0).round_ties_even() as u64);
        out.push_str("%)");
    }
}

/// Appends the decimal digits of `value`.
fn push_digits(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Appends the row label `<entity> · <attribute path>` of type `t`.
fn push_row_label(out: &mut String, inst: &Instance, t: TypeId) {
    let ty = &inst.types[t];
    push_entity_short_name(out, &ty.entity);
    out.push_str(" · ");
    push_display_label(out, ty);
}

const DASHES: &str = "----------------------------------------------------------------";
const SPACES: &str = "                                                                ";

/// Appends `count` copies of the one ASCII character `pattern` is made of.
fn fill(out: &mut String, pattern: &'static str, mut count: usize) {
    while count > 0 {
        let chunk = count.min(pattern.len());
        out.push_str(&pattern[..chunk]);
        count -= chunk;
    }
}

/// Character count (not bytes) — good enough for the box layout with the
/// `—` dash and accented text the datasets produce.
fn display_width(s: &str) -> usize {
    s.chars().count()
}

/// The renderer [`render_table`] replaced: every cell materialised as a
/// `Cow`, every row label and percent cell a `String` of its own, then one
/// pass over the finished grid. Kept as the oracle the bytes are pinned to.
#[cfg(test)]
mod oracle {
    use crate::dfs::DfsSet;
    use crate::model::{Instance, TypeId};
    use std::borrow::Cow;
    use xsact_entity::label::{entity_short_name, push_display_label};

    pub(super) fn render_table(inst: &Instance, set: &DfsSet) -> String {
        let rows = table_rows(inst, set);
        let masks: Vec<Vec<bool>> =
            (0..inst.result_count()).map(|i| set.dfs(i).selection_mask(inst, i)).collect();
        let header: Vec<Cow<'_, str>> =
            std::iter::once("feature").chain(inst.labels()).map(Cow::Borrowed).collect();
        let mut body: Vec<Vec<Cow<'_, str>>> = Vec::with_capacity(rows.len());
        for &t in &rows {
            let mut row = Vec::with_capacity(inst.result_count() + 1);
            let ty = &inst.types[t];
            let mut label = format!("{} · ", entity_short_name(&ty.entity));
            push_display_label(&mut label, ty);
            row.push(Cow::Owned(label));
            for (i, mask) in masks.iter().enumerate() {
                if mask[t] {
                    let cell = inst.cell(i, t).expect("selected type has a cell");
                    if cell.instances > 1 {
                        row.push(Cow::Owned(format!(
                            "{} ({:.0}%)",
                            cell.value,
                            cell.ratio * 100.0
                        )));
                    } else {
                        row.push(Cow::Borrowed(cell.value));
                    }
                } else {
                    row.push(Cow::Borrowed("—"));
                }
            }
            body.push(row);
        }
        render_grid(&header, &body)
    }

    pub(super) fn table_rows(inst: &Instance, set: &DfsSet) -> Vec<TypeId> {
        let mut selected: Vec<bool> = vec![false; inst.type_count()];
        for i in 0..set.len() {
            for t in set.dfs(i).selected_types(inst, i) {
                selected[t] = true;
            }
        }
        let best_sig = |t: TypeId| -> f64 {
            (0..inst.result_count())
                .filter_map(|i| inst.cell(i, t))
                .map(|c| c.sig_ratio)
                .fold(0.0, f64::max)
        };
        let mut rows: Vec<TypeId> = (0..inst.type_count()).filter(|&t| selected[t]).collect();
        rows.sort_by(|&a, &b| {
            inst.entity_of[a]
                .cmp(&inst.entity_of[b])
                .then_with(|| best_sig(b).partial_cmp(&best_sig(a)).expect("ratios are finite"))
                .then_with(|| inst.types[a].attribute.cmp(&inst.types[b].attribute))
        });
        rows
    }

    fn render_grid(header: &[Cow<'_, str>], body: &[Vec<Cow<'_, str>>]) -> String {
        let width = |s: &str| s.chars().count();
        let mut widths: Vec<usize> = header.iter().map(|h| width(h)).collect();
        for row in body {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(width(cell));
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
                out.extend(std::iter::repeat_n(' ', widths[c] - width(cell) + 1));
            }
            out.push_str("|\n");
        };
        rule(&mut out);
        line(&mut out, header);
        rule(&mut out);
        for row in body {
            line(&mut out, row);
        }
        rule(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::{run_algorithm, Algorithm};
    use crate::dfs::Dfs;
    use crate::model::DfsConfig;
    use xsact_entity::{FeatureType, ResultFeatures};

    /// Bytes, row order and the allocation promise: the table is written
    /// into a `String` sized once.
    fn assert_renders_like_the_oracle(inst: &Instance, set: &DfsSet, what: &str) {
        let table = render_table(inst, set);
        assert_eq!(table, oracle::render_table(inst, set), "{what}");
        assert_eq!(table.capacity(), table.len(), "{what}: the output was not sized exactly");
        assert_eq!(table_rows(inst, set), oracle::table_rows(inst, set), "{what}: row order");
    }

    #[test]
    fn integer_percentages_are_what_the_float_formatter_prints() {
        for instances in 2..=300u32 {
            for count in 0..=2 * instances {
                let pct = f64::from(count) / f64::from(instances) * 100.0;
                let mut fast = String::new();
                push_digits(&mut fast, pct.round_ties_even() as u64);
                assert_eq!(fast, format!("{pct:.0}"), "{count} of {instances}");
            }
        }
        // Halves round to the even neighbour on both paths.
        assert_eq!(format!("{:.0} {:.0} {:.0}", 0.5, 1.5, 2.5), "0 2 2");
        for value in [0, 7, 10, 99, 100, 1_000_000, u64::MAX] {
            let mut digits = String::new();
            push_digits(&mut digits, value);
            assert_eq!(digits, value.to_string());
        }
    }

    #[test]
    fn renders_like_the_oracle_on_the_movie_pool() {
        use xsact_data::{vocab, MoviesGen};
        use xsact_entity::extract_features;
        use xsact_index::{Query, SearchEngine};
        let engine = SearchEngine::build(MoviesGen::default_gen().generate());
        let config = DfsConfig { size_bound: 8, threshold_pct: 10.0 };
        let mut pool = 0;
        let queries = vocab::GENRES
            .iter()
            .flat_map(|g| vocab::KEYWORDS.iter().map(move |k| format!("{g} {k}")));
        for text in queries {
            let (top, _) = engine.search_top_k(&Query::parse(&text), 16, None);
            if pool == 64 || top.len() < 2 {
                continue;
            }
            pool += 1;
            let features: Vec<ResultFeatures> = top
                .iter()
                .map(|scored| {
                    let r = engine.result_for(scored.root);
                    extract_features(engine.document(), engine.summary(), r.root, &r.label)
                })
                .collect();
            let inst = Instance::build(&features, config);
            for algorithm in Algorithm::ALL {
                let (set, _) = run_algorithm(&inst, algorithm);
                assert_renders_like_the_oracle(
                    &inst,
                    &set,
                    &format!("{text}, {}", algorithm.name()),
                );
            }
        }
        assert_eq!(pool, 64);
    }

    #[test]
    fn renders_like_the_oracle_where_width_is_not_byte_length() {
        // Labels, type names and values with two- and three-byte
        // characters; percentages that round to one, two and three digits
        // (and the ties 12.5 % and 0.5 %).
        let review = "boutique/produit/avis";
        let mk = |label: &str, name: &str, reviews: u32, counts: [u32; 3]| {
            ResultFeatures::from_raw(
                label,
                [("boutique/produit".to_string(), 1), (review.to_string(), reviews)],
                [
                    (FeatureType::new("boutique/produit", "nom"), name.to_string(), 1),
                    (
                        FeatureType::new("boutique/produit", "\u{7523}\u{5730}"),
                        "\u{65e5}\u{672c}".to_string(),
                        1,
                    ),
                    (
                        FeatureType::new(review, "qualit\u{e9}:tr\u{e8}s_bien"),
                        "oui \u{2014} s\u{fb}r".to_string(),
                        counts[0],
                    ),
                    (FeatureType::new(review, "prix"), "\u{20ac}\u{20ac}".to_string(), counts[1]),
                    (FeatureType::new(review, "note"), "\u{2605}".to_string(), counts[2]),
                ],
            )
        };
        let results = [
            mk("Am\u{e9}lie \u{2014} caf\u{e9}", "Cafeti\u{e8}re", 8, [1, 8, 3]),
            mk("\u{4e03}\u{4eba}\u{306e}\u{4f8d}", "\u{6025}\u{9808}", 200, [1, 199, 25]),
            mk("plain", "kettle", 3, [3, 1, 2]),
        ];
        for bound in [1, 3, 5] {
            let inst =
                Instance::build(&results, DfsConfig { size_bound: bound, threshold_pct: 10.0 });
            for algorithm in Algorithm::ALL {
                let (set, _) = run_algorithm(&inst, algorithm);
                assert_renders_like_the_oracle(
                    &inst,
                    &set,
                    &format!("L = {bound}, {}", algorithm.name()),
                );
                let table = render_table(&inst, &set);
                assert!(table
                    .lines()
                    .all(|l| l.chars().count() == table.lines().next().unwrap().chars().count()));
            }
        }
        let inst = Instance::build(&results, DfsConfig { size_bound: 5, threshold_pct: 10.0 });
        let full = DfsSet::from_dfss(
            &inst,
            (0..3).map(|i| Dfs::from_prefixes(&inst, i, &[9, 9])).collect(),
        );
        let table = render_table(&inst, &full);
        assert_renders_like_the_oracle(&inst, &full, "everything selected");
        for cell in [
            "oui \u{2014} s\u{fb}r (12%)",
            "oui \u{2014} s\u{fb}r (0%)",
            "oui \u{2014} s\u{fb}r (100%)",
            "\u{20ac}\u{20ac} (100%)",
            "avis \u{b7} qualit\u{e9}: tr\u{e8}s bien",
        ] {
            assert!(table.contains(cell), "{cell} missing from\n{table}");
        }
    }

    #[test]
    fn renders_like_the_oracle_when_nothing_is_selected() {
        let (inst, _) = sample();
        assert_renders_like_the_oracle(&inst, &DfsSet::empty(&inst), "empty DFSs");
        // Results that have no types at all: a header-only grid as well.
        let bare = |label: &str| ResultFeatures::from_raw(label, [], []);
        let inst = Instance::build(&[bare("a"), bare("\u{2014}")], DfsConfig::default());
        for algorithm in Algorithm::ALL {
            let (set, _) = run_algorithm(&inst, algorithm);
            assert_renders_like_the_oracle(&inst, &set, algorithm.name());
            assert_eq!(render_table(&inst, &set).lines().count(), 4);
        }
    }

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
