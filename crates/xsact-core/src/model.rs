//! The comparison instance: an interned, preprocessed view of the results
//! being compared.
//!
//! [`Instance::build`] takes the per-result feature statistics produced by
//! `xsact-entity` and computes everything the DFS algorithms need:
//!
//! * an interned universe of feature types and entities,
//! * per result and entity, the types in **significance order** (Desideratum
//!   2: a valid DFS takes a prefix of this ranking),
//! * the **differentiability matrix**: for every pair of results and every
//!   shared feature type, whether the occurrence ratios differ by more than
//!   the threshold `x%` of the smaller one (paper §2) — stored as one flat
//!   `u64` bit arena with `⌈m/64⌉` words per `(i, j)` row, so the DoD
//!   kernels in [`crate::dod`] are AND + popcount loops,
//! * per result and type, the *potential* (how many other results are
//!   differentiable on the type), precomputed once since it never depends
//!   on what the DFSs select,
//! * per result and type, the display cell for the comparison table.
//!
//! The feature statistics are only read, through [`Borrow`]: a caller that
//! caches them behind `Arc`s passes the `Arc`s, and nothing string-typed is
//! copied on the way in except what the instance itself keeps (labels, the
//! type table, one dominant value per cell). On the way out an instance is
//! shared the same way — a [`crate::ComparisonOutcome`] holds an
//! `Arc<Instance>`, so any number of runs over one result set point at one
//! type table, one set of cells and one bit matrix.

use crate::bits;
use std::borrow::Borrow;
use std::collections::BTreeSet;
use xsact_entity::{FeatureStat, FeatureType, ResultFeatures};

/// Index of a feature type in [`Instance::types`].
pub type TypeId = usize;
/// Index of an entity in [`Instance::entities`].
pub type EntityIdx = usize;

/// Tunables of DFS construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DfsConfig {
    /// Maximum number of features per DFS — the paper's `L` (Desideratum 1).
    pub size_bound: usize,
    /// Differentiability threshold `x` in percent (paper: "empirically set
    /// to 10% in our system").
    pub threshold_pct: f64,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig { size_bound: 10, threshold_pct: 10.0 }
    }
}

/// The table cell of one feature type within one result.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStat {
    /// The dominant value of the type in this result.
    pub value: String,
    /// Occurrence ratio of the dominant value (`count / entity_instances`).
    pub ratio: f64,
    /// Occurrence count of the dominant value.
    pub count: u32,
    /// Number of instances of the owning entity in this result.
    pub instances: u32,
    /// Significance ratio of the whole type (`occurrences /
    /// entity_instances`) — what snippet generation ranks by.
    pub sig_ratio: f64,
}

/// Preprocessed view of one result.
#[derive(Debug, Clone)]
pub struct ResultData {
    /// Display label.
    pub label: String,
    /// Per entity, the result's feature types in significance order.
    pub ranked: Vec<Vec<TypeId>>,
    /// Per type, the display cell (`None` when the result lacks the type).
    pub cells: Vec<Option<CellStat>>,
    /// Per type, its `(entity, rank)` position within this result.
    pub rank_of: Vec<Option<(EntityIdx, usize)>>,
    /// Precomputed number of present types (see [`ResultData::type_count`]).
    type_count: usize,
}

impl ResultData {
    /// Whether the result has the feature type at all.
    pub fn has_type(&self, t: TypeId) -> bool {
        self.cells[t].is_some()
    }

    /// Total number of feature types in this result (the paper's `m`).
    /// Precomputed at [`Instance::build`]; the exhaustive oracle reads it
    /// inside its combination-count estimate.
    pub fn type_count(&self) -> usize {
        self.type_count
    }
}

/// A fully preprocessed comparison instance over `n` results.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The interned feature types, sorted by (entity, attribute).
    pub types: Vec<FeatureType>,
    /// The interned entity paths, sorted.
    pub entities: Vec<String>,
    /// Entity of each type.
    pub entity_of: Vec<EntityIdx>,
    /// The preprocessed results.
    pub results: Vec<ResultData>,
    /// Configuration used to build the instance.
    pub config: DfsConfig,
    /// Words per bitset row (`⌈type_count/64⌉`).
    words: usize,
    /// The differentiability matrix as a flat bit arena: row `(i, j)` is
    /// `diff[(i*n + j)*words ..][..words]`, bit `t` set iff results `i` and
    /// `j` are differentiable in type `t`. Symmetric; `false` whenever
    /// either result lacks `t`.
    diff: Vec<u64>,
    /// Per result and type, the *potential*: how many other results are
    /// differentiable from it on the type. Flat `n × m`; independent of any
    /// DFS selection, so computed once here.
    pot: Vec<u32>,
}

/// Per-(result, type) comparison-ready view of a [`FeatureStat`], computed
/// once per stat at build time so the `O(n² · m)` matrix fill never touches
/// strings beyond the pre-sorted value lists.
struct PreStat<'a> {
    /// The single numeric value, when the type is single-valued numeric.
    numeric: Option<f64>,
    /// Instance count of the owning entity.
    instances: u32,
    /// `(value, count)` pairs sorted by value — merge-walk ready.
    values: Vec<(&'a str, u32)>,
}

impl<'a> PreStat<'a> {
    fn new(stat: &'a FeatureStat) -> Self {
        let mut values: Vec<(&'a str, u32)> =
            stat.values.iter().map(|vc| (vc.value.as_str(), vc.count)).collect();
        values.sort_unstable_by(|a, b| a.0.cmp(b.0));
        PreStat { numeric: single_numeric(stat), instances: stat.entity_instances, values }
    }

    /// Occurrence ratio of a value count (mirrors
    /// `FeatureStat::value_ratio` exactly, including the zero-instance
    /// rule).
    #[inline]
    fn ratio(&self, count: u32) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            f64::from(count) / f64::from(self.instances)
        }
    }
}

impl Instance {
    /// Preprocesses a set of results for comparison.
    ///
    /// The results are only read: a slice of owned [`ResultFeatures`] and a
    /// slice of `Arc<ResultFeatures>` handed out by a feature cache build
    /// the same instance, and neither is copied.
    ///
    /// # Panics
    /// Panics if `results` is empty — there is nothing to compare.
    pub fn build<R: Borrow<ResultFeatures>>(results: &[R], config: DfsConfig) -> Self {
        assert!(!results.is_empty(), "cannot compare zero results");

        // Intern entities and types over the union of all results.
        let mut entity_set: BTreeSet<&str> = BTreeSet::new();
        let mut type_set: BTreeSet<&FeatureType> = BTreeSet::new();
        for rf in results.iter().map(Borrow::borrow) {
            for stat in &rf.stats {
                entity_set.insert(stat.ty.entity.as_str());
                type_set.insert(&stat.ty);
            }
        }
        let entities: Vec<String> = entity_set.into_iter().map(str::to_owned).collect();
        let types: Vec<FeatureType> = type_set.into_iter().cloned().collect();
        let entity_idx =
            |path: &str| entities.binary_search_by(|e| e.as_str().cmp(path)).expect("interned");
        let entity_of: Vec<EntityIdx> = types.iter().map(|t| entity_idx(&t.entity)).collect();
        let type_idx = |ty: &FeatureType| types.binary_search(ty).expect("interned");

        // Per-result views, plus each result's stats indexed by interned
        // `TypeId` (one binary search per stat here — the matrix fill below
        // then never looks a type up by string again).
        let mut pre_stats: Vec<Vec<Option<PreStat<'_>>>> = Vec::with_capacity(results.len());
        let result_data: Vec<ResultData> = results
            .iter()
            .map(Borrow::borrow)
            .map(|rf| {
                let mut ranked: Vec<Vec<TypeId>> = vec![Vec::new(); entities.len()];
                let mut cells: Vec<Option<CellStat>> = vec![None; types.len()];
                let mut rank_of: Vec<Option<(EntityIdx, usize)>> = vec![None; types.len()];
                let mut pre: Vec<Option<PreStat<'_>>> = (0..types.len()).map(|_| None).collect();
                // `rf.stats` is already in significance order per entity.
                for stat in &rf.stats {
                    let t = type_idx(&stat.ty);
                    let e = entity_idx(&stat.ty.entity);
                    rank_of[t] = Some((e, ranked[e].len()));
                    ranked[e].push(t);
                    pre[t] = Some(PreStat::new(stat));
                    let dom = stat.dominant();
                    let instances = stat.entity_instances;
                    let per_instance = |count: u32| {
                        if instances == 0 {
                            0.0
                        } else {
                            f64::from(count) / f64::from(instances)
                        }
                    };
                    cells[t] = Some(CellStat {
                        value: dom.value.clone(),
                        ratio: per_instance(dom.count),
                        count: dom.count,
                        instances,
                        sig_ratio: per_instance(stat.occurrences),
                    });
                }
                let type_count = cells.iter().filter(|c| c.is_some()).count();
                pre_stats.push(pre);
                ResultData { label: rf.label.clone(), ranked, cells, rank_of, type_count }
            })
            .collect();

        // Differentiability matrix: one flat bit arena, filled by dense
        // iteration over the indexed stats.
        let n = results.len();
        let m = types.len();
        let words = bits::words_for(m);
        let mut diff = vec![0u64; n * n * words];
        for i in 0..n {
            for j in (i + 1)..n {
                for (t, slot) in pre_stats[i].iter().zip(&pre_stats[j]).enumerate() {
                    let (Some(si), Some(sj)) = slot else {
                        continue;
                    };
                    if pre_stats_differ(si, sj, config.threshold_pct) {
                        bits::set_bit(&mut diff[(i * n + j) * words..][..words], t);
                        bits::set_bit(&mut diff[(j * n + i) * words..][..words], t);
                    }
                }
            }
        }

        // Potentials: per (result, type), the number of other results
        // differentiable on the type — a column sum over the bit rows.
        let mut pot = vec![0u32; n * m];
        for i in 0..n {
            let row = &mut pot[i * m..][..m];
            for j in 0..n {
                if j == i {
                    continue;
                }
                bits::for_each_bit(&diff[(i * n + j) * words..][..words], |t| row[t] += 1);
            }
        }

        Instance { types, entities, entity_of, results: result_data, config, words, diff, pot }
    }

    /// Number of results.
    pub fn result_count(&self) -> usize {
        self.results.len()
    }

    /// Number of interned feature types.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Words per bitset row over the type universe (`⌈m/64⌉`) — the row
    /// width of [`Instance::diff_row`] and of `DfsSet` selection masks.
    pub fn words_per_row(&self) -> usize {
        self.words
    }

    /// The differentiability row of result pair `(i, j)` as a word slice —
    /// bit `t` set iff the pair is differentiable in type `t`.
    pub fn diff_row(&self, i: usize, j: usize) -> &[u64] {
        &self.diff[(i * self.results.len() + j) * self.words..][..self.words]
    }

    /// Whether results `i` and `j` are differentiable in type `t`
    /// (`false` if either lacks the type — absence means *unknown*, the
    /// paper's NULL-value analogy).
    pub fn differentiable(&self, i: usize, j: usize, t: TypeId) -> bool {
        bits::test_bit(self.diff_row(i, j), t)
    }

    /// The precomputed potentials of result `i`, one per type: how many
    /// other results are differentiable from `i` on the type. See
    /// [`crate::dod::type_potentials`] for the role potentials play in the
    /// local searches.
    pub fn potentials(&self, i: usize) -> &[u32] {
        &self.pot[i * self.types.len()..][..self.types.len()]
    }

    /// Heap bytes of the differentiability bit matrix (`n² · ⌈m/64⌉` words)
    /// — reported by the bench sweeps to make the memory win visible.
    pub fn bitmatrix_bytes(&self) -> usize {
        self.diff.len() * std::mem::size_of::<u64>()
    }
}

/// The paper's differentiability test between two stats of the same feature
/// type: is there a feature (type + value) whose occurrence ratios differ by
/// more than `x%` of the smaller one?
///
/// A value present on one side and absent on the other always differentiates
/// (the minimum ratio is 0, so any positive gap exceeds the threshold).
///
/// **Numeric rule**: when both results carry a single numeric value for the
/// type (ratings, prices, years), the *values themselves* are compared with
/// the same `x%`-of-the-smaller test instead of the exact-value histograms.
/// This matches the paper's worked example: the snippets of Figure 1 share
/// `Product:Rating` with values 4.2 and 4.1, yet their DoD is 2 — only
/// `Product:Name` and `Pro:Compact` count — so a 2.4% rating gap must *not*
/// differentiate under the 10% threshold.
pub fn stats_differ(a: &FeatureStat, b: &FeatureStat, threshold_pct: f64) -> bool {
    debug_assert_eq!(a.ty, b.ty);
    pre_stats_differ(&PreStat::new(a), &PreStat::new(b), threshold_pct)
}

/// [`stats_differ`] over prebuilt [`PreStat`]s: the numeric rule, then a
/// merge-walk over the two value lists (pre-sorted by value) in place of the
/// seed's per-pair `BTreeSet<&str>` union.
fn pre_stats_differ(a: &PreStat<'_>, b: &PreStat<'_>, threshold_pct: f64) -> bool {
    if let (Some(na), Some(nb)) = (a.numeric, b.numeric) {
        return (na - nb).abs() > (threshold_pct / 100.0) * na.abs().min(nb.abs());
    }
    let (mut i, mut j) = (0, 0);
    while i < a.values.len() || j < b.values.len() {
        let (pa, pb) = match (a.values.get(i), b.values.get(j)) {
            (Some(&(va, ca)), Some(&(vb, cb))) => match va.cmp(vb) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                    (a.ratio(ca), b.ratio(cb))
                }
                std::cmp::Ordering::Less => {
                    i += 1;
                    (a.ratio(ca), 0.0)
                }
                std::cmp::Ordering::Greater => {
                    j += 1;
                    (0.0, b.ratio(cb))
                }
            },
            (Some(&(_, ca)), None) => {
                i += 1;
                (a.ratio(ca), 0.0)
            }
            (None, Some(&(_, cb))) => {
                j += 1;
                (0.0, b.ratio(cb))
            }
            (None, None) => unreachable!("loop condition"),
        };
        if ratios_differ(pa, pb, threshold_pct) {
            return true;
        }
    }
    false
}

/// Threshold comparison of two occurrence ratios.
pub fn ratios_differ(pa: f64, pb: f64, threshold_pct: f64) -> bool {
    (pa - pb).abs() > (threshold_pct / 100.0) * pa.min(pb)
}

/// The stat's value as a number, when the type is single-valued numeric.
fn single_numeric(stat: &FeatureStat) -> Option<f64> {
    if stat.values.len() == 1 {
        stat.values[0].value.trim().parse::<f64>().ok()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsact_entity::ResultFeatures;

    fn ty(e: &str, a: &str) -> FeatureType {
        FeatureType::new(e, a)
    }

    fn gps1() -> ResultFeatures {
        ResultFeatures::from_raw(
            "GPS 1",
            [("product".to_string(), 1), ("review".to_string(), 11)],
            [
                (ty("product", "name"), "TomTom Go 630".to_string(), 1),
                (ty("review", "pros:easy_to_read"), "yes".to_string(), 10),
                (ty("review", "pros:compact"), "yes".to_string(), 8),
                (ty("review", "best_use:auto"), "yes".to_string(), 6),
                (ty("review", "pros:large_screen"), "yes".to_string(), 1),
            ],
        )
    }

    fn gps3() -> ResultFeatures {
        ResultFeatures::from_raw(
            "GPS 3",
            [("product".to_string(), 1), ("review".to_string(), 68)],
            [
                (ty("product", "name"), "TomTom Go 730".to_string(), 1),
                (ty("review", "pros:satellites"), "yes".to_string(), 44),
                (ty("review", "pros:easy_to_setup"), "yes".to_string(), 40),
                (ty("review", "pros:compact"), "yes".to_string(), 38),
                (ty("review", "pros:large_screen"), "yes".to_string(), 4),
            ],
        )
    }

    fn instance() -> Instance {
        Instance::build(&[gps1(), gps3()], DfsConfig::default())
    }

    #[test]
    fn interning_covers_union_of_types() {
        let inst = instance();
        assert_eq!(inst.result_count(), 2);
        assert_eq!(inst.entities, ["product", "review"]);
        // name + 6 distinct review types.
        assert_eq!(inst.type_count(), 7);
        // Types grouped by entity because of (entity, attribute) sort.
        for w in inst.entity_of.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn ranked_lists_follow_significance() {
        let inst = instance();
        let review = inst.entities.iter().position(|e| e == "review").unwrap();
        let ranked = &inst.results[0].ranked[review];
        let attrs: Vec<&str> = ranked.iter().map(|&t| inst.types[t].attribute.as_str()).collect();
        assert_eq!(
            attrs,
            ["pros:easy_to_read", "pros:compact", "best_use:auto", "pros:large_screen"]
        );
    }

    #[test]
    fn rank_of_inverts_ranked() {
        let inst = instance();
        for r in &inst.results {
            for (e, list) in r.ranked.iter().enumerate() {
                for (pos, &t) in list.iter().enumerate() {
                    assert_eq!(r.rank_of[t], Some((e, pos)));
                }
            }
        }
    }

    #[test]
    fn type_count_is_precomputed_per_result() {
        let inst = instance();
        for r in &inst.results {
            assert_eq!(r.type_count(), r.rank_of.iter().filter(|x| x.is_some()).count());
            assert_eq!(r.type_count(), r.ranked.iter().map(Vec::len).sum::<usize>());
        }
        assert_eq!(inst.results[0].type_count(), 5);
        assert_eq!(inst.results[1].type_count(), 5);
    }

    #[test]
    fn cells_hold_dominant_value_and_ratio() {
        let inst = instance();
        let compact = inst.types.iter().position(|t| t.attribute == "pros:compact").unwrap();
        let cell = inst.results[0].cells[compact].as_ref().unwrap();
        assert_eq!(cell.value, "yes");
        assert_eq!(cell.count, 8);
        assert_eq!(cell.instances, 11);
        assert!((cell.ratio - 8.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn differentiability_shared_types() {
        let inst = instance();
        let t = |attr: &str| inst.types.iter().position(|x| x.attribute == attr).unwrap();
        // name: different values → differentiable.
        assert!(inst.differentiable(0, 1, t("name")));
        // compact: 8/11 = 72.7% vs 38/68 = 55.9%; gap 16.8% > 10% of 55.9%.
        assert!(inst.differentiable(0, 1, t("pros:compact")));
        // easy_to_read missing in GPS 3 → NOT differentiable (unknown).
        assert!(!inst.differentiable(0, 1, t("pros:easy_to_read")));
        assert!(!inst.differentiable(0, 1, t("pros:satellites")));
        // large_screen: 1/11 = 9.1% vs 4/68 = 5.9%; gap 3.2% > 10% of 5.9%
        // (0.59%) → differentiable.
        assert!(inst.differentiable(0, 1, t("pros:large_screen")));
        // Symmetry.
        for t in 0..inst.type_count() {
            assert_eq!(inst.differentiable(0, 1, t), inst.differentiable(1, 0, t));
        }
    }

    #[test]
    fn diff_rows_expose_the_bit_view() {
        let inst = instance();
        assert_eq!(inst.words_per_row(), 1);
        assert_eq!(inst.bitmatrix_bytes(), 2 * 2 * 8);
        for t in 0..inst.type_count() {
            assert_eq!(crate::bits::test_bit(inst.diff_row(0, 1), t), inst.differentiable(0, 1, t));
        }
        // The self row is all zeroes (never filled).
        assert!(inst.diff_row(0, 0).iter().all(|&w| w == 0));
    }

    #[test]
    fn potentials_are_column_sums_of_the_matrix() {
        let inst = Instance::build(&[gps1(), gps3(), gps1()], DfsConfig::default());
        let n = inst.result_count();
        for i in 0..n {
            for (t, &p) in inst.potentials(i).iter().enumerate() {
                let expected =
                    (0..n).filter(|&j| j != i && inst.differentiable(i, j, t)).count() as u32;
                assert_eq!(p, expected, "result {i} type {t}");
            }
        }
    }

    #[test]
    fn threshold_suppresses_small_gaps() {
        let a = ResultFeatures::from_raw(
            "a",
            [("e".to_string(), 100)],
            [(ty("e", "x"), "yes".to_string(), 50)],
        );
        let b = ResultFeatures::from_raw(
            "b",
            [("e".to_string(), 100)],
            [(ty("e", "x"), "yes".to_string(), 52)],
        );
        // 50% vs 52%: gap 2% < 10% of 50% → not differentiable at x = 10.
        let inst = Instance::build(
            &[a.clone(), b.clone()],
            DfsConfig { size_bound: 5, threshold_pct: 10.0 },
        );
        assert!(!inst.differentiable(0, 1, 0));
        // At x = 1 the same gap differentiates.
        let inst = Instance::build(&[a, b], DfsConfig { size_bound: 5, threshold_pct: 1.0 });
        assert!(inst.differentiable(0, 1, 0));
    }

    #[test]
    fn numeric_values_compared_by_magnitude() {
        let mk = |label: &str, rating: &str| {
            ResultFeatures::from_raw(
                label,
                [("p".to_string(), 1)],
                [(ty("p", "rating"), rating.to_string(), 1)],
            )
        };
        // 4.2 vs 4.1: 2.4% gap < 10% of 4.1 → NOT differentiable (the paper's
        // Figure 1 snippets).
        let inst = Instance::build(&[mk("a", "4.2"), mk("b", "4.1")], DfsConfig::default());
        assert!(!inst.differentiable(0, 1, 0));
        // 4.2 vs 2.0: 110% gap → differentiable.
        let inst = Instance::build(&[mk("a", "4.2"), mk("b", "2.0")], DfsConfig::default());
        assert!(inst.differentiable(0, 1, 0));
        // Numeric vs non-numeric falls back to the categorical rule.
        let inst = Instance::build(&[mk("a", "4.2"), mk("b", "n/a")], DfsConfig::default());
        assert!(inst.differentiable(0, 1, 0));
        // Equal numbers never differentiate.
        let inst = Instance::build(&[mk("a", "4.2"), mk("b", "4.2")], DfsConfig::default());
        assert!(!inst.differentiable(0, 1, 0));
    }

    #[test]
    fn value_present_vs_absent_differentiates() {
        let a = ResultFeatures::from_raw(
            "a",
            [("e".to_string(), 10)],
            [(ty("e", "x"), "yes".to_string(), 5)],
        );
        let b = ResultFeatures::from_raw(
            "b",
            [("e".to_string(), 10)],
            [(ty("e", "x"), "no".to_string(), 5)],
        );
        let inst = Instance::build(&[a, b], DfsConfig::default());
        assert!(inst.differentiable(0, 1, 0));
    }

    #[test]
    fn merge_walk_matches_union_semantics_on_histograms() {
        // Multi-valued types: the merge-walk must test every value of the
        // union exactly once, including values present on only one side.
        let a = ResultFeatures::from_raw(
            "a",
            [("e".to_string(), 10)],
            [
                (ty("e", "x"), "red".to_string(), 4),
                (ty("e", "x"), "green".to_string(), 4),
                (ty("e", "x"), "blue".to_string(), 2),
            ],
        );
        let b = ResultFeatures::from_raw(
            "b",
            [("e".to_string(), 10)],
            [
                (ty("e", "x"), "red".to_string(), 4),
                (ty("e", "x"), "green".to_string(), 4),
                (ty("e", "x"), "violet".to_string(), 2),
            ],
        );
        // Identical on red/green; blue vs violet are one-sided → differ.
        let inst = Instance::build(&[a.clone(), b], DfsConfig::default());
        assert!(inst.differentiable(0, 1, 0));
        // Against itself the union collapses and nothing differs.
        let inst = Instance::build(&[a.clone(), a], DfsConfig::default());
        assert!(!inst.differentiable(0, 1, 0));
    }

    #[test]
    fn stats_differ_is_exposed_and_symmetric() {
        let a = gps1();
        let b = gps3();
        let compact = ty("review", "pros:compact");
        let sa = a.get(&compact).unwrap();
        let sb = b.get(&compact).unwrap();
        assert!(stats_differ(sa, sb, 10.0));
        assert_eq!(stats_differ(sa, sb, 10.0), stats_differ(sb, sa, 10.0));
        assert!(!stats_differ(sa, sa, 10.0));
    }

    #[test]
    fn identical_results_never_differentiate() {
        let inst = Instance::build(&[gps1(), gps1()], DfsConfig::default());
        for t in 0..inst.type_count() {
            assert!(!inst.differentiable(0, 1, t));
        }
    }

    #[test]
    fn ratios_differ_edge_cases() {
        assert!(!ratios_differ(0.5, 0.5, 10.0));
        assert!(ratios_differ(0.5, 0.0, 10.0));
        assert!(ratios_differ(0.0, 0.001, 10.0));
        assert!(!ratios_differ(0.0, 0.0, 10.0));
        // Exactly at the threshold: NOT differentiable (strict inequality).
        // 0.75 − 0.5 = 0.25 = 50% of 0.5; all values exact in binary.
        assert!(!ratios_differ(0.75, 0.5, 50.0));
        assert!(ratios_differ(0.765625, 0.5, 50.0));
    }

    #[test]
    #[should_panic(expected = "cannot compare zero results")]
    fn empty_input_panics() {
        Instance::build(&[] as &[ResultFeatures], DfsConfig::default());
    }

    #[test]
    fn single_result_instance_is_fine() {
        let inst = Instance::build(&[gps1()], DfsConfig::default());
        assert_eq!(inst.result_count(), 1);
        assert_eq!(inst.type_count(), 5);
    }
}
