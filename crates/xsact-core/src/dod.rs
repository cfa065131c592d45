//! The Degree of Differentiation (DoD) objective — paper Desideratum 3.
//!
//! `DoD(D1, …, Dn) = Σ_{i<j} DoD(Di, Dj)`, where the pairwise DoD is the
//! number of feature types selected in *both* DFSs on which the two results
//! are differentiable. The crucial decomposition the multi-swap DP exploits:
//! with all other DFSs fixed, the contribution of result `i`'s DFS is a sum
//! of independent per-type weights ([`type_weight`]).
//!
//! Every quantity here is a **word-parallel bitset kernel**: the instance
//! stores the differentiability matrix as flat `u64` rows, the [`DfsSet`]
//! maintains per-result selection bitmasks, and a pairwise DoD is literally
//! `popcount(sel_i ∧ sel_j ∧ diff_ij)` — 64 feature types per CPU word.
//!
//! [`all_type_weights_into`] recomputes one result's weights from scratch;
//! the greedy construction and the optimality checks read that. The two
//! local searches instead keep every result's weights in a `Weights`
//! table that each accepted move updates by the types it changed.

use crate::bits;
use crate::dfs::DfsSet;
use crate::model::{EntityIdx, Instance, TypeId};

/// Pairwise degree of differentiation of results `i` and `j` under the
/// set's current selections: `popcount(sel_i ∧ sel_j ∧ diff_ij)`.
pub fn dod_pair(inst: &Instance, set: &DfsSet, i: usize, j: usize) -> u32 {
    debug_assert!(i != j);
    bits::and3_count(set.mask(i), set.mask(j), inst.diff_row(i, j))
}

/// Total DoD of a DFS set: the paper's objective function.
pub fn dod_total(inst: &Instance, set: &DfsSet) -> u32 {
    let n = set.len();
    let mut total = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            total += dod_pair(inst, set, i, j);
        }
    }
    total
}

/// The marginal DoD contribution of selecting type `t` in result `i`'s DFS,
/// with every other DFS fixed: the number of other results whose DFS also
/// selects `t` and is differentiable from `i` on it.
pub fn type_weight(inst: &Instance, set: &DfsSet, i: usize, t: TypeId) -> u32 {
    (0..set.len())
        .filter(|&j| {
            j != i && bits::test_bit(set.mask(j), t) && bits::test_bit(inst.diff_row(i, j), t)
        })
        .count() as u32
}

/// Per-type weights for all of result `i`'s types at once (types the result
/// lacks get weight 0), written into a caller-provided scratch buffer —
/// the allocation-free primitive behind the swap loops. `O(n · m/64)` word
/// operations plus one increment per realised (pair, type).
pub fn all_type_weights_into(inst: &Instance, set: &DfsSet, i: usize, weights: &mut Vec<u32>) {
    weights.clear();
    weights.resize(inst.type_count(), 0);
    // `diff_ij` is zero wherever result `i` lacks the type (and `diff_ii` is
    // zero), so the has-type and `j ≠ i` guards of the scalar formulation
    // are implied by the AND.
    for (j, diff) in inst.diff_rows(i).enumerate() {
        bits::for_each_and2(set.mask(j), diff, |t| weights[t] += 1);
    }
}

/// Allocating convenience form of [`all_type_weights_into`].
pub fn all_type_weights(inst: &Instance, set: &DfsSet, i: usize) -> Vec<u32> {
    let mut weights = Vec::new();
    all_type_weights_into(inst, set, i, &mut weights);
    weights
}

/// Every result's per-type weights, maintained across the moves of a local
/// search rather than recomputed per evaluation.
///
/// `row(i)` equals [`all_type_weights`]`(inst, set, i)` for the set the
/// search is at. A move of DFS `j` changes the types in its selection
/// delta `Δ`, and row `i ≠ j` changes by ±1 exactly on `Δ ∧ diff_ij`; row
/// `j` itself depends only on the other DFSs and does not change. So each
/// accepted move costs `O(n · |Δ|)` instead of a fresh `O(n² · m/64)` pass.
///
/// A row that a move changed is marked **dirty**. A local search's response
/// for result `i` is a deterministic function of `row(i)`, `i`'s own DFS
/// and its potentials; once computed and acted on, it cannot change until
/// some other DFS's move dirties the row. The searches skip clean rows,
/// which is exact: the skipped visit would find no move.
///
/// The table belongs to the search, not to [`DfsSet`], so the algorithms
/// that never read weights this way pay nothing for it.
#[derive(Debug)]
pub(crate) struct Weights {
    /// Types per row.
    types: usize,
    /// Flat `n × m`: `rows[i*m + t]` is the weight of type `t` for result
    /// `i`.
    rows: Vec<u32>,
    /// Per result, whether its row changed since its response was last
    /// computed.
    dirty: Vec<bool>,
    /// A DFS's mask before a replacement (allocated by the first one: the
    /// single-swap search never replaces).
    before: Vec<u64>,
}

impl Weights {
    /// The rows of `set`, every result dirty.
    pub(crate) fn new(inst: &Instance, set: &DfsSet) -> Self {
        let (n, m) = (inst.result_count(), inst.type_count());
        let mut weights =
            Weights { types: m, rows: vec![0; n * m], dirty: vec![true; n], before: Vec::new() };
        weights.reset(inst, set);
        weights
    }

    /// Recomputes every row for `set` in the same buffers, every result
    /// dirty: another start of a search.
    pub(crate) fn reset(&mut self, inst: &Instance, set: &DfsSet) {
        self.rows.fill(0);
        // DFS by DFS: each adds its mask ∧ diff to every row.
        for j in 0..set.len() {
            for ((row, _), diff) in self.rows_against(inst, j) {
                bits::for_each_and2(set.mask(j), diff, |t| row[t] += 1);
            }
        }
        self.mark_all_dirty();
    }

    /// Marks every result dirty, keeping the rows: a search with another
    /// move repertoire takes over the set these rows describe.
    pub(crate) fn mark_all_dirty(&mut self) {
        self.dirty.fill(true);
    }

    /// A copy of the rows, for [`restore`](Self::restore).
    pub(crate) fn snapshot(&self) -> Vec<u32> {
        self.rows.clone()
    }

    /// Goes back to the rows of a [`snapshot`](Self::snapshot), every
    /// result dirty: another start from the set the snapshot described.
    pub(crate) fn restore(&mut self, snapshot: &[u32]) {
        self.rows.copy_from_slice(snapshot);
        self.mark_all_dirty();
    }

    /// Result `i`'s weights, one per type.
    pub(crate) fn row(&self, i: usize) -> &[u32] {
        &self.rows[i * self.types..][..self.types]
    }

    /// Whether result `i`'s row changed since it was last taken, clearing
    /// the mark.
    pub(crate) fn take_dirty(&mut self, i: usize) -> bool {
        std::mem::replace(&mut self.dirty[i], false)
    }

    /// [`DfsSet::grow`] on DFS `j`, with the rows following.
    pub(crate) fn grow(&mut self, inst: &Instance, set: &mut DfsSet, j: usize, e: EntityIdx) {
        let t = set.dfs(j).next_type(inst, j, e).expect("a move grows an entity with a next type");
        set.grow(inst, j, e);
        self.toggle(inst, j, t, true);
    }

    /// [`DfsSet::shrink`] on DFS `j`, with the rows following.
    pub(crate) fn shrink(&mut self, inst: &Instance, set: &mut DfsSet, j: usize, e: EntityIdx) {
        let t = set.dfs(j).last_type(inst, j, e).expect("a move shrinks a non-empty prefix");
        set.shrink(inst, j, e);
        self.toggle(inst, j, t, false);
    }

    /// Row `i` of every result against `j`, with its dirty mark — `diff_ji`
    /// is `diff_ij`, and `diff_jj` is zero, so row `j` never changes.
    fn rows_against<'a>(
        &'a mut self,
        inst: &'a Instance,
        j: usize,
    ) -> impl Iterator<Item = ((&'a mut [u32], &'a mut bool), &'a [u64])> {
        self.rows.chunks_exact_mut(self.types.max(1)).zip(&mut self.dirty).zip(inst.diff_rows(j))
    }

    fn toggle(&mut self, inst: &Instance, j: usize, t: TypeId, selected: bool) {
        for ((row, dirty), diff) in self.rows_against(inst, j) {
            if bits::test_bit(diff, t) {
                row[t] = if selected { row[t] + 1 } else { row[t] - 1 };
                *dirty = true;
            }
        }
    }

    /// [`DfsSet::set_prefixes`] on DFS `j`, with the rows following.
    pub(crate) fn replace(
        &mut self,
        inst: &Instance,
        set: &mut DfsSet,
        j: usize,
        prefixes: &[usize],
    ) {
        let mut before = std::mem::take(&mut self.before);
        before.clear();
        before.extend_from_slice(set.mask(j));
        set.set_prefixes(inst, j, prefixes);
        for ((row, dirty), diff) in self.rows_against(inst, j) {
            *dirty |= bits::for_each_change(&before, set.mask(j), diff, |t, selected| {
                row[t] = if selected { row[t] + 1 } else { row[t] - 1 };
            });
        }
        self.before = before;
    }

    /// Debug builds check every row against a fresh recompute — the
    /// searches call this after each accepted move.
    pub(crate) fn debug_assert_follows(&self, inst: &Instance, set: &DfsSet) {
        if cfg!(debug_assertions) {
            for i in 0..set.len() {
                assert_eq!(self.row(i), all_type_weights(inst, set, i), "weight row {i} drifted");
            }
        }
    }
}

/// Marginal DoD change from toggling a single type `t` in result `i`'s
/// DFS: the number of *other* results that select `t` and are
/// differentiable from `i` on it, read off the set's incremental selection
/// masks.
///
/// This is the `O(n)` primitive behind incremental DoD maintenance: adding
/// `t` to `Di` raises the total by exactly this amount, removing it lowers
/// it by the same — no other pair is affected. It *is* the marginal weight
/// of the type, so this delegates to [`type_weight`]; the separate name
/// keeps the annealing call sites self-describing.
pub fn toggle_delta(inst: &Instance, set: &DfsSet, i: usize, t: TypeId) -> u32 {
    type_weight(inst, set, i, t)
}

/// An upper bound on the total DoD: every differentiable (pair, type) counts
/// — reachable only if the size bound permits selecting all of them on both
/// sides. Useful for sanity checks and ablation reporting.
pub fn dod_upper_bound(inst: &Instance) -> u32 {
    let n = inst.result_count();
    let mut total = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let row = inst.diff_row(i, j);
            total += bits::and2_count(row, row);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::Dfs;
    use crate::model::DfsConfig;
    use xsact_entity::{FeatureType, ResultFeatures};

    fn ty(a: &str) -> FeatureType {
        FeatureType::new("e", a)
    }

    /// Three results over one entity with controlled differentiability:
    /// * type `a`: present everywhere, all pairwise differentiable
    /// * type `b`: present everywhere, identical (never differentiable)
    /// * type `c`: only in results 0 and 1, differentiable
    fn inst() -> Instance {
        let mk = |label: &str, a: u32, c: Option<u32>| {
            let mut triplets =
                vec![(ty("a"), "yes".to_string(), a), (ty("b"), "yes".to_string(), 5)];
            if let Some(c) = c {
                triplets.push((ty("c"), "yes".to_string(), c));
            }
            ResultFeatures::from_raw(label, [("e".to_string(), 10)], triplets)
        };
        Instance::build(
            &[mk("r0", 9, Some(8)), mk("r1", 6, Some(2)), mk("r2", 3, None)],
            DfsConfig { size_bound: 3, threshold_pct: 10.0 },
        )
    }

    fn full_set(inst: &Instance) -> DfsSet {
        let dfss =
            (0..inst.result_count()).map(|i| Dfs::from_prefixes(inst, i, &[usize::MAX])).collect();
        DfsSet::from_dfss(inst, dfss)
    }

    #[test]
    fn pair_dod_counts_shared_differentiable_types() {
        let inst = inst();
        let set = full_set(&inst);
        // (0,1): a and c differentiable, b identical → 2.
        assert_eq!(dod_pair(&inst, &set, 0, 1), 2);
        // (0,2): only a (c missing in r2) → 1.
        assert_eq!(dod_pair(&inst, &set, 0, 2), 1);
        // Symmetric.
        assert_eq!(dod_pair(&inst, &set, 0, 1), dod_pair(&inst, &set, 1, 0));
    }

    #[test]
    fn total_is_sum_over_pairs() {
        let inst = inst();
        let set = full_set(&inst);
        // pairs: (0,1)=2, (0,2)=1, (1,2)=1.
        assert_eq!(dod_total(&inst, &set), 4);
        assert_eq!(dod_upper_bound(&inst), 4);
    }

    #[test]
    fn empty_dfss_have_zero_dod() {
        let inst = inst();
        let set = DfsSet::empty(&inst);
        assert_eq!(dod_total(&inst, &set), 0);
    }

    #[test]
    fn unselected_types_do_not_count() {
        let inst = inst();
        let mut set = full_set(&inst);
        // Restrict r1 to its single most significant type. r1's ranking:
        // a(6), b(5), c(2) → prefix 1 = {a}.
        set.replace(&inst, 1, Dfs::from_prefixes(&inst, 1, &[1]));
        // (0,1): only a shared-and-selected → 1; (0,2) unchanged 1; (1,2): a → 1.
        assert_eq!(dod_total(&inst, &set), 3);
    }

    #[test]
    fn type_weight_counts_other_results() {
        let inst = inst();
        let set = full_set(&inst);
        let a = inst.types.iter().position(|t| t.attribute == "a").unwrap();
        let b = inst.types.iter().position(|t| t.attribute == "b").unwrap();
        let c = inst.types.iter().position(|t| t.attribute == "c").unwrap();
        assert_eq!(type_weight(&inst, &set, 0, a), 2);
        assert_eq!(type_weight(&inst, &set, 0, b), 0);
        assert_eq!(type_weight(&inst, &set, 0, c), 1);
        // r2 lacks c entirely.
        assert_eq!(type_weight(&inst, &set, 2, c), 0);
    }

    #[test]
    fn all_type_weights_matches_pointwise() {
        let inst = inst();
        let set = full_set(&inst);
        let mut scratch = Vec::new();
        for i in 0..inst.result_count() {
            let bulk = all_type_weights(&inst, &set, i);
            all_type_weights_into(&inst, &set, i, &mut scratch);
            assert_eq!(bulk, scratch, "into/alloc forms agree for result {i}");
            for (t, &w) in bulk.iter().enumerate() {
                assert_eq!(w, type_weight(&inst, &set, i, t), "result {i} type {t}");
            }
        }
    }

    #[test]
    fn scratch_buffer_is_reset_between_calls() {
        let inst = inst();
        let full = full_set(&inst);
        let empty = DfsSet::empty(&inst);
        let mut scratch = vec![99u32; 17]; // stale garbage of the wrong size
        all_type_weights_into(&inst, &full, 0, &mut scratch);
        let first = scratch.clone();
        all_type_weights_into(&inst, &empty, 0, &mut scratch);
        assert!(scratch.iter().all(|&w| w == 0), "stale weights leaked");
        all_type_weights_into(&inst, &full, 0, &mut scratch);
        assert_eq!(scratch, first);
    }

    #[test]
    fn toggle_delta_matches_total_difference() {
        let inst = inst();
        let mut set = full_set(&inst);
        // Restrict r1 to one type so toggling r0's types changes pair DoD.
        set.replace(&inst, 1, Dfs::from_prefixes(&inst, 1, &[1]));
        // Toggling each of r0's selected types off must change the total by
        // exactly toggle_delta.
        let before = dod_total(&inst, &set);
        for (e, list) in inst.ranked_lists(0).enumerate() {
            if list.is_empty() {
                continue;
            }
            let t = *list.last().expect("non-empty");
            let delta = toggle_delta(&inst, &set, 0, t);
            let mut modified = set.clone();
            let mut dfs = Dfs::from_prefixes(&inst, 0, set.dfs(0).prefixes());
            dfs.shrink(e);
            modified.replace(&inst, 0, dfs);
            assert_eq!(before - dod_total(&inst, &modified), delta, "type {t}");
        }
    }

    #[test]
    fn potentials_ignore_selection() {
        let inst = inst();
        let empty = DfsSet::empty(&inst);
        let full = full_set(&inst);
        // Potentials are the same whatever the DFSs select.
        for i in 0..inst.result_count() {
            let p = inst.potentials(i);
            // With everything selected, weights equal potentials.
            assert_eq!(p, all_type_weights(&inst, &full, i));
            // With nothing selected, weights are all zero but potentials
            // are not.
            assert!(all_type_weights(&inst, &empty, i).iter().all(|&w| w == 0));
        }
        let a = inst.types.iter().position(|t| t.attribute == "a").unwrap();
        assert_eq!(inst.potentials(0)[a], 2);
        // r2 lacks type c → potential 0 even though others have it.
        let c = inst.types.iter().position(|t| t.attribute == "c").unwrap();
        assert_eq!(inst.potentials(2)[c], 0);
    }
}
