//! The Degree of Differentiation (DoD) objective — paper Desideratum 3.
//!
//! `DoD(D1, …, Dn) = Σ_{i<j} DoD(Di, Dj)`, where the pairwise DoD is the
//! number of feature types selected in *both* DFSs on which the two results
//! are differentiable. The crucial decomposition every algorithm exploits:
//! with all other DFSs fixed, the contribution of result `i`'s DFS is a sum
//! of independent per-type weights — row `i` of `Weights`.
//!
//! Every quantity here is a **word-parallel bitset kernel**: the instance
//! stores the differentiability matrix as flat `u64` rows, the [`DfsSet`]
//! maintains per-result selection bitmasks, and a pairwise DoD is literally
//! `popcount(sel_i ∧ sel_j ∧ diff_ij)` — 64 feature types per CPU word.
//!
//! `Weights` is the one source of weights: greedy rebuilds, the two local
//! searches, annealing and both optimality checkers read its rows, and every
//! move they make updates the rows by the types it changed.
//! [`all_type_weights`] is the from-scratch recompute the rows are checked
//! against.

use crate::bits;
use crate::dfs::DfsSet;
use crate::model::{EntityIdx, Instance, TypeId};

/// Pairwise degree of differentiation of results `i` and `j` under the
/// set's current selections: `popcount(sel_i ∧ sel_j ∧ diff_ij)`.
pub fn dod_pair(inst: &Instance, set: &DfsSet, i: usize, j: usize) -> u32 {
    debug_assert!(i != j);
    xsact_kernel::and3_count(set.mask(i), set.mask(j), inst.diff_row(i, j))
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

/// Result `i`'s per-type weights recomputed from scratch: weight `t` is the
/// number of other results whose DFS selects `t` and is differentiable from
/// `i` on it (types the result lacks get 0). The recompute oracle the
/// maintained `Weights` rows are checked against.
pub fn all_type_weights(inst: &Instance, set: &DfsSet, i: usize) -> Vec<u32> {
    let mut weights = vec![0; inst.type_count()];
    // `diff_ij` is zero wherever result `i` lacks the type (and `diff_ii` is
    // zero), so the has-type and `j ≠ i` guards are implied by the AND.
    for (j, diff) in inst.diff_rows(i).enumerate() {
        bits::for_each_and2(set.mask(j), diff, |t| weights[t] += 1);
    }
    weights
}

/// Every result's per-type weights, maintained across the moves of an
/// algorithm rather than recomputed per evaluation.
///
/// `row(i)` equals [`all_type_weights`]`(inst, set, i)` for the set the
/// algorithm is at; `row(i)[t]` is the exact DoD change of adding type `t`
/// to DFS `i` (or, negated, of removing it). A move of DFS `j` changes the
/// types in its selection delta `Δ`, and row `i ≠ j` changes by ±1 exactly
/// on `Δ ∧ diff_ij`; row `j` itself depends only on the other DFSs and does
/// not change. So each move costs `O(n · |Δ|)` instead of a fresh
/// `O(n² · m/64)` pass.
///
/// A row that a move changed is marked **dirty**; the local searches' round
/// driver skips clean rows (see [`mod@crate::single_swap`]).
///
/// The table belongs to the algorithm, not to [`DfsSet`], so the
/// algorithms that never read weights (snippet, exhaustive) pay nothing for
/// it.
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
}

impl Weights {
    /// The rows of `set`.
    pub(crate) fn new(inst: &Instance, set: &DfsSet) -> Self {
        let (n, m) = (inst.result_count(), inst.type_count());
        let mut weights = Weights { types: m, rows: vec![0; n * m], dirty: vec![false; n] };
        // DFS by DFS: each adds its mask ∧ diff to every row.
        for j in 0..set.len() {
            for ((row, _), diff) in weights.rows_against(inst, j) {
                bits::for_each_and2(set.mask(j), diff, |t| row[t] += 1);
            }
        }
        weights
    }

    /// Marks every result dirty, keeping the rows: a search starts.
    pub(crate) fn mark_all_dirty(&mut self) {
        self.dirty.fill(true);
    }

    /// A copy of the rows, for [`restore`](Self::restore).
    pub(crate) fn snapshot(&self) -> Vec<u32> {
        self.rows.clone()
    }

    /// Goes back to the rows of a [`snapshot`](Self::snapshot): another
    /// start from the set the snapshot described.
    pub(crate) fn restore(&mut self, snapshot: &[u32]) {
        self.rows.copy_from_slice(snapshot);
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

    /// Replaces DFS `j` by the one with the given prefix length per entity
    /// (each within the entity's ranked list), a shrink or grow at a time,
    /// with the rows following.
    pub(crate) fn replace(
        &mut self,
        inst: &Instance,
        set: &mut DfsSet,
        j: usize,
        prefixes: &[usize],
    ) {
        for (e, &p) in prefixes.iter().enumerate() {
            while set.dfs(j).prefix(e) > p {
                self.shrink(inst, set, j, e);
            }
            while set.dfs(j).prefix(e) < p {
                self.grow(inst, set, j, e);
            }
        }
    }

    /// Debug builds check every row against a fresh recompute — the
    /// searches call this after each response that moved.
    pub(crate) fn debug_assert_follows(&self, inst: &Instance, set: &DfsSet) {
        if cfg!(debug_assertions) {
            for i in 0..set.len() {
                assert_eq!(self.row(i), all_type_weights(inst, set, i), "weight row {i} drifted");
            }
        }
    }
}

/// An upper bound on the total DoD: `Σ_pairs min(L, popcount(diff_ij))`.
/// A pair's DoD counts the differentiable types both DFSs select, and a DFS
/// selects at most L types, so no set of DFSs — whatever the algorithm —
/// scores a pair above the smaller of the two. Useful for sanity checks
/// and ablation reporting.
pub fn dod_upper_bound(inst: &Instance) -> u32 {
    let n = inst.result_count();
    let size_bound = u32::try_from(inst.config.size_bound).unwrap_or(u32::MAX);
    let mut total = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let row = inst.diff_row(i, j);
            total += xsact_kernel::and2_count(row, row).min(size_bound);
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

    /// Each pair adds at most L: with L = 1 the pair (0,1), which
    /// differs on two types, adds one.
    #[test]
    fn the_upper_bound_caps_every_pair_at_the_size_bound() {
        let mut inst = inst();
        inst.config.size_bound = 1;
        assert_eq!(dod_upper_bound(&inst), 3);
        inst.config.size_bound = 0;
        assert_eq!(dod_upper_bound(&inst), 0);
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
    fn weight_rows_count_other_results() {
        let inst = inst();
        let set = full_set(&inst);
        let weights = Weights::new(&inst, &set);
        let a = inst.types.iter().position(|t| t.attribute == "a").unwrap();
        let b = inst.types.iter().position(|t| t.attribute == "b").unwrap();
        let c = inst.types.iter().position(|t| t.attribute == "c").unwrap();
        assert_eq!(weights.row(0)[a], 2);
        assert_eq!(weights.row(0)[b], 0);
        assert_eq!(weights.row(0)[c], 1);
        // r2 lacks c entirely.
        assert_eq!(weights.row(2)[c], 0);
        weights.debug_assert_follows(&inst, &set);
    }

    #[test]
    fn a_row_entry_is_the_dod_change_of_a_move() {
        let inst = inst();
        let mut set = full_set(&inst);
        // Restrict r1 to one type so moving r0's types changes pair DoD.
        set.replace(&inst, 1, Dfs::from_prefixes(&inst, 1, &[1]));
        let mut weights = Weights::new(&inst, &set);
        for i in 0..inst.result_count() {
            while let Some(t) = set.dfs(i).last_type(&inst, i, 0) {
                let (before, weight) = (dod_total(&inst, &set), weights.row(i)[t]);
                weights.shrink(&inst, &mut set, i, 0);
                assert_eq!(before - dod_total(&inst, &set), weight, "result {i} type {t}");
                weights.debug_assert_follows(&inst, &set);
            }
            while let Some(t) = set.dfs(i).next_type(&inst, i, 0) {
                let (before, weight) = (dod_total(&inst, &set), weights.row(i)[t]);
                weights.grow(&inst, &mut set, i, 0);
                assert_eq!(dod_total(&inst, &set) - before, weight, "result {i} type {t}");
                weights.debug_assert_follows(&inst, &set);
            }
        }
        weights.replace(&inst, &mut set, 1, &[1]);
        weights.debug_assert_follows(&inst, &set);
        assert_eq!(dod_total(&inst, &set), 3);
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
