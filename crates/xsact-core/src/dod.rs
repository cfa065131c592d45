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
//! The `_into` variants take caller-provided scratch buffers so the swap
//! loops run allocation-free per move.

use crate::bits;
use crate::dfs::DfsSet;
use crate::model::{Instance, TypeId};

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
    for j in 0..set.len() {
        if j == i {
            continue;
        }
        // `diff_ij` is zero wherever result `i` lacks the type, so the
        // has-type guard of the scalar formulation is implied by the AND.
        bits::for_each_and2(set.mask(j), inst.diff_row(i, j), |t| weights[t] += 1);
    }
}

/// Allocating convenience form of [`all_type_weights_into`].
pub fn all_type_weights(inst: &Instance, set: &DfsSet, i: usize) -> Vec<u32> {
    let mut weights = Vec::new();
    all_type_weights_into(inst, set, i, &mut weights);
    weights
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
