//! Exhaustive search — the optimality oracle.
//!
//! The DFS construction problem is NP-hard (paper Theorem 2.1), so this
//! module enumerates *every* combination of valid DFSs and keeps the best.
//! Only feasible for small instances; used by property tests to validate
//! the local-search algorithms and by the ablation harness to measure their
//! optimality gap.

use crate::dfs::{Dfs, DfsSet};
use crate::dod::dod_total;
use crate::model::Instance;

/// Enumerates all valid DFSs (per-entity prefix vectors with size ≤ L) of
/// one result.
fn enumerate_valid_dfss(inst: &Instance, result: usize) -> Vec<Dfs> {
    let lens: Vec<usize> = inst.ranked_lists(result).map(<[_]>::len).collect();
    let bound = inst.config.size_bound;
    let mut out = Vec::new();
    let mut prefixes = vec![0usize; lens.len()];
    enumerate_rec(&lens, bound, 0, 0, &mut prefixes, &mut out, inst, result);
    out
}

#[allow(clippy::too_many_arguments)]
fn enumerate_rec(
    lens: &[usize],
    bound: usize,
    e: usize,
    used: usize,
    prefixes: &mut Vec<usize>,
    out: &mut Vec<Dfs>,
    inst: &Instance,
    result: usize,
) {
    if e == lens.len() {
        out.push(Dfs::from_prefixes(inst, result, prefixes));
        return;
    }
    let max_len = lens[e].min(bound - used);
    for len in 0..=max_len {
        prefixes[e] = len;
        enumerate_rec(lens, bound, e + 1, used + len, prefixes, out, inst, result);
    }
    prefixes[e] = 0;
}

/// Number of valid DFSs of one result — `enumerate_valid_dfss(..).len()`
/// without materialising anything: a counting DP over (entity, budget),
/// with the budget capped by the result's own type count
/// ([`Instance::type_count_of`]). `None` on `u64`
/// overflow (the instance is certainly too large for brute force).
fn count_valid_dfss(inst: &Instance, result: usize) -> Option<u64> {
    let cap = inst.config.size_bound.min(inst.type_count_of(result));
    // ways[c] = number of prefix vectors of total size exactly c over the
    // entities processed so far.
    let mut ways = vec![0u64; cap + 1];
    ways[0] = 1;
    for list in inst.ranked_lists(result) {
        let mut next = vec![0u64; cap + 1];
        for (c_prev, &w) in ways.iter().enumerate() {
            if w == 0 {
                continue;
            }
            for len in 0..=list.len().min(cap - c_prev) {
                let slot = &mut next[c_prev + len];
                *slot = slot.checked_add(w)?;
            }
        }
        ways = next;
    }
    ways.iter().try_fold(0u64, |acc, &w| acc.checked_add(w))
}

/// Exhaustively maximises the total DoD over all combinations of valid
/// DFSs.
///
/// Returns `None` when the number of combinations exceeds `limit` (the
/// instance is too large for brute force) — decided by the counting DP
/// *before* any enumeration is materialised; otherwise the optimal set and
/// its DoD. Ties are broken towards the combination enumerated first, then
/// by larger total size (to mirror the local searches' budget-filling rule
/// the comparison only relies on the DoD value, which is unique).
///
/// The branch-and-walk over the combination space is allocation-free per
/// step: one working [`DfsSet`] is advanced odometer-style, replacing only
/// the DFSs whose index digit rolled, and the DoD of each combination is a
/// popcount over the set's selection masks.
pub fn exhaustive(inst: &Instance, limit: u64) -> Option<(DfsSet, u32)> {
    let mut combos: u64 = 1;
    for i in 0..inst.result_count() {
        combos = combos.checked_mul(count_valid_dfss(inst, i)?)?;
        if combos > limit {
            return None;
        }
    }
    let per_result: Vec<Vec<Dfs>> =
        (0..inst.result_count()).map(|i| enumerate_valid_dfss(inst, i)).collect();

    let mut indices = vec![0usize; per_result.len()];
    let mut set =
        DfsSet::from_dfss(inst, per_result.iter().map(|options| options[0].clone()).collect());
    let mut best: Option<(DfsSet, u32)> = None;
    loop {
        let dod = dod_total(inst, &set);
        let better = match &best {
            None => true,
            Some((_, cur)) => dod > *cur,
        };
        if better {
            best = Some((set.clone(), dod));
        }
        // Odometer increment, swapping in only the DFSs whose digit moved.
        let mut pos = 0;
        loop {
            if pos == indices.len() {
                return best;
            }
            indices[pos] += 1;
            if indices[pos] < per_result[pos].len() {
                set.replace(inst, pos, per_result[pos][indices[pos]].clone());
                break;
            }
            indices[pos] = 0;
            set.replace(inst, pos, per_result[pos][0].clone());
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DfsConfig;
    use crate::multi_swap::multi_swap;
    use crate::single_swap::single_swap;
    use xsact_entity::{FeatureType, ResultFeatures};

    fn ty(a: &str) -> FeatureType {
        FeatureType::new("e", a)
    }

    fn small_instance(bound: usize) -> Instance {
        let mk = |label: &str, x: u32, y: u32, z: u32| {
            ResultFeatures::from_raw(
                label,
                [("e".to_string(), 10)],
                [
                    (ty("x"), "yes".to_string(), x),
                    (ty("y"), "yes".to_string(), y),
                    (ty("z"), "yes".to_string(), z),
                ],
            )
        };
        Instance::build(
            &[mk("a", 9, 5, 1), mk("b", 9, 2, 6)],
            DfsConfig { size_bound: bound, threshold_pct: 10.0 },
        )
    }

    #[test]
    fn enumeration_counts_prefix_vectors() {
        // One entity with 3 types, bound 2 → prefixes 0, 1, 2 → 3 DFSs.
        let inst = small_instance(2);
        assert_eq!(enumerate_valid_dfss(&inst, 0).len(), 3);
        // Bound ≥ 3 → 4 DFSs.
        let inst = small_instance(5);
        assert_eq!(enumerate_valid_dfss(&inst, 0).len(), 4);
    }

    #[test]
    fn exhaustive_finds_optimum() {
        let inst = small_instance(3);
        let (_, dod) = exhaustive(&inst, 1_000_000).unwrap();
        // x identical; y, z differentiable; both reachable with prefix 3 on
        // both sides.
        assert_eq!(dod, 2);
    }

    #[test]
    fn local_searches_never_beat_exhaustive() {
        for bound in [0, 1, 2, 3] {
            let inst = small_instance(bound);
            let (_, opt) = exhaustive(&inst, 1_000_000).unwrap();
            let (s, _) = single_swap(&inst);
            let (m, _) = multi_swap(&inst);
            assert!(dod_total(&inst, &s) <= opt, "single bound {bound}");
            assert!(dod_total(&inst, &m) <= opt, "multi bound {bound}");
            // On these tiny instances multi-swap actually reaches optimum.
            assert_eq!(dod_total(&inst, &m), opt, "multi gap at bound {bound}");
        }
    }

    #[test]
    fn limit_guard_refuses_large_instances() {
        let inst = small_instance(3);
        assert!(exhaustive(&inst, 1).is_none());
    }

    #[test]
    fn counting_dp_matches_enumeration() {
        for bound in [0, 1, 2, 3, 5] {
            let inst = small_instance(bound);
            for i in 0..inst.result_count() {
                assert_eq!(
                    count_valid_dfss(&inst, i),
                    Some(enumerate_valid_dfss(&inst, i).len() as u64),
                    "result {i} bound {bound}"
                );
            }
        }
    }

    #[test]
    fn exhaustive_respects_validity_and_bound() {
        let inst = small_instance(2);
        let (set, _) = exhaustive(&inst, 1_000_000).unwrap();
        assert!(set.all_valid(&inst));
    }
}
