//! The multi-swap optimal algorithm — the paper's dynamic-programming
//! method.
//!
//! A DFS set is **multi-swap optimal** if changing *any number* of features
//! in one DFS (keeping validity and the size bound) cannot increase the
//! degree of differentiation. Checking every feature combination is
//! exponential; the paper proposes a dynamic program. Our reconstruction:
//! with all other DFSs fixed, result `i`'s contribution decomposes into
//! independent per-type weights (see [`crate::dod`]), and a valid DFS is a
//! per-entity prefix vector — so the optimal replacement DFS is a **knapsack
//! over prefix lengths**, solved exactly in `O(entities · L · max_types)`.
//!
//! The DP objective is lexicographic `(ΔDoD, Δpotential, size)`:
//! differentiation first, then the potential tie-breaker that lets DFSs
//! coordinate on not-yet-selected shared types, then DFS size (at equal
//! differentiation a fuller table is more informative). Replacements are
//! accepted only when this key strictly improves, and each acceptance
//! strictly increases the bounded triple `(total DoD, Σ potentials,
//! Σ sizes)` — termination is guaranteed.

use crate::dfs::{Dfs, DfsSet};
use crate::dod::{all_type_weights, all_type_weights_into};
use crate::model::Instance;
use crate::single_swap::SwapStats;
use crate::snippet::snippet_set;

/// Runs the multi-swap algorithm as a multi-start local search and returns
/// the best fixpoint.
///
/// Because multi-swap optimality licenses changing *any number* of features
/// of a DFS at once, the method considers three starting points, each a
/// configuration its own move repertoire could produce:
///
/// 1. the potential-aware greedy construction (multi-feature, coordinated);
/// 2. the plain snippet summaries (the single-swap method's start);
/// 3. the single-swap fixpoint itself — polishing it guarantees
///    `DoD(multi-swap) ≥ DoD(single-swap)` unconditionally, matching the
///    paper's observation that multi-swap "generally outperforms"
///    single-swap.
///
/// Local search over DFS sets has genuinely different basins — e.g. the
/// snippet start can be a *differentiation-blind equilibrium* where a
/// shared differentiable type selected by no one can never enter any DFS
/// (swapping it in always trades away realised weight) — so the restarts
/// earn real quality, not just robustness. The returned counters are those
/// of the winning run.
pub fn multi_swap(inst: &Instance) -> (DfsSet, SwapStats) {
    let mut best: Option<(DfsSet, SwapStats, u32)> = None;
    let starts: [DfsSet; 3] = [
        crate::greedy::greedy_set(inst),
        snippet_set(inst),
        crate::single_swap::single_swap(inst).0,
    ];
    for mut set in starts {
        let stats = multi_swap_from(inst, &mut set);
        let dod = crate::dod::dod_total(inst, &set);
        if best.as_ref().is_none_or(|(_, _, b)| dod > *b) {
            best = Some((set, stats, dod));
        }
    }
    let (set, stats, _) = best.expect("three starts evaluated");
    (set, stats)
}

/// Runs the multi-swap algorithm from a caller-provided initial solution.
/// `set` is updated in place.
///
/// All per-move state (the weight vector, the DP tables, the reconstructed
/// prefix vector) lives in scratch buffers reused across results and
/// rounds, so a best-response evaluation allocates nothing; a `Dfs` is
/// materialised only when a replacement is actually accepted.
pub fn multi_swap_from(inst: &Instance, set: &mut DfsSet) -> SwapStats {
    let mut stats = SwapStats::default();
    let mut weights: Vec<u32> = Vec::new();
    let mut scratch = ResponseScratch::default();
    loop {
        stats.rounds += 1;
        let mut improved = false;
        for i in 0..set.len() {
            all_type_weights_into(inst, set, i, &mut weights);
            let potentials = inst.potentials(i);
            let best_value = optimal_response_into(inst, i, &weights, potentials, &mut scratch);
            let current_value = dfs_value(inst, i, set.dfs(i), &weights, potentials);
            let best_size: usize = scratch.prefixes.iter().sum();
            if (best_value, best_size) > (current_value, set.dfs(i).size()) {
                set.replace(inst, i, Dfs::from_prefixes(inst, i, &scratch.prefixes));
                stats.moves += 1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    debug_assert!(set.all_valid(inst));
    stats
}

/// Combined per-type value: weight in the high 32 bits, potential in the
/// low — so `u64` comparison is the lexicographic `(weight, potential)`
/// comparison and values stay additive.
fn combined(weight: u32, potential: u32) -> u64 {
    (u64::from(weight) << 32) | u64::from(potential)
}

fn dfs_value(inst: &Instance, i: usize, dfs: &Dfs, weights: &[u32], potentials: &[u32]) -> u64 {
    let mut value = 0;
    dfs.for_each_selected(inst, i, |t| value += combined(weights[t], potentials[t]));
    value
}

/// Reusable buffers of the knapsack-over-prefixes DP — one per search run,
/// refilled per best-response call.
#[derive(Debug, Default)]
struct ResponseScratch {
    /// dp[c] = best combined value using exactly c features over the
    /// entities processed so far; `None` marks unreachable budgets.
    dp: Vec<Option<u64>>,
    /// Double buffer for `dp`.
    next: Vec<Option<u64>>,
    /// Flat `entity_count × (cap + 1)`: chosen prefix length of entity `e`
    /// in the best solution of budget `c` after processing entity `e`.
    choice: Vec<usize>,
    /// Prefix sums of one entity's type values in significance order.
    cum: Vec<u64>,
    /// The reconstructed optimal prefix vector — the call's result.
    prefixes: Vec<usize>,
}

/// The optimal valid DFS for result `i` given fixed per-type values — the
/// knapsack-over-prefixes DP. Returns the DFS and its combined value.
fn optimal_response(inst: &Instance, i: usize, weights: &[u32], potentials: &[u32]) -> (Dfs, u64) {
    let mut scratch = ResponseScratch::default();
    let value = optimal_response_into(inst, i, weights, potentials, &mut scratch);
    (Dfs::from_prefixes(inst, i, &scratch.prefixes), value)
}

/// [`optimal_response`] into caller-provided scratch: returns the optimal
/// combined value and leaves the optimal prefix vector in
/// `scratch.prefixes`, allocating nothing after the buffers warm up.
fn optimal_response_into(
    inst: &Instance,
    i: usize,
    weights: &[u32],
    potentials: &[u32],
    scratch: &mut ResponseScratch,
) -> u64 {
    let entity_count = inst.entities.len();
    let cap = inst.config.size_bound.min(inst.type_count_of(i));

    let ResponseScratch { dp, next, choice, cum, prefixes } = scratch;
    dp.clear();
    dp.resize(cap + 1, None);
    dp[0] = Some(0);
    choice.clear();
    choice.resize(entity_count * (cap + 1), 0);

    for (e, list) in inst.ranked_lists(i).enumerate() {
        // Prefix sums of the entity's type values in significance order.
        cum.clear();
        cum.push(0u64);
        for &t in list {
            cum.push(cum.last().unwrap() + combined(weights[t], potentials[t]));
        }
        next.clear();
        next.resize(cap + 1, None);
        let chosen = &mut choice[e * (cap + 1)..][..cap + 1];
        for (c_prev, &slot) in dp.iter().enumerate() {
            let Some(base) = slot else { continue };
            let max_len = list.len().min(cap - c_prev);
            for (len, &gain) in cum.iter().enumerate().take(max_len + 1) {
                let c = c_prev + len;
                let cand = base + gain;
                if next[c].is_none_or(|v| cand > v) {
                    next[c] = Some(cand);
                    chosen[c] = len;
                }
            }
        }
        std::mem::swap(dp, next);
    }

    // Pick the best (value, size) — larger budgets win ties, so the DFS
    // fills up to the bound when extra features cost nothing.
    let mut best_c = 0;
    let mut best_value = 0u64;
    for (c, v) in dp.iter().enumerate() {
        if let Some(v) = *v {
            if (v, c) >= (best_value, best_c) {
                best_value = v;
                best_c = c;
            }
        }
    }

    // Reconstruct prefix lengths entity by entity, backwards.
    prefixes.clear();
    prefixes.resize(entity_count, 0);
    let mut c = best_c;
    for e in (0..entity_count).rev() {
        let len = choice[e * (cap + 1) + c];
        prefixes[e] = len;
        c -= len;
    }
    debug_assert_eq!(c, 0);
    best_value
}

/// Verifies multi-swap optimality in the paper's sense: for every result,
/// no valid replacement DFS (any number of feature changes) has a higher DoD
/// contribution. Uses a weights-only DP, so the potential tie-breaker plays
/// no role in the check.
pub fn is_multi_swap_optimal(inst: &Instance, set: &DfsSet) -> bool {
    let zero = vec![0u32; inst.type_count()];
    for i in 0..set.len() {
        let weights = all_type_weights(inst, set, i);
        let (_, best) = optimal_response(inst, i, &weights, &zero);
        let current = dfs_value(inst, i, set.dfs(i), &weights, &zero);
        if best > current {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dod::dod_total;
    use crate::model::DfsConfig;
    use crate::single_swap::single_swap;
    use crate::snippet::snippet_set;
    use xsact_entity::{FeatureType, ResultFeatures};

    fn ty(a: &str) -> FeatureType {
        FeatureType::new("e", a)
    }

    fn two_entity_instance(bound: usize) -> Instance {
        let mk = |label: &str, triplets: Vec<(&str, u32)>| {
            ResultFeatures::from_raw(
                label,
                [("e".to_string(), 10), ("f".to_string(), 4)],
                triplets
                    .into_iter()
                    .map(|(a, c)| {
                        let (ent, attr) = a.split_once('.').unwrap();
                        (FeatureType::new(ent, attr), "yes".to_string(), c)
                    })
                    .collect::<Vec<_>>(),
            )
        };
        let a = mk("A", vec![("e.p", 9), ("e.q", 8), ("e.r", 2), ("f.u", 4), ("f.v", 1)]);
        let b = mk("B", vec![("e.p", 9), ("e.q", 3), ("e.r", 7), ("f.u", 1), ("f.v", 1)]);
        Instance::build(&[a, b], DfsConfig { size_bound: bound, threshold_pct: 10.0 })
    }

    #[test]
    fn multi_swap_reaches_optimality() {
        for bound in [1, 2, 3, 4, 5] {
            let inst = two_entity_instance(bound);
            let (set, _) = multi_swap(&inst);
            assert!(is_multi_swap_optimal(&inst, &set), "bound {bound}");
            assert!(set.all_valid(&inst));
        }
    }

    #[test]
    fn multi_swap_at_least_as_good_as_single_swap() {
        for bound in [1, 2, 3, 4, 5] {
            let inst = two_entity_instance(bound);
            let (single, _) = single_swap(&inst);
            let (multi, _) = multi_swap(&inst);
            assert!(dod_total(&inst, &multi) >= dod_total(&inst, &single), "bound {bound}");
        }
    }

    #[test]
    fn dp_beats_single_swap_when_coordination_needed() {
        // Validity chains: differentiable types q (rank 2) and r (rank 3) of
        // entity `e` sit behind identical p (rank 1); reaching r requires
        // changing several features at once when the budget forces dropping
        // the `f` entity. Construct bound 3: optimum selects e-prefix 3
        // = {p, q, r} on both sides (q, r differentiable; u also but budget).
        let inst = two_entity_instance(3);
        let (multi, _) = multi_swap(&inst);
        // q: .8 vs .3 differ; r: .2 vs .7 differ; u: 1.0 vs .25 differ;
        // p never. Best DoD with 3 slots: {q, r, u} needs e-prefix 3 (p
        // first) → impossible; so either {p,q,r} → 2, or {p,q}+{u} → 2.
        assert_eq!(dod_total(&inst, &multi), 2);
        assert!(is_multi_swap_optimal(&inst, &multi));
    }

    #[test]
    fn optimal_response_is_a_true_best_response() {
        // Cross-check the DP against brute-force enumeration of all valid
        // prefix vectors.
        let inst = two_entity_instance(3);
        let set = snippet_set(&inst);
        for i in 0..2 {
            let weights = all_type_weights(&inst, &set, i);
            let pots = inst.potentials(i);
            let (_, dp_value) = optimal_response(&inst, i, &weights, pots);
            // Brute force over prefix pairs.
            let lens: Vec<usize> = inst.ranked_lists(i).map(<[_]>::len).collect();
            let mut best = 0u64;
            for p0 in 0..=lens[0] {
                for p1 in 0..=lens[1] {
                    if p0 + p1 > inst.config.size_bound {
                        continue;
                    }
                    let d = Dfs::from_prefixes(&inst, i, &[p0, p1]);
                    best = best.max(dfs_value(&inst, i, &d, &weights, pots));
                }
            }
            assert_eq!(dp_value, best, "result {i}");
        }
    }

    #[test]
    fn ties_fill_the_budget() {
        // All weights/potentials zero (identical results): the DP still
        // fills the DFS up to the bound with the most significant types.
        let a = ResultFeatures::from_raw(
            "A",
            [("e".to_string(), 10)],
            [(ty("x"), "yes".to_string(), 5), (ty("y"), "yes".to_string(), 3)],
        );
        let inst =
            Instance::build(&[a.clone(), a], DfsConfig { size_bound: 1, threshold_pct: 10.0 });
        let (set, _) = multi_swap(&inst);
        assert_eq!(set.dfs(0).size(), 1);
        assert_eq!(set.dfs(1).size(), 1);
        assert_eq!(dod_total(&inst, &set), 0);
    }

    #[test]
    fn zero_bound_is_stable() {
        let inst = two_entity_instance(0);
        let (set, stats) = multi_swap(&inst);
        assert_eq!(set.dfs(0).size() + set.dfs(1).size(), 0);
        assert_eq!(stats.moves, 0);
    }

    #[test]
    fn stats_count_rounds_and_moves() {
        let inst = two_entity_instance(4);
        let (_, stats) = multi_swap(&inst);
        assert!(stats.rounds >= 1);
        // The final round never moves.
        assert!(stats.moves <= (stats.rounds - 1).max(1) * 2 + 2);
    }
}
