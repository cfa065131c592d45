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
//!
//! The weights come from the search's maintained rows (`dod::Weights`): an
//! accepted replacement updates each other result's row by the types it
//! changed, so no round recomputes a weight vector. The rounds are
//! single-swap's driver (see [`mod@crate::single_swap`]): the DP is a
//! deterministic function of the result's weight row and potentials, and
//! the acceptance test adds only the result's own DFS, so a result whose
//! row no other move touched since its last DP is skipped;
//! [`SwapStats::responses`] counts the DPs run. [`is_multi_swap_optimal`]
//! is the same DP with the potentials zeroed.

use crate::dfs::{Dfs, DfsSet};
use crate::dod::Weights;
use crate::model::Instance;
use crate::single_swap::{rounds, SwapStats};
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
///
/// The snippets and their weight rows are computed once. Greedy rebuilds
/// the snippets on those rows and is polished on the rows its rebuild
/// leaves; the other two starts go back to the snippets' rows, and the
/// third is polished on the rows the single-swap run leaves behind. One
/// weight table and one set of DP buffers serve all three runs.
pub fn multi_swap(inst: &Instance) -> (DfsSet, SwapStats) {
    let snippets = snippet_set(inst);
    let mut weights = Weights::new(inst, &snippets);
    let at_snippets = weights.snapshot();
    let mut scratch = ResponseScratch::new(inst);
    let mut best: Option<(DfsSet, SwapStats, u32)> = None;
    let mut polish = |mut set: DfsSet, weights: &mut Weights| {
        let stats = search(inst, &mut set, weights, &mut scratch);
        let dod = crate::dod::dod_total(inst, &set);
        if best.as_ref().is_none_or(|(_, _, b)| dod > *b) {
            best = Some((set, stats, dod));
        }
    };

    let mut greedy = snippets.clone();
    crate::greedy::rebuild(inst, &mut greedy, &mut weights);
    polish(greedy, &mut weights);

    weights.restore(&at_snippets);
    polish(snippets.clone(), &mut weights);

    let mut single = snippets;
    weights.restore(&at_snippets);
    crate::single_swap::search(inst, &mut single, &mut weights);
    polish(single, &mut weights);

    let (set, stats, _) = best.expect("three starts evaluated");
    (set, stats)
}

/// Runs the multi-swap algorithm from a caller-provided initial solution.
/// `set` is updated in place.
pub fn multi_swap_from(inst: &Instance, set: &mut DfsSet) -> SwapStats {
    search(inst, set, &mut Weights::new(inst, set), &mut ResponseScratch::new(inst))
}

/// The search over `set`'s maintained weight rows. The rows, the DP tables
/// and the reconstructed prefix vector are buffers sized before the run, so
/// a best response allocates nothing, and an accepted replacement rewrites
/// the DFS in place.
fn search(
    inst: &Instance,
    set: &mut DfsSet,
    weights: &mut Weights,
    scratch: &mut ResponseScratch,
) -> SwapStats {
    rounds(inst, set, weights, |set, weights, i| {
        let (row, potentials) = (weights.row(i), inst.potentials(i));
        let best_value = scratch.respond(inst, i, row, potentials);
        let current_value = dfs_value(inst, i, set.dfs(i), row, potentials);
        let best_size: usize = scratch.prefixes.iter().sum();
        let improves = (best_value, best_size) > (current_value, set.dfs(i).size());
        if improves {
            weights.replace(inst, set, i, &scratch.prefixes);
        }
        u32::from(improves)
    })
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

/// The buffers of the knapsack-over-prefixes DP, sized once per run for
/// every result of the instance and refilled per best response.
#[derive(Debug)]
struct ResponseScratch {
    /// `dp[c]` = the best combined value using exactly `c` features over the
    /// entities processed so far. Every prefix length of an entity is
    /// valid, so the reachable budgets are always `0..=reach` — the DP reads
    /// no other slot and needs no mark for an unreachable one.
    dp: Vec<u64>,
    /// Flat `entity_count × (cap + 1)`: the prefix length of entity `e` in
    /// the best solution of budget `c` after processing entity `e`.
    /// (`u32`: a prefix is at most a result's type count, which the
    /// instance stores in `u32`; a byte would wrap past 255 types.)
    choice: Vec<u32>,
    /// Prefix sums of one entity's type values in significance order.
    cum: Vec<u64>,
    /// The reconstructed optimal prefix vector — a response's answer.
    prefixes: Vec<usize>,
}

impl ResponseScratch {
    fn new(inst: &Instance) -> Self {
        let most = (0..inst.result_count()).map(|i| inst.type_count_of(i)).max().unwrap_or(0);
        let cap = inst.config.size_bound.min(most);
        ResponseScratch {
            dp: vec![0; cap + 1],
            choice: vec![0; inst.entities.len() * (cap + 1)],
            cum: Vec::with_capacity(cap + 1),
            prefixes: vec![0; inst.entities.len()],
        }
    }

    /// The optimal valid DFS for result `i` given fixed per-type values:
    /// returns its combined value and leaves its prefix vector in
    /// `self.prefixes`.
    fn respond(&mut self, inst: &Instance, i: usize, weights: &[u32], potentials: &[u32]) -> u64 {
        let cap = inst.config.size_bound.min(inst.type_count_of(i));
        let ResponseScratch { dp, choice, cum, prefixes } = self;
        dp[0] = 0;
        let mut reach = 0;

        for (e, list) in inst.ranked_lists(i).enumerate() {
            if list.is_empty() {
                continue; // prefix 0, nothing changes
            }
            // Prefix sums of the entity's type values in significance order;
            // a prefix longer than the budget is never taken.
            let top = list.len().min(cap);
            cum.clear();
            cum.push(0);
            let mut sum = 0;
            for &t in &list[..top] {
                sum += combined(weights[t], potentials[t]);
                cum.push(sum);
            }
            // In place, budgets descending: `dp[c - len]` is still the
            // previous entity's for every `len ≥ 1`. Lengths descending with
            // a strict `>` keep the longest prefix among ties, and the
            // lengths from a reachable budget are `c - before ..= min(top, c)`.
            let chosen = &mut choice[e * (cap + 1)..][..=cap];
            let before = reach;
            reach = (before + top).min(cap);
            for c in (0..=reach).rev() {
                let (lo, hi) = (c.saturating_sub(before), top.min(c));
                let (mut best, mut pick) = (dp[c - hi] + cum[hi], hi);
                for len in (lo..hi).rev() {
                    if dp[c - len] + cum[len] > best {
                        best = dp[c - len] + cum[len];
                        pick = len;
                    }
                }
                dp[c] = best;
                chosen[c] = pick as u32;
            }
        }

        // Pick the best (value, size) — larger budgets win ties, so the DFS
        // fills up to the bound when extra features cost nothing.
        let (mut best_c, mut best) = (0, dp[0]);
        for (c, &v) in dp.iter().enumerate().take(reach + 1) {
            if (v, c) >= (best, best_c) {
                best = v;
                best_c = c;
            }
        }

        // Reconstruct prefix lengths entity by entity, backwards.
        let mut c = best_c;
        for (e, prefix) in prefixes.iter_mut().enumerate().rev() {
            *prefix =
                if inst.ranked(i, e).is_empty() { 0 } else { choice[e * (cap + 1) + c] as usize };
            c -= *prefix;
        }
        debug_assert_eq!(c, 0);
        best
    }
}

/// Verifies multi-swap optimality in the paper's sense: for every result,
/// no valid replacement DFS (any number of feature changes) has a higher DoD
/// contribution — the search's own DP with the potential tie-breaker zeroed
/// finds nothing better than the DFS the result has.
pub fn is_multi_swap_optimal(inst: &Instance, set: &DfsSet) -> bool {
    let weights = Weights::new(inst, set);
    let zero = vec![0; inst.type_count()];
    let mut scratch = ResponseScratch::new(inst);
    (0..set.len()).all(|i| {
        let row = weights.row(i);
        scratch.respond(inst, i, row, &zero) <= dfs_value(inst, i, set.dfs(i), row, &zero)
    })
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
        // prefix vectors, with and without the potential tie-breaker: the
        // value is the best, the prefixes reach it, and among the best the
        // largest size wins.
        for bound in 0..=6 {
            let inst = two_entity_instance(bound);
            let mut scratch = ResponseScratch::new(&inst);
            let zero = vec![0u32; inst.type_count()];
            let rows = Weights::new(&inst, &snippet_set(&inst));
            for i in 0..2 {
                let weights = rows.row(i);
                for pots in [inst.potentials(i), &zero] {
                    let dp_value = scratch.respond(&inst, i, weights, pots);
                    let answer = Dfs::from_prefixes(&inst, i, &scratch.prefixes);
                    assert_eq!(answer.prefixes(), scratch.prefixes, "bound {bound}: in range");
                    assert_eq!(dfs_value(&inst, i, &answer, weights, pots), dp_value);
                    let lens: Vec<usize> = inst.ranked_lists(i).map(<[_]>::len).collect();
                    let mut best = (0u64, 0usize);
                    for p0 in 0..=lens[0] {
                        for p1 in (0..=lens[1]).filter(|p1| p0 + p1 <= bound) {
                            let d = Dfs::from_prefixes(&inst, i, &[p0, p1]);
                            best = best.max((dfs_value(&inst, i, &d, weights, pots), p0 + p1));
                        }
                    }
                    assert_eq!((dp_value, answer.size()), best, "bound {bound}, result {i}");
                }
            }
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
        // Per bound, `(rounds, moves, responses)` of the winning run and of
        // a polish of the snippets: a change of evaluation order moves them.
        let want = [
            (0, (1, 0, 2), (1, 0, 2)),
            (1, (1, 0, 2), (2, 1, 3)),
            (2, (1, 0, 2), (2, 1, 3)),
            (3, (2, 1, 2), (2, 1, 2)),
            (4, (1, 0, 2), (2, 1, 2)),
            (5, (1, 0, 2), (1, 0, 2)),
        ];
        let counters = |s: SwapStats| (s.rounds, s.moves, s.responses);
        for (bound, winner, from_snippets) in want {
            let inst = two_entity_instance(bound);
            assert_eq!(counters(multi_swap(&inst).1), winner, "bound {bound}");
            let stats = multi_swap_from(&inst, &mut snippet_set(&inst));
            assert_eq!(counters(stats), from_snippets, "bound {bound}");
        }
    }

    /// Single-swap stuck at the snippets, the DP escaping. Entity `e` has
    /// `p` and `q`, identical everywhere, then `r`, differentiable on every
    /// pair. B and C have only `e` and select `p, q, r`; A ranks its own
    /// `f` types `a, b, c` above them and selects those. At L = 3 the only
    /// single moves for A trade `c` for `p`: no DoD and no potential on
    /// either side, so single-swap stops where it started. A's DP takes the
    /// whole chain `p, q, r` at once, worth `r` against B and C.
    #[test]
    fn dp_escapes_where_single_swap_is_stuck() {
        let mk = |label: &str, r: u32, with_f: bool| {
            let mut triplets = vec![
                (FeatureType::new("e", "p"), "yes".to_string(), 6),
                (FeatureType::new("e", "q"), "yes".to_string(), 5),
                (FeatureType::new("e", "r"), "yes".to_string(), r),
            ];
            if with_f {
                for (attr, count) in [("a", 9), ("b", 8), ("c", 7)] {
                    triplets.push((FeatureType::new("f", attr), "yes".to_string(), count));
                }
            }
            ResultFeatures::from_raw(
                label,
                [("e".to_string(), 10), ("f".to_string(), 10)],
                triplets,
            )
        };
        let inst = Instance::build(
            &[mk("A", 1, true), mk("B", 2, false), mk("C", 4, false)],
            DfsConfig { size_bound: 3, threshold_pct: 10.0 },
        );
        let snippets = snippet_set(&inst);
        assert_eq!(snippets.dfs(0).prefixes(), [0, 3], "A starts at {{a, b, c}}");
        assert_eq!(dod_total(&inst, &snippets), 1, "r between B and C");
        assert!(crate::single_swap::is_single_swap_optimal(&inst, &snippets));
        let (single, stats) = single_swap(&inst);
        assert_eq!(single, snippets, "single-swap is stuck at the snippets");
        assert_eq!((stats.rounds, stats.moves, stats.responses), (1, 0, 3));

        assert!(!is_multi_swap_optimal(&inst, &snippets));
        let (multi, _) = multi_swap(&inst);
        assert_eq!(multi.dfs(0).prefixes(), [3, 0], "A takes {{p, q, r}}");
        assert_eq!(dod_total(&inst, &multi), 3);
        assert_eq!(crate::exhaustive::exhaustive(&inst, 10_000).map(|(_, d)| d), Some(3));
    }
}
