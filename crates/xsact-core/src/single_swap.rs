//! The single-swap optimal algorithm (paper §2, "Local Optimality and
//! Algorithms").
//!
//! A DFS set is **single-swap optimal** if changing *or adding one feature*
//! in any DFS — while keeping validity and the size bound — cannot increase
//! the total degree of differentiation. On the prefix-vector representation
//! the one-feature neighbourhood of result `i` is:
//!
//! * **grow(e)** — extend entity `e`'s prefix by one (needs `|Di| < L`),
//! * **swap(e₁ → e₂)** — drop the last feature of `e₁`'s prefix and extend
//!   `e₂`'s prefix ("changing one feature").
//!
//! Because the total DoD decomposes into per-type weights when only one DFS
//! moves (see [`crate::dod`]), the gain of each move is evaluated in `O(1)`
//! after an `O(n·m)` weight pass.
//!
//! Moves are ranked by `(ΔDoD, Δpotential)` lexicographically and accepted
//! while strictly positive. The potential tie-breaker (see
//! [`crate::Instance::potentials`]) lets two DFSs converge on a shared
//! differentiable type that neither has selected yet — a pure-DoD search
//! would see a 0 gain on both sides and stall. Each accepted move strictly
//! increases the bounded pair `(total DoD, Σ selected potentials)`, so the
//! search terminates.

use crate::dfs::DfsSet;
use crate::dod::{all_type_weights, all_type_weights_into};
use crate::model::Instance;
use crate::snippet::snippet_set;

/// Counters describing a local-search run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Round-robin passes over the results (including the final pass that
    /// found no improvement).
    pub rounds: u32,
    /// Accepted improving moves (single-swap) or DFS replacements
    /// (multi-swap).
    pub moves: u32,
}

/// Runs the single-swap algorithm exactly as the paper describes it:
/// start from the natural valid summary of each result (its significance
/// snippet) and iteratively improve one feature at a time until no grow or
/// swap move helps.
pub fn single_swap(inst: &Instance) -> (DfsSet, SwapStats) {
    let mut set = snippet_set(inst);
    let stats = single_swap_from(inst, &mut set);
    (set, stats)
}

/// Runs the single-swap algorithm from a caller-provided initial solution
/// (used by tests and ablations). Returns run counters; `set` is updated in
/// place.
pub fn single_swap_from(inst: &Instance, set: &mut DfsSet) -> SwapStats {
    let bound = inst.config.size_bound;
    let entity_count = inst.entities.len();
    let mut stats = SwapStats::default();
    // One scratch weight buffer for the whole run — refilled per result,
    // never reallocated.
    let mut weights: Vec<u32> = Vec::new();

    loop {
        stats.rounds += 1;
        let mut improved = false;
        for i in 0..set.len() {
            // Weights depend only on the *other* DFSs, so they stay valid
            // while we repeatedly improve result i. Potentials are static
            // and precomputed by the instance.
            all_type_weights_into(inst, set, i, &mut weights);
            let potentials = inst.potentials(i);
            loop {
                let mut best_key = (0i64, 0i64);
                let mut best_move: Option<(Option<usize>, usize)> = None; // (shrink e1, grow e2)
                for e2 in 0..entity_count {
                    let Some(added) = set.dfs(i).next_type(inst, i, e2) else {
                        continue;
                    };
                    let gain = (i64::from(weights[added]), i64::from(potentials[added]));
                    if set.dfs(i).size() < bound && gain > best_key {
                        best_key = gain;
                        best_move = Some((None, e2));
                    }
                    for e1 in 0..entity_count {
                        if e1 == e2 {
                            continue;
                        }
                        let Some(removed) = set.dfs(i).last_type(inst, i, e1) else {
                            continue;
                        };
                        let key = (
                            gain.0 - i64::from(weights[removed]),
                            gain.1 - i64::from(potentials[removed]),
                        );
                        if key > best_key {
                            best_key = key;
                            best_move = Some((Some(e1), e2));
                        }
                    }
                }
                match best_move {
                    // Accept (ΔDoD, Δpot) > (0, 0): either the DoD improves,
                    // or it is unchanged and the potential improves.
                    Some((shrink, grow)) if best_key > (0, 0) => {
                        if let Some(e1) = shrink {
                            let ok = set.shrink(inst, i, e1);
                            debug_assert!(ok);
                        }
                        let ok = set.grow(inst, i, grow);
                        debug_assert!(ok);
                        stats.moves += 1;
                        improved = true;
                    }
                    _ => break,
                }
            }
        }
        if !improved {
            break;
        }
    }
    debug_assert!(set.all_valid(inst));
    stats
}

/// Verifies single-swap optimality in the paper's sense: no grow or swap
/// move on any result increases the total DoD. (The potential tie-breaker is
/// an implementation refinement on top of this criterion.)
pub fn is_single_swap_optimal(inst: &Instance, set: &DfsSet) -> bool {
    let bound = inst.config.size_bound;
    for i in 0..set.len() {
        let weights = all_type_weights(inst, set, i);
        for e2 in 0..inst.entities.len() {
            let Some(added) = set.dfs(i).next_type(inst, i, e2) else { continue };
            let gain = i64::from(weights[added]);
            if set.dfs(i).size() < bound && gain > 0 {
                return false;
            }
            for e1 in 0..inst.entities.len() {
                if e1 == e2 {
                    continue;
                }
                let Some(removed) = set.dfs(i).last_type(inst, i, e1) else { continue };
                if gain - i64::from(weights[removed]) > 0 {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dod::dod_total;
    use crate::model::DfsConfig;
    use crate::snippet::snippet_set;
    use xsact_entity::{FeatureType, ResultFeatures};

    fn ty(a: &str) -> FeatureType {
        FeatureType::new("e", a)
    }

    /// Two results where the snippet choice is differentiation-blind:
    /// * entity `e`'s `loud` has the highest ratio in both results but
    ///   identical stats (never differentiates);
    /// * entity `f`'s `quiet` is lower-ranked but differentiable. Separate
    ///   entities keep the swap valid (within one entity the prefix rule
    ///   would pin the selection).
    fn blind_instance(bound: usize) -> Instance {
        let a = ResultFeatures::from_raw(
            "A",
            [("e".to_string(), 10), ("f".to_string(), 10)],
            [
                (FeatureType::new("e", "loud"), "yes".to_string(), 9),
                (FeatureType::new("f", "quiet"), "yes".to_string(), 8),
            ],
        );
        let b = ResultFeatures::from_raw(
            "B",
            [("e".to_string(), 10), ("f".to_string(), 10)],
            [
                (FeatureType::new("e", "loud"), "yes".to_string(), 9),
                (FeatureType::new("f", "quiet"), "yes".to_string(), 3),
            ],
        );
        Instance::build(&[a, b], DfsConfig { size_bound: bound, threshold_pct: 10.0 })
    }

    #[test]
    fn improves_over_snippets() {
        // Bound 1: snippets pick `loud` (DoD 0); the potential tie-breaker
        // moves one DFS to `quiet`, the other follows for a real gain.
        let inst = blind_instance(1);
        let snippets = snippet_set(&inst);
        assert_eq!(dod_total(&inst, &snippets), 0);
        let (set, _) = single_swap(&inst);
        assert_eq!(dod_total(&inst, &set), 1);
        assert!(set.all_valid(&inst));
        // The snippet-start run alone also escapes, via the potential
        // tie-breaker: one swap per result.
        let mut from_snippets = snippet_set(&inst);
        let stats = single_swap_from(&inst, &mut from_snippets);
        assert_eq!(dod_total(&inst, &from_snippets), 1);
        assert!(stats.moves >= 2);
    }

    #[test]
    fn reaches_single_swap_optimality() {
        for bound in [1, 2, 3] {
            let inst = blind_instance(bound);
            let (set, _) = single_swap(&inst);
            assert!(is_single_swap_optimal(&inst, &set), "bound {bound}");
        }
    }

    #[test]
    fn never_decreases_dod() {
        let inst = blind_instance(2);
        let snippets = snippet_set(&inst);
        let before = dod_total(&inst, &snippets);
        let (set, _) = single_swap(&inst);
        assert!(dod_total(&inst, &set) >= before);
    }

    #[test]
    fn single_result_is_trivially_optimal() {
        let a = ResultFeatures::from_raw(
            "A",
            [("e".to_string(), 5)],
            [(ty("x"), "yes".to_string(), 3)],
        );
        let inst = Instance::build(&[a], DfsConfig::default());
        let (set, stats) = single_swap(&inst);
        assert_eq!(dod_total(&inst, &set), 0);
        assert_eq!(stats.moves, 0);
        assert!(is_single_swap_optimal(&inst, &set));
    }

    #[test]
    fn zero_bound_stays_empty() {
        let inst = blind_instance(0);
        let (set, _) = single_swap(&inst);
        assert_eq!(set.dfs(0).size(), 0);
        assert_eq!(set.dfs(1).size(), 0);
        assert_eq!(dod_total(&inst, &set), 0);
    }

    #[test]
    fn identical_results_converge_immediately() {
        let a = ResultFeatures::from_raw(
            "A",
            [("e".to_string(), 10)],
            [(ty("x"), "yes".to_string(), 5), (ty("y"), "yes".to_string(), 3)],
        );
        let inst = Instance::build(&[a.clone(), a], DfsConfig::default());
        let (set, stats) = single_swap(&inst);
        assert_eq!(dod_total(&inst, &set), 0);
        // No move can ever improve: one fixpoint-check round only.
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.moves, 0);
    }

    #[test]
    fn three_results_pairwise_gains_accumulate() {
        // One type per entity so any subset is a valid DFS.
        let mk = |label: &str, x: u32, y: u32| {
            ResultFeatures::from_raw(
                label,
                [("n".to_string(), 10), ("f".to_string(), 10), ("g".to_string(), 10)],
                [
                    (FeatureType::new("n", "noise"), "yes".to_string(), 10),
                    (FeatureType::new("f", "x"), "yes".to_string(), x),
                    (FeatureType::new("g", "y"), "yes".to_string(), y),
                ],
            )
        };
        // `noise` identical everywhere; x and y differentiable on all pairs.
        let inst = Instance::build(
            &[mk("a", 9, 1), mk("b", 5, 4), mk("c", 2, 8)],
            DfsConfig { size_bound: 2, threshold_pct: 10.0 },
        );
        let (set, _) = single_swap(&inst);
        // Optimal: everyone selects {x, y} → 2 types × 3 pairs = 6.
        assert_eq!(dod_total(&inst, &set), 6);
    }
}
