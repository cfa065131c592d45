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
//! moves (see [`crate::dod`]), the gain of each move is an `O(1)` read of
//! the search's maintained weight rows (`dod::Weights`), which
//! every accepted move updates by the one type it adds or removes.
//!
//! Moves are ranked by `(ΔDoD, Δpotential)` lexicographically and accepted
//! while strictly positive. The potential tie-breaker (see
//! [`crate::Instance::potentials`]) lets two DFSs converge on a shared
//! differentiable type that neither has selected yet — a pure-DoD search
//! would see a 0 gain on both sides and stall. Each accepted move strictly
//! increases the bounded pair `(total DoD, Σ selected potentials)`, so the
//! search terminates. [`is_single_swap_optimal`] is the same best move with
//! the potentials zeroed.
//!
//! **One round driver.** Single-swap and multi-swap differ only in the best
//! response a visit to result `i` computes and acts on; both run it in the
//! round-robin loop of this module's `rounds`. A response depends only on
//! `i`'s weight row, its own DFS and its potentials, and after a visit `i`'s
//! DFS changes only at its next visit. So if no other DFS's move has
//! touched `i`'s row since, the next visit would move nothing, and the
//! driver skips exactly those visits: no move is lost and no round ends
//! differently, so `rounds` and `moves` are those of visiting every result
//! every round. [`SwapStats::responses`] counts the visits made.

use crate::dfs::DfsSet;
use crate::dod::Weights;
use crate::model::{EntityIdx, Instance};
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
    /// Best responses computed: the visits that scanned a result's moves
    /// (single-swap) or ran its DP (multi-swap). A search that visited
    /// every result every round would compute `rounds × n`; the searches
    /// skip the results no move has touched since their last response.
    pub responses: u32,
}

/// The round loop of both local searches over `set`'s weight rows: every
/// result starts dirty, and each round visits the dirty ones in order until
/// a round makes no move. `respond(set, weights, i)` computes result `i`'s
/// best response, makes its moves through `weights`, and returns how many
/// it made.
pub(crate) fn rounds(
    inst: &Instance,
    set: &mut DfsSet,
    weights: &mut Weights,
    mut respond: impl FnMut(&mut DfsSet, &mut Weights, usize) -> u32,
) -> SwapStats {
    let mut stats = SwapStats::default();
    weights.mark_all_dirty();
    loop {
        stats.rounds += 1;
        let mut improved = false;
        for i in 0..set.len() {
            if !weights.take_dirty(i) {
                continue;
            }
            stats.responses += 1;
            let moves = respond(set, weights, i);
            if moves > 0 {
                weights.debug_assert_follows(inst, set);
                stats.moves += moves;
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
    search(inst, set, &mut Weights::new(inst, set))
}

/// The search over `set`'s maintained weight rows; on return `weights`
/// holds the fixpoint's rows, which multi-swap polishes on.
pub(crate) fn search(inst: &Instance, set: &mut DfsSet, weights: &mut Weights) -> SwapStats {
    // Per entity, the `(weight, potential)` key of the type a grow would
    // add and of the type a shrink would remove — one lookup per entity per
    // scan, not one per pair.
    let mut ends = vec![(None, None); inst.entities.len()];
    rounds(inst, set, weights, |set, weights, i| {
        // Moves of result i leave its own row unchanged: it depends only on
        // the *other* DFSs.
        let mut moves = 0;
        let potentials = inst.potentials(i);
        while let Some((shrink, grow)) =
            best_move(inst, set, i, weights.row(i), potentials, &mut ends)
        {
            if let Some(e1) = shrink {
                weights.shrink(inst, set, i, e1);
            }
            weights.grow(inst, set, i, grow);
            moves += 1;
        }
        moves
    })
}

/// A type's `(weight, potential)` for one result.
type Key = (i64, i64);

/// The best grow or swap move of result `i` as `(shrink e₁, grow e₂)`, if
/// its `(ΔDoD, Δpotential)` is above `(0, 0)`: either the DoD improves, or
/// it is unchanged and the potential improves. Ties go to the first move in
/// `(e₂, grow before swaps, e₁)` order.
fn best_move(
    inst: &Instance,
    set: &DfsSet,
    i: usize,
    weights: &[u32],
    potentials: &[u32],
    ends: &mut [(Option<Key>, Option<Key>)],
) -> Option<(Option<EntityIdx>, EntityIdx)> {
    let dfs = set.dfs(i);
    let key = |t: usize| (i64::from(weights[t]), i64::from(potentials[t]));
    for (e, end) in ends.iter_mut().enumerate() {
        *end = (dfs.next_type(inst, i, e).map(key), dfs.last_type(inst, i, e).map(key));
    }
    let can_grow = dfs.size() < inst.config.size_bound;
    let mut best_key = (0, 0);
    let mut best = None;
    for (e2, &(added, _)) in ends.iter().enumerate() {
        let Some(gain) = added else { continue };
        if can_grow && gain > best_key {
            best_key = gain;
            best = Some((None, e2));
        }
        for (e1, &(_, removed)) in ends.iter().enumerate() {
            let Some(loss) = removed.filter(|_| e1 != e2) else { continue };
            let key = (gain.0 - loss.0, gain.1 - loss.1);
            if key > best_key {
                best_key = key;
                best = Some((Some(e1), e2));
            }
        }
    }
    best
}

/// Verifies single-swap optimality in the paper's sense: no grow or swap
/// move on any result increases the total DoD — the search's own best move
/// with the potential tie-breaker zeroed finds nothing.
pub fn is_single_swap_optimal(inst: &Instance, set: &DfsSet) -> bool {
    let weights = Weights::new(inst, set);
    let zero = vec![0; inst.type_count()];
    let mut ends = vec![(None, None); inst.entities.len()];
    (0..set.len()).all(|i| best_move(inst, set, i, weights.row(i), &zero, &mut ends).is_none())
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
        // A moves in round 1, which dirties B; B follows; round 2 revisits
        // only A, whom B's move dirtied, and finds nothing.
        assert_eq!((stats.rounds, stats.moves, stats.responses), (2, 2, 3));
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
