//! Feature interestingness — the paper's named future-work direction
//! ("considering more factors (e.g., interestingness) when selecting
//! features for DFS", §3).
//!
//! We quantify how *surprising* a result's value for a feature type is,
//! relative to the other results under comparison: a type whose dominant
//! value is shared by every result carries no information, while a value
//! (or occurrence ratio) that deviates from the group is worth showing even
//! when it does not change the DoD count. Two signals are combined:
//!
//! * **value surprise** — `-ln` of the fraction of type-bearing results
//!   that share this result's dominant value;
//! * **ratio deviation** — the absolute gap between this result's
//!   occurrence ratio and the group mean.
//!
//! [`interesting_set`] is a DFS generator that blends interestingness into
//! the greedy selection; the ablation harness compares it against the
//! DoD-only algorithms.

use crate::dfs::{Dfs, DfsSet};
use crate::dod::all_type_weights_into;
use crate::model::{Instance, TypeId};

/// Interestingness of result `i`'s cell for type `t`, in `[0, ~5]`.
/// Zero when the result lacks the type or no other result carries it.
pub fn type_interestingness(inst: &Instance, i: usize, t: TypeId) -> f64 {
    let Some(cell) = inst.cell(i, t) else {
        return 0.0;
    };
    // Scan the other results carrying the type — one pass, no peer list.
    let mut peers = 0usize;
    let mut sharing = 1usize;
    let mut peer_ratio_sum = 0.0f64;
    for j in 0..inst.result_count() {
        if j == i {
            continue;
        }
        let Some(peer) = inst.cell(j, t) else {
            continue;
        };
        peers += 1;
        if peer.value == cell.value {
            sharing += 1;
        }
        peer_ratio_sum += peer.ratio;
    }
    if peers == 0 {
        return 0.0;
    }
    let bearing = peers + 1;
    let value_surprise = -((sharing as f64) / (bearing as f64)).ln();
    let mean_ratio = (cell.ratio + peer_ratio_sum) / bearing as f64;
    let ratio_deviation = (cell.ratio - mean_ratio).abs();
    value_surprise + ratio_deviation
}

/// The interestingness of every type for result `i`, written into a
/// caller-provided scratch buffer.
pub fn interestingness_profile_into(inst: &Instance, i: usize, profile: &mut Vec<f64>) {
    profile.clear();
    profile.extend((0..inst.type_count()).map(|t| type_interestingness(inst, i, t)));
}

/// The interestingness of every type for result `i`.
pub fn interestingness_profile(inst: &Instance, i: usize) -> Vec<f64> {
    let mut profile = Vec::new();
    interestingness_profile_into(inst, i, &mut profile);
    profile
}

/// Total interestingness of a DFS set (sum over results and selected
/// types). A secondary quality metric reported by the ablation harness.
pub fn total_interestingness(inst: &Instance, set: &DfsSet) -> f64 {
    (0..set.len())
        .map(|i| {
            set.dfs(i)
                .selected_types(inst, i)
                .into_iter()
                .map(|t| type_interestingness(inst, i, t))
                .sum::<f64>()
        })
        .sum()
}

/// Greedy DFS generation blending differentiation and interestingness:
/// each slot takes the entity whose next ranked type maximises
/// `(weight, potential + λ·interestingness, significance)` — realised DoD
/// first, then a blend of differentiation *potential* and surprise.
///
/// With `lambda = 0` this reduces to the plain greedy baseline; larger
/// `lambda` increasingly prefers surprising features over merely
/// potentially-differentiating ones.
pub fn interesting_set(inst: &Instance, lambda: f64) -> DfsSet {
    let mut set = crate::snippet::snippet_set(inst);
    let mut weights: Vec<u32> = Vec::new();
    let mut interest: Vec<f64> = Vec::new();
    for i in 0..set.len() {
        all_type_weights_into(inst, &set, i, &mut weights);
        let potentials = inst.potentials(i);
        interestingness_profile_into(inst, i, &mut interest);
        let bound = inst.config.size_bound;
        let mut dfs = Dfs::empty(inst.entities.len());
        while dfs.size() < bound {
            let mut best: Option<((u32, f64, f64), usize)> = None;
            for e in 0..inst.entities.len() {
                let Some(t) = dfs.next_type(inst, i, e) else { continue };
                let sig = inst.sig_ratio(i, t);
                let key = (weights[t], f64::from(potentials[t]) + lambda * interest[t], sig);
                let better = match &best {
                    None => true,
                    Some((cur, _)) => {
                        key.0 > cur.0
                            || (key.0 == cur.0 && key.1 > cur.1)
                            || (key.0 == cur.0 && key.1 == cur.1 && key.2 > cur.2)
                    }
                };
                if better {
                    best = Some((key, e));
                }
            }
            match best {
                Some((_, e)) => {
                    dfs.grow(inst, i, e);
                }
                None => break,
            }
        }
        set.replace(inst, i, dfs);
    }
    debug_assert!(set.all_valid(inst));
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dod::dod_total;
    use crate::model::DfsConfig;
    use xsact_entity::{FeatureType, ResultFeatures};

    fn ty(e: &str, a: &str) -> FeatureType {
        FeatureType::new(e, a)
    }

    fn inst() -> Instance {
        let mk = |label: &str, shared: &str, ratio_count: u32| {
            ResultFeatures::from_raw(
                label,
                [("e".to_string(), 10)],
                [
                    (ty("e", "common"), shared.to_string(), 9),
                    (ty("e", "varies"), "yes".to_string(), ratio_count),
                ],
            )
        };
        Instance::build(
            &[mk("a", "x", 9), mk("b", "x", 5), mk("c", "odd", 1)],
            DfsConfig { size_bound: 2, threshold_pct: 10.0 },
        )
    }

    #[test]
    fn shared_values_are_boring() {
        let inst = inst();
        let common = inst.types.iter().position(|t| t.attribute == "common").unwrap();
        // Results a and b share value "x": low surprise. Result c's "odd"
        // value is unique: high surprise.
        let ia = type_interestingness(&inst, 0, common);
        let ic = type_interestingness(&inst, 2, common);
        assert!(ic > ia, "unique value must be more interesting: {ic} vs {ia}");
    }

    #[test]
    fn ratio_outliers_are_interesting() {
        let inst = inst();
        let varies = inst.types.iter().position(|t| t.attribute == "varies").unwrap();
        // Ratios 0.9, 0.5, 0.1: the extremes deviate more from the mean
        // than the middle one.
        let ia = type_interestingness(&inst, 0, varies);
        let ib = type_interestingness(&inst, 1, varies);
        let ic = type_interestingness(&inst, 2, varies);
        assert!(ia > ib);
        assert!(ic > ib);
    }

    #[test]
    fn absent_types_score_zero() {
        let a = ResultFeatures::from_raw(
            "a",
            [("e".to_string(), 5)],
            [(ty("e", "only_a"), "v".to_string(), 3)],
        );
        let b = ResultFeatures::from_raw(
            "b",
            [("e".to_string(), 5)],
            [(ty("e", "only_b"), "v".to_string(), 3)],
        );
        let inst = Instance::build(&[a, b], DfsConfig::default());
        for t in 0..inst.type_count() {
            // Either the result lacks the type or no peer carries it.
            assert_eq!(type_interestingness(&inst, 0, t), 0.0);
            assert_eq!(type_interestingness(&inst, 1, t), 0.0);
        }
    }

    #[test]
    fn interesting_set_is_valid_and_bounded() {
        let inst = inst();
        for lambda in [0.0, 0.5, 2.0] {
            let set = interesting_set(&inst, lambda);
            assert!(set.all_valid(&inst), "lambda {lambda}");
        }
    }

    #[test]
    fn lambda_zero_matches_greedy_dod() {
        let inst = inst();
        let greedy = crate::greedy::greedy_set(&inst);
        let interesting = interesting_set(&inst, 0.0);
        assert_eq!(dod_total(&inst, &greedy), dod_total(&inst, &interesting));
    }

    #[test]
    fn total_interestingness_sums_selected() {
        let inst = inst();
        let empty = DfsSet::empty(&inst);
        assert_eq!(total_interestingness(&inst, &empty), 0.0);
        let set = interesting_set(&inst, 1.0);
        assert!(total_interestingness(&inst, &set) > 0.0);
    }

    #[test]
    fn profile_has_one_entry_per_type() {
        let inst = inst();
        assert_eq!(interestingness_profile(&inst, 0).len(), inst.type_count());
    }
}
