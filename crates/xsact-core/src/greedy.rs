//! A greedy marginal-gain baseline.
//!
//! One pass over the results: each DFS is rebuilt by repeatedly adding the
//! feature with the highest `(weight, potential, significance)` among the
//! entities' next ranked types, until the size bound is reached. Cheaper
//! than the swap algorithms (no convergence loop) but with no optimality
//! guarantee — the ablation harness quantifies the gap.

use crate::dfs::{Dfs, DfsSet};
use crate::dod::all_type_weights_into;
use crate::model::Instance;
use crate::snippet::snippet_set;

/// Builds DFSs greedily: snippet initialisation, then one greedy rebuild per
/// result (in order), each seeing the already-rebuilt DFSs of its
/// predecessors. One weight buffer serves the whole pass.
pub fn greedy_set(inst: &Instance) -> DfsSet {
    let mut set = snippet_set(inst);
    let mut weights: Vec<u32> = Vec::new();
    for i in 0..set.len() {
        all_type_weights_into(inst, &set, i, &mut weights);
        let dfs = greedy_dfs_weighted(inst, i, &weights);
        set.replace(inst, i, dfs);
    }
    debug_assert!(set.all_valid(inst));
    set
}

/// The greedy construction over precomputed weights (potentials come from
/// the instance).
fn greedy_dfs_weighted(inst: &Instance, i: usize, weights: &[u32]) -> Dfs {
    let potentials = inst.potentials(i);
    let bound = inst.config.size_bound;
    let mut dfs = Dfs::empty(inst.entities.len());
    while dfs.size() < bound {
        let mut best: Option<((u32, u32, f64), usize)> = None;
        for e in 0..inst.entities.len() {
            let Some(t) = dfs.next_type(inst, i, e) else { continue };
            let sig = inst.sig_ratio(i, t);
            let key = (weights[t], potentials[t], sig);
            let better = match &best {
                None => true,
                Some((cur, _)) => {
                    (key.0, key.1) > (cur.0, cur.1)
                        || ((key.0, key.1) == (cur.0, cur.1) && key.2 > cur.2)
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
    dfs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dod::dod_total;
    use crate::model::DfsConfig;
    use xsact_entity::{FeatureType, ResultFeatures};

    fn ty(a: &str) -> FeatureType {
        FeatureType::new("e", a)
    }

    fn inst(bound: usize) -> Instance {
        let a = ResultFeatures::from_raw(
            "A",
            [("e".to_string(), 10)],
            [
                (ty("same"), "yes".to_string(), 9),
                (ty("d1"), "yes".to_string(), 8),
                (ty("d2"), "yes".to_string(), 2),
            ],
        );
        let b = ResultFeatures::from_raw(
            "B",
            [("e".to_string(), 10)],
            [
                (ty("same"), "yes".to_string(), 9),
                (ty("d1"), "yes".to_string(), 3),
                (ty("d2"), "yes".to_string(), 7),
            ],
        );
        Instance::build(&[a, b], DfsConfig { size_bound: bound, threshold_pct: 10.0 })
    }

    #[test]
    fn greedy_prefers_differentiating_types() {
        // Bound 2: greedy must pick {d1, d2}-bearing prefixes... but
        // validity forces `same` (rank 1 on both sides) before d2/d1.
        // A's ranking: same(9), d1(8), d2(2); greedy with bound 2 picks
        // prefix {same, d1} — d1 has potential 1, then actual weight once B
        // rebuilds.
        let inst = inst(3);
        let set = greedy_set(&inst);
        // Full prefixes fit at bound 3: DoD = d1 + d2 = 2.
        assert_eq!(dod_total(&inst, &set), 2);
        assert!(set.all_valid(&inst));
    }

    #[test]
    fn greedy_respects_bound() {
        let inst = inst(1);
        let set = greedy_set(&inst);
        assert!(set.dfs(0).within(1));
        assert!(set.dfs(1).within(1));
    }

    #[test]
    fn greedy_is_deterministic() {
        let inst = inst(2);
        assert_eq!(greedy_set(&inst), greedy_set(&inst));
    }
}
