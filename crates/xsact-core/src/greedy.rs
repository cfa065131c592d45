//! A greedy marginal-gain baseline.
//!
//! One pass over the results: each DFS is rebuilt by repeatedly adding the
//! feature with the highest `(weight, potential, significance)` among the
//! entities' next ranked types, until the size bound is reached. Cheaper
//! than the swap algorithms (no convergence loop) but with no optimality
//! guarantee — the ablation harness quantifies the gap.

use crate::dfs::DfsSet;
use crate::dod::Weights;
use crate::model::Instance;
use crate::snippet::snippet_set;

/// Builds DFSs greedily: snippet initialisation, then one greedy rebuild per
/// result (in order), each seeing the already-rebuilt DFSs of its
/// predecessors.
pub fn greedy_set(inst: &Instance) -> DfsSet {
    let mut set = snippet_set(inst);
    let mut weights = Weights::new(inst, &set);
    rebuild(inst, &mut set, &mut weights);
    set
}

/// The greedy rebuild of `set` in place, on its maintained weight rows —
/// how multi-swap derives its greedy start from the snippets and snippet
/// rows it also starts from. Each result reads its row when its turn comes,
/// after its predecessors' rebuilds moved it; on return `weights` holds the
/// rebuilt set's rows.
pub(crate) fn rebuild(inst: &Instance, set: &mut DfsSet, weights: &mut Weights) {
    let mut prefixes = vec![0; inst.entities.len()];
    for i in 0..set.len() {
        greedy_prefixes(inst, i, weights.row(i), &mut prefixes);
        weights.replace(inst, set, i, &prefixes);
    }
    weights.debug_assert_follows(inst, set);
    debug_assert!(set.all_valid(inst));
}

/// The greedy construction of result `i`'s DFS over fixed weights
/// (potentials come from the instance), as one prefix length per entity.
fn greedy_prefixes(inst: &Instance, i: usize, weights: &[u32], prefixes: &mut [usize]) {
    let potentials = inst.potentials(i);
    prefixes.fill(0);
    for _ in 0..inst.config.size_bound {
        let mut best: Option<((u32, u32, f64), usize)> = None;
        for (e, &p) in prefixes.iter().enumerate() {
            let Some(&t) = inst.ranked(i, e).get(p) else { continue };
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
            Some((_, e)) => prefixes[e] += 1,
            None => break,
        }
    }
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
        assert!(set.dfs(0).size() <= 1);
        assert!(set.dfs(1).size() <= 1);
    }

    #[test]
    fn greedy_is_deterministic() {
        let inst = inst(2);
        assert_eq!(greedy_set(&inst), greedy_set(&inst));
    }

    /// Greedy looks one type ahead per entity, so a differentiable type
    /// behind an identical one is out of its sight. B has only entity `e`:
    /// `p` (identical everywhere) then `r` (differentiable). A also has `a`
    /// and `b` of entity `f`, which B lacks. At L = 2 greedy rebuilds A on
    /// weights where `p` and `a` tie at (0, 0) and significance picks `a`,
    /// then `b`; A never selects `r`. Multi-swap's DP sees `{p, r}` whole.
    #[test]
    fn greedy_is_strictly_below_multi_swap_behind_an_identical_type() {
        let mk = |label: &str, r: u32, with_f: bool| {
            let mut triplets = vec![
                (FeatureType::new("e", "p"), "yes".to_string(), 6),
                (FeatureType::new("e", "r"), "yes".to_string(), r),
            ];
            if with_f {
                triplets.push((FeatureType::new("f", "a"), "yes".to_string(), 9));
                triplets.push((FeatureType::new("f", "b"), "yes".to_string(), 8));
            }
            ResultFeatures::from_raw(
                label,
                [("e".to_string(), 10), ("f".to_string(), 10)],
                triplets,
            )
        };
        let inst = Instance::build(
            &[mk("A", 1, true), mk("B", 4, false)],
            DfsConfig { size_bound: 2, threshold_pct: 10.0 },
        );
        let dod = |set: &DfsSet| dod_total(&inst, set);
        let greedy = greedy_set(&inst);
        assert_eq!(greedy.dfs(0).prefixes(), [0, 2], "A keeps {{a, b}}");
        assert_eq!(dod(&greedy), 0);
        assert_eq!(dod(&snippet_set(&inst)), 0);
        let (multi, _) = crate::multi_swap::multi_swap(&inst);
        assert_eq!(multi.dfs(0).prefixes(), [2, 0], "A takes {{p, r}}");
        assert_eq!(dod(&multi), 1);
        assert_eq!(crate::exhaustive::exhaustive(&inst, 1_000).map(|(_, d)| d), Some(1));
    }
}
