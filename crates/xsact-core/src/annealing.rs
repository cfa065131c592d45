//! Simulated annealing over DFS sets — an exploration of the paper's other
//! future-work direction ("better algorithms … for the DFS generation
//! problem").
//!
//! The two local-optimality criteria are deterministic hill climbers and
//! can park in coordination equilibria (see `single_swap.rs`). Annealing
//! explores the same prefix-vector space stochastically: a random
//! grow/shrink/transfer move on a random result's DFS, accepted with the
//! Metropolis rule on the DoD and a geometric cooling schedule. The
//! best-seen set is returned, so quality is monotone in the iteration
//! budget.
//!
//! The RNG is an embedded SplitMix64, keeping `xsact-core` free of runtime
//! dependencies and runs reproducible from the seed.

use crate::dfs::DfsSet;
use crate::dod::{dod_total, Weights};
use crate::model::Instance;
use crate::multi_swap::multi_swap;

/// Parameters of an annealing run.
#[derive(Debug, Clone, Copy)]
pub struct AnnealingConfig {
    /// RNG seed; equal seeds give identical runs.
    pub seed: u64,
    /// Number of proposed moves.
    pub iterations: u32,
    /// Initial temperature (in DoD units).
    pub initial_temperature: f64,
    /// Multiplicative cooling per iteration.
    pub cooling: f64,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        AnnealingConfig { seed: 2010, iterations: 4_000, initial_temperature: 2.0, cooling: 0.999 }
    }
}

/// SplitMix64 — tiny, fast, statistically fine for annealing proposals.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Runs simulated annealing from the multi-swap solution and returns the
/// best DFS set seen together with its DoD.
///
/// Starting from multi-swap guarantees the result is never worse than the
/// paper's best algorithm; the stochastic phase then looks for coordinated
/// escapes that deterministic best-response cannot make.
pub fn anneal(inst: &Instance, config: &AnnealingConfig) -> (DfsSet, u32) {
    let (start, _) = multi_swap(inst);
    anneal_from(inst, start, config)
}

/// Annealing from a caller-provided starting set.
///
/// The DoD is maintained **incrementally**: a proposal toggles at most two
/// types of one DFS, and its ΔDoD is `row(i)[added] − row(i)[removed]` read
/// off the run's maintained weight rows (`dod::Weights`), which every
/// accepted move updates — not a re-sum over all pairs (`O(n² · m)`). Debug
/// builds check the rows, the masks and the running DoD against fresh
/// recomputes at the end of the run.
pub fn anneal_from(inst: &Instance, start: DfsSet, config: &AnnealingConfig) -> (DfsSet, u32) {
    let n = inst.result_count();
    let entity_count = inst.entities.len();
    let bound = inst.config.size_bound;
    let mut rng = SplitMix64::new(config.seed);

    let mut current = start;
    let mut current_dod = dod_total(inst, &current);
    let mut best = current.clone();
    let mut best_dod = current_dod;
    let mut temperature = config.initial_temperature;

    if entity_count == 0 || bound == 0 {
        return (best, best_dod);
    }
    let mut weights = Weights::new(inst, &current);

    for _ in 0..config.iterations {
        temperature *= config.cooling;
        let i = rng.below(n);
        // Propose: 0 = grow, 1 = shrink, 2 = transfer, as the entity whose
        // prefix shrinks and the one whose prefix grows.
        let kind = rng.below(3);
        let dfs = current.dfs(i);
        let (shrink, grow) = match kind {
            0 => {
                if dfs.size() >= bound {
                    continue;
                }
                (None, Some(rng.below(entity_count)))
            }
            1 => (Some(rng.below(entity_count)), None),
            _ => {
                let from = rng.below(entity_count);
                let to = rng.below(entity_count);
                if from == to {
                    continue;
                }
                (Some(from), Some(to))
            }
        };
        // A move needs a type at each end it touches.
        let (Some(removed), Some(added)) = (
            shrink.map_or(Some(None), |e| dfs.last_type(inst, i, e).map(Some)),
            grow.map_or(Some(None), |e| dfs.next_type(inst, i, e).map(Some)),
        ) else {
            continue;
        };
        let row = weights.row(i);
        let delta =
            added.map_or(0, |t| i64::from(row[t])) - removed.map_or(0, |t| i64::from(row[t]));
        let accept = delta >= 0
            || (temperature > f64::EPSILON && rng.unit() < (delta as f64 / temperature).exp());
        if !accept {
            continue;
        }
        if let Some(e) = shrink {
            weights.shrink(inst, &mut current, i, e);
        }
        if let Some(e) = grow {
            weights.grow(inst, &mut current, i, e);
        }
        current_dod = (i64::from(current_dod) + delta) as u32;
        if current_dod > best_dod {
            best = current.clone();
            best_dod = current_dod;
        }
    }
    debug_assert!(best.all_valid(inst));
    debug_assert!(current.masks_consistent(inst), "selection bitmask drifted from prefixes");
    weights.debug_assert_follows(inst, &current);
    debug_assert_eq!(current_dod, dod_total(inst, &current), "incremental DoD drifted");
    debug_assert_eq!(best_dod, dod_total(inst, &best));
    (best, best_dod)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DfsConfig;
    use xsact_entity::{FeatureType, ResultFeatures};

    fn ty(e: &str, a: &str) -> FeatureType {
        FeatureType::new(e, a)
    }

    fn inst() -> Instance {
        let mk = |label: &str, x: u32, y: u32| {
            ResultFeatures::from_raw(
                label,
                [("e".to_string(), 10), ("f".to_string(), 10)],
                [
                    (ty("e", "p"), "yes".to_string(), 9),
                    (ty("e", "x"), "yes".to_string(), x),
                    (ty("f", "y"), "yes".to_string(), y),
                ],
            )
        };
        Instance::build(
            &[mk("a", 8, 2), mk("b", 3, 7)],
            DfsConfig { size_bound: 2, threshold_pct: 10.0 },
        )
    }

    #[test]
    fn never_worse_than_multi_swap() {
        let inst = inst();
        let (multi, _) = multi_swap(&inst);
        let (annealed, dod) = anneal(&inst, &AnnealingConfig::default());
        assert!(dod >= dod_total(&inst, &multi));
        assert!(annealed.all_valid(&inst));
        assert_eq!(dod, dod_total(&inst, &annealed));
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = inst();
        let cfg = AnnealingConfig { iterations: 500, ..Default::default() };
        let (a, da) = anneal(&inst, &cfg);
        let (b, db) = anneal(&inst, &cfg);
        assert_eq!(da, db);
        assert_eq!(a.dfs(0).prefixes(), b.dfs(0).prefixes());
    }

    #[test]
    fn respects_validity_throughout() {
        let inst = inst();
        let cfg = AnnealingConfig { iterations: 2_000, seed: 5, ..Default::default() };
        let (set, _) = anneal(&inst, &cfg);
        assert!(set.all_valid(&inst));
    }

    #[test]
    fn zero_iterations_returns_start() {
        let inst = inst();
        let (multi, _) = multi_swap(&inst);
        let cfg = AnnealingConfig { iterations: 0, ..Default::default() };
        let (set, dod) = anneal_from(&inst, multi.clone(), &cfg);
        assert_eq!(dod, dod_total(&inst, &multi));
        assert_eq!(set.dfs(0).prefixes(), multi.dfs(0).prefixes());
    }

    #[test]
    fn escapes_a_coordination_equilibrium() {
        // The differentiation-blind equilibrium: both snippets hold the
        // identical `loud` type; `quiet` (differentiable, other entity)
        // needs both sides to move.
        let mk = |label: &str, quiet: u32| {
            ResultFeatures::from_raw(
                label,
                [("e".to_string(), 10), ("f".to_string(), 10)],
                [
                    (ty("e", "loud"), "yes".to_string(), 9),
                    (ty("f", "quiet"), "yes".to_string(), quiet),
                ],
            )
        };
        let inst = Instance::build(
            &[mk("a", 8), mk("b", 3)],
            DfsConfig { size_bound: 1, threshold_pct: 10.0 },
        );
        let start = crate::snippet::snippet_set(&inst);
        assert_eq!(dod_total(&inst, &start), 0);
        let cfg = AnnealingConfig { iterations: 2_000, seed: 1, ..Default::default() };
        let (_, dod) = anneal_from(&inst, start, &cfg);
        assert_eq!(dod, 1);
    }

    #[test]
    fn incremental_dod_matches_full_recompute() {
        // The debug_asserts inside anneal_from verify the incremental DoD
        // at the end of each run; exercise many seeds and move mixes.
        let inst = inst();
        for seed in 0..20 {
            let cfg =
                AnnealingConfig { seed, iterations: 500, initial_temperature: 3.0, cooling: 0.99 };
            let start = crate::snippet::snippet_set(&inst);
            let (set, dod) = anneal_from(&inst, start, &cfg);
            assert_eq!(dod, dod_total(&inst, &set), "seed {seed}");
            assert!(set.all_valid(&inst), "seed {seed}");
        }
    }

    #[test]
    fn splitmix_is_uniform_enough() {
        let mut rng = SplitMix64::new(42);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            counts[rng.below(4)] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "bucket count {c}");
        }
        let u = rng.unit();
        assert!((0.0..1.0).contains(&u));
    }
}
