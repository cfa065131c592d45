//! The one comparison call: [`compare`] runs an algorithm over a prebuilt
//! [`Instance`] and returns the outcome to inspect.

use crate::dfs::DfsSet;
use crate::dod::{dod_total, dod_upper_bound};
use crate::exhaustive::exhaustive;
use crate::greedy::greedy_set;
use crate::model::Instance;
use crate::single_swap::SwapStats;
use crate::snippet::snippet_set;
use crate::table::render_table;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsact_entity::FeatureType;

/// DFS generation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Per-result frequency snippets (eXtract-style baseline, no
    /// cross-result awareness).
    Snippet,
    /// One greedy marginal-gain pass.
    Greedy,
    /// The paper's single-swap optimal local search.
    SingleSwap,
    /// The paper's multi-swap optimal dynamic-programming local search.
    MultiSwap,
    /// The exhaustive oracle: full enumeration of the DFS combination
    /// space, bounded by `limit` combinations. Exponential — only feasible
    /// on small instances; [`compare`] reports the blow-up as the typed
    /// [`ExhaustiveLimitExceeded`].
    Exhaustive {
        /// Maximum number of DFS combinations to enumerate before giving
        /// up.
        limit: u64,
    },
}

impl Algorithm {
    /// The polynomial-time algorithms, in cheap-to-expensive order. The
    /// [`Algorithm::Exhaustive`] oracle is deliberately excluded: it is
    /// exponential and parameterised, so sweeps that iterate `ALL` stay
    /// tractable on any instance size.
    pub const ALL: [Algorithm; 4] =
        [Algorithm::Snippet, Algorithm::Greedy, Algorithm::SingleSwap, Algorithm::MultiSwap];

    /// Short display name used by the CLI and the bench harness.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Snippet => "snippet",
            Algorithm::Greedy => "greedy",
            Algorithm::SingleSwap => "single-swap",
            Algorithm::MultiSwap => "multi-swap",
            Algorithm::Exhaustive { .. } => "exhaustive",
        }
    }
}

/// Counters and timing of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Local-search rounds (0 for the non-iterative algorithms).
    pub rounds: u32,
    /// Accepted moves / DFS replacements.
    pub moves: u32,
    /// Wall-clock time of DFS generation (instance preprocessing excluded).
    pub elapsed: Duration,
}

/// An [`Algorithm::Exhaustive`] run would have enumerated more DFS
/// combinations than its limit allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExhaustiveLimitExceeded {
    /// The configured combination limit.
    pub limit: u64,
}

impl fmt::Display for ExhaustiveLimitExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "exhaustive search would enumerate more than {} DFS combinations", self.limit)
    }
}

impl std::error::Error for ExhaustiveLimitExceeded {}

/// Generates DFSs with `algorithm` over a prebuilt instance — the one
/// entry point. Preprocessing (interning + the differentiability bit
/// matrix) is paid once in [`Instance::build`], so comparing the same
/// results with several algorithms (or repeatedly) shares that one
/// instance, and every outcome holds it by reference. An
/// [`Algorithm::Exhaustive`] run over its limit is the typed
/// [`ExhaustiveLimitExceeded`], never a panic.
///
/// ```
/// use std::sync::Arc;
/// use xsact_core::{compare, Algorithm, DfsConfig, Instance};
/// use xsact_entity::{FeatureType, ResultFeatures};
///
/// let a = ResultFeatures::from_raw(
///     "A",
///     [("e".to_string(), 10)],
///     [(FeatureType::new("e", "x"), "yes".to_string(), 8)],
/// );
/// let b = ResultFeatures::from_raw(
///     "B",
///     [("e".to_string(), 10)],
///     [(FeatureType::new("e", "x"), "yes".to_string(), 2)],
/// );
/// let config = DfsConfig { size_bound: 3, ..DfsConfig::default() };
/// let instance = Arc::new(Instance::build(&[a, b], config));
/// let outcome = compare(&instance, Algorithm::MultiSwap).unwrap();
/// assert_eq!(outcome.dod(), 1);
/// println!("{}", outcome.table());
/// ```
pub fn compare(
    instance: &Arc<Instance>,
    algorithm: Algorithm,
) -> Result<ComparisonOutcome, ExhaustiveLimitExceeded> {
    let start = Instant::now();
    let (set, swap_stats) = match algorithm {
        Algorithm::Exhaustive { limit } => {
            let (set, _) = exhaustive(instance, limit).ok_or(ExhaustiveLimitExceeded { limit })?;
            (set, SwapStats::default())
        }
        _ => run_algorithm(instance, algorithm),
    };
    let elapsed = start.elapsed();
    let dod = dod_total(instance, &set);
    Ok(ComparisonOutcome {
        instance: Arc::clone(instance),
        set,
        dod,
        algorithm,
        stats: RunStats { rounds: swap_stats.rounds, moves: swap_stats.moves, elapsed },
    })
}

/// Runs `algorithm` on a prebuilt instance. The bench harness calls this
/// directly to exclude preprocessing from timings.
///
/// Panics if an [`Algorithm::Exhaustive`] run exceeds its combination
/// limit — callers that cannot bound the instance go through [`compare`]
/// instead.
pub fn run_algorithm(inst: &Instance, algorithm: Algorithm) -> (DfsSet, SwapStats) {
    match algorithm {
        Algorithm::Snippet => (snippet_set(inst), SwapStats::default()),
        Algorithm::Greedy => (greedy_set(inst), SwapStats::default()),
        Algorithm::SingleSwap => crate::single_swap::single_swap(inst),
        Algorithm::MultiSwap => crate::multi_swap::multi_swap(inst),
        Algorithm::Exhaustive { limit } => {
            let (set, _) = exhaustive(inst, limit)
                .expect("exhaustive enumeration exceeds its combination limit");
            (set, SwapStats::default())
        }
    }
}

/// The result of a comparison run: the DFSs, their DoD, and the rendered
/// table.
#[derive(Debug, Clone)]
pub struct ComparisonOutcome {
    /// The preprocessed instance the run operated on, shared with every
    /// other outcome over the same results (and with the pipeline that
    /// memoized it); it stays alive as long as any of them does.
    pub instance: Arc<Instance>,
    /// The generated DFSs, one per result.
    pub set: DfsSet,
    /// Total degree of differentiation achieved.
    pub dod: u32,
    /// The algorithm that produced the DFSs.
    pub algorithm: Algorithm,
    /// Run counters and timing.
    pub stats: RunStats,
}

impl ComparisonOutcome {
    /// Total degree of differentiation.
    pub fn dod(&self) -> u32 {
        self.dod
    }

    /// Upper bound on any DoD for this instance (all differentiable pairs).
    pub fn dod_upper_bound(&self) -> u32 {
        dod_upper_bound(&self.instance)
    }

    /// The comparison table (paper Figure 2) as ASCII art.
    pub fn table(&self) -> String {
        render_table(&self.instance, &self.set)
    }

    /// Result labels, in column order.
    pub fn labels(&self) -> Vec<&str> {
        self.instance.labels().collect()
    }

    /// The feature types selected for result `i`, grouped by entity in
    /// significance order.
    pub fn selected_types(&self, i: usize) -> Vec<&FeatureType> {
        self.set
            .dfs(i)
            .selected_types(&self.instance, i)
            .into_iter()
            .map(|t| &self.instance.types[t])
            .collect()
    }

    /// Size of result `i`'s DFS.
    pub fn dfs_size(&self, i: usize) -> usize {
        self.set.dfs(i).size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DfsConfig;
    use xsact_entity::ResultFeatures;

    fn instance(size_bound: usize) -> Arc<Instance> {
        let mk = |label: &str, x: u32, y: u32| {
            ResultFeatures::from_raw(
                label,
                [("e".to_string(), 10)],
                [
                    (FeatureType::new("e", "same"), "yes".to_string(), 9),
                    (FeatureType::new("e", "x"), "yes".to_string(), x),
                    (FeatureType::new("e", "y"), "yes".to_string(), y),
                ],
            )
        };
        let config = DfsConfig { size_bound, ..DfsConfig::default() };
        Arc::new(Instance::build(&[mk("A", 8, 1), mk("B", 3, 6)], config))
    }

    #[test]
    fn algorithms_are_ordered_by_quality_here() {
        let inst = instance(3);
        let snippet = compare(&inst, Algorithm::Snippet).unwrap();
        let single = compare(&inst, Algorithm::SingleSwap).unwrap();
        let multi = compare(&inst, Algorithm::MultiSwap).unwrap();
        assert!(single.dod() >= snippet.dod());
        assert!(multi.dod() >= single.dod());
        assert_eq!(multi.dod(), 2); // x and y both differentiable
        assert!(multi.dod() <= multi.dod_upper_bound());
    }

    #[test]
    fn exhaustive_matches_multi_swap_on_small_instance() {
        let inst = instance(3);
        let multi = compare(&inst, Algorithm::MultiSwap).unwrap();
        let opt = compare(&inst, Algorithm::Exhaustive { limit: 100_000 }).unwrap();
        assert_eq!(opt.dod(), multi.dod());
        assert_eq!(opt.algorithm, Algorithm::Exhaustive { limit: 100_000 });
        assert_eq!(opt.algorithm.name(), "exhaustive");
    }

    #[test]
    fn exhaustive_over_limit_is_a_typed_error() {
        let err = compare(&instance(3), Algorithm::Exhaustive { limit: 1 }).unwrap_err();
        assert_eq!(err, ExhaustiveLimitExceeded { limit: 1 });
        assert!(err.to_string().contains("more than 1 DFS combinations"));
    }

    #[test]
    fn outcome_exposes_selections() {
        let out = compare(&instance(3), Algorithm::MultiSwap).unwrap();
        assert_eq!(out.labels(), ["A", "B"]);
        assert_eq!(out.dfs_size(0), 3);
        let attrs: Vec<&str> = out.selected_types(0).iter().map(|t| t.attribute.as_str()).collect();
        assert_eq!(attrs, ["same", "x", "y"]);
        assert!(out.table().contains("A"));
    }

    #[test]
    fn run_reports_timing() {
        let out = compare(&instance(10), Algorithm::MultiSwap).unwrap();
        // Some wall-clock time passed (may round to zero on coarse clocks,
        // so only check it is well-formed).
        assert!(out.stats.elapsed >= Duration::ZERO);
        assert!(out.stats.rounds >= 1);
    }

    #[test]
    fn algorithm_names() {
        let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, ["snippet", "greedy", "single-swap", "multi-swap"]);
    }
}
