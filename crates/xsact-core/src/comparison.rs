//! The public façade: configure a comparison, run an algorithm, inspect the
//! outcome.

use crate::dfs::DfsSet;
use crate::dod::{dod_total, dod_upper_bound};
use crate::exhaustive::exhaustive;
use crate::greedy::greedy_set;
use crate::model::{DfsConfig, Instance};
use crate::single_swap::SwapStats;
use crate::snippet::snippet_set;
use crate::table::render_table;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsact_entity::{FeatureType, ResultFeatures};

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
    /// on small instances; [`Comparison::run_exhaustive_on`] reports the
    /// blow-up as `None`, and the `Workbench` facade as a typed error.
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

/// A configured comparison over a set of results.
///
/// ```
/// use xsact_core::{Algorithm, Comparison};
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
/// let outcome = Comparison::new(&[a, b]).size_bound(3).run(Algorithm::MultiSwap);
/// assert_eq!(outcome.dod(), 1);
/// println!("{}", outcome.table());
/// ```
#[derive(Debug, Clone)]
pub struct Comparison {
    results: Vec<ResultFeatures>,
    config: DfsConfig,
}

impl Comparison {
    /// Starts a comparison over the given results with default
    /// configuration (`L = 10`, `x = 10%`).
    pub fn new(results: &[ResultFeatures]) -> Self {
        Comparison { results: results.to_vec(), config: DfsConfig::default() }
    }

    /// Sets the comparison-table size bound `L` (features per DFS).
    #[must_use]
    pub fn size_bound(mut self, bound: usize) -> Self {
        self.config.size_bound = bound;
        self
    }

    /// Sets the differentiability threshold `x` in percent.
    #[must_use]
    pub fn threshold(mut self, pct: f64) -> Self {
        self.config.threshold_pct = pct;
        self
    }

    /// Builds the preprocessed instance (interning + differentiability
    /// matrix). `run` does this internally; exposed for benchmarks that
    /// time the algorithms in isolation.
    pub fn instance(&self) -> Instance {
        Instance::build(&self.results, self.config)
    }

    /// Generates DFSs with the chosen algorithm.
    ///
    /// For [`Algorithm::Exhaustive`] this panics when the combination count
    /// exceeds the variant's limit; use [`Comparison::run_exhaustive_on`]
    /// (or the `Workbench` facade, which returns a typed error) when the
    /// instance size is not known in advance.
    pub fn run(&self, algorithm: Algorithm) -> ComparisonOutcome {
        Self::run_on(&Arc::new(self.instance()), algorithm)
    }

    /// Runs an algorithm over an already-built instance — the entry point
    /// for callers that compare the *same* result set with several
    /// algorithms (or repeatedly): preprocessing (interning + the
    /// differentiability bit matrix) is paid once, and every outcome shares
    /// that one instance by reference.
    ///
    /// Panics like [`Comparison::run`] when an [`Algorithm::Exhaustive`]
    /// run exceeds its combination limit; use
    /// [`Comparison::run_exhaustive_on`] for the fallible form.
    pub fn run_on(instance: &Arc<Instance>, algorithm: Algorithm) -> ComparisonOutcome {
        if let Algorithm::Exhaustive { limit } = algorithm {
            return Self::run_exhaustive_on(instance, limit)
                .expect("exhaustive enumeration exceeds its combination limit");
        }
        let start = Instant::now();
        let (set, swap_stats) = run_algorithm(instance, algorithm);
        let elapsed = start.elapsed();
        let dod = dod_total(instance, &set);
        ComparisonOutcome {
            instance: Arc::clone(instance),
            set,
            dod,
            algorithm,
            stats: RunStats { rounds: swap_stats.rounds, moves: swap_stats.moves, elapsed },
        }
    }

    /// Exhaustive optimum over an already-built instance, if it is small
    /// enough that at most `limit` DFS combinations must be enumerated.
    /// `None` otherwise. The outcome is labelled [`Algorithm::Exhaustive`].
    pub fn run_exhaustive_on(instance: &Arc<Instance>, limit: u64) -> Option<ComparisonOutcome> {
        let start = Instant::now();
        let (set, dod) = exhaustive(instance, limit)?;
        let elapsed = start.elapsed();
        Some(ComparisonOutcome {
            instance: Arc::clone(instance),
            set,
            dod,
            algorithm: Algorithm::Exhaustive { limit },
            stats: RunStats { rounds: 0, moves: 0, elapsed },
        })
    }
}

/// Runs `algorithm` on a prebuilt instance. The bench harness calls this
/// directly to exclude preprocessing from timings.
///
/// Panics if an [`Algorithm::Exhaustive`] run exceeds its combination
/// limit — callers that cannot bound the instance should go through
/// [`Comparison::run_exhaustive_on`] instead.
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

    fn results() -> Vec<ResultFeatures> {
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
        vec![mk("A", 8, 1), mk("B", 3, 6)]
    }

    #[test]
    fn builder_configures_bound_and_threshold() {
        let c = Comparison::new(&results()).size_bound(2).threshold(25.0);
        let inst = c.instance();
        assert_eq!(inst.config.size_bound, 2);
        assert!((inst.config.threshold_pct - 25.0).abs() < 1e-12);
    }

    #[test]
    fn algorithms_are_ordered_by_quality_here() {
        let c = Comparison::new(&results()).size_bound(3);
        let snippet = c.run(Algorithm::Snippet);
        let single = c.run(Algorithm::SingleSwap);
        let multi = c.run(Algorithm::MultiSwap);
        assert!(single.dod() >= snippet.dod());
        assert!(multi.dod() >= single.dod());
        assert_eq!(multi.dod(), 2); // x and y both differentiable
        assert!(multi.dod() <= multi.dod_upper_bound());
    }

    #[test]
    fn exhaustive_matches_multi_swap_on_small_instance() {
        let c = Comparison::new(&results()).size_bound(3);
        let multi = c.run(Algorithm::MultiSwap);
        let opt = c.run(Algorithm::Exhaustive { limit: 100_000 });
        assert_eq!(opt.dod(), multi.dod());
    }

    #[test]
    fn exhaustive_outcome_is_labelled_exhaustive() {
        let c = Comparison::new(&results()).size_bound(3);
        let opt = Comparison::run_exhaustive_on(&Arc::new(c.instance()), 100_000).unwrap();
        assert_eq!(opt.algorithm, Algorithm::Exhaustive { limit: 100_000 });
        assert_eq!(opt.algorithm.name(), "exhaustive");
        // `run` accepts the variant and produces the same label and DoD.
        let via_run = c.run(Algorithm::Exhaustive { limit: 100_000 });
        assert_eq!(via_run.algorithm, opt.algorithm);
        assert_eq!(via_run.dod(), opt.dod());
    }

    #[test]
    fn exhaustive_over_limit_is_none() {
        let c = Comparison::new(&results()).size_bound(3);
        assert!(Comparison::run_exhaustive_on(&Arc::new(c.instance()), 1).is_none());
    }

    #[test]
    fn outcome_exposes_selections() {
        let c = Comparison::new(&results()).size_bound(3);
        let out = c.run(Algorithm::MultiSwap);
        assert_eq!(out.labels(), ["A", "B"]);
        assert_eq!(out.dfs_size(0), 3);
        let attrs: Vec<&str> = out.selected_types(0).iter().map(|t| t.attribute.as_str()).collect();
        assert_eq!(attrs, ["same", "x", "y"]);
        assert!(out.table().contains("A"));
    }

    #[test]
    fn run_reports_timing() {
        let c = Comparison::new(&results());
        let out = c.run(Algorithm::MultiSwap);
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
