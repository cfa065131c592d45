//! XSACT core — the paper's primary contribution.
//!
//! Given a set of structured search results (as feature statistics from
//! `xsact-entity`), generate one **Differentiation Feature Set (DFS)** per
//! result so that, within a size bound `L` and subject to per-result
//! validity, the total **Degree of Differentiation (DoD)** across all result
//! pairs is maximised. The exact problem is NP-hard (paper Theorem 2.1);
//! the crate implements the paper's two local-optimality algorithms plus
//! baselines and an exhaustive oracle:
//!
//! | module | algorithm | guarantee |
//! |--------|-----------|-----------|
//! | [`mod@snippet`] | eXtract-style frequency snippets | none (baseline) |
//! | [`mod@greedy`] | one greedy marginal-gain pass | none (baseline) |
//! | [`mod@single_swap`] | iterated one-feature improvement | single-swap optimal |
//! | [`mod@multi_swap`] | per-result knapsack DP over prefixes | multi-swap optimal |
//! | [`mod@exhaustive`] | full enumeration | global optimum (small inputs) |
//!
//! Every algorithm but the snippet baseline and the oracle reads the DoD
//! objective through one table, `dod::Weights`: per result, the DoD each
//! type would add to its DFS. Greedy, the two local searches and annealing
//! keep it current move by move, and the optimality checkers
//! ([`is_single_swap_optimal`], [`is_multi_swap_optimal`]) are the
//! searches' own best responses over it. Single-swap and multi-swap share
//! one round driver and differ only in their best response.
//!
//! Entry point: [`compare`], over an [`Instance`] built once per result set.

#![forbid(unsafe_code)]

pub mod annealing;
pub mod bits;
pub mod comparison;
pub mod dfs;
pub mod dod;
pub mod exhaustive;
pub mod greedy;
pub mod model;
pub mod multi_swap;
pub mod single_swap;
pub mod snippet;
pub mod table;

pub use comparison::{
    compare, run_algorithm, Algorithm, ComparisonOutcome, ExhaustiveLimitExceeded, RunStats,
};
pub use dfs::{Dfs, DfsSet};
pub use dod::{all_type_weights, dod_pair, dod_total, dod_upper_bound};
pub use exhaustive::exhaustive;
pub use greedy::greedy_set;
pub use model::{CellStat, DfsConfig, Instance};
pub use multi_swap::{is_multi_swap_optimal, multi_swap, multi_swap_from};
pub use single_swap::{is_single_swap_optimal, single_swap, single_swap_from, SwapStats};
pub use snippet::snippet_set;
pub use table::render_table;
