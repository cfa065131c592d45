//! Shared workload construction for the paper-figure binaries
//! (`fig1_stats`, `fig2_table`, `fig4`); performance is measured by the
//! stand-alone `bench/` package, not here.
//!
//! The Figure 4 workload runs through the [`Workbench`] facade: one
//! workbench per dataset, so repeated preparations of the same queries
//! reuse cached features instead of re-extracting them.

use xsact::prelude::*;
use xsact_core::Instance;
use xsact_data::movies::{qm_queries, MovieGenConfig, MoviesGen};

pub mod harness;

pub use harness::{emit_json, quick_mode, record, scaled};

/// Default movie-dataset size for the Figure 4 workload.
pub const FIG4_MOVIES: usize = 400;

/// Default seed (shared with the generators' defaults).
pub const FIG4_SEED: u64 = 42;

/// The paper lets the user tick the results to compare; the Figure 4
/// workload compares up to this many results per query so DoD values stay
/// in the same range as the paper's plot (tens, not thousands — DoD grows
/// quadratically in the number of results).
pub const FIG4_RESULT_CAP: usize = 6;

/// Size bound `L` used by the Figure 4 workload.
pub const FIG4_BOUND: usize = 6;

/// A prepared benchmark query: its label (QM1–QM8), the query text, and the
/// preprocessed comparison instance.
pub struct PreparedQuery {
    /// Query label (QM1..QM8).
    pub label: &'static str,
    /// Raw query text, e.g. `drama family`.
    pub text: String,
    /// Number of results the query returned (before capping).
    pub result_count: usize,
    /// The preprocessed instance over the (capped) result features.
    /// `None` when the query matched fewer than two results — nothing to
    /// compare.
    pub instance: Option<Instance>,
}

/// Builds the movie-search workbench for the Figure 4 experiments.
pub fn movie_workbench(movies: usize, seed: u64) -> Workbench {
    let doc = MoviesGen::new(MovieGenConfig { movies, seed, ..Default::default() }).generate();
    Workbench::from_document(doc)
}

/// Runs the eight QM queries and preprocesses each into a comparison
/// instance with the given size bound. Feature extraction goes through the
/// workbench cache, so only the first preparation per dataset pays it.
pub fn prepare_qm_queries(wb: &Workbench, result_cap: usize, bound: usize) -> Vec<PreparedQuery> {
    qm_queries()
        .into_iter()
        .map(|(label, text)| {
            let pipeline = wb.query(&text).expect("QM queries are never empty").take(result_cap);
            let result_count = pipeline.results().len();
            let instance = match pipeline.features() {
                Ok(features) if features.len() >= 2 => Some(Instance::build(
                    &features,
                    DfsConfig { size_bound: bound, threshold_pct: 10.0 },
                )),
                _ => None,
            };
            PreparedQuery { label, text, result_count, instance }
        })
        .collect()
}

/// A fixed-width row printer for the harness binaries.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:>w$}  ", w = *w));
    }
    println!("{}", line.trim_end());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_queries_cover_qm1_to_qm8() {
        let wb = movie_workbench(120, 1);
        let prepared = prepare_qm_queries(&wb, 6, 8);
        assert_eq!(prepared.len(), 8);
        assert_eq!(prepared[0].label, "QM1");
        assert_eq!(prepared[7].label, "QM8");
        // Most queries match something on a 120-movie dataset.
        let nonempty = prepared.iter().filter(|p| p.instance.is_some()).count();
        assert!(nonempty >= 6, "only {nonempty} queries matched");
        // The cap is respected.
        for p in prepared.iter().filter_map(|p| p.instance.as_ref()) {
            assert!(p.result_count() <= 6);
        }
    }

    #[test]
    fn repeated_preparation_hits_the_feature_cache() {
        let wb = movie_workbench(80, 1);
        prepare_qm_queries(&wb, 4, 6);
        let first = wb.cache_stats();
        prepare_qm_queries(&wb, 4, 6);
        let second = wb.cache_stats();
        assert_eq!(first.misses, second.misses, "second pass re-extracted features");
        assert!(second.hits > first.hits);
    }
}
