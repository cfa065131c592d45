//! The paper's Figure 4 claims on the movie workload, as `examples/fig4.rs`
//! prints them: eight queries QM1–QM8, up to six results each, L = 6,
//! x = 10 %. Multi-swap DoD is at or above single-swap DoD on every query
//! and strictly above on some; the DoD values are pure functions of the
//! seed, so the committed size's row is pinned digit for digit.

use xsact::core::{dod_total, run_algorithm, Instance};
use xsact::data::movies::{qm_queries, MovieGenConfig, MoviesGen};
use xsact::prelude::*;

const RESULT_CAP: usize = 6;
const BOUND: usize = 6;

/// Per query: its label and, when at least two results matched, the
/// single-swap and multi-swap DoD over the capped selection.
fn figure4(movies: usize, seed: u64) -> Vec<(&'static str, Option<(u32, u32)>)> {
    let doc = MoviesGen::new(MovieGenConfig { movies, seed, ..Default::default() }).generate();
    let wb = Workbench::from_document(doc);
    qm_queries()
        .into_iter()
        .map(|(label, text)| {
            let pipeline =
                wb.query(&text).unwrap().take(RESULT_CAP).size_bound(BOUND).threshold(10.0);
            let dods = pipeline.instance().ok().map(|inst| {
                assert!(inst.result_count() <= RESULT_CAP, "{label}: the cap is respected");
                let dod = |inst: &Instance, algo| dod_total(inst, &run_algorithm(inst, algo).0);
                (dod(inst, Algorithm::SingleSwap), dod(inst, Algorithm::MultiSwap))
            });
            (label, dods)
        })
        .collect()
}

#[test]
fn multi_swap_is_never_below_single_swap_and_the_dod_row_is_the_committed_one() {
    let rows = figure4(400, 42);
    let labels: Vec<&str> = rows.iter().map(|(label, _)| *label).collect();
    assert_eq!(labels, ["QM1", "QM2", "QM3", "QM4", "QM5", "QM6", "QM7", "QM8"]);
    let dods: Vec<(u32, u32)> =
        rows.iter().map(|(_, d)| d.expect("every query compares")).collect();
    for ((label, _), (single, multi)) in rows.iter().zip(&dods) {
        assert!(multi >= single, "{label}: multi-swap {multi} < single-swap {single}");
    }
    assert!(dods.iter().any(|(single, multi)| multi > single), "multi-swap never strictly wins");
    let multi: Vec<u32> = dods.iter().map(|&(_, multi)| multi).collect();
    assert_eq!(multi, [56, 52, 49, 53, 56, 51, 54, 54]);
}

#[test]
fn a_small_dataset_still_compares_most_queries_within_the_cap() {
    let rows = figure4(120, 1);
    assert_eq!(rows.len(), 8);
    let comparable = rows.iter().filter(|(_, dods)| dods.is_some()).count();
    assert!(comparable >= 6, "only {comparable} queries matched two results");
}
