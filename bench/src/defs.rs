//! The benchmark's declarations: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `/BENCHMARK.json` is this file
//! rendered by `xsact-perf --describe` (`bench/check.sh` diffs the two).

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 8;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric { name, unit, higher, bound }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, higher: false, bound: 0.0 }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, higher: true, bound: 0.0 }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "search_uncached",
        why: "page cache off, uniform over 512 queries: the streaming executor does the work, so index, kernel and corpus gains show here and serve front-end gains must not",
    },
    Workload {
        name: "search_cached",
        why: "256 queries, Zipf 1.1, all page-cache hits: framing, canonicalisation, cache probe, render and write are the whole op, so serve gains show here and executor gains must not",
    },
    Workload {
        name: "search_churn",
        why: "128-entry page cache under 512 uniform keys (1/4 hits, an insert and an eviction per miss): a hit-path win that taxes the cache's write path or its hit ratio shows here",
    },
    Workload {
        name: "compare_warm",
        why: "in-process DFS comparison tables over a warm feature cache: the paper's contribution (instance build, DFS algorithms, table render in core) does the work",
    },
    Workload {
        name: "compare_cold",
        why: "same comparison with the feature cache cleared before each op: feature extraction (entity) dominates, so a warm-path win that slows extraction or cache fill shows",
    },
    Workload {
        name: "cold_start",
        why: "spawn xsact serve on an XML directory with an empty index dir until the first query is answered: XML parse, index build and .xidx save do the work",
    },
    Workload {
        name: "warm_start",
        why: "same boot with the index dir already populated: .xidx load replaces the index build, so the saving a persisted index buys (or fails to) shows",
    },
];

/// Every workload reports every one of these on an untraced run.
/// `failed_share` is not among them because a metric here may never read 0:
/// failures travel in the result line's `failed` / `attempted` instead.
///
/// The bounds of the timing metrics are as wide as the contract allows:
/// on the shared box this was defined on, identical runs spread 4–9 %
/// (first to third quartile over the median, ten seeds) even after the
/// slicing and calibration of `window.rs`, and a bound has to stay about
/// three times above that to be a verdict rather than a coin toss.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("op_p50_ms", "ms", false, 0.25),
    e2e("op_p95_ms", "ms", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("cpu_ms_per_op", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.05),
];

/// Reported by a traced run; a metric the workload does not exercise
/// reads 0 there. README.md says which end-to-end metric each should move.
pub const PER_LAYER: &[Metric] = &[
    higher("xml.tokenize_mb_per_s", "MB/s"),
    higher("xml.parse_mb_per_s", "MB/s"),
    lower("xml.nodes_per_doc", "count"),
    lower("index.build_ms_per_doc", "ms"),
    lower("index.save_ms_per_doc", "ms"),
    lower("index.load_ms_per_doc", "ms"),
    lower("index.xidx_bytes_per_xml_byte", "B/B"),
    lower("index.query_parse_us", "us"),
    lower("index.search_top_k_us", "us"),
    lower("index.postings_scanned_per_op", "count"),
    lower("index.gallop_probes_per_op", "count"),
    higher("index.candidates_pruned_per_op", "count"),
    lower("index.empty_result_share", "share"),
    lower("index.allocs_per_op", "count"),
    lower("kernel.and2_count_ns_per_kword", "ns"),
    lower("kernel.count_in_range_ns_per_kval", "ns"),
    lower("entity.extract_us_per_result", "us"),
    lower("entity.allocs_per_op", "count"),
    higher("workbench.feature_cache_hit_share", "share"),
    lower("workbench.feature_hit_us_per_result", "us"),
    lower("core.instance_build_us", "us"),
    lower("core.dfs_snippet_us", "us"),
    lower("core.dfs_greedy_us", "us"),
    lower("core.dfs_single_swap_us", "us"),
    lower("core.dfs_multi_swap_us", "us"),
    lower("core.render_table_us", "us"),
    lower("core.bitmatrix_bytes", "B"),
    higher("core.dod_sum_snippet", "count"),
    higher("core.dod_sum_greedy", "count"),
    higher("core.dod_sum_single_swap", "count"),
    higher("core.dod_sum_multi_swap", "count"),
    lower("core.allocs_per_op", "count"),
    lower("corpus.execute_us", "us"),
    higher("corpus.shard_busy_share", "share"),
    lower("corpus.shard_restarts", "count"),
    lower("serve.frame_parse_us", "us"),
    lower("serve.session_overhead_us", "us"),
    lower("serve.queue_wait_us", "us"),
    lower("serve.render_us", "us"),
    lower("serve.reply_write_us", "us"),
    lower("serve.wire_overhead_us", "us"),
    lower("serve.response_bytes_per_op", "B"),
    higher("serve.cache_hit_share", "share"),
    lower("serve.cache_evictions_per_op", "count"),
    lower("serve.batch_size_mean", "count"),
    lower("serve.rejected", "count"),
    lower("serve.allocs_per_op", "count"),
    lower("cli.boot_overhead_ms", "ms"),
    lower("trace.ops", "count"),
    lower("trace.op_us", "us"),
    lower("trace.unattributed_share", "share"),
    lower("trace.overhead_share", "share"),
];

/// The contents of `/BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let better = |m: &Metric| if m.higher { "higher" } else { "lower" };
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"bench/run.sh\"],\n  \"paths\": [\"bench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn declarations_stay_inside_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = HashSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains(['\n', '"']), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
