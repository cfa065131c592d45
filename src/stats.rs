//! Server-level counters and latency histograms: the server's own
//! observability, as opposed to the per-query `ExecutorStats` the engine
//! already reports.
//!
//! The metric set is fixed once the shard count is known: [`ServeCounters`]
//! holds every counter and histogram by value, plus one busy-time
//! histogram per shard, and the server, its shard jobs and the `/metrics`
//! endpoint share it through one `Arc`. Any number of sessions and
//! connection threads record through one atomic op each, with no lock and
//! no lookup. [`ServeCounters::exposition`] renders the whole set (the
//! `METRICS` verb and the `/metrics` HTTP endpoint) in name order. A
//! snapshot reads one metric at a time, so a snapshot taken *while*
//! traffic flows may mix instants — at any quiescent point it is exact
//! (the same guarantee the workbench cache counters give).
//!
//! Latency histograms record nanoseconds. Per the serving contract,
//! `queue_wait`, `execute`, and `e2e` are recorded **once per answered
//! query** (a cache hit records zero queue wait and zero execute), so
//! each histogram's count equals `queries_served` at any quiescent point
//! — the CI smoke test pins it.

use crate::hist::{Histogram, HistogramSnapshot};
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
struct Counter(AtomicU64);

impl Counter {
    fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    fn inc(&self) {
        self.add(1);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One line group of the exposition.
enum Metric<'a> {
    Counter(&'a Counter),
    Summary(&'a Histogram),
}

/// The serving counters and histograms; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct ServeCounters {
    queries_served: Counter,
    batches: Counter,
    batch_size: Histogram,
    rejected_overload: Counter,
    rejected_budget: Counter,
    rejected_deadline: Counter,
    shard_failed: Counter,
    shard_restarts: Counter,
    // Executor work aggregated over every execution.
    postings_scanned: Counter,
    gallop_probes: Counter,
    candidates_pruned: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    queue_wait_ns: Histogram,
    execute_ns: Histogram,
    reply_write_ns: Histogram,
    e2e_ns: Histogram,
    /// Per-shard busy time (search only, no pool wait or merge), indexed
    /// by shard, so one scrape shows pool balance.
    shard_busy_ns: Box<[Histogram]>,
}

impl ServeCounters {
    /// A fresh counter set for a server of `shards` shards.
    pub(crate) fn new(shards: usize) -> ServeCounters {
        ServeCounters {
            shard_busy_ns: (0..shards).map(|_| Histogram::default()).collect(),
            ..ServeCounters::default()
        }
    }

    /// The full Prometheus-style exposition (the `METRICS` verb's body):
    /// every metric in name order, each preceded by a `# TYPE` line —
    /// counters as one sample line, histograms as a `summary` (quantile
    /// lines plus `_sum`/`_count`/`_max`). Ends with a newline.
    pub(crate) fn exposition(&self) -> String {
        let mut metrics: Vec<(String, Metric<'_>)> =
            [
                ("xsact_queries_served", Metric::Counter(&self.queries_served)),
                ("xsact_batches_formed", Metric::Counter(&self.batches)),
                ("xsact_batch_size", Metric::Summary(&self.batch_size)),
                ("xsact_rejected_overload", Metric::Counter(&self.rejected_overload)),
                ("xsact_rejected_budget", Metric::Counter(&self.rejected_budget)),
                ("xsact_rejected_deadline", Metric::Counter(&self.rejected_deadline)),
                ("xsact_shard_failed", Metric::Counter(&self.shard_failed)),
                ("xsact_shard_restarts", Metric::Counter(&self.shard_restarts)),
                ("xsact_postings_scanned", Metric::Counter(&self.postings_scanned)),
                ("xsact_gallop_probes", Metric::Counter(&self.gallop_probes)),
                ("xsact_candidates_pruned", Metric::Counter(&self.candidates_pruned)),
                ("xsact_cache_hits", Metric::Counter(&self.cache_hits)),
                ("xsact_cache_misses", Metric::Counter(&self.cache_misses)),
                ("xsact_cache_evictions", Metric::Counter(&self.cache_evictions)),
                ("xsact_queue_wait_ns", Metric::Summary(&self.queue_wait_ns)),
                ("xsact_execute_ns", Metric::Summary(&self.execute_ns)),
                ("xsact_reply_write_ns", Metric::Summary(&self.reply_write_ns)),
                ("xsact_e2e_ns", Metric::Summary(&self.e2e_ns)),
            ]
            .into_iter()
            .map(|(name, metric)| (name.to_owned(), metric))
            .chain(self.shard_busy_ns.iter().enumerate().map(|(shard, busy)| {
                (format!("xsact_shard_{shard}_busy_ns"), Metric::Summary(busy))
            }))
            .collect();
        // Sorted as strings, so `xsact_shard_10_busy_ns` comes before
        // `xsact_shard_2_busy_ns` and every shard before `xsact_shard_failed`.
        metrics.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        let mut out = String::new();
        for (name, metric) in metrics {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {}", c.get());
                }
                Metric::Summary(h) => {
                    let s = h.snapshot();
                    let _ = writeln!(out, "# TYPE {name} summary");
                    for (q, label) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
                        let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", s.quantile(q));
                    }
                    let _ = writeln!(out, "{name}_sum {}", s.sum);
                    let _ = writeln!(out, "{name}_count {}", s.count);
                    let _ = writeln!(out, "{name}_max {}", s.max);
                }
            }
        }
        out
    }

    /// Records one shard's busy time for one executed miss.
    pub(crate) fn record_shard_busy(&self, shard: usize, took: Duration) {
        self.shard_busy_ns[shard].record_duration(took);
    }

    /// Records one query answered by its own execution, which did the
    /// given executor work. The batch-size histogram observes 1: its name
    /// and the `batches_formed` line are part of the wire contract.
    pub(crate) fn record_batch(&self, postings: u64, probes: u64, pruned: u64) {
        self.queries_served.inc();
        self.batches.inc();
        self.batch_size.record(1);
        self.postings_scanned.add(postings);
        self.gallop_probes.add(probes);
        self.candidates_pruned.add(pruned);
    }

    /// Records one query answered straight from the result-page cache: it
    /// counts as served, and its queue-wait and execute observations are
    /// zero (the hit skipped both stages) so every latency histogram's
    /// count still equals `queries_served`. Nothing executes, so the hit
    /// counts in `coalesced_queries`, not in `batches_formed`.
    pub(crate) fn record_cache_hit(&self) {
        self.cache_hits.inc();
        self.queries_served.inc();
        self.queue_wait_ns.record(0);
        self.execute_ns.record(0);
    }

    /// Records one cache lookup that missed (the query went on to
    /// admission and, if admitted, execution).
    pub(crate) fn record_cache_miss(&self) {
        self.cache_misses.inc();
    }

    /// Records entries evicted by a cache insert that ran over a bound.
    pub(crate) fn record_cache_evictions(&self, evicted: u64) {
        self.cache_evictions.add(evicted);
    }

    /// Records one miss (or connection) turned away by admission control.
    pub(crate) fn record_overload_rejection(&self) {
        self.rejected_overload.inc();
    }

    /// Records one query turned away by a session budget.
    pub(crate) fn record_budget_rejection(&self) {
        self.rejected_budget.inc();
    }

    /// Records one query whose deadline elapsed before an answer could be
    /// produced (checked right before execute and again after it).
    pub(crate) fn record_deadline_rejection(&self) {
        self.rejected_deadline.inc();
    }

    /// Records one query lost to a shard panic: it was answered with the
    /// typed shard failure, and `restarts` shard outcomes failed (each
    /// worker caught its panic and went on serving).
    pub(crate) fn record_shard_failure(&self, restarts: u64) {
        self.shard_failed.inc();
        self.shard_restarts.add(restarts);
    }

    /// Records how long one admitted miss waited for the execution lock
    /// (once per executed query).
    pub(crate) fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait_ns.record_duration(wait);
    }

    /// Records one execution's shard latency (once per answered
    /// miss; keeping the count equal to `queries_served` is part of the
    /// exposition contract).
    pub(crate) fn record_execute(&self, took: Duration) {
        self.execute_ns.record_duration(took);
    }

    /// Records the time one response spent in the socket write.
    pub(crate) fn record_reply_write(&self, took: Duration) {
        self.reply_write_ns.record_duration(took);
    }

    /// Records one query's end-to-end latency, submission to answer in
    /// hand (once per query).
    pub(crate) fn record_e2e(&self, took: Duration) {
        self.e2e_ns.record_duration(took);
    }

    /// A point-in-time copy of every counter.
    pub(crate) fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            queries_served: self.queries_served.get(),
            batches: self.batches.get(),
            batch_size: self.batch_size.snapshot(),
            rejected_overload: self.rejected_overload.get(),
            rejected_budget: self.rejected_budget.get(),
            rejected_deadline: self.rejected_deadline.get(),
            shard_failed: self.shard_failed.get(),
            shard_restarts: self.shard_restarts.get(),
            postings_scanned: self.postings_scanned.get(),
            gallop_probes: self.gallop_probes.get(),
            candidates_pruned: self.candidates_pruned.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            cache_evictions: self.cache_evictions.get(),
            queue_wait_ns: self.queue_wait_ns.snapshot(),
            execute_ns: self.execute_ns.snapshot(),
            e2e_ns: self.e2e_ns.snapshot(),
        }
    }
}

/// A point-in-time copy of the server's counters, renderable as the `STATS`
/// protocol response and the CLI's shutdown summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSnapshot {
    /// Queries answered, by an execution or by a cache hit.
    pub queries_served: u64,
    /// Executions: one run of the shards per answered cache miss (the
    /// `batches_formed` line).
    pub batches: u64,
    /// One observation of 1 per execution (the `batch_size_hist` line).
    pub batch_size: HistogramSnapshot,
    /// Misses rejected by admission control (capacity reached or server
    /// shutting down), and connections over the cap.
    pub rejected_overload: u64,
    /// Queries rejected by a session budget.
    pub rejected_budget: u64,
    /// Queries whose deadline elapsed before an answer could be produced.
    pub rejected_deadline: u64,
    /// Queries answered with a typed shard failure (a shard's job
    /// panicked).
    pub shard_failed: u64,
    /// Shards recovered after a panic: one per failed shard outcome (the
    /// shard caught its panic and went on serving).
    pub shard_restarts: u64,
    /// Posting entries scanned, summed over every execution.
    pub postings_scanned: u64,
    /// Gallop probes, summed over every execution.
    pub gallop_probes: u64,
    /// Candidates pruned, summed over every execution.
    pub candidates_pruned: u64,
    /// Queries answered straight from the result-page cache (each also
    /// counts in `queries_served`; the `coalesced_queries` line).
    pub cache_hits: u64,
    /// Cache lookups that missed and went on to admission.
    pub cache_misses: u64,
    /// Result pages evicted to keep the cache inside its bounds.
    pub cache_evictions: u64,
    /// Queue-wait latency, one observation per query, nanoseconds.
    pub queue_wait_ns: HistogramSnapshot,
    /// Shard-pool execution latency, one observation per query,
    /// nanoseconds.
    pub execute_ns: HistogramSnapshot,
    /// End-to-end latency (submission to answer), one observation per
    /// query, nanoseconds.
    pub e2e_ns: HistogramSnapshot,
}

impl fmt::Display for ServeSnapshot {
    /// The `STATS` verb's body: one `name value` pair per line, stable
    /// names so scripted clients can parse it. Histogram values render as
    /// `count:N p50:V p99:V max:V` summaries (`-` when empty); the
    /// `_us` lines are microseconds.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "queries_served {}", self.queries_served)?;
        writeln!(f, "batches_formed {}", self.batches)?;
        writeln!(f, "batch_size_hist {}", self.batch_size.summary_line(1))?;
        // Queries answered without an execution of their own.
        writeln!(f, "coalesced_queries {}", self.cache_hits)?;
        writeln!(f, "rejected_overload {}", self.rejected_overload)?;
        writeln!(f, "rejected_budget {}", self.rejected_budget)?;
        writeln!(f, "rejected_deadline {}", self.rejected_deadline)?;
        writeln!(f, "shard_failed {}", self.shard_failed)?;
        writeln!(f, "shard_restarts {}", self.shard_restarts)?;
        writeln!(f, "postings_scanned {}", self.postings_scanned)?;
        writeln!(f, "gallop_probes {}", self.gallop_probes)?;
        writeln!(f, "candidates_pruned {}", self.candidates_pruned)?;
        writeln!(f, "cache_hits {}", self.cache_hits)?;
        writeln!(f, "cache_misses {}", self.cache_misses)?;
        writeln!(f, "cache_evictions {}", self.cache_evictions)?;
        writeln!(f, "queue_wait_us {}", self.queue_wait_ns.summary_line(1_000))?;
        writeln!(f, "execute_us {}", self.execute_ns.summary_line(1_000))?;
        write!(f, "e2e_us {}", self.e2e_ns.summary_line(1_000))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_accumulate_into_every_counter() {
        let c = ServeCounters::new(0);
        c.record_batch(10, 2, 1);
        c.record_batch(30, 6, 3);
        let s = c.snapshot();
        assert_eq!(s.queries_served, 2);
        assert_eq!(s.batches, 2);
        assert_eq!(s.batch_size.count, 2);
        assert_eq!(s.batch_size.max, 1);
        assert!(s.to_string().contains("coalesced_queries 0"), "{s}");
        assert_eq!((s.postings_scanned, s.gallop_probes, s.candidates_pruned), (40, 8, 4));
    }

    #[test]
    fn cache_hits_count_as_served_and_keep_histogram_counts() {
        let c = ServeCounters::new(0);
        c.record_batch(10, 2, 1);
        c.record_cache_miss();
        c.record_cache_hit();
        c.record_cache_hit();
        c.record_cache_evictions(3);
        let s = c.snapshot();
        assert_eq!(s.queries_served, 3, "hits count as served");
        assert_eq!(s.batches, 1, "a hit executes nothing");
        assert_eq!((s.cache_hits, s.cache_misses, s.cache_evictions), (2, 1, 3));
        assert_eq!(s.queue_wait_ns.count, s.queries_served - 1, "executions record their own");
        assert_eq!(s.execute_ns.count, 2, "hits record zero-duration execute observations");
        let text = s.to_string();
        assert!(text.contains("coalesced_queries 2"), "{text}");
        assert!(text.contains("cache_hits 2"), "{text}");
        assert!(text.contains("cache_misses 1"), "{text}");
        assert!(text.contains("cache_evictions 3"), "{text}");
        let exposition = c.exposition();
        assert!(exposition.contains("xsact_cache_hits 2"), "{exposition}");
    }

    #[test]
    fn rejections_are_counted_separately() {
        let c = ServeCounters::new(0);
        c.record_overload_rejection();
        c.record_overload_rejection();
        c.record_budget_rejection();
        c.record_deadline_rejection();
        let s = c.snapshot();
        assert_eq!(s.rejected_overload, 2);
        assert_eq!(s.rejected_budget, 1);
        assert_eq!(s.rejected_deadline, 1);
        assert_eq!(s.queries_served, 0);
    }

    #[test]
    fn shard_failures_count_queries_and_restarts() {
        let c = ServeCounters::new(0);
        c.record_shard_failure(1);
        c.record_shard_failure(2);
        let s = c.snapshot();
        assert_eq!(s.shard_failed, 2, "every failed query counts");
        assert_eq!(s.shard_restarts, 3);
        assert_eq!(s.queries_served, 0, "a failed execution serves nobody");
        let text = s.to_string();
        assert!(text.contains("shard_failed 2"), "{text}");
        assert!(text.contains("shard_restarts 3"), "{text}");
        assert!(text.contains("rejected_deadline 0"), "{text}");
        let exposition = c.exposition();
        assert!(exposition.contains("xsact_shard_restarts 3"), "{exposition}");
        assert!(exposition.contains("# TYPE xsact_shard_failed counter"), "{exposition}");
    }

    #[test]
    fn latency_recorders_feed_their_histograms() {
        let c = ServeCounters::new(2);
        c.record_queue_wait(Duration::from_micros(5));
        c.record_execute(Duration::from_micros(40));
        c.record_e2e(Duration::from_micros(50));
        c.record_reply_write(Duration::from_nanos(900));
        c.record_shard_busy(1, Duration::from_nanos(700));
        let s = c.snapshot();
        assert_eq!(s.queue_wait_ns.count, 1);
        assert_eq!(s.execute_ns.count, 1);
        assert_eq!(s.e2e_ns.count, 1);
        assert!(s.e2e_ns.max >= 50_000);
        let text = c.exposition();
        for line in [
            "xsact_reply_write_ns_max 900",
            "xsact_shard_0_busy_ns_count 0",
            "xsact_shard_1_busy_ns_max 700",
        ] {
            assert!(text.contains(&format!("\n{line}\n")), "missing {line:?} in:\n{text}");
        }
    }

    #[test]
    fn display_is_line_oriented_and_stable() {
        let c = ServeCounters::new(0);
        c.record_batch(7, 1, 0);
        let text = c.snapshot().to_string();
        assert!(text.contains("queries_served 1"), "{text}");
        assert!(text.contains("batch_size_hist count:1 p50:1 p99:1 max:1"), "{text}");
        assert!(text.contains("postings_scanned 7"), "{text}");
        assert!(text.contains("queue_wait_us -"), "{text}");
        assert!(text.contains("e2e_us -"), "{text}");
        assert!(!text.ends_with('\n'), "no trailing newline; the framer adds it");
    }

    #[test]
    fn exposition_contains_the_serving_metrics() {
        let c = ServeCounters::new(0);
        c.record_batch(5, 1, 0);
        c.record_e2e(Duration::from_micros(10));
        let text = c.exposition();
        for name in [
            "# TYPE xsact_queries_served counter",
            "# TYPE xsact_batch_size summary",
            "# TYPE xsact_queue_wait_ns summary",
            "# TYPE xsact_execute_ns summary",
            "# TYPE xsact_e2e_ns summary",
            "xsact_e2e_ns_count 1",
        ] {
            assert!(text.contains(name), "missing {name:?} in:\n{text}");
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let c = ServeCounters::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        c.record_batch(1, 1, 1);
                        c.record_overload_rejection();
                        c.record_e2e(Duration::from_nanos(500));
                    }
                });
            }
        });
        let s = c.snapshot();
        assert_eq!(s.queries_served, 800);
        assert_eq!(s.batches, 800);
        assert_eq!(s.rejected_overload, 800);
        assert_eq!(s.e2e_ns.count, 800);
    }
}
