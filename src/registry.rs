//! A registry of named metrics with a stable text exposition.
//!
//! Registration takes a write lock once per metric name; the returned
//! handles are `Arc`s over the atomic metric itself, so the hot recording
//! path never touches the registry again. [`MetricsRegistry::expose`]
//! renders every metric in name order as Prometheus-style text — counters
//! as one sample line, histograms as a `summary` (quantile
//! lines plus `_sum`/`_count`/`_max`) so the exposition stays a fixed
//! handful of lines per metric instead of one line per bucket.
//!
//! Names are expected to be `snake_case` identifiers (the convention in
//! this workspace is an `xsact_` prefix and an explicit unit suffix such
//! as `_ns`); the registry treats them as opaque keys.

use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

/// A registry of named counters and histograms; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct MetricsRegistry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub(crate) fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind — a
    /// naming bug, not a runtime condition.
    pub(crate) fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::default()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as {}", kind(&other)),
        }
    }

    /// The histogram named `name`, registering it on first use (same
    /// kind-clash panic as [`counter`](Self::counter)).
    pub(crate) fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as {}", kind(&other)),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(found) = self.metrics.read().expect("metrics lock poisoned").get(name) {
            return found.clone();
        }
        let mut metrics = self.metrics.write().expect("metrics lock poisoned");
        metrics.entry(name.to_owned()).or_insert_with(make).clone()
    }

    /// The full exposition: every metric in name order, each preceded by a
    /// `# TYPE` line. Ends with a newline. Stable modulo the values — the
    /// CI smoke test diffs the shape with values normalised.
    pub(crate) fn expose(&self) -> String {
        let metrics = self.metrics.read().expect("metrics lock poisoned");
        let mut out = String::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {}", c.get());
                }
                Metric::Histogram(h) => {
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
}

fn kind(metric: &Metric) -> &'static str {
    match metric {
        Metric::Counter(_) => "counter",
        Metric::Histogram(_) => "histogram",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_per_name() {
        let r = MetricsRegistry::new();
        r.counter("xsact_requests").add(2);
        r.counter("xsact_requests").inc();
        assert_eq!(r.counter("xsact_requests").get(), 3);
        r.histogram("xsact_lat_ns").record(10);
        assert_eq!(r.histogram("xsact_lat_ns").snapshot().count, 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_clash_panics() {
        let r = MetricsRegistry::new();
        r.counter("xsact_thing");
        r.histogram("xsact_thing");
    }

    #[test]
    fn exposition_is_sorted_and_typed() {
        let r = MetricsRegistry::new();
        r.histogram("xsact_lat_ns").record(1000);
        r.counter("xsact_a").inc();
        let text = r.expose();
        let expected = "# TYPE xsact_a counter\n\
                        xsact_a 1\n\
                        # TYPE xsact_lat_ns summary\n\
                        xsact_lat_ns{quantile=\"0.5\"} 725\n\
                        xsact_lat_ns{quantile=\"0.9\"} 725\n\
                        xsact_lat_ns{quantile=\"0.99\"} 725\n\
                        xsact_lat_ns_sum 1000\n\
                        xsact_lat_ns_count 1\n\
                        xsact_lat_ns_max 1000\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn concurrent_registration_yields_one_metric() {
        let r = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        r.counter("xsact_hot").inc();
                    }
                });
            }
        });
        assert_eq!(r.counter("xsact_hot").get(), 800);
        assert_eq!(r.expose().matches("# TYPE xsact_hot").count(), 1);
    }
}
