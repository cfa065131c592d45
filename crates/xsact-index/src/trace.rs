//! Per-query stage traces.
//!
//! A [`TraceSink`] collects named, timed spans as a query moves through
//! the pipeline (parse → plan → slca-stream → rank → merge); the engine
//! threads an `Option<&TraceSink>` down so that with `None` the code
//! takes no timestamps at all — tracing is zero-cost when disabled, which
//! is what lets the byte-identity suite run with tracing both off and on.
//!
//! Timings come from [`Instant`], so they are monotonic; spans carry
//! integer annotations (executor counters, shard sizes) rather than a
//! payload type, so the facade's fan-out notes its own counters through
//! the same sink. The sink is `Sync` (a mutex around the span list) so a
//! corpus fan-out's shard workers can record concurrently; span order is
//! therefore insertion order, which for the single-threaded engine path
//! is pipeline order.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One completed, timed stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Stage label (e.g. `plan`, `slca-stream`, `shard 3`).
    pub label: String,
    /// Wall time of the stage, monotonic-clock nanoseconds.
    pub nanos: u64,
    /// Integer annotations, in the order they were noted.
    pub notes: Vec<(&'static str, u64)>,
}

/// A finished per-query trace: the spans in recording order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// The recorded spans.
    pub spans: Vec<TraceSpan>,
}

impl QueryTrace {
    /// Sum of all span times (stages are sequential on the engine path;
    /// for fan-outs this is total busy time, not wall time).
    fn total_nanos(&self) -> u64 {
        self.spans.iter().map(|s| s.nanos).sum()
    }

    /// The per-stage table the CLI prints under `--trace`: one line per
    /// span, aligned columns, annotations as `key=value`.
    pub fn render(&self) -> String {
        let label_width =
            self.spans.iter().map(|s| s.label.len()).max().unwrap_or(0).max("stage".len());
        let mut out = format!("{:label_width$}  {:>9}  notes\n", "stage", "time");
        for span in &self.spans {
            let _ = write!(out, "{:label_width$}  {:>9}", span.label, format_nanos(span.nanos));
            for (key, value) in &span.notes {
                let _ = write!(out, " {key}={value}");
            }
            out.push('\n');
        }
        let _ = write!(out, "{:label_width$}  {:>9}", "total", format_nanos(self.total_nanos()));
        out.push('\n');
        out
    }
}

/// Renders nanoseconds with a human unit, one decimal.
pub fn format_nanos(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.1}ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", nanos as f64 / 1_000_000_000.0)
    }
}

/// A collector of [`TraceSpan`]s; see the module docs.
#[derive(Debug, Default)]
pub struct TraceSink {
    spans: Mutex<Vec<TraceSpan>>,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// Starts a span; it records into the sink when finished (or
    /// dropped).
    pub fn span(&self, label: impl Into<String>) -> Span<'_> {
        Span { sink: self, label: label.into(), notes: Vec::new(), start: Instant::now() }
    }

    /// Records an already-timed span (for callers that measured
    /// elsewhere).
    pub fn record(&self, label: impl Into<String>, nanos: u64, notes: Vec<(&'static str, u64)>) {
        self.spans.lock().expect("trace sink lock poisoned").push(TraceSpan {
            label: label.into(),
            nanos,
            notes,
        });
    }

    /// Takes the spans recorded so far, leaving the sink empty for the
    /// next query.
    pub fn take(&self) -> QueryTrace {
        QueryTrace { spans: std::mem::take(&mut *self.spans.lock().expect("trace sink poisoned")) }
    }
}

/// An in-flight span; finish (or drop) it to record.
#[derive(Debug)]
pub struct Span<'a> {
    sink: &'a TraceSink,
    label: String,
    notes: Vec<(&'static str, u64)>,
    start: Instant,
}

impl Span<'_> {
    /// Attaches an integer annotation.
    pub fn note(&mut self, key: &'static str, value: u64) {
        self.notes.push((key, value));
    }

    /// Ends the span and records it (equivalent to dropping, but states
    /// the intent at call sites).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.sink.record(std::mem::take(&mut self.label), nanos, std::mem::take(&mut self.notes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_in_order_with_notes() {
        let sink = TraceSink::new();
        let mut a = sink.span("plan");
        a.note("lists", 2);
        a.finish();
        sink.span("rank").finish();
        let trace = sink.take();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].label, "plan");
        assert_eq!(trace.spans[0].notes, vec![("lists", 2)]);
        assert_eq!(trace.spans[1].label, "rank");
        // take() drains: the next query starts clean.
        assert!(sink.take().spans.is_empty());
    }

    #[test]
    fn render_is_a_table_with_totals() {
        let sink = TraceSink::new();
        sink.record("parse", 1_500, vec![("terms", 2)]);
        sink.record("slca-stream", 2_500_000, vec![]);
        let table = sink.take().render();
        assert!(table.starts_with("stage"), "{table}");
        assert!(table.contains("parse"), "{table}");
        assert!(table.contains("1.5µs"), "{table}");
        assert!(table.contains("terms=2"), "{table}");
        assert!(table.contains("2.5ms"), "{table}");
        assert!(table.trim_end().ends_with("2.5ms"), "total row last: {table}");
    }

    #[test]
    fn format_nanos_picks_units() {
        assert_eq!(format_nanos(999), "999ns");
        assert_eq!(format_nanos(1_000), "1.0µs");
        assert_eq!(format_nanos(2_500_000), "2.5ms");
        assert_eq!(format_nanos(1_500_000_000), "1.50s");
    }

    #[test]
    fn concurrent_spans_all_land() {
        let sink = TraceSink::new();
        std::thread::scope(|scope| {
            for shard in 0..4 {
                let sink = &sink;
                scope.spawn(move || sink.span(format!("shard {shard}")).finish());
            }
        });
        assert_eq!(sink.take().spans.len(), 4);
    }
}
