//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (`layer.stage`), a start, an end, the span that caused
//! it and the id of the op it belongs to. Spans stay in memory and are
//! written to `bench/out/trace-<workload>.json` when the run ends. A span's
//! self time is its duration minus the time its direct children cover, so
//! the self times of one op's spans add up to the op's root span exactly.

use crate::alloc::allocations;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations the whole process made while the span was open.
    pub allocs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What one span name adds up to over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub spans: u64,
    pub self_ns: u64,
    pub total_ns: u64,
    pub self_allocs: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, op: u32, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
            allocs: allocations(),
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) -> Duration {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = allocations() - span.allocs;
        Duration::from_nanos(span.duration_ns())
    }

    /// Runs `work` inside a span that has no children of its own.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<SpanId>,
        work: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, op, parent);
        let result = work();
        self.end(id);
        result
    }

    /// Records a child whose duration the product itself reported (queue
    /// wait, execute): it is laid `offset` after its parent's start and
    /// clipped to the parent, so self-time arithmetic stays exact.
    pub fn reported_child(
        &mut self,
        name: &'static str,
        parent: SpanId,
        offset: Duration,
        duration: Duration,
    ) {
        let p = &self.spans[parent];
        let start_ns = (p.start_ns + offset.as_nanos() as u64).min(p.end_ns);
        let end_ns = (start_ns + duration.as_nanos() as u64).min(p.end_ns);
        let op = p.op;
        self.spans.push(Span { name, op, parent: Some(parent), start_ns, end_ns, allocs: 0 });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and self allocations of every span: its own minus what its
    /// direct children cover (never below zero).
    fn self_values(&self) -> Vec<(u64, u64)> {
        let mut own: Vec<(u64, u64)> =
            self.spans.iter().map(|s| (s.duration_ns(), s.allocs)).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent].0 = own[parent].0.saturating_sub(span.duration_ns());
                own[parent].1 = own[parent].1.saturating_sub(span.allocs);
            }
        }
        own
    }

    /// Totals per span name, name-sorted.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, (self_ns, self_allocs)) in self.spans.iter().zip(self.self_values()) {
            let t = totals.entry(span.name).or_default();
            t.spans += 1;
            t.self_ns += self_ns;
            t.total_ns += span.duration_ns();
            t.self_allocs += self_allocs;
        }
        totals
    }

    /// The trace as one JSON document: the per-name totals, then every span.
    pub fn to_json(&self, workload: &str, fingerprint: &str) -> String {
        let mut out =
            format!("{{\"workload\":\"{workload}\",\"fingerprint\":{fingerprint},\"totals\":{{");
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!(
                "{sep}\"{name}\":{{\"spans\":{},\"self_ns\":{},\"total_ns\":{},\"self_allocs\":{}}}",
                t.spans, t.self_ns, t.total_ns, t.self_allocs
            ));
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.allocs
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, op: 0, parent, start_ns, end_ns, allocs: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let tracer = Tracer {
            epoch: Instant::now(),
            spans: vec![
                span("op", None, 0, 100),
                span("a.x", Some(0), 10, 40), // 30, minus its child 10 = 20
                span("a.y", Some(1), 15, 25), // 10
                span("b.z", Some(0), 50, 90), // 40
                span("a.x", Some(0), 90, 95), // 5
            ],
        };
        let totals = tracer.totals();
        assert_eq!(totals["op"].self_ns, 100 - 30 - 40 - 5);
        assert_eq!(totals["a.x"], Totals { spans: 2, self_ns: 25, total_ns: 35, self_allocs: 0 });
        assert_eq!(totals["a.y"].self_ns, 10);
        assert_eq!(totals["b.z"].self_ns, 40);
        // Self times partition the root: nothing is counted twice or lost.
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn reported_children_are_clipped_to_their_parent() {
        let mut tracer = Tracer::default();
        let root = tracer.begin("serve.session", 3, None);
        tracer.spans[root].end_ns = tracer.spans[root].start_ns + 1_000;
        tracer.reported_child(
            "corpus.execute",
            root,
            Duration::from_nanos(200),
            Duration::from_nanos(5_000),
        );
        let child = &tracer.spans()[1];
        assert_eq!((child.op, child.parent), (3, Some(root)));
        assert_eq!(child.duration_ns(), 800);
        assert_eq!(tracer.totals()["serve.session"].self_ns, 200);
    }

    #[test]
    fn live_spans_nest_and_serialise() {
        let mut tracer = Tracer::default();
        let root = tracer.begin("op", 0, None);
        let n = tracer.leaf("core.render", 0, Some(root), || 41 + 1);
        tracer.end(root);
        assert_eq!(n, 42);
        let spans = tracer.spans();
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = tracer.to_json("w", "{}");
        assert!(json.contains("\"name\":\"core.render\",\"op\":0,\"parent\":0"));
        assert!(
            json.starts_with("{\"workload\":\"w\",\"fingerprint\":{},\"totals\":{\"core.render\"")
        );
    }
}
