//! Observability primitives for the XSACT workspace — dependency-free,
//! std-only, and shared by every layer that wants telemetry.
//!
//! Three pieces, each usable alone:
//!
//! * [`Histogram`] — a log-bucketed (√2-spaced) fixed-size latency
//!   histogram with wait-free relaxed-atomic recording and
//!   `p50`/`p90`/`p99`/`max` reconstruction ([`hist`]).
//! * [`MetricsRegistry`] — named counters and histograms with a
//!   stable Prometheus-style text exposition ([`registry`]), servable
//!   over plain HTTP by [`http::serve_metrics`].
//! * [`TraceSink`] / [`QueryTrace`] — per-query stage spans with
//!   monotonic timings and integer annotations ([`trace`]), threaded
//!   through the engine as an `Option<&TraceSink>` so disabled tracing
//!   takes no timestamps.
//!
//! This crate holds no XSACT types: callers attach their own counters as
//! span notes and choose their own metric names. The convention used by
//! the serving stack is an `xsact_` prefix and explicit unit suffixes
//! (`_ns` for nanosecond histograms).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod http;
pub mod registry;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot, HIST_BUCKETS};
pub use http::{serve_metrics, MetricsServer};
pub use registry::{Counter, MetricsRegistry};
pub use trace::{format_nanos, QueryTrace, Span, TraceSink, TraceSpan};
