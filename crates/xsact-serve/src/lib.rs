//! Serving-runtime primitives for the XSACT corpus engine.
//!
//! The corpus engine (PR 2–5) executes one query at a time: every
//! `CorpusQuery` spins up scoped threads, runs, and tears them down. A
//! *service* has concurrent callers, and those need machinery the engine
//! deliberately does not know about: a bounded submission queue with
//! admission control, per-session budgets, a result-page cache, and
//! counters that describe the server rather than a single query.
//!
//! This crate holds that machinery's *mechanics*, free of any XSACT
//! engine type (its only dependency is the observability layer
//! `xsact-obs`, mirroring how `xsact-corpus` stays engine-free), so every
//! piece is independently testable:
//!
//! * [`SubmissionQueue`] — a bounded MPMC queue whose `push` **rejects**
//!   instead of blocking (admission control is backpressure made visible
//!   to the caller), and whose `close` drains: queued work is still
//!   handed out after a close, new work is turned away.
//! * [`ServeCounters`] — server-level metrics backed by an `xsact-obs`
//!   registry: queries served, executions, batch-size and latency
//!   histograms (queue wait, execute, reply write, end-to-end), typed
//!   rejection counts, and the executor work aggregated over every
//!   execution — all scrapeable as one Prometheus-style exposition.
//! * [`PageCache`] — the bounded LRU result-page cache (entry and byte
//!   bounds) the facade checks before a query ever reaches the queue.
//!   Caching never changes bytes: the corpus is immutable and the
//!   executor deterministic, so nothing is ever invalidated.
//! * [`protocol`] — the newline-delimited request/response framing the
//!   TCP front end speaks (`QUERY …`, `TOP k`, `STATS`, `METRICS`,
//!   `QUIT`, `SHUTDOWN`; every response ends with a lone `.` line), and
//!   [`LineBuffer`], the incremental framer that turns whatever chunks
//!   the kernel delivers into request lines under a 64 KiB line cap.
//! * [`fault`] — deterministic fault injection: a [`FaultPlan`] arms
//!   named sites (`shard_panic`, `slow_execute`, `drop_connection`; any
//!   other name is refused) that fire on exact hit counts, so the chaos
//!   suite can pin recovery byte-identical to a fault-free run. Disarmed (the
//!   production default) a site check is a single branch.
//!
//! The `xsact` facade's `serve` module composes these with the corpus and
//! `xsact-corpus`'s persistent `ShardPool` into the actual server; see
//! `src/serve.rs` in the facade crate.

#![forbid(unsafe_code)]

pub mod cache;
pub mod fault;
pub mod protocol;
pub mod queue;
pub mod stats;

pub use cache::{Inserted, PageCache};
pub use fault::FaultPlan;
pub use protocol::{err_line, LineBuffer, Request, END_MARKER, MAX_TOP};
pub use queue::{Rejected, SubmissionQueue};
pub use stats::{ServeCounters, ServeSnapshot};
