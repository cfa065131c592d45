//! Sharded corpus engine primitives.
//!
//! The paper's pipeline runs over one XML document; serving a *corpus* of
//! documents means partitioning the documents into shards, pushing each
//! query to every shard in parallel, and merging the per-shard ranked
//! results into one deterministic global ranking — the shape the LSST
//! multi-petabyte design in `PAPERS.md` calls shared-nothing partitioning
//! with result merging.
//!
//! This crate holds the engine's *mechanics*, deliberately free of any
//! XSACT type so each piece is independently testable and reusable:
//!
//! * [`ShardPlan`] — deterministic round-robin assignment of documents to
//!   shards, identical for every run with the same inputs;
//! * [`fan_out`] — query fan-out on a std-only scoped-thread pool (the
//!   build environment is offline: no rayon, no tokio), one worker per
//!   non-empty shard;
//! * [`ShardPool`] — the persistent flavour of the same contract: workers
//!   pinned to shard indexes for the lifetime of a server (the last shard
//!   runs on the broadcasting thread), broadcast requests, responses in
//!   shard order. Workers are **supervised**: a
//!   panic becomes a typed [`ShardPanic`] outcome for the affected
//!   broadcast and the worker is respawned from the retained work
//!   closure, so the next request is byte-identical to a fault-free run;
//! * [`k_way_merge`] — heap-based merge of per-shard ranked lists whose
//!   output order depends only on the comparator, never on the shard
//!   count or thread interleaving.
//!
//! The `xsact` facade's `Corpus` composes these with one `Workbench` per
//! document; see `src/corpus.rs` in the facade crate.

#![forbid(unsafe_code)]

pub mod merge;
pub mod pool;
pub mod shard;

pub use merge::k_way_merge;
pub use pool::{fan_out, ShardPanic, ShardPool};
pub use shard::{DocId, ShardPlan};
