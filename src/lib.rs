//! # XSACT — a comparison tool for structured search results
//!
//! Reproduction of *XSACT: A Comparison Tool for Structured Search Results*
//! (VLDB 2010 demonstration, DBLP `journals/pvldb/LiuNSBMWC10`) and its
//! companion full paper *Structured Search Result Differentiation*.
//!
//! The documented entry point is the [`Workbench`]: one session object per
//! document that owns the search engine, caches per-result features across
//! queries, and exposes the paper's whole pipeline (keyword search → entity
//! promotion → feature extraction → Differentiation Feature Set generation)
//! as a fluent, typed-error API. For many documents at once, the
//! [`Corpus`] pools one workbench per document behind a sharded,
//! deterministic parallel query engine (see [`corpus`]).
//!
//! ## Quickstart
//!
//! ```
//! use xsact::prelude::*;
//!
//! # fn main() -> Result<(), XsactError> {
//! // 1. Load (or generate) an XML dataset; one Workbench per document.
//! let wb = Workbench::from_document(xsact::data::fixtures::figure1_document());
//!
//! // 2. Run the paper's query and generate the comparison table in one
//! //    fluent pipeline. Every failure mode (empty query, no results, …)
//! //    is a typed `XsactError`.
//! let outcome = wb
//!     .query("TomTom GPS")?
//!     .take(4)
//!     .size_bound(7)
//!     .threshold(10.0)
//!     .compare(Algorithm::MultiSwap)?;
//!
//! // 3. Render the comparison table (paper Figure 2) and inspect the DoD.
//! println!("{}", outcome.table());
//! assert_eq!(outcome.dod(), 5); // the paper's headline number
//!
//! // 4. Repeated queries reuse the cached features — no re-extraction.
//! wb.query("TomTom GPS")?.size_bound(6).compare(Algorithm::Snippet)?;
//! assert_eq!(wb.cache_stats().misses, 2); // still only the first pass
//! assert!(wb.cache_stats().hits >= 2);
//! # Ok(())
//! # }
//! ```
//!
//! ## Layers
//!
//! The workbench orchestrates the workspace layers, which remain
//! independently usable (a design decision recorded in `ROADMAP.md`):
//!
//! * [`xml`] — XML substrate: parser, preorder-id DOM, writer.
//! * [`index`] — keyword search engine (XSeek-style): inverted index,
//!   SLCA, result construction, ranking, persistence, and the per-query
//!   traces ([`index::trace`]) its stages record.
//! * [`entity`] — result processor: entity identification and feature
//!   extraction.
//! * [`core`] — the paper's contribution: Differentiation Feature Sets,
//!   the Degree-of-Differentiation objective, and the single-swap /
//!   multi-swap algorithms (plus the [`Algorithm::Exhaustive`] oracle).
//! * [`data`] — dataset generators and the paper's worked example.
//!
//! Orchestration lives here, in the facade. The [`corpus`] module runs a
//! query over many workbenches on private modules for the shard plan,
//! the scoped-thread fan-out and persistent shard pool, and the k-way
//! merge. The [`serve`] module builds on them with private modules for
//! the result-page cache, the server counters with their histograms and
//! metrics registry, the `/metrics` endpoint
//! ([`CorpusServer::serve_metrics`]) and the fault plan: a
//! long-lived [`CorpusServer`] whose sessions each broadcast to its pool
//! once per executed miss, on their own threads, and whose pooling and
//! caching never change result bytes. Its wire format, the line
//! protocol, is a crate of its own (`xsact-serve`) that clients share
//! with the server.

#![forbid(unsafe_code)]

mod cache;
pub mod corpus;
pub mod error;
mod fault;
mod hist;
mod http;
mod merge;
mod pool;
mod registry;
mod selection;
pub mod serve;
mod shard;
mod stats;
pub mod workbench;

pub use corpus::{save_index_atomic, Corpus, CorpusHit, CorpusQuery, CorpusRanking};
pub use error::{XsactError, XsactResult};
pub use serve::{CorpusServer, QueryAnswer, ServeConfig, ServeSession};
pub use workbench::{validate_config, CacheStats, Workbench};

pub use xsact_core as core;
pub use xsact_data as data;
pub use xsact_entity as entity;
pub use xsact_index as index;
pub use xsact_xml as xml;

pub use xsact_core::Algorithm;
pub use xsact_index::ExecutorStats;

/// `README.md`'s `rust` blocks, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::corpus::{Corpus, CorpusHit, CorpusQuery, CorpusRanking, DocId};
    pub use crate::error::{XsactError, XsactResult};
    pub use crate::serve::{CorpusServer, QueryAnswer, ServeConfig, ServeSession};
    pub use crate::workbench::{CacheStats, Workbench};
    pub use xsact_core::{Algorithm, ComparisonOutcome, DfsConfig};
    pub use xsact_entity::{extract_features, FeatureType, ResultFeatures, StructureSummary};
    pub use xsact_index::trace::{QueryTrace, TraceSink};
    pub use xsact_index::{ExecutorStats, Query, ResultSemantics, SearchEngine, SearchResult};
    pub use xsact_xml::{parse_document, Document};
}
