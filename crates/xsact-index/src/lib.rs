//! Keyword search over XML — the *Search Engine* box of the paper's
//! architecture (Figure 3).
//!
//! The paper plugs XSACT into XSeek (Liu & Chen, SIGMOD 2007 / VLDB 2008 —
//! references [3, 4]); this crate is a from-scratch reproduction of the part
//! of XSeek that XSACT needs:
//!
//! * a tokenising [`lexer`] and [`Query`] model,
//! * an [`InvertedIndex`] mapping terms to XML nodes in document order
//!   (node ids are preorder ranks, so lowest-common-ancestor reasoning is
//!   integer comparison),
//! * [`slca`] — Smallest Lowest Common Ancestor computation, the standard
//!   XML keyword-search semantics, as a full-scan reference implementation,
//! * [`plan`] — the streaming executor: a rarest-first [`QueryPlan`] with
//!   zero-postings short-circuit, the anchored-gallop [`SlcaStream`] (the
//!   Indexed Lookup Eager SLCA algorithm of Xu & Papakonstantinou), and
//!   [`ExecutorStats`] observability,
//! * a [`SearchEngine`] that turns SLCAs into *results* by promoting each
//!   match to its master entity, as XSeek's return-node inference does —
//!   including the bounded [`SearchEngine::search_top_k`] executor behind
//!   every `take(k)`-style caller,
//! * [`persist`] — the `.xidx` image: a parsed document and its index in
//!   one validated file, keyed by a digest of the XML it came from,
//! * [`trace`] — per-query stage spans the engine records when a caller
//!   passes it a [`trace::TraceSink`].

#![forbid(unsafe_code)]

pub mod engine;
pub mod lexer;
pub mod persist;
pub mod plan;
pub mod postings;
pub mod query;
pub mod rank;
pub mod slca;
pub mod trace;

pub use engine::{ResultSemantics, SearchEngine, SearchResult};
pub use lexer::tokenize;
pub use persist::{load_image, save_image};
pub use plan::{ExecutorStats, QueryPlan, SlcaStream};
pub use postings::{IndexStats, InvertedIndex, PostingsIter, PostingsRef};
pub use query::Query;
pub use rank::{rank_results, ScoredResult, Scorer, TopK};
pub use slca::slca_full_scan;
