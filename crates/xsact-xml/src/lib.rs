//! Minimal XML substrate for XSACT.
//!
//! The XSACT pipeline consumes structured data stored as XML (the paper's
//! Product Reviews, Outdoor Retailer and IMDB movie datasets). This crate
//! provides everything the upper layers need and nothing more:
//!
//! * one byte-level scanner of borrowed events ([`tokenizer`]), presented
//!   to the outside as an iterator of [`Token`]s,
//! * a parser ([`parse`]) driving that scanner into a [`Document`] — a
//!   pointer-free DOM (parallel `u32` arrays and one text arena) whose node
//!   ids are preorder ranks, so document order, ancestry and subtrees are
//!   integer comparisons (what the SLCA executor in `xsact-index` runs on);
//!   a [`DeweyId`] path is derived on demand,
//! * an [`Interner`] of 4-byte [`Sym`] handles — tag and attribute names
//!   are interned per document — and a table of each document's distinct
//!   tag paths ([`paths`]): an element's kind is its [`PathId`], and each
//!   [`TagPath`] carries the facts entity inference reads,
//! * entity [`escape`]/unescape helpers,
//! * a [`writer`] that serialises a document back to text, and a binary
//!   image ([`Document::write_image`], [`Document::read_image`]) that
//!   `xsact-index` persists so a warm boot decodes instead of parsing —
//!   keyed by the [`WordHasher`] digest the parser records of its input.
//!
//! The crate has no dependencies, so it builds offline and the node model
//! can be tailored to keyword search: element and text nodes only, and
//! attributes are preserved as attributes — the search layer decides how
//! to treat them.
//!
//! # Example
//!
//! ```
//! use xsact_xml::parse_document;
//!
//! let doc = parse_document("<products><product><name>TomTom</name></product></products>")
//!     .expect("well-formed");
//! let root = doc.root();
//! assert_eq!(doc.tag(root), "products");
//! ```

#![forbid(unsafe_code)]

pub mod dewey;
pub mod dom;
pub mod error;
pub mod escape;
pub mod interner;
pub mod parse;
pub mod paths;
#[cfg(test)]
mod samples;
pub mod tokenizer;
pub mod writer;

pub use dewey::DeweyId;
pub use dom::{Document, ImageReader, NodeId, SubstrateStats};
pub use error::{XmlError, XmlResult};
pub use interner::{Interner, Sym, WordHasher};
pub use parse::parse_document;
pub use paths::{PathId, TagPath};
pub use tokenizer::{Token, Tokenizer};
pub use writer::{write_document, WriteOptions};
