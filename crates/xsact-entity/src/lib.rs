//! Entity identification and feature extraction — the paper's *Result
//! Processor* (Figure 3).
//!
//! XSACT's comparison algorithms operate on features of the form
//! `(entity, attribute, value)` extracted from structured search results.
//! This crate provides the two modules of the result processor:
//!
//! * the **entity identifier** ([`classify`]): infers which XML nodes denote
//!   entities, attributes and connection nodes, in the spirit of the
//!   Entity-Relationship model, following the structural rules of XSeek
//!   (Liu & Chen, SIGMOD 2007 — reference \[3\] of the paper);
//! * the **feature extractor** ([`features`]): walks a result subtree and
//!   aggregates features with occurrence statistics, e.g. *"pro: compact —
//!   yes — 8 of 11 reviews (73%)"* as in Figure 1 of the paper.

#![forbid(unsafe_code)]

pub mod classify;
pub mod features;
pub mod label;

pub use classify::{NodeClass, StructureSummary};
pub use features::{extract_features, FeatureType, ResultFeatures, Stat};
