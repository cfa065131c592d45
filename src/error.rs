//! The crate-wide error type of the XSACT pipeline.
//!
//! Every layer keeps its own error vocabulary (`xsact_xml::XmlError`,
//! `std::io::Error` from index persistence, …); this module folds them into
//! one [`XsactError`] enum so that consumers of the [`crate::Workbench`]
//! facade handle a single type with `?` instead of stringly-typed
//! `Result<_, String>` plumbing.

use std::fmt;
use xsact_xml::XmlError;

/// Result alias for facade operations.
pub type XsactResult<T> = Result<T, XsactError>;

/// Everything that can go wrong in the XSACT pipeline, from XML parsing to
/// DFS generation.
#[derive(Debug)]
pub enum XsactError {
    /// The input document is not well-formed XML.
    Xml(XmlError),
    /// The query contained no indexable search terms (empty string,
    /// punctuation only, …).
    EmptyQuery,
    /// A corpus operation ran over a corpus holding no documents (empty
    /// ingestion list, or a directory without `.xml` files).
    EmptyCorpus,
    /// The query was well-formed but matched nothing in the document.
    NoResults {
        /// The offending query text.
        query: String,
    },
    /// The query matched, but fewer than the two results a comparison
    /// needs.
    NotEnoughResults {
        /// The query text.
        query: String,
        /// How many results the query produced.
        found: usize,
    },
    /// A 1-based result selection pointed past the end of the result list.
    InvalidSelection {
        /// The out-of-range 1-based position.
        index: usize,
        /// Number of results actually available.
        available: usize,
    },
    /// A pipeline parameter is outside its meaningful domain (e.g. a
    /// negative differentiability threshold).
    InvalidConfig(String),
    /// An [`xsact_core::Algorithm::Exhaustive`] run would have enumerated
    /// more DFS combinations than its limit allows.
    ExhaustiveLimitExceeded {
        /// The configured combination limit.
        limit: u64,
    },
    /// Index persistence (save/load) failed — I/O proper, or a `.xidx`
    /// image that is corrupt, of an old version, saved from other XML, or
    /// holding another document than the caller's.
    Io(std::io::Error),
    /// The serving runtime turned a cache miss away at admission: the
    /// configured number of misses already waited for the server's
    /// execution lock (or the server was shutting down). The caller should
    /// back off and retry; nothing was executed.
    Overloaded {
        /// Misses waiting to execute when this one was turned away.
        depth: usize,
        /// The configured `queue_capacity`.
        capacity: usize,
    },
    /// A serving session spent its executor-work budget; further queries
    /// on the session are refused before admission.
    BudgetExceeded {
        /// Posting entries the session's queries have scanned so far.
        spent: u64,
        /// The session's budget in posting entries.
        budget: u64,
    },
    /// The query's deadline (the wait for the execution lock plus execute)
    /// elapsed before an answer could be produced. Checked under the
    /// execution lock before the query's shard jobs are submitted (it never
    /// executed) and again after they return (the answer arrived too late
    /// to matter); either way the caller should treat the result as unknown
    /// and retry with a fresh deadline.
    DeadlineExceeded {
        /// Milliseconds that had elapsed when the deadline check fired.
        elapsed_ms: u64,
        /// The configured deadline in milliseconds.
        deadline_ms: u64,
    },
    /// A shard panicked while executing this query. The shard caught the
    /// panic and keeps serving, so a retry runs on a
    /// healthy pool and is byte-identical to a fault-free run; no other
    /// query was affected.
    ShardFailed {
        /// The shard that panicked.
        shard: usize,
        /// The panic payload's message.
        detail: String,
    },
}

impl fmt::Display for XsactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XsactError::Xml(e) => write!(f, "malformed XML: {e}"),
            XsactError::EmptyQuery => {
                write!(f, "the query contains no search terms")
            }
            XsactError::EmptyCorpus => {
                write!(f, "the corpus contains no documents")
            }
            XsactError::NoResults { query } => {
                write!(f, "query {query:?} matched no results")
            }
            XsactError::NotEnoughResults { query, found } => write!(
                f,
                "query {query:?} matched {found} result{}; a comparison needs at least two",
                if *found == 1 { "" } else { "s" }
            ),
            XsactError::InvalidSelection { index, available } => {
                write!(f, "selection {index} is out of range (1..={available})")
            }
            XsactError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            XsactError::ExhaustiveLimitExceeded { limit } => write!(
                f,
                "exhaustive search would enumerate more than {limit} DFS combinations; \
                 raise the limit or use a local-search algorithm"
            ),
            XsactError::Io(e) => write!(f, "index persistence failed: {e}"),
            XsactError::Overloaded { depth, capacity } => write!(
                f,
                "server overloaded: {depth} misses already wait to execute \
                 (capacity {capacity}); back off and retry"
            ),
            XsactError::BudgetExceeded { spent, budget } => write!(
                f,
                "session budget exceeded: {spent} posting entries scanned of {budget} budgeted"
            ),
            XsactError::DeadlineExceeded { elapsed_ms, deadline_ms } => write!(
                f,
                "deadline exceeded: {elapsed_ms}ms elapsed of the {deadline_ms}ms allowed; \
                 retry with a fresh deadline"
            ),
            XsactError::ShardFailed { shard, detail } => write!(
                f,
                "shard {shard} failed while executing this query ({detail}); \
                 the shard recovered — retry"
            ),
        }
    }
}

impl std::error::Error for XsactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            XsactError::Xml(e) => Some(e),
            XsactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XmlError> for XsactError {
    fn from(e: XmlError) -> Self {
        XsactError::Xml(e)
    }
}

impl From<xsact_core::ExhaustiveLimitExceeded> for XsactError {
    fn from(e: xsact_core::ExhaustiveLimitExceeded) -> Self {
        XsactError::ExhaustiveLimitExceeded { limit: e.limit }
    }
}

impl From<std::io::Error> for XsactError {
    fn from(e: std::io::Error) -> Self {
        XsactError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_is_human_readable() {
        let e = XsactError::NoResults { query: "zeppelin".into() };
        assert!(e.to_string().contains("zeppelin"));
        let e = XsactError::InvalidSelection { index: 9, available: 2 };
        assert!(e.to_string().contains("out of range"));
        assert!(e.to_string().contains("1..=2"));
        let e = XsactError::NotEnoughResults { query: "q".into(), found: 1 };
        assert!(e.to_string().contains("1 result;"));
        let e = XsactError::ExhaustiveLimitExceeded { limit: 10 };
        assert!(e.to_string().contains("10"));
        let e = XsactError::Overloaded { depth: 64, capacity: 64 };
        assert!(e.to_string().contains("overloaded"));
        assert!(e.to_string().contains("64"));
        let e = XsactError::BudgetExceeded { spent: 120, budget: 100 };
        assert!(e.to_string().contains("120"));
        assert!(e.to_string().contains("100"));
        let e = XsactError::DeadlineExceeded { elapsed_ms: 75, deadline_ms: 50 };
        assert!(e.to_string().contains("75ms"));
        assert!(e.to_string().contains("50ms"));
        assert!(e.to_string().contains("retry"));
        let e = XsactError::ShardFailed { shard: 1, detail: "injected fault".into() };
        assert!(e.to_string().contains("shard 1"));
        assert!(e.to_string().contains("injected fault"));
        assert!(e.to_string().contains("the shard recovered — retry"));
    }

    #[test]
    fn xml_errors_convert_and_chain() {
        let xml = XmlError::EmptyDocument;
        let e: XsactError = xml.clone().into();
        assert!(matches!(&e, XsactError::Xml(inner) if *inner == xml));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("no root element"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "short read");
        let e: XsactError = io.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("short read"));
    }
}
