//! Keyword query model.

use crate::lexer::tokenize_unique;
use std::fmt;

/// A conjunctive keyword query, e.g. `{TomTom, GPS}` from the paper's
/// running example. All terms must occur in a result (AND semantics, the
/// standard in XML keyword search).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    terms: Vec<String>,
}

impl Query {
    /// Parses free text into a query: tokenise, lowercase, deduplicate.
    ///
    /// ```
    /// use xsact_index::Query;
    /// let q = Query::parse("TomTom, GPS");
    /// assert_eq!(q.terms(), ["tomtom", "gps"]);
    /// ```
    pub fn parse(text: &str) -> Self {
        Query { terms: tokenize_unique(text) }
    }

    /// The normalised terms in first-seen order.
    pub fn terms(&self) -> &[String] {
        &self.terms
    }

    /// Iterates the normalised terms as string slices — what the query
    /// planner and the scorer consume (no `&String` double indirection).
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.terms.iter().map(String::as_str)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the query has no terms (matches nothing).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.terms.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_normalises() {
        let q = Query::parse("TomTom, GPS tomtom");
        assert_eq!(q.terms(), ["tomtom", "gps"]);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert_eq!(q.iter().collect::<Vec<_>>(), ["tomtom", "gps"]);
    }

    #[test]
    fn case_and_separators_do_not_change_a_query() {
        assert_eq!(Query::parse("TomTom GPS "), Query::parse("tomtom gps"));
    }

    #[test]
    fn empty_query() {
        assert!(Query::parse("  ,, !").is_empty());
    }

    #[test]
    fn display_is_braced_list() {
        assert_eq!(Query::parse("men jackets").to_string(), "{men, jackets}");
    }
}
