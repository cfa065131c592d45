//! Term extraction shared by the index builder and the query parser.
//!
//! Both sides must agree on what a "term" is, so tokenisation lives in one
//! place: lowercase alphanumeric runs. `TomTom Go 630` and `easy_to_read`
//! tokenise to `[tomtom, go, 630]` and `[easy, to, read]` respectively.

/// Splits text into lowercase alphanumeric terms.
///
/// ```
/// use xsact_index::tokenize;
/// assert_eq!(tokenize("TomTom Go-630"), vec!["tomtom", "go", "630"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut terms = Vec::new();
    let mut current = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() {
            current.extend(c.to_lowercase());
        } else if !current.is_empty() {
            terms.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        terms.push(current);
    }
    terms
}

/// Tokenises and removes duplicates, preserving first-seen order. Used when
/// indexing a single node: each (node, term) pair is recorded once.
pub fn tokenize_unique(text: &str) -> Vec<String> {
    let mut terms = tokenize(text);
    let mut seen = std::collections::HashSet::with_capacity(terms.len());
    terms.retain(|t| seen.insert(t.clone()));
    terms
}

/// Streams the normalised terms of `text` into `f` without allocating a
/// `String` per token: the term is assembled in the reusable `scratch`
/// buffer and handed to the callback as a borrowed slice. This is the
/// index builder's hot path — it interns each term straight into the index
/// interner, so steady-state tokenisation allocates nothing.
pub fn for_each_term(text: &str, scratch: &mut String, mut f: impl FnMut(&str)) {
    scratch.clear();
    for c in text.chars() {
        if c.is_alphanumeric() {
            // A plain loop, not `scratch.extend(..)`: this runs for every
            // character of every text node at boot, and whether the generic
            // `extend` gets inlined here flips with unrelated edits elsewhere
            // in the crate — out of line it costs 11 % of boot CPU.
            for lower in c.to_lowercase() {
                scratch.push(lower);
            }
        } else if !scratch.is_empty() {
            f(scratch);
            scratch.clear();
        }
    }
    if !scratch.is_empty() {
        f(scratch);
        scratch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        assert_eq!(tokenize("a,b;c d-e_f"), vec!["a", "b", "c", "d", "e", "f"]);
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize("TomTom GPS"), vec!["tomtom", "gps"]);
        assert_eq!(tokenize("ÉTÉ"), vec!["été"]);
    }

    #[test]
    fn keeps_digits() {
        assert_eq!(tokenize("Go 630 v2"), vec!["go", "630", "v2"]);
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! --- ...").is_empty());
    }

    #[test]
    fn unique_preserves_first_seen_order() {
        assert_eq!(tokenize_unique("b a b c a"), vec!["b", "a", "c"]);
    }

    #[test]
    fn streaming_terms_match_tokenize() {
        let mut scratch = String::new();
        for text in ["TomTom Go-630", "", "!!! ---", "a,b;c d-e_f", "ÉTÉ x ÉTÉ"] {
            let mut streamed = Vec::new();
            for_each_term(text, &mut scratch, |t| streamed.push(t.to_owned()));
            assert_eq!(streamed, tokenize(text), "{text:?}");
        }
    }
}
