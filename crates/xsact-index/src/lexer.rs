//! Term extraction shared by the index builder and the query parser.
//!
//! Both sides must agree on what a "term" is, so there is one lexer,
//! [`for_each_term`], and [`tokenize`] / [`tokenize_unique`] collect what
//! it emits: a term is a maximal run of alphanumeric characters,
//! lowercased. `TomTom Go 630` and `easy_to_read` tokenise to
//! `[tomtom, go, 630]` and `[easy, to, read]` respectively.
//!
//! The lexer has two loops and one definition. Text that is all ASCII is
//! split by the byte: a term is a run of `is_ascii_alphanumeric` bytes,
//! handed over as a slice of the text unless it holds an uppercase letter.
//! Text with any other byte takes the char loop (`char::is_alphanumeric`,
//! `char::to_lowercase`). On ASCII the two agree — an ASCII character is
//! alphanumeric exactly when its byte is, and lowercases to one ASCII
//! character — and a unit property pins that, with the char loop as the
//! reference.

/// Splits text into lowercase alphanumeric terms.
///
/// ```
/// use xsact_index::tokenize;
/// assert_eq!(tokenize("TomTom Go-630"), vec!["tomtom", "go", "630"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut terms = Vec::new();
    for_each_term(text, &mut String::new(), |term| terms.push(term.to_owned()));
    terms
}

/// Tokenises and removes duplicates, preserving first-seen order — the
/// terms of a query. A query holds few terms, so a linear scan beats
/// hashing, as it does for the index builder's per-node dedup.
pub fn tokenize_unique(text: &str) -> Vec<String> {
    let mut terms: Vec<String> = Vec::new();
    for_each_term(text, &mut String::new(), |term| {
        if !terms.iter().any(|seen| seen == term) {
            terms.push(term.to_owned());
        }
    });
    terms
}

/// Streams the normalised terms of `text` into `f` without allocating a
/// `String` per token. This is the index builder's hot path — it interns
/// each term straight into the index interner, so steady-state
/// tokenisation allocates nothing.
///
/// ASCII text is split by the byte, and a term without an uppercase letter
/// is handed over as a slice of `text`; one with an uppercase letter is
/// lowercased into the reusable `scratch` buffer. Text with any non-ASCII
/// byte takes the char loop, which assembles every term in `scratch`.
pub fn for_each_term(text: &str, scratch: &mut String, mut f: impl FnMut(&str)) {
    if !text.is_ascii() {
        return for_each_term_chars(text, scratch, f);
    }
    for term in text.split(|c: char| !c.is_ascii_alphanumeric()).filter(|t| !t.is_empty()) {
        if term.bytes().any(|b| b.is_ascii_uppercase()) {
            scratch.clear();
            scratch.push_str(term);
            scratch.make_ascii_lowercase();
            f(scratch);
        } else {
            f(term);
        }
    }
}

/// The char loop: the lexer of text with a non-ASCII byte, and the
/// reference the byte path is tested against.
fn for_each_term_chars(text: &str, scratch: &mut String, mut f: impl FnMut(&str)) {
    scratch.clear();
    for c in text.chars() {
        if c.is_alphanumeric() {
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
        assert_eq!(tokenize("İstanbul Straße x²"), vec!["i\u{307}stanbul", "straße", "x²"]);
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
        assert_eq!(tokenize_unique("GPS gps Été ÉTÉ"), vec!["gps", "été"]);
    }

    /// What the lexer, or the char loop alone, emits for `text`, owned,
    /// starting from a dirty scratch buffer: no loop may read what it held.
    fn emitted(text: &str, char_loop: bool) -> Vec<String> {
        let mut terms = Vec::new();
        let mut scratch = String::from("stale");
        let push = |t: &str| terms.push(t.to_owned());
        if char_loop {
            for_each_term_chars(text, &mut scratch, push);
        } else {
            for_each_term(text, &mut scratch, push);
        }
        terms
    }

    #[test]
    fn streaming_terms_match_the_char_loop() {
        for text in ["TomTom Go-630", "", "!!! ---", "a,b;c d-e_f", "ÉTÉ x ÉTÉ", "GPS gps"] {
            assert_eq!(emitted(text, false), emitted(text, true), "{text:?}");
        }
    }

    /// On ASCII input the byte path emits exactly the char loop's terms, in
    /// the same order: random strings over every ASCII byte, weighted to
    /// letters of both cases, digits and separators so that runs are long.
    #[test]
    fn the_byte_path_equals_the_char_loop_on_random_ascii() {
        const COMMON: &[u8] = b"aAbBzZqQ09 _-.,\t\n";
        for seed in 0..64u64 {
            let mut state = (seed + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for _ in 0..32 {
                let text: String = (0..rng() % 48)
                    .map(|_| match rng() % 4 {
                        0 => char::from((rng() % 128) as u8),
                        _ => char::from(COMMON[(rng() % COMMON.len() as u64) as usize]),
                    })
                    .collect();
                assert!(text.is_ascii());
                assert_eq!(emitted(&text, false), emitted(&text, true), "seed {seed}");
            }
        }
    }
}
