//! Streaming XML tokenizer.
//!
//! Produces a flat stream of [`Token`]s from XML text. The tokenizer handles
//! the subset of XML that structured datasets actually use:
//!
//! * start / end / self-closing tags with attributes,
//! * text content with entity references,
//! * CDATA sections (emitted as text),
//! * comments, processing instructions and `<!DOCTYPE ...>` (skipped).
//!
//! Well-formedness across tags (matching open/close) is the parser's job;
//! the tokenizer only validates local syntax.

use crate::error::{XmlError, XmlResult};
use crate::escape::unescape;

/// A single lexical item of an XML document. Tag names borrow from the
/// tokenizer's input (a name is never entity-resolved, so the source
/// slice is the name); attribute values and text are owned because
/// entity resolution may rewrite them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<name a="v" ...>` or `<name ... />`.
    StartTag {
        /// Element name.
        name: &'a str,
        /// Attributes in source order, values entity-resolved.
        attrs: Vec<(String, String)>,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
        /// Byte offset of the `<`.
        offset: usize,
    },
    /// `</name>`.
    EndTag {
        /// Element name.
        name: &'a str,
        /// Byte offset of the `<`.
        offset: usize,
    },
    /// A run of character data. Entities are resolved; CDATA arrives here
    /// verbatim. Whitespace-only runs between tags are *not* emitted.
    Text {
        /// The text content.
        content: String,
        /// Byte offset of the first character.
        offset: usize,
    },
}

/// Pull tokenizer over a string slice. Iterate it to obtain tokens:
///
/// ```
/// use xsact_xml::{Token, Tokenizer};
///
/// let tokens: Result<Vec<Token>, _> = Tokenizer::new("<a>hi</a>").collect();
/// assert_eq!(tokens.unwrap().len(), 3);
/// ```
pub struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Tokenizer<'a> {
    /// Creates a tokenizer over `input`.
    pub fn new(input: &'a str) -> Self {
        Tokenizer { input, pos: 0 }
    }

    /// Current byte offset into the input.
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// The next character. Structured datasets are almost entirely ASCII,
    /// so a byte below 0x80 is returned as-is; only a lead byte of a
    /// multi-byte sequence pays for UTF-8 decoding.
    fn peek(&self) -> Option<char> {
        match self.input.as_bytes().get(self.pos) {
            Some(&b) if b.is_ascii() => Some(b as char),
            Some(_) => self.rest().chars().next(),
            None => None,
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: char, what: &'static str) -> XmlResult<()> {
        match self.peek() {
            Some(c) if c == expected => {
                self.bump();
                Ok(())
            }
            Some(c) => Err(XmlError::UnexpectedChar { offset: self.pos, found: c, expected: what }),
            None => Err(XmlError::UnexpectedEof { offset: self.pos, context: what }),
        }
    }

    /// Consumes input until `pattern` is found, returning the text before it.
    /// The pattern itself is consumed too.
    fn take_until(&mut self, pattern: &str, context: &'static str) -> XmlResult<&'a str> {
        match self.rest().find(pattern) {
            Some(i) => {
                let start = self.pos;
                self.pos += i + pattern.len();
                Ok(&self.input[start..start + i])
            }
            None => Err(XmlError::UnexpectedEof { offset: self.pos, context }),
        }
    }

    fn read_name(&mut self) -> XmlResult<&'a str> {
        let start = self.pos;
        match self.peek() {
            Some(c) if is_name_start(c) => {
                self.bump();
            }
            Some(c) => {
                return Err(XmlError::UnexpectedChar {
                    offset: self.pos,
                    found: c,
                    expected: "a name start character",
                })
            }
            None => return Err(XmlError::UnexpectedEof { offset: self.pos, context: "a name" }),
        }
        while matches!(self.peek(), Some(c) if is_name_continue(c)) {
            self.bump();
        }
        Ok(&self.input[start..self.pos])
    }

    fn read_attrs(&mut self) -> XmlResult<Vec<(String, String)>> {
        let mut attrs: Vec<(String, String)> = Vec::new();
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some('>') | Some('/') | None => return Ok(attrs),
                _ => {}
            }
            let name_offset = self.pos;
            let name = self.read_name()?;
            if attrs.iter().any(|(n, _)| n == name) {
                return Err(XmlError::DuplicateAttribute {
                    offset: name_offset,
                    name: name.to_owned(),
                });
            }
            self.skip_whitespace();
            self.eat('=', "'=' after attribute name")?;
            self.skip_whitespace();
            let quote = match self.peek() {
                Some(q @ ('"' | '\'')) => {
                    self.bump();
                    q
                }
                Some(c) => {
                    return Err(XmlError::UnexpectedChar {
                        offset: self.pos,
                        found: c,
                        expected: "a quoted attribute value",
                    })
                }
                None => {
                    return Err(XmlError::UnexpectedEof {
                        offset: self.pos,
                        context: "an attribute value",
                    })
                }
            };
            let value_offset = self.pos;
            let raw = match self.rest().find(quote) {
                Some(i) => {
                    let v = &self.rest()[..i];
                    self.pos += i + 1;
                    v
                }
                None => {
                    return Err(XmlError::UnexpectedEof {
                        offset: value_offset,
                        context: "an attribute value",
                    })
                }
            };
            let value = unescape(raw, value_offset)?.into_owned();
            attrs.push((name.to_owned(), value));
        }
    }

    /// Reads the token starting at `<`. `self.pos` is at the `<`.
    fn read_markup(&mut self) -> XmlResult<Option<Token<'a>>> {
        let offset = self.pos;
        self.bump(); // consume '<'
        match self.peek() {
            Some('/') => {
                self.bump();
                let name = self.read_name()?;
                self.skip_whitespace();
                self.eat('>', "'>' closing an end tag")?;
                Ok(Some(Token::EndTag { name, offset }))
            }
            Some('!') => {
                self.bump();
                if self.rest().starts_with("--") {
                    self.pos += 2;
                    self.take_until("-->", "a comment")?;
                    Ok(None)
                } else if self.rest().starts_with("[CDATA[") {
                    self.pos += "[CDATA[".len();
                    let text_offset = self.pos;
                    let content = self.take_until("]]>", "a CDATA section")?;
                    Ok(Some(Token::Text { content: content.to_owned(), offset: text_offset }))
                } else {
                    // DOCTYPE or other declaration: skip to the matching '>'
                    // (internal subsets with nested brackets are handled).
                    let mut depth = 1usize;
                    loop {
                        match self.bump() {
                            Some('<') => depth += 1,
                            Some('>') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            Some('[') => {
                                // Internal subset: skip to closing ']'.
                                self.take_until("]", "a DOCTYPE internal subset")?;
                            }
                            Some(_) => {}
                            None => {
                                return Err(XmlError::UnexpectedEof {
                                    offset,
                                    context: "a declaration",
                                })
                            }
                        }
                    }
                    Ok(None)
                }
            }
            Some('?') => {
                self.bump();
                self.take_until("?>", "a processing instruction")?;
                Ok(None)
            }
            _ => {
                let name = self.read_name()?;
                let attrs = self.read_attrs()?;
                self.skip_whitespace();
                let self_closing = if self.peek() == Some('/') {
                    self.bump();
                    true
                } else {
                    false
                };
                self.eat('>', "'>' closing a start tag")?;
                Ok(Some(Token::StartTag { name, attrs, self_closing, offset }))
            }
        }
    }

    fn read_text(&mut self) -> XmlResult<Option<Token<'a>>> {
        let start = self.pos;
        let end = match self.rest().find('<') {
            Some(i) => start + i,
            None => self.input.len(),
        };
        let raw = &self.input[start..end];
        self.pos = end;
        if raw.bytes().all(|b| b.is_ascii_whitespace()) {
            return Ok(None);
        }
        let content = unescape(raw, start)?.into_owned();
        Ok(Some(Token::Text { content, offset: start }))
    }

    fn next_token(&mut self) -> XmlResult<Option<Token<'a>>> {
        loop {
            if self.pos >= self.input.len() {
                return Ok(None);
            }
            let produced =
                if self.peek() == Some('<') { self.read_markup()? } else { self.read_text()? };
            if let Some(token) = produced {
                return Ok(Some(token));
            }
        }
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = XmlResult<Token<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_token().transpose()
    }
}

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_' || c == ':'
}

fn is_name_continue(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | ':' | '-' | '.')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(input: &str) -> Vec<Token<'_>> {
        Tokenizer::new(input).collect::<XmlResult<Vec<_>>>().unwrap()
    }

    fn err(input: &str) -> XmlError {
        Tokenizer::new(input).collect::<XmlResult<Vec<_>>>().unwrap_err()
    }

    #[test]
    fn simple_element() {
        let ts = tokens("<a>hello</a>");
        assert_eq!(ts.len(), 3);
        assert!(matches!(&ts[0], Token::StartTag { name: "a", self_closing: false, .. }));
        assert!(matches!(&ts[1], Token::Text { content, .. } if content == "hello"));
        assert!(matches!(&ts[2], Token::EndTag { name: "a", .. }));
    }

    #[test]
    fn attributes_single_and_double_quoted() {
        let ts = tokens(r#"<p a="1" b='two' c="a&amp;b"/>"#);
        match &ts[0] {
            Token::StartTag { attrs, self_closing, .. } => {
                assert!(*self_closing);
                assert_eq!(
                    attrs,
                    &vec![
                        ("a".to_string(), "1".to_string()),
                        ("b".to_string(), "two".to_string()),
                        ("c".to_string(), "a&b".to_string()),
                    ]
                );
            }
            other => panic!("expected start tag, got {other:?}"),
        }
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let ts = tokens("<a>\n  <b/>\n</a>");
        assert_eq!(ts.len(), 3); // <a>, <b/>, </a>
    }

    #[test]
    fn text_entities_resolved() {
        let ts = tokens("<a>x &lt; y &amp; z</a>");
        assert!(matches!(&ts[1], Token::Text { content, .. } if content == "x < y & z"));
    }

    #[test]
    fn cdata_is_verbatim_text() {
        let ts = tokens("<a><![CDATA[1 < 2 & 3 &amp;]]></a>");
        assert!(matches!(&ts[1], Token::Text { content, .. } if content == "1 < 2 & 3 &amp;"));
    }

    #[test]
    fn comments_and_pis_skipped() {
        let ts = tokens("<?xml version=\"1.0\"?><!-- note --><a><!-- inner -->t</a>");
        assert_eq!(ts.len(), 3);
        assert!(matches!(&ts[1], Token::Text { content, .. } if content == "t"));
    }

    #[test]
    fn doctype_skipped() {
        let ts = tokens("<!DOCTYPE shop SYSTEM \"shop.dtd\"><a/>");
        assert_eq!(ts.len(), 1);
        // With an internal subset containing element declarations.
        let ts = tokens("<!DOCTYPE shop [ <!ELEMENT a (b)> ]><a/>");
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn offsets_point_at_token_starts() {
        let input = "<a>xy</a>";
        let ts = tokens(input);
        match (&ts[0], &ts[1], &ts[2]) {
            (
                Token::StartTag { offset: o1, .. },
                Token::Text { offset: o2, .. },
                Token::EndTag { offset: o3, .. },
            ) => {
                assert_eq!((*o1, *o2, *o3), (0, 3, 5));
            }
            other => panic!("unexpected tokens {other:?}"),
        }
    }

    #[test]
    fn names_allow_xml_punctuation() {
        let ts = tokens("<ns:a-b.c_d/>");
        assert!(matches!(&ts[0], Token::StartTag { name: "ns:a-b.c_d", .. }));
    }

    #[test]
    fn end_tag_allows_trailing_space() {
        let ts = tokens("<a>t</a >");
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn error_unterminated_tag() {
        assert!(matches!(err("<a"), XmlError::UnexpectedEof { .. }));
        assert!(matches!(err("<a foo="), XmlError::UnexpectedEof { .. }));
        assert!(matches!(err("<a foo=\"v"), XmlError::UnexpectedEof { .. }));
        assert!(matches!(err("<!-- never closed"), XmlError::UnexpectedEof { .. }));
        assert!(matches!(err("<![CDATA[ oops"), XmlError::UnexpectedEof { .. }));
    }

    #[test]
    fn error_bad_name() {
        assert!(matches!(err("<1a/>"), XmlError::UnexpectedChar { .. }));
        assert!(matches!(err("< a/>"), XmlError::UnexpectedChar { .. }));
    }

    #[test]
    fn error_unquoted_attribute() {
        assert!(matches!(err("<a v=1/>"), XmlError::UnexpectedChar { .. }));
    }

    #[test]
    fn error_missing_equals() {
        assert!(matches!(err("<a v \"1\"/>"), XmlError::UnexpectedChar { .. }));
    }

    #[test]
    fn error_duplicate_attribute() {
        assert!(matches!(
            err(r#"<a v="1" v="2"/>"#),
            XmlError::DuplicateAttribute { ref name, .. } if name == "v"
        ));
    }

    #[test]
    fn error_bad_entity_in_text() {
        assert!(matches!(err("<a>&oops;</a>"), XmlError::BadEntity { .. }));
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert!(tokens("").is_empty());
        assert!(tokens("   \n\t ").is_empty());
    }

    #[test]
    fn multibyte_text_offsets() {
        let ts = tokens("<a>\u{2603}snow</a>");
        assert!(matches!(&ts[1], Token::Text { content, .. } if content == "\u{2603}snow"));
    }

    /// Non-ASCII names and text leave `peek`'s byte fast path for the
    /// `chars()` fallback; tokens and byte offsets must come out as if
    /// every character had been decoded.
    #[test]
    fn non_ascii_names_and_text_take_the_fallback_path() {
        let ts = tokens("<naïve/>");
        assert_eq!(
            ts,
            vec![Token::StartTag { name: "naïve", attrs: vec![], self_closing: true, offset: 0 }]
        );
        // `日本` is 6 bytes, `é` is 2: text at 8, end tag at 10.
        let ts = tokens("<日本>é</日本>");
        assert_eq!(
            ts,
            vec![
                Token::StartTag { name: "日本", attrs: vec![], self_closing: false, offset: 0 },
                Token::Text { content: "é".to_owned(), offset: 8 },
                Token::EndTag { name: "日本", offset: 10 },
            ]
        );
        let ts = tokens("<a clé=\"ü\"/>");
        assert!(matches!(&ts[0], Token::StartTag { attrs, .. }
            if attrs == &vec![("clé".to_owned(), "ü".to_owned())]));
    }

    /// Error offsets are byte offsets into the input, also past multi-byte
    /// characters, and a non-ASCII offender is reported as the whole
    /// character, not its lead byte.
    #[test]
    fn error_offsets_count_bytes_past_non_ascii_input() {
        assert_eq!(
            err("<日本>é</日本"),
            XmlError::UnexpectedEof { offset: 18, context: "'>' closing an end tag" }
        );
        assert_eq!(
            err("<naïve =\"1\"/>"),
            XmlError::UnexpectedChar { offset: 8, found: '=', expected: "a name start character" }
        );
        assert_eq!(
            err("<é>x</é ☃>"),
            XmlError::UnexpectedChar {
                offset: 10, found: '☃', expected: "'>' closing an end tag"
            }
        );
        assert_eq!(
            err("<☃/>"),
            XmlError::UnexpectedChar {
                offset: 1, found: '☃', expected: "a name start character"
            }
        );
        assert_eq!(err("<é>&oops;</é>"), XmlError::BadEntity { offset: 4, entity: "oops".into() });
    }
}
