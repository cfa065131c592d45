//! The XML scanner, and the token stream it is presented as.
//!
//! The lexical rules live once, in the byte-level `Scanner`: it walks the
//! input's bytes (ASCII through a 256-entry class table, anything else
//! through the `char` predicates) and yields small borrowed events — a name
//! is a slice of the input, a text run or attribute value a raw slice plus
//! whether it holds an `&`, attributes are pulled one at a time. Nothing is
//! allocated per event and entity references are resolved only where an `&`
//! was seen. The parser ([`crate::parse`]) consumes the scanner directly;
//! the public [`Tokenizer`] iterator presents the same events as
//! [`Token`]s.
//!
//! The subset of XML handled is what structured datasets actually use:
//!
//! * start / end / self-closing tags with attributes,
//! * text content with entity references,
//! * CDATA sections (emitted as text),
//! * comments, processing instructions and `<!DOCTYPE ...>` (skipped).
//!
//! Well-formedness across tags (matching open/close) is the parser's job;
//! the scanner only validates local syntax.

use crate::error::{XmlError, XmlResult};
use crate::escape::{unescape, unescape_into};
use std::borrow::Cow;

/// ASCII whitespace.
const WS: u8 = 1;
/// May start a name.
const NAME_START: u8 = 2;
/// May continue a name.
const NAME: u8 = 4;
/// `<`: ends a text run.
const LT: u8 = 8;
/// `&`: the run holding it needs its entities resolved.
const AMP: u8 = 16;
/// Anything but whitespace: a text run holding one is kept.
const INK: u8 = 32;

const fn class_of(b: u8) -> u8 {
    let mut class = if b.is_ascii_whitespace() { WS } else { INK };
    if b.is_ascii_alphabetic() || b == b'_' || b == b':' {
        class |= NAME_START | NAME;
    }
    if b.is_ascii_digit() || b == b'-' || b == b'.' {
        class |= NAME;
    }
    if b == b'<' {
        class |= LT;
    }
    if b == b'&' {
        class |= AMP;
    }
    class
}

/// The class bits of every byte. A byte of a multi-byte character is
/// [`INK`] and nothing else; names decode such characters and ask
/// [`is_name_start`] / [`is_name_continue`], which the ASCII half of this
/// table restates (pinned equal by a test).
static CLASS: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = class_of(b as u8);
        b += 1;
    }
    table
};

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_' || c == ':'
}

fn is_name_continue(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | ':' | '-' | '.')
}

/// A text run or attribute value as it stands in the input.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawText<'a> {
    raw: &'a str,
    /// Whether `raw` holds an `&` (never set for CDATA, which is verbatim).
    escaped: bool,
    /// Byte offset of `raw` in the input.
    pub(crate) offset: usize,
}

impl<'a> RawText<'a> {
    /// The content with entity references resolved.
    pub(crate) fn resolve(&self) -> XmlResult<Cow<'a, str>> {
        if self.escaped {
            unescape(self.raw, self.offset)
        } else {
            Ok(Cow::Borrowed(self.raw))
        }
    }

    /// Appends the resolved content to `out`.
    pub(crate) fn resolve_into(&self, out: &mut String) -> XmlResult<()> {
        if self.escaped {
            unescape_into(self.raw, self.offset, out)
        } else {
            out.push_str(self.raw);
            Ok(())
        }
    }
}

/// What [`Scanner::next`] yields. Offsets are those of the matching
/// [`Token`] fields.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event<'a> {
    /// `<name` was read. The rest of the tag must be pulled with
    /// [`Scanner::next_attr`] until it yields [`TagPart::Close`].
    Start { name: &'a str, offset: usize },
    /// `</name>`.
    End { name: &'a str, offset: usize },
    /// A text run that is not all whitespace, or a CDATA section.
    Text(RawText<'a>),
}

/// What [`Scanner::next_attr`] yields.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TagPart<'a> {
    /// `name="value"`.
    Attr { name: &'a str, value: RawText<'a> },
    /// `>` or `/>`: the start tag is complete.
    Close { self_closing: bool },
}

/// The byte-level scanner: the one implementation of the lexical rules.
pub(crate) struct Scanner<'a> {
    input: &'a str,
    /// Byte offset of the next unread byte; always a character boundary.
    pos: usize,
    /// Attribute names of the start tag being read, for the duplicate
    /// check; reused from tag to tag.
    seen: Vec<&'a str>,
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Scanner { input, pos: 0, seen: Vec::new() }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    /// The character at `self.pos`, for error values and non-ASCII names.
    fn peek_char(&self) -> Option<char> {
        match self.peek() {
            Some(b) if b.is_ascii() => Some(b as char),
            Some(_) => self.input[self.pos..].chars().next(),
            None => None,
        }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b) if CLASS[b as usize] & WS != 0) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8, what: &'static str) -> XmlResult<()> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            return Ok(());
        }
        Err(match self.peek_char() {
            Some(c) => XmlError::UnexpectedChar { offset: self.pos, found: c, expected: what },
            None => XmlError::UnexpectedEof { offset: self.pos, context: what },
        })
    }

    /// Consumes input until `pattern` is found, returning the text before it.
    /// The pattern itself is consumed too.
    fn take_until(&mut self, pattern: &str, context: &'static str) -> XmlResult<&'a str> {
        match self.input[self.pos..].find(pattern) {
            Some(i) => {
                let start = self.pos;
                self.pos += i + pattern.len();
                Ok(&self.input[start..start + i])
            }
            None => Err(XmlError::UnexpectedEof { offset: self.pos, context }),
        }
    }

    fn name(&mut self) -> XmlResult<&'a str> {
        let bytes = self.input.as_bytes();
        let start = self.pos;
        match bytes.get(start) {
            Some(&b) if CLASS[b as usize] & NAME_START != 0 => self.pos += 1,
            _ => match self.peek_char() {
                Some(c) if is_name_start(c) => self.pos += c.len_utf8(),
                Some(c) => {
                    return Err(XmlError::UnexpectedChar {
                        offset: start,
                        found: c,
                        expected: "a name start character",
                    })
                }
                None => return Err(XmlError::UnexpectedEof { offset: start, context: "a name" }),
            },
        }
        while let Some(&b) = bytes.get(self.pos) {
            if CLASS[b as usize] & NAME != 0 {
                self.pos += 1;
            } else if b.is_ascii() {
                break;
            } else {
                match self.peek_char() {
                    Some(c) if is_name_continue(c) => self.pos += c.len_utf8(),
                    _ => break,
                }
            }
        }
        Ok(&self.input[start..self.pos])
    }

    /// Reads a text run up to the next `<` (or the end of input). Runs of
    /// nothing but whitespace are skipped.
    fn text(&mut self) -> Option<RawText<'a>> {
        let bytes = self.input.as_bytes();
        let start = self.pos;
        let mut end = start;
        let mut seen = 0;
        while let Some(&b) = bytes.get(end) {
            let class = CLASS[b as usize];
            if class & LT != 0 {
                break;
            }
            seen |= class;
            end += 1;
        }
        self.pos = end;
        (seen & INK != 0).then(|| RawText {
            raw: &self.input[start..end],
            escaped: seen & AMP != 0,
            offset: start,
        })
    }

    /// Skips `<!DOCTYPE ...>` or another declaration up to the matching
    /// `>` (internal subsets with nested brackets are handled). `self.pos`
    /// is behind the `<!` at `offset`.
    fn skip_declaration(&mut self, offset: usize) -> XmlResult<()> {
        let mut depth = 1usize;
        loop {
            let Some(b) = self.peek() else {
                return Err(XmlError::UnexpectedEof { offset, context: "a declaration" });
            };
            self.pos += 1;
            match b {
                b'<' => depth += 1,
                b'>' => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                b'[' => {
                    self.take_until("]", "a DOCTYPE internal subset")?;
                }
                _ => {}
            }
        }
    }

    /// The next event, `None` at the end of input. After
    /// [`Event::Start`], pull the tag's attributes with
    /// [`next_attr`](Self::next_attr) before calling this again.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub(crate) fn next(&mut self) -> XmlResult<Option<Event<'a>>> {
        loop {
            let offset = self.pos;
            match self.peek() {
                None => return Ok(None),
                Some(b'<') => self.pos += 1,
                Some(_) => match self.text() {
                    Some(text) => return Ok(Some(Event::Text(text))),
                    None => continue,
                },
            }
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    let name = self.name()?;
                    self.skip_whitespace();
                    self.eat(b'>', "'>' closing an end tag")?;
                    return Ok(Some(Event::End { name, offset }));
                }
                Some(b'!') => {
                    self.pos += 1;
                    let rest = &self.input.as_bytes()[self.pos..];
                    if rest.starts_with(b"--") {
                        self.pos += 2;
                        self.take_until("-->", "a comment")?;
                    } else if rest.starts_with(b"[CDATA[") {
                        self.pos += "[CDATA[".len();
                        let offset = self.pos;
                        let raw = self.take_until("]]>", "a CDATA section")?;
                        return Ok(Some(Event::Text(RawText { raw, escaped: false, offset })));
                    } else {
                        self.skip_declaration(offset)?;
                    }
                }
                Some(b'?') => {
                    self.pos += 1;
                    self.take_until("?>", "a processing instruction")?;
                }
                _ => {
                    let name = self.name()?;
                    self.seen.clear();
                    return Ok(Some(Event::Start { name, offset }));
                }
            }
        }
    }

    /// The next attribute of the start tag being read, or its end.
    #[inline]
    pub(crate) fn next_attr(&mut self) -> XmlResult<TagPart<'a>> {
        self.skip_whitespace();
        let self_closing = match self.peek() {
            Some(b'>') | None => Some(false),
            Some(b'/') => Some(true),
            Some(_) => None,
        };
        if let Some(self_closing) = self_closing {
            self.pos += usize::from(self_closing);
            self.eat(b'>', "'>' closing a start tag")?;
            return Ok(TagPart::Close { self_closing });
        }
        let name_offset = self.pos;
        let name = self.name()?;
        if self.seen.contains(&name) {
            return Err(XmlError::DuplicateAttribute {
                offset: name_offset,
                name: name.to_owned(),
            });
        }
        self.seen.push(name);
        self.skip_whitespace();
        self.eat(b'=', "'=' after attribute name")?;
        self.skip_whitespace();
        let quote = match self.peek_char() {
            Some(q @ ('"' | '\'')) => q as u8,
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
        self.pos += 1;
        let offset = self.pos;
        let bytes = self.input.as_bytes();
        let mut end = offset;
        let mut escaped = false;
        loop {
            match bytes.get(end) {
                Some(&b) if b == quote => break,
                Some(&b) => escaped |= b == b'&',
                None => {
                    return Err(XmlError::UnexpectedEof { offset, context: "an attribute value" })
                }
            }
            end += 1;
        }
        self.pos = end + 1;
        let value = RawText { raw: &self.input[offset..end], escaped, offset };
        Ok(TagPart::Attr { name, value })
    }
}

/// A single lexical item of an XML document, borrowed from the tokenizer's
/// input: names are never entity-resolved, so the source slice is the
/// name; attribute values and text are slices too unless entity resolution
/// had to rewrite them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<name a="v" ...>` or `<name ... />`.
    StartTag {
        /// Element name.
        name: &'a str,
        /// Attributes in source order, values entity-resolved.
        attrs: Vec<(&'a str, Cow<'a, str>)>,
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
        content: Cow<'a, str>,
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
    scanner: Scanner<'a>,
}

impl<'a> Tokenizer<'a> {
    /// Creates a tokenizer over `input`.
    pub fn new(input: &'a str) -> Self {
        Tokenizer { scanner: Scanner::new(input) }
    }

    /// Current byte offset into the input.
    pub fn offset(&self) -> usize {
        self.scanner.pos
    }

    fn next_token(&mut self) -> XmlResult<Option<Token<'a>>> {
        let Some(event) = self.scanner.next()? else { return Ok(None) };
        Ok(Some(match event {
            Event::Start { name, offset } => {
                let mut attrs = Vec::new();
                let self_closing = loop {
                    match self.scanner.next_attr()? {
                        TagPart::Attr { name, value } => attrs.push((name, value.resolve()?)),
                        TagPart::Close { self_closing } => break self_closing,
                    }
                };
                Token::StartTag { name, attrs, self_closing, offset }
            }
            Event::End { name, offset } => Token::EndTag { name, offset },
            Event::Text(text) => Token::Text { content: text.resolve()?, offset: text.offset },
        }))
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = XmlResult<Token<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_token().transpose()
    }
}

/// The tokenizer this module held before the scanner — `char`-level, an
/// owned `String` per text run and a `Vec<(String, String)>` per start tag
/// — kept as the oracle the scanner is pinned to: same tokens and offsets,
/// or the same [`XmlError`] value, on every input.
#[cfg(test)]
pub(crate) mod oracle {
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

    /// Pull tokenizer over a string slice.
    pub struct Tokenizer<'a> {
        input: &'a str,
        pos: usize,
    }

    impl<'a> Tokenizer<'a> {
        /// Creates a tokenizer over `input`.
        pub fn new(input: &'a str) -> Self {
            Tokenizer { input, pos: 0 }
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
                Some(c) => {
                    Err(XmlError::UnexpectedChar { offset: self.pos, found: c, expected: what })
                }
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
                None => {
                    return Err(XmlError::UnexpectedEof { offset: self.pos, context: "a name" })
                }
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
                    &vec![("a", Cow::from("1")), ("b", Cow::from("two")), ("c", Cow::from("a&b"))]
                );
                // Only the value an entity rewrote is owned.
                assert!(matches!(attrs[1].1, Cow::Borrowed(_)));
                assert!(matches!(attrs[2].1, Cow::Owned(_)));
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
                Token::Text { content: "é".into(), offset: 8 },
                Token::EndTag { name: "日本", offset: 10 },
            ]
        );
        let ts = tokens("<a clé=\"ü\"/>");
        assert!(matches!(&ts[0], Token::StartTag { attrs, .. }
            if attrs == &vec![("clé", Cow::from("ü"))]));
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

    /// The ASCII half of the class table restates the `char` predicates.
    #[test]
    fn the_class_table_agrees_with_the_char_predicates() {
        for b in 0..=255u8 {
            let class = CLASS[b as usize];
            if b.is_ascii() {
                let c = b as char;
                assert_eq!(class & NAME_START != 0, is_name_start(c), "{c:?}");
                assert_eq!(class & NAME != 0, is_name_continue(c), "{c:?}");
                assert_eq!(class & WS != 0, c.is_ascii_whitespace(), "{c:?}");
                assert_eq!(class & INK != 0, !c.is_ascii_whitespace(), "{c:?}");
            } else {
                assert_eq!(class, INK, "byte {b:#x} of a multi-byte character");
            }
        }
    }

    /// A token stream up to and including its first error.
    fn until_error<T>(tokens: impl Iterator<Item = XmlResult<T>>) -> Vec<XmlResult<T>> {
        let mut failed = false;
        tokens.take_while(|token| !std::mem::replace(&mut failed, token.is_err())).collect()
    }

    /// The scanner's token stream in the oracle's owned shape.
    fn owned(tokens: Tokenizer<'_>) -> Vec<XmlResult<oracle::Token<'_>>> {
        until_error(tokens.map(|token| {
            token.map(|token| match token {
                Token::StartTag { name, attrs, self_closing, offset } => oracle::Token::StartTag {
                    name,
                    attrs: attrs.into_iter().map(|(k, v)| (k.to_owned(), v.into_owned())).collect(),
                    self_closing,
                    offset,
                },
                Token::EndTag { name, offset } => oracle::Token::EndTag { name, offset },
                Token::Text { content, offset } => {
                    oracle::Token::Text { content: content.into_owned(), offset }
                }
            })
        }))
    }

    fn oracle_tokens(input: &str) -> Vec<XmlResult<oracle::Token<'_>>> {
        until_error(oracle::Tokenizer::new(input))
    }

    /// Same tokens and offsets, or the same error value after the same
    /// tokens: on every generator's output, on random documents that use
    /// the whole syntax, and on byte-mutations of all of them.
    #[test]
    fn the_scanner_yields_what_the_char_level_tokenizer_did() {
        let mut failures = 0;
        crate::samples::for_each_input(|what, input| {
            let (new, old) = (owned(Tokenizer::new(input)), oracle_tokens(input));
            failures += usize::from(matches!(old.last(), Some(Err(_))));
            assert_eq!(new, old, "{what}: {input:?}");
        });
        // The mutations must reach the error paths, not only survive them.
        assert!(failures > 1000, "only {failures} malformed inputs");
    }

    /// The inputs of the tests above that name an error, and the cases
    /// where two things are wrong and the first one reported matters.
    #[test]
    fn the_scanner_reports_the_error_the_char_level_tokenizer_did() {
        for input in [
            "<a",
            "<a foo=",
            "<a foo=\"v",
            "<!-- never closed",
            "<![CDATA[ oops",
            "<1a/>",
            "< a/>",
            "<a v=1/>",
            "<a v \"1\"/>",
            "<a v=\"1\" v=\"2\"/>",
            "<a v=\"1\" v>",
            "<a>&oops;</a>",
            "<a v='&oops;' v='1'/>",
            "<a v='1' v='&oops;'/>",
            "<!DOCTYPE a [",
            "<!DOCTYPE a <b",
            "<?pi",
            "<",
            "</",
            "</a",
            "</a b>",
            "<a/",
            "<a /x>",
            "<a x",
            "<a x=",
            "<a x='",
            "<a>&amp</a>",
            "<a>&#xD800;</a>",
            "<日本>é</日本",
            "<naïve =\"1\"/>",
            "<é>x</é ☃>",
            "<☃/>",
            "<a\u{a0}/>",
            "<a b\u{a0}='1'/>",
            "text &bad; <a/>",
            "<a/>\u{2603}&bad;",
        ] {
            assert_eq!(owned(Tokenizer::new(input)), oracle_tokens(input), "{input:?}");
            assert!(matches!(oracle_tokens(input).last(), Some(Err(_))), "{input:?} is malformed");
        }
    }
}
