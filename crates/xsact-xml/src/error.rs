//! Error type shared by the tokenizer, parser and writer.

use std::fmt;

/// Result alias used throughout the crate.
pub type XmlResult<T> = Result<T, XmlError>;

/// An error encountered while tokenizing or parsing XML text.
///
/// Every variant raised at a position carries the byte offset at which the
/// problem was detected so callers can point at the offending input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Input ended in the middle of a construct (tag, comment, CDATA, ...).
    UnexpectedEof {
        /// Byte offset of the start of the unterminated construct.
        offset: usize,
        /// Human-readable description of what was being read.
        context: &'static str,
    },
    /// A character that cannot start or continue the current construct.
    UnexpectedChar {
        /// Byte offset of the offending character.
        offset: usize,
        /// The character found.
        found: char,
        /// What the tokenizer expected instead.
        expected: &'static str,
    },
    /// `</a>` closed an element opened as `<b>`.
    MismatchedTag {
        /// Byte offset of the closing tag.
        offset: usize,
        /// Tag that is currently open.
        open: String,
        /// Tag name found in the closing tag.
        close: String,
    },
    /// A closing tag appeared with no element open.
    UnmatchedClose {
        /// Byte offset of the closing tag.
        offset: usize,
        /// Tag name of the stray closing tag.
        tag: String,
    },
    /// The document ended while elements were still open.
    UnclosedElements {
        /// Tags still open at end of input, outermost first.
        open: Vec<String>,
    },
    /// More than one top-level element, or content outside the root.
    MultipleRoots {
        /// Byte offset of the second root.
        offset: usize,
    },
    /// The document contains no root element at all.
    EmptyDocument,
    /// An entity reference (`&...;`) that is malformed or unknown.
    BadEntity {
        /// Byte offset of the `&`.
        offset: usize,
        /// The raw entity text (without `&`/`;`), possibly truncated.
        entity: String,
    },
    /// An attribute name appeared twice on the same element.
    DuplicateAttribute {
        /// Byte offset of the second occurrence.
        offset: usize,
        /// The duplicated attribute name.
        name: String,
    },
    /// Elements nested deeper than the parser's depth cap
    /// ([`MAX_DEPTH`](crate::parse::MAX_DEPTH)).
    TooDeep {
        /// Byte offset of the start tag that exceeded the cap.
        offset: usize,
        /// The cap.
        limit: usize,
    },
    /// The input is longer than the parser accepts
    /// ([`MAX_INPUT_LEN`](crate::parse::MAX_INPUT_LEN)): node ids and text
    /// spans are 32-bit, and every node and every byte of text costs at
    /// least one byte of input.
    TooLarge {
        /// Length of the input in bytes.
        len: usize,
        /// The longest input accepted.
        limit: usize,
    },
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::UnexpectedEof { offset, context } => {
                write!(f, "unexpected end of input at byte {offset} while reading {context}")
            }
            XmlError::UnexpectedChar { offset, found, expected } => {
                write!(f, "unexpected character {found:?} at byte {offset}, expected {expected}")
            }
            XmlError::MismatchedTag { offset, open, close } => write!(
                f,
                "closing tag </{close}> at byte {offset} does not match open element <{open}>"
            ),
            XmlError::UnmatchedClose { offset, tag } => {
                write!(f, "closing tag </{tag}> at byte {offset} has no matching open element")
            }
            XmlError::UnclosedElements { open } => {
                write!(f, "input ended with unclosed elements: {}", open.join(" > "))
            }
            XmlError::MultipleRoots { offset } => {
                write!(f, "content outside the root element at byte {offset}")
            }
            XmlError::EmptyDocument => write!(f, "document contains no root element"),
            XmlError::BadEntity { offset, entity } => {
                write!(f, "malformed or unknown entity \"&{entity};\" at byte {offset}")
            }
            XmlError::DuplicateAttribute { offset, name } => {
                write!(f, "duplicate attribute {name:?} at byte {offset}")
            }
            XmlError::TooDeep { offset, limit } => {
                write!(f, "element at byte {offset} is nested deeper than {limit} levels")
            }
            XmlError::TooLarge { len, limit } => {
                write!(
                    f,
                    "input of {len} bytes is longer than the {limit} bytes a document can hold"
                )
            }
        }
    }
}

impl std::error::Error for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_offsets_and_names() {
        let e = XmlError::UnexpectedEof { offset: 7, context: "a start tag" };
        assert!(e.to_string().contains("byte 7"));
        assert!(e.to_string().contains("start tag"));

        let e = XmlError::MismatchedTag { offset: 3, open: "a".into(), close: "b".into() };
        let msg = e.to_string();
        assert!(msg.contains("</b>") && msg.contains("<a>"));

        let e = XmlError::UnclosedElements { open: vec!["x".into(), "y".into()] };
        assert!(e.to_string().contains("x > y"));

        let e = XmlError::BadEntity { offset: 0, entity: "nbsp".into() };
        assert!(e.to_string().contains("&nbsp;"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(XmlError::EmptyDocument, XmlError::EmptyDocument);
        assert_ne!(XmlError::EmptyDocument, XmlError::MultipleRoots { offset: 0 });
    }
}
