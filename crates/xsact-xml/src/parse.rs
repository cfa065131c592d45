//! Parser: token stream → [`Document`].
//!
//! Enforces well-formedness across tags: matching open/close pairs, exactly
//! one root element, no character data outside the root — and caps element
//! nesting at [`MAX_DEPTH`].

use crate::dom::Document;
use crate::error::{XmlError, XmlResult};
use crate::tokenizer::{Token, Tokenizer};

/// Deepest element nesting the parser accepts (the root is level 1) —
/// libxml2's default. Appending a node updates the subtree extent of each of
/// its ancestors and the writer recurses per level, so without a cap a few
/// kilobytes of nothing but open tags would cost time quadratic in their
/// number. Documents built through the `add_*` API are not limited.
pub const MAX_DEPTH: usize = 256;

/// Parses a complete XML document.
///
/// ```
/// use xsact_xml::parse_document;
///
/// let doc = parse_document("<a><b>text</b><b/></a>").unwrap();
/// assert_eq!(doc.children(doc.root()).count(), 2);
/// ```
pub fn parse_document(input: &str) -> XmlResult<Document> {
    let mut doc: Option<Document> = None;
    // Stack of open elements; `None` sentinel never stored — root handled
    // specially because `Document::new` needs the root tag up front.
    let mut stack = Vec::new();
    // Names of the open elements, borrowed from `input`: matching a close
    // tag is a slice compare, and only an error path allocates.
    let mut open_tags: Vec<&str> = Vec::new();

    for token in Tokenizer::new(input) {
        match token? {
            Token::StartTag { name, attrs, self_closing, offset } => {
                match (&mut doc, stack.last().copied()) {
                    (None, _) => {
                        // This is the root element.
                        let mut d = Document::new(name);
                        for (k, v) in attrs {
                            d.set_attr(d.root(), k, v);
                        }
                        if !self_closing {
                            stack.push(d.root());
                            open_tags.push(name);
                        }
                        doc = Some(d);
                    }
                    (Some(_), None) => {
                        // Root already closed: a second root element.
                        return Err(XmlError::MultipleRoots { offset });
                    }
                    (Some(d), Some(parent)) => {
                        if stack.len() >= MAX_DEPTH {
                            return Err(XmlError::TooDeep { offset, limit: MAX_DEPTH });
                        }
                        let node = d.add_element_with_attrs(parent, name, attrs);
                        if !self_closing {
                            stack.push(node);
                            open_tags.push(name);
                        }
                    }
                }
            }
            Token::EndTag { name, offset } => match (&mut doc, stack.pop()) {
                (_, None) => {
                    return Err(XmlError::UnmatchedClose { offset, tag: name.to_owned() });
                }
                (Some(d), Some(node)) => {
                    let open = open_tags.pop().expect("open_tags tracks stack");
                    debug_assert_eq!(d.tag(node), open);
                    if open != name {
                        return Err(XmlError::MismatchedTag {
                            offset,
                            open: open.to_owned(),
                            close: name.to_owned(),
                        });
                    }
                }
                (None, Some(_)) => unreachable!("stack non-empty implies document exists"),
            },
            Token::Text { content, offset } => match (&mut doc, stack.last().copied()) {
                (Some(d), Some(parent)) => {
                    d.add_text(parent, content);
                }
                _ => {
                    // Non-whitespace text before the root or after it closed.
                    return Err(XmlError::MultipleRoots { offset });
                }
            },
        }
    }

    if !open_tags.is_empty() {
        return Err(XmlError::UnclosedElements {
            open: open_tags.into_iter().map(str::to_owned).collect(),
        });
    }
    doc.ok_or(XmlError::EmptyDocument)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structure() {
        let doc = parse_document(
            "<shop><product id=\"1\"><name>TomTom Go 630</name>\
             <rating>4.2</rating></product><product id=\"2\"/></shop>",
        )
        .unwrap();
        let root = doc.root();
        assert_eq!(doc.tag(root), "shop");
        let products: Vec<_> = doc.children_by_tag(root, "product").collect();
        assert_eq!(products.len(), 2);
        assert_eq!(doc.attr(products[0], "id"), Some("1"));
        let name = doc.child_by_tag(products[0], "name").unwrap();
        assert_eq!(doc.text_content(name), "TomTom Go 630");
        assert_eq!(doc.children(products[1]).count(), 0);
    }

    #[test]
    fn parses_prolog_comments_and_doctype() {
        let doc = parse_document(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
             <!DOCTYPE shop>\n<!-- dataset -->\n<shop/>",
        )
        .unwrap();
        assert_eq!(doc.tag(doc.root()), "shop");
    }

    #[test]
    fn self_closing_root() {
        let doc = parse_document("<alone/>").unwrap();
        assert!(doc.is_empty());
        assert_eq!(doc.tag(doc.root()), "alone");
    }

    #[test]
    fn root_attributes_preserved() {
        let doc = parse_document(r#"<shop version="2" lang="en"/>"#).unwrap();
        assert_eq!(doc.attr(doc.root(), "version"), Some("2"));
        assert_eq!(doc.attr(doc.root(), "lang"), Some("en"));
    }

    #[test]
    fn mixed_content_is_ordered() {
        let doc = parse_document("<p>one<b>two</b>three</p>").unwrap();
        let kids: Vec<_> = doc.children(doc.root()).collect();
        assert_eq!(kids.len(), 3);
        assert_eq!(doc.text(kids[0]), Some("one"));
        assert_eq!(doc.tag(kids[1]), "b");
        assert_eq!(doc.text(kids[2]), Some("three"));
        assert_eq!(doc.text_content(doc.root()), "one two three");
    }

    #[test]
    fn error_mismatched_tags() {
        let err = parse_document("<a><b></a></b>").unwrap_err();
        assert!(matches!(err, XmlError::MismatchedTag { ref open, ref close, .. }
                if open == "b" && close == "a"));
    }

    #[test]
    fn error_unmatched_close() {
        let err = parse_document("<a/></a>").unwrap_err();
        assert!(matches!(err, XmlError::UnmatchedClose { ref tag, .. } if tag == "a"));
    }

    #[test]
    fn error_unclosed_elements() {
        let err = parse_document("<a><b><c></c>").unwrap_err();
        assert_eq!(err, XmlError::UnclosedElements { open: vec!["a".into(), "b".into()] });
    }

    #[test]
    fn error_multiple_roots() {
        assert!(matches!(parse_document("<a/><b/>").unwrap_err(), XmlError::MultipleRoots { .. }));
        assert!(matches!(
            parse_document("<a></a>stray").unwrap_err(),
            XmlError::MultipleRoots { .. }
        ));
        assert!(matches!(parse_document("stray<a/>").unwrap_err(), XmlError::MultipleRoots { .. }));
    }

    #[test]
    fn error_empty_document() {
        assert_eq!(parse_document("").unwrap_err(), XmlError::EmptyDocument);
        assert_eq!(parse_document("<!-- only a comment -->").unwrap_err(), XmlError::EmptyDocument);
    }

    #[test]
    fn deep_nesting() {
        let depth = 200;
        let doc = parse_document(&nested(depth)).unwrap();
        assert_eq!(doc.len(), depth + 1);
        // The deepest node is the text.
        let deepest = doc.all_nodes().last().unwrap();
        assert_eq!(doc.text(deepest), Some("x"));
        assert_eq!(doc.depth(deepest), depth + 1);
    }

    /// `levels` nested `<d>` elements around one text run.
    fn nested(levels: usize) -> String {
        format!("{}x{}", "<d>".repeat(levels), "</d>".repeat(levels))
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error_at_the_offending_tag() {
        let doc = parse_document(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(doc.len(), MAX_DEPTH + 1);
        assert_eq!(doc.depth(doc.all_nodes().last().unwrap()), MAX_DEPTH + 1);
        // The 257th open tag starts right after 256 three-byte ones; a
        // self-closing element at that level is as deep.
        let too_deep = XmlError::TooDeep { offset: 3 * MAX_DEPTH, limit: MAX_DEPTH };
        assert_eq!(parse_document(&nested(MAX_DEPTH + 1)).unwrap_err(), too_deep);
        let leaf = format!("{}<e/>{}", "<d>".repeat(MAX_DEPTH), "</d>".repeat(MAX_DEPTH));
        assert_eq!(parse_document(&leaf).unwrap_err(), too_deep);
        assert!(too_deep.to_string().contains("byte 768"), "{too_deep}");
    }

    #[test]
    fn dewey_assignment_matches_sibling_order() {
        let doc = parse_document("<r><a/><b/><c><d/></c></r>").unwrap();
        let root = doc.root();
        let kids: Vec<_> = doc.children(root).collect();
        assert_eq!(doc.dewey(kids[0]).to_string(), "0.0");
        assert_eq!(doc.dewey(kids[1]).to_string(), "0.1");
        assert_eq!(doc.dewey(kids[2]).to_string(), "0.2");
        let d = doc.children(kids[2]).next().unwrap();
        assert_eq!(doc.dewey(d).to_string(), "0.2.0");
    }
}
