//! Parser: XML text → [`Document`].
//!
//! [`parse_document`] drives the byte-level scanner of [`crate::tokenizer`]
//! directly — there is no token in between: a name is interned from its
//! slice of the input, a text run or attribute value is written
//! (entity-resolved when it holds an `&`) straight into the document's text
//! arena, and an element's subtree extent is written once, when its end tag
//! arrives. The only
//! allocations are the document's own arrays — sized once, from the
//! input's length and what its first few kilobytes produced — and the
//! stack of open elements.
//!
//! Enforces well-formedness across tags: matching open/close pairs, exactly
//! one root element, no character data outside the root — and caps element
//! nesting at [`MAX_DEPTH`] and the input's length at [`MAX_INPUT_LEN`].

use crate::dom::{Document, NodeId};
use crate::error::{XmlError, XmlResult};
use crate::tokenizer::{Event, Scanner, TagPart};

/// Deepest element nesting the parser accepts (the root is level 1) —
/// libxml2's default. The writer recurses per level and the `add_*`
/// builders walk a node's ancestors, so a few kilobytes of nothing but open
/// tags must not decide how deep those go. Documents built through the
/// `add_*` API are not limited.
pub const MAX_DEPTH: usize = 256;

/// Longest input, in bytes, the parser accepts. Node ids and text spans are
/// 32-bit, and every node and every byte of text or attribute value costs
/// at least one byte of input, so this one bound keeps every id and offset
/// of a parsed document in range.
pub const MAX_INPUT_LEN: usize = u32::MAX as usize;

/// Bytes of input after which the document's arrays are sized for the rest
/// of it, from the nodes and text those bytes produced.
const SAMPLE_LEN: usize = 4096;

fn check_len(len: usize) -> XmlResult<()> {
    if len > MAX_INPUT_LEN {
        return Err(XmlError::TooLarge { len, limit: MAX_INPUT_LEN });
    }
    Ok(())
}

/// Parses a complete XML document.
///
/// ```
/// use xsact_xml::parse_document;
///
/// let doc = parse_document("<a><b>text</b><b/></a>").unwrap();
/// assert_eq!(doc.children(doc.root()).count(), 2);
/// ```
pub fn parse_document(input: &str) -> XmlResult<Document> {
    check_len(input.len())?;
    let mut scanner = Scanner::new(input);

    // Prolog: comments, processing instructions and a DOCTYPE are skipped
    // by the scanner; the first event must open the root element.
    let root_name = match scanner.next()? {
        None => return Err(XmlError::EmptyDocument),
        Some(Event::Start { name, .. }) => name,
        Some(event) => return Err(outside_root(&mut scanner, event)),
    };
    let mut doc = Document::for_input(root_name, input.len());
    // The open elements with their names as written: matching a close tag
    // is a slice compare, and only an error path allocates.
    let mut open: Vec<(NodeId, &str)> = Vec::new();
    let root = doc.root();
    if !read_tag(&mut scanner, &mut doc, root)? {
        open.push((root, root_name));
    }

    // The root element's content, until its end tag.
    let mut sample_at = SAMPLE_LEN;
    while let Some(&(current, current_name)) = open.last() {
        match scanner.next()? {
            None => {
                return Err(XmlError::UnclosedElements {
                    open: open.into_iter().map(|(_, name)| name.to_owned()).collect(),
                })
            }
            Some(Event::Start { name, offset }) => {
                if open.len() >= MAX_DEPTH {
                    let too_deep = XmlError::TooDeep { offset, limit: MAX_DEPTH };
                    return Err(after_tag(&mut scanner, too_deep));
                }
                if offset >= sample_at {
                    doc.reserve_like_sample(offset, input.len());
                    sample_at = usize::MAX;
                }
                let node = doc.open_element(current, name);
                if !read_tag(&mut scanner, &mut doc, node)? {
                    open.push((node, name));
                }
            }
            Some(Event::End { name, offset }) => {
                if current_name != name {
                    return Err(XmlError::MismatchedTag {
                        offset,
                        open: current_name.to_owned(),
                        close: name.to_owned(),
                    });
                }
                doc.close_element(current);
                open.pop();
            }
            Some(Event::Text(text)) => doc.push_text(current, |arena| text.resolve_into(arena))?,
        }
    }

    // Epilog: nothing but what the scanner skips may follow the root.
    if let Some(event) = scanner.next()? {
        return Err(outside_root(&mut scanner, event));
    }
    doc.shrink_to_fit();
    doc.record_source(input.as_bytes());
    Ok(doc)
}

/// Reads the rest of `node`'s start tag — its attributes, into `doc` — and
/// returns whether the tag was self-closing.
fn read_tag(scanner: &mut Scanner<'_>, doc: &mut Document, node: NodeId) -> XmlResult<bool> {
    loop {
        match scanner.next_attr()? {
            TagPart::Attr { name, value } => {
                doc.push_attr(node, name, |arena| value.resolve_into(arena))?
            }
            TagPart::Close { self_closing } => return Ok(self_closing),
        }
    }
}

/// The error for a start tag the parser refuses with `refusal`: what is
/// wrong *inside* the tag, if anything, is reported first, as it was when a
/// tag reached the parser as one finished token.
fn after_tag(scanner: &mut Scanner<'_>, refusal: XmlError) -> XmlError {
    loop {
        match scanner.next_attr() {
            Ok(TagPart::Attr { value, .. }) => {
                if let Err(bad_entity) = value.resolve() {
                    return bad_entity;
                }
            }
            Ok(TagPart::Close { .. }) => return refusal,
            Err(malformed) => return malformed,
        }
    }
}

/// The error for an event before the root element or after it.
fn outside_root(scanner: &mut Scanner<'_>, event: Event<'_>) -> XmlError {
    match event {
        Event::Start { offset, .. } => after_tag(scanner, XmlError::MultipleRoots { offset }),
        Event::End { name, offset } => XmlError::UnmatchedClose { offset, tag: name.to_owned() },
        Event::Text(text) => match text.resolve() {
            Ok(_) => XmlError::MultipleRoots { offset: text.offset },
            Err(bad_entity) => bad_entity,
        },
    }
}

/// The parser this module held before it read the scanner: the oracle
/// tokenizer's finished tokens, replayed through the public `add_*`
/// builders (an ancestor walk per node). [`parse_document`] is pinned to it
/// — the same document node for node, or the same error value.
#[cfg(test)]
mod oracle {
    use super::MAX_DEPTH;
    use crate::dom::Document;
    use crate::error::{XmlError, XmlResult};
    use crate::tokenizer::oracle::{Token, Tokenizer};

    pub fn parse_document(input: &str) -> XmlResult<Document> {
        let mut doc: Option<Document> = None;
        let mut stack = Vec::new();
        let mut open_tags: Vec<&str> = Vec::new();

        for token in Tokenizer::new(input) {
            match token? {
                Token::StartTag { name, attrs, self_closing, offset } => {
                    match (&mut doc, stack.last().copied()) {
                        (None, _) => {
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
                        (Some(_), None) => return Err(XmlError::MultipleRoots { offset }),
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
                Token::EndTag { name, offset } => match stack.pop() {
                    None => {
                        return Err(XmlError::UnmatchedClose { offset, tag: name.to_owned() });
                    }
                    Some(_) => {
                        let open = open_tags.pop().expect("open_tags tracks stack");
                        if open != name {
                            return Err(XmlError::MismatchedTag {
                                offset,
                                open: open.to_owned(),
                                close: name.to_owned(),
                            });
                        }
                    }
                },
                Token::Text { content, offset } => match (&mut doc, stack.last().copied()) {
                    (Some(d), Some(parent)) => {
                        d.add_text(parent, content);
                    }
                    _ => return Err(XmlError::MultipleRoots { offset }),
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

    /// Node for node: parents, extents, tags, attributes and text.
    fn assert_same_document(new: &Document, old: &Document, what: &str) {
        assert_eq!(new.len(), old.len(), "{what}: node count");
        assert_eq!(new.element_count(), old.element_count(), "{what}: element count");
        for (n, o) in new.all_nodes().zip(old.all_nodes()) {
            assert_eq!(n, o, "{what}");
            assert_eq!(new.parent(n), old.parent(n), "{what}: parent of {n:?}");
            assert_eq!(new.subtree_end(n), old.subtree_end(n), "{what}: extent of {n:?}");
            assert_eq!(new.tag(n), old.tag(n), "{what}: tag of {n:?}");
            assert_eq!(new.text(n), old.text(n), "{what}: text of {n:?}");
            assert!(new.attrs(n).eq(old.attrs(n)), "{what}: attributes of {n:?}");
            assert_eq!(new.attr_count(n), old.attr_count(n), "{what}: attributes of {n:?}");
        }
    }

    /// The same document or the same error value as the token-replaying
    /// parser, on every generator's output, random documents using the
    /// whole syntax and byte-mutations of all of them; and what parses is
    /// written as a fixed point of write ∘ parse.
    #[test]
    fn parses_what_the_token_replaying_parser_did() {
        use crate::writer::{write_document, WriteOptions};
        let (mut parsed, mut refused) = (0, 0);
        crate::samples::for_each_input(|what, input| {
            match (parse_document(input), oracle::parse_document(input)) {
                (Ok(new), Ok(old)) => {
                    parsed += 1;
                    assert_same_document(&new, &old, what);
                    // Written text is a fixed point of write ∘ parse — at
                    // once, unless a CDATA section left a blank text node,
                    // which the written form cannot tell from layout.
                    let rewrite = |xml: &str| {
                        write_document(&parse_document(xml).unwrap(), &WriteOptions::compact())
                    };
                    let written = write_document(&new, &WriteOptions::compact());
                    let blank = |n| new.text(n).is_some_and(|t| t.trim_ascii().is_empty());
                    let settled =
                        if new.all_nodes().any(blank) { rewrite(&written) } else { written };
                    assert_eq!(rewrite(&settled), settled, "{what}");
                }
                (new, old) => {
                    refused += 1;
                    assert_eq!(new.err(), old.err(), "{what}: {input:?}");
                }
            }
        });
        assert!(parsed > 500 && refused > 1000, "{parsed} parsed, {refused} refused");
    }

    /// Where two things are wrong, the one reported first is the one the
    /// finished-token parser met first: inside a tag before the tag itself,
    /// inside a text run before the run's place.
    #[test]
    fn reports_the_error_the_token_replaying_parser_did() {
        let deep = "<d>".repeat(MAX_DEPTH);
        for input in [
            "<a/><b x=1/>",
            "<a/><b x='&bad;'/>",
            "<a/><b x='1' x='2'/>",
            "<a/><b",
            "<a/>&bad;",
            "&bad;<a/>",
            "<a/></a>",
            "</a><a/>",
            "<a><b></a></b>",
            "<a><b><c></c>",
            "<a></a>stray",
            "<a/><!-- never closed",
            "<a>&bad;",
            "<a x='&bad;'>",
            "<a><![CDATA[x]]>",
            "<!DOCTYPE a [",
            "",
            "  <!-- only --> <?pi?> ",
            &format!("{deep}<e x=1/>"),
            &format!("{deep}<e x='&bad;'/>"),
            &format!("{deep}<e/>"),
        ] {
            let (new, old) = (parse_document(input), oracle::parse_document(input));
            assert!(old.is_err(), "{input:?} is malformed");
            assert_eq!(new.err(), old.err(), "{input:?}");
        }
    }

    /// The shown defect: ids and text spans are 32-bit, and a longer input
    /// used to wrap them silently. The length is checked once, up front
    /// (through `check_len` — no 4 GB string in a test).
    #[test]
    fn input_longer_than_the_id_space_is_a_typed_error() {
        assert_eq!(check_len(0), Ok(()));
        assert_eq!(check_len(MAX_INPUT_LEN), Ok(()));
        assert_eq!(MAX_INPUT_LEN as u64, u64::from(u32::MAX));
        if let Some(len) = MAX_INPUT_LEN.checked_add(1) {
            let err = check_len(len).unwrap_err();
            assert_eq!(err, XmlError::TooLarge { len, limit: MAX_INPUT_LEN });
            assert_eq!(
                err.to_string(),
                "input of 4294967296 bytes is longer than the 4294967295 bytes a document can hold"
            );
        }
    }
}
