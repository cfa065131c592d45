//! Serialising a [`Document`] back to XML text.

use crate::dom::{Document, NodeId};
use crate::escape::{escape_attr, escape_text};

/// The output format of [`write_document`]. There is one: compact, on a
/// single line, without a declaration, which parses back to an equivalent
/// document.
#[derive(Debug, Clone, Default)]
pub struct WriteOptions;

impl WriteOptions {
    /// Single-line output, no declaration. Round-trips through the parser.
    pub fn compact() -> Self {
        WriteOptions
    }
}

/// Serialises the whole document. The output parses back to an equivalent
/// document (same tree shape, tags, attributes and text).
pub fn write_document(doc: &Document, _: &WriteOptions) -> String {
    let mut out = String::with_capacity(doc.len() * 16);
    write_node(doc, doc.root(), &mut out);
    out
}

/// Serialises the subtree rooted at `node`.
pub fn write_subtree(doc: &Document, node: NodeId) -> String {
    let mut out = String::new();
    write_node(doc, node, &mut out);
    out
}

fn write_node(doc: &Document, node: NodeId, out: &mut String) {
    if let Some(t) = doc.text(node) {
        out.push_str(&escape_text(t));
        return;
    }
    let tag = doc.tag(node);
    out.push('<');
    out.push_str(tag);
    for (name, value) in doc.attrs(node) {
        out.push(' ');
        out.push_str(name);
        out.push_str("=\"");
        out.push_str(&escape_attr(value));
        out.push('"');
    }
    if doc.children(node).next().is_none() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for child in doc.children(node) {
        write_node(doc, child, out);
    }
    out.push_str("</");
    out.push_str(tag);
    out.push('>');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;

    fn sample() -> Document {
        let mut doc = Document::new("shop");
        let root = doc.root();
        let p = doc.add_element(root, "product");
        doc.set_attr(p, "id", "1");
        doc.add_leaf(p, "name", "TomTom Go 630");
        doc.add_leaf(p, "note", "fast & \"cheap\" <deal>");
        doc.add_element(root, "empty");
        doc
    }

    #[test]
    fn compact_output() {
        let doc = sample();
        let xml = write_document(&doc, &WriteOptions::compact());
        assert_eq!(
            xml,
            "<shop><product id=\"1\"><name>TomTom Go 630</name>\
             <note>fast &amp; \"cheap\" &lt;deal&gt;</note></product><empty/></shop>"
        );
    }

    #[test]
    fn compact_round_trips() {
        let doc = sample();
        let xml = write_document(&doc, &WriteOptions::compact());
        let reparsed = parse_document(&xml).unwrap();
        assert_eq!(write_document(&reparsed, &WriteOptions::compact()), xml);
        assert_eq!(reparsed.len(), doc.len());
    }

    #[test]
    fn attribute_values_escaped() {
        let mut doc = Document::new("a");
        let root = doc.root();
        doc.set_attr(root, "q", "say \"hi\" & <go>");
        let xml = write_document(&doc, &WriteOptions::compact());
        assert_eq!(xml, "<a q=\"say &quot;hi&quot; &amp; &lt;go&gt;\"/>");
        let reparsed = parse_document(&xml).unwrap();
        assert_eq!(reparsed.attr(reparsed.root(), "q"), Some("say \"hi\" & <go>"));
    }

    #[test]
    fn write_subtree_extracts_fragment() {
        let doc = sample();
        let p = doc.child_by_tag(doc.root(), "product").unwrap();
        let xml = write_subtree(&doc, p);
        assert!(xml.starts_with("<product id=\"1\">"));
        assert!(xml.ends_with("</product>"));
        // A subtree is itself a well-formed document.
        assert!(parse_document(&xml).is_ok());
    }

    #[test]
    fn display_uses_compact_writer() {
        let doc = sample();
        assert_eq!(doc.to_string(), write_document(&doc, &WriteOptions::compact()));
    }
}
