//! Serialising a [`Document`] back to XML text.

use crate::dom::{Document, NodeId};
use crate::escape::{escape_attr, escape_text};

/// Controls the output format of [`write_document`].
#[derive(Debug, Clone)]
pub struct WriteOptions {
    /// Indentation per nesting level; `None` writes everything on one line.
    pub indent: Option<usize>,
    /// Whether to emit an `<?xml version="1.0"?>` declaration.
    pub declaration: bool,
}

impl WriteOptions {
    /// Single-line output, no declaration. Round-trips through the parser.
    pub fn compact() -> Self {
        WriteOptions { indent: None, declaration: false }
    }

    /// Two-space indentation with an XML declaration.
    pub fn pretty() -> Self {
        WriteOptions { indent: Some(2), declaration: true }
    }
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions::compact()
    }
}

/// Serialises the whole document.
///
/// With `WriteOptions::compact()` the output parses back to an equivalent
/// document (same tree shape, tags, attributes and text).
pub fn write_document(doc: &Document, opts: &WriteOptions) -> String {
    let mut out = String::with_capacity(doc.len() * 16);
    if opts.declaration {
        // No explicit newline: `indent` adds one before the root element
        // whenever pretty-printing is on.
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    }
    write_node(doc, doc.root(), opts, 0, &mut out);
    out
}

/// Serialises the subtree rooted at `node` (compact form).
pub fn write_subtree(doc: &Document, node: NodeId) -> String {
    let mut out = String::new();
    write_node(doc, node, &WriteOptions::compact(), 0, &mut out);
    out
}

fn write_node(doc: &Document, node: NodeId, opts: &WriteOptions, level: usize, out: &mut String) {
    if let Some(t) = doc.text(node) {
        indent(opts, level, out);
        out.push_str(&escape_text(t));
        return;
    }
    let tag = doc.tag(node);
    indent(opts, level, out);
    out.push('<');
    out.push_str(tag);
    for (name, value) in doc.attrs(node) {
        out.push(' ');
        out.push_str(name);
        out.push_str("=\"");
        out.push_str(&escape_attr(value));
        out.push('"');
    }
    let mut children = doc.children(node);
    let Some(first) = children.next() else {
        out.push_str("/>");
        return;
    };
    out.push('>');
    // A single text child stays inline even in pretty mode, so leaf
    // values read naturally: <name>TomTom</name>.
    match doc.text(first) {
        Some(text) if children.next().is_none() => out.push_str(&escape_text(text)),
        _ => {
            for child in doc.children(node) {
                write_node(doc, child, opts, level + 1, out);
            }
            indent(opts, level, out);
        }
    }
    out.push_str("</");
    out.push_str(tag);
    out.push('>');
}

fn indent(opts: &WriteOptions, level: usize, out: &mut String) {
    if let Some(width) = opts.indent {
        if !out.is_empty() {
            out.push('\n');
        }
        out.extend(std::iter::repeat_n(' ', level * width));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;

    fn sample() -> Document {
        let mut doc = Document::new("shop");
        let root = doc.root();
        let p = doc.add_element_with_attrs(root, "product", vec![("id".into(), "1".into())]);
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
    fn pretty_output_shape() {
        let doc = sample();
        let xml = write_document(&doc, &WriteOptions::pretty());
        let lines: Vec<&str> = xml.lines().collect();
        assert_eq!(lines[0], "<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        assert_eq!(lines[1], "<shop>");
        assert_eq!(lines[2], "  <product id=\"1\">");
        assert_eq!(lines[3], "    <name>TomTom Go 630</name>");
        assert!(lines.last().unwrap().starts_with("</shop>"));
        // Pretty output still parses back to the same structure.
        let reparsed = parse_document(&xml).unwrap();
        assert_eq!(reparsed.children_by_tag(reparsed.root(), "product").count(), 1);
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
