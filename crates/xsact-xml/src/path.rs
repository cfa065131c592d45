//! Lightweight path selection over the DOM — a practical navigation helper
//! for library users (a small subset of XPath's abbreviated syntax).
//!
//! Supported steps, separated by `/`:
//! * a tag name — matches child elements with that tag,
//! * `*` — matches any child element,
//! * `**` — matches any *descendant-or-self* element (deep descent).
//!
//! ```
//! use xsact_xml::{parse_document, path::select};
//!
//! let doc = parse_document(
//!     "<shop><product><name>A</name></product><product><name>B</name></product></shop>",
//! ).unwrap();
//! let names = select(&doc, doc.root(), "product/name");
//! assert_eq!(names.len(), 2);
//! let all = select(&doc, doc.root(), "**/name");
//! assert_eq!(all.len(), 2);
//! ```

use crate::dom::{Document, NodeId};

/// Selects elements matching `path` relative to `start` (exclusive).
/// Results are in document order without duplicates. An empty path selects
/// `start` itself.
pub fn select(doc: &Document, start: NodeId, path: &str) -> Vec<NodeId> {
    let steps: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let mut current = vec![start];
    for step in steps {
        let mut next = Vec::new();
        for &node in &current {
            match step {
                "*" => next.extend(doc.child_elements(node)),
                "**" => next.extend(doc.descendants(node).filter(|&n| doc.is_element(n))),
                tag => next.extend(doc.children_by_tag(node, tag)),
            }
        }
        // `**` can produce overlapping sets; dedupe while keeping document
        // order (id order).
        next.sort_unstable();
        next.dedup();
        current = next;
    }
    current
}

/// First match of [`select`], if any.
pub fn select_first(doc: &Document, start: NodeId, path: &str) -> Option<NodeId> {
    select(doc, start, path).into_iter().next()
}

/// Concatenated text of the first match, if any.
pub fn select_text(doc: &Document, start: NodeId, path: &str) -> Option<String> {
    select_first(doc, start, path).map(|n| doc.text_content(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;

    fn doc() -> Document {
        parse_document(
            "<shop>\
               <product><name>A</name><reviews><review><pros><compact>yes</compact></pros></review></reviews></product>\
               <product><name>B</name><reviews><review/><review/></reviews></product>\
               <banner><name>sale</name></banner>\
             </shop>",
        )
        .unwrap()
    }

    #[test]
    fn child_steps() {
        let d = doc();
        let products = select(&d, d.root(), "product");
        assert_eq!(products.len(), 2);
        let names = select(&d, d.root(), "product/name");
        let texts: Vec<String> = names.iter().map(|&n| d.text_content(n)).collect();
        assert_eq!(texts, ["A", "B"]);
    }

    #[test]
    fn wildcard_step() {
        let d = doc();
        assert_eq!(select(&d, d.root(), "*").len(), 3);
        assert_eq!(select(&d, d.root(), "*/name").len(), 3);
    }

    #[test]
    fn deep_descent() {
        let d = doc();
        let reviews = select(&d, d.root(), "**/review");
        assert_eq!(reviews.len(), 3);
        // `**` includes self, so `**` from root counts every element.
        let all = select(&d, d.root(), "**");
        assert_eq!(all.len(), d.all_nodes().filter(|&n| d.is_element(n)).count());
    }

    #[test]
    fn deep_then_child() {
        let d = doc();
        let compact = select(&d, d.root(), "**/pros/compact");
        assert_eq!(compact.len(), 1);
        assert_eq!(d.text_content(compact[0]), "yes");
    }

    #[test]
    fn no_duplicates_in_document_order() {
        let d = doc();
        // `**/**/name` would naively multiply matches.
        let names = select(&d, d.root(), "**/**/name");
        assert_eq!(names.len(), 3);
        for pair in names.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn empty_and_missing_paths() {
        let d = doc();
        assert_eq!(select(&d, d.root(), ""), vec![d.root()]);
        assert!(select(&d, d.root(), "nonexistent").is_empty());
        assert!(select(&d, d.root(), "product/nonexistent").is_empty());
    }

    #[test]
    fn relative_to_inner_node() {
        let d = doc();
        let product = select_first(&d, d.root(), "product").unwrap();
        assert_eq!(select(&d, product, "reviews/review").len(), 1);
        assert_eq!(select_text(&d, product, "name").as_deref(), Some("A"));
        assert_eq!(select_text(&d, product, "missing"), None);
    }
}
