//! Dewey identifiers — the hierarchical node labels of XML keyword search.
//!
//! A Dewey ID encodes a node's path from the document root as a sequence of
//! sibling ordinals: the root element is `0`, its second child is `0.1`, that
//! child's first child is `0.1.0`, and so on. Under this encoding
//!
//! * **document order** is plain lexicographic comparison, and
//! * the **lowest common ancestor** of two nodes is the longest common
//!   prefix of their IDs.
//!
//! A [`Document`](crate::Document) does not store Dewey IDs: its node ids
//! are preorder ranks, so id order *is* document order and ancestry is
//! interval containment, and everything that executes a query compares
//! integers. [`Document::dewey`](crate::Document::dewey) derives a
//! [`DeweyId`] on demand — for the `tag [0.3.1]` label of a result that has
//! no name, for diagnostics, and for tests that check the id order against
//! the path order it stands for.

use std::cmp::Ordering;
use std::fmt;

/// A Dewey identifier: the root has the one-component ID `[0]`; each further
/// component is the zero-based ordinal of the node among its siblings.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DeweyId {
    components: Vec<u32>,
}

impl DeweyId {
    /// Wraps a path the document derived; it starts at the root, so it is
    /// never empty.
    pub(crate) fn from_path(components: Vec<u32>) -> Self {
        debug_assert!(!components.is_empty());
        DeweyId { components }
    }

    /// The raw components, outermost first.
    pub fn components(&self) -> &[u32] {
        &self.components
    }

    /// Whether `self` is a proper ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &DeweyId) -> bool {
        self.components.len() < other.components.len() && self.is_ancestor_or_self_of(other)
    }

    /// Whether `self` is `other` or an ancestor of it.
    pub fn is_ancestor_or_self_of(&self, other: &DeweyId) -> bool {
        other.components.starts_with(&self.components)
    }
}

impl PartialOrd for DeweyId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic component order — equal to document (pre)order for nodes of
/// one document, with the caveat that an ancestor sorts before its
/// descendants.
impl Ord for DeweyId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.components.cmp(&other.components)
    }
}

impl fmt::Display for DeweyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for DeweyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DeweyId({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(cs: &[u32]) -> DeweyId {
        DeweyId::from_path(cs.to_vec())
    }

    #[test]
    fn ancestor_relations() {
        let a = id(&[0, 1]);
        let b = id(&[0, 1, 3, 2]);
        assert!(a.is_ancestor_of(&b));
        assert!(!b.is_ancestor_of(&a));
        assert!(!a.is_ancestor_of(&a));
        assert!(a.is_ancestor_or_self_of(&a));
        assert!(a.is_ancestor_or_self_of(&b));
        // Sibling subtrees are unrelated.
        assert!(!id(&[0, 1]).is_ancestor_of(&id(&[0, 2, 0])));
    }

    #[test]
    fn document_order_matches_lexicographic_intuition() {
        let mut ids = [id(&[0, 2]), id(&[0]), id(&[0, 1, 9]), id(&[0, 1])];
        ids.sort();
        let rendered: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
        assert_eq!(rendered, ["0", "0.1", "0.1.9", "0.2"]);
    }

    #[test]
    fn display_and_debug() {
        let a = id(&[0, 10, 3]);
        assert_eq!(a.to_string(), "0.10.3");
        assert_eq!(format!("{a:?}"), "DeweyId(0.10.3)");
    }
}
