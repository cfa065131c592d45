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
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DeweyId {
    components: Vec<u32>,
}

impl DeweyId {
    /// The ID of the document root element, `0`.
    pub fn root() -> Self {
        DeweyId { components: vec![0] }
    }

    /// Builds an ID from raw components. Returns `None` for an empty slice —
    /// the empty path identifies nothing.
    pub fn from_components(components: &[u32]) -> Option<Self> {
        if components.is_empty() {
            None
        } else {
            Some(DeweyId { components: components.to_vec() })
        }
    }

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

    /// Depth of the node: the root has depth 1.
    pub fn depth(&self) -> usize {
        self.components.len()
    }

    /// The ID of this node's `ordinal`-th child.
    pub fn child(&self, ordinal: u32) -> Self {
        let mut components = Vec::with_capacity(self.components.len() + 1);
        components.extend_from_slice(&self.components);
        components.push(ordinal);
        DeweyId { components }
    }

    /// The parent's ID, or `None` for the root.
    pub fn parent(&self) -> Option<Self> {
        self.ancestor_at_depth(self.components.len().saturating_sub(1))
    }

    /// Whether `self` is a proper ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &DeweyId) -> bool {
        self.components.len() < other.components.len() && self.is_ancestor_or_self_of(other)
    }

    /// Whether `self` is `other` or an ancestor of it.
    pub fn is_ancestor_or_self_of(&self, other: &DeweyId) -> bool {
        other.components.starts_with(&self.components)
    }

    /// The lowest common ancestor of two IDs: their longest common prefix.
    ///
    /// Two nodes of the same document always share at least the root
    /// component, so this returns `None` only when the IDs come from
    /// different documents (differing first components).
    pub fn lca(&self, other: &DeweyId) -> Option<DeweyId> {
        self.ancestor_at_depth(self.common_prefix_len(other))
    }

    /// Length of the longest common prefix with `other`.
    pub fn common_prefix_len(&self, other: &DeweyId) -> usize {
        self.components.iter().zip(&other.components).take_while(|(a, b)| a == b).count()
    }

    /// Truncates the ID to its first `depth` components (an ancestor-or-self
    /// ID). Returns `None` if `depth` is zero or exceeds this node's depth.
    pub fn ancestor_at_depth(&self, depth: usize) -> Option<DeweyId> {
        DeweyId::from_components(self.components.get(..depth)?)
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
        DeweyId::from_components(cs).unwrap()
    }

    #[test]
    fn root_and_children() {
        let root = DeweyId::root();
        assert_eq!(root.depth(), 1);
        assert_eq!(root.to_string(), "0");
        let c = root.child(2);
        assert_eq!(c.to_string(), "0.2");
        assert_eq!(c.parent(), Some(root.clone()));
        assert_eq!(root.parent(), None);
    }

    #[test]
    fn empty_components_rejected() {
        assert!(DeweyId::from_components(&[]).is_none());
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
    fn lca_is_longest_common_prefix() {
        let a = id(&[0, 1, 2, 5]);
        let b = id(&[0, 1, 3]);
        assert_eq!(a.lca(&b), Some(id(&[0, 1])));
        assert_eq!(a.lca(&a), Some(a.clone()));
        // Ancestor/descendant: LCA is the ancestor.
        assert_eq!(a.lca(&id(&[0, 1, 2])), Some(id(&[0, 1, 2])));
        // Different documents (different roots) share nothing.
        assert_eq!(id(&[0]).lca(&id(&[1])), None);
    }

    #[test]
    fn document_order_matches_lexicographic_intuition() {
        let mut ids = [id(&[0, 2]), id(&[0]), id(&[0, 1, 9]), id(&[0, 1])];
        ids.sort();
        let rendered: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
        assert_eq!(rendered, ["0", "0.1", "0.1.9", "0.2"]);
    }

    #[test]
    fn ancestor_at_depth_truncates() {
        let a = id(&[0, 4, 2]);
        assert_eq!(a.ancestor_at_depth(1), Some(id(&[0])));
        assert_eq!(a.ancestor_at_depth(2), Some(id(&[0, 4])));
        assert_eq!(a.ancestor_at_depth(3), Some(a.clone()));
        assert_eq!(a.ancestor_at_depth(0), None);
        assert_eq!(a.ancestor_at_depth(4), None);
    }

    #[test]
    fn common_prefix_len_counts_shared_components() {
        assert_eq!(id(&[0, 1, 2]).common_prefix_len(&id(&[0, 1, 3])), 2);
        assert_eq!(id(&[0]).common_prefix_len(&id(&[1])), 0);
        assert_eq!(id(&[0, 7]).common_prefix_len(&id(&[0, 7])), 2);
    }

    #[test]
    fn display_and_debug() {
        let a = id(&[0, 10, 3]);
        assert_eq!(a.to_string(), "0.10.3");
        assert_eq!(format!("{a:?}"), "DeweyId(0.10.3)");
    }
}
