//! The per-document tag-path table: a node's kind is its path.
//!
//! A **tag path** is the chain of tags from the root element down to an
//! element (`shop/product/reviews/review`). XSeek-style entity inference
//! classifies nodes by it, so the document records it as it is built: each
//! distinct path is one [`TagPath`] entry `(parent path, tag)`, numbered
//! first-seen in preorder — the root element's path is 0, and a path's
//! parent always precedes it — and each element stores its path id where
//! it used to store its tag. Appending an element costs one probe of a
//! table sized by the paths, keyed by `(parent path, tag)`.
//!
//! Every entry also keeps the two structural facts the inference reads:
//!
//! * `repeats`: some parent holds two children on this path, settled in
//!   O(1) per appended element with a **stamp** — the parent node the path
//!   was last appended under. Between two children of one parent only
//!   their own descendants are appended, and those lie on longer paths, so
//!   meeting the stamp again is the repetition;
//! * `internal`: some node on this path has an element child — exactly
//!   when some path extends it, since every path is some element's. It is
//!   settled once per path, when a path extending it is added.

use crate::interner::Sym;

/// Dense handle of a distinct tag path inside one document: its rank in
/// first-seen preorder, below [`Document::paths`]' length.
///
/// [`Document::paths`]: crate::Document::paths
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(u32);

impl PathId {
    /// The dense index of this path.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_raw(raw: u32) -> PathId {
        PathId(raw)
    }
}

/// One distinct tag path of a document and its two structural facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagPath {
    /// The path one step shorter; `None` for the root element's path.
    pub parent: Option<PathId>,
    /// The tag of the path's last step.
    pub tag: Sym,
    /// Some parent holds two or more children on this path.
    pub repeats: bool,
    /// Some node on this path has an element child.
    pub internal: bool,
}

/// The stamp of a path no node has been appended on yet, and the parent
/// entry of the root path in the probe key. No node id reaches it.
const NO_NODE: u32 = u32::MAX;

/// The paths of one document, in id order, and an open-addressing table
/// over them keyed by `(parent path, tag)`.
#[derive(Debug, Clone)]
pub(crate) struct PathTable {
    paths: Vec<TagPath>,
    /// Per path, the parent node it was last appended under ([`NO_NODE`]
    /// before its first node).
    stamps: Vec<u32>,
    /// `0` for an empty slot, else a path id plus one. The length is a
    /// power of two, and at most half the slots are taken.
    slots: Vec<u32>,
}

impl PathTable {
    /// A table sized for `paths` entries: adding them allocates nothing
    /// more.
    pub(crate) fn with_capacity(paths: usize) -> PathTable {
        PathTable {
            paths: Vec::with_capacity(paths),
            stamps: Vec::with_capacity(paths),
            slots: vec![0; (2 * paths).next_power_of_two().max(16)],
        }
    }

    /// The table of a document whose root element has tag `root`.
    pub(crate) fn new(root: Sym) -> PathTable {
        // Data-centric documents have a few dozen paths: room for 32 costs
        // under a kilobyte, and the parse of such a document three blocks.
        let mut table = PathTable::with_capacity(32);
        table.add(None, root);
        table
    }

    /// Every path, in id order.
    pub(crate) fn paths(&self) -> &[TagPath] {
        &self.paths
    }

    /// The path with id `path`.
    pub(crate) fn get(&self, path: u32) -> &TagPath {
        &self.paths[path as usize]
    }

    /// The path of an element with tag `tag` appended under node `parent`,
    /// whose path is `above`; records the facts the append settles.
    pub(crate) fn child(&mut self, above: u32, tag: Sym, parent: u32) -> u32 {
        let path = match self.probe(above, tag) {
            Ok(path) => path,
            Err(_) => self.add(Some(PathId(above)), tag).expect("a new path is no repeat"),
        };
        self.note_child(path, parent);
        path
    }

    /// Records that an element on `path` was appended under node `parent`:
    /// `path` repeats if `parent` already holds one.
    pub(crate) fn note_child(&mut self, path: u32, parent: u32) {
        // Branch-free: whether a sibling repeats is data, not a pattern.
        let stamp = std::mem::replace(&mut self.stamps[path as usize], parent);
        self.paths[path as usize].repeats |= stamp == parent;
    }

    /// Appends the path `(parent, tag)`, returning its id, or `None` if the
    /// table already holds it. The parent path is internal from then on.
    pub(crate) fn add(&mut self, parent: Option<PathId>, tag: Sym) -> Option<u32> {
        if (self.paths.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let above = parent.map_or(NO_NODE, |p| p.0);
        let slot = self.probe(above, tag).err()?;
        let id = self.paths.len() as u32;
        self.paths.push(TagPath { parent, tag, repeats: false, internal: false });
        self.stamps.push(NO_NODE);
        self.slots[slot] = id + 1;
        if let Some(parent) = parent {
            self.paths[parent.index()].internal = true;
        }
        Some(id)
    }

    /// Walks the probe sequence of `(above, tag)`: its path, or the empty
    /// slot it would take. The table is never full.
    fn probe(&self, above: u32, tag: Sym) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = home(above, tag, self.slots.len());
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                taken => {
                    let entry = &self.paths[taken as usize - 1];
                    if entry.tag == tag && entry.parent.map_or(NO_NODE, |p| p.0) == above {
                        return Ok(taken - 1);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the slots and re-seats every path.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        let mut slots = vec![0u32; len];
        for (id, entry) in self.paths.iter().enumerate() {
            let mut slot = home(entry.parent.map_or(NO_NODE, |p| p.0), entry.tag, len);
            while slots[slot] != 0 {
                slot = (slot + 1) & (len - 1);
            }
            slots[slot] = id as u32 + 1;
        }
        self.slots = slots;
    }

    /// Heap bytes of the entries, the stamps and the probe table.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.paths.capacity() * std::mem::size_of::<TagPath>()
            + (self.stamps.capacity() + self.slots.capacity()) * std::mem::size_of::<u32>()
    }
}

/// First slot of `(above, tag)` in a table of `len` (a power of two)
/// slots: the top bits of one multiply, where it mixes best.
fn home(above: u32, tag: Sym, len: usize) -> usize {
    let key = u64::from(above) << 32 | tag.index() as u64;
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - len.trailing_zeros())) as usize
}
