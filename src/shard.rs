//! Shard planning: which document lives in which shard.
//!
//! The assignment must be a pure function of `(document count, shard
//! count)` so that reloading a corpus — or running it with a different
//! worker pool — never moves a document to a different shard mid-session.
//! Round-robin keeps shard sizes within one document of each other for any
//! input size, which is what makes the fan-out's wall-clock follow the
//! slowest shard instead of an unlucky partition.

use std::fmt;

/// Identifier of one document inside a corpus: its ingestion position.
///
/// Ingestion order is deterministic for every corpus source (explicit
/// lists keep their order; directories are read in sorted filename order),
/// so a `DocId` is stable across runs and across shard counts — which is
/// what lets cross-shard merge ties break on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(pub u32);

impl DocId {
    /// The position as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc{}", self.0)
    }
}

/// A deterministic document → shard assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardPlan {
    shards: usize,
}

impl ShardPlan {
    /// A plan with `shards` shards; zero is clamped to one.
    pub(crate) fn new(shards: usize) -> Self {
        ShardPlan { shards: shards.max(1) }
    }

    /// The shard holding document `doc` (round-robin).
    pub(crate) fn shard_of(&self, doc: DocId) -> usize {
        doc.index() % self.shards
    }

    /// Partitions `0..doc_count` into per-shard document-index lists.
    ///
    /// Always returns exactly as many lists as the plan has shards (trailing ones may be
    /// empty when there are fewer documents than shards); within a shard,
    /// documents keep ascending order.
    pub(crate) fn partition(&self, doc_count: usize) -> Vec<Vec<usize>> {
        let mut shards = vec![Vec::with_capacity(doc_count.div_ceil(self.shards)); self.shards];
        for doc in 0..doc_count {
            shards[doc % self.shards].push(doc);
        }
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shards_clamp_to_one() {
        let plan = ShardPlan::new(0);
        assert_eq!(plan.partition(3), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn round_robin_balances_within_one() {
        for shards in 1..=9 {
            for docs in 0..=40 {
                let parts = ShardPlan::new(shards).partition(docs);
                assert_eq!(parts.len(), shards);
                let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "{shards} shards over {docs} docs: {sizes:?}");
                assert_eq!(sizes.iter().sum::<usize>(), docs);
            }
        }
    }

    #[test]
    fn partition_covers_every_doc_exactly_once_in_order() {
        let parts = ShardPlan::new(3).partition(8);
        assert_eq!(parts, vec![vec![0, 3, 6], vec![1, 4, 7], vec![2, 5]]);
        for part in &parts {
            assert!(part.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn shard_of_matches_partition() {
        let plan = ShardPlan::new(4);
        for (shard, docs) in plan.partition(11).iter().enumerate() {
            for &doc in docs {
                assert_eq!(plan.shard_of(DocId(doc as u32)), shard);
            }
        }
    }

    #[test]
    fn doc_id_displays_and_orders() {
        assert_eq!(DocId(7).to_string(), "doc7");
        assert!(DocId(1) < DocId(2));
        assert_eq!(DocId(3).index(), 3);
    }
}
