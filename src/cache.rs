//! The bounded result-page cache: LRU over rendered query answers.
//!
//! Serving workloads repeat themselves — the same canonical query at the
//! same top-k, over and over — and re-executing a deterministic search
//! against an immutable corpus buys nothing. This module holds a
//! [`PageCache`] keyed on `(canonical query, k)`, bounded by an entry
//! count *and* an approximate byte budget, with least-recently-used
//! eviction. The server stores its `QueryAnswer`s in it, each with the
//! wire reply its session rendered at the miss, and checks it before a
//! query ever reaches admission: a hit skips admission **and** the shard
//! pool, and returns the bytes rendered at the miss without rendering
//! again.
//!
//! A lookup is a linear scan over up to `max_entries` keys. At 256 keys
//! that is about 200 ns, roughly 1 % of a served hit, so it stays a scan.
//!
//! ## Caching never changes bytes
//!
//! The cache stores the *answer the executor produced* and returns it
//! verbatim; the serving invariant ("a cached answer is byte-identical to
//! a fresh one") holds because the corpus is immutable and the executor
//! is deterministic, so nothing ever has to be invalidated.
//!
//! ## What is never cached
//!
//! Only successful answers are inserted (the server inserts on the Ok
//! path after the shard merge), so a `ShardFailed`, a deadline rejection,
//! or any other error can never be replayed from the cache.

/// Internal LRU stamp: a monotonically increasing tick per touch.
type Tick = u64;

/// One cached page.
#[derive(Debug)]
struct Entry<V> {
    query: String,
    k: usize,
    value: V,
    bytes: usize,
    touched: Tick,
}

/// Outcome of [`PageCache::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Inserted {
    /// Stored; `evicted` entries were dropped to make room.
    Stored { evicted: u64 },
    /// Rejected: one entry alone exceeds the byte budget (caching it
    /// would immediately evict everything for a page unlikely to repay
    /// the space).
    TooLarge,
}

/// A bounded LRU result-page cache; see the module docs. Not internally
/// synchronised — the server wraps it in a `Mutex` (a lookup or an insert
/// is one linear scan over the keys, short next to a search).
#[derive(Debug)]
pub(crate) struct PageCache<V> {
    entries: Vec<Entry<V>>,
    max_entries: usize,
    /// Approximate byte budget over the stored values; 0 = unbounded.
    max_bytes: usize,
    bytes: usize,
    tick: Tick,
}

impl<V: Clone> PageCache<V> {
    /// A cache holding at most `max_entries` pages and (approximately)
    /// `max_bytes` bytes; `max_bytes` 0 disables the byte bound.
    /// `max_entries` must be nonzero — a zero-entry cache is spelled
    /// "no cache" by the caller.
    pub(crate) fn new(max_entries: usize, max_bytes: usize) -> PageCache<V> {
        assert!(max_entries > 0, "a zero-entry cache is spelled None");
        PageCache { entries: Vec::new(), max_entries, max_bytes, bytes: 0, tick: 0 }
    }

    /// Looks up `(query, k)`, refreshing its recency on a hit.
    pub(crate) fn lookup(&mut self, query: &str, k: usize) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.iter_mut().find(|e| e.k == k && e.query == query)?;
        entry.touched = tick;
        Some(entry.value.clone())
    }

    /// Inserts `(query, k) → value`, evicting least-recently-used pages
    /// until both bounds hold. An existing entry under the same key is
    /// replaced (its recency refreshed); the value cannot differ, since
    /// the corpus is immutable.
    pub(crate) fn insert(&mut self, query: &str, k: usize, value: V, bytes: usize) -> Inserted {
        if self.max_bytes > 0 && bytes > self.max_bytes {
            return Inserted::TooLarge;
        }
        self.tick += 1;
        if let Some(pos) = self.entries.iter().position(|e| e.k == k && e.query == query) {
            self.bytes = self.bytes - self.entries[pos].bytes + bytes;
            let entry = &mut self.entries[pos];
            entry.value = value;
            entry.bytes = bytes;
            entry.touched = self.tick;
            return Inserted::Stored { evicted: self.evict_to_bounds() };
        }
        self.entries.push(Entry { query: query.to_owned(), k, value, bytes, touched: self.tick });
        self.bytes += bytes;
        Inserted::Stored { evicted: self.evict_to_bounds() }
    }

    /// Evicts least-recently-used entries until both bounds hold;
    /// returns how many were dropped. The newest entry always survives
    /// (inserts over the byte budget are rejected up front).
    fn evict_to_bounds(&mut self) -> u64 {
        let mut evicted = 0;
        while self.entries.len() > self.max_entries
            || (self.max_bytes > 0 && self.bytes > self.max_bytes && self.entries.len() > 1)
        {
            let (pos, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.touched)
                .expect("loop guard guarantees entries");
            self.bytes -= self.entries[pos].bytes;
            self.entries.swap_remove(pos);
            evicted += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_hits_what_insert_stored() {
        let mut cache: PageCache<&'static str> = PageCache::new(4, 0);
        assert_eq!(cache.lookup("drama family", 4), None);
        assert_eq!(cache.insert("drama family", 4, "page", 100), Inserted::Stored { evicted: 0 });
        assert_eq!(cache.lookup("drama family", 4), Some("page"));
        assert_eq!(cache.lookup("drama family", 2), None, "k is part of the key");
        assert_eq!(cache.lookup("drama", 4), None);
        assert_eq!((cache.entries.len(), cache.bytes), (1, 100));
    }

    #[test]
    fn entry_bound_evicts_least_recently_used() {
        let mut cache: PageCache<u32> = PageCache::new(2, 0);
        cache.insert("a", 1, 10, 1);
        cache.insert("b", 1, 20, 1);
        // Touch "a" so "b" is the LRU when "c" arrives.
        assert_eq!(cache.lookup("a", 1), Some(10));
        assert_eq!(cache.insert("c", 1, 30, 1), Inserted::Stored { evicted: 1 });
        assert_eq!(cache.lookup("b", 1), None, "LRU entry evicted");
        assert_eq!(cache.lookup("a", 1), Some(10));
        assert_eq!(cache.lookup("c", 1), Some(30));
    }

    #[test]
    fn byte_bound_evicts_and_oversized_pages_are_rejected() {
        let mut cache: PageCache<u32> = PageCache::new(100, 1000);
        cache.insert("a", 1, 1, 600);
        cache.insert("b", 1, 2, 300);
        assert_eq!(cache.insert("c", 1, 3, 500), Inserted::Stored { evicted: 1 });
        assert!(cache.bytes <= 1000, "{}", cache.bytes);
        assert_eq!(cache.lookup("a", 1), None, "oldest entry paid for the bytes");
        assert_eq!(cache.insert("huge", 1, 4, 2000), Inserted::TooLarge);
        assert_eq!(cache.lookup("huge", 1), None);
    }

    #[test]
    fn reinsert_replaces_and_reaccounts_bytes() {
        let mut cache: PageCache<u32> = PageCache::new(4, 0);
        cache.insert("a", 1, 10, 100);
        cache.insert("a", 1, 10, 40);
        assert_eq!((cache.entries.len(), cache.bytes), (1, 40));
    }
}
