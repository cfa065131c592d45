//! The bounded result-page cache: LRU over rendered query answers.
//!
//! Serving workloads repeat themselves — the same canonical query at the
//! same top-k, over and over — and re-executing a deterministic search
//! against an immutable corpus buys nothing. This module provides the
//! engine-free half of the fix: a [`PageCache`] keyed on
//! `(canonical query, k)`, bounded by an entry count *and* an approximate
//! byte budget, with least-recently-used eviction. The facade stores its
//! `QueryAnswer`s in it, each with the wire reply the dispatcher rendered
//! at the miss, and checks it before a query ever reaches the submission
//! queue: a hit skips the queue **and** the shard pool, and returns the
//! bytes rendered at the miss without rendering again.
//!
//! A lookup is a linear scan over up to `max_entries` keys. At 256 keys
//! that is about 200 ns, roughly 1 % of a served hit, so it stays a scan.
//!
//! ## Caching never changes bytes
//!
//! The cache stores the *answer the executor produced* and returns it
//! verbatim; the serving invariant ("a cached answer is byte-identical to
//! a fresh one") holds because the corpus is immutable and the executor
//! is deterministic. The generation counter is the forward-compatibility
//! hook for the day that stops being true: [`PageCache::invalidate_all`]
//! bumps the generation and flash-clears the map, and an insert carrying
//! a stale generation — a lookup-miss that executed across an
//! invalidation — is **rejected**, never stored. The `cache_poison`
//! fault-injection site drives exactly that race in the chaos suite.
//!
//! ## What is never cached
//!
//! Only successful answers are inserted (the facade inserts on the Ok
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
pub enum Inserted {
    /// Stored; `evicted` entries were dropped to make room.
    Stored { evicted: u64 },
    /// Rejected: the insert's generation is not the cache's current one
    /// (an invalidation happened between lookup and insert). Nothing was
    /// stored — the anti-poison guard.
    StaleGeneration,
    /// Rejected: one entry alone exceeds the byte budget (caching it
    /// would immediately evict everything for a page unlikely to repay
    /// the space).
    TooLarge,
}

/// A bounded LRU result-page cache; see the module docs. Not internally
/// synchronised — the facade wraps it in a `Mutex` (a lookup or an insert
/// is one linear scan over the keys, short next to a search).
#[derive(Debug)]
pub struct PageCache<V> {
    entries: Vec<Entry<V>>,
    max_entries: usize,
    /// Approximate byte budget over the stored values; 0 = unbounded.
    max_bytes: usize,
    bytes: usize,
    tick: Tick,
    generation: u64,
}

impl<V: Clone> PageCache<V> {
    /// A cache holding at most `max_entries` pages and (approximately)
    /// `max_bytes` bytes; `max_bytes` 0 disables the byte bound.
    /// `max_entries` must be nonzero — a zero-entry cache is spelled
    /// "no cache" by the caller.
    pub fn new(max_entries: usize, max_bytes: usize) -> PageCache<V> {
        assert!(max_entries > 0, "a zero-entry cache is spelled None");
        PageCache { entries: Vec::new(), max_entries, max_bytes, bytes: 0, tick: 0, generation: 0 }
    }

    /// The current generation; captured at lookup time and passed back to
    /// [`insert`](Self::insert) so an answer computed across an
    /// invalidation is rejected.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Cached pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate bytes held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Looks up `(query, k)`, refreshing its recency on a hit.
    pub fn lookup(&mut self, query: &str, k: usize) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.iter_mut().find(|e| e.k == k && e.query == query)?;
        entry.touched = tick;
        Some(entry.value.clone())
    }

    /// Inserts `(query, k) → value` if `generation` is still current,
    /// evicting least-recently-used pages until both bounds hold. An
    /// existing entry under the same key is replaced (its recency
    /// refreshed) — the value cannot differ while the corpus is
    /// immutable, and replacing is the correct behaviour when it can.
    pub fn insert(
        &mut self,
        generation: u64,
        query: &str,
        k: usize,
        value: V,
        bytes: usize,
    ) -> Inserted {
        if generation != self.generation {
            return Inserted::StaleGeneration;
        }
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

    /// Flash-clears the cache and bumps the generation, so in-flight
    /// inserts that looked up before the clear are rejected. The hook the
    /// future mutable corpus calls on every write.
    pub fn invalidate_all(&mut self) {
        self.entries.clear();
        self.bytes = 0;
        self.generation += 1;
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
        let generation = cache.generation();
        assert_eq!(cache.lookup("drama family", 4), None);
        assert_eq!(
            cache.insert(generation, "drama family", 4, "page", 100),
            Inserted::Stored { evicted: 0 }
        );
        assert_eq!(cache.lookup("drama family", 4), Some("page"));
        assert_eq!(cache.lookup("drama family", 2), None, "k is part of the key");
        assert_eq!(cache.lookup("drama", 4), None);
        assert_eq!((cache.len(), cache.bytes()), (1, 100));
    }

    #[test]
    fn entry_bound_evicts_least_recently_used() {
        let mut cache: PageCache<u32> = PageCache::new(2, 0);
        let generation = cache.generation();
        cache.insert(generation, "a", 1, 10, 1);
        cache.insert(generation, "b", 1, 20, 1);
        // Touch "a" so "b" is the LRU when "c" arrives.
        assert_eq!(cache.lookup("a", 1), Some(10));
        assert_eq!(cache.insert(generation, "c", 1, 30, 1), Inserted::Stored { evicted: 1 });
        assert_eq!(cache.lookup("b", 1), None, "LRU entry evicted");
        assert_eq!(cache.lookup("a", 1), Some(10));
        assert_eq!(cache.lookup("c", 1), Some(30));
    }

    #[test]
    fn byte_bound_evicts_and_oversized_pages_are_rejected() {
        let mut cache: PageCache<u32> = PageCache::new(100, 1000);
        let generation = cache.generation();
        cache.insert(generation, "a", 1, 1, 600);
        cache.insert(generation, "b", 1, 2, 300);
        assert_eq!(cache.insert(generation, "c", 1, 3, 500), Inserted::Stored { evicted: 1 });
        assert!(cache.bytes() <= 1000, "{}", cache.bytes());
        assert_eq!(cache.lookup("a", 1), None, "oldest entry paid for the bytes");
        assert_eq!(cache.insert(generation, "huge", 1, 4, 2000), Inserted::TooLarge);
        assert_eq!(cache.lookup("huge", 1), None);
    }

    #[test]
    fn stale_generation_inserts_are_rejected() {
        let mut cache: PageCache<u32> = PageCache::new(4, 0);
        let before = cache.generation();
        cache.insert(before, "a", 1, 10, 1);
        cache.invalidate_all();
        assert_eq!(cache.lookup("a", 1), None, "invalidation flash-clears");
        assert_eq!(
            cache.insert(before, "a", 1, 10, 1),
            Inserted::StaleGeneration,
            "an insert from before the invalidation must never land"
        );
        assert!(cache.is_empty());
        let current = cache.generation();
        assert_eq!(current, before + 1);
        assert_eq!(cache.insert(current, "a", 1, 11, 1), Inserted::Stored { evicted: 0 });
        assert_eq!(cache.lookup("a", 1), Some(11));
    }

    #[test]
    fn reinsert_replaces_and_reaccounts_bytes() {
        let mut cache: PageCache<u32> = PageCache::new(4, 0);
        let generation = cache.generation();
        cache.insert(generation, "a", 1, 10, 100);
        cache.insert(generation, "a", 1, 10, 40);
        assert_eq!((cache.len(), cache.bytes()), (1, 40));
    }
}
