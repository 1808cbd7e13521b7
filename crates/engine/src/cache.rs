//! Bounded content-addressed result cache.
//!
//! [`ResultCache`] maps 64-bit content keys — in this workspace always a
//! [`hrms_ddg::cache_key`] over `(loop, machine, scheduler)` fingerprints —
//! to rendered results. The scheduling service keeps one per process so a
//! traffic mix full of duplicate hot loops pays for each distinct loop
//! once; everything after the first request for a key is a cache hit.
//!
//! The cache is strictly bounded: when an insert would exceed the
//! configured capacity, the least-recently-used entry is evicted first.
//! Hits, misses and evictions are counted ([`CacheStats`]) so a service
//! can surface cache effectiveness without any extra bookkeeping, and the
//! counters are part of the service protocol contract (`docs/SERVICE.md`).
//!
//! The cache itself is single-threaded (`&mut self`); callers that share
//! it across threads wrap it in a lock. The batch service does not need
//! to: its parallelism lives inside [`crate::BatchEngine`], and the cache
//! is consulted on the request thread before and after each batch.

use std::collections::{BTreeMap, HashMap};

/// Counters describing the lifetime behaviour of a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (including batch-local reuse
    /// recorded via [`ResultCache::count_reuse_hit`]).
    pub hits: u64,
    /// Lookups that found nothing and forced a computation.
    pub misses: u64,
    /// Entries evicted to keep the cache within its capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum number of resident entries.
    pub capacity: usize,
}

/// A bounded LRU cache from 64-bit content keys to values.
///
/// See the module docs for the intended use; `V` is typically a rendered
/// JSON-lines result record, so replaying a hit is a string copy.
#[derive(Debug, Clone)]
pub struct ResultCache<V> {
    capacity: usize,
    /// key → (value, last-use tick).
    map: HashMap<u64, (V, u64)>,
    /// last-use tick → key; the smallest tick is the LRU entry.
    order: BTreeMap<u64, u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V> ResultCache<V> {
    /// A cache holding at most `capacity` entries (0 is clamped to 1 —
    /// use a request-level bypass, not a zero-sized cache, to disable
    /// caching).
    pub fn with_capacity(capacity: usize) -> Self {
        ResultCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The maximum number of resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, counting a hit or a miss and refreshing the entry's
    /// recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&key) {
            Some((value, last_use)) => {
                self.order.remove(last_use);
                self.order.insert(tick, key);
                *last_use = tick;
                self.hits += 1;
                Some(value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Reads `key` without counting a lookup or refreshing its recency.
    pub fn peek(&self, key: u64) -> Option<&V> {
        self.map.get(&key).map(|(value, _)| value)
    }

    /// Records a hit that was served outside the map — a batch-local
    /// duplicate of a key whose result was computed earlier in the same
    /// request and has not been inserted yet. Keeps `hits + misses` equal
    /// to the number of cells a caching service answered.
    pub fn count_reuse_hit(&mut self) {
        self.hits += 1;
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used entry
    /// first when the cache is full. Returns the value that left the
    /// cache: the one `key` held before, or the evicted one.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let evicted = match self.map.get(&key) {
            Some((_, last_use)) => {
                self.order.remove(last_use);
                None
            }
            None if self.map.len() >= self.capacity => self.pop_lru(),
            None => None,
        };
        self.order.insert(tick, key);
        self.map
            .insert(key, (value, tick))
            .map(|(old, _)| old)
            .or(evicted)
    }

    /// Evicts the least-recently-used entry, counting an eviction, and
    /// returns its value (`None` when the cache is empty).
    pub fn pop_lru(&mut self) -> Option<V> {
        let (_, oldest_key) = self.order.pop_first()?;
        self.evictions += 1;
        self.map.remove(&oldest_key).map(|(value, _)| value)
    }

    /// The lifetime counters and current occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses_are_counted() {
        let mut cache: ResultCache<&str> = ResultCache::with_capacity(4);
        assert_eq!(cache.get(1), None);
        cache.insert(1, "one");
        assert_eq!(cache.get(1), Some(&"one"));
        assert_eq!(cache.get(2), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 2, 0));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.capacity, 4);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut cache: ResultCache<u32> = ResultCache::with_capacity(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(cache.get(1), Some(&10));
        cache.insert(3, 30);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get(2), None, "2 was evicted");
        assert_eq!(cache.get(1), Some(&10));
        assert_eq!(cache.get(3), Some(&30));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn replacing_a_key_does_not_evict() {
        let mut cache: ResultCache<u32> = ResultCache::with_capacity(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(1, 11);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get(1), Some(&11));
        assert_eq!(cache.get(2), Some(&20));
    }

    #[test]
    fn insert_returns_the_value_that_left_and_pop_lru_evicts_the_oldest() {
        let mut cache: ResultCache<u32> = ResultCache::with_capacity(2);
        assert_eq!(cache.insert(1, 10), None);
        assert_eq!(cache.insert(2, 20), None);
        assert_eq!(cache.insert(1, 11), Some(10), "replaced");
        assert_eq!(cache.insert(3, 30), Some(20), "2 was the LRU entry");
        assert_eq!(cache.pop_lru(), Some(11));
        assert_eq!(cache.pop_lru(), Some(30));
        assert_eq!(cache.pop_lru(), None);
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.entries), (3, 0));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut cache: ResultCache<u32> = ResultCache::with_capacity(0);
        assert_eq!(cache.capacity(), 1);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reuse_hits_only_bump_the_hit_counter() {
        let mut cache: ResultCache<u32> = ResultCache::with_capacity(2);
        cache.count_reuse_hit();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 0, 0));
    }
}
