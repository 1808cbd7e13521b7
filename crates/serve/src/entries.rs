//! What the service remembers of the loop entries it has parsed.
//!
//! A warm client sends the same `loops` entries again and again, and a
//! cache hit needs only the entries' loop fingerprints to build its cache
//! keys. [`EntryMap`] maps each entry text a caching request parsed to the
//! fingerprints of the loops it holds, in order, so the service parses a
//! remembered entry only when one of its cells misses the result cache.
//!
//! The map is an LRU ([`ResultCache`]) bounded in two ways: in entries, and
//! in the bytes of the texts it keeps. It is keyed by a hash of the text,
//! but it answers only for the exact text it stored: a hash collision is a
//! miss, never another entry's fingerprints.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use hrms_engine::ResultCache;

/// One remembered entry: its text and its loops' fingerprints, in order.
#[derive(Debug)]
struct Remembered {
    text: Box<str>,
    fingerprints: Box<[u64]>,
}

/// A bounded map from loop-entry texts to their loops' fingerprints.
#[derive(Debug)]
pub(crate) struct EntryMap {
    entries: ResultCache<Remembered>,
    hasher: RandomState,
    /// The bytes of the remembered texts.
    bytes: usize,
    max_bytes: usize,
}

impl EntryMap {
    /// A map of at most `capacity` entries (at least one) whose texts hold
    /// at most `max_bytes` bytes together.
    pub(crate) fn new(capacity: usize, max_bytes: usize) -> Self {
        EntryMap {
            entries: ResultCache::with_capacity(capacity),
            hasher: RandomState::new(),
            bytes: 0,
            max_bytes,
        }
    }

    /// The key of `text` in this map.
    pub(crate) fn key(&self, text: &str) -> u64 {
        self.hasher.hash_one(text)
    }

    /// The fingerprints of the loops of the entry `text`, whose key is
    /// `key`, if the map remembers it. Leaves the entry's recency alone.
    pub(crate) fn get(&self, key: u64, text: &str) -> Option<&[u64]> {
        self.entries
            .peek(key)
            .filter(|entry| *entry.text == *text)
            .map(|entry| &*entry.fingerprints)
    }

    /// Makes the entry `text` (key `key`, loops `fingerprints`) the most
    /// recently used one, copying it in when the map does not hold it, and
    /// then evicts the least recently used entries past either bound. A
    /// text longer than the byte bound is not remembered.
    pub(crate) fn remember(&mut self, key: u64, text: &str, fingerprints: &[u64]) {
        if let Some(entry) = self.entries.get(key) {
            if *entry.text == *text {
                debug_assert_eq!(*entry.fingerprints, *fingerprints);
                return;
            }
        }
        if text.len() > self.max_bytes {
            return;
        }
        self.bytes += text.len();
        let entry = Remembered {
            text: text.into(),
            fingerprints: fingerprints.into(),
        };
        if let Some(old) = self.entries.insert(key, entry) {
            self.bytes -= old.text.len();
        }
        while self.bytes > self.max_bytes {
            let old = self
                .entries
                .pop_lru()
                .expect("remembered bytes lie in entries");
            self.bytes -= old.text.len();
        }
    }

    /// The number of remembered entries and the bytes of their texts.
    #[cfg(test)]
    pub(crate) fn size(&self) -> (usize, usize) {
        (self.entries.len(), self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_entry_is_found_by_its_exact_text_only() {
        let mut map = EntryMap::new(4, 100);
        let key = map.key("loop a");
        assert_eq!(map.get(key, "loop a"), None);
        map.remember(key, "loop a", &[1, 2]);
        assert_eq!(map.get(key, "loop a"), Some(&[1, 2][..]));
        // Another text under the same key, as after a hash collision.
        assert_eq!(map.get(key, "loop b"), None);
        map.remember(key, "loop b", &[3]);
        assert_eq!(map.get(key, "loop a"), None);
        assert_eq!(map.get(key, "loop b"), Some(&[3][..]));
        assert_eq!(map.size(), (1, 6));
    }

    #[test]
    fn the_map_stays_within_its_entry_and_byte_bounds() {
        let mut map = EntryMap::new(3, 20);
        let remember = |map: &mut EntryMap, text: &str| {
            map.remember(map.key(text), text, &[text.len() as u64]);
            let (entries, bytes) = map.size();
            assert!(
                entries <= 3 && bytes <= 20,
                "{entries} entries, {bytes} bytes"
            );
        };
        let kept = |map: &EntryMap, text: &str| map.get(map.key(text), text).is_some();
        // Two-byte texts: the entry bound binds.
        for i in 0..10 {
            remember(&mut map, &format!("e{i}"));
        }
        assert_eq!(map.size(), (3, 6));
        assert!(!kept(&map, "e6") && kept(&map, "e7"));
        // Eight-byte texts: the third one passes the byte bound.
        for i in 0..3 {
            remember(&mut map, &format!("text {i:03}"));
        }
        assert_eq!(map.size(), (2, 16));
        assert!(!kept(&map, "text 000") && kept(&map, "text 001"));
        // Remembering an entry again refreshes it: `text 001` outlives
        // `text 002`.
        remember(&mut map, "text 001");
        remember(&mut map, "e0");
        remember(&mut map, "e1");
        assert!(kept(&map, "text 001") && !kept(&map, "text 002"));
        // A text over the byte bound is not remembered and evicts nothing.
        remember(&mut map, &"x".repeat(21));
        assert_eq!(map.size(), (3, 12));
    }
}
