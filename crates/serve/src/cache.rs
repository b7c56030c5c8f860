//! Content-hash-keyed LRU caching with telemetry.
//!
//! The serving layer caches one expensive artefact: the **built aligner
//! or fleet** of an encoded query. Back-translation, 6-bit encoding and
//! comparator-table construction are pure functions of the protein
//! text, and production query streams are heavy-tailed (popular proteins
//! recur), so a small LRU keyed by content hash removes the per-request
//! build cost entirely. The reference is never cached: every backend
//! reads the one resident copy.
//!
//! Keys are 64-bit FNV-1a content hashes ([`content_hash`]); values are
//! whatever the caller stores (typically `Arc<…>` so a cache hit is a
//! pointer bump). Every hit, miss and eviction is counted both locally
//! (for [`LruCache::stats`], which works with a disabled registry) and
//! through `fabp-telemetry` (`fabp_serve_cache_*_total{cache=…}`).

use fabp_telemetry::{Counter, Gauge, Registry};
use std::collections::{BTreeMap, HashMap};

/// 64-bit FNV-1a over a byte stream — the content hash used for cache
/// keys. Deterministic across runs and platforms (unlike
/// `std::hash::RandomState`).
pub fn content_hash(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Hit/miss/eviction totals observed by one cache since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build the value.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over total lookups, in `[0, 1]` (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A strict least-recently-used cache keyed by [`content_hash`] keys.
///
/// Recency is tracked with a monotonic tick per touch; eviction removes
/// the smallest tick (`O(log n)` via a `BTreeMap` index). A zero
/// capacity disables the cache (every lookup misses, nothing is
/// stored).
#[derive(Debug)]
pub struct LruCache<V> {
    capacity: usize,
    /// key → (value, last-touch tick).
    map: HashMap<u64, (V, u64)>,
    /// last-touch tick → key (unique: ticks never repeat).
    by_tick: BTreeMap<u64, u64>,
    tick: u64,
    stats: CacheStats,
    hits_ctr: Counter,
    misses_ctr: Counter,
    evictions_ctr: Counter,
    size_gauge: Gauge,
}

impl<V> LruCache<V> {
    /// Builds a cache holding at most `capacity` entries, publishing
    /// telemetry under the `cache=<name>` label.
    pub fn new(name: &str, capacity: usize, registry: &Registry) -> LruCache<V> {
        let labels = fabp_telemetry::labels(&[("cache", name)]);
        LruCache {
            capacity,
            map: HashMap::new(),
            by_tick: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
            hits_ctr: registry.counter_with(
                "fabp_serve_cache_hits_total",
                "Serve-layer cache lookups answered from the cache",
                labels.clone(),
            ),
            misses_ctr: registry.counter_with(
                "fabp_serve_cache_misses_total",
                "Serve-layer cache lookups that built the value",
                labels.clone(),
            ),
            evictions_ctr: registry.counter_with(
                "fabp_serve_cache_evictions_total",
                "Serve-layer cache entries displaced by capacity pressure",
                labels.clone(),
            ),
            size_gauge: registry.gauge_with(
                "fabp_serve_cache_entries",
                "Serve-layer cache resident entries",
                labels,
            ),
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether `key` is resident (does **not** touch recency or count
    /// as a lookup — a test/introspection helper).
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Resident keys from least- to most-recently used.
    pub fn keys_lru_first(&self) -> Vec<u64> {
        self.by_tick.values().copied().collect()
    }

    fn touch(&mut self, key: u64, old_tick: u64) -> u64 {
        self.by_tick.remove(&old_tick);
        self.tick += 1;
        self.by_tick.insert(self.tick, key);
        self.tick
    }

    fn evict_to_capacity(&mut self) {
        while self.map.len() > self.capacity {
            let Some((&oldest_tick, &oldest_key)) = self.by_tick.iter().next() else {
                break; // defensive: indexes out of sync
            };
            self.by_tick.remove(&oldest_tick);
            self.map.remove(&oldest_key);
            self.stats.evictions += 1;
            self.evictions_ctr.inc();
        }
        self.size_gauge.set(self.map.len() as i64);
    }
}

impl<V: Clone> LruCache<V> {
    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<V> {
        match self.map.get(&key).map(|(v, t)| (v.clone(), *t)) {
            Some((value, old_tick)) => {
                let new_tick = self.touch(key, old_tick);
                if let Some(entry) = self.map.get_mut(&key) {
                    entry.1 = new_tick;
                }
                self.stats.hits += 1;
                self.hits_ctr.inc();
                Some(value)
            }
            None => {
                self.stats.misses += 1;
                self.misses_ctr.inc();
                None
            }
        }
    }

    /// Returns the cached value for `key`, building and inserting it
    /// with `make` on a miss (counted; may evict the LRU entry).
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(key) {
            return v;
        }
        let value = make();
        self.insert(key, value.clone());
        value
    }

    /// Like [`LruCache::get_or_insert_with`] for fallible builders: a
    /// build error is returned and **not** cached.
    pub fn try_get_or_insert_with<E>(
        &mut self,
        key: u64,
        make: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(v) = self.get(key) {
            return Ok(v);
        }
        let value = make()?;
        self.insert(key, value.clone());
        Ok(value)
    }

    /// Inserts (or replaces) `key`, making it most-recently used.
    pub fn insert(&mut self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some((_, old_tick)) = self.map.insert(key, (value, tick)) {
            self.by_tick.remove(&old_tick);
        }
        self.by_tick.insert(tick, key);
        self.evict_to_capacity();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> LruCache<u32> {
        LruCache::new("test", capacity, &Registry::disabled())
    }

    #[test]
    fn content_hash_is_deterministic_and_spread() {
        assert_eq!(content_hash([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(*b"MFW"), content_hash(*b"MFW"));
        assert_ne!(content_hash(*b"MFW"), content_hash(*b"MWF"));
        assert_ne!(content_hash(*b"A"), content_hash(*b"AA"));
    }

    #[test]
    fn eviction_follows_lru_order() {
        let mut c = cache(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        assert_eq!(c.keys_lru_first(), vec![1, 2, 3]);
        // Touch 1 → 2 becomes the LRU entry.
        assert_eq!(c.get(1), Some(10));
        assert_eq!(c.keys_lru_first(), vec![2, 3, 1]);
        c.insert(4, 40);
        assert!(!c.contains(2), "2 was least-recently used");
        assert!(c.contains(1) && c.contains(3) && c.contains(4));
        assert_eq!(c.stats().evictions, 1);
        // Insert-order tiebreak continues: next eviction is 3.
        c.insert(5, 50);
        assert!(!c.contains(3));
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn hits_misses_and_rate_are_counted() {
        let mut c = cache(2);
        assert_eq!(c.get(7), None);
        let v = c.get_or_insert_with(7, || 70);
        assert_eq!(v, 70);
        assert_eq!(c.get(7), Some(70));
        // A get_or_insert_with on a resident key counts as a hit.
        assert_eq!(c.get_or_insert_with(7, || 0), 70);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let mut c = cache(2);
        let err: Result<u32, &str> = c.try_get_or_insert_with(9, || Err("boom"));
        assert_eq!(err, Err("boom"));
        assert!(!c.contains(9));
        let ok: Result<u32, &str> = c.try_get_or_insert_with(9, || Ok(90));
        assert_eq!(ok, Ok(90));
        assert!(c.contains(9));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c = cache(0);
        c.insert(1, 10);
        assert_eq!(c.get(1), None);
        assert_eq!(c.len(), 0);
        assert_eq!(c.get_or_insert_with(1, || 11), 11);
        assert!(c.is_empty());
    }

    #[test]
    fn replacing_a_key_updates_value_and_recency() {
        let mut c = cache(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // refresh: 2 is now LRU
        c.insert(3, 30);
        assert!(!c.contains(2));
        assert_eq!(c.get(1), Some(11));
    }

    #[test]
    fn telemetry_counters_are_exported() {
        let registry = Registry::new();
        let mut c: LruCache<u8> = LruCache::new("query", 1, &registry);
        c.insert(1, 1);
        c.insert(2, 2); // evicts 1
        let _ = c.get(2); // hit
        let _ = c.get(1); // miss
        let text = registry.snapshot().to_prometheus();
        assert!(
            text.contains("fabp_serve_cache_hits_total{cache=\"query\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("fabp_serve_cache_misses_total{cache=\"query\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("fabp_serve_cache_evictions_total{cache=\"query\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("fabp_serve_cache_entries{cache=\"query\"} 1"),
            "{text}"
        );
    }
}
