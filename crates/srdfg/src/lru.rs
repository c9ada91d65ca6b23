//! The one content-addressed LRU behind [`crate::TemplateCache`],
//! `pm_lower::ProgramCache` and the SoC's price memo.
//!
//! An entry is addressed by a 64-bit **fingerprint** of its key and holds
//! the full **key**, its **size in bytes** and the **value**. A lookup
//! hits only when the stored key compares equal to the probe — a
//! fingerprint collision between unequal keys is a miss, and inserting the
//! newer key replaces the older entry (counted as an eviction), which
//! keeps the table deterministic. Re-inserting an *equal* key (two workers
//! that missed on the same content concurrently) refreshes the entry and
//! is not an eviction.
//!
//! The caller measures an entry once, when it inserts it: the two graph
//! caches charge what the value keeps alive on the heap
//! ([`crate::SrDfg::heap_bytes`], `CompiledProgram::heap_bytes`), the price
//! memo the fixed size of its key and estimate. A lookup never measures.
//!
//! Entries are immutable and self-contained, so only **capacity**
//! eviction exists: past `capacity_bytes` the least-recently-touched
//! entries are dropped, oldest first. Recency is exact — every lookup hit
//! and every insert stamps the entry with a fresh tick, and an ordered
//! tick index yields the oldest entry without scanning the table. An
//! entry larger than the whole capacity is still admitted, alone:
//! refusing it would make hit behaviour depend on arrival order.

use crate::hash::FxBuildHasher;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

/// The byte budget of each template or program cache built without one
/// (`TemplateCache::new`, `ProgramCache::new`): 64 MiB. DESIGN.md §12
/// gives the working sets it was chosen to hold.
pub const DEFAULT_CAPACITY_BYTES: usize = 64 << 20;

/// Counter snapshot of a cache (see [`ContentLru::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a value.
    pub hits: u64,
    /// Lookups that found nothing (or collided with an unequal key).
    pub misses: u64,
    /// Values stored.
    pub inserts: u64,
    /// Entries dropped for capacity (or replaced on collision with an
    /// unequal key).
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Resident bytes, as the entries were charged when stored.
    pub bytes: usize,
    /// Configured capacity in bytes.
    pub capacity_bytes: usize,
    /// Requests the caller chose not to consult the cache for (see
    /// [`ContentLru::record_bypass`]). Algorithm 1 counts nodes
    /// that are not scalar-expansion eligible here — e.g. the MPC
    /// benchmark's component-flattening refinements, which splice a whole
    /// sub-graph rather than instantiate a template. A warm run showing
    /// `0 hits / 0 misses` with a non-zero `bypassed` count is healthy:
    /// nothing was cacheable, so nothing was looked up.
    pub bypassed: u64,
}

impl CacheStats {
    /// Hit rate over the lookups these counters cover (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas since an `earlier` snapshot of the same cache
    /// (resident-size fields keep their current values).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            inserts: self.inserts - earlier.inserts,
            evictions: self.evictions - earlier.evictions,
            bypassed: self.bypassed - earlier.bypassed,
            ..*self
        }
    }
}

#[derive(Debug)]
struct Entry<K, V> {
    key: K,
    value: V,
    bytes: usize,
    last_used: u64,
}

#[derive(Debug)]
struct Inner<K, V> {
    map: HashMap<u64, Entry<K, V>, FxBuildHasher>,
    /// `last_used` tick → fingerprint of the entry stamped with it; the
    /// first key is always the least recently touched entry.
    order: BTreeMap<u64, u64>,
    tick: u64,
    /// `entries` is filled in at snapshot time; everything else is live.
    stats: CacheStats,
}

/// Shared, thread-safe handle to a content-addressed LRU. `Clone` is
/// cheap and aliases the same store.
#[derive(Debug)]
pub struct ContentLru<K, V> {
    inner: Arc<Mutex<Inner<K, V>>>,
}

impl<K, V> Clone for ContentLru<K, V> {
    fn clone(&self) -> Self {
        ContentLru { inner: Arc::clone(&self.inner) }
    }
}

impl<K: PartialEq, V: Clone> ContentLru<K, V> {
    /// A cache bounded to `capacity_bytes` of resident entries.
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        let stats = CacheStats { capacity_bytes, ..CacheStats::default() };
        let inner = Inner { map: HashMap::default(), order: BTreeMap::new(), tick: 0, stats };
        ContentLru { inner: Arc::new(Mutex::new(inner)) }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().expect("a thread panicked while holding the cache lock")
    }

    /// Looks up the value stored under `key`, refreshing its LRU position
    /// on a hit.
    pub fn lookup(&self, fingerprint: u64, key: &K) -> Option<V> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        match inner.map.get_mut(&fingerprint) {
            Some(entry) if entry.key == *key => {
                inner.tick += 1;
                inner.order.remove(&entry.last_used);
                inner.order.insert(inner.tick, fingerprint);
                entry.last_used = inner.tick;
                inner.stats.hits += 1;
                Some(entry.value.clone())
            }
            _ => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Stores `value` (charged `bytes`) under `key`, then evicts
    /// least-recently-used entries while over capacity — never the entry
    /// just stored, so an oversized one survives alone. The entries that
    /// leave are dropped after the lock is released: freeing a value (a
    /// whole compiled program, for the program cache) must not hold up the
    /// other workers' lookups, and a value's `Drop` may use this cache.
    pub fn insert(&self, fingerprint: u64, key: K, bytes: usize, value: V) {
        // Declared before the guard, so dropped after it.
        let mut victims = Vec::new();
        let mut guard = self.lock();
        let inner = &mut *guard;
        if let Some(old) = inner.map.remove(&fingerprint) {
            inner.order.remove(&old.last_used);
            inner.stats.bytes -= old.bytes;
            inner.stats.evictions += u64::from(old.key != key);
            victims.push(old);
        }
        inner.tick += 1;
        inner.order.insert(inner.tick, fingerprint);
        inner.map.insert(fingerprint, Entry { key, value, bytes, last_used: inner.tick });
        inner.stats.bytes += bytes;
        inner.stats.inserts += 1;
        while inner.stats.bytes > inner.stats.capacity_bytes && inner.map.len() > 1 {
            let (_, oldest) = inner.order.pop_first().expect("one tick per resident entry");
            let dropped = inner.map.remove(&oldest).expect("the tick index names residents");
            inner.stats.bytes -= dropped.bytes;
            inner.stats.evictions += 1;
            victims.push(dropped);
        }
    }

    /// Counts one request the caller did not consult the cache for.
    pub fn record_bypass(&self) {
        self.lock().stats.bypassed += 1;
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats { entries: inner.map.len(), ..inner.stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Lru = ContentLru<&'static str, u32>;

    /// Fingerprints are supplied by the caller, so tests pick them: the
    /// first byte, which lets two keys collide on purpose.
    fn fp(key: &str) -> u64 {
        u64::from(key.as_bytes()[0])
    }

    fn put(c: &Lru, key: &'static str, bytes: usize, value: u32) {
        c.insert(fp(key), key, bytes, value);
    }

    fn get(c: &Lru, key: &'static str) -> Option<u32> {
        c.lookup(fp(key), &key)
    }

    #[test]
    fn hit_and_miss_counting() {
        let c = Lru::with_capacity(100);
        assert_eq!(get(&c, "a"), None);
        put(&c, "a", 10, 1);
        assert_eq!(get(&c, "a"), Some(1));
        assert_eq!(get(&c, "b"), None);
        c.record_bypass();
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.evictions, s.bypassed), (1, 2, 1, 0, 1));
        assert_eq!((s.entries, s.bytes, s.capacity_bytes), (1, 10, 100));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        let later = c.stats().since(&s);
        assert_eq!((later.hits, later.misses, later.inserts, later.bypassed), (0, 0, 0, 0));
        assert_eq!((later.entries, later.bytes), (1, 10), "residency is current, not a delta");
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn eviction_follows_exact_last_touch_order() {
        let c = Lru::with_capacity(30);
        put(&c, "a", 10, 1);
        put(&c, "b", 10, 2);
        put(&c, "c", 10, 3);
        // Touch order is now b (oldest), a, c.
        assert_eq!(get(&c, "a"), Some(1));
        assert_eq!(get(&c, "c"), Some(3));
        put(&c, "d", 10, 4);
        assert_eq!(get(&c, "b"), None, "b was least recently touched");
        // A 20-byte entry displaces the two oldest survivors: a, then c.
        put(&c, "e", 20, 5);
        assert_eq!(get(&c, "a"), None);
        assert_eq!(get(&c, "c"), None);
        assert_eq!(get(&c, "d"), Some(4));
        assert_eq!(get(&c, "e"), Some(5));
        let s = c.stats();
        assert_eq!((s.evictions, s.entries, s.bytes), (3, 2, 30));
    }

    #[test]
    fn unequal_key_on_one_fingerprint_misses_then_replaces() {
        let c = Lru::with_capacity(100);
        put(&c, "apple", 10, 1);
        assert_eq!(fp("apple"), fp("avocado"));
        assert_eq!(get(&c, "avocado"), None, "full-key compare turns the collision into a miss");
        put(&c, "avocado", 15, 2);
        assert_eq!(get(&c, "apple"), None, "the newer key replaced the older");
        assert_eq!(get(&c, "avocado"), Some(2));
        let s = c.stats();
        assert_eq!((s.inserts, s.evictions, s.entries, s.bytes), (2, 1, 1, 15));
    }

    #[test]
    fn equal_key_reinsert_is_a_refresh_not_an_eviction() {
        let c = Lru::with_capacity(30);
        put(&c, "a", 10, 1);
        put(&c, "b", 10, 2);
        // Two workers that both missed on `a` both insert it.
        put(&c, "a", 12, 3);
        let s = c.stats();
        assert_eq!((s.inserts, s.evictions, s.entries, s.bytes), (3, 0, 2, 22));
        assert_eq!(get(&c, "a"), Some(3), "the later value wins");
        // The refresh also moved `a` to the fresh end: `b` goes first.
        put(&c, "c", 10, 4);
        assert_eq!(get(&c, "b"), None);
        assert_eq!(get(&c, "a"), Some(3));
    }

    /// A value that reads its own cache's counters as it dies.
    #[derive(Clone)]
    struct Probe {
        cache: ContentLru<&'static str, Probe>,
        seen: Arc<Mutex<Vec<(u64, usize)>>>,
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            let s = self.cache.stats();
            self.seen.lock().unwrap().push((s.evictions, s.entries));
        }
    }

    #[test]
    fn departing_values_are_dropped_outside_the_lock() {
        let c = ContentLru::<&'static str, Probe>::with_capacity(20);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let probe = || Probe { cache: c.clone(), seen: Arc::clone(&seen) };
        c.insert(fp("apple"), "apple", 10, probe());
        c.insert(fp("b"), "b", 10, probe());
        // One replaced on a collision, one evicted for capacity: each `drop`
        // takes the lock `insert` held, and finds the table as `insert` left it.
        c.insert(fp("avocado"), "avocado", 10, probe());
        c.insert(fp("c"), "c", 10, probe());
        assert_eq!(*seen.lock().unwrap(), [(1, 2), (2, 2)]);
    }

    #[test]
    fn oversized_entry_is_admitted_alone() {
        let c = Lru::with_capacity(1);
        put(&c, "a", 10, 1);
        put(&c, "b", 10, 2);
        assert_eq!(get(&c, "a"), None, "displaced by b");
        assert_eq!(get(&c, "b"), Some(2), "the newest entry is kept");
        let s = c.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (1, 10, 1));
    }
}
