//! Content-addressed cache of whole compiled programs.
//!
//! One layer above the [`srdfg::TemplateCache`]: where the template cache
//! memoizes *fragments of lowering work* (scalar expansions), this cache
//! memoizes the *entire compile* — a repeat submission of a structurally
//! identical program against the same target map skips Algorithm 1 and
//! Algorithm 2 outright and reuses the finished [`CompiledProgram`].
//! `pmc serve` consults it on every request, which is what turns the
//! compile-once/serve-many shape into actual served throughput.
//!
//! ## Keying scheme
//!
//! A compiled program is addressed by [`ProgramKey`], the pair of
//!
//! * [`srdfg::graph_fingerprint`] of the **post-midend, pre-lowering**
//!   srDFG — content hashes only, never record addresses, so equal source text
//!   keys equally across processes;
//! * [`crate::TargetMap::fingerprint`] of the target map the compile ran
//!   against — the same graph lowered host-only vs. cross-domain yields
//!   different partitions, so the map must discriminate the key.
//!
//! The compile pipeline has no option that changes what is lowered from
//! a given post-midend graph, so nothing else belongs in the key.
//!
//! Unlike [`TemplateKey`](srdfg::TemplateKey) there is no stored full key
//! for a confirming `==` — an srDFG compare would cost a graph walk per
//! lookup. The 64-bit pair (128 bits total) makes an accidental collision
//! vanishingly unlikely for a cache of this size; the fingerprint is also
//! deliberately deep (it recurses into component subgraphs and hashes
//! every kernel, shape, and constant), so "equal key, different program"
//! requires an adversarial input, which a simulation service does not
//! face.
//!
//! ## Storage
//!
//! [`ProgramCache`] is a handle on the shared [`srdfg::ContentLru`] (the
//! same store the template cache uses — exact LRU capacity eviction, see
//! there). Entries are immutable ([`Arc<CompiledProgram>`]) and
//! self-contained; an entry is charged the heap bytes the program keeps
//! alive ([`CompiledProgram::heap_bytes`], measured once when it is
//! stored) against a byte budget ([`srdfg::DEFAULT_CAPACITY_BYTES`]
//! unless given one).

use crate::compile::CompiledProgram;
use srdfg::{CacheStats, ContentLru, DEFAULT_CAPACITY_BYTES};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Content-address of one compile: post-midend graph fingerprint plus
/// target-map fingerprint. See the module docs for the derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProgramKey {
    /// [`srdfg::graph_fingerprint`] of the post-midend srDFG.
    pub graph: u64,
    /// [`crate::TargetMap::fingerprint`] of the map compiled against.
    pub targets: u64,
}

impl ProgramKey {
    /// Builds the key from a post-midend graph and the target map the
    /// compile will run against.
    pub fn new(graph: &srdfg::SrDfg, targets: &crate::TargetMap) -> ProgramKey {
        ProgramKey { graph: srdfg::graph_fingerprint(graph), targets: targets.fingerprint() }
    }

    fn fingerprint(&self) -> u64 {
        let mut h = srdfg::FxHasher::default();
        self.hash(&mut h);
        h.finish()
    }
}

/// Counter snapshot of a [`ProgramCache`] (see [`ProgramCache::stats`]);
/// `bypassed` stays zero — every compile consults this cache.
pub type ProgramCacheStats = CacheStats;

/// What an entry keeps alive: the program and its `Arc` block.
fn entry_bytes(p: &CompiledProgram) -> usize {
    2 * std::mem::size_of::<usize>() + std::mem::size_of::<CompiledProgram>() + p.heap_bytes()
}

/// Shared, thread-safe handle to a compiled-program cache. `Clone` is
/// cheap and aliases the same store — the serve loop holds one instance
/// shared by every shard's compiler.
#[derive(Debug, Clone)]
pub struct ProgramCache {
    lru: ContentLru<ProgramKey, Arc<CompiledProgram>>,
}

impl Default for ProgramCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramCache {
    /// A cache of [`DEFAULT_CAPACITY_BYTES`].
    pub fn new() -> ProgramCache {
        ProgramCache::with_capacity(DEFAULT_CAPACITY_BYTES)
    }

    /// A cache bounded to `capacity_bytes` of resident programs.
    pub fn with_capacity(capacity_bytes: usize) -> ProgramCache {
        ProgramCache { lru: ContentLru::with_capacity(capacity_bytes) }
    }

    /// Looks up a compiled program, refreshing its LRU position on hit.
    pub fn lookup(&self, key: &ProgramKey) -> Option<Arc<CompiledProgram>> {
        self.lru.lookup(key.fingerprint(), key)
    }

    /// Stores a compiled program, charged the heap bytes it keeps alive.
    pub fn insert(&self, key: ProgramKey, program: Arc<CompiledProgram>) {
        self.lru.insert(key.fingerprint(), key, entry_bytes(&program), program);
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ProgramCacheStats {
        self.lru.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AcceleratorSpec, TargetMap};
    use pmlang::Domain;

    fn host_map() -> TargetMap {
        TargetMap::host_only(AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics))
    }

    fn compiled(src: &str) -> (ProgramKey, Arc<CompiledProgram>) {
        let (program, _) = pmlang::frontend(src).unwrap();
        let mut graph = srdfg::build(&program, &srdfg::Bindings::default()).unwrap();
        let targets = host_map();
        let key = ProgramKey::new(&graph, &targets);
        crate::lower(&mut graph, &targets).unwrap();
        (key, Arc::new(crate::compile_program(&graph, &targets).unwrap()))
    }

    const DOT4: &str = "main(input float x[4], output float y) {
         index i[0:3];
         y = sum[i](x[i]*x[i]);
     }";

    #[test]
    fn key_is_content_addressed() {
        let (program, _) = pmlang::frontend(DOT4).unwrap();
        let g1 = srdfg::build(&program, &srdfg::Bindings::default()).unwrap();
        let g2 = srdfg::build(&program, &srdfg::Bindings::default()).unwrap();
        let targets = host_map();
        assert_eq!(ProgramKey::new(&g1, &targets), ProgramKey::new(&g2, &targets));

        // A different target map must discriminate.
        let mut accel = host_map();
        accel.set(AcceleratorSpec::new("TABLA", Domain::DataAnalytics, ["add", "mul", "sum"]));
        assert_ne!(ProgramKey::new(&g1, &targets), ProgramKey::new(&g1, &accel));

        // Same-domain map built twice keys equally (HashMap order-free).
        let mut accel2 = host_map();
        accel2.set(AcceleratorSpec::new("TABLA", Domain::DataAnalytics, ["add", "mul", "sum"]));
        assert_eq!(ProgramKey::new(&g1, &accel), ProgramKey::new(&g1, &accel2));
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = ProgramCache::new();
        let (key, prog) = compiled(DOT4);
        assert!(cache.lookup(&key).is_none());
        cache.insert(key, Arc::clone(&prog));
        let hit = cache.lookup(&key).expect("warm lookup hits");
        assert!(Arc::ptr_eq(&hit, &prog), "hit returns the stored program, no clone");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        let later = cache.stats().since(&s);
        assert_eq!((later.hits, later.misses), (0, 0));
    }

    /// Two serve workers that miss on one program concurrently both insert it.
    #[test]
    fn reinserting_an_equal_key_is_not_an_eviction() {
        let cache = ProgramCache::new();
        let (key, prog) = compiled(DOT4);
        cache.insert(key, Arc::clone(&prog));
        cache.insert(key, prog);
        let s = cache.stats();
        assert_eq!((s.inserts, s.evictions, s.entries), (2, 0, 1));
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let (k1, p1) = compiled(DOT4);
        let (k2, p2) = compiled(
            "main(input float x[8], output float y) {
                 index i[0:7];
                 y = sum[i](x[i]*x[i]);
             }",
        );
        let (k3, p3) = compiled(
            "main(input float x[4], output float y) {
                 index i[0:3];
                 y = sum[i](x[i]+x[i]);
             }",
        );
        let size = entry_bytes(&p1).max(entry_bytes(&p2)).max(entry_bytes(&p3));
        let cache = ProgramCache::with_capacity(size * 2);
        cache.insert(k1, p1);
        cache.insert(k2, p2);
        assert!(cache.lookup(&k1).is_some(), "touch k1 so k2 is the LRU");
        cache.insert(k3, p3);
        assert!(cache.lookup(&k2).is_none(), "k2 was least recently used");
        assert!(cache.lookup(&k1).is_some());
        assert!(cache.lookup(&k3).is_some());
        let s = cache.stats();
        assert!(s.evictions >= 1);
        assert!(s.bytes <= s.capacity_bytes);
    }

    #[test]
    fn shared_handle_aliases_one_store() {
        let cache = ProgramCache::new();
        let alias = cache.clone();
        let (key, prog) = compiled(DOT4);
        cache.insert(key, prog);
        assert!(alias.lookup(&key).is_some());
        assert_eq!(alias.stats().inserts, 1);
    }
}
