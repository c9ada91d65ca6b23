//! Content-addressed cache of scalar-expansion templates, and the one
//! place Algorithm 1 decides how a node is refined ([`Refinement`]).
//!
//! Scalar expansion (the expensive leg of Algorithm 1) re-derives an
//! identical sub-srDFG for every structurally equal `(op, shape)` subtree
//! — an FFT stage expands the same butterfly fabric once per stage, and a
//! re-compile of the same program repeats all of it. This module keys
//! each expansion by its *content* so the expanded graph is built once,
//! stored as an immutable template behind an [`Arc`], and every further
//! instantiation is id-remapping via [`SrDfg::instantiate`] instead of
//! re-recursion.
//!
//! ## The seam
//!
//! [`Refinement::of`] is `Lower(n, Om)` for one node and
//! [`SrDfg::instantiate`] is `srdfg[n ↦ subDfg]`; nothing outside this
//! crate knows which refinements are shareable templates.
//!
//! ## Keying scheme
//!
//! A template is addressed by [`TemplateKey`]:
//!
//! * the node **kind** (the full `MapSpec`/`ReduceSpec` content — kernel,
//!   index spaces, write placement — digested by the same structural
//!   hash CSE value-numbers with, see [`crate::hash`]),
//! * the `(dtype, modifier, shape)` triple of every operand and result
//!   edge (shapes decide how many scalar nodes exist and how operand
//!   reads flatten; dtype decides element edges; the modifier is
//!   included defensively).
//!
//! Deliberately **not** part of the key: edge/node *names* and source
//! *spans* (templates are built in canonical form — unnamed interior
//! edges, synthetic spans — and splicing stamps instance provenance back
//! on), the *domain*, and the *target name* (expansion does not depend on
//! the target, so one template serves every fabric). The expansion budget
//! is a constant (`expand::MAX_EXPANSION_NODES`), so it is not a key
//! component either.
//!
//! ## Storage
//!
//! [`TemplateCache`] is a handle on the shared [`crate::lru::ContentLru`]
//! (full-key compare on hit, exact LRU capacity eviction — see there).
//! Templates are immutable and self-contained (they reference nothing
//! outside themselves), so there is no dependency-driven invalidation;
//! an entry is charged the heap bytes its template and key keep alive,
//! measured once when it is stored, against a byte budget
//! ([`crate::lru::DEFAULT_CAPACITY_BYTES`] unless given one). The handle
//! is cheaply cloneable and thread-safe: `pmc serve`'s workers share one
//! instance.

use crate::expand::{
    boundary_metas, refine_node, refine_node_canonical, scalar_expansion_eligible, RefineError,
};
use crate::graph::{EdgeMeta, Modifier, Node, NodeId, NodeKind, SrDfg};
use crate::hash::{hash_kind, FxHasher};
use crate::lru::{CacheStats, ContentLru, DEFAULT_CAPACITY_BYTES};
use crate::store::{Consed, Footprint};
use pmlang::DType;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The cache-relevant slice of an [`EdgeMeta`]: name and span are
/// provenance, not content.
type MetaKey = (DType, Modifier, Vec<usize>);

fn meta_key(m: &EdgeMeta) -> MetaKey {
    (m.dtype, m.modifier, m.shape.clone())
}

/// Content-address of one scalar expansion. See the module docs for what
/// is (and is not) part of the key.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateKey {
    kind: NodeKind,
    ins: Vec<MetaKey>,
    outs: Vec<MetaKey>,
}

impl TemplateKey {
    /// Builds the key for expanding `node` with the given boundary
    /// metadata.
    fn new(
        node: &Node,
        in_metas: &[Consed<EdgeMeta>],
        out_metas: &[Consed<EdgeMeta>],
    ) -> TemplateKey {
        TemplateKey {
            kind: node.kind.clone(),
            ins: in_metas.iter().map(|m| meta_key(m)).collect(),
            outs: out_metas.iter().map(|m| meta_key(m)).collect(),
        }
    }

    /// 64-bit fingerprint (the hash-table address; `==` on the full key
    /// confirms).
    fn fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        hash_kind(&self.kind, &mut h);
        self.ins.hash(&mut h);
        self.outs.hash(&mut h);
        h.finish()
    }

    /// Heap bytes an entry keeps alive: the key's payload record and
    /// boundary lists, the template's `Arc` block and what the template
    /// owns, each shared record once.
    fn entry_bytes(&self, template: &SrDfg) -> usize {
        use std::mem::size_of;
        let mut count = Footprint::default();
        count.kind(&self.kind);
        count.graph(template);
        let metas = self.ins.iter().chain(&self.outs);
        count.add(
            (self.ins.capacity() + self.outs.capacity()) * size_of::<MetaKey>()
                + metas.map(|(_, _, shape)| shape.capacity() * size_of::<usize>()).sum::<usize>()
                + 2 * size_of::<usize>()
                + size_of::<SrDfg>(),
        );
        count.bytes()
    }
}

/// Counter snapshot of a [`TemplateCache`] (see [`TemplateCache::stats`]).
pub type TemplateCacheStats = CacheStats;

/// Shared, thread-safe handle to a template cache. `Clone` is cheap and
/// aliases the same store — hold one per [`crate::SrDfg`] compiler and
/// thread it through lowering and fallback re-lowering.
#[derive(Debug, Clone)]
pub struct TemplateCache {
    lru: ContentLru<TemplateKey, Arc<SrDfg>>,
}

impl Default for TemplateCache {
    fn default() -> Self {
        Self::new()
    }
}

impl TemplateCache {
    /// A cache of [`DEFAULT_CAPACITY_BYTES`].
    pub fn new() -> TemplateCache {
        TemplateCache::with_capacity(DEFAULT_CAPACITY_BYTES)
    }

    /// A cache bounded to `capacity_bytes` of resident entries.
    pub fn with_capacity(capacity_bytes: usize) -> TemplateCache {
        TemplateCache { lru: ContentLru::with_capacity(capacity_bytes) }
    }

    /// Looks up a template, refreshing its LRU position on hit.
    fn lookup(&self, key: &TemplateKey) -> Option<Arc<SrDfg>> {
        self.lru.lookup(key.fingerprint(), key)
    }

    /// Stores a template, charged the bytes it and its key keep alive.
    fn insert(&self, key: TemplateKey, template: Arc<SrDfg>) {
        let bytes = key.entry_bytes(&template);
        self.lru.insert(key.fingerprint(), key, bytes, template);
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> TemplateCacheStats {
        self.lru.stats()
    }
}

/// How one node of Algorithm 1 is refined: the paper's `Lower(n, Om)`,
/// ready for [`SrDfg::instantiate`].
#[derive(Debug)]
pub enum Refinement {
    /// A scalar expansion in canonical form — no domain, target or span of
    /// its own — shared by every structurally equal node; instantiation
    /// stamps the replaced node's provenance on.
    Template(Arc<SrDfg>),
    /// Any other refinement (component inlining, map/reduce
    /// decomposition): cheap, instance-specific, spliced as it stands.
    Inline(SrDfg),
}

impl Refinement {
    /// Refines node `id` of `graph` one granularity level. A scalar
    /// expansion is served from `cache` when its key is resident and
    /// stored there when not; with `None` it is expanded afresh, in the
    /// same canonical form, so cached and uncached lowering agree
    /// byte-for-byte. A refinement that is not template-shaped never
    /// consults the cache, which counts it as `bypassed` rather than as a
    /// miss.
    ///
    /// # Errors
    ///
    /// See [`RefineError`].
    pub fn of(
        graph: &SrDfg,
        id: NodeId,
        cache: Option<&TemplateCache>,
    ) -> Result<Refinement, RefineError> {
        let node = graph.node(id);
        let (ins, outs) = boundary_metas(graph, node);
        if !scalar_expansion_eligible(node) {
            if let Some(cache) = cache {
                cache.lru.record_bypass();
            }
            return refine_node(node, &ins, &outs).map(Refinement::Inline);
        }
        let expand = || refine_node_canonical(node, &ins, &outs).map(Arc::new);
        let Some(cache) = cache else { return expand().map(Refinement::Template) };
        let key = TemplateKey::new(node, &ins, &outs);
        if let Some(template) = cache.lookup(&key) {
            return Ok(Refinement::Template(template));
        }
        let template = expand()?;
        cache.insert(key, Arc::clone(&template));
        Ok(Refinement::Template(template))
    }

    /// The sub-srDFG that instantiation copies in.
    pub fn graph(&self) -> &SrDfg {
        match self {
            Refinement::Template(template) => template,
            Refinement::Inline(sub) => sub,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::refine_node_canonical;
    use crate::graph::{IndexRange, MapSpec, WriteSpec};
    use crate::kernel::KExpr;
    use pmlang::BinOp;

    /// An expansion-eligible `x * c` map over `n` elements, detached from
    /// any graph (metadata supplied explicitly).
    fn mul_map(c: f64, n: usize) -> (Node, Vec<Consed<EdgeMeta>>, Vec<Consed<EdgeMeta>>) {
        let kind = NodeKind::map(MapSpec {
            out_space: vec![IndexRange { name: "i".into(), lo: 0, hi: n as i64 - 1 }],
            kernel: KExpr::Binary(
                BinOp::Mul,
                Box::new(KExpr::Operand { slot: 0, indices: vec![KExpr::Idx(0)] }),
                Box::new(KExpr::Const(c)),
            ),
            write: WriteSpec::identity(&[n]),
        });
        let mut g = SrDfg::new("t");
        let x = g.add_edge(EdgeMeta::new("x", DType::Float, Modifier::Input, vec![n]));
        let y = g.add_edge(EdgeMeta::new("y", DType::Float, Modifier::Output, vec![n]));
        let id = g.add_node("mul", kind, None, vec![x], vec![y]);
        let ins = vec![g.edge(x).meta.clone()];
        let outs = vec![g.edge(y).meta.clone()];
        (g.node(id).clone(), ins, outs)
    }

    fn key_of(c: f64, n: usize) -> (TemplateKey, Arc<SrDfg>) {
        let (node, ins, outs) = mul_map(c, n);
        let key = TemplateKey::new(&node, &ins, &outs);
        let t = Arc::new(refine_node_canonical(&node, &ins, &outs).unwrap());
        (key, t)
    }

    #[test]
    fn key_tracks_content_not_names() {
        let (n1, i1, o1) = mul_map(2.0, 4);
        let (mut n2, mut i2, o2) = mul_map(2.0, 4);
        n2.name = "renamed".into();
        let mut renamed_meta = i2[0].get().clone();
        renamed_meta.name = "other_input".into();
        i2[0] = Consed::new(renamed_meta);
        let k1 = TemplateKey::new(&n1, &i1, &o1);
        let k2 = TemplateKey::new(&n2, &i2, &o2);
        assert_eq!(k1, k2, "names are provenance, not content");
        assert_eq!(k1.fingerprint(), k2.fingerprint());

        let (n3, i3, o3) = mul_map(3.0, 4); // different constant
        let (n4, i4, o4) = mul_map(2.0, 8); // different shape
        assert_ne!(k1, TemplateKey::new(&n3, &i3, &o3));
        assert_ne!(k1, TemplateKey::new(&n4, &i4, &o4));
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = TemplateCache::new();
        let (key, t) = key_of(2.0, 4);
        assert!(cache.lookup(&key).is_none());
        cache.insert(key.clone(), t);
        assert!(cache.lookup(&key).is_some());
        let (other, _) = key_of(3.0, 4);
        assert!(cache.lookup(&other).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 2, 1, 1));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let (k1, t1) = key_of(1.0, 16);
        let (k2, t2) = key_of(2.0, 16);
        let (k3, t3) = key_of(3.0, 16);
        let size = k1.entry_bytes(&t1).max(k2.entry_bytes(&t2)).max(k3.entry_bytes(&t3));
        // Room for two templates of this size, not three.
        let cache = TemplateCache::with_capacity(size * 2);
        cache.insert(k1.clone(), t1);
        cache.insert(k2.clone(), t2);
        assert!(cache.lookup(&k1).is_some(), "touch k1 so k2 is the LRU");
        cache.insert(k3.clone(), t3);
        assert!(cache.lookup(&k2).is_none(), "k2 was least recently used");
        assert!(cache.lookup(&k1).is_some());
        assert!(cache.lookup(&k3).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(s.bytes <= s.capacity_bytes);
    }

    #[test]
    fn oversized_template_survives_alone() {
        let (k1, t1) = key_of(1.0, 16);
        let (k2, t2) = key_of(2.0, 16);
        let cache = TemplateCache::with_capacity(1); // everything is oversized
        cache.insert(k1.clone(), t1);
        cache.insert(k2.clone(), t2);
        assert!(cache.lookup(&k1).is_none(), "displaced by k2");
        assert!(cache.lookup(&k2).is_some(), "newest entry is kept");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn shared_handle_aliases_one_store() {
        let cache = TemplateCache::new();
        let alias = cache.clone();
        let (key, t) = key_of(2.0, 4);
        cache.insert(key.clone(), t);
        assert!(alias.lookup(&key).is_some());
        assert_eq!(alias.stats().inserts, 1);
    }
}
