//! Structural hashing of srDFG nodes — the value-numbering key.
//!
//! [`node_structural_hash`] digests a node's `(kind, input edges)`,
//! exactly the equality CSE merges on (`na.kind == nb.kind && na.inputs
//! == nb.inputs`), so equal nodes always hash equal and the hash serves
//! as a hash-consing key with an `==` confirmation on bucket collision.
//!
//! `f64` payloads are hashed via `to_bits`. That is *finer* than float
//! `PartialEq` in exactly two places — `0.0`/`-0.0` hash differently, and
//! `NaN` hashes equal to itself while comparing unequal — and both are
//! safe for a consing table: a finer hash can only miss a merge
//! opportunity (the confirming `==` still decides), never create a wrong
//! one.

use crate::graph::{
    EdgeMeta, IndexRange, MapSpec, Node, NodeId, NodeKind, ReduceOp, ReduceSpec, ScalarKind,
    WriteSpec,
};
use crate::kernel::KExpr;
use crate::value::Tensor;
use std::hash::{Hash, Hasher};

/// Multiply-xor hasher (the scheme rustc uses for interning tables).
/// Value numbering digests every kernel tree on every CSE sweep, so hash
/// throughput matters; DoS resistance does not (a collision only costs
/// the confirming `==`), which rules out the `DefaultHasher` SipHash.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher(u64);

/// [`std::hash::BuildHasher`] for [`FxHasher`] — for hash tables keyed by
/// already-mixed values (structural hashes, dense ids).
pub type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_ne_bytes(c.try_into().unwrap()));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }
}

/// The splitmix64 finalizer applied to `x + φ·2⁶⁴` — one step of the
/// splitmix64 stream whose state is `x`. The seeded draws (chaos fault
/// plans, soak workloads, wire-fuzz mutations) all mix with it, so a seed
/// means the same stream everywhere.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Content fingerprint of an entire srDFG — the program-cache key.
///
/// Digests every node (kind content, domain, operand wiring), every
/// edge (full metadata, producer/consumer wiring) and the boundary
/// lists, recursing fully into `Component` sub-graphs (unlike the
/// shallow per-node digest, which only needs to distinguish siblings).
/// Two structurally identical graphs — in particular, the post-mid-end
/// graphs of two submissions of the same source under the same size
/// bindings — fingerprint identically, in this process and any other:
/// the digest reads the *content* hashes cached on the shared payloads,
/// never their addresses, so it is O(nodes + edges) yet independent of
/// which records are shared.
///
/// This is what `pm-serve` keys its content-addressed compiled-program
/// cache on: equal fingerprint ⇒ skip lowering + Algorithm 2 entirely.
pub fn graph_fingerprint(g: &crate::graph::SrDfg) -> u64 {
    let mut h = FxHasher(0);
    hash_graph(g, &mut h);
    h.finish()
}

fn hash_graph<H: Hasher>(g: &crate::graph::SrDfg, h: &mut H) {
    g.name.hash(h);
    g.domain.hash(h);
    g.node_count().hash(h);
    g.edge_count().hash(h);
    for (id, node) in g.iter_nodes() {
        id.hash(h);
        node.name.hash(h);
        node.domain.hash(h);
        node.inputs.hash(h);
        node.outputs.hash(h);
        if let NodeKind::Component(sub) = &node.kind {
            // Full recursion: the cache key must see the whole program,
            // not the sibling-disambiguation digest `hash_kind` uses.
            0xC0u8.hash(h);
            hash_graph(sub, h);
        } else {
            hash_kind(&node.kind, h);
        }
    }
    for e in g.edge_ids() {
        let edge = g.edge(e);
        e.hash(h);
        h.write_u64(edge.meta.structural_hash());
        // Slots are stored as `u32` and hashed as `usize`, exactly as a
        // `[(NodeId, usize)]` list hashes, so program-cache keys are the
        // same whatever width the graph stores a slot in.
        let widen = |&(n, slot): &(NodeId, u32)| (n, slot as usize);
        edge.producer.as_ref().map(widen).hash(h);
        edge.consumers.len().hash(h);
        for c in edge.consumers.iter() {
            widen(c).hash(h);
        }
    }
    g.boundary_inputs.hash(h);
    g.boundary_outputs.hash(h);
}

/// The structural hash of `(node.kind, node.inputs)`.
///
/// Two nodes for which CSE's merge equality holds are guaranteed to
/// return the same value; unequal nodes collide only with ordinary
/// hash probability.
pub fn node_structural_hash(node: &Node) -> u64 {
    let mut h = FxHasher(0);
    hash_kind(&node.kind, &mut h);
    node.inputs.hash(&mut h);
    h.finish()
}

/// Digest of a node kind alone (no input-edge ids). Shared with the
/// lowering template cache, whose key must be position-independent: two
/// structurally equal expansions in different graph regions have
/// different input edge ids but must fingerprint identically.
///
/// Shared payloads ([`crate::store::Consed`]) carry their content hash,
/// so each arm is a single cached-u64 write — node hashing and template
/// fingerprinting are O(1) in kernel size instead of walking the tree.
pub(crate) fn hash_kind<H: Hasher>(kind: &NodeKind, h: &mut H) {
    std::mem::discriminant(kind).hash(h);
    match kind {
        NodeKind::Component(sub) => {
            // Components are instantiation-unique and never value-numbered
            // (paper §II.A); a shallow digest keeps the hash total without
            // walking the whole sub-graph.
            sub.name.hash(h);
            sub.node_count().hash(h);
            sub.edge_count().hash(h);
        }
        NodeKind::Map(m) => h.write_u64(m.structural_hash()),
        NodeKind::Reduce(r) => h.write_u64(r.structural_hash()),
        NodeKind::Scalar(s) => h.write_u64(s.structural_hash()),
        NodeKind::ConstTensor(t) => h.write_u64(t.structural_hash()),
        NodeKind::Load | NodeKind::Store | NodeKind::Unpack | NodeKind::Pack => {}
    }
}

/// Content hash of a [`MapSpec`] (cached on the `NodeKind::Map` handle).
pub(crate) fn map_spec_hash(m: &MapSpec) -> u64 {
    let mut h = FxHasher(0);
    hash_space(&m.out_space, &mut h);
    hash_kexpr(&m.kernel, &mut h);
    hash_write(&m.write, &mut h);
    h.finish()
}

/// Content hash of a [`ReduceSpec`] (cached on the `NodeKind::Reduce` handle).
pub(crate) fn reduce_spec_hash(r: &ReduceSpec) -> u64 {
    let mut h = FxHasher(0);
    match &r.op {
        ReduceOp::Builtin(b) => {
            0u8.hash(&mut h);
            b.hash(&mut h);
        }
        ReduceOp::Custom { name, combiner } => {
            1u8.hash(&mut h);
            name.hash(&mut h);
            hash_kexpr(combiner, &mut h);
        }
    }
    hash_space(&r.out_space, &mut h);
    hash_space(&r.red_space, &mut h);
    r.cond.is_some().hash(&mut h);
    if let Some(c) = &r.cond {
        hash_kexpr(c, &mut h);
    }
    hash_kexpr(&r.body, &mut h);
    hash_write(&r.write, &mut h);
    h.finish()
}

/// Content hash of a [`ScalarKind`] (cached on the `NodeKind::Scalar` handle).
pub(crate) fn scalar_kind_hash(s: &ScalarKind) -> u64 {
    let mut h = FxHasher(0);
    std::mem::discriminant(s).hash(&mut h);
    match s {
        ScalarKind::Bin(op) => op.hash(&mut h),
        ScalarKind::Un(op) => op.hash(&mut h),
        ScalarKind::Func(f) => f.hash(&mut h),
        ScalarKind::Select => {}
        ScalarKind::Const(c) => c.to_bits().hash(&mut h),
    }
    h.finish()
}

/// Content hash of a [`Tensor`] (cached on the `NodeKind::ConstTensor` handle).
pub(crate) fn tensor_hash(t: &Tensor) -> u64 {
    let mut h = FxHasher(0);
    hash_tensor(t, &mut h);
    h.finish()
}

/// Content hash of an [`EdgeMeta`] — the *full* metadata including the
/// provenance span, so the cached hash separates any two metas that a
/// diagnostic or digest could tell apart.
pub(crate) fn edge_meta_hash(m: &EdgeMeta) -> u64 {
    let mut h = FxHasher(0);
    m.name.hash(&mut h);
    m.dtype.hash(&mut h);
    m.modifier.hash(&mut h);
    m.shape.hash(&mut h);
    m.span.hash(&mut h);
    h.finish()
}

fn hash_space<H: Hasher>(space: &[IndexRange], h: &mut H) {
    space.len().hash(h);
    for r in space {
        r.name.hash(h);
        r.lo.hash(h);
        r.hi.hash(h);
    }
}

fn hash_write<H: Hasher>(w: &WriteSpec, h: &mut H) {
    w.target_shape.hash(h);
    w.lhs.len().hash(h);
    for e in &w.lhs {
        hash_kexpr(e, h);
    }
    w.carried.hash(h);
}

fn hash_tensor<H: Hasher>(t: &Tensor, h: &mut H) {
    t.dtype().hash(h);
    t.shape().hash(h);
    if let Some(xs) = t.as_real_slice() {
        for x in xs {
            x.to_bits().hash(h);
        }
    } else if let Some(xs) = t.as_complex_slice() {
        for (re, im) in xs {
            re.to_bits().hash(h);
            im.to_bits().hash(h);
        }
    }
}

fn hash_kexpr<H: Hasher>(e: &KExpr, h: &mut H) {
    std::mem::discriminant(e).hash(h);
    match e {
        KExpr::Const(c) => c.to_bits().hash(h),
        KExpr::Idx(i) => i.hash(h),
        KExpr::Operand { slot, indices } => {
            slot.hash(h);
            indices.len().hash(h);
            for ix in indices {
                hash_kexpr(ix, h);
            }
        }
        KExpr::Arg(i) => i.hash(h),
        KExpr::Unary(op, a) => {
            op.hash(h);
            hash_kexpr(a, h);
        }
        KExpr::Binary(op, a, b) => {
            op.hash(h);
            hash_kexpr(a, h);
            hash_kexpr(b, h);
        }
        KExpr::Select(c, a, b) => {
            hash_kexpr(c, h);
            hash_kexpr(a, h);
            hash_kexpr(b, h);
        }
        KExpr::Call(f, args) => {
            f.hash(h);
            args.len().hash(h);
            for a in args {
                hash_kexpr(a, h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeMeta, MapSpec, Modifier, SrDfg};
    use pmlang::{BinOp, DType};

    fn map_times(c: f64, n: usize) -> NodeKind {
        NodeKind::map(MapSpec {
            out_space: vec![IndexRange { name: "i".into(), lo: 0, hi: n as i64 - 1 }],
            kernel: KExpr::Binary(
                BinOp::Mul,
                Box::new(KExpr::Operand { slot: 0, indices: vec![KExpr::Idx(0)] }),
                Box::new(KExpr::Const(c)),
            ),
            write: WriteSpec::identity(&[n]),
        })
    }

    #[test]
    fn equal_nodes_hash_equal() {
        let mut g = SrDfg::new("t");
        let x = g.add_edge(EdgeMeta::new("x", DType::Float, Modifier::Input, vec![4]));
        let a = g.add_edge(EdgeMeta::new("a", DType::Float, Modifier::Temp, vec![4]));
        let b = g.add_edge(EdgeMeta::new("b", DType::Float, Modifier::Temp, vec![4]));
        let n1 = g.add_node("mul", map_times(2.0, 4), None, vec![x], vec![a]);
        let n2 = g.add_node("mul", map_times(2.0, 4), None, vec![x], vec![b]);
        assert_eq!(g.node(n1).kind, g.node(n2).kind);
        assert_eq!(node_structural_hash(g.node(n1)), node_structural_hash(g.node(n2)));
    }

    #[test]
    fn different_payload_or_inputs_hash_differently() {
        let mut g = SrDfg::new("t");
        let x = g.add_edge(EdgeMeta::new("x", DType::Float, Modifier::Input, vec![4]));
        let y = g.add_edge(EdgeMeta::new("y", DType::Float, Modifier::Input, vec![4]));
        let a = g.add_edge(EdgeMeta::new("a", DType::Float, Modifier::Temp, vec![4]));
        let b = g.add_edge(EdgeMeta::new("b", DType::Float, Modifier::Temp, vec![4]));
        let c = g.add_edge(EdgeMeta::new("c", DType::Float, Modifier::Temp, vec![4]));
        let n1 = g.add_node("mul", map_times(2.0, 4), None, vec![x], vec![a]);
        let n2 = g.add_node("mul", map_times(3.0, 4), None, vec![x], vec![b]);
        let n3 = g.add_node("mul", map_times(2.0, 4), None, vec![y], vec![c]);
        assert_ne!(node_structural_hash(g.node(n1)), node_structural_hash(g.node(n2)));
        assert_ne!(node_structural_hash(g.node(n1)), node_structural_hash(g.node(n3)));
    }

    #[test]
    fn graph_fingerprint_is_content_addressed() {
        let build = |c: f64| {
            let mut g = SrDfg::new("fp");
            let x = g.add_edge(EdgeMeta::new("x", DType::Float, Modifier::Input, vec![4]));
            let a = g.add_edge(EdgeMeta::new("a", DType::Float, Modifier::Output, vec![4]));
            g.add_node("mul", map_times(c, 4), None, vec![x], vec![a]);
            g.boundary_inputs.push(x);
            g.boundary_outputs.push(a);
            g
        };
        // Two independent builds of the same content agree (the serve
        // program-cache contract), and a payload change is visible.
        assert_eq!(graph_fingerprint(&build(2.0)), graph_fingerprint(&build(2.0)));
        assert_ne!(graph_fingerprint(&build(2.0)), graph_fingerprint(&build(3.0)));
        // Wiring matters even when the node set is unchanged.
        let mut g = build(2.0);
        g.boundary_outputs.clear();
        assert_ne!(graph_fingerprint(&g), graph_fingerprint(&build(2.0)));
    }

    #[test]
    fn const_tensor_hash_tracks_data() {
        let t1 = Tensor::from_vec(DType::Float, vec![2], vec![1.0, 2.0]).unwrap();
        let t2 = Tensor::from_vec(DType::Float, vec![2], vec![1.0, 3.0]).unwrap();
        let mut g = SrDfg::new("t");
        let a = g.add_edge(EdgeMeta::new("a", DType::Float, Modifier::Temp, vec![2]));
        let b = g.add_edge(EdgeMeta::new("b", DType::Float, Modifier::Temp, vec![2]));
        let n1 = g.add_node("const", NodeKind::const_tensor(t1), None, vec![], vec![a]);
        let n2 = g.add_node("const", NodeKind::const_tensor(t2), None, vec![], vec![b]);
        assert_ne!(node_structural_hash(g.node(n1)), node_structural_hash(g.node(n2)));
    }
}
