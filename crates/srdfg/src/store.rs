//! Shared immutable srDFG payloads (DESIGN.md §13).
//!
//! A [`Consed<T>`] holds a node payload or an [`EdgeMeta`] as an `Arc`
//! around the value and its structural hash, computed once in
//! [`Consed::new`]. Sharing comes from construction, not from a table: a
//! scalar expansion builds each temp meta, scalar op and name once and
//! hands every node it makes a clone, and a splice clones its template's
//! handles. Payloads are immutable: a pass that diverges one instance
//! clones the value, rewrites the copy and stores `Consed::new(copy)`.
//!
//! A record is freed with its last handle, so a later record may reuse its
//! address; every memo keyed by an address holds what it keys. Splice
//! stamping in [`crate::graph::SrDfg`] is call-local and its source
//! sub-graph outlives the call, `pm_lower::SupportMemo` pins each `Ident`
//! it keys with a clone, the SoC price memo holds `Weak` guards on the
//! program `Arc`s it keys, and [`sharing_stats`] borrows its graph.
//! [`store_stats`] counts the records and bytes alive now.

use crate::graph::{EdgeMeta, MapSpec, ReduceSpec, ScalarKind};
use crate::hash::FxBuildHasher;
use crate::ident::Ident;
use crate::value::Tensor;
use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static LIVE_RECORDS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// One shared record: the payload, its structural hash and the heap bytes
/// it was counted at.
struct ConsedRec<T> {
    hash: u64,
    bytes: u64,
    value: T,
}

impl<T> Drop for ConsedRec<T> {
    fn drop(&mut self) {
        LIVE_RECORDS.fetch_sub(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// A shared handle to an immutable payload.
///
/// `Deref<Target = T>` keeps read sites source-compatible; `Debug` is
/// transparent (it prints exactly what the payload would), so digests and
/// diagnostics do not see the handle. Equality takes a pointer fast path
/// (a shared record is equal to itself) before falling back to
/// hash-then-content comparison.
pub struct Consed<T>(Arc<ConsedRec<T>>);

impl<T: Internable> Consed<T> {
    /// A new record holding `value`, its structural hash computed here.
    pub fn new(value: T) -> Self {
        let (hash, bytes) = (value.structural_hash(), value.heap_bytes() as u64);
        LIVE_RECORDS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed);
        Consed(Arc::new(ConsedRec { hash, bytes, value }))
    }
}

impl<T> Consed<T> {
    /// The payload's structural hash, cached at construction.
    pub fn structural_hash(&self) -> u64 {
        self.0.hash
    }

    /// Address identity of the shared record — stable for the life of the
    /// handle, equal exactly for handles sharing one record. A memo keyed
    /// by it must keep the record alive (see the module docs).
    pub fn ptr_id(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// Borrows the payload (what `Deref` returns; explicit form for
    /// turbofish-free disambiguation).
    pub fn get(&self) -> &T {
        &self.0.value
    }

    /// Heap bytes of the shared record: the `Arc` block (counts, hash,
    /// byte count and the payload inline) plus what the payload owns.
    fn record_bytes(&self) -> usize {
        let block = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<ConsedRec<T>>();
        block - std::mem::size_of::<T>() + self.0.bytes as usize
    }
}

impl<T> Clone for Consed<T> {
    fn clone(&self) -> Self {
        Consed(Arc::clone(&self.0))
    }
}

impl<T> Deref for Consed<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0.value
    }
}

impl<T: fmt::Debug> fmt::Debug for Consed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.value.fmt(f)
    }
}

impl<T: PartialEq> PartialEq for Consed<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.hash == other.0.hash && self.0.value == other.0.value)
    }
}

/// A payload type a [`Consed`] record can hold.
pub trait Internable {
    /// Content digest; equal values must hash equal (see [`crate::hash`]).
    fn structural_hash(&self) -> u64;
    /// Approximate heap footprint of one record (for the sharing report
    /// and the live byte count).
    fn heap_bytes(&self) -> usize;
}

impl<T: Internable> From<T> for Consed<T> {
    fn from(value: T) -> Self {
        Consed::new(value)
    }
}

/// The payload records alive in the process and the heap bytes they hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    records: u64,
    bytes: u64,
}

impl StoreStats {
    /// Live records.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Approximate heap bytes the live records hold.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Reads the live record and byte counts.
pub fn store_stats() -> StoreStats {
    StoreStats {
        records: LIVE_RECORDS.load(Ordering::Relaxed),
        bytes: LIVE_BYTES.load(Ordering::Relaxed),
    }
}

/// The heap bytes a set of values keeps alive, each shared record (a
/// [`Consed`] payload or an [`Ident`]) counted once however many handles
/// reach it. What a cache charges an entry: [`SrDfg::heap_bytes`] and
/// `pm_lower::CompiledProgram::heap_bytes` are one walk each into a fresh
/// count.
///
/// [`SrDfg::heap_bytes`]: crate::graph::SrDfg::heap_bytes
#[derive(Debug, Default)]
pub struct Footprint {
    seen: HashSet<usize, FxBuildHasher>,
    bytes: usize,
}

impl Footprint {
    /// The bytes counted so far.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Counts `bytes` the caller's values own outright.
    pub fn add(&mut self, bytes: usize) {
        self.bytes += bytes;
    }

    /// Counts a payload record, unless an earlier handle counted it.
    pub fn record<T>(&mut self, c: &Consed<T>) {
        if self.seen.insert(c.ptr_id()) {
            self.bytes += c.record_bytes();
        }
    }

    /// Counts a shared name, unless an earlier handle counted it.
    pub(crate) fn ident(&mut self, name: &Ident) {
        if self.seen.insert(name.ptr_id()) {
            self.bytes += name.heap_bytes();
        }
    }
}

/// Logical-vs-physical footprint of one graph's shared payloads.
///
/// *Logical* counts what a flat (unshared) representation would have
/// materialized: one payload per node, one metadata per edge. *Physical*
/// counts the distinct shared records actually referenced. The
/// materialization ratio `physical / logical` is the headline sharing
/// metric (a lowered kmeans-784 sits well under 25%).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingStats {
    /// Live nodes (component sub-graphs included, recursively).
    pub logical_nodes: u64,
    /// Distinct records behind those nodes: one per payload record, plus
    /// one per payload-free node (`Load`/`Store`/…, and `Component`
    /// shells, which are never shared).
    pub physical_nodes: u64,
    /// Edges (component sub-graphs included).
    pub logical_edges: u64,
    /// Distinct `EdgeMeta` records behind those edges.
    pub physical_edges: u64,
    /// Heap bytes a flat representation would hold for payloads + metas.
    pub logical_bytes: u64,
    /// Heap bytes the distinct shared records hold.
    pub physical_bytes: u64,
}

/// Measures how much of `g` is structurally shared (see [`SharingStats`]).
pub fn sharing_stats(g: &crate::graph::SrDfg) -> SharingStats {
    let mut s = SharingStats::default();
    let mut seen: HashSet<usize, FxBuildHasher> = HashSet::default();
    fn record<T>(
        c: &Consed<T>,
        seen: &mut HashSet<usize, FxBuildHasher>,
        s: &mut SharingStats,
    ) -> u64 {
        let fresh = seen.insert(c.ptr_id());
        s.logical_bytes += c.0.bytes;
        s.physical_bytes += if fresh { c.0.bytes } else { 0 };
        u64::from(fresh)
    }
    fn walk(
        g: &crate::graph::SrDfg,
        seen: &mut HashSet<usize, FxBuildHasher>,
        s: &mut SharingStats,
    ) {
        use crate::graph::NodeKind;
        for (_, node) in g.iter_nodes() {
            s.logical_nodes += 1;
            s.physical_nodes += match &node.kind {
                NodeKind::Map(m) => record(m, seen, s),
                NodeKind::Reduce(r) => record(r, seen, s),
                NodeKind::Scalar(k) => record(k, seen, s),
                NodeKind::ConstTensor(t) => record(t, seen, s),
                NodeKind::Component(sub) => {
                    walk(sub, seen, s);
                    1
                }
                NodeKind::Load | NodeKind::Store | NodeKind::Unpack | NodeKind::Pack => 1,
            };
        }
        for e in g.edge_ids() {
            s.logical_edges += 1;
            s.physical_edges += record(&g.edge(e).meta, seen, s);
        }
    }
    walk(g, &mut seen, &mut s);
    s
}

impl Internable for MapSpec {
    fn structural_hash(&self) -> u64 {
        crate::hash::map_spec_hash(self)
    }
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<MapSpec>()
            + space_bytes(&self.out_space)
            + kexpr_bytes(&self.kernel)
            + write_bytes(&self.write)
    }
}

impl Internable for ReduceSpec {
    fn structural_hash(&self) -> u64 {
        crate::hash::reduce_spec_hash(self)
    }
    fn heap_bytes(&self) -> usize {
        let op = match &self.op {
            crate::graph::ReduceOp::Builtin(_) => 0,
            crate::graph::ReduceOp::Custom { name, combiner } => name.len() + kexpr_bytes(combiner),
        };
        std::mem::size_of::<ReduceSpec>()
            + op
            + space_bytes(&self.out_space)
            + space_bytes(&self.red_space)
            + self.cond.as_ref().map_or(0, kexpr_bytes)
            + kexpr_bytes(&self.body)
            + write_bytes(&self.write)
    }
}

impl Internable for ScalarKind {
    fn structural_hash(&self) -> u64 {
        crate::hash::scalar_kind_hash(self)
    }
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<ScalarKind>()
    }
}

impl Internable for Tensor {
    fn structural_hash(&self) -> u64 {
        crate::hash::tensor_hash(self)
    }
    fn heap_bytes(&self) -> usize {
        let per = if self.as_complex_slice().is_some() { 16 } else { 8 };
        std::mem::size_of::<Tensor>() + self.len() * per + self.shape().len() * 8
    }
}

impl Internable for EdgeMeta {
    fn structural_hash(&self) -> u64 {
        crate::hash::edge_meta_hash(self)
    }
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<EdgeMeta>() + self.name.len() + self.shape.len() * 8
    }
}

fn space_bytes(space: &[crate::graph::IndexRange]) -> usize {
    space.iter().map(|r| std::mem::size_of::<crate::graph::IndexRange>() + r.name.len()).sum()
}

fn write_bytes(w: &crate::graph::WriteSpec) -> usize {
    w.target_shape.len() * 8 + w.lhs.iter().map(kexpr_bytes).sum::<usize>()
}

/// Approximate deep heap size of a kernel tree (node count × node size).
fn kexpr_bytes(k: &crate::kernel::KExpr) -> usize {
    use crate::kernel::KExpr;
    let node = std::mem::size_of::<KExpr>();
    node + match k {
        KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => 0,
        KExpr::Operand { indices, .. } => indices.iter().map(kexpr_bytes).sum(),
        KExpr::Unary(_, a) => kexpr_bytes(a),
        KExpr::Binary(_, a, b) => kexpr_bytes(a) + kexpr_bytes(b),
        KExpr::Select(c, a, b) => kexpr_bytes(c) + kexpr_bytes(a) + kexpr_bytes(b),
        KExpr::Call(_, args) => args.iter().map(kexpr_bytes).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Modifier;
    use pmlang::DType;

    fn meta(name: &str) -> EdgeMeta {
        EdgeMeta::new(name, DType::Float, Modifier::Temp, vec![4])
    }

    #[test]
    fn different_content_gets_distinct_records() {
        let a = Consed::new(meta("x"));
        let b = Consed::new(meta("y"));
        assert_ne!(a.ptr_id(), b.ptr_id());
        assert_ne!(a, b);
    }

    #[test]
    fn debug_is_transparent() {
        let m = meta("x");
        let expect = format!("{m:?}");
        assert_eq!(format!("{:?}", Consed::new(m)), expect);
    }
}
