//! On-demand refinement of srDFG nodes to finer granularities.
//!
//! The paper's srDFG gives *simultaneous access to all levels of operation
//! granularity*: every node `n` carries its own finer-grained `n.srdfg`.
//! Materializing scalar graphs for large tensors up front would need
//! billions of nodes, so this module derives a node's sub-srDFG on demand:
//!
//! * **Component** nodes already hold their inlined body graph.
//! * A **Reduce** with a compound body splits into an elementwise `Map`
//!   producing the element tensor plus a *pure* reduction over it (the
//!   paper's Fig. 5 ③: `mvmul` = element-wise `×` feeding a `sum` group
//!   node).
//! * A **Map** with a compound kernel splits into a chain of single-op maps.
//! * A single-op `Map` or pure `Reduce` expands to **scalar** granularity:
//!   one node per scalar operation, with `Unpack`/`Pack` marshalling nodes
//!   at the tensor boundary (paper Fig. 5 ④⑤: element-wise multiplication
//!   nodes and the adder tree inside `sum`).
//!
//! Every refinement returns a graph whose boundary edges match the original
//! node's operand/result edges, so [`SrDfg::instantiate`] can substitute it
//! — exactly the replacement step of the paper's Algorithm 1. Algorithm 1
//! asks [`crate::template::Refinement::of`], which decides once per node
//! between the refinement as it stands and the canonical, shareable form
//! of a scalar expansion; this module's only public item is [`RefineError`].

use crate::graph::{
    map_op_name, EdgeId, EdgeMeta, IndexRange, MapSpec, Modifier, Node, NodeKind, Odometer,
    ReduceOp, ReduceSpec, ScalarKind, SrDfg, WriteSpec,
};
use crate::hash::FxBuildHasher;
use crate::ident::Ident;
use crate::kernel::KExpr;
use crate::smallids::SmallIds;
use crate::store::Consed;
use pmlang::{BinOp, BuiltinReduction, DType, ScalarFunc, Span};
use std::collections::HashMap;
use std::fmt;

/// Maximum number of scalar nodes a single expansion may create, and of
/// element edges it may unpack from or pack into one tensor.
const MAX_EXPANSION_NODES: usize = 4_000_000;

/// Why a node could not be refined.
#[derive(Debug, Clone, PartialEq)]
pub enum RefineError {
    /// The node is already at the finest granularity.
    AtFinestGranularity(String),
    /// Scalar expansion would create more than 4 M nodes, or more than 4 M
    /// element edges for one tensor.
    TooLarge {
        /// Node name.
        name: String,
        /// Estimated node count, or the tensor's element count.
        estimated: usize,
    },
    /// A reduction condition or operand index depends on runtime data and
    /// cannot be resolved during static expansion.
    DataDependent(String),
    /// The operation has no scalar expansion (e.g. `argmax`).
    Unsupported(String),
    /// A statically known read or write position lies outside its tensor
    /// (the interpreter rejects the same access when it runs the node).
    OutOfBounds {
        /// Node name.
        name: String,
        /// The tensor read or written.
        tensor: String,
        /// Axis on which the position leaves the tensor.
        axis: usize,
        /// The offending index.
        index: i64,
        /// The axis size.
        size: usize,
    },
}

impl fmt::Display for RefineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefineError::AtFinestGranularity(n) => {
                write!(f, "node `{n}` is already at the finest granularity")
            }
            RefineError::TooLarge { name, estimated } => write!(
                f,
                "expanding `{name}` would create ~{estimated} nodes or element edges of one \
                 tensor (limit {MAX_EXPANSION_NODES})"
            ),
            RefineError::DataDependent(n) => {
                write!(f, "node `{n}` has data-dependent indexing and cannot expand statically")
            }
            RefineError::Unsupported(n) => write!(f, "node `{n}` has no scalar expansion"),
            RefineError::OutOfBounds { name, tensor, axis, index, size } => write!(
                f,
                "node `{name}` indexes `{tensor}` out of bounds: index {index} on axis {axis} \
                 of size {size}"
            ),
        }
    }
}

impl std::error::Error for RefineError {}

/// [`RefineError::TooLarge`] when expanding `name` into `n` nodes, or into
/// a tensor of `n` element edges, would exceed [`MAX_EXPANSION_NODES`].
fn within_limit(name: &str, n: usize) -> Result<(), RefineError> {
    if n > MAX_EXPANSION_NODES {
        return Err(RefineError::TooLarge { name: name.to_string(), estimated: n });
    }
    Ok(())
}

/// The metadata of `node`'s operand and result edges, in slot order — what
/// [`refine_node`] and the template key read of the graph around a node.
pub(crate) fn boundary_metas(
    graph: &SrDfg,
    node: &Node,
) -> (Vec<Consed<EdgeMeta>>, Vec<Consed<EdgeMeta>>) {
    let metas = |edges: &[EdgeId]| edges.iter().map(|&e| graph.edge(e).meta.clone()).collect();
    (metas(&node.inputs), metas(&node.outputs))
}

/// Derives the next-finer-granularity sub-srDFG of `node` — the paper's
/// `n.srdfg` — given the metadata of its operand and result edges. The
/// result's boundary matches those edges.
pub(crate) fn refine_node(
    node: &Node,
    in_metas: &[Consed<EdgeMeta>],
    out_metas: &[Consed<EdgeMeta>],
) -> Result<SrDfg, RefineError> {
    match &node.kind {
        NodeKind::Component(sub) => Ok((**sub).clone()),
        NodeKind::Reduce(spec) => {
            // A conditioned body is expanded only where the condition
            // holds: an element map over the whole box would evaluate it
            // where it was never meant to run (a padded read, say).
            if spec.body.compute_op_count() > 0 && spec.cond.is_none() {
                Ok(decompose_reduce(node, spec, in_metas, out_metas))
            } else {
                expand_reduce(node, spec, in_metas, out_metas)
            }
        }
        NodeKind::Map(spec) => {
            if spec.kernel.compute_op_count() > 1 {
                Ok(split_map(node, spec, in_metas, out_metas))
            } else {
                expand_map(node, spec, in_metas, out_metas)
            }
        }
        NodeKind::Scalar(_)
        | NodeKind::ConstTensor(_)
        | NodeKind::Load
        | NodeKind::Store
        | NodeKind::Unpack
        | NodeKind::Pack => Err(RefineError::AtFinestGranularity(node.name.to_string())),
    }
}

/// True when [`refine_node`] would take the scalar-expansion path — the
/// expensive, O(tensor-volume) leg of Algorithm 1 and the only one worth
/// template-caching. Component inlining and map/reduce decompositions are
/// cheap and instance-specific (their interiors carry source names), so
/// they are never cached.
pub(crate) fn scalar_expansion_eligible(node: &Node) -> bool {
    match &node.kind {
        NodeKind::Map(spec) => spec.kernel.compute_op_count() <= 1,
        NodeKind::Reduce(spec) => spec.body.compute_op_count() == 0 || spec.cond.is_some(),
        _ => false,
    }
}

/// [`refine_node`] in *canonical form* for a
/// [`Refinement::Template`](crate::template::Refinement): the node's
/// instance provenance (domain, target, span) is stripped before
/// expansion, so the returned graph carries synthetic spans and no domain
/// and can be shared by every structurally equal instance.
/// [`SrDfg::instantiate`] stamps the instance's provenance back on,
/// reproducing exactly what a direct (non-canonical) expansion would have
/// produced after splicing.
pub(crate) fn refine_node_canonical(
    node: &Node,
    in_metas: &[Consed<EdgeMeta>],
    out_metas: &[Consed<EdgeMeta>],
) -> Result<SrDfg, RefineError> {
    debug_assert!(scalar_expansion_eligible(node));
    let mut canon = node.clone();
    canon.domain = None;
    canon.target = None;
    canon.span = Span::synthetic();
    refine_node(&canon, in_metas, out_metas)
}

/// Unconditioned reduce with compound body → Map(body) into an element
/// tensor + pure Reduce over it.
fn decompose_reduce(
    node: &Node,
    spec: &ReduceSpec,
    in_metas: &[Consed<EdgeMeta>],
    out_metas: &[Consed<EdgeMeta>],
) -> SrDfg {
    let mut g = SrDfg::new(format!("{}.decomposed", node.name));
    g.domain = node.domain;
    let ins: Vec<EdgeId> = in_metas.iter().map(|m| g.add_edge(m.clone())).collect();
    let out = g.add_edge(out_metas[0].clone());
    g.boundary_inputs = ins.clone();
    g.boundary_outputs = vec![out];

    let combined: Vec<IndexRange> = spec.out_space.iter().chain(&spec.red_space).cloned().collect();
    let combined_shape: Vec<usize> = combined.iter().map(IndexRange::size).collect();
    let temp = g.add_edge(
        EdgeMeta::new(
            format!("{}.elems", node.name),
            element_dtype(in_metas),
            Modifier::Temp,
            combined_shape.clone(),
        )
        .at(node.span),
    );

    // Zero-based identity write even when ranges start above zero.
    let lhs: Vec<KExpr> = combined
        .iter()
        .enumerate()
        .map(|(d, r)| {
            if r.lo == 0 {
                KExpr::Idx(d)
            } else {
                KExpr::Binary(
                    BinOp::Sub,
                    Box::new(KExpr::Idx(d)),
                    Box::new(KExpr::Const(r.lo as f64)),
                )
            }
        })
        .collect();
    let map_spec = MapSpec {
        out_space: combined.clone(),
        kernel: spec.body.clone(),
        write: WriteSpec { target_shape: combined_shape, lhs: lhs.clone(), carried: false },
    };
    let map_name = map_op_name(&map_spec.kernel);
    g.add_node_at(map_name, NodeKind::map(map_spec), node.domain, &ins, [temp], node.span);

    // Pure reduce over the element tensor; the original inputs stay
    // available for carry slot 0, if any.
    let temp_slot = ins.len();
    let red_spec = ReduceSpec {
        op: spec.op.clone(),
        out_space: spec.out_space.clone(),
        red_space: spec.red_space.clone(),
        cond: None,
        body: KExpr::Operand { slot: temp_slot, indices: lhs },
        write: spec.write.clone(),
    };
    let mut red_inputs = ins;
    red_inputs.push(temp);
    g.add_node_at(
        spec.op.name().to_string(),
        NodeKind::reduce(red_spec),
        node.domain,
        red_inputs,
        [out],
        node.span,
    );
    g
}

/// Map with compound kernel → chain of single-op maps.
///
/// Note: at this granularity a `Select` becomes a three-input select op
/// whose branch kernels are *both* materialized (eager evaluation), as on
/// the real fabrics — predication, not branching. Programs that rely on a
/// ternary to guard out-of-range accesses should use reduction conditions
/// instead (as the conv/pooling generators do), which scalar expansion
/// honours per point; the interpreter's lazy ternary is a convenience of
/// the reference semantics.
fn split_map(
    node: &Node,
    spec: &MapSpec,
    in_metas: &[Consed<EdgeMeta>],
    out_metas: &[Consed<EdgeMeta>],
) -> SrDfg {
    let mut g = SrDfg::new(format!("{}.split", node.name));
    g.domain = node.domain;
    let ins: Vec<EdgeId> = in_metas.iter().map(|m| g.add_edge(m.clone())).collect();
    let out = g.add_edge(out_metas[0].clone());
    g.boundary_inputs = ins.clone();
    g.boundary_outputs = vec![out];

    let out_dims: Vec<usize> = spec.out_space.iter().map(IndexRange::size).collect();
    let mut temp_counter = 0u32;

    // Recursively emit single-op maps; leaves stay inline.
    struct Ctx<'a> {
        g: &'a mut SrDfg,
        ins: &'a [EdgeId],
        out_space: &'a [IndexRange],
        out_dims: &'a [usize],
        domain: Option<pmlang::Domain>,
        temp_counter: &'a mut u32,
        span: Span,
    }
    fn is_leaf(k: &KExpr) -> bool {
        matches!(k, KExpr::Const(_) | KExpr::Idx(_) | KExpr::Operand { .. })
    }
    /// Returns an expression usable inside a parent single-op kernel: a leaf
    /// unchanged, or an identity read of a freshly produced temp.
    fn emit(ctx: &mut Ctx<'_>, k: &KExpr, extra: &mut Vec<EdgeId>) -> KExpr {
        if is_leaf(k) {
            return k.clone();
        }
        // Make children leaves first.
        let rebuilt = match k {
            KExpr::Unary(op, e) => KExpr::Unary(*op, Box::new(emit(ctx, e, extra))),
            KExpr::Binary(op, a, b) => {
                KExpr::Binary(*op, Box::new(emit(ctx, a, extra)), Box::new(emit(ctx, b, extra)))
            }
            KExpr::Select(c, a, b) => KExpr::Select(
                Box::new(emit(ctx, c, extra)),
                Box::new(emit(ctx, a, extra)),
                Box::new(emit(ctx, b, extra)),
            ),
            KExpr::Call(f, args) => {
                KExpr::Call(*f, args.iter().map(|a| emit(ctx, a, extra)).collect())
            }
            leaf => leaf.clone(),
        };
        // Emit this single op into a temp.
        *ctx.temp_counter += 1;
        let temp = ctx.g.add_edge(
            EdgeMeta::new(
                format!("t{}", ctx.temp_counter),
                DType::Float,
                Modifier::Temp,
                ctx.out_dims.to_vec(),
            )
            .at(ctx.span),
        );
        // Kernel operands: the node's inputs are the boundary operands the
        // leaves reference plus temps read at identity indices. We keep slot
        // numbering equal to the *global* boundary slots, then append temps.
        // To do that we pass all boundary edges plus accumulated temps.
        let mut node_inputs: Vec<EdgeId> = ctx.ins.to_vec();
        node_inputs.extend(extra.iter().copied());
        let lhs: Vec<KExpr> = ctx
            .out_space
            .iter()
            .enumerate()
            .map(|(d, r)| {
                if r.lo == 0 {
                    KExpr::Idx(d)
                } else {
                    KExpr::Binary(
                        BinOp::Sub,
                        Box::new(KExpr::Idx(d)),
                        Box::new(KExpr::Const(r.lo as f64)),
                    )
                }
            })
            .collect();
        let ms = MapSpec {
            out_space: ctx.out_space.to_vec(),
            kernel: rebuilt,
            write: WriteSpec {
                target_shape: ctx.out_dims.to_vec(),
                lhs: lhs.clone(),
                carried: false,
            },
        };
        let name = map_op_name(&ms.kernel);
        ctx.g.add_node_at(name, NodeKind::map(ms), ctx.domain, node_inputs, [temp], ctx.span);
        extra.push(temp);
        // Read the temp back at zero-based identity positions.
        KExpr::Operand { slot: ctx.ins.len() + extra.len() - 1, indices: lhs }
    }

    let mut extra: Vec<EdgeId> = Vec::new();
    let mut ctx = Ctx {
        g: &mut g,
        ins: &ins,
        out_space: &spec.out_space,
        out_dims: &out_dims,
        domain: node.domain,
        temp_counter: &mut temp_counter,
        span: node.span,
    };
    // Rebuild the kernel so its root children are leaves, then emit the
    // final op with the original write spec.
    let final_kernel = match &spec.kernel {
        KExpr::Unary(op, e) => KExpr::Unary(*op, Box::new(emit(&mut ctx, e, &mut extra))),
        KExpr::Binary(op, a, b) => KExpr::Binary(
            *op,
            Box::new(emit(&mut ctx, a, &mut extra)),
            Box::new(emit(&mut ctx, b, &mut extra)),
        ),
        KExpr::Select(c, a, b) => KExpr::Select(
            Box::new(emit(&mut ctx, c, &mut extra)),
            Box::new(emit(&mut ctx, a, &mut extra)),
            Box::new(emit(&mut ctx, b, &mut extra)),
        ),
        KExpr::Call(f, args) => {
            KExpr::Call(*f, args.iter().map(|a| emit(&mut ctx, a, &mut extra)).collect())
        }
        leaf => leaf.clone(),
    };
    let mut node_inputs = ins.clone();
    node_inputs.extend(extra.iter().copied());
    let ms = MapSpec {
        out_space: spec.out_space.clone(),
        kernel: final_kernel,
        write: spec.write.clone(),
    };
    let name = map_op_name(&ms.kernel);
    g.add_node_at(name, NodeKind::map(ms), node.domain, node_inputs, [out], node.span);
    g
}

/// Infers the element dtype for reduce decomposition temporaries.
fn element_dtype(in_metas: &[Consed<EdgeMeta>]) -> DType {
    if in_metas.iter().any(|m| m.dtype == DType::Complex) {
        DType::Complex
    } else {
        DType::Float
    }
}

// ---- scalar expansion ------------------------------------------------

struct Expander<'a> {
    g: SrDfg,
    ins: Vec<EdgeId>,
    in_metas: &'a [Consed<EdgeMeta>],
    /// Per-slot unpacked element edges (created lazily).
    unpacked: Vec<Option<Vec<EdgeId>>>,
    domain: Option<pmlang::Domain>,
    nodes_created: usize,
    name: String,
    /// Source span of the node being expanded, inherited by every scalar
    /// node/edge so diagnostics on the expanded graph still point at the
    /// originating statement.
    span: Span,
    /// Value-numbered constants (by `f64` bits): one `const` node per
    /// distinct value. Unrolled expansions repeat the same literal per
    /// index point (k-means emits one `0.0`/`1.0` pair per element, FFT
    /// one sign constant per butterfly); on the fabrics those are a
    /// single wired constant, and sharing them shrinks the expansion by
    /// up to a third.
    consts: HashMap<u64, EdgeId, FxBuildHasher>,
    /// The one unnamed-scalar-temp metadata record per dtype. Every scalar
    /// temp this expansion creates has identical content (empty name,
    /// `Temp`, scalar shape, the expansion's span), so this map is what
    /// makes a million-edge expansion hold one record per dtype instead
    /// of one per edge.
    scalar_meta: HashMap<DType, Consed<EdgeMeta>, FxBuildHasher>,
    /// The one record per scalar-op payload, keyed by structural hash
    /// (with an `==` confirmation), for the same reason: an adder tree
    /// holds one `Bin(Add)` record, not one per adder.
    scalar_kinds: HashMap<u64, Consed<ScalarKind>, FxBuildHasher>,
    /// Shared node-name `Ident`s: all `mul` nodes of one expansion alias
    /// a single string allocation. Downstream sweeps (the lowering scan,
    /// `fully_lowered`) memoize per allocation, so a fabric answers a
    /// handful of support questions instead of one per node.
    names: HashMap<&'static str, Ident, FxBuildHasher>,
}

impl<'a> Expander<'a> {
    fn new(node: &Node, in_metas: &'a [Consed<EdgeMeta>]) -> Self {
        let mut g = SrDfg::new(format!("{}.scalar", node.name));
        g.domain = node.domain;
        let ins: Vec<EdgeId> = in_metas.iter().map(|m| g.add_edge(m.clone())).collect();
        g.boundary_inputs = ins.clone();
        Expander {
            g,
            ins,
            in_metas,
            unpacked: vec![None; in_metas.len()],
            domain: node.domain,
            nodes_created: 0,
            name: node.name.to_string(),
            span: node.span,
            consts: HashMap::default(),
            scalar_meta: HashMap::default(),
            scalar_kinds: HashMap::default(),
            names: HashMap::default(),
        }
    }

    /// The shared metadata record for an unnamed scalar temp of `dtype`
    /// (see the `scalar_meta` field).
    fn scalar_temp_meta(&mut self, dtype: DType) -> Consed<EdgeMeta> {
        let span = self.span;
        let make = || EdgeMeta::new(String::new(), dtype, Modifier::Temp, vec![]).at(span).into();
        self.scalar_meta.entry(dtype).or_insert_with(make).clone()
    }

    /// The shared record for a scalar-op payload (see `scalar_kinds`).
    fn shared_scalar(&mut self, kind: ScalarKind) -> Consed<ScalarKind> {
        let h = crate::hash::scalar_kind_hash(&kind);
        if let Some(c) = self.scalar_kinds.get(&h) {
            if **c == kind {
                return c.clone();
            }
        }
        let c = Consed::new(kind);
        self.scalar_kinds.insert(h, c.clone());
        c
    }

    fn budget(&mut self, n: usize) -> Result<(), RefineError> {
        self.nodes_created += n;
        within_limit(&self.name, self.nodes_created)
    }

    /// The shared `Ident` for a node name.
    fn name_ident(&mut self, name: &'static str) -> Ident {
        self.names.entry(name).or_insert_with(|| Ident::from(name)).clone()
    }

    fn scalar_edge(&mut self, dtype: DType) -> EdgeId {
        let meta = self.scalar_temp_meta(dtype);
        self.g.add_edge(meta)
    }

    /// Element edge `flat` of operand `slot`, materializing its Unpack node
    /// on first use.
    fn element(&mut self, slot: usize, flat: usize) -> Result<EdgeId, RefineError> {
        if self.unpacked[slot].is_none() {
            let meta = &self.in_metas[slot];
            let n = meta.volume();
            self.budget(1)?;
            // Bounded before the element edges are allocated.
            within_limit(&self.name, n)?;
            // Element edges are unnamed: at FFT-scale expansions (10⁶+
            // edges) per-element name strings would dominate memory —
            // and nameless, they all share one metadata record.
            let span = self.span;
            let dtype = meta.dtype;
            let elem_meta = self.scalar_temp_meta(dtype);
            let elems: Vec<EdgeId> = (0..n).map(|_| self.g.add_edge(elem_meta.clone())).collect();
            let unpack_name = self.name_ident("unpack");
            self.g.add_node_at(
                unpack_name,
                NodeKind::Unpack,
                self.domain,
                [self.ins[slot]],
                &elems,
                span,
            );
            self.unpacked[slot] = Some(elems);
        }
        Ok(self.unpacked[slot].as_ref().unwrap()[flat])
    }

    fn const_node(&mut self, v: f64) -> Result<EdgeId, RefineError> {
        // Bit-level dedup: `-0.0`/`0.0` stay distinct and NaN shares with
        // itself — finer than float `==`, so no value is ever conflated.
        if let Some(&e) = self.consts.get(&v.to_bits()) {
            return Ok(e);
        }
        self.budget(1)?;
        let e = self.scalar_edge(DType::Float);
        let const_name = self.name_ident("const");
        let kind = NodeKind::scalar(ScalarKind::Const(v));
        self.g.add_node_at(const_name, kind, self.domain, [], [e], self.span);
        self.consts.insert(v.to_bits(), e);
        Ok(e)
    }

    /// Expands a kernel at a fixed index point into scalar nodes, returning
    /// the edge carrying the result.
    fn expand_expr(&mut self, k: &KExpr, point: &[i64]) -> Result<EdgeId, RefineError> {
        // Subtrees with no operand reads are compile-time constants at a
        // fixed index point (e.g. FFT twiddle factors): fold them, exactly
        // as an unrolling accelerator compiler bakes them into the fabric.
        if !matches!(k, KExpr::Const(_)) && k.max_slot().is_none() && !has_arg(k) {
            if let Ok(v) = k.eval(point, &[], &[]) {
                match v {
                    crate::value::Scalar::Real(r) => return self.const_node(r),
                    crate::value::Scalar::Complex(..) => {
                        // Complex constants stay symbolic (Const is real);
                        // fall through to structural expansion.
                    }
                }
            }
        }
        match k {
            KExpr::Const(v) => self.const_node(*v),
            KExpr::Idx(i) => self.const_node(point[*i] as f64),
            KExpr::Arg(_) => Err(RefineError::Unsupported(self.name.clone())),
            KExpr::Operand { slot, indices } => {
                let flat = static_position(&self.name, indices, &self.in_metas[*slot], point)?;
                self.element(*slot, flat)
            }
            KExpr::Unary(op, e) => {
                let a = self.expand_expr(e, point)?;
                self.op_node(ScalarKind::Un(*op), op_label(k), &[a])
            }
            KExpr::Binary(op, a, b) => {
                let ea = self.expand_expr(a, point)?;
                let eb = self.expand_expr(b, point)?;
                self.op_node(ScalarKind::Bin(*op), op_label(k), &[ea, eb])
            }
            KExpr::Select(c, a, b) => {
                let ec = self.expand_expr(c, point)?;
                let ea = self.expand_expr(a, point)?;
                let eb = self.expand_expr(b, point)?;
                self.op_node(ScalarKind::Select, "select", &[ec, ea, eb])
            }
            KExpr::Call(f, args) => {
                let es: SmallIds<EdgeId, 3> =
                    args.iter().map(|a| self.expand_expr(a, point)).collect::<Result<_, _>>()?;
                self.op_node(ScalarKind::Func(*f), f.name(), &es)
            }
        }
    }

    fn op_node(
        &mut self,
        kind: ScalarKind,
        name: &'static str,
        inputs: &[EdgeId],
    ) -> Result<EdgeId, RefineError> {
        self.budget(1)?;
        let kind = NodeKind::Scalar(self.shared_scalar(kind));
        let out = self.scalar_edge(DType::Float);
        let name = self.name_ident(name);
        self.g.add_node_at(name, kind, self.domain, inputs, [out], self.span);
        Ok(out)
    }

    /// Finishes the graph: packs `elements` (row-major over `out_meta.shape`)
    /// into the boundary output.
    fn finish(mut self, out_meta: &Consed<EdgeMeta>, elements: &[EdgeId]) -> SrDfg {
        let out = self.g.add_edge(out_meta.clone());
        let pack_name = self.name_ident("pack");
        self.g.add_node_at(pack_name, NodeKind::Pack, self.domain, elements, [out], self.span);
        self.g.boundary_outputs = vec![out];
        self.g
    }
}

/// [`RefineError::DataDependent`] when a position `kernel` reads or `write`
/// stores depends on operand data, which no static expansion resolves.
fn static_indices(name: &str, kernel: &KExpr, write: &WriteSpec) -> Result<(), RefineError> {
    let mut data = write.lhs.iter().any(|l| l.max_slot().is_some());
    kernel.for_each_operand(&mut |_, indices| {
        data |= indices.iter().any(|ix| ix.max_slot().is_some());
    });
    if data {
        return Err(RefineError::DataDependent(name.to_string()));
    }
    Ok(())
}

/// The row-major position in the tensor `meta` of an access whose indices
/// (static, see [`static_indices`]) are evaluated at the fixed `point`.
/// Algorithm 1 fails on a position that leaves the tensor.
fn static_position(
    name: &str,
    indices: &[KExpr],
    meta: &EdgeMeta,
    point: &[i64],
) -> Result<usize, RefineError> {
    let mut flat = 0usize;
    for (axis, (ix, &size)) in indices.iter().zip(&meta.shape).enumerate() {
        let index =
            ix.eval_index(point).map_err(|_| RefineError::DataDependent(name.to_string()))?;
        if index < 0 || index as usize >= size {
            let tensor = meta.name.to_string();
            return Err(RefineError::OutOfBounds {
                name: name.to_string(),
                tensor,
                axis,
                index,
                size,
            });
        }
        flat = flat * size + index as usize;
    }
    Ok(flat)
}

/// True if the kernel references combiner arguments.
fn has_arg(k: &KExpr) -> bool {
    match k {
        KExpr::Arg(_) => true,
        KExpr::Const(_) | KExpr::Idx(_) => false,
        KExpr::Operand { indices, .. } => indices.iter().any(has_arg),
        KExpr::Unary(_, e) => has_arg(e),
        KExpr::Binary(_, a, b) => has_arg(a) || has_arg(b),
        KExpr::Select(c, a, b) => has_arg(c) || has_arg(a) || has_arg(b),
        KExpr::Call(_, args) => args.iter().any(has_arg),
    }
}

/// The scalar node name of a unary or binary kernel operator; a comparison
/// or logical operator is `cmp.` followed by its source symbol.
fn op_label(k: &KExpr) -> &'static str {
    match k {
        KExpr::Binary(op, ..) => match op {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Mod => "mod",
            BinOp::Pow => "pow",
            BinOp::Eq => "cmp.==",
            BinOp::Ne => "cmp.!=",
            BinOp::Lt => "cmp.<",
            BinOp::Le => "cmp.<=",
            BinOp::Gt => "cmp.>",
            BinOp::Ge => "cmp.>=",
            BinOp::And => "cmp.&&",
            BinOp::Or => "cmp.||",
        },
        KExpr::Unary(op, _) => match op {
            pmlang::UnOp::Neg => "neg",
            pmlang::UnOp::Not => "not",
        },
        _ => "op",
    }
}

/// Scalar expansion of a (single-op or small) Map node.
fn expand_map(
    node: &Node,
    spec: &MapSpec,
    in_metas: &[Consed<EdgeMeta>],
    out_metas: &[Consed<EdgeMeta>],
) -> Result<SrDfg, RefineError> {
    let points = crate::graph::space_size(&spec.out_space);
    within_limit(&node.name, points.saturating_mul(spec.kernel.op_count() as usize + 1))?;
    static_indices(&node.name, &spec.kernel, &spec.write)?;
    let mut ex = Expander::new(node, in_metas);
    let out_meta = &out_metas[0];
    let volume = out_meta.volume();
    // Bounded before the output's element edges are allocated.
    within_limit(&node.name, volume)?;
    let mut elements: Vec<Option<EdgeId>> = vec![None; volume];

    let mut points = Odometer::new(&spec.out_space);
    while let Some(point) = points.next_point() {
        let val = ex.expand_expr(&spec.kernel, point)?;
        elements[static_position(&ex.name, &spec.write.lhs, out_meta, point)?] = Some(val);
    }

    // Fill unwritten positions from the carry (slot 0) or zero constants.
    let mut final_elems = Vec::with_capacity(volume);
    for (flat, e) in elements.into_iter().enumerate() {
        match e {
            Some(edge) => final_elems.push(edge),
            None if spec.write.carried => final_elems.push(ex.element(0, flat)?),
            None => final_elems.push(ex.const_node(0.0)?),
        }
    }
    Ok(ex.finish(out_meta, &final_elems))
}

/// Scalar expansion of a Reduce node (adder/combiner trees): a pure one,
/// or one whose condition picks the points its body is expanded at.
fn expand_reduce(
    node: &Node,
    spec: &ReduceSpec,
    in_metas: &[Consed<EdgeMeta>],
    out_metas: &[Consed<EdgeMeta>],
) -> Result<SrDfg, RefineError> {
    if let ReduceOp::Builtin(b) = &spec.op {
        if b.is_arg() {
            return Err(RefineError::Unsupported(node.name.to_string()));
        }
    }
    if let Some(c) = &spec.cond {
        if c.max_slot().is_some() {
            return Err(RefineError::DataDependent(node.name.to_string()));
        }
    }
    static_indices(&node.name, &spec.body, &spec.write)?;
    let out_points = crate::graph::space_size(&spec.out_space);
    let red_points = crate::graph::space_size(&spec.red_space);
    let per_point = spec.body.compute_op_count() as usize + 2;
    within_limit(
        &node.name,
        out_points.saturating_mul(red_points.max(1)).saturating_mul(per_point),
    )?;

    let mut ex = Expander::new(node, in_metas);
    let out_meta = &out_metas[0];
    let volume = out_meta.volume();
    within_limit(&node.name, volume)?;
    let mut elements: Vec<Option<EdgeId>> = vec![None; volume];

    let out_rank = spec.out_space.len();

    // Gather contributing element edges per output point.
    let mut fpoint = vec![0i64; out_rank + spec.red_space.len()];
    let mut opoints = Odometer::new(&spec.out_space);
    while let Some(opoint) = opoints.next_point() {
        fpoint[..out_rank].copy_from_slice(opoint);
        let mut contrib: Vec<EdgeId> = Vec::new();
        let mut rpoints = Odometer::new(&spec.red_space);
        while let Some(rpoint) = rpoints.next_point() {
            fpoint[out_rank..].copy_from_slice(rpoint);
            if let Some(c) = &spec.cond {
                let keep = c
                    .eval(&fpoint, &[], &[])
                    .and_then(|s| s.as_bool())
                    .map_err(|_| RefineError::DataDependent(node.name.to_string()))?;
                if !keep {
                    continue;
                }
            }
            contrib.push(ex.expand_expr(&spec.body, &fpoint)?);
        }
        // Balanced combiner tree.
        let result = ex.combine_tree(&spec.op, contrib)?;
        elements[static_position(&ex.name, &spec.write.lhs, out_meta, opoint)?] = Some(result);
    }

    let mut final_elems = Vec::with_capacity(volume);
    for (flat, e) in elements.into_iter().enumerate() {
        match e {
            Some(edge) => final_elems.push(edge),
            None if spec.write.carried => final_elems.push(ex.element(0, flat)?),
            None => final_elems.push(ex.const_node(0.0)?),
        }
    }
    Ok(ex.finish(out_meta, &final_elems))
}

impl Expander<'_> {
    /// Folds element edges with a balanced combiner tree (the paper's adder
    /// tree inside the `sum` group node, Fig. 5 ⑤).
    fn combine_tree(
        &mut self,
        op: &ReduceOp,
        mut level: Vec<EdgeId>,
    ) -> Result<EdgeId, RefineError> {
        if level.is_empty() {
            let identity = match op {
                ReduceOp::Builtin(b) => b.identity(),
                ReduceOp::Custom { .. } => 0.0,
            };
            return self.const_node(identity);
        }
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut it = level.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(self.combine_pair(op, a, b)?),
                    None => next.push(a),
                }
            }
            level = next;
        }
        Ok(level.pop().expect("nonempty"))
    }

    fn combine_pair(&mut self, op: &ReduceOp, a: EdgeId, b: EdgeId) -> Result<EdgeId, RefineError> {
        match op {
            ReduceOp::Builtin(BuiltinReduction::Sum) => {
                self.op_node(ScalarKind::Bin(BinOp::Add), "add", &[a, b])
            }
            ReduceOp::Builtin(BuiltinReduction::Prod) => {
                self.op_node(ScalarKind::Bin(BinOp::Mul), "mul", &[a, b])
            }
            ReduceOp::Builtin(BuiltinReduction::Max) => {
                self.op_node(ScalarKind::Func(ScalarFunc::Max2), "max2", &[a, b])
            }
            ReduceOp::Builtin(BuiltinReduction::Min) => {
                self.op_node(ScalarKind::Func(ScalarFunc::Min2), "min2", &[a, b])
            }
            ReduceOp::Builtin(BuiltinReduction::Any) => {
                self.op_node(ScalarKind::Bin(BinOp::Or), "or", &[a, b])
            }
            ReduceOp::Builtin(BuiltinReduction::All) => {
                self.op_node(ScalarKind::Bin(BinOp::And), "and", &[a, b])
            }
            ReduceOp::Builtin(_) => Err(RefineError::Unsupported(self.name.clone())),
            ReduceOp::Custom { combiner, .. } => {
                let k = combiner.clone();
                self.expand_combiner(&k, a, b)
            }
        }
    }

    /// Expands a custom combiner kernel with `Arg(0)`/`Arg(1)` bound to the
    /// given element edges.
    fn expand_combiner(&mut self, k: &KExpr, a: EdgeId, b: EdgeId) -> Result<EdgeId, RefineError> {
        match k {
            KExpr::Arg(0) => Ok(a),
            KExpr::Arg(1) => Ok(b),
            KExpr::Arg(_) => Err(RefineError::Unsupported(self.name.clone())),
            KExpr::Const(v) => self.const_node(*v),
            KExpr::Idx(_) | KExpr::Operand { .. } => {
                Err(RefineError::Unsupported(self.name.clone()))
            }
            KExpr::Unary(op, e) => {
                let ea = self.expand_combiner(e, a, b)?;
                self.op_node(ScalarKind::Un(*op), "un", &[ea])
            }
            KExpr::Binary(op, x, y) => {
                let ex_ = self.expand_combiner(x, a, b)?;
                let ey = self.expand_combiner(y, a, b)?;
                self.op_node(ScalarKind::Bin(*op), op_label(k), &[ex_, ey])
            }
            KExpr::Select(c, x, y) => {
                let ec = self.expand_combiner(c, a, b)?;
                let ex_ = self.expand_combiner(x, a, b)?;
                let ey = self.expand_combiner(y, a, b)?;
                self.op_node(ScalarKind::Select, "select", &[ec, ex_, ey])
            }
            KExpr::Call(f, args) => {
                let es: SmallIds<EdgeId, 3> =
                    args.iter().map(|x| self.expand_combiner(x, a, b)).collect::<Result<_, _>>()?;
                self.op_node(ScalarKind::Func(*f), f.name(), &es)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, Bindings};
    use crate::graph::NodeId;
    use crate::interp::{exec_graph, Machine};
    use crate::template::Refinement;
    use crate::value::Tensor;
    use std::collections::HashMap;

    fn program_graph(src: &str) -> SrDfg {
        let prog = pmlang::parse(src).unwrap();
        pmlang::check(&prog).unwrap();
        build(&prog, &Bindings::default()).unwrap()
    }

    /// Node `id` of `graph` refined one level, as Algorithm 1 refines it.
    fn refine_at(graph: &SrDfg, id: NodeId) -> Result<SrDfg, RefineError> {
        Refinement::of(graph, id, None).map(|r| r.graph().clone())
    }

    /// Refining a node and instantiating the result must preserve the
    /// program's observable behaviour.
    fn assert_refine_preserves(src: &str, feeds: Vec<(&str, Tensor)>) {
        let graph = program_graph(src);
        let feeds: HashMap<String, Tensor> =
            feeds.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        let mut m = Machine::new(graph.clone());
        let baseline = m.invoke(&feeds).unwrap();

        // Refine every refinable node once, instantiate, re-run.
        let mut refined = graph.clone();
        let ids: Vec<_> = refined.node_ids().collect();
        let mut any = false;
        for id in ids {
            if let Ok(refinement) = Refinement::of(&refined, id, None) {
                refined.instantiate(id, &refinement);
                any = true;
            }
        }
        assert!(any, "nothing was refinable");
        let mut m2 = Machine::new(refined);
        let after = m2.invoke(&feeds).unwrap();
        for (k, v) in &baseline {
            let d = v.max_abs_diff(&after[k]).unwrap();
            assert!(d < 1e-9, "output `{k}` diverged by {d}");
        }
    }

    fn vec_t(v: Vec<f64>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(pmlang::DType::Float, vec![n], v).unwrap()
    }

    #[test]
    fn component_refines_to_body() {
        let g = program_graph(
            "f(input float x[2], output float y[2]) { index i[0:1]; y[i] = x[i] + 1.0; }
             main(input float a[2], output float b[2]) { f(a, b); }",
        );
        let comp_id = g
            .iter_nodes()
            .find(|(_, n)| matches!(n.kind, NodeKind::Component(_)))
            .map(|(id, _)| id)
            .unwrap();
        let sub = refine_at(&g, comp_id).unwrap();
        assert_eq!(sub.name, "f");
        assert!(sub.node_count() >= 1);
    }

    #[test]
    fn reduce_decomposes_then_expands() {
        let g = program_graph(
            "main(input float A[2][3], input float B[3], output float C[2]) {
                 index i[0:2], j[0:1];
                 C[j] = sum[i](A[j][i]*B[i]);
             }",
        );
        let (id, node) =
            g.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Reduce(_))).unwrap();
        assert_eq!(node.name, "matvec");
        // Level 1: decompose into Map(mul) + pure sum.
        let sub = refine_at(&g, id).unwrap();
        let names: Vec<_> = sub.iter_nodes().map(|(_, n)| n.name.clone()).collect();
        assert!(names.iter().any(|n| n == "map.mul"), "{names:?}");
        assert!(names.iter().any(|n| n == "sum"), "{names:?}");
        // Level 2: the pure sum expands to an adder tree.
        let (rid, _) =
            sub.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Reduce(_))).unwrap();
        let scal = refine_at(&sub, rid).unwrap();
        let adds = scal
            .iter_nodes()
            .filter(|(_, n)| matches!(&n.kind, NodeKind::Scalar(s) if **s == ScalarKind::Bin(BinOp::Add)))
            .count();
        assert_eq!(adds, 4, "3-wide sums per output, 2 outputs → 2·(3-1) adds");
    }

    #[test]
    fn refinement_preserves_matvec_semantics() {
        assert_refine_preserves(
            "main(input float A[2][3], input float B[3], output float C[2]) {
                 index i[0:2], j[0:1];
                 C[j] = sum[i](A[j][i]*B[i]);
             }",
            vec![
                (
                    "A",
                    Tensor::from_vec(
                        pmlang::DType::Float,
                        vec![2, 3],
                        vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                    )
                    .unwrap(),
                ),
                ("B", vec_t(vec![1.0, -1.0, 2.0])),
            ],
        );
    }

    #[test]
    fn refinement_preserves_compound_map() {
        assert_refine_preserves(
            "main(input float x[4], input float y[4], output float z[4]) {
                 index i[0:3];
                 z[i] = (x[i] + y[i]) * x[i] - 2.0;
             }",
            vec![("x", vec_t(vec![1.0, 2.0, 3.0, 4.0])), ("y", vec_t(vec![0.5, 0.5, 0.5, 0.5]))],
        );
    }

    #[test]
    fn refinement_preserves_partial_write() {
        assert_refine_preserves(
            "main(input float x[6], output float y[6]) {
                 index i[0:5], j[0:2];
                 y[i] = x[i] * 2.0;
                 y[2*j] = x[2*j];
             }",
            vec![("x", vec_t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))],
        );
    }

    #[test]
    fn refinement_preserves_conditional_sum() {
        assert_refine_preserves(
            "main(input float A[3][3], output float s) {
                 index i[0:2], j[0:2];
                 s = sum[i][j: j != i](A[i][j]);
             }",
            vec![(
                "A",
                Tensor::from_vec(
                    pmlang::DType::Float,
                    vec![3, 3],
                    vec![9.0, 1.0, 2.0, 3.0, 9.0, 4.0, 5.0, 6.0, 9.0],
                )
                .unwrap(),
            )],
        );
    }

    #[test]
    fn a_padded_convolution_expands_only_the_points_its_condition_keeps() {
        // Decomposed, the body `x[i+k-1] * w[k]` became an element map over
        // the whole box and read `x[-1]`, which Algorithm 1 refused.
        let src = "main(input float x[8], input float w[3], output float y[8]) {
                       index i[0:7], k[0:2];
                       y[i] = sum[k: i+k-1 >= 0 && i+k-1 < 8](x[i+k-1] * w[k]);
                   }";
        let g = program_graph(src);
        let (id, node) =
            g.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Reduce(_))).unwrap();
        assert!(scalar_expansion_eligible(node));
        let sub = refine_at(&g, id).unwrap();
        let muls = sub.iter_nodes().filter(|(_, n)| n.name == "mul").count();
        assert_eq!(muls, 8 * 3 - 2, "one product per kept point");
        let x = vec_t((1..=8).map(f64::from).collect());
        assert_refine_preserves(src, vec![("x", x), ("w", vec_t(vec![10.0, 20.0, 30.0]))]);
    }

    #[test]
    fn refinement_preserves_custom_reduction() {
        assert_refine_preserves(
            "reduction mn(a, b) = a < b ? a : b;
             main(input float A[5], output float m) {
                 index i[0:4];
                 m = mn[i](A[i]);
             }",
            vec![("A", vec_t(vec![3.0, 1.0, 4.0, 1.5, 5.0]))],
        );
    }

    #[test]
    fn expansion_respects_node_limit() {
        let g = program_graph(
            "main(input float x[3000000], output float y[3000000]) {
                 index i[0:2999999];
                 y[i] = x[i] + 1.0;
             }",
        );
        let (id, _) = g.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Map(_))).unwrap();
        // The estimate (two nodes per point) is checked before anything
        // is expanded, so this fails at once.
        let err = refine_at(&g, id).unwrap_err();
        assert!(matches!(err, RefineError::TooLarge { .. }), "{err}");
    }

    /// The first map of `src` built at size `n`, refined.
    fn refine_first_map(src: &str, n: i64) -> Result<SrDfg, RefineError> {
        let prog = pmlang::parse(src).unwrap();
        pmlang::check(&prog).unwrap();
        let g = build(&prog, &Bindings::from_sizes(vec![("n", n)])).unwrap();
        let (id, _) = g.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Map(_))).unwrap();
        refine_at(&g, id)
    }

    /// The first map of `src` built at `n` = 2³², refined.
    fn refine_at_four_billion(src: &str) -> RefineError {
        refine_first_map(src, 1 << 32).unwrap_err()
    }

    #[test]
    fn unpacking_a_huge_operand_is_too_large_not_an_allocation() {
        // One point reads one element, but unpacking `x` would make 2³²
        // element edges.
        let err =
            refine_at_four_billion("main(input float x[n], output float y) { y = x[0] * 2.0; }");
        assert!(matches!(err, RefineError::TooLarge { .. }), "{err}");
    }

    #[test]
    fn a_partial_write_into_a_huge_tensor_is_too_large_not_an_allocation() {
        // One point is written, but the carried tensor has 2³² elements.
        let err = refine_at_four_billion(
            "main(input float x[n], state float s[n]) { s[0] = x[0] * 2.0; }",
        );
        assert!(matches!(err, RefineError::TooLarge { .. }), "{err}");
    }

    #[test]
    fn element_edges_are_bounded_per_tensor_not_charged_as_nodes() {
        // A handful of nodes, but 2.1 M element edges unpacked from the
        // carried `s` and as many packed back: more edges than half the
        // limit twice over, yet each tensor is within it.
        let src = "main(input float x, state float s[n]) { s[0] = x * 2.0; }";
        let sub = refine_first_map(src, 2_100_000).unwrap();
        assert!(sub.node_count() < 8, "{} nodes", sub.node_count());
    }

    #[test]
    fn scalar_nodes_are_finest() {
        let g = program_graph(
            "main(input float x[2], output float y[2]) { index i[0:1]; y[i] = x[i] + 1.0; }",
        );
        let (id, _) = g.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Map(_))).unwrap();
        let scal = refine_at(&g, id).unwrap();
        let (sid, _) =
            scal.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Scalar(_))).unwrap();
        assert!(matches!(refine_at(&scal, sid), Err(RefineError::AtFinestGranularity(_))));
    }

    #[test]
    fn expanded_graph_executes_standalone() {
        // Expand a map and execute the scalar graph directly.
        let g = program_graph(
            "main(input float x[3], output float y[3]) { index i[0:2]; y[i] = x[i] * 3.0; }",
        );
        let (id, _) = g.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Map(_))).unwrap();
        let scal = refine_at(&g, id).unwrap();
        let outs = exec_graph(&scal, vec![Some(vec_t(vec![1.0, 2.0, 3.0]))]).unwrap();
        assert_eq!(outs[0].as_real_slice().unwrap(), &[3.0, 6.0, 9.0]);
    }

    #[test]
    fn comparison_labels_spell_the_source_symbol() {
        let x = || Box::new(KExpr::Const(1.0));
        let cmps = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::And];
        for op in cmps.into_iter().chain([BinOp::Or]) {
            assert_eq!(op_label(&KExpr::Binary(op, x(), x())), format!("cmp.{}", op.symbol()));
        }
    }

    /// The error refining the program's copy gives.
    fn map_refine_error(src: &str) -> RefineError {
        let g = program_graph(src);
        let (id, _) = g.iter_nodes().find(|(_, n)| n.name == "map.copy").unwrap();
        refine_at(&g, id).unwrap_err()
    }

    fn out_of_bounds(tensor: &str, axis: usize, index: i64, size: usize) -> RefineError {
        let (name, tensor) = ("map.copy".to_string(), tensor.to_string());
        RefineError::OutOfBounds { name, tensor, axis, index, size }
    }

    #[test]
    fn a_write_past_the_last_column_is_out_of_bounds_not_the_next_row() {
        // Unchecked, `y[0][4]` flattened to `y[1][0]`.
        let err = map_refine_error(
            "main(input float x[1][4], output float y[2][4]) {
                 index i[0:0], j[0:3];
                 y[i][j+1] = x[i][j];
             }",
        );
        assert_eq!(err, out_of_bounds("y", 1, 4, 4), "{err}");
    }

    #[test]
    fn a_write_past_the_end_is_out_of_bounds_not_a_panic() {
        let err = map_refine_error(
            "main(input float x[4], output float y[4]) { index i[0:3]; y[i+1] = x[i]; }",
        );
        assert_eq!(err, out_of_bounds("y", 0, 4, 4), "{err}");
    }

    #[test]
    fn a_static_read_past_the_end_is_out_of_bounds_not_data_dependent() {
        let err = map_refine_error(
            "main(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i+1]; }",
        );
        assert_eq!(err, out_of_bounds("x", 0, 4, 4), "{err}");
        // An index read from data stays data-dependent.
        let err = map_refine_error(
            "main(input float x[4], input float k[4], output float y[4]) {
                 index i[0:3];
                 y[i] = x[k[i]];
             }",
        );
        assert!(matches!(err, RefineError::DataDependent(_)), "{err}");
    }

    #[test]
    fn argmax_has_no_scalar_expansion() {
        let g = program_graph(
            "main(input float x[4], output float y) { index i[0:3]; y = argmax[i](x[i]); }",
        );
        let (id, _) = g.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Reduce(_))).unwrap();
        assert!(matches!(refine_at(&g, id), Err(RefineError::Unsupported(_))));
    }
}
