//! The simultaneous-recursive dataflow graph (srDFG).
//!
//! Paper §III: an srDFG is a pair `(N, E)` of nodes and edges. A node is a
//! pair `(name, srdfg)` — an operation name plus its own lower-granularity
//! srDFG — and an edge is `(src, dst, md)` where the metadata `md` carries
//! the operand's type, type modifier, and shape.
//!
//! Our representation keeps the paper's semantics with two engineering
//! choices:
//!
//! * Edges are stored as SSA-style *values*: one [`Edge`] records the
//!   producer and all consumers, which is equivalent to the paper's set of
//!   `(src, dst, md)` tuples sharing `md`, and more convenient for passes.
//! * The recursive sub-srDFG of a node is *materialized* for component
//!   instantiations (inlining, paper §II.A) and *derived on demand* for
//!   tensor operations via [`crate::expand`] — every granularity remains
//!   accessible at all times, without eagerly building billions of scalar
//!   nodes for large tensors.

use crate::ident::Ident;
use crate::kernel::KExpr;
use crate::smallids::SmallIds;
use crate::store::{Consed, Footprint};
use crate::template::Refinement;
use crate::value::Tensor;
use pmlang::{BinOp, BuiltinReduction, DType, Domain, ScalarFunc, Span, UnOp};
use std::fmt;

/// Identifies a node within one [`SrDfg`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifies an edge (value) within one [`SrDfg`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// How a value is used, extending the source-level type modifiers with
/// `Temp` for compiler-introduced intermediates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modifier {
    /// Read-once input flow.
    Input,
    /// Write-only output flow.
    Output,
    /// Persisted across invocations.
    State,
    /// Compile-time constant.
    Param,
    /// Intermediate SSA value.
    Temp,
}

impl fmt::Display for Modifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Modifier::Input => "input",
            Modifier::Output => "output",
            Modifier::State => "state",
            Modifier::Param => "param",
            Modifier::Temp => "temp",
        })
    }
}

/// Edge metadata: the paper's `md = (type, type modifier, shape)`, plus the
/// source-level variable name and provenance span for diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeMeta {
    /// Source-level name (possibly with an SSA suffix like `pred.1`).
    pub name: String,
    /// Element type.
    pub dtype: DType,
    /// Type modifier.
    pub modifier: Modifier,
    /// Concrete shape (empty = scalar).
    pub shape: Vec<usize>,
    /// PMLang source location of the declaration or statement that
    /// introduced this value ([`Span::synthetic`] for compiler-made edges).
    pub span: Span,
}

impl EdgeMeta {
    /// Metadata with no source provenance (compiler-introduced values).
    pub fn new(
        name: impl Into<String>,
        dtype: DType,
        modifier: Modifier,
        shape: Vec<usize>,
    ) -> EdgeMeta {
        EdgeMeta { name: name.into(), dtype, modifier, shape, span: Span::synthetic() }
    }

    /// Attaches a source span, builder-style.
    pub fn at(mut self, span: Span) -> EdgeMeta {
        self.span = span;
        self
    }

    /// Number of elements the edge's value carries, saturating at
    /// `usize::MAX` (request-supplied sizes can be arbitrarily large).
    pub fn volume(&self) -> usize {
        self.shape.iter().fold(1, |n: usize, &d| n.saturating_mul(d))
    }

    /// Size in bytes, assuming 4-byte reals and 8-byte complex elements
    /// (the precision the evaluated accelerators use for data transfer).
    pub fn bytes(&self) -> u64 {
        let per = if self.dtype == DType::Complex { 8 } else { 4 };
        (self.volume() as u64).saturating_mul(per)
    }
}

/// A half-open inclusive index range `name ∈ [lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexRange {
    /// Source-level index variable name.
    pub name: String,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound (`hi < lo` gives an empty range).
    pub hi: i64,
}

impl IndexRange {
    /// Number of points in the range.
    pub fn size(&self) -> usize {
        if self.hi < self.lo {
            0
        } else {
            (self.hi - self.lo + 1) as usize
        }
    }
}

/// Total number of points in an index space, saturating at `usize::MAX`.
pub fn space_size(space: &[IndexRange]) -> usize {
    space.iter().fold(1, |n: usize, r| n.saturating_mul(r.size()))
}

/// The points of an index space in row-major order (last axis fastest),
/// visited through one reused cursor: the stack's one enumerator of an
/// iteration box. The interpreter's kernel plans, Algorithm 1's scalar
/// expansion and the race lint all walk boxes with it, and Algorithm 1's
/// node order — with it every lowered graph and `graph_fingerprint` —
/// is this order. A space with no axes has one point, the empty one; a
/// space with an empty axis has none.
#[derive(Debug, Clone)]
pub struct Odometer {
    /// `(lo, hi)` per axis, inclusive.
    bounds: Vec<(i64, i64)>,
    point: Vec<i64>,
    /// The cursor has not yet yielded its first point.
    fresh: bool,
}

impl Odometer {
    /// An odometer over the ranges of `space`, outermost first.
    pub fn new<'s>(space: impl IntoIterator<Item = &'s IndexRange>) -> Odometer {
        let bounds: Vec<(i64, i64)> = space.into_iter().map(|r| (r.lo, r.hi)).collect();
        let fresh = bounds.iter().all(|&(lo, hi)| lo <= hi);
        let point = if fresh { bounds.iter().map(|&(lo, _)| lo).collect() } else { Vec::new() };
        Odometer { bounds, point, fresh }
    }

    /// The box: `(lo, hi)` per axis.
    pub fn bounds(&self) -> &[(i64, i64)] {
        &self.bounds
    }

    /// Steps to the next point and returns it; `None` once every point
    /// has been visited.
    #[inline]
    pub fn next_point(&mut self) -> Option<&[i64]> {
        if self.fresh {
            self.fresh = false;
            return Some(&self.point);
        }
        for axis in (0..self.point.len()).rev() {
            let (lo, hi) = self.bounds[axis];
            if self.point[axis] < hi {
                self.point[axis] += 1;
                return Some(&self.point);
            }
            self.point[axis] = lo;
        }
        // Exhausted: an empty cursor stays exhausted.
        self.point.clear();
        None
    }
}

/// The reduction operator of a [`NodeKind::Reduce`] node.
#[derive(Debug, Clone, PartialEq)]
pub enum ReduceOp {
    /// A built-in group reduction (`sum`, `prod`, `max`, …).
    Builtin(BuiltinReduction),
    /// A user-defined reduction with its combiner kernel
    /// (`KExpr::Arg(0)` = accumulator, `KExpr::Arg(1)` = element).
    Custom {
        /// Source-level reduction name.
        name: String,
        /// The combining kernel.
        combiner: KExpr,
    },
}

impl ReduceOp {
    /// The reduction's surface name.
    pub fn name(&self) -> &str {
        match self {
            ReduceOp::Builtin(b) => b.name(),
            ReduceOp::Custom { name, .. } => name,
        }
    }
}

/// Where a node writes its result within the target tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteSpec {
    /// Shape of the target tensor.
    pub target_shape: Vec<usize>,
    /// One index expression per target axis; `KExpr::Idx` positions refer
    /// to the node's output index space.
    pub lhs: Vec<KExpr>,
    /// True when the write covers only part of the target, so the previous
    /// version of the variable is carried in as input slot 0 and updated.
    pub carried: bool,
}

impl WriteSpec {
    /// An identity write covering an entire tensor of `shape`.
    pub fn identity(shape: &[usize]) -> WriteSpec {
        WriteSpec {
            target_shape: shape.to_vec(),
            lhs: (0..shape.len()).map(KExpr::Idx).collect(),
            carried: false,
        }
    }
}

/// An elementwise tensor operation: for every point of `out_space`,
/// evaluate `kernel` and store at the `write` location.
#[derive(Debug, Clone, PartialEq)]
pub struct MapSpec {
    /// Output iteration space (the statement's free indices).
    pub out_space: Vec<IndexRange>,
    /// Scalar kernel; `KExpr::Idx(i)` is `out_space[i]`.
    pub kernel: KExpr,
    /// Write placement.
    pub write: WriteSpec,
}

/// A group reduction over `red_space`, producing one element per point of
/// `out_space`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceSpec {
    /// The reduction operator.
    pub op: ReduceOp,
    /// Output (free) iteration space.
    pub out_space: Vec<IndexRange>,
    /// Reduced iteration space. `KExpr::Idx(i)` numbering covers
    /// `out_space` first, then `red_space`.
    pub red_space: Vec<IndexRange>,
    /// Optional Boolean guard (paper's conditional index groups); points
    /// where it evaluates false are skipped.
    pub cond: Option<KExpr>,
    /// The reduced element expression.
    pub body: KExpr,
    /// Write placement.
    pub write: WriteSpec,
}

/// A scalar primitive (the finest granularity; appears in expanded graphs).
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarKind {
    /// Binary arithmetic/comparison/logic.
    Bin(BinOp),
    /// Unary negation / logical not.
    Un(UnOp),
    /// Built-in function application.
    Func(ScalarFunc),
    /// Ternary select (inputs: cond, then, else).
    Select,
    /// A constant.
    Const(f64),
}

/// Recognized compute patterns on `Reduce` nodes, attached at build time so
/// coarse-granularity accelerators (e.g. the DL backend) can claim them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Inner product of two vectors.
    Dot,
    /// Matrix–vector product.
    MatVec,
    /// Matrix–matrix product.
    MatMul,
    /// 2-D convolution (sliding dot product over spatial dims + channels).
    Conv2d,
    /// Window pooling (max/sum over a spatial window).
    Pool,
}

impl Pattern {
    /// The operation name lowering uses for this pattern.
    pub fn op_name(&self) -> &'static str {
        match self {
            Pattern::Dot => "dot",
            Pattern::MatVec => "matvec",
            Pattern::MatMul => "matmul",
            Pattern::Conv2d => "conv2d",
            Pattern::Pool => "pool",
        }
    }
}

/// The behavioural payload of a node.
///
/// Tensor/scalar payloads are *shared* ([`Consed`], see [`crate::store`]):
/// the variant holds an immutable handle rather than an owned value, so
/// cloning a `NodeKind` during template splicing is a refcount bump and
/// payload equality gets a pointer fast path. Handles deref to the
/// payload, keeping read sites unchanged; construction goes through
/// [`NodeKind::map`]/[`NodeKind::reduce`]/[`NodeKind::scalar`]/
/// [`NodeKind::const_tensor`], which wrap a value. `Component` stays an owned
/// `Box` — instantiations are unique and mutated in place by lowering.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// An inlined component instantiation: the node's sub-srDFG is the
    /// component body, with boundary edges bound positionally to this
    /// node's inputs/outputs.
    Component(Box<SrDfg>),
    /// Elementwise tensor operation.
    Map(Consed<MapSpec>),
    /// Group reduction.
    Reduce(Consed<ReduceSpec>),
    /// Scalar primitive (expanded graphs only).
    Scalar(Consed<ScalarKind>),
    /// A compile-time constant tensor baked into the graph (params).
    ConstTensor(Consed<Tensor>),
    /// DMA load from another domain's accelerator (inserted by Algorithm 2).
    Load,
    /// DMA store toward another domain's accelerator.
    Store,
    /// Marshalling: splits one tensor edge into per-element scalar edges
    /// (row-major). Appears at the boundary of scalar-expanded graphs,
    /// modelling the streaming of tensor data into a scalar-granularity
    /// accelerator fabric.
    Unpack,
    /// Marshalling: gathers per-element scalar edges (row-major) into one
    /// tensor edge.
    Pack,
}

impl NodeKind {
    /// A [`NodeKind::Map`], wrapping the spec (or reusing a handle).
    pub fn map(spec: impl Into<Consed<MapSpec>>) -> NodeKind {
        NodeKind::Map(spec.into())
    }

    /// A [`NodeKind::Reduce`], wrapping the spec (or reusing a handle).
    pub fn reduce(spec: impl Into<Consed<ReduceSpec>>) -> NodeKind {
        NodeKind::Reduce(spec.into())
    }

    /// A [`NodeKind::Scalar`], wrapping the kind (or reusing a handle).
    pub fn scalar(kind: impl Into<Consed<ScalarKind>>) -> NodeKind {
        NodeKind::Scalar(kind.into())
    }

    /// A [`NodeKind::ConstTensor`], wrapping the tensor (or reusing a
    /// handle).
    pub fn const_tensor(t: impl Into<Consed<Tensor>>) -> NodeKind {
        NodeKind::ConstTensor(t.into())
    }

    /// The shape/dtype rule of a node of this kind reading `inputs` and
    /// producing `outputs` in `graph`: whether the metadata those edges
    /// claim agrees with what the node produces.
    ///
    /// * a `Map` or `Reduce` output has the shape `write.target_shape`;
    /// * a `ConstTensor` output has the tensor's shape and complexness;
    /// * a `Scalar` output has volume 1;
    /// * an `Unpack` has as many outputs as its input has elements;
    /// * a `Pack`'s output volume equals its input count;
    /// * a `Component`'s boundary edges have the shapes of the edges bound
    ///   to them.
    ///
    /// Claims are checked, not computed: a `Pack`'s shape and most dtypes
    /// cannot be derived from the operands. A `Map`'s dtype is the declared
    /// dtype of the variable it writes, whatever its operands are: a real
    /// value written into a complex tensor is promoted (`Tensor::set_flat`),
    /// and a complex one written into a real tensor is an execution error.
    /// [`SrDfg::add_node`] panics on a disagreeing claim, and
    /// [`crate::validate`] reports one made in place through
    /// [`SrDfg::node_mut`].
    ///
    /// # Errors
    ///
    /// A message naming the edge, its claim and the rule it breaks.
    pub fn check_edge_metas(
        &self,
        graph: &SrDfg,
        inputs: &[EdgeId],
        outputs: &[EdgeId],
    ) -> Result<(), String> {
        let meta = |e: EdgeId| graph.edge(e).meta.get();
        match self {
            NodeKind::Map(m) => {
                for &o in outputs {
                    let (claim, target) = (meta(o), &m.write.target_shape);
                    if claim.shape != *target {
                        return Err(format!(
                            "edge {o} `{}` claims shape {:?}, but a map writes its target \
                             shape {target:?}",
                            claim.name, claim.shape
                        ));
                    }
                }
            }
            NodeKind::Reduce(r) => {
                for &o in outputs {
                    let (claim, target) = (meta(o), &r.write.target_shape);
                    if claim.shape != *target {
                        return Err(format!(
                            "edge {o} `{}` claims shape {:?}, but a reduction writes its target \
                             shape {target:?}",
                            claim.name, claim.shape
                        ));
                    }
                }
            }
            NodeKind::ConstTensor(t) => {
                for &o in outputs {
                    let claim = meta(o);
                    let complex = |d: DType| d == DType::Complex;
                    if claim.shape != t.shape() || complex(claim.dtype) != complex(t.dtype()) {
                        return Err(format!(
                            "edge {o} `{}` claims {:?} {:?}, but the constant tensor is {:?} {:?}",
                            claim.name,
                            claim.dtype,
                            claim.shape,
                            t.dtype(),
                            t.shape()
                        ));
                    }
                }
            }
            NodeKind::Scalar(_) => {
                for &o in outputs {
                    let claim = meta(o);
                    if claim.volume() != 1 {
                        return Err(format!(
                            "edge {o} `{}` claims shape {:?}, but a scalar op produces one element",
                            claim.name, claim.shape
                        ));
                    }
                }
            }
            NodeKind::Unpack => {
                if let Some(&i) = inputs.first() {
                    let n = meta(i).volume();
                    if n != outputs.len() {
                        return Err(format!(
                            "edge {i} `{}` claims {n} element(s), but its unpack has {} output(s)",
                            meta(i).name,
                            outputs.len()
                        ));
                    }
                }
            }
            NodeKind::Pack => {
                if let Some(&o) = outputs.first() {
                    let n = meta(o).volume();
                    if n != inputs.len() {
                        return Err(format!(
                            "edge {o} `{}` claims {n} element(s), but its pack gathers {} input(s)",
                            meta(o).name,
                            inputs.len()
                        ));
                    }
                }
            }
            NodeKind::Component(sub) => {
                let bound = sub.boundary_inputs.iter().zip(inputs);
                for (&inner, &outer) in bound.chain(sub.boundary_outputs.iter().zip(outputs)) {
                    let (inner, claim) = (sub.edge(inner).meta.get(), meta(outer));
                    if claim.shape != inner.shape {
                        return Err(format!(
                            "edge {outer} `{}` claims shape {:?}, but component boundary edge \
                             `{}` has shape {:?}",
                            claim.name, claim.shape, inner.name, inner.shape
                        ));
                    }
                }
            }
            NodeKind::Load | NodeKind::Store => {}
        }
        Ok(())
    }
}

/// A node of the srDFG: `(name, kind, domain, operands, results)`.
///
/// A node is 96 bytes and owns no heap block of its own in the common
/// case: the name and target are one-word shared strings ([`Ident`]), the
/// payload is a shared handle or a boxed component, and the operand and
/// result lists keep up to three and two ids inline ([`SmallIds`], 16
/// bytes each). Algorithm 1 appends tens of thousands of these per
/// program, so every word here is paid once per scalar operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operation name used by the lowering algorithm's support check
    /// (`n.name ∉ Ot`, paper Algorithm 1).
    pub name: Ident,
    /// Behaviour.
    pub kind: NodeKind,
    /// The domain this node executes in (inherited from its component's
    /// instantiation annotation, paper §II.D).
    pub domain: Option<Domain>,
    /// Operand edges, in kernel slot order.
    pub inputs: SmallIds<EdgeId, 3>,
    /// Result edges.
    pub outputs: SmallIds<EdgeId, 2>,
    /// Recognized compute pattern, if any.
    pub pattern: Option<Pattern>,
    /// Explicit accelerator assignment (by target name), overriding the
    /// domain's default target. Set from per-component target overrides
    /// and inherited through refinement.
    pub target: Option<Ident>,
    /// PMLang source location of the statement this node was built from
    /// ([`Span::synthetic`] when the node has no single source statement).
    /// Refinement and splicing propagate it so every granularity keeps its
    /// provenance.
    pub span: Span,
}

/// An SSA value: the producing port, all consuming ports, and metadata.
///
/// An edge is 48 bytes: a port is a `(node, slot)` pair of two `u32`s, up
/// to two consumers are kept inline, and the metadata is one shared handle.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Producing `(node, output slot)`, or `None` for a boundary input.
    pub producer: Option<(NodeId, u32)>,
    /// Consuming `(node, input slot)` pairs.
    pub consumers: SmallIds<(NodeId, u32), 2>,
    /// The paper's edge metadata, a shared handle (see [`crate::store`]):
    /// field reads auto-deref (`edge.meta.dtype`); only
    /// [`SrDfg::rename_edge`] replaces it.
    pub meta: Consed<EdgeMeta>,
}

impl Edge {
    /// The paper's `(type, type-modifier, shape)` metadata (plus name).
    pub fn meta(&self) -> &EdgeMeta {
        self.meta.get()
    }

    /// PMLang source location of the value's declaration.
    pub fn span(&self) -> Span {
        self.meta.span
    }
}

impl Node {
    /// The node's behavioural payload.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// Recognized compute pattern, if any.
    pub fn pattern(&self) -> Option<Pattern> {
        self.pattern
    }
}

/// A simultaneous-recursive dataflow graph.
#[derive(Debug, Clone, PartialEq)]
pub struct SrDfg {
    /// Graph name (component name for component graphs).
    pub name: String,
    /// The graph's domain (paper: `srdfg.domain`).
    pub domain: Option<Domain>,
    nodes: Vec<Option<Node>>,
    edges: Vec<Edge>,
    /// External operands in positional order (includes params and the
    /// incoming version of every `state` variable).
    pub boundary_inputs: Vec<EdgeId>,
    /// External results in positional order (outputs, then the outgoing
    /// version of every `state` variable).
    pub boundary_outputs: Vec<EdgeId>,
}

impl SrDfg {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        SrDfg {
            name: name.into(),
            domain: None,
            nodes: Vec::new(),
            edges: Vec::new(),
            boundary_inputs: Vec::new(),
            boundary_outputs: Vec::new(),
        }
    }

    /// Adds an edge with no producer or consumers yet. Accepts an owned
    /// [`EdgeMeta`] (wrapped here) or an existing handle.
    pub fn add_edge(&mut self, meta: impl Into<Consed<EdgeMeta>>) -> EdgeId {
        let id = EdgeId(id32(self.edges.len()));
        self.edges.push(Edge { producer: None, consumers: SmallIds::new(), meta: meta.into() });
        id
    }

    /// Renames edge `id` and changes its modifier: how the builder turns the
    /// last SSA version of an `output` or `state` variable into a boundary
    /// edge. The edge gets a record of its own, so other edges sharing the
    /// old one are unaffected. Nothing rewrites a dtype or shape after
    /// [`SrDfg::add_edge`].
    pub fn rename_edge(&mut self, id: EdgeId, name: &str, modifier: Modifier) {
        let edge = &mut self.edges[id.0 as usize];
        if edge.meta.name != name || edge.meta.modifier != modifier {
            let meta = EdgeMeta { name: name.to_string(), modifier, ..edge.meta.get().clone() };
            edge.meta = Consed::new(meta);
        }
    }

    /// Adds a node, wiring its input/output edges' use lists. The edge
    /// lists are copied in, so a caller can pass an array or a slice and
    /// allocate nothing for a node of up to three operands and two results.
    pub fn add_node(
        &mut self,
        name: impl Into<Ident>,
        kind: NodeKind,
        domain: Option<Domain>,
        inputs: impl AsRef<[EdgeId]>,
        outputs: impl AsRef<[EdgeId]>,
    ) -> NodeId {
        self.add_node_at(name, kind, domain, inputs, outputs, Span::synthetic())
    }

    /// Adds a node carrying a PMLang source span (see [`SrDfg::add_node`]).
    ///
    /// # Panics
    ///
    /// Panics if the edges' metadata breaks the node's shape/dtype rule
    /// ([`NodeKind::check_edge_metas`]): every node is built by compiler
    /// code, so a disagreeing claim is a compiler bug.
    pub fn add_node_at(
        &mut self,
        name: impl Into<Ident>,
        kind: NodeKind,
        domain: Option<Domain>,
        inputs: impl AsRef<[EdgeId]>,
        outputs: impl AsRef<[EdgeId]>,
        span: Span,
    ) -> NodeId {
        let (inputs, outputs) = (inputs.as_ref(), outputs.as_ref());
        let name = name.into();
        if let Err(msg) = kind.check_edge_metas(self, inputs, outputs) {
            panic!("add_node: node `{name}`: {msg}");
        }
        let id = NodeId(id32(self.nodes.len()));
        for (slot, e) in inputs.iter().enumerate() {
            self.edges[e.0 as usize].consumers.push((id, id32(slot)));
        }
        for (slot, e) in outputs.iter().enumerate() {
            debug_assert!(
                self.edges[e.0 as usize].producer.is_none(),
                "edge {e} already has a producer"
            );
            self.edges[e.0 as usize].producer = Some((id, id32(slot)));
        }
        self.nodes.push(Some(Node {
            name,
            kind,
            domain,
            inputs: SmallIds::map_from(inputs, |e| e),
            outputs: SmallIds::map_from(outputs, |e| e),
            pattern: None,
            target: None,
            span,
        }));
        id
    }

    /// Returns the node with `id`.
    ///
    /// # Panics
    ///
    /// Panics if the node was removed.
    pub fn node(&self, id: NodeId) -> &Node {
        self.nodes[id.0 as usize].as_ref().expect("node was removed")
    }

    /// Mutable access to the node with `id`.
    ///
    /// # Panics
    ///
    /// Panics if the node was removed.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id.0 as usize].as_mut().expect("node was removed")
    }

    /// True if `id` refers to a live (not removed) node.
    pub fn is_live(&self, id: NodeId) -> bool {
        self.nodes.get(id.0 as usize).is_some_and(Option::is_some)
    }

    /// Returns the edge with `id`.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0 as usize]
    }

    /// Mutable access to the consumer list of the edge with `id`.
    pub fn consumers_mut(&mut self, id: EdgeId) -> &mut SmallIds<(NodeId, u32), 2> {
        &mut self.edges[id.0 as usize].consumers
    }

    /// Iterates over live node ids in creation order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().enumerate().filter_map(|(i, n)| n.as_ref().map(|_| NodeId(i as u32)))
    }

    /// Iterates over `(id, node)` pairs for live nodes.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|node| (NodeId(i as u32), node)))
    }

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Pre-allocates room for `nodes` node slots and `edges` edges.
    /// Splicing many templates in one round grows the tables to tens of
    /// megabytes; reserving the round's total once avoids re-copying the
    /// whole graph on every doubling.
    pub fn reserve(&mut self, nodes: usize, edges: usize) {
        self.nodes.reserve(nodes);
        self.edges.reserve(edges);
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Number of node id slots ever allocated (live or removed); every
    /// `NodeId.0` is `< node_slots()`, so analyses can use flat arrays
    /// indexed by raw id instead of hash maps.
    pub fn node_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (including ones left dangling by node removal).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Heap bytes the graph keeps alive: its tables at their capacities,
    /// spilled id lists, component sub-graphs, and each distinct payload
    /// record and name once (see [`Footprint`]). A walk over every node
    /// and edge, so it is taken once when a cache stores the graph.
    pub fn heap_bytes(&self) -> usize {
        let mut count = Footprint::default();
        count.graph(self);
        count.bytes()
    }

    /// Removes a node, unlinking it from its edges' use lists.
    pub fn remove_node(&mut self, id: NodeId) {
        self.take_node(id);
    }

    /// [`SrDfg::remove_node`], handing the removed node back.
    fn take_node(&mut self, id: NodeId) -> Option<Node> {
        let node = self.nodes[id.0 as usize].take()?;
        for e in &node.inputs {
            self.edges[e.0 as usize].consumers.retain(|(n, _)| *n != id);
        }
        for e in &node.outputs {
            let edge = &mut self.edges[e.0 as usize];
            if edge.producer.is_some_and(|(n, _)| n == id) {
                edge.producer = None;
            }
        }
        Some(node)
    }

    /// Returns live node ids in a deterministic topological order
    /// (dependencies before dependents; ties broken by id).
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle (the builder only produces
    /// DAGs; state circulation is represented by boundary edge pairs).
    /// Callers that must not panic use [`SrDfg::try_topo_order`].
    pub fn topo_order(&self) -> Vec<NodeId> {
        match self.try_topo_order() {
            Ok(order) => order,
            Err(stuck) => panic!(
                "srDFG contains a cycle through {} node(s): {}",
                stuck.len(),
                stuck
                    .iter()
                    .take(8)
                    .map(|id| self.node(*id).name.as_str())
                    .collect::<Vec<_>>()
                    .join(" -> ")
            ),
        }
    }

    /// Non-panicking topological sort: `Ok(order)` for a DAG, or
    /// `Err(stuck)` listing the live nodes caught in cycles (every node
    /// whose in-degree never reached zero), in id order.
    pub fn try_topo_order(&self) -> Result<Vec<NodeId>, Vec<NodeId>> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // Fast path: the builder emits nodes in program order, which is
        // already topological, and most rewrites preserve it. When every
        // producer id is smaller than its consumer's, ascending id order
        // *is* the lexicographically smallest topological order (the same
        // one the min-heap Kahn below produces): the smallest live id
        // remaining is always ready, because all its producers have
        // strictly smaller ids and are therefore already retired.
        let id_order_is_topological = self.iter_nodes().all(|(id, node)| {
            node.inputs.iter().all(|e| match self.edges[e.0 as usize].producer {
                Some((p, _)) => p.0 < id.0,
                None => true,
            })
        });
        if id_order_is_topological {
            return Ok(self.node_ids().collect());
        }
        // In-degrees count producer *links* (one per consumed input edge
        // with a producer, its own included: a node that consumes its own
        // output never becomes ready, so a self-loop is a cycle); each link
        // is decremented exactly once when its producer retires, so a node
        // becomes ready when its last unique predecessor does — same order
        // as counting unique predecessors, without per-node set allocations.
        let mut indeg: Vec<u32> = vec![0; self.nodes.len()];
        let mut live = 0usize;
        for (id, node) in self.iter_nodes() {
            live += 1;
            let mut d = 0u32;
            for e in &node.inputs {
                if self.edges[e.0 as usize].producer.is_some() {
                    d += 1;
                }
            }
            indeg[id.0 as usize] = d;
        }
        // Min-id Kahn: among ready nodes the smallest id always retires
        // first, keeping the order deterministic. The ready set is a
        // bitset scanned from a cursor rather than a heap: splicing
        // appends expansions, so successors almost always have *larger*
        // ids than the node that readies them — the cursor (an exact
        // lower bound on the smallest ready id) then only moves forward,
        // and the whole sort is a near-linear word scan with no per-node
        // heap traffic. A smaller id becoming ready rewinds the cursor;
        // if an adversarial edge structure forces enough rewinding to
        // blow the scan budget, the remaining ready bits are drained into
        // a min-heap mid-run — both pop exactly the minimum ready id, so
        // the produced order is identical either way.
        let words = self.nodes.len().div_ceil(64);
        let mut ready_bits = vec![0u64; words];
        let mut nready = 0usize;
        let mut cursor = usize::MAX; // exact lower bound of the min ready id
        for (id, _) in self.iter_nodes() {
            let raw = id.0 as usize;
            if indeg[raw] == 0 {
                ready_bits[raw / 64] |= 1u64 << (raw % 64);
                nready += 1;
                cursor = cursor.min(raw);
            }
        }
        let scan_budget = 16 * words + live;
        let mut scanned = 0usize;
        let mut heap: Option<BinaryHeap<Reverse<u32>>> = None;
        let mut order = Vec::with_capacity(live);
        let mut done = vec![false; self.nodes.len()];
        loop {
            let raw = if let Some(h) = heap.as_mut() {
                match h.pop() {
                    Some(Reverse(r)) => r as usize,
                    None => break,
                }
            } else {
                if nready == 0 {
                    break;
                }
                let mut w = cursor / 64;
                // Bits below the cursor are clear, but its own word may
                // hold them conceptually — mask them off on the first word.
                let mut word = ready_bits[w] & (u64::MAX << (cursor % 64));
                while word == 0 {
                    w += 1;
                    scanned += 1;
                    word = ready_bits[w];
                }
                let pos = w * 64 + word.trailing_zeros() as usize;
                ready_bits[w] &= !(1u64 << (pos % 64));
                nready -= 1;
                cursor = pos + 1;
                if scanned > scan_budget {
                    let mut h = BinaryHeap::with_capacity(nready);
                    for (wi, &bits) in ready_bits.iter().enumerate() {
                        let mut bits = bits;
                        while bits != 0 {
                            h.push(Reverse((wi * 64) as u32 + bits.trailing_zeros()));
                            bits &= bits - 1;
                        }
                    }
                    heap = Some(h);
                }
                pos
            };
            let id = NodeId(raw as u32);
            order.push(id);
            done[raw] = true;
            for e in &self.node(id).outputs {
                for &(succ, _) in &self.edges[e.0 as usize].consumers {
                    if done[succ.0 as usize] {
                        continue;
                    }
                    let d = &mut indeg[succ.0 as usize];
                    *d = d.saturating_sub(1);
                    if *d == 0 {
                        if let Some(h) = heap.as_mut() {
                            h.push(Reverse(succ.0));
                        } else {
                            let s = succ.0 as usize;
                            ready_bits[s / 64] |= 1u64 << (s % 64);
                            nready += 1;
                            cursor = cursor.min(s);
                        }
                    }
                }
            }
        }
        if order.len() != live {
            return Err(self.node_ids().filter(|id| !done[id.0 as usize]).collect());
        }
        Ok(order)
    }

    /// Puts a [`Refinement`] in place of node `id` — `srdfg[n ↦ subDfg]`,
    /// the one point where Algorithm 1 turns a refinement into nodes. The
    /// sub-graph's boundary inputs are identified with the node's input
    /// edges and its boundary outputs with the node's output edges,
    /// positionally; interior edges and nodes are copied in. Copied nodes
    /// and synthetic-span interior edges inherit the replaced node's
    /// provenance (span, and domain and target where they have none), so
    /// a canonical [`Template`](Refinement::Template) instance is
    /// byte-identical to a direct expansion of the node, and the refinement
    /// itself stays untouched and can be instantiated anywhere.
    ///
    /// # Panics
    ///
    /// Panics if the boundary arities do not match the node's.
    pub fn instantiate(&mut self, id: NodeId, refinement: &Refinement) {
        let sub = refinement.graph();
        let node = self.node(id);
        assert_eq!(
            sub.boundary_inputs.len(),
            node.inputs.len(),
            "instantiate: boundary input arity mismatch for `{}`",
            node.name
        );
        assert_eq!(
            sub.boundary_outputs.len(),
            node.outputs.len(),
            "instantiate: boundary output arity mismatch for `{}`",
            node.name
        );
        // The replaced node is taken out of its slot, not copied: for an
        // inlined component a copy would duplicate the whole body only to
        // drop it.
        let node = self.take_node(id).expect("checked live above");

        // Map sub-edge ids to parent edge ids.
        let mut edge_map: Vec<Option<EdgeId>> = vec![None; sub.edges.len()];
        for (i, be) in sub.boundary_inputs.iter().enumerate() {
            edge_map[be.0 as usize] = Some(node.inputs[i]);
        }
        for (i, be) in sub.boundary_outputs.iter().enumerate() {
            // A sub-graph edge can be both boundary input and output (pure
            // pass-through); splicing then forwards the parent input edge.
            if let Some(existing) = edge_map[be.0 as usize] {
                // Forward: rewire consumers of the parent output edge to the
                // parent input edge, and patch the graph boundary too (a
                // pass-through state variable may be a boundary output).
                let out_edge = node.outputs[i];
                let consumers = std::mem::take(&mut self.edges[out_edge.0 as usize].consumers);
                for (cnode, cslot) in consumers {
                    self.edges[existing.0 as usize].consumers.push((cnode, cslot));
                    let n = self.node_mut(cnode);
                    n.inputs[cslot as usize] = existing;
                }
                for bo in &mut self.boundary_outputs {
                    if *bo == out_edge {
                        *bo = existing;
                    }
                }
            } else {
                edge_map[be.0 as usize] = Some(node.outputs[i]);
            }
        }
        // Interior-edge metadata: in the common case the handle is cloned
        // (a refcount bump — the paper's 78k duplicated metas collapse to
        // reference rewires). Only a synthetic-span meta needs a distinct
        // value (the span stamp), and `node.span` is fixed for this whole
        // call, so a stamped source meta always maps to the same stamped
        // result — a tiny per-call memo keyed on the source handle's
        // address builds one stamped record per source meta (the
        // sub-graph holds that record for the whole call).
        let mut stamped: Vec<(usize, Consed<EdgeMeta>)> = Vec::new();
        let mut stamp = |meta: &Consed<EdgeMeta>| -> Consed<EdgeMeta> {
            if !meta.span.is_synthetic() {
                return meta.clone();
            }
            let key = meta.ptr_id();
            if let Some((_, m)) = stamped.iter().find(|(k, _)| *k == key) {
                return m.clone();
            }
            let mut content = meta.get().clone();
            content.span = node.span;
            let stamped_meta = Consed::new(content);
            stamped.push((key, stamped_meta.clone()));
            stamped_meta
        };
        // A copied node's id is `base` + its rank among the sub-graph's
        // live slots (its own id unless the mid-end removed a slot from a
        // component body), so use lists are copied wholesale, id-remapped.
        // One check covers every new id: all are below the new length.
        let live = sub.node_count();
        id32(self.nodes.len() + live);
        let base = id32(self.nodes.len());
        let rank: Option<Vec<u32>> = (live < sub.nodes.len()).then(|| {
            let ranks = sub.nodes.iter().scan(0, |next, n| {
                let r = *next;
                *next += u32::from(n.is_some());
                Some(r)
            });
            ranks.collect()
        });
        let shift = |&(n, slot): &(NodeId, u32)| {
            let r = rank.as_ref().map_or(n.0, |rank| rank[n.0 as usize]);
            (NodeId(base + r), slot)
        };
        // Boundary edges keep their identity in the parent; the copied
        // nodes reading or writing them are appended to their use lists.
        for (i, pe) in edge_map.iter().enumerate() {
            let Some(pe) = pe else { continue };
            let sedge = &sub.edges[i];
            self.edges[pe.0 as usize].consumers.extend(sedge.consumers.iter().map(shift));
            if let Some(p) = &sedge.producer {
                self.edges[pe.0 as usize].producer = Some(shift(p));
            }
        }
        self.edges.reserve(sub.edges.len());
        for (i, sedge) in sub.edges.iter().enumerate() {
            if edge_map[i].is_none() {
                let meta = stamp(&sedge.meta);
                let id = EdgeId(id32(self.edges.len()));
                self.edges.push(Edge {
                    producer: sedge.producer.as_ref().map(shift),
                    consumers: SmallIds::map_from(&sedge.consumers, |c| shift(&c)),
                    meta,
                });
                edge_map[i] = Some(id);
            }
        }
        self.nodes.reserve(live);
        for snode in sub.nodes.iter().flatten() {
            let inputs: SmallIds<EdgeId, 3> =
                SmallIds::map_from(&snode.inputs, |e| edge_map[e.0 as usize].unwrap());
            let outputs: SmallIds<EdgeId, 2> =
                SmallIds::map_from(&snode.outputs, |e| edge_map[e.0 as usize].unwrap());
            self.nodes.push(Some(Node {
                name: snode.name.clone(),
                kind: snode.kind.clone(),
                domain: snode.domain.or(node.domain),
                inputs,
                outputs,
                pattern: snode.pattern,
                target: snode.target.clone().or_else(|| node.target.clone()),
                // Provenance: refined nodes keep their own span when they
                // have one (component bodies), else inherit the replaced
                // node's.
                span: if snode.span.is_synthetic() { node.span } else { snode.span },
            }));
        }
    }

    /// True when any of `id`'s outputs is a graph boundary output.
    fn feeds_boundary(&self, id: NodeId) -> bool {
        self.node(id).outputs.iter().any(|e| self.boundary_outputs.contains(e))
    }

    /// Merges node `drop` into `keep`: consumers of `drop`'s outputs are
    /// rewired to `keep`'s corresponding outputs and `drop` is removed.
    ///
    /// The two nodes must be behaviourally interchangeable (same kind and
    /// operand edges) — callers such as CSE establish that. This method
    /// centralizes the *merge direction* rule for boundary outputs:
    ///
    /// * An eliminated node's output edges lose their producer, and a
    ///   boundary output's name lives on its edge — so a node feeding the
    ///   graph boundary must survive. If `drop` feeds a boundary output
    ///   and `keep` does not, the direction is flipped internally.
    /// * If *both* nodes feed boundary outputs, neither may be eliminated
    ///   (two distinct output names need distinct producers); the graph is
    ///   left untouched.
    ///
    /// Returns the surviving node id, or `None` when the merge was
    /// refused.
    ///
    /// # Panics
    ///
    /// Panics if either node is dead or the output arities differ.
    pub fn merge_nodes(&mut self, keep: NodeId, drop: NodeId) -> Option<NodeId> {
        assert!(self.is_live(keep) && self.is_live(drop), "merge_nodes on a removed node");
        if keep == drop {
            return Some(keep);
        }
        let (keep, drop) = match (self.feeds_boundary(keep), self.feeds_boundary(drop)) {
            (true, true) => return None,
            (false, true) => (drop, keep),
            _ => (keep, drop),
        };
        let outs_keep = self.node(keep).outputs.clone();
        let outs_drop = self.node(drop).outputs.clone();
        assert_eq!(outs_keep.len(), outs_drop.len(), "merge_nodes: output arity mismatch");
        self.remove_node(drop);
        for (&ea, &eb) in outs_keep.iter().zip(&outs_drop) {
            let consumers = std::mem::take(&mut self.edges[eb.0 as usize].consumers);
            for (cnode, cslot) in consumers {
                let consumer = self.nodes[cnode.0 as usize].as_mut().expect("live consumer");
                consumer.inputs[cslot as usize] = ea;
                self.edges[ea.0 as usize].consumers.push((cnode, cslot));
            }
        }
        Some(keep)
    }

    /// Total scalar operations this graph performs per invocation, summing
    /// map/reduce iteration spaces times kernel op counts and recursing
    /// into component sub-graphs. The basis of every cost model.
    pub fn scalar_op_count(&self) -> u64 {
        let mut total = 0u64;
        for (_, node) in self.iter_nodes() {
            total += node_op_count(node);
        }
        total
    }
}

impl Footprint {
    /// Counts what `g` owns, not the `SrDfg` value itself.
    pub fn graph(&mut self, g: &SrDfg) {
        use std::mem::size_of;
        self.add(
            g.name.capacity()
                + g.nodes.capacity() * size_of::<Option<Node>>()
                + g.edges.capacity() * size_of::<Edge>()
                + (g.boundary_inputs.capacity() + g.boundary_outputs.capacity())
                    * size_of::<EdgeId>(),
        );
        for node in g.nodes.iter().flatten() {
            self.add(node.inputs.heap_bytes() + node.outputs.heap_bytes());
            self.ident(&node.name);
            if let Some(target) = &node.target {
                self.ident(target);
            }
            self.kind(&node.kind);
        }
        for edge in &g.edges {
            self.add(edge.consumers.heap_bytes());
            self.record(&edge.meta);
        }
    }

    /// Counts a node payload's record, or a component's boxed sub-graph.
    pub(crate) fn kind(&mut self, kind: &NodeKind) {
        match kind {
            NodeKind::Component(sub) => {
                self.add(std::mem::size_of::<SrDfg>());
                self.graph(sub);
            }
            NodeKind::Map(m) => self.record(m),
            NodeKind::Reduce(r) => self.record(r),
            NodeKind::Scalar(k) => self.record(k),
            NodeKind::ConstTensor(t) => self.record(t),
            NodeKind::Load | NodeKind::Store | NodeKind::Unpack | NodeKind::Pack => {}
        }
    }
}

/// Narrows a table length or a slot index to a `u32` id, refusing to wrap.
fn id32(n: usize) -> u32 {
    u32::try_from(n).expect("srDFG table outgrew u32 ids")
}

/// Scalar-op count for one node (see [`SrDfg::scalar_op_count`]).
///
/// Counts *datapath* work only: operand-index arithmetic and iteration
/// guards are address-generation logic that every implementation (loop
/// bounds on a CPU, AGUs on an accelerator) performs for free relative to
/// the arithmetic.
pub fn node_op_count(node: &Node) -> u64 {
    match &node.kind {
        NodeKind::Component(sub) => sub.scalar_op_count(),
        NodeKind::Map(m) => {
            (space_size(&m.out_space) as u64).saturating_mul(m.kernel.compute_op_count().max(1))
        }
        NodeKind::Reduce(r) => {
            let points = space_size(&r.out_space).saturating_mul(space_size(&r.red_space)) as u64;
            let per = r.body.compute_op_count() + 1; // + combine
            points.saturating_mul(per.max(1))
        }
        NodeKind::Scalar(_) => 1,
        NodeKind::ConstTensor(_)
        | NodeKind::Load
        | NodeKind::Store
        | NodeKind::Unpack
        | NodeKind::Pack => 0,
    }
}

/// Derives the lowering-facing operation name for a map kernel: a single
/// binary/unary/function application over plain operand reads gets the op's
/// own name; anything compound is a generic `map`.
pub fn map_op_name(kernel: &KExpr) -> String {
    fn is_leaf(e: &KExpr) -> bool {
        matches!(e, KExpr::Operand { .. } | KExpr::Const(_) | KExpr::Idx(_))
    }
    match kernel {
        KExpr::Binary(op, a, b) if is_leaf(a) && is_leaf(b) => match op {
            BinOp::Add => "map.add".into(),
            BinOp::Sub => "map.sub".into(),
            BinOp::Mul => "map.mul".into(),
            BinOp::Div => "map.div".into(),
            BinOp::Mod => "map.mod".into(),
            BinOp::Pow => "map.pow".into(),
            other => format!("map.cmp.{}", other.symbol()),
        },
        KExpr::Unary(UnOp::Neg, a) if is_leaf(a) => "map.neg".into(),
        KExpr::Unary(UnOp::Not, a) if is_leaf(a) => "map.not".into(),
        KExpr::Call(f, args) if args.iter().all(is_leaf) => format!("map.{}", f.name()),
        KExpr::Select(c, a, b) if is_leaf(c) && is_leaf(a) && is_leaf(b) => "map.select".into(),
        KExpr::Operand { .. } | KExpr::Const(_) | KExpr::Idx(_) => "map.copy".into(),
        _ => "map".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(name: &str, shape: Vec<usize>) -> EdgeMeta {
        EdgeMeta::new(name, DType::Float, Modifier::Temp, shape)
    }

    fn simple_map(out: usize) -> MapSpec {
        MapSpec {
            out_space: vec![IndexRange { name: "i".into(), lo: 0, hi: out as i64 - 1 }],
            kernel: KExpr::Binary(
                BinOp::Add,
                Box::new(KExpr::Operand { slot: 0, indices: vec![KExpr::Idx(0)] }),
                Box::new(KExpr::Const(1.0)),
            ),
            write: WriteSpec::identity(&[out]),
        }
    }

    #[test]
    fn a_disagreeing_claim_cannot_be_built() {
        use crate::value::Tensor;
        let c = |name: &str, shape| EdgeMeta::new(name, DType::Complex, Modifier::Temp, shape);
        let sum = ReduceSpec {
            op: ReduceOp::Builtin(BuiltinReduction::Sum),
            out_space: vec![],
            red_space: vec![IndexRange { name: "i".into(), lo: 0, hi: 3 }],
            cond: None,
            body: KExpr::Operand { slot: 0, indices: vec![KExpr::Idx(0)] },
            write: WriteSpec::identity(&[]),
        };
        let mut body = SrDfg::new("f");
        let through = body.add_edge(meta("x", vec![2]));
        body.boundary_inputs.push(through);
        body.boundary_outputs.push(through);
        let zeros = || NodeKind::const_tensor(Tensor::zeros(DType::Float, vec![2]));
        // One row per rule: operands, the results they claim, and a kind
        // whose rule the claim breaks.
        let rows: Vec<(&str, Vec<EdgeMeta>, Vec<EdgeMeta>, NodeKind)> = vec![
            (
                "map shape",
                vec![meta("x", vec![4])],
                vec![meta("y", vec![2])],
                NodeKind::map(simple_map(4)),
            ),
            (
                "reduce shape",
                vec![meta("x", vec![4])],
                vec![meta("y", vec![2])],
                NodeKind::reduce(sum),
            ),
            ("const shape", vec![], vec![meta("k", vec![3])], zeros()),
            ("const complexness", vec![], vec![c("k", vec![2])], zeros()),
            (
                "scalar volume",
                vec![meta("a", vec![]), meta("b", vec![])],
                vec![meta("s", vec![2])],
                NodeKind::scalar(ScalarKind::Bin(BinOp::Add)),
            ),
            ("unpack arity", vec![meta("x", vec![4])], vec![meta("", vec![]); 3], NodeKind::Unpack),
            ("pack volume", vec![meta("", vec![]); 2], vec![meta("y", vec![3])], NodeKind::Pack),
            (
                "component boundary",
                vec![meta("a", vec![4])],
                vec![meta("b", vec![4])],
                NodeKind::Component(Box::new(body)),
            ),
        ];
        for (rule, ins, outs, kind) in rows {
            let mut g = SrDfg::new("t");
            let ins: Vec<EdgeId> = ins.into_iter().map(|m| g.add_edge(m)).collect();
            let outs: Vec<EdgeId> = outs.into_iter().map(|m| g.add_edge(m)).collect();
            let mut probe = g.clone();
            let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                probe.add_node("n", kind.clone(), None, &ins, &outs)
            }));
            let panic = built.expect_err(rule).downcast::<String>().expect("formatted panic");
            assert!(panic.starts_with("add_node: node `n`: edge e"), "{rule}: {panic}");
            // The same disagreement made in place: a load, which has no
            // rule, rewritten into `kind` through `node_mut`.
            let id = g.add_node("n", NodeKind::Load, None, &ins, &outs);
            crate::validate(&g).expect(rule);
            g.node_mut(id).kind = kind;
            let err = crate::validate(&g).expect_err(rule);
            assert!(err.message.starts_with("node `n`: edge e"), "{rule}: {err}");
        }
    }

    #[test]
    fn build_and_topo() {
        let mut g = SrDfg::new("t");
        let a = g.add_edge(meta("a", vec![4]));
        let b = g.add_edge(meta("b", vec![4]));
        let c = g.add_edge(meta("c", vec![4]));
        g.boundary_inputs.push(a);
        g.boundary_outputs.push(c);
        let n1 = g.add_node("add", NodeKind::map(simple_map(4)), None, vec![a], vec![b]);
        let n2 = g.add_node("add", NodeKind::map(simple_map(4)), None, vec![b], vec![c]);
        assert_eq!(g.topo_order(), vec![n1, n2]);
        assert_eq!(g.edge(b).producer, Some((n1, 0)));
        assert_eq!(g.edge(b).consumers, vec![(n2, 0)]);
    }

    #[test]
    fn remove_unlinks() {
        let mut g = SrDfg::new("t");
        let a = g.add_edge(meta("a", vec![4]));
        let b = g.add_edge(meta("b", vec![4]));
        let n1 = g.add_node("add", NodeKind::map(simple_map(4)), None, vec![a], vec![b]);
        g.remove_node(n1);
        assert!(!g.is_live(n1));
        assert!(g.edge(a).consumers.is_empty());
        assert!(g.edge(b).producer.is_none());
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn index_range_sizes() {
        assert_eq!(IndexRange { name: "i".into(), lo: 0, hi: 9 }.size(), 10);
        assert_eq!(IndexRange { name: "i".into(), lo: 5, hi: 4 }.size(), 0);
        assert_eq!(
            space_size(&[
                IndexRange { name: "i".into(), lo: 0, hi: 2 },
                IndexRange { name: "j".into(), lo: 0, hi: 3 },
            ]),
            12
        );
    }

    #[test]
    fn splice_replaces_node() {
        // Parent: in --[f]--> out. Sub for f: in --[g]--> t --[h]--> out.
        let mut parent = SrDfg::new("p");
        let pin = parent.add_edge(meta("in", vec![2]));
        let pout = parent.add_edge(meta("out", vec![2]));
        parent.boundary_inputs.push(pin);
        parent.boundary_outputs.push(pout);
        let f = parent.add_node("f", NodeKind::map(simple_map(2)), None, vec![pin], vec![pout]);

        let mut sub = SrDfg::new("f");
        let sin = sub.add_edge(meta("in", vec![2]));
        let st = sub.add_edge(meta("t", vec![2]));
        let sout = sub.add_edge(meta("out", vec![2]));
        sub.boundary_inputs.push(sin);
        sub.boundary_outputs.push(sout);
        sub.add_node("g", NodeKind::map(simple_map(2)), None, vec![sin], vec![st]);
        sub.add_node("h", NodeKind::map(simple_map(2)), None, vec![st], vec![sout]);

        parent.instantiate(f, &Refinement::Inline(sub));
        assert_eq!(parent.node_count(), 2);
        let order = parent.topo_order();
        assert_eq!(parent.node(order[0]).name, "g");
        assert_eq!(parent.node(order[1]).name, "h");
        // Boundary edges unchanged.
        assert_eq!(parent.boundary_inputs, vec![pin]);
        assert_eq!(parent.boundary_outputs, vec![pout]);
        assert_eq!(
            parent.edge(pout).producer.map(|(n, _)| parent.node(n).name.to_string()),
            Some("h".to_string())
        );
    }

    #[test]
    fn splice_inherits_domain() {
        let mut parent = SrDfg::new("p");
        let pin = parent.add_edge(meta("in", vec![2]));
        let pout = parent.add_edge(meta("out", vec![2]));
        let f = parent.add_node(
            "f",
            NodeKind::map(simple_map(2)),
            Some(Domain::Dsp),
            vec![pin],
            vec![pout],
        );
        let mut sub = SrDfg::new("f");
        let sin = sub.add_edge(meta("in", vec![2]));
        let sout = sub.add_edge(meta("out", vec![2]));
        sub.boundary_inputs.push(sin);
        sub.boundary_outputs.push(sout);
        sub.add_node("g", NodeKind::map(simple_map(2)), None, vec![sin], vec![sout]);
        parent.instantiate(f, &Refinement::Inline(sub));
        let (_, g) = parent.iter_nodes().next().unwrap();
        assert_eq!(g.domain, Some(Domain::Dsp));
    }

    #[test]
    fn a_component_body_with_a_removed_slot_closes_it_up() {
        use crate::build::{build, Bindings};
        use crate::interp::Machine;
        use std::collections::HashMap;
        let prog = pmlang::parse(
            "f(input float x[4], output float y[4]) {
                 index i[0:3];
                 float t[4], u[4];
                 t[i] = x[i] * 2.0;
                 u[i] = x[i] * 2.0;
                 y[i] = t[i] + u[i];
             }
             main(input float a[4], output float b[4]) { f(a, b); b[0] = b[1] + 1.0; }",
        )
        .unwrap();
        let mut g = build(&prog, &Bindings::default()).unwrap();
        let feeds = HashMap::from([(
            "a".to_string(),
            Tensor::from_vec(DType::Float, vec![4], vec![1.0, -2.0, 3.5, 4.0]).unwrap(),
        )]);
        let before = Machine::new(g.clone()).invoke(&feeds).unwrap();
        let (comp, _) =
            g.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Component(_))).unwrap();
        // CSE inside the body: `u` is `t`, so one of the two maps goes and
        // leaves a removed slot behind.
        let NodeKind::Component(body) = &mut g.node_mut(comp).kind else { unreachable!() };
        let muls: Vec<NodeId> =
            body.iter_nodes().filter(|(_, n)| n.name == "map.mul").map(|(id, _)| id).collect();
        assert_eq!(muls.len(), 2, "{muls:?}");
        body.merge_nodes(muls[0], muls[1]).unwrap();
        assert!(body.node_count() < body.node_slots());

        let refinement = Refinement::of(&g, comp, None).unwrap();
        assert!(matches!(refinement, Refinement::Inline(_)));
        let (base, count) = (g.node_slots(), refinement.graph().node_count());
        g.instantiate(comp, &refinement);
        crate::validate(&g).unwrap();
        let new: Vec<usize> = g.node_ids().map(|id| id.0 as usize).filter(|&i| i >= base).collect();
        assert_eq!(new, (base..base + count).collect::<Vec<_>>());
        assert_eq!(g.node_slots(), base + count);
        for e in g.edge_ids() {
            for &(n, _) in &g.edge(e).consumers {
                assert!(g.is_live(n), "edge {e} names removed node {n}");
            }
        }
        assert_eq!(Machine::new(g).invoke(&feeds).unwrap(), before);
    }

    #[test]
    fn op_count_scales_with_space() {
        let spec = simple_map(10);
        let mut g = SrDfg::new("t");
        let a = g.add_edge(meta("a", vec![10]));
        let b = g.add_edge(meta("b", vec![10]));
        g.add_node("add", NodeKind::map(spec), None, vec![a], vec![b]);
        assert_eq!(g.scalar_op_count(), 10); // 10 points × 1 add
    }

    #[test]
    fn map_op_names() {
        let add = KExpr::Binary(
            BinOp::Add,
            Box::new(KExpr::Operand { slot: 0, indices: vec![] }),
            Box::new(KExpr::Operand { slot: 1, indices: vec![] }),
        );
        assert_eq!(map_op_name(&add), "map.add");
        let sig = KExpr::Call(
            ScalarFunc::Sigmoid,
            vec![KExpr::Operand { slot: 0, indices: vec![KExpr::Idx(0)] }],
        );
        assert_eq!(map_op_name(&sig), "map.sigmoid");
        let compound =
            KExpr::Binary(BinOp::Mul, Box::new(add.clone()), Box::new(KExpr::Const(2.0)));
        assert_eq!(map_op_name(&compound), "map");
        assert_eq!(map_op_name(&KExpr::Operand { slot: 0, indices: vec![] }), "map.copy");
    }

    #[test]
    fn edge_meta_bytes() {
        let m = meta("x", vec![3, 4]);
        assert_eq!(m.volume(), 12);
        assert_eq!(m.bytes(), 48);
        let c = EdgeMeta::new("z", DType::Complex, Modifier::Temp, vec![2]);
        assert_eq!(c.bytes(), 16);
    }

    /// x --[n1]--> a --[n3]...    x --[n2]--> b --[n4]...
    /// n1/n2 are interchangeable duplicates reading the same input.
    fn duplicate_pair() -> (SrDfg, EdgeId, NodeId, NodeId, EdgeId, EdgeId) {
        let mut g = SrDfg::new("t");
        let x = g.add_edge(meta("x", vec![4]));
        let a = g.add_edge(meta("a", vec![4]));
        let b = g.add_edge(meta("b", vec![4]));
        g.boundary_inputs.push(x);
        let n1 = g.add_node("add", NodeKind::map(simple_map(4)), None, vec![x], vec![a]);
        let n2 = g.add_node("add", NodeKind::map(simple_map(4)), None, vec![x], vec![b]);
        (g, x, n1, n2, a, b)
    }

    #[test]
    fn merge_nodes_rewires_consumers() {
        let (mut g, _, n1, n2, a, b) = duplicate_pair();
        let y = g.add_edge(meta("y", vec![4]));
        let n3 = g.add_node("add", NodeKind::map(simple_map(4)), None, vec![b], vec![y]);
        assert_eq!(g.merge_nodes(n1, n2), Some(n1));
        assert!(!g.is_live(n2));
        assert_eq!(g.node(n3).inputs, vec![a], "consumer rewired to kept output");
        assert_eq!(g.edge(a).consumers, vec![(n3, 0)]);
        assert!(g.edge(b).consumers.is_empty());
    }

    #[test]
    fn merge_nodes_flips_toward_boundary_producer() {
        // `drop` feeds the graph boundary: the direction must flip so the
        // boundary edge keeps its producer.
        let (mut g, _, n1, n2, _, b) = duplicate_pair();
        g.boundary_outputs.push(b);
        assert_eq!(g.merge_nodes(n1, n2), Some(n2));
        assert!(!g.is_live(n1));
        assert_eq!(g.edge(b).producer, Some((n2, 0)));
    }

    #[test]
    fn merge_nodes_refuses_two_boundary_producers() {
        // Both duplicates feed (distinct) boundary outputs: neither may be
        // eliminated, and the graph must be untouched.
        let (mut g, _, n1, n2, a, b) = duplicate_pair();
        g.boundary_outputs.push(a);
        g.boundary_outputs.push(b);
        assert_eq!(g.merge_nodes(n1, n2), None);
        assert!(g.is_live(n1) && g.is_live(n2));
        assert_eq!(g.edge(a).producer, Some((n1, 0)));
        assert_eq!(g.edge(b).producer, Some((n2, 0)));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detection_panics() {
        let mut g = SrDfg::new("t");
        let a = g.add_edge(meta("a", vec![1]));
        let b = g.add_edge(meta("b", vec![1]));
        g.add_node("f", NodeKind::map(simple_map(1)), None, vec![a], vec![b]);
        g.add_node("g", NodeKind::map(simple_map(1)), None, vec![b], vec![a]);
        g.topo_order();
    }
}
