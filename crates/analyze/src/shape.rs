//! Shape/dtype inference: re-derives every edge's metadata from its
//! producer and cross-checks the result against what the edge claims.
//!
//! This is the single source of truth behind the `PM-E003`
//! edge-consistency check and the `PassManager`'s semantic verifier: the
//! same [`solver::ForwardDomain`] instance drives both. On a mismatch the
//! inferred value falls back to the claimed metadata so one corrupted
//! edge does not cascade into findings on every downstream node.

use crate::solver::{self, ForwardDomain, Lattice};
use crate::{codes, Diagnostic};
use pmlang::{BinOp, DType, UnOp};
use srdfg::graph::{Node, NodeId, NodeKind};
use srdfg::{EdgeId, KExpr, NodeKind as NK, SrDfg};

/// Abstract shape/dtype of one edge. `None` components are unknown —
/// inference refuses to guess rather than guessing wrong.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShapeVal {
    /// Element count per axis (empty = scalar).
    pub shape: Option<Vec<usize>>,
    /// Whether the value is complex (dtype collapsed to complexness,
    /// matching the promotion rule the kernel evaluator implements).
    pub complex: Option<bool>,
}

impl Lattice for ShapeVal {
    fn join(&mut self, other: &ShapeVal) -> bool {
        let mut changed = false;
        match (&self.shape, &other.shape) {
            (None, Some(s)) => {
                self.shape = Some(s.clone());
                changed = true;
            }
            (Some(a), Some(b)) if a != b => {
                self.shape = None;
                changed = true;
            }
            _ => {}
        }
        match (self.complex, other.complex) {
            (None, Some(c)) => {
                self.complex = Some(c);
                changed = true;
            }
            (Some(a), Some(b)) if a != b => {
                self.complex = None;
                changed = true;
            }
            _ => {}
        }
        changed
    }
}

/// True for kernels built purely from constants, indices, operand reads,
/// negation, and `+ - * /` — the fragment whose result dtype is fully
/// determined by operand dtypes (complex promotion).
fn is_pure_arith(k: &KExpr) -> bool {
    match k {
        KExpr::Const(_) | KExpr::Idx(_) => true,
        KExpr::Arg(_) => false,
        KExpr::Operand { indices, .. } => indices.iter().all(is_pure_arith),
        KExpr::Unary(op, e) => *op == UnOp::Neg && is_pure_arith(e),
        KExpr::Binary(op, a, b) => {
            matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
                && is_pure_arith(a)
                && is_pure_arith(b)
        }
        KExpr::Select(..) | KExpr::Call(..) => false,
    }
}

/// The shape/dtype inference domain. Findings accumulate in `out`.
struct ShapeDomain<'a> {
    out: &'a mut Vec<Diagnostic>,
}

impl ShapeDomain<'_> {
    fn meta_val(graph: &SrDfg, e: EdgeId) -> ShapeVal {
        let meta = &graph.edge(e).meta;
        ShapeVal { shape: Some(meta.shape.clone()), complex: Some(meta.dtype == DType::Complex) }
    }

    /// Reports a shape mismatch between an output edge's claim and what
    /// its producer computes.
    fn shape_mismatch(&mut self, graph: &SrDfg, node: &Node, oe: EdgeId, expected: &[usize]) {
        let meta = &graph.edge(oe).meta;
        self.out.push(
            Diagnostic::error(
                codes::EDGE_CONSISTENCY,
                format!(
                    "edge `{}` claims shape {:?} but its producer `{}` writes shape {:?}",
                    meta.name, meta.shape, node.name, expected
                ),
            )
            .at(meta.span)
            .with_note("edge metadata was corrupted after graph construction"),
        );
    }

    /// Checks every output edge against an expected shape, reporting
    /// mismatches, and pushes the values to propagate (the *claimed*
    /// metadata, so a single corruption does not cascade).
    fn write_outputs(
        &mut self,
        graph: &SrDfg,
        node: &Node,
        expected: &[usize],
        complex: Option<bool>,
        out: &mut Vec<ShapeVal>,
    ) {
        for &oe in &node.outputs {
            if graph.edge(oe).meta.shape != expected {
                self.shape_mismatch(graph, node, oe, expected);
            }
        }
        out.extend(node.outputs.iter().map(|&oe| {
            let mut v = Self::meta_val(graph, oe);
            if complex.is_some() {
                v.complex = complex;
            }
            v
        }));
    }

    /// Pushes every output edge's claimed metadata unmodified.
    fn meta_outputs(graph: &SrDfg, node: &Node, out: &mut Vec<ShapeVal>) {
        out.extend(node.outputs.iter().map(|&oe| Self::meta_val(graph, oe)));
    }

    /// The complex-promotion dtype inferred for a pure-arithmetic kernel,
    /// or `None` when any referenced operand's complexness is unknown (or
    /// the kernel references nothing).
    fn promoted_complex(kernel: &KExpr, node: &Node, inputs: &[ShapeVal]) -> Option<bool> {
        if !is_pure_arith(kernel) {
            return None;
        }
        let mut any_complex = false;
        let mut all_known = true;
        let mut referenced = false;
        kernel.for_each_operand(&mut |slot, _| {
            referenced = true;
            match inputs.get(slot).and_then(|v| v.complex) {
                Some(true) => any_complex = true,
                Some(false) => {}
                None => all_known = false,
            }
        });
        if referenced && all_known && node.inputs.len() >= inputs.len() {
            Some(any_complex)
        } else {
            None
        }
    }
}

impl ForwardDomain for ShapeDomain<'_> {
    type Value = ShapeVal;

    fn bottom(&self) -> ShapeVal {
        ShapeVal::default()
    }

    fn boundary(&mut self, graph: &SrDfg, edge: EdgeId) -> ShapeVal {
        Self::meta_val(graph, edge)
    }

    fn transfer(
        &mut self,
        graph: &SrDfg,
        _id: NodeId,
        node: &Node,
        inputs: &[ShapeVal],
        out: &mut Vec<ShapeVal>,
    ) {
        match &node.kind {
            NK::Map(m) => {
                let complex = Self::promoted_complex(&m.kernel, node, inputs);
                if let Some(inferred) = complex {
                    for &oe in &node.outputs {
                        let meta = &graph.edge(oe).meta;
                        let claims_complex = meta.dtype == DType::Complex;
                        if claims_complex != inferred {
                            let shown = if inferred { DType::Complex } else { DType::Float };
                            self.out.push(
                                Diagnostic::error(
                                    codes::EDGE_CONSISTENCY,
                                    format!(
                                        "edge `{}` claims dtype {:?} but its producer `{}` \
                                         computes {:?}",
                                        meta.name, meta.dtype, node.name, shown
                                    ),
                                )
                                .at(meta.span),
                            );
                        }
                    }
                }
                self.write_outputs(graph, node, &m.write.target_shape, complex, out)
            }
            NK::Reduce(r) => self.write_outputs(graph, node, &r.write.target_shape, None, out),
            NK::ConstTensor(t) => {
                for &oe in &node.outputs {
                    let meta = &graph.edge(oe).meta;
                    if meta.shape != t.shape() {
                        self.shape_mismatch(graph, node, oe, t.shape());
                    }
                    let claims_complex = meta.dtype == DType::Complex;
                    let is_complex = t.dtype() == DType::Complex;
                    if claims_complex != is_complex {
                        self.out.push(
                            Diagnostic::error(
                                codes::EDGE_CONSISTENCY,
                                format!(
                                    "edge `{}` claims dtype {:?} but its producer `{}` \
                                     computes {:?}",
                                    meta.name,
                                    meta.dtype,
                                    node.name,
                                    t.dtype()
                                ),
                            )
                            .at(meta.span),
                        );
                    }
                }
                Self::meta_outputs(graph, node, out)
            }
            NK::Scalar(_) => {
                for &oe in &node.outputs {
                    let meta = &graph.edge(oe).meta;
                    if meta.volume() != 1 {
                        self.shape_mismatch(graph, node, oe, &[]);
                    }
                }
                Self::meta_outputs(graph, node, out)
            }
            NK::Unpack => {
                if let Some(&ie) = node.inputs.first() {
                    let vol = graph.edge(ie).meta.volume();
                    if vol != node.outputs.len() {
                        let meta = &graph.edge(ie).meta;
                        self.out.push(
                            Diagnostic::error(
                                codes::EDGE_CONSISTENCY,
                                format!(
                                    "unpack of `{}` produces {} scalar edge(s) but the tensor \
                                     has {} element(s)",
                                    meta.name,
                                    node.outputs.len(),
                                    vol
                                ),
                            )
                            .at(meta.span),
                        );
                    }
                }
                Self::meta_outputs(graph, node, out)
            }
            NK::Pack => {
                if let Some(&oe) = node.outputs.first() {
                    let meta = &graph.edge(oe).meta;
                    if meta.volume() != node.inputs.len() {
                        self.out.push(
                            Diagnostic::error(
                                codes::EDGE_CONSISTENCY,
                                format!(
                                    "pack into `{}` gathers {} scalar edge(s) but the tensor \
                                     has {} element(s)",
                                    meta.name,
                                    node.inputs.len(),
                                    meta.volume()
                                ),
                            )
                            .at(meta.span),
                        );
                    }
                }
                Self::meta_outputs(graph, node, out)
            }
            NK::Component(sub) => {
                // Inner boundary edges must agree with the outer edges
                // they are positionally bound to (shape only; recursion
                // into the sub-graph happens per graph level).
                let pairs = sub
                    .boundary_inputs
                    .iter()
                    .zip(&node.inputs)
                    .chain(sub.boundary_outputs.iter().zip(&node.outputs));
                for (&inner, &outer) in pairs {
                    let im = &sub.edge(inner).meta;
                    let om = &graph.edge(outer).meta;
                    if im.shape != om.shape {
                        self.out.push(
                            Diagnostic::error(
                                codes::EDGE_CONSISTENCY,
                                format!(
                                    "component `{}` boundary edge `{}` has shape {:?} but is \
                                     bound to `{}` of shape {:?}",
                                    node.name, im.name, im.shape, om.name, om.shape
                                ),
                            )
                            .at(om.span),
                        );
                    }
                }
                Self::meta_outputs(graph, node, out)
            }
            NK::Load | NK::Store => {
                // Marshalling preserves the value: pass the input through
                // when arities line up, else trust the metadata.
                if node.inputs.len() == 1 && node.outputs.len() == 1 {
                    out.push(inputs[0].clone());
                } else {
                    Self::meta_outputs(graph, node, out);
                }
            }
        }
    }
}

/// Runs shape/dtype inference over one graph level (no component
/// recursion), appending findings to `out`.
pub fn check_graph(graph: &SrDfg, out: &mut Vec<Diagnostic>) {
    let mut domain = ShapeDomain { out };
    solver::solve(graph, &mut domain);
}

/// The `PassManager` semantic-verifier hook: re-runs shape/dtype
/// inference over `graph` and every component sub-graph.
///
/// # Errors
///
/// Returns the first error-severity finding's message. Pass pipelines run
/// this after every changed pass in debug builds, so it must stay linear
/// in graph size — it is one solver pass per graph level.
pub fn verify_types(graph: &SrDfg) -> Result<(), String> {
    fn walk(graph: &SrDfg) -> Result<(), String> {
        let mut findings = Vec::new();
        check_graph(graph, &mut findings);
        if let Some(f) = findings.iter().find(|f| f.severity == crate::Severity::Error) {
            return Err(f.message.clone());
        }
        for (_, node) in graph.iter_nodes() {
            if let NodeKind::Component(sub) = &node.kind {
                walk(sub).map_err(|msg| format!("{msg} (in component `{}`)", node.name))?;
            }
        }
        Ok(())
    }
    walk(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::build;

    fn check(graph: &SrDfg) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_graph(graph, &mut out);
        out
    }

    #[test]
    fn clean_graph_is_quiet() {
        let g = build(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 y[i] = x[i] * 2.0;
             }",
        );
        assert!(check(&g).is_empty());
        assert!(verify_types(&g).is_ok());
    }

    #[test]
    fn detects_corrupted_shape_metadata() {
        let mut g = build(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 y[i] = x[i] * 2.0;
             }",
        );
        let oe = g.boundary_outputs[0];
        g.edit_edge_meta(oe, |m| m.shape = vec![2]);
        let out = check(&g);
        assert!(!out.is_empty());
        assert_eq!(out[0].code, codes::EDGE_CONSISTENCY);
        assert!(out[0].message.contains("[2]"), "{}", out[0].message);
        assert!(verify_types(&g).is_err());
    }

    #[test]
    fn detects_corrupted_dtype_metadata() {
        let mut g = build(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 y[i] = x[i] * 2.0;
             }",
        );
        let oe = g.boundary_outputs[0];
        g.edit_edge_meta(oe, |m| m.dtype = DType::Complex);
        let out = check(&g);
        assert!(out.iter().any(|f| f.message.contains("dtype")), "{out:?}");
    }

    #[test]
    fn dtype_inference_propagates_through_chains() {
        // Corrupt an *intermediate* edge: the claim/inference mismatch is
        // reported there, but the downstream node sees the claimed value
        // (error recovery), so exactly one finding appears.
        let mut g = build(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 float t[4];
                 t[i] = x[i] * 2.0;
                 y[i] = t[i] + 1.0;
             }",
        );
        let te = g
            .edge_ids()
            .find(|&e| g.edge(e).meta.name.starts_with('t'))
            .expect("intermediate edge");
        g.edit_edge_meta(te, |m| m.dtype = DType::Complex);
        let out = check(&g);
        let dtype_findings: Vec<_> = out.iter().filter(|f| f.message.contains("dtype")).collect();
        assert_eq!(dtype_findings.len(), 1, "{out:?}");
    }

    #[test]
    fn verify_types_names_component_path() {
        let mut g = build(
            "f(input float x[2], output float y[2]) { index i[0:1]; y[i] = x[i] * 2.0; }
             main(input float a[2], output float b[2]) { f(a, b); }",
        );
        let ids: Vec<_> = g.node_ids().collect();
        for id in ids {
            if let NodeKind::Component(sub) = &mut g.node_mut(id).kind {
                let oe = sub.boundary_outputs[0];
                sub.edit_edge_meta(oe, |m| m.shape = vec![7]);
                break;
            }
        }
        let err = verify_types(&g).unwrap_err();
        assert!(err.contains("component `f`") || err.contains("[7]"), "{err}");
    }
}
