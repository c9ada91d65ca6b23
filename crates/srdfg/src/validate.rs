//! Structural well-formedness checks for srDFGs.

use crate::graph::{NodeKind, SrDfg};
use std::fmt;

/// A structural defect found by [`validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ValidateError {
    /// Description of the defect.
    pub message: String,
    /// Component names from the root graph down to the graph containing the
    /// offending node/edge (empty when the defect is in the root itself).
    pub path: Vec<String>,
}

impl ValidateError {
    /// A defect in the graph currently being checked.
    pub fn new(message: impl Into<String>) -> ValidateError {
        ValidateError { message: message.into(), path: Vec::new() }
    }

    /// Prepends one enclosing component name to the breadcrumb path.
    pub fn inside(mut self, component: impl Into<String>) -> ValidateError {
        self.path.insert(0, component.into());
        self
    }
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid srDFG")?;
        if !self.path.is_empty() {
            write!(f, " (in {})", self.path.join(" -> "))?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for ValidateError {}

/// Checks graph invariants:
///
/// * producer/consumer back-links are consistent, from the node side and
///   from the edge side;
/// * boundary outputs have a producer or are boundary inputs (pass-through);
/// * kernel operand slots stay within each node's input arity;
/// * every node's edges keep its shape/dtype rule
///   ([`NodeKind::check_edge_metas`]), which a pass can break in place;
/// * component sub-graph boundary arities match their node's;
/// * the graph is acyclic (checked via [`SrDfg::try_topo_order`]);
/// * sub-graphs validate recursively.
///
/// # Errors
///
/// Returns the first [`ValidateError`] found, with [`ValidateError::path`]
/// naming the chain of component nodes leading to the offending sub-graph.
/// Use [`validate_all`] to collect every defect instead of stopping at
/// the first.
pub fn validate(graph: &SrDfg) -> Result<(), ValidateError> {
    match validate_all(graph).into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Like [`validate`], but keeps going: returns *every* structural defect
/// in the graph (and its nested components), in scan order — back-link,
/// kernel-arity and shape/dtype-rule defects node by node, then producer-less boundary
/// outputs, then edge-side back-link defects, then the acyclicity check
/// (skipped when an edge names a node that does not use it). Each error carries the same
/// component breadcrumb [`ValidateError::path`] the first-error API
/// reports, so a pass that corrupts several places at once is diagnosed
/// in one round trip.
pub fn validate_all(graph: &SrDfg) -> Vec<ValidateError> {
    let mut out = Vec::new();
    collect(graph, &mut out);
    out
}

fn collect(graph: &SrDfg, out: &mut Vec<ValidateError>) {
    for (id, node) in graph.iter_nodes() {
        for (slot, &e) in (0u32..).zip(&node.inputs) {
            let edge = graph.edge(e);
            if !edge.consumers.contains(&(id, slot)) {
                out.push(ValidateError::new(format!(
                    "edge {e} missing consumer back-link to {id} slot {slot}"
                )));
            }
        }
        for (slot, &e) in (0u32..).zip(&node.outputs) {
            let edge = graph.edge(e);
            if edge.producer != Some((id, slot)) {
                out.push(ValidateError::new(format!(
                    "edge {e} missing producer back-link to {id} slot {slot}"
                )));
            }
        }
        let max_slot = match &node.kind {
            NodeKind::Map(m) => m.kernel.max_slot(),
            NodeKind::Reduce(r) => {
                r.body.max_slot().max(r.cond.as_ref().and_then(|c| c.max_slot()))
            }
            _ => None,
        };
        if let Some(ms) = max_slot {
            if ms >= node.inputs.len() {
                out.push(ValidateError::new(format!(
                    "node `{}` kernel references slot {ms} but has {} inputs",
                    node.name,
                    node.inputs.len()
                )));
            }
        }
        if let Err(msg) = node.kind.check_edge_metas(graph, &node.inputs, &node.outputs) {
            out.push(ValidateError::new(format!("node `{}`: {msg}", node.name)));
        }
        if let NodeKind::Component(sub) = &node.kind {
            if sub.boundary_inputs.len() != node.inputs.len()
                || sub.boundary_outputs.len() != node.outputs.len()
            {
                out.push(ValidateError::new(format!(
                    "component `{}` boundary arity mismatch ({}→{} vs {}→{})",
                    node.name,
                    sub.boundary_inputs.len(),
                    sub.boundary_outputs.len(),
                    node.inputs.len(),
                    node.outputs.len()
                )));
            }
            let before = out.len();
            collect(sub, out);
            for e in &mut out[before..] {
                e.path.insert(0, node.name.to_string());
            }
        }
    }
    for &e in &graph.boundary_outputs {
        let edge = graph.edge(e);
        if edge.producer.is_none() && !graph.boundary_inputs.contains(&e) {
            out.push(ValidateError::new(format!(
                "boundary output `{}` has no producer",
                edge.meta.name
            )));
        }
    }
    // The same back-links from the edge side. The sort below indexes by
    // every node an edge names, so it runs only when each of them uses the
    // edge in the slot named.
    let before = out.len();
    for e in graph.edge_ids() {
        let edge = graph.edge(e);
        let producer = edge.producer.map(|(n, slot)| ("producer", n, slot));
        let consumers = edge.consumers.iter().map(|&(n, slot)| ("consumer", n, slot));
        for (role, n, slot) in producer.into_iter().chain(consumers) {
            let ports = graph.is_live(n).then(|| {
                let node = graph.node(n);
                if role == "producer" {
                    &node.outputs[..]
                } else {
                    &node.inputs[..]
                }
            });
            if ports.and_then(|p| p.get(slot as usize)) != Some(&e) {
                out.push(ValidateError::new(format!(
                    "edge {e} names {role} {n} slot {slot}, which does not use it"
                )));
            }
        }
    }
    // Acyclicity, without panicking on malformed graphs.
    if out.len() > before {
        return;
    }
    if let Err(stuck) = graph.try_topo_order() {
        let names: Vec<String> =
            stuck.iter().take(8).map(|&id| format!("`{}`", graph.node(id).name)).collect();
        out.push(ValidateError::new(format!(
            "graph contains a cycle through {} node(s): {}",
            stuck.len(),
            names.join(", ")
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, Bindings};

    fn assert_valid(src: &str, sizes: Vec<(&str, i64)>) {
        let prog = pmlang::parse(src).unwrap();
        pmlang::check(&prog).unwrap();
        let g = build(&prog, &Bindings::from_sizes(sizes)).unwrap();
        validate(&g).unwrap();
    }

    #[test]
    fn built_graphs_validate() {
        assert_valid(
            "mvmul(input float A[m][n], input float B[n], output float C[m]) {
                 index i[0:n-1], j[0:m-1];
                 C[j] = sum[i](A[j][i]*B[i]);
             }
             main(input float W[3][2], input float x[2], state float s[3], output float y[3]) {
                 index j[0:2];
                 DA: mvmul(W, x, y);
                 s[j] = s[j] + y[j];
             }",
            vec![],
        );
    }

    #[test]
    fn refined_graphs_validate() {
        let prog = pmlang::parse(
            "main(input float A[2][3], input float B[3], output float C[2]) {
                 index i[0:2], j[0:1];
                 C[j] = sum[i](A[j][i]*B[i]);
             }",
        )
        .unwrap();
        let mut g = build(&prog, &Bindings::default()).unwrap();
        let ids: Vec<_> = g.node_ids().collect();
        for id in ids {
            if let Ok(refinement) = crate::Refinement::of(&g, id, None) {
                g.instantiate(id, &refinement);
            }
        }
        validate(&g).unwrap();
    }

    #[test]
    fn detects_broken_backlink() {
        let prog = pmlang::parse("main(input float x, output float y) { y = x + 1.0; }").unwrap();
        let mut g = build(&prog, &Bindings::default()).unwrap();
        // Corrupt: clear a consumer list behind the node's back.
        let e = g.boundary_inputs[0];
        g.consumers_mut(e).clear();
        assert!(validate(&g).is_err());
    }

    fn temp(name: &str) -> crate::graph::EdgeMeta {
        use crate::graph::{EdgeMeta, Modifier};
        EdgeMeta::new(name, pmlang::DType::Float, Modifier::Temp, vec![])
    }

    fn neg() -> NodeKind {
        NodeKind::scalar(crate::graph::ScalarKind::Un(pmlang::UnOp::Neg))
    }

    #[test]
    fn detects_a_dangling_consumer_without_panicking() {
        // `a` reads what the later `b` writes, so the sort cannot take its
        // id-order fast path and walks every consumer list.
        let mut g = SrDfg::new("late");
        let (x, t, y) = (g.add_edge(temp("x")), g.add_edge(temp("t")), g.add_edge(temp("y")));
        g.add_node("a", neg(), None, [t], [y]);
        g.add_node("b", neg(), None, [x], [t]);
        g.boundary_inputs.push(x);
        g.boundary_outputs.push(y);
        validate(&g).unwrap();
        g.consumers_mut(y).push((crate::graph::NodeId(7), 0));
        let err = validate(&g).unwrap_err();
        assert!(err.message.contains("names consumer n7 slot 0"), "{err}");
    }

    #[test]
    fn detects_cycle_without_panicking() {
        // Two scalar nodes consuming each other's outputs: a genuine cycle
        // with consistent back-links.
        let mut g = SrDfg::new("cyclic");
        let (e1, e2) = (g.add_edge(temp("e1")), g.add_edge(temp("e2")));
        g.add_node("a", neg(), None, [e2], [e1]);
        g.add_node("b", neg(), None, [e1], [e2]);
        let err = validate(&g).unwrap_err();
        assert!(err.message.contains("cycle"), "{err}");
        assert!(g.try_topo_order().is_err());

        // A node consuming its own output is a cycle too, and the
        // interpreter refuses it instead of panicking.
        let mut g = SrDfg::new("self");
        let e = g.add_edge(temp("e"));
        g.add_node("a", neg(), None, [e], [e]);
        assert!(validate(&g).unwrap_err().message.contains("cycle"));
        let err = crate::Machine::new(g).invoke(&Default::default()).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn validate_all_reports_every_defect() {
        let prog =
            pmlang::parse("main(input float a, input float b, output float y) { y = a + b; }")
                .unwrap();
        let mut g = build(&prog, &Bindings::default()).unwrap();
        // Corrupt both input edges: two independent back-link defects.
        let (e1, e2) = (g.boundary_inputs[0], g.boundary_inputs[1]);
        g.consumers_mut(e1).clear();
        g.consumers_mut(e2).clear();
        let errors = validate_all(&g);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors.iter().all(|e| e.message.contains("consumer back-link")), "{errors:?}");
        // The first-error API returns exactly the first collected defect.
        assert_eq!(validate(&g).unwrap_err(), errors[0]);
    }

    #[test]
    fn error_breadcrumb_names_component_path() {
        let prog = pmlang::parse(
            "f(input float x, output float y) { y = x * 2.0; }
             g(input float x, output float y) { f(x, y); }
             main(input float a, output float b) { g(a, b); }",
        )
        .unwrap();
        let mut graph = build(&prog, &Bindings::default()).unwrap();
        // Corrupt the innermost sub-graph (main -> g -> f).
        fn corrupt_innermost(g: &mut SrDfg) -> bool {
            let ids: Vec<_> = g.node_ids().collect();
            for id in ids {
                let is_comp = matches!(g.node(id).kind, NodeKind::Component(_));
                if is_comp {
                    if let NodeKind::Component(sub) = &mut g.node_mut(id).kind {
                        if !corrupt_innermost(sub) {
                            let e = sub.boundary_inputs[0];
                            sub.consumers_mut(e).clear();
                        }
                        return true;
                    }
                }
            }
            false
        }
        assert!(corrupt_innermost(&mut graph));
        let err = validate(&graph).unwrap_err();
        assert_eq!(err.path, vec!["g".to_string(), "f".to_string()]);
        assert!(err.to_string().contains("in g -> f"), "{err}");
    }
}
