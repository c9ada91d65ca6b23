//! Initialization analysis: finds values that are consumed but never
//! produced (`PM-E104` — the interpreter would trap looking them up) and
//! `state` buffers that are read but never updated across invocation
//! boundaries (`PM-W105` — every invocation observes the initial value,
//! so the "state" is really a constant).

use crate::{codes, Diagnostic};
use srdfg::graph::Modifier;
use srdfg::{EdgeId, SrDfg};

/// Whether `e` is read but never written: no node produces it, some node
/// consumes it, and the boundary does not feed it. The interpreter traps
/// on the read (`PM-E104`), and certification refuses the graph.
pub(crate) fn reads_unproduced(graph: &SrDfg, e: EdgeId) -> bool {
    let edge = graph.edge(e);
    edge.producer.is_none() && !edge.consumers.is_empty() && !graph.boundary_inputs.contains(&e)
}

/// How many produced values can never be computed: a node with an
/// unproduced operand traps before it writes, so everything forward of an
/// unproduced read, through each consumer's outputs, is lost. A boundary
/// input is fed whatever its producer does.
fn downstream_of_unproduced(graph: &SrDfg) -> usize {
    let mut lost = vec![false; graph.edge_count()];
    let mut stack: Vec<EdgeId> = graph.edge_ids().filter(|&e| reads_unproduced(graph, e)).collect();
    while let Some(e) = stack.pop() {
        for &(c, _) in &graph.edge(e).consumers {
            for &o in &graph.node(c).outputs {
                if !lost[o.0 as usize] && !graph.boundary_inputs.contains(&o) {
                    lost[o.0 as usize] = true;
                    stack.push(o);
                }
            }
        }
    }
    graph.edge_ids().filter(|&e| lost[e.0 as usize] && graph.edge(e).producer.is_some()).count()
}

/// Runs initialization analysis over one graph level (no component
/// recursion), appending findings to `out`. `is_root` enables the
/// cross-invocation state check, which only makes sense on the graph
/// whose boundary the runtime circulates state through.
pub fn check_graph(graph: &SrDfg, is_root: bool, out: &mut Vec<Diagnostic>) {
    // Report only root causes — producer-less edges somebody reads. The
    // downstream count tells how much of the graph each trap takes down,
    // without a finding per downstream edge.
    let mut downstream = None;
    for e in graph.edge_ids().filter(|&e| reads_unproduced(graph, e)) {
        let edge = graph.edge(e);
        let reader = &graph.node(edge.consumers[0].0).name;
        let mut finding = Diagnostic::error(
            codes::UNINITIALIZED,
            format!("`{}` reads `{}`, which is never produced", reader, edge.meta.name),
        )
        .at(edge.meta.span)
        .with_note("the interpreter traps on the first read of an unwritten value");
        let lost = *downstream.get_or_insert_with(|| downstream_of_unproduced(graph));
        if lost > 0 {
            finding =
                finding.with_note(format!("{lost} downstream value(s) can never be computed"));
        }
        out.push(finding);
    }

    if !is_root {
        return;
    }
    // State circulation: a state variable enters through a boundary input
    // and its updated version leaves through a boundary output. A state
    // input that is *itself* passed back out unchanged is never updated —
    // with readers, that is almost certainly a bug.
    for &e in &graph.boundary_inputs {
        let edge = graph.edge(e);
        if edge.meta.modifier != Modifier::State {
            continue;
        }
        let passed_through = graph.boundary_outputs.contains(&e);
        if passed_through && !edge.consumers.is_empty() {
            let root = edge.meta.name.split('.').next().unwrap_or(&edge.meta.name);
            out.push(
                Diagnostic::warning(
                    codes::STALE_STATE,
                    format!(
                        "state `{root}` is read but never updated; every invocation observes \
                         its initial value"
                    ),
                )
                .at(edge.meta.span)
                .with_note("assign the state variable somewhere, or make it a `param`"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::build;
    use srdfg::graph::{EdgeMeta, NodeKind, ScalarKind};

    fn check(graph: &SrDfg, is_root: bool) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_graph(graph, is_root, &mut out);
        out
    }

    #[test]
    fn updated_state_is_quiet() {
        let g = build(
            "main(input float x, state float acc, output float y) {
                 acc = acc + x;
                 y = acc;
             }",
        );
        assert!(check(&g, true).is_empty());
    }

    #[test]
    fn flags_state_read_but_never_updated() {
        let g = build(
            "main(input float x, state float bias, output float y) {
                 y = x + bias;
             }",
        );
        let out = check(&g, true);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, codes::STALE_STATE);
        assert!(out[0].message.contains("bias"), "{}", out[0].message);
        // Inside a component the same shape is normal plumbing.
        assert!(check(&g, false).is_empty());
    }

    #[test]
    fn flags_read_of_never_produced_edge_with_poison_count() {
        let mut g = SrDfg::new("broken");
        let phantom =
            g.add_edge(EdgeMeta::new("phantom", pmlang::DType::Float, Modifier::Temp, vec![]));
        let mid = g.add_edge(EdgeMeta::new("mid", pmlang::DType::Float, Modifier::Temp, vec![]));
        let y = g.add_edge(EdgeMeta::new("y", pmlang::DType::Float, Modifier::Output, vec![]));
        g.add_node(
            "use",
            NodeKind::scalar(ScalarKind::Un(pmlang::UnOp::Neg)),
            None,
            vec![phantom],
            vec![mid],
        );
        g.add_node(
            "fwd",
            NodeKind::scalar(ScalarKind::Un(pmlang::UnOp::Neg)),
            None,
            vec![mid],
            vec![y],
        );
        g.boundary_outputs.push(y);
        let out = check(&g, true);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, codes::UNINITIALIZED);
        assert!(out[0].message.contains("phantom"), "{}", out[0].message);
        // `mid` and `y` are poisoned, and reported via a note, not as
        // separate findings.
        assert!(out[0].notes.iter().any(|n| n.contains("2 downstream")), "{:?}", out[0].notes);
    }
}
