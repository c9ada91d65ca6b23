//! Constant propagation: nodes whose operands are all compile-time
//! constants are evaluated at compile time and replaced by
//! [`NodeKind::ConstTensor`] nodes.
//!
//! A single sweep over the topological order suffices to cascade
//! constants through arbitrarily long chains: folding a node only changes
//! the operands of its consumers, and every consumer sits strictly later
//! in the order, so it is visited after the fold — no worklist, no
//! fixpoint loop.

use crate::manager::{Pass, PassStats};
use srdfg::interp::{exec_map, exec_reduce};
use srdfg::{KExpr, NodeId, NodeKind, SrDfg, Tensor};

/// Evaluates constant `Map`/`Reduce` nodes at compile time (paper §IV.B
/// lists constant propagation among the supported traditional passes).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstantPropagation;

impl Pass for ConstantPropagation {
    fn name(&self) -> &'static str {
        "constant-propagation"
    }

    fn run_on_graph(&self, graph: &mut SrDfg) -> PassStats {
        let mut stats = PassStats::default();
        // Every fold needs a seed: an existing ConstTensor operand or an
        // input-free constant-kernel fill. A level with neither (the usual
        // converged case) cannot cascade anything — skip the topo sweep.
        let has_seed = graph.iter_nodes().any(|(_, n)| match &n.kind {
            NodeKind::ConstTensor(_) => true,
            NodeKind::Map(m) => n.inputs.is_empty() && matches!(m.kernel, KExpr::Const(_)),
            _ => false,
        });
        if !has_seed {
            return stats;
        }
        // One forward sweep: a fold replaces a producer in place (the edge
        // id survives), and all affected consumers come later in the order.
        let order = graph.topo_order();
        for id in order {
            if !graph.is_live(id) {
                continue;
            }
            let Some(value) = eval_if_const(graph, id) else { continue };
            let out_edge = graph.node(id).outputs[0];
            graph.remove_node(id);
            graph.add_node("const", NodeKind::const_tensor(value), None, vec![], vec![out_edge]);
            stats.changed = true;
            stats.rewrites += 1;
        }
        stats
    }
}

/// Evaluates `id` if it is an affordable Map/Reduce over all-constant
/// operands (or an input-free constant-kernel fill); `None` otherwise.
fn eval_if_const(graph: &SrDfg, id: NodeId) -> Option<Tensor> {
    let node = graph.node(id);
    if !matches!(node.kind, NodeKind::Map(_) | NodeKind::Reduce(_)) {
        return None;
    }
    // All operands must be ConstTensor outputs. Checked before anything
    // costly: the common case (some operand non-constant) must stay cheap.
    let mut refs: Vec<&Tensor> = Vec::with_capacity(node.inputs.len());
    for &e in &node.inputs {
        let (p, _) = graph.edge(e).producer?;
        match &graph.node(p).kind {
            NodeKind::ConstTensor(t) => refs.push(t),
            _ => return None,
        }
    }
    // Nodes with no inputs qualify only with a constant kernel (e.g. the
    // builder's `fill` nodes).
    if node.inputs.is_empty() {
        let pure_const = match &node.kind {
            NodeKind::Map(m) => matches!(m.kernel, KExpr::Const(_)),
            _ => false,
        };
        if !pure_const {
            return None;
        }
    }
    // Only now walk the kernel to bound compile-time evaluation cost.
    if !is_affordable(srdfg::graph::node_op_count(node)) {
        return None;
    }

    let out_dtype = graph.edge(node.outputs[0]).meta.dtype;
    let result = match &node.kind {
        NodeKind::Map(m) => exec_map(m, &refs, out_dtype),
        NodeKind::Reduce(r) => exec_reduce(r, &refs, out_dtype),
        _ => unreachable!(),
    };
    result.ok()
}

/// Bounds compile-time evaluation so propagation cannot blow up build times.
fn is_affordable(ops: u64) -> bool {
    ops <= 1_000_000
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dce::DeadNodeElimination;
    use std::collections::HashMap;

    #[test]
    fn fill_nodes_become_const_tensors() {
        // `y[2*j] = 5.0` forces a zero-fill + carried partial write; after
        // propagation the fill and the write both become ConstTensor.
        let prog = pmlang::parse(
            "main(input float x, output float y[4]) {
                 index j[0:1];
                 y[2*j] = 5.0;
                 y[1] = x;
             }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let stats = ConstantPropagation.run(&mut g);
        assert!(stats.changed);
        assert!(stats.rewrites >= 2, "fill + first write, got {}", stats.rewrites);
        let consts =
            g.iter_nodes().filter(|(_, n)| matches!(n.kind, NodeKind::ConstTensor(_))).count();
        assert!(consts >= 2);

        // Semantics preserved.
        let feeds =
            HashMap::from([("x".to_string(), srdfg::Tensor::scalar(pmlang::DType::Float, 7.0))]);
        let mut m = srdfg::Machine::new(g);
        let out = m.invoke(&feeds).unwrap();
        assert_eq!(out["y"].as_real_slice().unwrap(), &[5.0, 7.0, 5.0, 0.0]);
    }

    #[test]
    fn non_const_inputs_block_propagation() {
        let prog = pmlang::parse(
            "main(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i] + 1.0; }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let stats = ConstantPropagation.run(&mut g);
        assert!(!stats.changed);
    }

    #[test]
    fn constants_cascade_through_chain_in_one_run() {
        // b depends on a which becomes constant; the worklist must
        // re-visit b after a folds, all within a single run.
        let prog = pmlang::parse(
            "main(input float x, output float y) {
                 float a, b;
                 a = 5.0 + 0.0;
                 b = a + a;
                 y = x + b;
             }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        // Fold literal kernels (`5.0 + 0.0` → `5.0`) so `a` qualifies as a
        // constant fill, then run propagation exactly once.
        crate::fold::ConstantFold.run(&mut g);
        let stats = ConstantPropagation.run_on_graph(&mut g);
        assert!(stats.changed);
        let feeds =
            HashMap::from([("x".to_string(), srdfg::Tensor::scalar(pmlang::DType::Float, 1.0))]);
        let mut m = srdfg::Machine::new(g.clone());
        assert_eq!(m.invoke(&feeds).unwrap()["y"].scalar_value().unwrap(), 11.0);
        // The `b = a + a` node must itself have folded to a constant.
        let consts =
            g.iter_nodes().filter(|(_, n)| matches!(n.kind, NodeKind::ConstTensor(_))).count();
        assert!(consts >= 2, "chain did not cascade: {consts} const nodes");
    }

    #[test]
    fn standard_pipeline_cleans_up() {
        let prog = pmlang::parse(
            "main(input float x, output float y) {
                 float a, b;
                 a = 2.0 * 3.0;
                 b = a + 4.0;
                 y = x + b;
             }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let pm = crate::manager::PassManager::standard();
        pm.run(&mut g);
        let _ = DeadNodeElimination; // pipeline includes DCE
                                     // After fold + propagation, only the final `x + 10` map (plus its
                                     // const operand) should remain.
        let feeds =
            HashMap::from([("x".to_string(), srdfg::Tensor::scalar(pmlang::DType::Float, 1.0))]);
        let mut m = srdfg::Machine::new(g.clone());
        assert_eq!(m.invoke(&feeds).unwrap()["y"].scalar_value().unwrap(), 11.0);
        assert!(g.node_count() <= 3, "graph still has {} nodes", g.node_count());
    }
}
