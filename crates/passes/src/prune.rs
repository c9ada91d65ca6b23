//! Pruning of operand inputs a node's kernels never read.
//!
//! Granularity refinements (map splitting in particular) conservatively
//! thread every boundary edge through every intermediate node; this pass
//! drops the unused slots and renumbers kernel operand references, keeping
//! scalar-granularity translations clean.

use crate::manager::{Pass, PassStats};
use srdfg::{KExpr, NodeKind, SrDfg};

/// Removes unused operand inputs from `Map`/`Reduce` nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct PruneUnusedInputs;

impl Pass for PruneUnusedInputs {
    fn name(&self) -> &'static str {
        "prune-unused-inputs"
    }

    fn run_on_graph(&self, graph: &mut SrDfg) -> PassStats {
        let mut stats = PassStats::default();
        // One scratch buffer reused across nodes (arity is tiny; the
        // common converged case must not allocate per node).
        let mut used: Vec<bool> = Vec::new();
        for slot in 0..graph.node_slots() {
            let id = srdfg::NodeId(slot as u32);
            if !graph.is_live(id) {
                continue;
            }
            let node = graph.node(id);
            let arity = node.inputs.len();
            if arity == 0 {
                continue;
            }
            used.clear();
            used.resize(arity, false);
            let carried = match &node.kind {
                NodeKind::Map(m) => {
                    mark_used(&m.kernel, &mut used);
                    m.write.carried
                }
                NodeKind::Reduce(r) => {
                    mark_used(&r.body, &mut used);
                    if let Some(c) = &r.cond {
                        mark_used(c, &mut used);
                    }
                    r.write.carried
                }
                _ => continue,
            };
            if carried {
                used[0] = true; // the carry is read implicitly
            }
            if used.iter().all(|u| *u) {
                continue;
            }
            // Build the slot remapping.
            let mut remap = vec![usize::MAX; arity];
            let mut next = 0usize;
            for (slot, &u) in used.iter().enumerate() {
                if u {
                    remap[slot] = next;
                    next += 1;
                }
            }
            let inputs = node.inputs.clone();
            // Rebuild the input list, then relink this node's consumer
            // entries from scratch (an edge may feed several slots).
            let mut new_inputs = Vec::with_capacity(next);
            for (slot, &e) in inputs.iter().enumerate() {
                if used[slot] {
                    new_inputs.push(e);
                }
            }
            for &e in &inputs {
                graph.consumers_mut(e).retain(|&(n, _)| n != id);
            }
            for (new_slot, &e) in (0u32..).zip(&new_inputs) {
                graph.consumers_mut(e).push((id, new_slot));
            }
            let node = graph.node_mut(id);
            node.inputs = new_inputs.into();
            // Copy-on-write: the diverged payload gets a fresh record rather
            // than mutating a possibly shared one.
            match &mut node.kind {
                NodeKind::Map(m) => {
                    let mut owned = m.get().clone();
                    remap_kexpr(&mut owned.kernel, &remap);
                    *m = srdfg::Consed::new(owned);
                }
                NodeKind::Reduce(r) => {
                    let mut owned = r.get().clone();
                    remap_kexpr(&mut owned.body, &remap);
                    if let Some(c) = &mut owned.cond {
                        remap_kexpr(c, &remap);
                    }
                    *r = srdfg::Consed::new(owned);
                }
                _ => unreachable!(),
            }
            stats.changed = true;
            stats.rewrites += 1;
        }
        stats
    }
}

fn mark_used(k: &KExpr, used: &mut [bool]) {
    k.for_each_operand(&mut |slot, _| {
        if slot < used.len() {
            used[slot] = true;
        }
    });
}

fn remap_kexpr(k: &mut KExpr, remap: &[usize]) {
    match k {
        KExpr::Operand { slot, indices } => {
            *slot = remap[*slot];
            indices.iter_mut().for_each(|ix| remap_kexpr(ix, remap));
        }
        KExpr::Unary(_, e) => remap_kexpr(e, remap),
        KExpr::Binary(_, a, b) => {
            remap_kexpr(a, remap);
            remap_kexpr(b, remap);
        }
        KExpr::Select(c, a, b) => {
            remap_kexpr(c, remap);
            remap_kexpr(a, remap);
            remap_kexpr(b, remap);
        }
        KExpr::Call(_, args) => args.iter_mut().for_each(|a| remap_kexpr(a, remap)),
        KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srdfg::Refinement;
    use std::collections::HashMap;

    #[test]
    fn split_maps_get_pruned() {
        // A compound map splits into single-op maps that each carry every
        // boundary edge; pruning trims them back to what each op reads.
        let prog = pmlang::parse(
            "main(input float x[4], input float y[4], output float z[4]) {
                 index i[0:3];
                 z[i] = (x[i] + y[i]) * x[i];
             }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let (id, _) = g.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Map(_))).unwrap();
        let refinement = Refinement::of(&g, id, None).unwrap();
        g.instantiate(id, &refinement);
        let stats = PruneUnusedInputs.run(&mut g);
        assert!(stats.changed);
        // Every map now has at most the operands its kernel reads.
        for (_, n) in g.iter_nodes() {
            if let NodeKind::Map(m) = &n.kind {
                let max = m.kernel.max_slot().map_or(0, |s| s + 1);
                assert!(n.inputs.len() <= max.max(usize::from(m.write.carried)) + 1);
            }
        }
        srdfg::validate::validate(&g).unwrap();

        let feeds = HashMap::from([
            (
                "x".to_string(),
                srdfg::Tensor::from_vec(pmlang::DType::Float, vec![4], vec![1.0, 2.0, 3.0, 4.0])
                    .unwrap(),
            ),
            (
                "y".to_string(),
                srdfg::Tensor::from_vec(pmlang::DType::Float, vec![4], vec![1.0, 1.0, 1.0, 1.0])
                    .unwrap(),
            ),
        ]);
        let mut m = srdfg::Machine::new(g);
        let out = m.invoke(&feeds).unwrap();
        assert_eq!(out["z"].as_real_slice().unwrap(), &[2.0, 6.0, 12.0, 20.0]);
    }

    #[test]
    fn carry_slot_is_preserved() {
        let prog = pmlang::parse(
            "main(input float x[4], output float y[4]) {
                 index i[0:3], j[0:1];
                 y[i] = x[i];
                 y[2*j] = 7.0;
             }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        PruneUnusedInputs.run(&mut g);
        srdfg::validate::validate(&g).unwrap();
        let feeds = HashMap::from([(
            "x".to_string(),
            srdfg::Tensor::from_vec(pmlang::DType::Float, vec![4], vec![1.0, 2.0, 3.0, 4.0])
                .unwrap(),
        )]);
        let mut m = srdfg::Machine::new(g);
        let out = m.invoke(&feeds).unwrap();
        assert_eq!(out["y"].as_real_slice().unwrap(), &[7.0, 2.0, 7.0, 4.0]);
    }

    #[test]
    fn fully_used_nodes_untouched() {
        let prog = pmlang::parse(
            "main(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i] + 1.0; }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        assert!(!PruneUnusedInputs.run(&mut g).changed);
    }
}
