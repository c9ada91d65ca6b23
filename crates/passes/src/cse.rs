//! Common-subexpression elimination by value numbering: merges
//! structurally identical nodes with identical operand edges.
//!
//! A single topological-order sweep hash-conses every node by its
//! structural hash of `(kind, canonicalized input edges)`
//! ([`srdfg::node_structural_hash`]): on a table hit with confirmed
//! equality the node is merged into the representative via
//! [`SrDfg::merge_nodes`], which rewires its consumers on the spot. Since
//! producers are canonicalized before their consumers are visited, chains
//! of duplicates collapse transitively in the same sweep — no pairwise
//! O(n²) rescan, no fixpoint loop.

use crate::manager::{Pass, PassStats};
use srdfg::{NodeId, NodeKind, SrDfg};
use std::collections::HashMap;

/// Merges duplicate nodes (same behaviour, same inputs), rewiring the
/// duplicate's consumers to the surviving node's outputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommonSubexpressionElimination;

impl Pass for CommonSubexpressionElimination {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run_on_graph(&self, graph: &mut SrDfg) -> PassStats {
        let mut stats = PassStats::default();
        // A merge needs two candidates: levels with fewer than two
        // non-component nodes (common deep in a component hierarchy) skip
        // the hashing and table setup outright.
        let candidates = graph
            .node_ids()
            .filter(|&id| !matches!(graph.node(id).kind, NodeKind::Component(_)))
            .take(2)
            .count();
        if candidates < 2 {
            return stats;
        }
        let order = graph.topo_order();
        // Value-numbering table: structural hash → first representative.
        // Extra representatives with the same hash (true collision, or
        // equal nodes that both feed boundary outputs and so cannot merge)
        // are rare; they spill into `overflow` instead of costing every
        // entry a bucket allocation.
        let mut table: HashMap<u64, NodeId, srdfg::FxBuildHasher> =
            HashMap::with_capacity_and_hasher(order.len(), srdfg::FxBuildHasher::default());
        let mut overflow: Vec<(u64, NodeId)> = Vec::new();
        for id in order {
            if !graph.is_live(id) {
                continue;
            }
            // Component graphs are instantiation-unique by design (paper
            // §II.A); don't merge them.
            if matches!(graph.node(id).kind, NodeKind::Component(_)) {
                continue;
            }
            // Hash at visit time: earlier merges already rewired this
            // node's inputs to canonical edges.
            let h = srdfg::node_structural_hash(graph.node(id));
            // Representatives are probed in insertion order: the table
            // entry first, then same-hash overflow entries.
            let mut merged = false;
            let first = table.entry(h).or_insert(id);
            if *first != id {
                let mut reps = std::iter::once(first)
                    .chain(overflow.iter_mut().filter(|(oh, _)| *oh == h).map(|(_, n)| n));
                let survivor = reps.find_map(|slot| {
                    let rep = *slot;
                    if !graph.is_live(rep) {
                        return None;
                    }
                    let (nr, ni) = (graph.node(rep), graph.node(id));
                    if nr.kind != ni.kind || nr.inputs != ni.inputs {
                        return None;
                    }
                    // `merge_nodes` owns the boundary-direction rule; it
                    // may keep `id` instead of `rep` (rep interior, id on
                    // the boundary) or refuse (both on the boundary).
                    graph.merge_nodes(rep, id).map(|survivor| {
                        *slot = survivor;
                    })
                });
                if survivor.is_some() {
                    stats.changed = true;
                    stats.rewrites += 1;
                    merged = true;
                }
                if !merged {
                    overflow.push((h, id));
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn merges_identical_maps() {
        let prog = pmlang::parse(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 float a[4], b[4];
                 a[i] = x[i] * 2.0;
                 b[i] = x[i] * 2.0;
                 y[i] = a[i] + b[i];
             }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        assert_eq!(g.node_count(), 3);
        let stats = CommonSubexpressionElimination.run(&mut g);
        assert!(stats.changed);
        assert_eq!(g.node_count(), 2);

        let feeds = HashMap::from([(
            "x".to_string(),
            srdfg::Tensor::from_vec(pmlang::DType::Float, vec![4], vec![1.0, 2.0, 3.0, 4.0])
                .unwrap(),
        )]);
        let mut m = srdfg::Machine::new(g);
        let out = m.invoke(&feeds).unwrap();
        assert_eq!(out["y"].as_real_slice().unwrap(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn duplicate_boundary_outputs_keep_both_names() {
        // Two identical maps that BOTH feed program outputs: neither node
        // may be eliminated, or one output name disappears.
        let prog = pmlang::parse(
            "main(input float x[4], output float a[4], output float b[4]) {
                 index i[0:3];
                 a[i] = x[i] * 2.0;
                 b[i] = x[i] * 2.0;
             }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        CommonSubexpressionElimination.run(&mut g);

        let feeds = HashMap::from([(
            "x".to_string(),
            srdfg::Tensor::from_vec(pmlang::DType::Float, vec![4], vec![1.0, 2.0, 3.0, 4.0])
                .unwrap(),
        )]);
        let out = srdfg::Machine::new(g).invoke(&feeds).unwrap();
        assert_eq!(out["a"].as_real_slice().unwrap(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(out["b"].as_real_slice().unwrap(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn interior_duplicate_merges_into_boundary_producer() {
        // One duplicate feeds the boundary, the other is interior: the
        // boundary node must be the survivor whichever order they appear.
        let prog = pmlang::parse(
            "main(input float x[4], output float a[4], output float y[4]) {
                 index i[0:3];
                 float b[4];
                 a[i] = x[i] * 2.0;
                 b[i] = x[i] * 2.0;
                 y[i] = b[i] + 1.0;
             }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let stats = CommonSubexpressionElimination.run(&mut g);
        assert!(stats.changed);

        let feeds = HashMap::from([(
            "x".to_string(),
            srdfg::Tensor::from_vec(pmlang::DType::Float, vec![4], vec![1.0, 2.0, 3.0, 4.0])
                .unwrap(),
        )]);
        let out = srdfg::Machine::new(g).invoke(&feeds).unwrap();
        assert_eq!(out["a"].as_real_slice().unwrap(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(out["y"].as_real_slice().unwrap(), &[3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn two_boundary_duplicates_plus_interior_third() {
        // `a` and `b` both feed boundary outputs, so they can never merge
        // with each other; the interior duplicate `c` must still fold into
        // one of them. Regression test for the centralized merge-direction
        // rule in `SrDfg::merge_nodes`.
        let prog = pmlang::parse(
            "main(input float x[4], output float a[4], output float b[4], output float y[4]) {
                 index i[0:3];
                 float c[4];
                 a[i] = x[i] * 2.0;
                 b[i] = x[i] * 2.0;
                 c[i] = x[i] * 2.0;
                 y[i] = c[i] + 1.0;
             }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        assert_eq!(g.node_count(), 4);
        let stats = CommonSubexpressionElimination.run(&mut g);
        assert!(stats.changed);
        assert_eq!(stats.rewrites, 1, "only the interior duplicate merges");
        assert_eq!(g.node_count(), 3);
        srdfg::validate(&g).unwrap();

        let feeds = HashMap::from([(
            "x".to_string(),
            srdfg::Tensor::from_vec(pmlang::DType::Float, vec![4], vec![1.0, 2.0, 3.0, 4.0])
                .unwrap(),
        )]);
        let out = srdfg::Machine::new(g).invoke(&feeds).unwrap();
        assert_eq!(out["a"].as_real_slice().unwrap(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(out["b"].as_real_slice().unwrap(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(out["y"].as_real_slice().unwrap(), &[3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn chained_duplicates_collapse_in_one_sweep() {
        // Two identical two-stage chains: value numbering must collapse
        // both stages in a single run (producers canonicalize before
        // consumers are visited).
        let prog = pmlang::parse(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 float a[4], b[4], c[4], d[4];
                 a[i] = x[i] * 2.0;
                 b[i] = a[i] + 1.0;
                 c[i] = x[i] * 2.0;
                 d[i] = c[i] + 1.0;
                 y[i] = b[i] + d[i];
             }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        assert_eq!(g.node_count(), 5);
        let stats = CommonSubexpressionElimination.run_on_graph(&mut g);
        assert!(stats.changed);
        assert_eq!(stats.rewrites, 2, "both chain stages merge in one sweep");
        assert_eq!(g.node_count(), 3);
        srdfg::validate(&g).unwrap();

        let feeds = HashMap::from([(
            "x".to_string(),
            srdfg::Tensor::from_vec(pmlang::DType::Float, vec![4], vec![1.0, 2.0, 3.0, 4.0])
                .unwrap(),
        )]);
        let out = srdfg::Machine::new(g).invoke(&feeds).unwrap();
        assert_eq!(out["y"].as_real_slice().unwrap(), &[6.0, 10.0, 14.0, 18.0]);
    }

    #[test]
    fn different_kernels_not_merged() {
        let prog = pmlang::parse(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 float a[4], b[4];
                 a[i] = x[i] * 2.0;
                 b[i] = x[i] * 3.0;
                 y[i] = a[i] + b[i];
             }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let stats = CommonSubexpressionElimination.run(&mut g);
        assert!(!stats.changed);
    }

    #[test]
    fn components_never_merged() {
        let prog = pmlang::parse(
            "f(input float a, output float b) { b = a + 1.0; }
             main(input float x, output float y, output float z) {
                 f(x, y);
                 f(x, z);
             }",
        )
        .unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let stats = CommonSubexpressionElimination.run(&mut g);
        assert!(!stats.changed);
        assert_eq!(g.node_count(), 2);
    }
}
